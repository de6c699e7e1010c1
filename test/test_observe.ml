(* The health observatory: metrics-catalog integrity and source
   scanning, health-threshold boundary classification, and repair-debt
   walkers over hand-built pathways. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Types = Automed_iql.Types
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Telemetry = Automed_telemetry.Telemetry
module Microjson = Automed_telemetry.Microjson
module Catalog = Automed_observe.Catalog
module Health = Automed_observe.Health

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let q = Parser.parse_exn

(* -- catalog -------------------------------------------------------------- *)

let test_catalog_sorted_unique () =
  let names = List.map (fun d -> d.Catalog.name) Catalog.all in
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted, no duplicates" true (strictly_ascending names);
  Alcotest.(check bool) "catalog is not empty" true (List.length names > 50);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d.Catalog.name ^ " has unit and description") true
        (d.Catalog.unit_ <> "" && d.Catalog.description <> ""))
    Catalog.all

let test_catalog_find () =
  (match Catalog.find "processor.runs" with
  | Some d -> Alcotest.(check string) "kind" "counter" (Catalog.kind_label d.Catalog.kind)
  | None -> Alcotest.fail "processor.runs not in catalog");
  (match Catalog.find "evolution.repair_ms" with
  | Some d ->
      Alcotest.(check string) "kind" "histogram" (Catalog.kind_label d.Catalog.kind)
  | None -> Alcotest.fail "evolution.repair_ms not in catalog");
  Alcotest.(check bool) "unknown name" true (Catalog.find "no.such.metric" = None)

let test_catalog_json () =
  match Microjson.parse (Catalog.to_json ()) with
  | Error e -> Alcotest.failf "catalog JSON does not parse: %s" e
  | Ok doc -> (
      match Microjson.member "metrics" doc with
      | Some (Microjson.Arr ms) ->
          Alcotest.(check int) "one entry per declaration"
            (List.length Catalog.all) (List.length ms)
      | _ -> Alcotest.fail "metrics member missing")

(* -- source scanning ------------------------------------------------------ *)

let scan src = Catalog.scan ~file:"synthetic.ml" src

let site_names sites =
  List.map (fun s -> s.Catalog.s_name) sites

let test_scan_plain_literal () =
  let sites = scan "let f () =\n  Telemetry.count \"foo.bar\";\n  ()\n" in
  Alcotest.(check int) "one site" 1 (List.length sites);
  let s = List.hd sites in
  Alcotest.(check (option string)) "name" (Some "foo.bar") s.Catalog.s_name;
  Alcotest.(check int) "line of the probe token" 2 s.Catalog.s_line;
  Alcotest.(check bool) "counter kind" true (s.Catalog.s_kind = Catalog.Counter)

let test_scan_observe_is_histogram () =
  let sites = scan "Telemetry.observe \"lat.ms\" 3.0\n" in
  Alcotest.(check int) "one site" 1 (List.length sites);
  Alcotest.(check bool) "histogram kind" true
    ((List.hd sites).Catalog.s_kind = Catalog.Histogram)

let test_scan_by_argument () =
  let sites = scan "Telemetry.count ~by:3 \"with.ident\"\n" in
  Alcotest.(check (list (option string))) "identifier ~by:" [ Some "with.ident" ]
    (site_names sites);
  let sites =
    scan "Telemetry.count ~by:(List.length (f xs))\n  \"multi.line\"\n"
  in
  Alcotest.(check (list (option string)))
    "parenthesised multi-line ~by:" [ Some "multi.line" ] (site_names sites);
  Alcotest.(check int) "line is the probe token's" 1
    (List.hd sites).Catalog.s_line

let test_scan_dynamic_name () =
  let sites = scan "Telemetry.count (prim_counter p);\n" in
  Alcotest.(check (list (option string))) "computed name" [ None ]
    (site_names sites)

let test_scan_newline_between_probe_and_name () =
  let sites = scan "Telemetry.count\n  \"next.line\"\n" in
  Alcotest.(check (list (option string))) "name on the next line"
    [ Some "next.line" ] (site_names sites)

(* -- catalog checking ----------------------------------------------------- *)

let has_undeclared name issues =
  List.exists
    (function Catalog.Undeclared (_, n) -> n = name | _ -> false)
    issues

let test_check_undeclared () =
  let issues =
    Catalog.check [ ("f.ml", "Telemetry.count \"not.a.metric\"\n") ]
  in
  Alcotest.(check bool) "undeclared reported" true
    (has_undeclared "not.a.metric" issues)

let test_check_kind_mismatch () =
  let issues =
    Catalog.check [ ("f.ml", "Telemetry.observe \"processor.runs\" 1.0\n") ]
  in
  Alcotest.(check bool) "kind mismatch reported" true
    (List.exists
       (function
         | Catalog.Kind_mismatch (_, n, _) -> n = "processor.runs"
         | _ -> false)
       issues)

let test_check_orphans () =
  (* with no sources at all, every non-dynamic declaration is orphaned *)
  let issues = Catalog.check [] in
  let orphans =
    List.filter (function Catalog.Orphaned _ -> true | _ -> false) issues
  in
  let static_decls =
    List.filter (fun d -> not d.Catalog.dynamic) Catalog.all
  in
  Alcotest.(check int) "every static declaration is orphaned"
    (List.length static_decls) (List.length orphans);
  (* dynamic declarations are exempt *)
  Alcotest.(check bool) "dynamic names are not orphaned" true
    (not
       (List.exists
          (function
            | Catalog.Orphaned d -> d.Catalog.dynamic
            | _ -> false)
          issues))

(* -- health classification ------------------------------------------------ *)

let level = Alcotest.testable (Fmt.of_to_string Health.level_label) ( = )

let test_classify_boundaries () =
  let t = { Health.warn = 10.0; critical = 20.0 } in
  Alcotest.check level "below warn" Health.Good (Health.classify t 9.99);
  Alcotest.check level "exactly at warn escalates" Health.Warn
    (Health.classify t 10.0);
  Alcotest.check level "between" Health.Warn (Health.classify t 19.99);
  Alcotest.check level "exactly at critical escalates" Health.Critical
    (Health.classify t 20.0);
  Alcotest.check level "beyond" Health.Critical (Health.classify t 1e9);
  Alcotest.check level "zero" Health.Good (Health.classify t 0.0)

let test_empty_repository_report () =
  let r = Health.of_repository (Repository.create ()) in
  Alcotest.(check int) "stable dashboard shape: 7 indicators" 7
    (List.length r.Health.r_indicators);
  Alcotest.check level "overall ok" Health.Good r.Health.r_overall;
  Alcotest.(check bool) "no re-integration needed" false
    r.Health.r_needs_reintegration;
  Alcotest.(check string) "global placeholder" "(none)" r.Health.r_global;
  List.iter
    (fun i -> Alcotest.check level (i.Health.i_name ^ " ok") Health.Good i.Health.i_level)
    r.Health.r_indicators;
  (* the JSON emitter produces a parseable document with every member *)
  match Microjson.parse (Health.to_json r) with
  | Error e -> Alcotest.failf "health JSON does not parse: %s" e
  | Ok doc ->
      List.iter
        (fun k ->
          if Microjson.member k doc = None then
            Alcotest.failf "health JSON lacks %s" k)
        [ "global"; "version"; "overall"; "needs_reintegration"; "indicators" ]

let test_report_escalation () =
  let config =
    { Health.default_config with Health.chain_depth = { warn = 3.0; critical = 5.0 } }
  in
  let warn_r =
    Health.of_repository ~config ~version:4 ~global:"g_v4" (Repository.create ())
  in
  Alcotest.check level "chain depth at 4 warns" Health.Warn warn_r.Health.r_overall;
  Alcotest.(check bool) "debt warn triggers re-integration" true
    warn_r.Health.r_needs_reintegration;
  let crit_r =
    Health.of_repository ~config ~version:9 ~global:"g_v9" (Repository.create ())
  in
  Alcotest.check level "chain depth at 9 is critical" Health.Critical
    crit_r.Health.r_overall

(* -- repair-debt walkers -------------------------------------------------- *)

let base_schema () =
  ok
    (Schema.of_objects "s"
       [ (Scheme.table "t", Some (Types.TBag Types.TStr)) ])

let repo_with_pathways pathways =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (base_schema ()));
  List.iter (fun p -> ok (Repository.add_pathway repo p)) pathways;
  repo

let pathway ~target steps =
  { Transform.from_schema = "s"; to_schema = target; steps }

let test_quarantined_pathways () =
  let quarantined =
    pathway ~target:"g1"
      [ Transform.Extend (Scheme.table "u", Ast.Void, Ast.Any) ]
  in
  let healthy =
    pathway ~target:"g2"
      [ Transform.Add (Scheme.table "v", q "[k | k <- <<t>>]") ]
  in
  let repo = repo_with_pathways [ quarantined; healthy ] in
  Alcotest.(check int) "one quarantined" 1 (Health.quarantined_pathways repo);
  Alcotest.(check int) "no void steps outside the quarantine" 0
    (Health.void_degraded_steps repo)

let test_void_degraded_steps () =
  (* a mixed pathway: one real definition plus one Void-degraded one —
     the shape an evolution patch leaves behind *)
  let mixed =
    pathway ~target:"g"
      [
        Transform.Add (Scheme.table "v", q "[k | k <- <<t>>]");
        Transform.Extend (Scheme.table "u", Ast.Void, Ast.Any);
      ]
  in
  let repo = repo_with_pathways [ mixed ] in
  Alcotest.(check int) "not quarantined" 0 (Health.quarantined_pathways repo);
  Alcotest.(check int) "one degraded step" 1 (Health.void_degraded_steps repo);
  (* the degraded step shows up in the report through the walker *)
  let config =
    { Health.default_config with Health.void_degraded = { warn = 1.0; critical = 2.0 } }
  in
  let r = Health.of_repository ~config repo in
  let ind =
    List.find (fun i -> i.Health.i_name = "void-degraded-steps") r.Health.r_indicators
  in
  Alcotest.check level "at-threshold escalates to warn" Health.Warn
    ind.Health.i_level;
  Alcotest.(check bool) "degradation warn triggers re-integration" true
    r.Health.r_needs_reintegration

let suite =
  [
    Alcotest.test_case "catalog sorted and unique" `Quick
      test_catalog_sorted_unique;
    Alcotest.test_case "catalog find" `Quick test_catalog_find;
    Alcotest.test_case "catalog json" `Quick test_catalog_json;
    Alcotest.test_case "scan plain literal" `Quick test_scan_plain_literal;
    Alcotest.test_case "scan observe kind" `Quick test_scan_observe_is_histogram;
    Alcotest.test_case "scan ~by: arguments" `Quick test_scan_by_argument;
    Alcotest.test_case "scan dynamic name" `Quick test_scan_dynamic_name;
    Alcotest.test_case "scan name on next line" `Quick
      test_scan_newline_between_probe_and_name;
    Alcotest.test_case "check undeclared" `Quick test_check_undeclared;
    Alcotest.test_case "check kind mismatch" `Quick test_check_kind_mismatch;
    Alcotest.test_case "check orphans" `Quick test_check_orphans;
    Alcotest.test_case "classify boundaries" `Quick test_classify_boundaries;
    Alcotest.test_case "empty repository report" `Quick
      test_empty_repository_report;
    Alcotest.test_case "report escalation" `Quick test_report_escalation;
    Alcotest.test_case "quarantined pathways walker" `Quick
      test_quarantined_pathways;
    Alcotest.test_case "void-degraded steps walker" `Quick
      test_void_degraded_steps;
  ]
