(* The pathway rewrite engine, the independent equivalence checker that
   certifies it, and the source-reachability pass: one firing and one
   non-firing case per rewrite rule, mutation tests proving the checker
   rejects unsound rewrites, the journaled lint autofixer, and a
   property that certified simplification preserves pathway semantics
   on randomly generated pathways. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Types = Automed_iql.Types
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Analysis = Automed_analysis.Analysis
module Rewrite = Automed_analysis.Rewrite
module Equiv = Automed_analysis.Equiv
module Reachability = Automed_analysis.Reachability
module Pathway_lint = Automed_analysis.Pathway_lint
module D = Automed_analysis.Diagnostic
module Federated = Automed_integration.Federated
module Durable = Automed_durable.Durable
module Vfs = Automed_durable.Vfs
module Telemetry = Automed_telemetry.Telemetry

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let q = Parser.parse_exn
let tbl = Scheme.table

let src () =
  ok
    (Schema.of_objects "s"
       [
         (tbl "t", Some (Types.TBag Types.TStr));
         (tbl "t2", Some (Types.TBag Types.TStr));
       ])

let pathway steps = { Transform.from_schema = "s"; to_schema = "g"; steps }
let simplify steps = Rewrite.simplify (src ()) (pathway steps)
let steps_of o = o.Rewrite.pathway.Transform.steps
let rules_of o = List.map (fun (a : Rewrite.application) -> a.rule) o.Rewrite.applications

let check_steps msg expected o =
  Alcotest.(check bool) msg true (steps_of o = expected)

(* -- the rewrite rules, firing and non-firing ---------------------------- *)

let test_drop_identity () =
  let o =
    simplify
      [ Transform.Id (tbl "t", tbl "t"); Transform.Add (tbl "u", q "<<t>>") ]
  in
  check_steps "identity dropped" [ Transform.Add (tbl "u", q "<<t>>") ] o;
  Alcotest.(check bool) "rule recorded" true
    (List.mem "drop-identity-step" (rules_of o));
  (* a cross-object id is a copy, not a no-op: it must survive *)
  let o =
    simplify
      [
        Transform.Extend (tbl "u", Ast.Void, Ast.Any);
        Transform.Id (tbl "t", tbl "t2");
      ]
  in
  Alcotest.(check bool) "copy id kept" true
    (List.mem (Transform.Id (tbl "t", tbl "t2")) (steps_of o))

let test_collapse_chain () =
  let o =
    simplify
      [
        Transform.Rename (tbl "t", tbl "b"); Transform.Rename (tbl "b", tbl "c");
      ]
  in
  check_steps "chain collapsed" [ Transform.Rename (tbl "t", tbl "c") ] o;
  Alcotest.(check bool) "rule recorded" true
    (List.mem "collapse-rename-chain" (rules_of o))

let test_collapse_chain_blocked () =
  (* an intervening step reading the intermediate name blocks the rule *)
  let steps =
    [
      Transform.Rename (tbl "t", tbl "b");
      Transform.Add (tbl "u", q "<<b>>");
      Transform.Rename (tbl "b", tbl "c");
    ]
  in
  let o = simplify steps in
  Alcotest.(check bool) "no collapse" false
    (List.mem "collapse-rename-chain" (rules_of o));
  check_steps "unchanged" steps o

let test_cancel_roundtrip () =
  let o =
    simplify
      [
        Transform.Rename (tbl "t", tbl "b"); Transform.Rename (tbl "b", tbl "t");
      ]
  in
  check_steps "roundtrip vanished" [] o;
  Alcotest.(check bool) "rule recorded" true
    (List.mem "cancel-rename-roundtrip" (rules_of o))

let test_cancel_dead_pair () =
  let o =
    simplify
      [ Transform.Add (tbl "u", q "<<t>>"); Transform.Delete (tbl "u", Ast.Void) ]
  in
  check_steps "dead pair vanished" [] o;
  Alcotest.(check bool) "rule recorded" true
    (List.mem "cancel-dead-pair" (rules_of o))

let test_cancel_dead_pair_blocked () =
  (* an intervening step reading the object keeps the pair alive *)
  let steps =
    [
      Transform.Add (tbl "u", q "<<t>>");
      Transform.Add (tbl "v", q "<<u>>");
      Transform.Delete (tbl "u", Ast.Void);
    ]
  in
  let o = simplify steps in
  Alcotest.(check bool) "no cancel" false
    (List.mem "cancel-dead-pair" (rules_of o));
  Alcotest.(check int) "all steps survive" 3 (List.length (steps_of o))

let test_reorder () =
  let o =
    simplify
      [
        Transform.Delete (tbl "t2", Ast.Void);
        Transform.Add (tbl "u", q "<<t>>");
      ]
  in
  check_steps "canonical order"
    [ Transform.Add (tbl "u", q "<<t>>"); Transform.Delete (tbl "t2", Ast.Void) ]
    o;
  Alcotest.(check bool) "rule recorded" true
    (List.mem "reorder-commuting-steps" (rules_of o));
  (* overlapping footprints must not be swapped *)
  let steps =
    [
      Transform.Delete (tbl "t2", Ast.Void);
      Transform.Add (tbl "u", q "<<t2>>");
    ]
  in
  let o = simplify steps in
  Alcotest.(check bool) "no swap on overlap" false
    (List.mem "reorder-commuting-steps" (rules_of o))

let test_ineligible_untouched () =
  (* add-present is an error: the engine must refuse to touch the pathway *)
  let steps =
    [ Transform.Add (tbl "t", Ast.Void); Transform.Id (tbl "t", tbl "t") ]
  in
  let o = simplify steps in
  Alcotest.(check bool) "not eligible" false o.Rewrite.eligible;
  check_steps "left as-is" steps o;
  Alcotest.(check int) "no applications" 0 (List.length o.Rewrite.applications)

(* -- the equivalence checker --------------------------------------------- *)

let test_equiv_certifies_rewrite () =
  let original =
    pathway
      [
        Transform.Rename (tbl "t", tbl "b");
        Transform.Rename (tbl "b", tbl "c");
        Transform.Id (tbl "t2", tbl "t2");
      ]
  in
  let o = Rewrite.simplify (src ()) original in
  Alcotest.(check bool) "shorter" true
    (List.length (steps_of o) < List.length original.Transform.steps);
  let cert = ok (Equiv.check (src ()) ~original ~candidate:o.Rewrite.pathway) in
  Alcotest.(check bool) "objects compared" true (cert.Equiv.objects > 0);
  Alcotest.(check bool) "differential ran" true (cert.Equiv.trials > 0);
  Alcotest.(check bool) "reverse direction checked" true
    cert.Equiv.reverse_checked

let test_equiv_rejects_endpoints () =
  let original = pathway [] in
  let candidate = { original with Transform.to_schema = "elsewhere" } in
  match Equiv.check (src ()) ~original ~candidate with
  | Ok _ -> Alcotest.fail "endpoint mismatch must be rejected"
  | Error _ -> ()

let test_equiv_rejects_state_change () =
  let original = pathway [ Transform.Add (tbl "u", q "<<t>>") ] in
  let candidate = pathway [] in
  match Equiv.check (src ()) ~original ~candidate with
  | Ok _ -> Alcotest.fail "dropped object must be rejected"
  | Error _ -> ()

let test_equiv_mutation_differential () =
  (* mutation test: a candidate with the same endpoints, final state and
     definition *types* but different semantics (doubled multiplicities)
     must be caught by the differential evaluator alone *)
  let original = pathway [ Transform.Add (tbl "u", q "<<t>>") ] in
  let candidate = pathway [ Transform.Add (tbl "u", q "<<t>> ++ <<t>>") ] in
  (match Equiv.check ~syntactic:false (src ()) ~original ~candidate with
  | Ok _ -> Alcotest.fail "unsound rewrite certified by differential"
  | Error e ->
      Alcotest.(check bool) "reason mentions disagreement" true
        (String.length e > 0));
  (* and the full checker rejects it too, of course *)
  match Equiv.check (src ()) ~original ~candidate with
  | Ok _ -> Alcotest.fail "unsound rewrite certified"
  | Error _ -> ()

let test_simplify_certified_pipeline () =
  let p =
    pathway
      [
        Transform.Id (tbl "t2", tbl "t2");
        Transform.Rename (tbl "t", tbl "b");
        Transform.Rename (tbl "b", tbl "c");
      ]
  in
  match Analysis.simplify_certified (src ()) p with
  | `Simplified (o, cert) ->
      Alcotest.(check int) "one step left" 1 (List.length (steps_of o));
      Alcotest.(check bool) "reverse checked" true cert.Equiv.reverse_checked
  | `Unchanged -> Alcotest.fail "should have simplified"
  | `Refused (_, reason) -> Alcotest.fail ("refused: " ^ reason)

(* -- reachability --------------------------------------------------------- *)

let test_live_objects () =
  let p =
    pathway
      [
        Transform.Add (tbl "u", q "<<t>>");
        Transform.Extend (tbl "w", Ast.Void, Ast.Any);
      ]
  in
  match Reachability.live_objects ~source:(src ()) p with
  | None -> Alcotest.fail "pathway is analysable"
  | Some live ->
      Alcotest.(check bool) "derived object live" true
        (Scheme.Set.mem (tbl "u") live);
      Alcotest.(check bool) "empty lower bound dead" false
        (Scheme.Set.mem (tbl "w") live);
      Alcotest.(check bool) "carried source object live" true
        (Scheme.Set.mem (tbl "t") live)

let two_source_repo () =
  let repo = Repository.create () in
  let s1 = ok (Schema.of_objects "s1" [ (tbl "a", Some (Types.TBag Types.TStr)) ]) in
  let s2 = ok (Schema.of_objects "s2" [ (tbl "b", Some (Types.TBag Types.TStr)) ]) in
  ok (Repository.add_schema repo s1);
  ok (Repository.add_schema repo s2);
  ok
    (Repository.set_extent repo ~schema:"s1" (tbl "a")
       (Value.Bag.of_list [ Value.Str "x" ]));
  ok
    (Repository.set_extent repo ~schema:"s2" (tbl "b")
       (Value.Bag.of_list [ Value.Str "y" ]));
  (* s1 reaches g with a real definition; s2's only contribution to g is
     the trivial empty lower bound, so its data can never surface *)
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "s1";
         to_schema = "g";
         steps = [ Transform.Rename (tbl "a", tbl "g_a") ];
       });
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "s2";
         to_schema = "g";
         steps =
           [
             Transform.Delete (tbl "b", Ast.Void);
             Transform.Extend (tbl "g_a", Ast.Void, Ast.Any);
           ];
       });
  repo

let test_unreachable_sources () =
  let repo = two_source_repo () in
  Alcotest.(check (list string))
    "s2 unreachable" [ "s2" ]
    (Reachability.unreachable_sources ~root:"g" repo);
  Alcotest.(check (list string))
    "only s1 feeds g_a" [ "s1" ]
    (Reachability.object_sources repo ~schema:"g" (tbl "g_a"))

let test_unreachable_source_lint () =
  let repo = two_source_repo () in
  let ds = Analysis.lint_repository ~root:"g" repo in
  let hits =
    List.filter (fun (d : D.t) -> d.D.rule = "unreachable-source") ds
  in
  (match hits with
  | [ d ] ->
      Alcotest.(check bool) "warning severity" true (d.D.severity = D.Warning);
      Alcotest.(check bool) "names s2" true
        (Automed_base.Strutil.contains_sub ~sub:"s2" d.D.message)
  | _ -> Alcotest.fail "expected exactly one unreachable-source diagnostic");
  (* a pathway that carries s2's data to the root silences the s2
     warning (s1, which has no chain to g2, now fires instead) *)
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "s2";
         to_schema = "g2";
         steps = [ Transform.Rename (tbl "b", tbl "g_b") ];
       });
  let ds = Analysis.lint_repository ~root:"g2" repo in
  Alcotest.(check bool) "s2 live, no warning for it" false
    (List.exists
       (fun (d : D.t) ->
         d.D.rule = "unreachable-source"
         && Automed_base.Strutil.contains_sub ~sub:"s2" d.D.message)
       ds);
  Alcotest.(check bool) "s1 unreachable from g2" true
    (List.exists
       (fun (d : D.t) ->
         d.D.rule = "unreachable-source"
         && Automed_base.Strutil.contains_sub ~sub:"s1" d.D.message)
       ds)

let test_relevant_members () =
  let repo = Repository.create () in
  let s1 = ok (Schema.of_objects "s1" [ (tbl "a", Some (Types.TBag Types.TStr)) ]) in
  let s2 = ok (Schema.of_objects "s2" [ (tbl "b", Some (Types.TBag Types.TStr)) ]) in
  ok (Repository.add_schema repo s1);
  ok (Repository.add_schema repo s2);
  let _f = ok (Federated.create repo ~name:"f" ~members:[ "s1"; "s2" ]) in
  (* a query touching only s1's prefixed object needs only s1 *)
  let pa = Federated.member_prefix ~member:"s1" (tbl "a") in
  Alcotest.(check (list string))
    "only s1 relevant" [ "s1" ]
    (ok (Federated.relevant_members repo ~federation:"f" (Ast.SchemeRef pa)));
  let pb = Federated.member_prefix ~member:"s2" (tbl "b") in
  Alcotest.(check (list string))
    "both for a two-object query" [ "s1"; "s2" ]
    (ok
       (Federated.relevant_members repo ~federation:"f"
          (Ast.EBag [ Ast.SchemeRef pa; Ast.SchemeRef pb ])));
  match Federated.relevant_members repo ~federation:"nope" Ast.Void with
  | Ok _ -> Alcotest.fail "unknown federation must fail"
  | Error _ -> ()

(* -- the journaled autofixer ---------------------------------------------- *)

let test_fix_repository_journaled () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (src ()));
  ok
    (Repository.set_extent repo ~schema:"s" (tbl "t")
       (Value.Bag.of_list [ Value.Str "x"; Value.Str "x"; Value.Str "y" ]));
  ok
    (Repository.set_extent repo ~schema:"s" (tbl "t2")
       (Value.Bag.of_list [ Value.Str "z" ]));
  ok
    (Repository.add_pathway repo
       (pathway
          [
            Transform.Id (tbl "t2", tbl "t2");
            Transform.Rename (tbl "t", tbl "b");
            Transform.Rename (tbl "b", tbl "c");
          ]));
  let vfs = Vfs.memory () in
  let d = ok (Durable.attach vfs repo) in
  let fixes = Analysis.fix_repository repo in
  (match fixes with
  | [ f ] ->
      Alcotest.(check bool) "applied" true (Result.is_ok f.Analysis.applied);
      Alcotest.(check int) "3 steps before" 3 f.Analysis.steps_before;
      Alcotest.(check int) "1 step after" 1 f.Analysis.steps_after
  | _ -> Alcotest.fail "expected exactly one fix");
  (match Repository.pathways repo with
  | [ p ] ->
      Alcotest.(check bool) "stored pathway simplified" true
        (p.Transform.steps = [ Transform.Rename (tbl "t", tbl "c") ])
  | _ -> Alcotest.fail "one pathway expected");
  ok (Durable.sync d);
  Durable.detach d;
  (* the replacement was journaled: recovery replays it *)
  let d', _report = ok (Durable.recover vfs) in
  let repo' = Durable.repository d' in
  (match Repository.pathways repo' with
  | [ p ] ->
      Alcotest.(check bool) "recovered pathway is the simplified one" true
        (p.Transform.steps = [ Transform.Rename (tbl "t", tbl "c") ])
  | _ -> Alcotest.fail "one pathway expected after recovery");
  Alcotest.(check bool) "extent preserved" true
    (Repository.stored_extent repo' ~schema:"s" (tbl "t")
    = Repository.stored_extent repo ~schema:"s" (tbl "t"))

let test_replace_pathway_guards () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (src ()));
  let p = pathway [ Transform.Rename (tbl "t", tbl "b") ] in
  ok (Repository.add_pathway repo p);
  (match
     Repository.replace_pathway repo ~old:p
       { p with Transform.to_schema = "other" }
   with
  | Ok () -> Alcotest.fail "endpoint change must be rejected"
  | Error _ -> ());
  (match
     Repository.replace_pathway repo
       ~old:(pathway [ Transform.Id (tbl "t", tbl "t") ])
       (pathway [ Transform.Id (tbl "t", tbl "t") ])
   with
  | Ok () -> Alcotest.fail "unknown old pathway must be rejected"
  | Error _ -> ());
  (* a replacement that changes the target object set must be rejected *)
  match
    Repository.replace_pathway repo ~old:p
      (pathway [ Transform.Rename (tbl "t", tbl "elsewhere") ])
  with
  | Ok () -> Alcotest.fail "target disagreement must be rejected"
  | Error _ -> ()

(* -- the processor prunes without changing answers ------------------------ *)

let test_pruning_preserves_answers () =
  let repo = two_source_repo () in
  let module Processor = Automed_query.Processor in
  let mem = Telemetry.Memory.create () in
  let answer =
    Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
        ok
          (Result.map_error
             (fun e -> Fmt.str "%a" Processor.pp_error e)
             (Processor.run_string (Processor.create repo) ~schema:"g"
                "<<g_a>>")))
  in
  Alcotest.(check bool) "s1's row only" true
    (Value.equal (Value.Bag (Value.Bag.of_list [ Value.Str "x" ])) answer);
  Alcotest.(check bool) "s2's pathway was pruned" true
    (Telemetry.Memory.counter mem "processor.pathways_pruned" > 0)

(* -- property: certified simplification preserves semantics --------------- *)

let gen_prim =
  QCheck.Gen.(
    oneof
      [
        return (Transform.Add (tbl "u", Ast.SchemeRef (tbl "t")));
        return (Transform.Delete (tbl "u", Ast.Void));
        return (Transform.Extend (tbl "w", Ast.Void, Ast.Any));
        return (Transform.Contract (tbl "w", Ast.Void, Ast.Any));
        return (Transform.Contract (tbl "t2", Ast.Void, Ast.Any));
        return (Transform.Rename (tbl "t", tbl "b"));
        return (Transform.Rename (tbl "b", tbl "c"));
        return (Transform.Rename (tbl "c", tbl "t"));
        return (Transform.Id (tbl "t", tbl "t"));
        return (Transform.Id (tbl "t2", tbl "t2"));
      ])

let qcheck_simplify_sound =
  QCheck.Test.make
    ~name:
      "simplify preserves the final state and every rewrite certifies"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 10) gen_prim))
    (fun steps ->
      let p = pathway steps in
      let s0 = src () in
      if D.has_errors (Analysis.lint_pathway s0 p) then true
      else
        let o = Rewrite.simplify s0 p in
        Schema.same_objects
          (Pathway_lint.final_state s0 p)
          (Pathway_lint.final_state s0 o.Rewrite.pathway)
        && (o.Rewrite.applications = []
           || Result.is_ok
                (Equiv.check s0 ~original:p ~candidate:o.Rewrite.pathway)))

let suite =
  [
    Alcotest.test_case "drop-identity-step" `Quick test_drop_identity;
    Alcotest.test_case "collapse-rename-chain" `Quick test_collapse_chain;
    Alcotest.test_case "collapse blocked by mention" `Quick
      test_collapse_chain_blocked;
    Alcotest.test_case "cancel-rename-roundtrip" `Quick test_cancel_roundtrip;
    Alcotest.test_case "cancel-dead-pair" `Quick test_cancel_dead_pair;
    Alcotest.test_case "dead pair blocked by reader" `Quick
      test_cancel_dead_pair_blocked;
    Alcotest.test_case "reorder-commuting-steps" `Quick test_reorder;
    Alcotest.test_case "lint errors disable the engine" `Quick
      test_ineligible_untouched;
    Alcotest.test_case "checker certifies a real rewrite" `Quick
      test_equiv_certifies_rewrite;
    Alcotest.test_case "checker rejects endpoint change" `Quick
      test_equiv_rejects_endpoints;
    Alcotest.test_case "checker rejects state change" `Quick
      test_equiv_rejects_state_change;
    Alcotest.test_case "mutation: differential catches doubled bag" `Quick
      test_equiv_mutation_differential;
    Alcotest.test_case "simplify_certified pipeline" `Quick
      test_simplify_certified_pipeline;
    Alcotest.test_case "live_objects" `Quick test_live_objects;
    Alcotest.test_case "unreachable_sources" `Quick test_unreachable_sources;
    Alcotest.test_case "unreachable-source lint rule" `Quick
      test_unreachable_source_lint;
    Alcotest.test_case "federated relevant_members" `Quick
      test_relevant_members;
    Alcotest.test_case "autofix is journaled" `Quick
      test_fix_repository_journaled;
    Alcotest.test_case "replace_pathway guards" `Quick
      test_replace_pathway_guards;
    Alcotest.test_case "pruning preserves answers" `Quick
      test_pruning_preserves_answers;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_simplify_sound ]
