(* Live schema evolution: incremental global-schema repair under source
   churn.  Covers the journal codec of the evolution ops, the three
   evolve operations end-to-end (equivalence with from-scratch
   re-integration), targeted cache invalidation (no stale hits for the
   evolved source, preserved hits for untouched ones), the evolved-away
   skip kind in degraded runs and lineage, the stranded-pathway lint
   rule with quarantine autofix, and the evolve/recover commutation
   property. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Ast = Automed_iql.Ast
module Types = Automed_iql.Types
module Parser = Automed_iql.Parser
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Evolution = Automed_evolution.Evolution
module Analysis = Automed_analysis.Analysis
module Quarantine = Automed_analysis.Quarantine
module Diagnostic = Automed_analysis.Diagnostic
module Lineage = Automed_provenance.Lineage
module Resilience = Automed_resilience.Resilience
module Telemetry = Automed_telemetry.Telemetry
module Vfs = Automed_durable.Vfs
module Durable = Automed_durable.Durable

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error e -> e

let okq = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Fmt.str "%a" Processor.pp_error e)

let errq = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error (e : Processor.error) -> e.Processor.message

let vstr v = Fmt.str "%a" Value.pp v
let contains ~sub s = Automed_base.Strutil.contains_sub ~sub s
let bag_of_strs ss = Value.Bag.of_list (List.map (fun s -> Value.Str s) ss)

(* -- fixtures ------------------------------------------------------------- *)

let schema_a () =
  ok
    (Schema.of_objects "A"
       [ (Scheme.table "t", None); (Scheme.column "t" "c", None) ])

let schema_b () = ok (Schema.of_objects "B" [ (Scheme.table "u", None) ])
let schema_c () = ok (Schema.of_objects "C" [ (Scheme.table "w", None) ])
let c_extents () = [ (Scheme.table "w", bag_of_strs [ "w1"; "w2" ]) ]

(* A two-source workflow with stored data: global v0 exposes
   <<A:t>>, <<A:t,c>> and <<B:u>>. *)
let start_workflow ?resilience ?durable repo =
  ok (Repository.add_schema repo (schema_a ()));
  ok (Repository.add_schema repo (schema_b ()));
  ok
    (Repository.set_extent repo ~schema:"A" (Scheme.table "t")
       (bag_of_strs [ "t1"; "t2"; "t3" ]));
  ok
    (Repository.set_extent repo ~schema:"A" (Scheme.column "t" "c")
       (Value.Bag.of_list
          [
            Value.tuple2 (Value.Str "t1") (Value.Int 10);
            Value.tuple2 (Value.Str "t2") (Value.Int 20);
          ]));
  ok
    (Repository.set_extent repo ~schema:"B" (Scheme.table "u")
       (bag_of_strs [ "u1" ]));
  (match resilience with
  | Some r ->
      Resilience.register r "A";
      Resilience.register r "B"
  | None -> ());
  ok (Workflow.start ?resilience ?durable repo ~name:"g" ~sources:[ "A"; "B" ])

let q wf text = okq (Workflow.run_query wf text)

let run_on wf ~schema text =
  okq (Processor.run (Workflow.processor wf) ~schema (Parser.parse_exn text))

let count_of = function Value.Int n -> n | _ -> -1

(* -- journal codec of the evolution ops ----------------------------------- *)

let hostile = "we\"ird\\nam\ne"

let test_op_roundtrip_contribution () =
  let p =
    {
      Transform.from_schema = hostile;
      to_schema = "g_v1";
      steps =
        [
          Transform.Contract (Scheme.table "noise", Ast.Void, Ast.Any);
          Transform.Rename (Scheme.table "w", Scheme.table "gw");
        ];
    }
  in
  let payload = Serialize.save_op (Repository.Op_add_contribution p) in
  (match ok (Serialize.load_op payload) with
  | Repository.Op_add_contribution p' ->
      Alcotest.(check bool) "pathway preserved" true (p = p')
  | _ -> Alcotest.fail "wrong op decoded");
  (* applying the decoded op must register a contribution (subset
     agreement with the target), not an exact pathway *)
  let repo = Repository.create () in
  ok
    (Repository.add_schema repo
       (ok
          (Schema.of_objects hostile
             [ (Scheme.table "w", None); (Scheme.table "noise", None) ])));
  ok
    (Repository.add_schema repo
       (ok
          (Schema.of_objects "g_v1"
             [ (Scheme.table "gw", None); (Scheme.table "other", None) ])));
  ok (Serialize.apply_op repo (ok (Serialize.load_op payload)));
  Alcotest.(check int) "registered as contribution" 1
    (List.length (Repository.contributions repo))

let test_op_roundtrip_alter () =
  let alters =
    [
      Repository.Alter_add_object (Scheme.table "nt", None);
      Repository.Alter_add_object
        (Scheme.column "t" "score", Some (Types.TBag Types.TFloat));
      Repository.Alter_drop_object (Scheme.column "t" "c");
      Repository.Alter_rename_object (Scheme.table "t", Scheme.table "t2");
    ]
  in
  List.iter
    (fun alter ->
      let payload =
        Serialize.save_op (Repository.Op_alter_schema (hostile, alter))
      in
      match ok (Serialize.load_op payload) with
      | Repository.Op_alter_schema (n, alter') ->
          Alcotest.(check string) "name" hostile n;
          Alcotest.(check bool) "alter preserved" true (alter = alter')
      | _ -> Alcotest.fail "wrong op decoded")
    alters

let test_op_roundtrip_retire () =
  let payload = Serialize.save_op (Repository.Op_retire_source hostile) in
  match ok (Serialize.load_op payload) with
  | Repository.Op_retire_source n -> Alcotest.(check string) "name" hostile n
  | _ -> Alcotest.fail "wrong op decoded"

let test_save_load_fixpoint_with_evolution_state () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let _ =
    ok (Evolution.evolve_add_source wf (schema_c ()) ~extents:(c_extents ()))
  in
  let _ =
    ok
      (Evolution.evolve_alter wf "A"
         [ Repository.Alter_add_object (Scheme.column "t" "d", None) ])
  in
  let _ = ok (Evolution.evolve_drop_source wf "B") in
  let s1 = Serialize.save ~extents:true repo in
  let repo2 = ok (Serialize.load s1) in
  let s2 = Serialize.save ~extents:true repo2 in
  Alcotest.(check string) "save/load/save fixpoint" s1 s2;
  Alcotest.(check (list string))
    "retired survives" [ "B" ]
    (Repository.retired_sources repo2);
  Alcotest.(check int) "contributions survive"
    (List.length (Repository.contributions repo))
    (List.length (Repository.contributions repo2))

(* -- evolve_add_source ----------------------------------------------------- *)

let test_add_source () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  Alcotest.(check string) "starts at v0" "g_v0" (Workflow.global_name wf);
  let before = vstr (q wf "<<A:t>>") in
  let ev, plan =
    ok (Evolution.evolve_add_source wf (schema_c ()) ~extents:(c_extents ()))
  in
  Alcotest.(check string) "advanced" "g_v1" (Workflow.global_name wf);
  Alcotest.(check string) "audit prev" "g_v0" ev.Workflow.ev_prev;
  Alcotest.(check string) "audit next" "g_v1" ev.Workflow.ev_next;
  Alcotest.(check int) "delta-sized chain" 1 plan.Evolution.pl_chain_steps;
  (* the new source's data is live on the new version *)
  Alcotest.(check string) "new data answerable"
    (vstr (Value.Bag (bag_of_strs [ "w1"; "w2" ])))
    (vstr (q wf "<<C:w>>"));
  (* untouched source still answers identically *)
  Alcotest.(check string) "old data unchanged" before (vstr (q wf "<<A:t>>"));
  (* the previous version does not expose the new source *)
  Alcotest.(check bool) "v0 untouched" false
    (Schema.mem
       (Scheme.prefix "C" (Scheme.table "w"))
       (Repository.schema_exn repo "g_v0"));
  Alcotest.(check (list string))
    "workflow sources grew" [ "A"; "B"; "C" ]
    (List.sort compare (Workflow.sources wf));
  Alcotest.(check int) "evolution recorded" 1
    (List.length (Workflow.evolutions wf))

(* -- evolve_drop_source ---------------------------------------------------- *)

let test_drop_source () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let _ = ok (Evolution.evolve_drop_source wf "B") in
  Alcotest.(check bool) "retired" true (Repository.retired repo "B");
  (* the next version contracts the dropped source's objects out *)
  Alcotest.(check bool) "object gone from v1" false
    (Schema.mem
       (Scheme.prefix "B" (Scheme.table "u"))
       (Repository.schema_exn repo "g_v1"));
  (* untouched source still answers on the new version *)
  Alcotest.(check int) "A still answers" 3 (count_of (q wf "count(<<A:t>>)"));
  (* the old version keeps the object, with Void certain answers *)
  Alcotest.(check string) "old version: certain answers now empty"
    (vstr (Value.Bag Value.Bag.empty))
    (vstr (run_on wf ~schema:"g_v0" "<<B:u>>"));
  (* every data-bearing pathway out of B is quarantined *)
  List.iter
    (fun (p : Transform.pathway) ->
      Alcotest.(check bool)
        (Printf.sprintf "pathway %s -> %s quarantined" p.from_schema
           p.to_schema)
        true
        (Quarantine.is_quarantined p))
    (Repository.pathways_from repo "B");
  (* querying the retired source directly fails plainly *)
  let e =
    errq
      (Processor.run (Workflow.processor wf) ~schema:"B"
         (Parser.parse_exn "<<u>>"))
  in
  Alcotest.(check bool) "error names evolution" true
    (contains ~sub:"evolved away" e)

let test_drop_source_degraded_accounting () =
  let repo = Repository.create () in
  let r = Resilience.create () in
  let wf = start_workflow ~resilience:r repo in
  let _ = ok (Evolution.evolve_drop_source wf "B") in
  (* a degraded run over the old version reports the evolved-away skip
     as its own kind *)
  let _v, c =
    okq
      (Processor.run_degraded (Workflow.processor wf) ~schema:"g_v0"
         (Parser.parse_exn "<<B:u>>"))
  in
  Alcotest.(check bool) "degraded" false c.Processor.complete;
  Alcotest.(check (list string))
    "evolved kind" [ "B" ] c.Processor.sources_evolved;
  Alcotest.(check bool) "footer says evolved away" true
    (contains ~sub:"evolved away: B" (Fmt.str "%a" Processor.pp_completeness c));
  (* lineage carries the evolved marker, distinct from faulty skips *)
  let ann, _c =
    okq
      (Processor.run_degraded_provenance (Workflow.processor wf) ~schema:"g_v0"
         (Parser.parse_exn "<<B:u>>"))
  in
  Alcotest.(check (list string))
    "lineage evolved marker" [ "B" ]
    (Lineage.skipped_evolved ann.Processor.lineage);
  Alcotest.(check (list string))
    "not a faulty skip" []
    (Lineage.skipped_faulty ann.Processor.lineage);
  Alcotest.(check bool) "evolved member in lineage json" true
    (contains ~sub:"\"evolved\":[\"B\"]" (Lineage.to_json ann.Processor.lineage));
  (* the resilience registry rejects the source without burning retries
     or tripping the breaker *)
  Alcotest.(check bool) "registry knows" true (Resilience.evolved r "B");
  (match Resilience.call r ~source:"B" (fun () -> ()) with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error f ->
      Alcotest.(check bool) "failure is evolved" true f.Resilience.evolved;
      Alcotest.(check int) "no attempts" 0 f.Resilience.attempts;
      Alcotest.(check bool) "not a breaker trip" false f.Resilience.circuit_open);
  (* the report distinguishes evolved from faulty *)
  let evolved_row =
    List.exists
      (fun (n, _state, evolved, _stats) -> n = "B" && evolved)
      (Resilience.report r)
  in
  Alcotest.(check bool) "report row marked evolved" true evolved_row

(* An evolved-away source is permanent, so a degraded extent that crosses
   it is cached with it: a repeated degraded run is a cache hit that
   still reports the source (completeness and lineage), while a plain
   run still fails instead of receiving the degraded bag. *)
let test_evolved_skip_cached () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let _ = ok (Evolution.evolve_drop_source wf "B") in
  let proc = Workflow.processor wf in
  let query = Parser.parse_exn "<<B:u>>" in
  let mem = Telemetry.Memory.create () in
  Telemetry.with_sink (Telemetry.Memory.sink mem) @@ fun () ->
  let counter = Telemetry.Memory.counter mem in
  let served_from_cache run =
    let misses = counter "processor.extent.cache_misses" in
    let hits = counter "processor.extent.cache_hits" in
    let r = run () in
    Alcotest.(check int) "no extent re-derived" misses
      (counter "processor.extent.cache_misses");
    Alcotest.(check bool) "cache hit" true
      (counter "processor.extent.cache_hits" > hits);
    r
  in
  let degraded () = okq (Processor.run_degraded proc ~schema:"g_v0" query) in
  let v, c = degraded () in
  let v', c' = served_from_cache degraded in
  Alcotest.(check bool) "same answer" true (Value.equal v v');
  List.iter
    (fun (c : Processor.completeness) ->
      Alcotest.(check (list string)) "evolved reported" [ "B" ] c.sources_evolved)
    [ c; c' ];
  let provenance () =
    okq (Processor.run_degraded_provenance proc ~schema:"g_v0" query)
  in
  ignore (provenance ());
  let ann, c = served_from_cache provenance in
  Alcotest.(check (list string)) "evolved reported" [ "B" ] c.sources_evolved;
  Alcotest.(check (list string))
    "lineage evolved marker" [ "B" ]
    (Lineage.skipped_evolved ann.Processor.lineage);
  (* the retired source's own extent, cached by a degraded run, is
     not served to a plain one *)
  let direct = Parser.parse_exn "<<u>>" in
  let _, c = okq (Processor.run_degraded proc ~schema:"B" direct) in
  Alcotest.(check (list string)) "direct read reported" [ "B" ] c.sources_evolved;
  Alcotest.(check bool) "plain run still fails" true
    (contains ~sub:"evolved away" (errq (Processor.run proc ~schema:"B" direct)));
  let _, c = served_from_cache degraded in
  Alcotest.(check (list string)) "still reported" [ "B" ] c.sources_evolved

(* -- evolve_alter ---------------------------------------------------------- *)

let test_alter_add_column () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let _ev, plan =
    ok
      (Evolution.evolve_alter wf "A"
         [ Repository.Alter_add_object (Scheme.column "t" "d", None) ])
  in
  Alcotest.(check int) "delta-sized chain" 1 plan.Evolution.pl_chain_steps;
  Alcotest.(check int) "one new contribution" 1
    plan.Evolution.pl_new_contributions;
  (* data arrives once the source materialises the column (a plain
     set_extent needs its own cache invalidation; evolve only
     invalidates at the evolution boundary) *)
  ok
    (Repository.set_extent repo ~schema:"A" (Scheme.column "t" "d")
       (Value.Bag.of_list [ Value.tuple2 (Value.Str "t1") (Value.Str "x") ]));
  Processor.invalidate_source (Workflow.processor wf) "A";
  Alcotest.(check int) "new column answerable on v1" 1
    (count_of (q wf "count(<<A:t,d>>)"));
  Alcotest.(check bool) "v0 does not expose it" false
    (Schema.mem
       (Scheme.prefix "A" (Scheme.column "t" "d"))
       (Repository.schema_exn repo "g_v0"))

let test_alter_drop_column () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let _ =
    ok
      (Evolution.evolve_alter wf "A"
         [ Repository.Alter_drop_object (Scheme.column "t" "c") ])
  in
  Alcotest.(check bool) "gone from v1" false
    (Schema.mem
       (Scheme.prefix "A" (Scheme.column "t" "c"))
       (Repository.schema_exn repo "g_v1"));
  Alcotest.(check bool) "stored extent dropped" true
    (Repository.stored_extent repo ~schema:"A" (Scheme.column "t" "c") = None);
  (* the old version keeps the object as a Void-bounded certain answer *)
  Alcotest.(check string) "old version: empty, not an error"
    (vstr (Value.Bag Value.Bag.empty))
    (vstr (run_on wf ~schema:"g_v0" "<<A:t,c>>"));
  (* untouched objects keep their data *)
  Alcotest.(check int) "sibling object intact" 3
    (count_of (q wf "count(<<A:t>>)"))

let test_alter_rename_column () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let before = vstr (q wf "<<A:t,c>>") in
  let _ev, plan =
    ok
      (Evolution.evolve_alter wf "A"
         [
           Repository.Alter_rename_object
             (Scheme.column "t" "c", Scheme.column "t" "c2");
         ])
  in
  Alcotest.(check int) "delta-sized chain" 1 plan.Evolution.pl_chain_steps;
  (* the new version exposes the new name, with the original data *)
  Alcotest.(check string) "renamed data flows to v1" before
    (vstr (q wf "<<A:t,c2>>"));
  (* the old version keeps the old name, still fed by the renamed source
     object through the patched contribution *)
  Alcotest.(check string) "old version keeps old name with live data" before
    (vstr (run_on wf ~schema:"g_v0" "<<A:t,c>>"));
  Alcotest.(check bool) "old name gone from v1" false
    (Schema.mem
       (Scheme.prefix "A" (Scheme.column "t" "c"))
       (Repository.schema_exn repo "g_v1"))

(* Every evolution must land on the same answers a from-scratch
   re-integration of the evolved sources produces. *)
let test_equivalence_with_scratch () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let _ =
    ok (Evolution.evolve_add_source wf (schema_c ()) ~extents:(c_extents ()))
  in
  let _ =
    ok
      (Evolution.evolve_alter wf "A"
         [
           Repository.Alter_rename_object
             (Scheme.column "t" "c", Scheme.column "t" "cc");
           Repository.Alter_add_object (Scheme.table "extra", None);
         ])
  in
  let _ = ok (Evolution.evolve_drop_source wf "B") in
  ok
    (Repository.set_extent repo ~schema:"A" (Scheme.table "extra")
       (bag_of_strs [ "e1" ]));
  Processor.invalidate_source (Workflow.processor wf) "A";
  (* scratch control: a fresh repository wrapped at the evolved shape *)
  let repo2 = Repository.create () in
  ok
    (Repository.add_schema repo2
       (ok
          (Schema.of_objects "A"
             [
               (Scheme.table "t", None);
               (Scheme.column "t" "cc", None);
               (Scheme.table "extra", None);
             ])));
  ok (Repository.add_schema repo2 (schema_c ()));
  ok
    (Repository.set_extent repo2 ~schema:"A" (Scheme.table "t")
       (bag_of_strs [ "t1"; "t2"; "t3" ]));
  ok
    (Repository.set_extent repo2 ~schema:"A" (Scheme.column "t" "cc")
       (Value.Bag.of_list
          [
            Value.tuple2 (Value.Str "t1") (Value.Int 10);
            Value.tuple2 (Value.Str "t2") (Value.Int 20);
          ]));
  ok
    (Repository.set_extent repo2 ~schema:"A" (Scheme.table "extra")
       (bag_of_strs [ "e1" ]));
  List.iter
    (fun (o, b) -> ok (Repository.set_extent repo2 ~schema:"C" o b))
    (c_extents ());
  let wf2 = ok (Workflow.start repo2 ~name:"h" ~sources:[ "A"; "C" ]) in
  List.iter
    (fun text ->
      Alcotest.(check string) text (vstr (q wf2 text)) (vstr (q wf text)))
    [
      "<<A:t>>";
      "<<A:t,cc>>";
      "<<A:extra>>";
      "<<C:w>>";
      "count(<<A:t>>) + count(<<C:w>>)";
    ]

(* -- targeted cache invalidation (hygiene) -------------------------------- *)

let test_cache_hygiene () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let mem = Telemetry.Memory.create () in
  Telemetry.with_sink (Telemetry.Memory.sink mem) @@ fun () ->
  (* warm the cache on both sources *)
  ignore (q wf "<<A:t>>");
  ignore (q wf "<<B:u>>");
  let hits_before = Telemetry.Memory.counter mem "processor.extent.cache_hits" in
  ignore (q wf "<<A:t>>");
  Alcotest.(check bool) "cache warm" true
    (Telemetry.Memory.counter mem "processor.extent.cache_hits" > hits_before);
  (* evolve A: exactly A's entries must go *)
  let _ =
    ok
      (Evolution.evolve_alter wf "A"
         [ Repository.Alter_add_object (Scheme.table "extra", None) ])
  in
  Alcotest.(check bool) "tainted extents invalidated" true
    (Telemetry.Memory.counter mem "processor.invalidated.extents" > 0);
  Alcotest.(check bool) "stale pathway analysis invalidated" true
    (Telemetry.Memory.counter mem "processor.invalidated.pinfo" > 0);
  (* untouched source: the very next fetch is a cache hit, no re-fetch *)
  let hits = Telemetry.Memory.counter mem "processor.extent.cache_hits" in
  let misses = Telemetry.Memory.counter mem "processor.extent.cache_misses" in
  ignore (run_on wf ~schema:"g_v0" "<<B:u>>");
  Alcotest.(check bool) "untouched source stays cached" true
    (Telemetry.Memory.counter mem "processor.extent.cache_hits" > hits);
  Alcotest.(check int) "no re-fetch for untouched source" misses
    (Telemetry.Memory.counter mem "processor.extent.cache_misses");
  (* evolved source: a stale hit is impossible — the next read of an
     A-derived extent on the old version recomputes *)
  let misses = Telemetry.Memory.counter mem "processor.extent.cache_misses" in
  ignore (run_on wf ~schema:"g_v0" "<<A:t>>");
  Alcotest.(check bool) "evolved source re-derived, not served stale" true
    (Telemetry.Memory.counter mem "processor.extent.cache_misses" > misses)

(* -- stranded-pathway lint and autofix ------------------------------------ *)

let stranded_rules ds =
  List.filter (fun (d : Diagnostic.t) -> d.rule = "stranded-pathway") ds

let test_stranded_lint_and_fix () =
  let repo = Repository.create () in
  let _wf = start_workflow repo in
  (* break a pathway behind the repair machinery's back: drop a column
     straight on the repository *)
  ok
    (Repository.alter_schema repo "A"
       (Repository.Alter_drop_object (Scheme.column "t" "c")));
  let stranded = stranded_rules (Analysis.lint_repository repo) in
  Alcotest.(check bool) "stranded-pathway reported" true (stranded <> []);
  (* the autofixer quarantines them, journal-safely *)
  let fixes = Analysis.fix_repository repo in
  let quarantined = List.filter (fun (f : Analysis.fix) -> f.quarantined) fixes in
  Alcotest.(check bool) "quarantine fixes applied" true
    (quarantined <> []
    && List.for_all (fun (f : Analysis.fix) -> f.applied = Ok ()) quarantined);
  Alcotest.(check (list string))
    "lint clean after fix" []
    (List.map
       (fun d -> Fmt.str "%a" Diagnostic.pp d)
       (stranded_rules (Analysis.lint_repository repo)))

let test_retired_unquarantined_flagged () =
  let repo = Repository.create () in
  ok (Repository.add_schema repo (schema_b ()));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "B";
         to_schema = "g";
         steps = [ Transform.Rename (Scheme.table "u", Scheme.table "gu") ];
       });
  ok (Repository.retire_source repo "B");
  Alcotest.(check bool) "unquarantined retired source flagged" true
    (stranded_rules (Analysis.lint_repository repo) <> []);
  let _ = Analysis.fix_repository repo in
  Alcotest.(check (list string))
    "quarantined by fix" []
    (List.map
       (fun d -> Fmt.str "%a" Diagnostic.pp d)
       (stranded_rules (Analysis.lint_repository repo)))

(* -- dry-run preview ------------------------------------------------------- *)

let test_preview_is_pure () =
  let repo = Repository.create () in
  let wf = start_workflow repo in
  let before = Serialize.save ~extents:true repo in
  let plan = ok (Evolution.preview wf (Evolution.Drop_source "B")) in
  Alcotest.(check string) "no mutation" before
    (Serialize.save ~extents:true repo);
  Alcotest.(check string) "still at v0" "g_v0" (Workflow.global_name wf);
  Alcotest.(check int) "would contract B's object" 1
    plan.Evolution.pl_chain_steps;
  let e = err (Evolution.preview wf (Evolution.Drop_source "nope")) in
  Alcotest.(check bool) "unknown source rejected" true
    (contains ~sub:"not registered" e)

(* -- crash safety: evolve and recover commute ------------------------------ *)

let evolve_script wf =
  [
    (fun () ->
      ignore
        (ok (Evolution.evolve_add_source wf (schema_c ()) ~extents:(c_extents ()))));
    (fun () ->
      ignore
        (ok
           (Evolution.evolve_alter wf "A"
              [
                Repository.Alter_rename_object
                  (Scheme.column "t" "c", Scheme.column "t" "c2");
              ])));
    (fun () -> ignore (ok (Evolution.evolve_drop_source wf "B")));
  ]

(* copy checkpoint + journal into a fresh store and recover from it, as
   if the process had died right here *)
let recover_copy (vfs : Vfs.t) =
  let store = Vfs.memory () in
  let copy name =
    if vfs.exists name then
      match vfs.read name with
      | Ok bytes -> (
          match store.write name bytes with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
      | Error e -> Alcotest.fail e
  in
  copy Durable.checkpoint_file;
  copy Durable.journal_file;
  Durable.recover store

let test_evolve_recover_identity () =
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  let d = ok (Durable.attach vfs repo) in
  let wf = start_workflow ~durable:d repo in
  List.iter
    (fun step ->
      step ();
      (* recover from the live store at every evolution boundary: the
         journal must rebuild the exact repository state *)
      let d2, report = ok (recover_copy vfs) in
      Alcotest.(check (list string)) "clean replay" [] report.Durable.warnings;
      Alcotest.(check string) "recovered state bit-identical"
        (Serialize.save ~extents:true repo)
        (Serialize.save ~extents:true (Durable.repository d2)))
    (evolve_script wf)

(* qcheck: for every prefix of an evolution scenario (with salt-keyed
   extra data churn), recovering the journal written so far rebuilds a
   state bit-identical to the live one: evolve and recover commute at
   every op boundary. *)
let prop_evolve_recover_commute =
  QCheck.Test.make ~count:25 ~name:"evolve/recover commute"
    QCheck.(pair (int_bound 2) (int_bound 999))
    (fun (prefix_len, salt) ->
      let vfs = Vfs.memory () in
      let repo = Repository.create () in
      let d =
        match Durable.attach vfs repo with
        | Ok d -> d
        | Error e -> QCheck.Test.fail_report e
      in
      let wf = start_workflow ~durable:d repo in
      let steps = evolve_script wf in
      let n = min (prefix_len + 1) (List.length steps) in
      List.iteri (fun i step -> if i < n then step ()) steps;
      (* extra churn so scenarios differ: a data update keyed by salt *)
      (if salt mod 2 = 0 && not (Repository.retired repo "A") then
         match
           Repository.set_extent repo ~schema:"A" (Scheme.table "t")
             (bag_of_strs [ Printf.sprintf "t%d" salt ])
         with
         | Ok () -> ()
         | Error e -> QCheck.Test.fail_report e);
      match recover_copy vfs with
      | Error e -> QCheck.Test.fail_report e
      | Ok (d2, _report) ->
          Serialize.save ~extents:true (Durable.repository d2)
          = Serialize.save ~extents:true repo)

let suite =
  [
    Alcotest.test_case "op round-trip: contribution" `Quick
      test_op_roundtrip_contribution;
    Alcotest.test_case "op round-trip: alter" `Quick test_op_roundtrip_alter;
    Alcotest.test_case "op round-trip: retire" `Quick test_op_roundtrip_retire;
    Alcotest.test_case "save/load fixpoint with evolution state" `Quick
      test_save_load_fixpoint_with_evolution_state;
    Alcotest.test_case "add source" `Quick test_add_source;
    Alcotest.test_case "drop source" `Quick test_drop_source;
    Alcotest.test_case "drop source: degraded accounting" `Quick
      test_drop_source_degraded_accounting;
    Alcotest.test_case "drop source: evolved-away extents cached" `Quick
      test_evolved_skip_cached;
    Alcotest.test_case "alter: add column" `Quick test_alter_add_column;
    Alcotest.test_case "alter: drop column" `Quick test_alter_drop_column;
    Alcotest.test_case "alter: rename column" `Quick test_alter_rename_column;
    Alcotest.test_case "equivalence with from-scratch" `Quick
      test_equivalence_with_scratch;
    Alcotest.test_case "targeted cache invalidation" `Quick test_cache_hygiene;
    Alcotest.test_case "stranded-pathway lint and fix" `Quick
      test_stranded_lint_and_fix;
    Alcotest.test_case "retired unquarantined pathway flagged" `Quick
      test_retired_unquarantined_flagged;
    Alcotest.test_case "preview is pure" `Quick test_preview_is_pure;
    Alcotest.test_case "evolve/recover identity at boundaries" `Quick
      test_evolve_recover_identity;
    QCheck_alcotest.to_alcotest prop_evolve_recover_commute;
  ]
