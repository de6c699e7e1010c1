(* Autonomic maintenance: certified chain compaction (answers preserved
   on every retained version, including a compacted-vs-untouched twin
   property), quarantine/Void reclamation, scheduler hysteresis and
   cooldown, long-chain equivalence certification, and the kill-point
   crash matrix extended over the maintenance-op journal records. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Types = Automed_iql.Types
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Rewrite = Automed_analysis.Rewrite
module Equiv = Automed_analysis.Equiv
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Churn = Automed_ispider.Churn
module Resilience = Automed_resilience.Resilience
module Vfs = Automed_durable.Vfs
module Journal = Automed_durable.Journal
module Durable = Automed_durable.Durable
module Evolution = Automed_evolution.Evolution
module Health = Automed_observe.Health
module Maintain = Automed_maintain.Maintain

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let save repo = Serialize.save ~extents:true repo

(* a fully wired dataspace: journaled, resilient, integrated.  Builds
   are deterministic, so two [build ()] results evolve identically. *)
let build () =
  let repo = Repository.create () in
  let durable = ok (Durable.attach (Vfs.memory ()) repo) in
  let resilience = Resilience.create ~seed:7L () in
  ok (Sources.wrap_all ~resilience repo (Sources.generate ()));
  let run = ok (Intersection_run.execute ~resilience repo) in
  (durable, resilience, run.Intersection_run.workflow)

let churn wf ~from ~until =
  for i = from to until - 1 do
    ignore (ok (Evolution.evolve wf (Churn.delta i)))
  done

let seven wf =
  List.map
    (fun (q : Queries.query) ->
      match Workflow.run_query wf q.Queries.global_text with
      | Ok v -> v
      | Error e ->
          Alcotest.failf "query %d: %a" q.Queries.number Processor.pp_error e)
    Queries.all

let check_seven msg expected got =
  List.iteri
    (fun i (e, g) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: query %d bit-identical" msg (i + 1))
        true (Value.equal e g))
    (List.combine expected got)

let global_base = "ispider_v"

let version_names repo =
  List.filter
    (fun n ->
      String.length n > String.length global_base
      && String.sub n 0 (String.length global_base) = global_base)
    (List.map Schema.name (Repository.schemas repo))

let depth wf =
  Health.effective_chain_depth (Workflow.repository wf)
    ~root:(Workflow.global_name wf)

let extent wf name o =
  match Processor.extent_of (Workflow.processor wf) ~schema:name o with
  | Ok b -> b
  | Error e ->
      Alcotest.failf "%s/%s: %a" name (Scheme.to_string o) Processor.pp_error e

(* -- compaction preserves every retained version's answers ---------------- *)

let test_compact_preserves_answers () =
  let _d, _res, wf = build () in
  churn wf ~from:0 ~until:8;
  let repo = Workflow.repository wf in
  (* sample extents across EVERY retained global version *)
  let snapshot () =
    List.concat_map
      (fun name ->
        let s =
          List.find (fun s -> Schema.name s = name) (Repository.schemas repo)
        in
        List.filteri (fun i _ -> i < 6) (Schema.objects s)
        |> List.map (fun o -> (name, o, extent wf name o)))
      (version_names repo)
  in
  let q_before = seven wf in
  let e_before = snapshot () in
  let links =
    match ok (Maintain.compact wf) with
    | Maintain.Compacted c ->
        Alcotest.(check bool) "certificate covers objects" true
          (c.Maintain.c_certificate.Equiv.objects > 0);
        c.Maintain.c_links
    | Maintain.Nothing_to_do why -> Alcotest.failf "nothing to do: %s" why
    | Maintain.Refused why -> Alcotest.failf "refused: %s" why
  in
  Alcotest.(check bool) "composed the whole chain" true (links >= 2);
  Alcotest.(check int) "effective depth collapsed to one link" 1 (depth wf);
  check_seven "post-compact" q_before (seven wf);
  List.iter
    (fun (name, o, before) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s extent bit-identical" name (Scheme.to_string o))
        true
        (Value.Bag.equal before (extent wf name o)))
    e_before;
  (* keep churning and compact again: the second compaction re-composes
     through the first shortcut back to the original anchor *)
  churn wf ~from:8 ~until:10;
  (match ok (Maintain.compact wf) with
  | Maintain.Compacted _ -> ()
  | Maintain.Nothing_to_do why -> Alcotest.failf "2nd: nothing to do: %s" why
  | Maintain.Refused why -> Alcotest.failf "2nd: refused: %s" why);
  Alcotest.(check int) "depth back to one link" 1 (depth wf);
  check_seven "after second compaction" q_before (seven wf)

(* the twin property: qcheck picks random (version, object) pairs and
   the compacted dataspace must agree with an untouched identical twin *)
let twin_pair =
  lazy
    (let _, _, wf_c = build () in
     let _, _, wf_u = build () in
     churn wf_c ~from:0 ~until:8;
     churn wf_u ~from:0 ~until:8;
     (match ok (Maintain.compact wf_c) with
     | Maintain.Compacted _ -> ()
     | _ -> Alcotest.fail "twin: compaction did not commit");
     (wf_c, wf_u))

let test_compact_twin_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"compact . query = query (twin)"
       QCheck.(pair small_nat small_nat)
       (fun (vi, oi) ->
         let wf_c, wf_u = Lazy.force twin_pair in
         let repo = Workflow.repository wf_u in
         let versions = version_names repo in
         let name = List.nth versions (vi mod List.length versions) in
         let s =
           List.find (fun s -> Schema.name s = name) (Repository.schemas repo)
         in
         let objs = Schema.objects s in
         let o = List.nth objs (oi mod List.length objs) in
         Value.Bag.equal (extent wf_c name o) (extent wf_u name o)))

(* -- the atomic transaction refuses bad inputs wholesale ------------------ *)

let test_compact_chain_validation () =
  let _d, _res, wf = build () in
  churn wf ~from:0 ~until:3;
  let repo = Workflow.repository wf in
  let current = Workflow.global_name wf in
  let link =
    match
      List.find_opt
        (fun p -> not (Repository.is_contribution repo p))
        (Repository.pathways_into repo current)
    with
    | Some p -> p
    | None -> Alcotest.fail "no chain link into the current version"
  in
  let before = save repo in
  (* shortcut from an unregistered schema must be rejected untouched *)
  let bogus = { link with Transform.from_schema = "no_such_schema" } in
  (match
     Repository.compact_chain repo ~retired:link ~shortcut:bogus ~reroutes:[]
   with
  | Ok () -> Alcotest.fail "accepted a shortcut from an unregistered schema"
  | Error _ -> ());
  Alcotest.(check string) "repository untouched after refusal" before
    (save repo);
  (* a retired pathway that is not registered must be rejected too *)
  let ghost = { link with Transform.to_schema = "no_such_schema" } in
  (match
     Repository.compact_chain repo ~retired:ghost ~shortcut:link ~reroutes:[]
   with
  | Ok () -> Alcotest.fail "accepted an unregistered retired pathway"
  | Error _ -> ());
  Alcotest.(check string) "still untouched" before (save repo)

(* -- reclamation ---------------------------------------------------------- *)

let test_reclaim () =
  let _d, _res, wf = build () in
  churn wf ~from:0 ~until:10;
  let repo = Workflow.repository wf in
  let q_before = seven wf in
  let r = ok (Maintain.reclaim wf) in
  Alcotest.(check bool) "removed inert quarantines" true
    (r.Maintain.rc_pathways_removed >= 1);
  Alcotest.(check (list string))
    "pruned the evolved-away satellites"
    [ "sat0"; "sat1" ]
    (List.sort String.compare r.Maintain.rc_schemas_pruned);
  (match r.Maintain.rc_new_version with
  | Some v ->
      Alcotest.(check bool) "new version registered" true
        (Repository.mem_schema repo v);
      Alcotest.(check string) "workflow moved to it" v (Workflow.global_name wf)
  | None -> Alcotest.fail "reclaim committed no new version");
  Alcotest.(check int) "the new version is a chain anchor" 0 (depth wf);
  Alcotest.(check bool) "retired sources pruned" true
    (not (Repository.mem_schema repo "sat0"));
  check_seven "post-reclaim" q_before (seven wf);
  (* a dry run afterwards reports without committing *)
  let before = save repo in
  let dry = ok (Maintain.reclaim ~dry_run:true wf) in
  Alcotest.(check bool) "dry-run commits no version" true
    (dry.Maintain.rc_new_version = None);
  Alcotest.(check string) "dry-run leaves the repository alone" before
    (save repo)

(* -- scheduler hysteresis and cooldown ------------------------------------ *)

let test_scheduler_hysteresis () =
  let durable, resilience, wf = build () in
  let policy =
    {
      Maintain.default_policy with
      Maintain.health =
        {
          Health.default_config with
          Health.chain_depth = { Health.warn = 4.0; critical = 100.0 };
        };
    }
  in
  let sched = Maintain.Scheduler.create ~policy () in
  for i = 0 to 11 do
    ignore (ok (Evolution.evolve wf (Churn.delta i)));
    ignore (ok (Maintain.Scheduler.tick ~durable ~resilience sched wf))
  done;
  let compacts =
    List.filter
      (fun e -> e.Maintain.e_action = Maintain.Compact)
      (Maintain.Scheduler.events sched)
  in
  Alcotest.(check bool)
    (Printf.sprintf "compaction fired repeatedly (%d)" (List.length compacts))
    true
    (List.length compacts >= 2);
  (* fire point is 0.85 * 4 = 3.4: nothing may fire before depth 4 *)
  Alcotest.(check int) "first firing waits for the fire point" 4
    (match compacts with e :: _ -> e.Maintain.e_tick | [] -> -1);
  (* hysteresis: a fresh compaction leaves depth 1, which must fall
     below clear_fraction * warn before the trigger re-arms — so two
     compactions can never fire on consecutive ticks *)
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "no consecutive-tick compactions" true
        (b.Maintain.e_tick - a.Maintain.e_tick >= 2))
    (List.filteri (fun i _ -> i < List.length compacts - 1) compacts)
    (List.tl compacts);
  Alcotest.(check bool) "depth stayed bounded" true (depth wf <= 4)

(* Each compaction indicator re-arms on its own clearing.  The Void
   threshold here sits far below the integrated baseline, so that debt
   fires on every tick and never clears (compaction cannot pay it): it
   must compact once, not on every tick, and it must not keep chain
   depth from firing later. *)
let test_scheduler_rearms_per_indicator () =
  let durable, resilience, wf = build () in
  let policy =
    {
      Maintain.default_policy with
      Maintain.health =
        {
          Health.default_config with
          Health.chain_depth = { Health.warn = 4.0; critical = 100.0 };
          void_degraded = { Health.warn = 1.0; critical = 1e9 };
        };
    }
  in
  let sched = Maintain.Scheduler.create ~policy () in
  for i = 0 to 11 do
    ignore (ok (Evolution.evolve wf (Churn.delta i)));
    ignore (ok (Maintain.Scheduler.tick ~durable ~resilience sched wf))
  done;
  let compacts =
    List.filter
      (fun e -> e.Maintain.e_action = Maintain.Compact)
      (Maintain.Scheduler.events sched)
  in
  let fired_by name =
    List.exists
      (fun e -> String.starts_with ~prefix:name e.Maintain.e_trigger)
      compacts
  in
  Alcotest.(check bool) "Void debt fired compaction" true
    (fired_by "void-degraded-steps");
  Alcotest.(check bool) "chain depth fired it later" true
    (fired_by "chain-depth");
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "no consecutive-tick compactions" true
        (b.Maintain.e_tick - a.Maintain.e_tick >= 2))
    (List.filteri (fun i _ -> i < List.length compacts - 1) compacts)
    (List.tl compacts)

(* Churn under the default scheduler reaches a steady state: the
   pathways out of the altered source grow linearly with the run, and
   every contribution out of it stays delta-sized — one step per object
   it exports. *)
let test_churn_steady_state () =
  let durable, resilience, wf = build () in
  let repo = Workflow.repository wf in
  let sched = Maintain.Scheduler.create () in
  let run ~from ~until =
    for i = from to until - 1 do
      ignore (ok (Evolution.evolve wf (Churn.delta i)));
      ignore (ok (Maintain.Scheduler.tick ~durable ~resilience sched wf))
    done;
    List.length (Repository.pathways_from repo Sources.pedro_name)
  in
  let n = 100 in
  let at_n = run ~from:0 ~until:n in
  let at_2n = run ~from:n ~until:(2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "pathways out of pedro: %d at %d cycles, %d at %d" at_n n
       at_2n (2 * n))
    true
    (float_of_int at_2n <= 2.2 *. float_of_int at_n);
  let padded =
    List.filter
      (fun (c : Transform.pathway) ->
        c.Transform.from_schema = Sources.pedro_name
        &&
        let src = Option.get (Repository.source_of repo c) in
        Schema.object_count (ok (Transform.apply src c))
        <> List.length c.Transform.steps)
      (Repository.contributions repo)
  in
  Alcotest.(check int) "contributions with steps beyond their exports" 0
    (List.length padded)

let test_scheduler_cooldown () =
  let durable, resilience, wf = build () in
  (* the integrated baseline already has quarantine-shaped federation
     pathways, so a tiny threshold makes reclamation want to fire on
     every tick — the cooldown must space the firings out *)
  let policy =
    {
      Maintain.default_policy with
      Maintain.reclaim_cooldown = 4;
      Maintain.health =
        {
          Health.default_config with
          Health.quarantined = { Health.warn = 1.0; critical = 1000.0 };
        };
    }
  in
  let sched = Maintain.Scheduler.create ~policy () in
  ignore (ok (Evolution.evolve wf (Churn.delta 0)));
  for _ = 1 to 6 do
    ignore (ok (Maintain.Scheduler.tick ~durable ~resilience sched wf))
  done;
  let reclaims =
    List.filter
      (fun e -> e.Maintain.e_action = Maintain.Reclaim)
      (Maintain.Scheduler.events sched)
  in
  Alcotest.(check (list int)) "cooldown spaces reclamations" [ 1; 5 ]
    (List.map (fun e -> e.Maintain.e_tick) reclaims)

(* -- kill-point matrix over the maintenance-op journal records ------------ *)

let test_maintenance_killpoints () =
  let durable, _res, wf = build () in
  let repo = Workflow.repository wf in
  churn wf ~from:0 ~until:6;
  (* transaction-boundary snapshots of (records appended, state) *)
  let n0 = Durable.appended durable and s0 = save repo in
  (match ok (Maintain.compact wf) with
  | Maintain.Compacted _ -> ()
  | _ -> Alcotest.fail "compaction did not commit");
  let n1 = Durable.appended durable and s1 = save repo in
  Alcotest.(check int) "compaction is ONE atomic journal record" (n0 + 1) n1;
  churn wf ~from:6 ~until:8;
  let n2 = Durable.appended durable and s2 = save repo in
  ignore (ok (Maintain.reclaim wf));
  let n3 = Durable.appended durable and s3 = save repo in
  Alcotest.(check bool) "reclamation journals its op sequence" true (n3 > n2);
  let journal = ok (Vfs.((Durable.vfs durable).read) Durable.journal_file) in
  let scan = Journal.scan journal in
  let records = Array.of_list scan.Journal.records in
  Alcotest.(check int) "scan sees every record" n3 (Array.length records);
  let boundary n =
    if n < Array.length records then fst records.(n) else String.length journal
  in
  let recover_prefix cut =
    let store = Vfs.memory () in
    ok (Vfs.(store.write) Durable.journal_file (String.sub journal 0 cut));
    ok (Durable.recover store)
  in
  (* crash exactly at each maintenance-transaction boundary: recovery
     must land on the state the completed transactions describe *)
  List.iter
    (fun (n, s, what) ->
      let d, report = recover_prefix (boundary n) in
      Alcotest.(check int) (what ^ ": replays the prefix") n
        report.Durable.replayed;
      Alcotest.(check string) (what ^ ": state bit-identical") s
        (save (Durable.repository d)))
    [
      (n0, s0, "before compaction");
      (n1, s1, "after compaction");
      (n2, s2, "before reclamation");
      (n3, s3, "after reclamation");
    ];
  (* crash inside every maintenance record: the torn tail is dropped and
     recovery lands on the preceding record boundary *)
  let maintenance_records =
    List.init (n1 - n0) (fun i -> n0 + i)
    @ List.init (n3 - n2) (fun i -> n2 + i)
  in
  List.iter
    (fun k ->
      let off, payload = records.(k) in
      let reference =
        let d, _ = recover_prefix (boundary k) in
        save (Durable.repository d)
      in
      List.iter
        (fun cut ->
          let d, report = recover_prefix cut in
          Alcotest.(check int)
            (Printf.sprintf "mid-record %d replays the prefix" k)
            k report.Durable.replayed;
          Alcotest.(check bool)
            (Printf.sprintf "mid-record %d drops the torn tail" k)
            true
            (report.Durable.truncated_bytes > 0);
          Alcotest.(check string)
            (Printf.sprintf "mid-record %d lands on the boundary state" k)
            reference
            (save (Durable.repository d)))
        [ off + 3; off + Journal.header_bytes + (String.length payload / 2) ])
    maintenance_records

(* -- long-chain equivalence certification --------------------------------- *)

let tbl = Scheme.table
let q = Parser.parse_exn

let chain_src () =
  ok
    (Schema.of_objects "s"
       [
         (tbl "t", Some (Types.TBag Types.TStr));
         (tbl "t2", Some (Types.TBag Types.TStr));
       ])

let pathway steps = { Transform.from_schema = "s"; to_schema = "g"; steps }

let certify original =
  let o = Rewrite.simplify (chain_src ()) original in
  match Equiv.check (chain_src ()) ~original ~candidate:o.Rewrite.pathway with
  | Ok cert -> (o, cert)
  | Error e -> Alcotest.failf "certification failed: %s" e

let test_equiv_rename_cycle () =
  (* a full rename cycle is semantically the identity on t *)
  let original =
    pathway
      [
        Transform.Rename (tbl "t", tbl "b");
        Transform.Rename (tbl "b", tbl "c");
        Transform.Rename (tbl "c", tbl "t");
      ]
  in
  let o, _cert = certify original in
  Alcotest.(check bool) "cycle collapsed" true
    (List.length o.Rewrite.pathway.Transform.steps
    < List.length original.Transform.steps);
  (* and the empty pathway is certifiably equivalent to the cycle *)
  match Equiv.check (chain_src ()) ~original ~candidate:(pathway []) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty candidate rejected: %s" e

let test_equiv_add_delete_interleaving () =
  let original =
    pathway
      [
        Transform.Add (tbl "u", q "<<t>>");
        Transform.Rename (tbl "u", tbl "w");
        Transform.Add (tbl "x", q "<<w>>");
        Transform.Delete (tbl "x", q "<<w>>");
        Transform.Delete (tbl "w", q "<<t>>");
      ]
  in
  let _o, cert = certify original in
  Alcotest.(check bool) "trials ran" true (cert.Equiv.trials > 0)

let test_equiv_fifty_deep_composition () =
  (* 50 chained single-step pathways ping-ponging a rename *)
  let link i =
    let v n = if n = 0 then "s" else Printf.sprintf "v%d" n in
    {
      Transform.from_schema = v i;
      to_schema = v (i + 1);
      steps =
        [
          (if i mod 2 = 0 then Transform.Rename (tbl "t", tbl "b")
           else Transform.Rename (tbl "b", tbl "t"));
        ];
    }
  in
  let composed =
    List.fold_left
      (fun acc i -> ok (Transform.compose acc (link i)))
      (link 0)
      (List.init 49 (fun i -> i + 1))
  in
  Alcotest.(check int) "fifty steps composed" 50
    (List.length composed.Transform.steps);
  let o = Rewrite.simplify (chain_src ()) composed in
  Alcotest.(check bool) "simplification shrank the chain" true
    (List.length o.Rewrite.pathway.Transform.steps < 10);
  match
    Equiv.check (chain_src ()) ~original:composed ~candidate:o.Rewrite.pathway
  with
  | Ok cert ->
      Alcotest.(check bool) "reverse checked" true cert.Equiv.reverse_checked
  | Error e -> Alcotest.failf "50-deep certification failed: %s" e

let suite =
  [
    Alcotest.test_case "compaction preserves every retained version" `Slow
      test_compact_preserves_answers;
    test_compact_twin_property;
    Alcotest.test_case "compact_chain refuses bad input untouched" `Quick
      test_compact_chain_validation;
    Alcotest.test_case "reclamation re-integrates and prunes" `Slow
      test_reclaim;
    Alcotest.test_case "scheduler hysteresis" `Slow test_scheduler_hysteresis;
    Alcotest.test_case "scheduler re-arms per indicator" `Slow
      test_scheduler_rearms_per_indicator;
    Alcotest.test_case "churn reaches a steady state" `Slow
      test_churn_steady_state;
    Alcotest.test_case "scheduler reclaim cooldown" `Slow
      test_scheduler_cooldown;
    Alcotest.test_case "kill-point matrix over maintenance ops" `Slow
      test_maintenance_killpoints;
    Alcotest.test_case "equiv: rename cycle" `Quick test_equiv_rename_cycle;
    Alcotest.test_case "equiv: add/delete interleaving" `Quick
      test_equiv_add_delete_interleaving;
    Alcotest.test_case "equiv: 50-deep composition" `Quick
      test_equiv_fifty_deep_composition;
  ]
