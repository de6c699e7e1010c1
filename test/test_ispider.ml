(* The full case study (paper Section 3): generated sources, the
   intersection-based integration (26 manual transformations), the
   classical ladder (95), query ground truths and the pay-as-you-go
   progression. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Parser = Automed_iql.Parser
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Intersection = Automed_integration.Intersection
module Classical = Automed_integration.Classical
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Classical_run = Automed_ispider.Classical_run
module Telemetry = Automed_telemetry.Telemetry

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* The dataset and both integrations are deterministic and somewhat
   expensive to build, so they are shared across the test cases. *)
let dataset = lazy (Sources.generate ())

let intersection_env =
  lazy
    (let ds = Lazy.force dataset in
     let repo = Repository.create () in
     ok (Sources.wrap_all repo ds);
     let run = ok (Intersection_run.execute repo) in
     (ds, repo, run))

let classical_env =
  lazy
    (let ds = Lazy.force dataset in
     let repo = Repository.create () in
     ok (Sources.wrap_all repo ds);
     let run = ok (Classical_run.execute repo) in
     (ds, repo, run))

(* -- sources ------------------------------------------------------------- *)

let test_generation_deterministic () =
  let d1 = Sources.generate ~seed:9L ~scale:10 () in
  let d2 = Sources.generate ~seed:9L ~scale:10 () in
  let count ds name =
    Automed_datasource.Relational.tables ds
    |> List.map (fun t ->
           (Automed_datasource.Relational.table_name t,
            Automed_datasource.Relational.rows t))
    |> fun l -> (name, l)
  in
  Alcotest.(check bool) "same rows" true
    (count d1.Sources.pedro "p" = count d2.Sources.pedro "p"
    && count d1.Sources.gpmdb "g" = count d2.Sources.gpmdb "g"
    && count d1.Sources.pepseeker "s" = count d2.Sources.pepseeker "s")

let test_schema_sizes () =
  let _, repo, _ = Lazy.force intersection_env in
  let size name = Schema.object_count (Repository.schema_exn repo name) in
  (* the reconstruction sizes documented in EXPERIMENTS.md *)
  Alcotest.(check int) "pedro" 43 (size "pedro");
  Alcotest.(check int) "gpmdb" 60 (size "gpmdb");
  Alcotest.(check int) "pepseeker" 65 (size "pepseeker")

let test_known_values_planted () =
  let ds = Lazy.force dataset in
  let has db table col value =
    match Automed_datasource.Relational.find_table db table with
    | None -> false
    | Some t -> (
        match Automed_datasource.Relational.column_extent t col with
        | Ok bag ->
            Value.Bag.fold
              (fun v _ acc ->
                acc
                || match v with
                   | Value.Tuple [ _; Value.Str s ] -> s = value
                   | _ -> false)
              bag false
        | Error _ -> false)
  in
  Alcotest.(check bool) "accession in pedro" true
    (has ds.Sources.pedro "protein" "accession_num" Sources.Known.accession);
  Alcotest.(check bool) "accession in gpmdb" true
    (has ds.Sources.gpmdb "proseq" "label" Sources.Known.accession);
  Alcotest.(check bool) "accession in pepseeker" true
    (has ds.Sources.pepseeker "protein" "accession" Sources.Known.accession);
  Alcotest.(check bool) "peptide in pedro" true
    (has ds.Sources.pedro "peptidehit" "sequence" Sources.Known.peptide_sequence)

(* -- intersection methodology (the paper's headline numbers) ------------- *)

let test_total_manual_is_26 () =
  let _, _, run = Lazy.force intersection_env in
  Alcotest.(check int) "26 manual transformations" 26
    run.Intersection_run.total_manual

let test_step_breakdown () =
  let _, _, run = Lazy.force intersection_env in
  Alcotest.(check (list int)) "6+1+1+(14+1)+3" [ 6; 1; 1; 14; 1; 3 ]
    (List.map (fun s -> s.Intersection_run.manual) run.Intersection_run.steps)

let test_queries_match_ground_truth () =
  let ds, _, run = Lazy.force intersection_env in
  let wf = run.Intersection_run.workflow in
  List.iter
    (fun (q : Queries.query) ->
      match Workflow.run_query wf q.Queries.global_text with
      | Error e ->
          Alcotest.failf "query %d: %a" q.Queries.number Processor.pp_error e
      | Ok (Value.Bag got) ->
          let expected = q.Queries.ground_truth ds in
          if not (Value.Bag.equal got expected) then
            Alcotest.failf "query %d: got %d answers, expected %d"
              q.Queries.number (Value.Bag.cardinal got)
              (Value.Bag.cardinal expected)
      | Ok v ->
          Alcotest.failf "query %d: non-bag %s" q.Queries.number
            (Value.to_string v))
    Queries.all

let test_queries_nonempty () =
  (* guard against vacuous ground truths *)
  let ds, _, _ = Lazy.force intersection_env in
  List.iter
    (fun (q : Queries.query) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d ground truth nonempty" q.Queries.number)
        true
        (not (Value.Bag.is_empty (q.Queries.ground_truth ds))))
    Queries.all

let test_payg_progression () =
  (* each query becomes answerable exactly at its documented iteration *)
  let _, repo, run = Lazy.force intersection_env in
  let proc = Processor.create repo in
  let answerable_at version (q : Queries.query) =
    match Parser.parse q.Queries.global_text with
    | Error e -> Alcotest.failf "parse: %s" e
    | Ok ast ->
        Processor.answerable proc ~schema:(Printf.sprintf "ispider_v%d" version) ast
  in
  ignore run;
  List.iter
    (fun (q : Queries.query) ->
      for v = 0 to 6 do
        let expected = v >= q.Queries.needs_iteration in
        Alcotest.(check bool)
          (Printf.sprintf "query %d at v%d" q.Queries.number v)
          expected (answerable_at v q)
      done)
    Queries.all

let test_queries_use_fresh_processor () =
  (* reproducibility: a fresh processor over the same repository yields
     identical answers (cache-independence) *)
  let _, repo, run = Lazy.force intersection_env in
  let wf = run.Intersection_run.workflow in
  let fresh = Processor.create repo in
  List.iter
    (fun (q : Queries.query) ->
      let a = Workflow.run_query wf q.Queries.global_text in
      let b =
        Processor.run_string fresh ~schema:(Workflow.global_name wf)
          q.Queries.global_text
      in
      match (a, b) with
      | Ok va, Ok vb ->
          Alcotest.(check bool)
            (Printf.sprintf "query %d stable" q.Queries.number)
            true (Value.equal va vb)
      | _ -> Alcotest.failf "query %d failed" q.Queries.number)
    Queries.all

let test_intersection_pathways_canonical () =
  let _, _, run = Lazy.force intersection_env in
  List.iter
    (fun (it : Workflow.iteration) ->
      List.iter
        (fun (_, p) ->
          match Automed_transform.Transform.intersection_shape p with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "iteration %d: %s" it.Workflow.index e)
        it.Workflow.outcome.Intersection.side_pathways)
    (Workflow.iterations run.Intersection_run.workflow)

let test_redundant_objects_dropped () =
  let _, repo, run = Lazy.force intersection_env in
  let g =
    Repository.schema_exn repo
      (Workflow.global_name run.Intersection_run.workflow)
  in
  (* Pedro's protein accession was mapped into UProtein: dropped *)
  Alcotest.(check bool) "mapped object dropped" false
    (Schema.mem
       (Scheme.prefix "pedro" (Scheme.column "protein" "accession_num"))
       g);
  (* Pedro's predicted_mass was never mapped: retained under its prefix *)
  Alcotest.(check bool) "unmapped object kept" true
    (Schema.mem
       (Scheme.prefix "pedro" (Scheme.column "protein" "predicted_mass"))
       g);
  (* intersection concepts are present unprefixed *)
  Alcotest.(check bool) "UProtein present" true
    (Schema.mem (Scheme.table "UProtein") g)

(* -- classical baseline --------------------------------------------------- *)

let test_classical_counts () =
  let _, _, run = Lazy.force classical_env in
  Alcotest.(check int) "gpmDB -> GS1" 19 run.Classical_run.gs1_gpm;
  Alcotest.(check int) "PepSeeker -> GS1" 35 run.Classical_run.gs1_pep;
  Alcotest.(check int) "PepSeeker -> GS2" 41 run.Classical_run.gs2_pep;
  Alcotest.(check int) "total 95" 95 run.Classical_run.total_manual

let test_classical_new_per_stage () =
  let _, _, run = Lazy.force classical_env in
  Alcotest.(check (list (pair string int))) "stage breakdown"
    [ ("GS1", 54); ("GS2", 41); ("GS3", 0) ]
    run.Classical_run.ladder.Classical.new_manual_per_stage

let test_classical_queries_run () =
  let _, repo, _ = Lazy.force classical_env in
  let proc = Processor.create repo in
  List.iter
    (fun (q : Queries.query) ->
      match Processor.run_string proc ~schema:"GS3" q.Queries.classical_text with
      | Ok (Value.Bag b) ->
          Alcotest.(check bool)
            (Printf.sprintf "classical query %d nonempty" q.Queries.number)
            true
            (not (Value.Bag.is_empty b))
      | Ok v ->
          Alcotest.failf "classical query %d: non-bag %s" q.Queries.number
            (Value.to_string v)
      | Error e ->
          Alcotest.failf "classical query %d: %a" q.Queries.number
            Processor.pp_error e)
    Queries.all

let test_classical_query7_needs_gs3 () =
  (* the ion query only becomes answerable at the last classical stage:
     the all-up-front cost precedes any ion data service *)
  let _, repo, _ = Lazy.force classical_env in
  let proc = Processor.create repo in
  let q7 = Queries.find 7 in
  let ast = Parser.parse_exn q7.Queries.classical_text in
  Alcotest.(check bool) "not at GS1" false
    (Processor.answerable proc ~schema:"GS1" ast);
  Alcotest.(check bool) "not at GS2" false
    (Processor.answerable proc ~schema:"GS2" ast);
  Alcotest.(check bool) "at GS3" true (Processor.answerable proc ~schema:"GS3" ast)

(* classical ground truths: the classical GS merges extents untagged, so
   the expected answers are the plain unions of the per-source columns *)
let classical_gt_column specs wanted =
  let module Relational = Automed_datasource.Relational in
  List.concat_map
    (fun (db, table, col) ->
      match Relational.find_table db table with
      | None -> []
      | Some t -> (
          match Relational.column_extent t col with
          | Ok bag ->
              Value.Bag.fold
                (fun v n acc ->
                  match v with
                  | Value.Tuple [ k; Value.Str s ] when s = wanted ->
                      List.init n (fun _ -> k) @ acc
                  | _ -> acc)
                bag []
          | Error _ -> []))
    specs
  |> Value.Bag.of_list
  |> fun b -> b

let test_classical_queries_match_ground_truth () =
  let ds, repo, _ = Lazy.force classical_env in
  let proc = Processor.create repo in
  let check_q n specs wanted =
    let q = Queries.find n in
    match Processor.run_string proc ~schema:"GS3" q.Queries.classical_text with
    | Ok (Value.Bag got) ->
        let expected = classical_gt_column specs wanted in
        Alcotest.(check bool)
          (Printf.sprintf "classical query %d matches ground truth" n)
          true (Value.Bag.equal got expected)
    | _ -> Alcotest.failf "classical query %d failed" n
  in
  check_q 1
    [ (ds.Sources.pedro, "protein", "accession_num");
      (ds.Sources.gpmdb, "proseq", "label");
      (ds.Sources.pepseeker, "protein", "accession") ]
    Sources.Known.accession;
  check_q 2
    [ (ds.Sources.pedro, "protein", "description");
      (ds.Sources.pepseeker, "protein", "description") ]
    Sources.Known.family_description;
  check_q 3
    [ (ds.Sources.pedro, "protein", "organism");
      (ds.Sources.pepseeker, "protein", "taxon") ]
    Sources.Known.organism

let test_all_schemas_hdm_valid () =
  (* the entire pathway network only ever produces schemas whose HDM
     representation is referentially sound *)
  let module Hdm = Automed_hdm.Hdm in
  let _, repo, _ = Lazy.force intersection_env in
  List.iter
    (fun s ->
      match Schema.hdm s with
      | Ok g ->
          Alcotest.(check bool)
            (Printf.sprintf "%s HDM valid" (Schema.name s))
            true
            (Result.is_ok (Hdm.validate g))
      | Error e -> Alcotest.failf "%s: %s" (Schema.name s) e)
    (Repository.schemas repo)

let test_classical_accession_query_agrees () =
  (* both methodologies find the same three protein identifications for
     the known accession (modulo provenance tagging) *)
  let _, repo, _ = Lazy.force classical_env in
  let proc = Processor.create repo in
  let q1 = Queries.find 1 in
  match Processor.run_string proc ~schema:"GS3" q1.Queries.classical_text with
  | Ok (Value.Bag b) -> Alcotest.(check int) "three sources" 3 (Value.Bag.cardinal b)
  | _ -> Alcotest.fail "query failed"

(* -- the headline comparison --------------------------------------------- *)

let test_effort_comparison () =
  let _, _, irun = Lazy.force intersection_env in
  let _, _, crun = Lazy.force classical_env in
  Alcotest.(check bool) "26 < 95" true
    (irun.Intersection_run.total_manual < crun.Classical_run.total_manual);
  Alcotest.(check int) "factor > 3" 3
    (crun.Classical_run.total_manual / irun.Intersection_run.total_manual)

(* A cold query pays only for reachability: a fresh processor answers
   the seven case-study queries without a single rewrite-rule
   application or equivalence certification, still prunes pathways, and
   every answer is the ground truth. *)
let test_cold_queries_skip_rewriting () =
  let ds, repo, run = Lazy.force intersection_env in
  let schema = Workflow.global_name run.Intersection_run.workflow in
  let fresh = Processor.create repo in
  let mem = Telemetry.Memory.create () in
  Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
      List.iter
        (fun (q : Queries.query) ->
          match Processor.run_string fresh ~schema q.Queries.global_text with
          | Ok (Value.Bag got) ->
              Alcotest.(check bool)
                (Printf.sprintf "query %d matches ground truth" q.Queries.number)
                true
                (Value.Bag.equal got (q.Queries.ground_truth ds))
          | Ok v ->
              Alcotest.failf "query %d: non-bag %s" q.Queries.number
                (Value.to_string v)
          | Error e ->
              Alcotest.failf "query %d: %a" q.Queries.number Processor.pp_error
                e)
        Queries.all);
  List.iter
    (fun name ->
      Alcotest.(check int) name 0 (Telemetry.Memory.counter mem name))
    [ "analysis.rewrite.applications"; "analysis.rewrites_certified" ];
  Alcotest.(check bool) "pathways pruned" true
    (Telemetry.Memory.counter mem "processor.pathways_pruned" > 0)

let suite =
  [
    Alcotest.test_case "generation deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "schema sizes" `Quick test_schema_sizes;
    Alcotest.test_case "known values planted" `Quick test_known_values_planted;
    Alcotest.test_case "26 manual transformations" `Quick test_total_manual_is_26;
    Alcotest.test_case "step breakdown 6+1+1+15+3" `Quick test_step_breakdown;
    Alcotest.test_case "queries match ground truth" `Quick
      test_queries_match_ground_truth;
    Alcotest.test_case "ground truths nonempty" `Quick test_queries_nonempty;
    Alcotest.test_case "pay-as-you-go progression" `Quick test_payg_progression;
    Alcotest.test_case "answers stable across processors" `Quick
      test_queries_use_fresh_processor;
    Alcotest.test_case "pathways canonical" `Quick
      test_intersection_pathways_canonical;
    Alcotest.test_case "redundant objects dropped" `Quick
      test_redundant_objects_dropped;
    Alcotest.test_case "classical counts 19/35/41" `Quick test_classical_counts;
    Alcotest.test_case "classical per-stage 54/41/0" `Quick
      test_classical_new_per_stage;
    Alcotest.test_case "classical queries run on GS3" `Quick
      test_classical_queries_run;
    Alcotest.test_case "ion query needs GS3" `Quick test_classical_query7_needs_gs3;
    Alcotest.test_case "classical query 1 agrees" `Quick
      test_classical_accession_query_agrees;
    Alcotest.test_case "classical queries match ground truth" `Quick
      test_classical_queries_match_ground_truth;
    Alcotest.test_case "all schemas HDM-valid" `Quick test_all_schemas_hdm_valid;
    Alcotest.test_case "26 vs 95 comparison" `Quick test_effort_comparison;
    Alcotest.test_case "cold queries skip rewriting" `Quick
      test_cold_queries_skip_rewriting;
  ]
