(* The full iSpider case study (paper Section 3), narrated.

   Replays the query-driven, intersection-schema-based integration of
   Pedro, gpmDB and PepSeeker; prints every iteration's mappings table,
   the growing global schema, and the answers to the seven priority
   queries; then contrasts the effort with the classical baseline.

   Run with:  dune exec examples/ispider_integration.exe *)

module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Intersection = Automed_integration.Intersection
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Classical_run = Automed_ispider.Classical_run

let ok = function Ok v -> v | Error e -> failwith e

(* every divergence from the paper's figures or the ground truth; the
   run exits 1 when there is any *)
let failures = ref 0

let expect what good =
  if not good then begin
    incr failures;
    Printf.printf "  ** %s\n" what
  end

let () =
  let ds = Sources.generate () in
  let repo = Repository.create () in
  ok (Sources.wrap_all repo ds);
  Printf.printf "sources wrapped:\n";
  List.iter
    (fun name ->
      Printf.printf "  %-10s %3d schema objects\n" name
        (Schema.object_count (Repository.schema_exn repo name)))
    [ Sources.pedro_name; Sources.gpmdb_name; Sources.pepseeker_name ];

  let run = ok (Intersection_run.execute repo) in
  let wf = run.Intersection_run.workflow in

  Printf.printf "\nincremental integration (one iteration per priority query):\n";
  List.iter
    (fun (it : Workflow.iteration) ->
      Printf.printf "\niteration %d: %s\n" it.Workflow.index
        it.Workflow.description;
      List.iter
        (fun (side, (p : Transform.pathway)) ->
          let shape = ok (Transform.intersection_shape p) in
          Printf.printf "  %s: %d adds" side (List.length shape.Transform.adds);
          List.iter
            (fun (target, q) ->
              Printf.printf "\n    add %s %s"
                (Automed_base.Scheme.to_string target)
                (Automed_iql.Ast.to_string q))
            shape.Transform.adds;
          Printf.printf
            "\n    (+ %d auto extends, %d auto deletes, %d auto contracts)\n"
            (List.length shape.Transform.extends)
            (List.length shape.Transform.deletes)
            (List.length shape.Transform.contracts))
        it.Workflow.outcome.Intersection.side_pathways;
      Printf.printf "  -> global schema %s (%d objects)\n" it.Workflow.global_name
        (Schema.object_count (Repository.schema_exn repo it.Workflow.global_name)))
    (Workflow.iterations wf);

  Printf.printf "\ntotal user-defined transformations: %d (paper: 26)\n"
    run.Intersection_run.total_manual;
  expect "the paper needs 26 user-defined transformations"
    (run.Intersection_run.total_manual = 26);

  Printf.printf "\nthe seven priority queries over %s:\n" (Workflow.global_name wf);
  List.iter
    (fun (q : Queries.query) ->
      match Workflow.run_query wf q.Queries.global_text with
      | Ok (Value.Bag b) ->
          let gt = q.Queries.ground_truth ds in
          Printf.printf "  Q%d (%s)\n      %d answers, ground truth %s\n"
            q.Queries.number q.Queries.title (Value.Bag.cardinal b)
            (if Value.Bag.equal b gt then "MATCHES" else "DIFFERS");
          expect "answer differs from the ground truth" (Value.Bag.equal b gt)
      | Ok v ->
          expect
            (Printf.sprintf "Q%d: unexpected %s" q.Queries.number
               (Value.to_string v))
            false
      | Error e ->
          expect
            (Printf.sprintf "Q%d: error %s" q.Queries.number
               (Fmt.str "%a" Processor.pp_error e))
            false)
    Queries.all;

  (* the classical baseline, for contrast *)
  let repo2 = Repository.create () in
  ok (Sources.wrap_all repo2 ds);
  let c = ok (Classical_run.execute repo2) in
  Printf.printf
    "\nclassical baseline: %d non-trivial transformations \
     (gpmDB->GS1 %d, PepSeeker->GS1 %d, PepSeeker->GS2 %d)\n"
    c.Classical_run.total_manual c.Classical_run.gs1_gpm c.Classical_run.gs1_pep
    c.Classical_run.gs2_pep;
  expect "the paper's classical baseline needs 95 transformations"
    (c.Classical_run.total_manual = 95);
  Printf.printf "intersection methodology needed %.1f%% of the classical effort.\n"
    (100.0
    *. float_of_int run.Intersection_run.total_manual
    /. float_of_int c.Classical_run.total_manual);

  (* static analysis: both integration styles produce lint-clean networks *)
  List.iter
    (fun (label, r) ->
      let diags = Automed_analysis.Analysis.lint_repository r in
      List.iter
        (fun d -> print_endline (Fmt.str "%a" Automed_analysis.Diagnostic.pp d))
        diags;
      Printf.printf "pathway linter (%s): %s\n" label
        (Fmt.str "%a" Automed_analysis.Diagnostic.pp_summary
           (Automed_analysis.Diagnostic.count diags));
      expect "lint errors" (not (Automed_analysis.Diagnostic.has_errors diags)))
    [ ("intersection", repo); ("classical", repo2) ];
  if !failures > 0 then exit 1
