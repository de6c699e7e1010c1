(* Pay-as-you-go dataspace management.

   Shows the properties the paper claims for the incremental methodology:

   - data services are available before any integration (step 2);
   - the Schema Matching tool suggests where to integrate next (step 4);
   - every iteration strictly grows what is answerable;
   - earlier global-schema versions remain registered and queryable, so
     running services never break while integration proceeds.

   Run with:  dune exec examples/payg_dataspace.exe *)

module Scheme = Automed_base.Scheme
module Value = Automed_iql.Value
module Parser = Automed_iql.Parser
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Matcher = Automed_matching.Matcher
module Workflow = Automed_integration.Workflow
module Intersection = Automed_integration.Intersection
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries

let ok = function Ok v -> v | Error e -> failwith e

let answerable wf (q : Queries.query) =
  match Parser.parse q.Queries.global_text with
  | Error _ -> false
  | Ok ast -> Workflow.answerable wf ast

(* pay-as-you-go: every integration step makes more priority queries
   answerable; the run exits 1 when one does not *)
let answered = ref 0
let failures = ref 0

let report wf =
  let n = List.length (List.filter (answerable wf) Queries.all) in
  Printf.printf "  global schema %-12s -> %d/7 priority queries answerable\n"
    (Workflow.global_name wf) n;
  if Workflow.global_name wf <> "payg_v0" && n <= !answered then begin
    incr failures;
    Printf.printf "  ** answerability did not grow (was %d)\n" !answered
  end;
  answered := n

let () =
  let repo = Repository.create () in
  ok (Sources.wrap_all repo (Sources.generate ()));
  let wf =
    ok
      (Workflow.start repo ~name:"payg"
         ~sources:[ Sources.pedro_name; Sources.gpmdb_name; Sources.pepseeker_name ])
  in

  Printf.printf "day one: the federated schema already serves queries.\n";
  report wf;
  (match Workflow.run_query wf "count(<<pepseeker:iontable>>)" with
  | Ok v -> Printf.printf "  e.g. count(<<pepseeker:iontable>>) = %s\n" (Value.to_string v)
  | Error e -> failwith (Fmt.str "%a" Processor.pp_error e));

  Printf.printf
    "\nbefore integrating, consult the Schema Matching tool (step 4):\n";
  let suggestions =
    ok (Workflow.suggestions ~threshold:0.45 wf ~left:"pedro" ~right:"gpmdb")
  in
  List.iteri
    (fun i s ->
      if i < 5 then Printf.printf "  %s\n" (Fmt.str "%a" Matcher.pp_suggestion s))
    suggestions;

  Printf.printf
    "\nintegrate the top correspondence as an intersection schema:\n";
  let spec =
    {
      Intersection.name = "i_protein";
      sides =
        [
          {
            Intersection.schema = "pedro";
            mappings =
              [
                { Intersection.target = Scheme.table "UProtein";
                  forward = Parser.parse_exn "[{'PEDRO', k} | k <- <<protein>>]";
                  restore = None };
                { Intersection.target = Scheme.column "UProtein" "accession_num";
                  forward =
                    Parser.parse_exn
                      "[{'PEDRO', k, x} | {k,x} <- <<protein,accession_num>>]";
                  restore = None };
              ];
          };
          {
            Intersection.schema = "gpmdb";
            mappings =
              [
                { Intersection.target = Scheme.table "UProtein";
                  forward = Parser.parse_exn "[{'gpmDB', k} | k <- <<proseq>>]";
                  restore = None };
                { Intersection.target = Scheme.column "UProtein" "accession_num";
                  forward =
                    Parser.parse_exn
                      "[{'gpmDB', k, x} | {k,x} <- <<proseq,label>>]";
                  restore = None };
              ];
          };
          {
            Intersection.schema = "pepseeker";
            mappings =
              [
                { Intersection.target = Scheme.table "UProtein";
                  forward =
                    Parser.parse_exn
                      "[{'pepSeeker', x} | {k, x} <- <<proteinhit,proteinid>>]";
                  restore = None };
                { Intersection.target = Scheme.column "UProtein" "accession_num";
                  forward =
                    Parser.parse_exn
                      "[{'pepSeeker', k, x} | {k,x} <- <<protein,accession>>]";
                  restore = None };
              ];
          };
        ];
    }
  in
  let _it = ok (Workflow.integrate wf spec) in
  report wf;
  (match
     Workflow.run_query wf
       (Printf.sprintf "[{s,k} | {s,k,a} <- <<UProtein,accession_num>>; a = '%s']"
          Sources.Known.accession)
   with
  | Ok v ->
      Printf.printf "  protein %s found in: %s\n" Sources.Known.accession
        (Value.to_string v);
      (* the generator plants this accession in all three sources *)
      (match v with
      | Value.Bag b when Value.Bag.cardinal b = 3 -> ()
      | _ ->
          incr failures;
          Printf.printf "  ** expected one hit in each of the three sources\n")
  | Error e -> failwith (Fmt.str "%a" Processor.pp_error e));

  Printf.printf
    "\nan ad-hoc extension (footnote 8) unlocks the description query:\n";
  let _it =
    ok
      (Workflow.integrate_adhoc wf ~name:"x_descr"
         {
           Intersection.schema = "pedro";
           mappings =
             [
               { Intersection.target = Scheme.column "UProtein" "description";
                 forward =
                   Parser.parse_exn
                     "[{'PEDRO', k, x} | {k,x} <- <<protein,description>>]";
                 restore = None };
             ];
         })
  in
  report wf;

  Printf.printf
    "\nhistory: every version of the global schema remains queryable -\n";
  let proc = Workflow.processor wf in
  List.iter
    (fun v ->
      let schema = Printf.sprintf "payg_v%d" v in
      match Processor.run_string proc ~schema "count(<<pedro:protein>>)" with
      | Ok value -> Printf.printf "  %s: count(<<pedro:protein>>) = %s\n" schema (Value.to_string value)
      | Error _ ->
          (* after integration the object moved into UProtein *)
          Printf.printf "  %s: <<pedro:protein>> integrated into <<UProtein>>\n"
            schema)
    [ 0; 1; 2 ];
  Printf.printf "\ntotal manual transformations so far: %d\n" (Workflow.manual_steps wf);

  (* static analysis: every pathway registered along the way lints clean *)
  let diags = Automed_analysis.Analysis.lint_repository repo in
  List.iter
    (fun d -> print_endline (Fmt.str "%a" Automed_analysis.Diagnostic.pp d))
    diags;
  Printf.printf "\npathway linter: %s\n"
    (Fmt.str "%a" Automed_analysis.Diagnostic.pp_summary
       (Automed_analysis.Diagnostic.count diags));
  if !failures > 0 || Automed_analysis.Diagnostic.has_errors diags then exit 1
