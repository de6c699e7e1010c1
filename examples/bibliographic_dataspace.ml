(* A bibliographic dataspace across three data models.

   dblp is relational, arxiv is an XML document, the library catalogue
   is CSV - and one pay-as-you-go workflow integrates them: publications
   first, years second, everything else stays federated but queryable.

   Run with:  dune exec examples/bibliographic_dataspace.exe *)

module Repository = Automed_repository.Repository
module Workflow = Automed_integration.Workflow
module Value = Automed_iql.Value
module Bibliome = Automed_bibliome.Bibliome

let ok = function Ok v -> v | Error e -> failwith e

let () =
  let repo = Repository.create () in
  ok (Bibliome.setup repo);
  Printf.printf "wrapped: dblp (relational), arxiv (XML), library (CSV)\n";
  let wf = ok (Bibliome.integrate repo) in
  Printf.printf "integrated: %s after %d user-defined transformations\n\n"
    (Workflow.global_name wf) (Workflow.manual_steps wf);
  let wrong =
    List.filter
      (fun (c : Bibliome.check) ->
        match Workflow.run_query wf c.Bibliome.query with
        | Ok v ->
            let good = Value.to_string v = c.Bibliome.expected in
            Printf.printf "%s\n  %s\n  = %s%s\n\n" c.Bibliome.label
              c.Bibliome.query (Value.to_string v)
              (if good then ""
               else Printf.sprintf "   (expected %s!)" c.Bibliome.expected);
            not good
        | Error e ->
            failwith (Fmt.str "%s: %a" c.Bibliome.label
                        Automed_query.Processor.pp_error e))
      Bibliome.checks
  in
  if wrong <> [] then exit 1
