(* Heterogeneous models in one dataspace.

   AutoMed's HDM is a *common* data model: modelling languages are
   defined on top of it, so sources need not be relational.  This example
   integrates a relational staff database with an XML personnel document
   and an RDF-style contact graph: one intersection schema spans three
   modelling languages.

   Run with:  dune exec examples/multimodel_dataspace.exe *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Model = Automed_model.Model
module Hdm = Automed_hdm.Hdm
module Value = Automed_iql.Value
module Types = Automed_iql.Types
module Parser = Automed_iql.Parser
module Relational = Automed_datasource.Relational
module Wrapper = Automed_datasource.Wrapper
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Intersection = Automed_integration.Intersection
module Workflow = Automed_integration.Workflow

let ok = function Ok v -> v | Error e -> failwith e

let xml_scheme construct args = Scheme.make ~language:"xml" ~construct args
let rdf_scheme construct args = Scheme.make ~language:"rdf" ~construct args

let () =
  let repo = Repository.create () in

  (* source 1: a relational staff table, loaded through the wrapper *)
  let hr_db =
    let staff =
      ok
        (Relational.create_table ~name:"staff" ~key:"id"
           [ ("id", Relational.CStr); ("email", Relational.CStr) ])
    in
    let staff =
      ok
        (Relational.insert_all staff
           [
             [ Relational.str_cell "s1"; Relational.str_cell "ada@example.org" ];
             [ Relational.str_cell "s2"; Relational.str_cell "bob@example.org" ];
           ])
    in
    ok (Relational.add_table (Relational.create_db "hr") staff)
  in
  let _ = ok (Wrapper.wrap repo hr_db) in

  (* source 2: an XML personnel document, parsed and wrapped through the
     xml modelling language *)
  let xml_text =
    {|<staff>
        <person mail="bob@example.org">Bob</person>
        <person mail="eve@example.org">Eve</person>
      </staff>|}
  in
  let doc = ok (Automed_datasource.Document.parse xml_text) in
  let xml_schema = ok (Automed_datasource.Document.wrap repo ~name:"personnel" doc) in
  ignore (xml_scheme "element" [ "person" ]);

  (* source 3: an RDF-ish contact graph - a mailbox property *)
  let mbox = rdf_scheme "property" [ "mbox" ] in
  let rdf_schema =
    ok
      (Schema.of_objects "contacts"
         [ (mbox, Some (Types.tuple_row [ Types.TStr; Types.TStr ])) ])
  in
  ok (Repository.add_schema repo rdf_schema);
  ok
    (Repository.set_extent repo ~schema:"contacts" mbox
       (Value.Bag.of_list
          [ Value.tuple2 (Value.Str "urn:ada") (Value.Str "ada@example.org");
            Value.tuple2 (Value.Str "urn:carol") (Value.Str "carol@example.org") ]));

  (* the HDM representations really are per-language graphs *)
  let g = ok (Schema.hdm xml_schema) in
  Printf.printf "HDM of the XML source: %d nodes/edges\n" (Hdm.size g);

  (* one intersection schema across the three modelling languages *)
  let wf =
    ok
      (Workflow.start repo ~name:"people"
         ~sources:[ "hr"; "personnel"; "contacts" ])
  in
  let spec =
    {
      Intersection.name = "i_person";
      sides =
        [
          {
            Intersection.schema = "hr";
            mappings =
              [
                { Intersection.target = Scheme.column "UPerson" "email";
                  forward =
                    Parser.parse_exn "[{'hr', k, x} | {k,x} <- <<staff,email>>]";
                  restore = None };
              ];
          };
          {
            Intersection.schema = "personnel";
            mappings =
              [
                { Intersection.target = Scheme.column "UPerson" "email";
                  forward =
                    Parser.parse_exn
                      "[{'xml', k, x} | {k,x} <- <<xml,attribute,person,mail>>]";
                  restore = None };
              ];
          };
          {
            Intersection.schema = "contacts";
            mappings =
              [
                { Intersection.target = Scheme.column "UPerson" "email";
                  forward =
                    Parser.parse_exn
                      "[{'rdf', k, x} | {k,x} <- <<rdf,property,mbox>>]";
                  restore = None };
              ];
          };
        ];
    }
  in
  let _ = ok (Workflow.integrate wf spec) in
  Printf.printf "global schema: %s\n\n" (Workflow.global_name wf);

  (* every answer is checkable by hand against the three sources above *)
  let wrong = ref 0 in
  let run text expected =
    match Workflow.run_query wf text with
    | Ok v ->
        let v = Value.to_string v in
        Printf.printf "%s\n  = %s\n" text v;
        if v <> expected then begin
          incr wrong;
          Printf.printf "  ** expected %s\n" expected
        end
    | Error e -> failwith (Fmt.str "%a" Automed_query.Processor.pp_error e)
  in
  (* two mailboxes per source *)
  run "count(<<UPerson,email>>)" "6";
  (* the same person appearing in two models, joined on the email value *)
  run
    "[{s1, s2, m} | {s1, k1, m} <- <<UPerson,email>>; {s2, k2, m2} <- \
     <<UPerson,email>>; m = m2; s1 < s2]"
    "[{'hr','rdf','ada@example.org'}; {'hr','xml','bob@example.org'}]";

  (* static analysis: the cross-model pathway network lints clean *)
  let diags = Automed_analysis.Analysis.lint_repository repo in
  List.iter
    (fun d -> print_endline (Fmt.str "%a" Automed_analysis.Diagnostic.pp d))
    diags;
  Printf.printf "\npathway linter: %s\n"
    (Fmt.str "%a" Automed_analysis.Diagnostic.pp_summary
       (Automed_analysis.Diagnostic.count diags));
  if !wrong > 0 || Automed_analysis.Diagnostic.has_errors diags then exit 1
