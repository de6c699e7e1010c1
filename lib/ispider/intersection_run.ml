module Scheme = Automed_base.Scheme
module Parser = Automed_iql.Parser
module Repository = Automed_repository.Repository
module Intersection = Automed_integration.Intersection
module Workflow = Automed_integration.Workflow

type step = { label : string; enables : int list; manual : int }
type run = { workflow : Workflow.t; steps : step list; total_manual : int }

let ( let* ) = Result.bind

let intersection_names =
  [ "i_protein"; "x_protein_description"; "x_protein_organism"; "i_hits";
    "x_hit_join"; "i_probability" ]

let q = Parser.parse_exn
let t = Scheme.table
let c = Scheme.column

let mapping target forward = { Intersection.target; forward; restore = None }

(* Iteration 1 (query 1): UProtein and its accession number, integrated
   across all three sources - the paper's 6 transformations. *)
let iteration_1 =
  {
    Intersection.name = "i_protein";
    sides =
      [
        {
          schema = Sources.pedro_name;
          mappings =
            [
              mapping (t "UProtein") (q "[{'PEDRO', k} | k <- <<protein>>]");
              mapping
                (c "UProtein" "accession_num")
                (q "[{'PEDRO', k, x} | {k,x} <- <<protein,accession_num>>]");
            ];
        };
        {
          schema = Sources.gpmdb_name;
          mappings =
            [
              mapping (t "UProtein") (q "[{'gpmDB', k} | k <- <<proseq>>]");
              mapping
                (c "UProtein" "accession_num")
                (q "[{'gpmDB', k, x} | {k,x} <- <<proseq,label>>]");
            ];
        };
        {
          schema = Sources.pepseeker_name;
          mappings =
            [
              (* the paper keys PepSeeker's UProtein contribution by the
                 protein id referenced from proteinhit *)
              mapping (t "UProtein")
                (q "[{'pepSeeker', x} | {k, x} <- <<proteinhit,proteinid>>]");
              mapping
                (c "UProtein" "accession_num")
                (q "[{'pepSeeker', k, x} | {k,x} <- <<protein,accession>>]");
            ];
        };
      ];
  }

(* Iterations 2 and 3 (queries 2, 3): ad-hoc single-schema extensions. *)
let iteration_2 =
  {
    Intersection.schema = Sources.pedro_name;
    mappings =
      [
        mapping
          (c "UProtein" "description")
          (q "[{'PEDRO', k, x} | {k,x} <- <<protein,description>>]");
      ];
  }

let iteration_3 =
  {
    Intersection.schema = Sources.pedro_name;
    mappings =
      [
        mapping
          (c "UProtein" "organism")
          (q "[{'PEDRO', k, x} | {k,x} <- <<protein,organism>>]");
      ];
  }

(* Iteration 4 (queries 4-5): protein hits, peptide hits and their
   db-search links - 14 transformations here plus the join entity below. *)
let iteration_4 =
  {
    Intersection.name = "i_hits";
    sides =
      [
        {
          schema = Sources.pedro_name;
          mappings =
            [
              mapping
                (c "UProteinHit" "protein")
                (q "[{'PEDRO', k, x} | {k,x} <- <<proteinhit,protein>>]");
              mapping (t "UPeptideHit") (q "[{'PEDRO', k} | k <- <<peptidehit>>]");
              mapping
                (c "UPeptideHit" "sequence")
                (q "[{'PEDRO', k, x} | {k,x} <- <<peptidehit,sequence>>]");
              mapping
                (c "UPeptideHit" "score")
                (q "[{'PEDRO', k, x} | {k,x} <- <<peptidehit,score>>]");
              mapping
                (c "UProteinHit" "dbsearch")
                (q "[{'PEDRO', k, x} | {k,x} <- <<proteinhit,db_search>>]");
              mapping
                (c "UPeptideHit" "dbsearch")
                (q "[{'PEDRO', k, x} | {k,x} <- <<peptidehit,db_search>>]");
            ];
        };
        {
          schema = Sources.gpmdb_name;
          mappings =
            [
              mapping
                (c "UProteinHit" "protein")
                (q "[{'gpmDB', k, x} | {k,x} <- <<protein,proseqid>>]");
              mapping (t "UPeptideHit") (q "[{'gpmDB', k} | k <- <<peptide>>]");
              mapping
                (c "UPeptideHit" "sequence")
                (q "[{'gpmDB', k, x} | {k,x} <- <<peptide,seq>>]");
            ];
        };
        {
          schema = Sources.pepseeker_name;
          mappings =
            [
              mapping
                (c "UProteinHit" "protein")
                (q "[{'pepSeeker', k, x} | {k,x} <- <<proteinhit,proteinid>>]");
              mapping (t "UPeptideHit")
                (q "[{'pepSeeker', k} | k <- <<peptidehit>>]");
              mapping
                (c "UPeptideHit" "sequence")
                (q "[{'pepSeeker', k, x} | {k,x} <- <<peptidehit,pepseq>>]");
              mapping
                (c "UPeptideHit" "score")
                (q "[{'pepSeeker', k, x} | {k,x} <- <<peptidehit,score>>]");
              mapping
                (c "UProteinHit" "dbsearch")
                (q "[{'pepSeeker', k, x} | {k,x} <- <<proteinhit,fileparameters>>]");
            ];
        };
      ];
  }

(* The join entity between peptide hits and protein hits sharing a db
   search, defined over concepts already in the global schema. *)
let iteration_4b =
  {
    Intersection.schema = "i_hits";
    mappings =
      [
        mapping
          (t "uPeptideHitToProteinHitmm")
          (q
             "[{{s1,k1},{s2,k2}} | {s1,k1,x} <- <<UPeptideHit,dbsearch>>; \
              {s2,k2,y} <- <<UProteinHit,dbsearch>>; s1 = s2; x = y]");
      ];
  }

(* Iteration 5 (query 6): peptide hit probabilities. *)
let iteration_5 =
  {
    Intersection.name = "i_probability";
    sides =
      [
        {
          schema = Sources.pedro_name;
          mappings =
            [
              mapping
                (c "UPeptideHit" "probability")
                (q "[{'PEDRO', k, x} | {k,x} <- <<peptidehit,probability>>]");
            ];
        };
        {
          schema = Sources.gpmdb_name;
          mappings =
            [
              mapping
                (c "UPeptideHit" "probability")
                (q "[{'gpmDB', k, x} | {k,x} <- <<peptide,expect>>]");
            ];
        };
        {
          schema = Sources.pepseeker_name;
          mappings =
            [
              mapping
                (c "UPeptideHit" "probability")
                (q "[{'pepSeeker', k, x} | {k,x} <- <<peptidehit,expect>>]");
            ];
        };
      ];
  }

let execute ?resilience repo =
  let* wf =
    Workflow.start ?resilience repo ~name:"ispider"
      ~sources:[ Sources.pedro_name; Sources.gpmdb_name; Sources.pepseeker_name ]
  in
  let steps = ref [] in
  let push label enables (it : Workflow.iteration) =
    steps :=
      { label; enables; manual = it.outcome.Intersection.manual_steps } :: !steps
  in
  let* it1 =
    Workflow.integrate ~description:"query 1: UProtein + accession_num" wf
      iteration_1
  in
  push "query 1: UProtein + accession_num" [ 1 ] it1;
  let* it2 =
    Workflow.integrate_adhoc ~description:"query 2: UProtein description" wf
      ~name:"x_protein_description" iteration_2
  in
  push "query 2: UProtein description" [ 2 ] it2;
  let* it3 =
    Workflow.integrate_adhoc ~description:"query 3: UProtein organism" wf
      ~name:"x_protein_organism" iteration_3
  in
  push "query 3: UProtein organism" [ 3 ] it3;
  let* it4 =
    Workflow.integrate ~description:"queries 4-5: hits and sequences" wf
      iteration_4
  in
  push "queries 4-5: hits and sequences" [] it4;
  let* it4b =
    Workflow.integrate_adhoc
      ~description:"queries 4-5: peptide-hit/protein-hit join" wf
      ~name:"x_hit_join" iteration_4b
  in
  push "queries 4-5: peptide-hit/protein-hit join" [ 4; 5 ] it4b;
  let* it5 =
    Workflow.integrate ~description:"query 6: UPeptideHit probability" wf
      iteration_5
  in
  push "query 6: UPeptideHit probability" [ 6 ] it5;
  let steps = List.rev !steps in
  Ok
    {
      workflow = wf;
      steps;
      total_manual = List.fold_left (fun acc s -> acc + s.manual) 0 steps;
    }
