module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Telemetry = Automed_telemetry.Telemetry
module D = Diagnostic

let lint_pathway = Pathway_lint.lint

let lint_repository ?root ?covered ?journaled repo =
  Telemetry.with_span "analysis.lint_repository" @@ fun () ->
  let diags =
    List.stable_sort D.compare
      (Network_lint.lint ?root ?covered ?journaled repo)
  in
  (if Telemetry.active () then begin
     let e, w, i = D.count diags in
     Telemetry.count ~by:e "lint.diagnostics.error";
     Telemetry.count ~by:w "lint.diagnostics.warning";
     Telemetry.count ~by:i "lint.diagnostics.info"
   end);
  diags

let gate_validator src p =
  match D.errors (Pathway_lint.lint src p) with
  | [] -> Ok ()
  | errors ->
      Error
        (Printf.sprintf "rejected by the pathway linter: %s"
           (String.concat "; "
              (List.map (fun d -> Fmt.str "%a" D.pp d) errors)))

let install_gate repo = Repository.set_validator repo (Some gate_validator)
let remove_gate repo = Repository.set_validator repo None

(* -- proof-checked simplification ---------------------------------------- *)

type simplification =
  [ `Unchanged
  | `Simplified of Rewrite.outcome * Equiv.certificate
  | `Refused of Rewrite.outcome * string ]

let simplify_certified ?seed ?trials src p : simplification =
  let o = Rewrite.simplify src p in
  if o.Rewrite.applications = [] then `Unchanged
  else
    match
      Equiv.check ?seed ?trials src ~original:p ~candidate:o.Rewrite.pathway
    with
    | Ok cert ->
        Telemetry.count "analysis.rewrites_certified";
        `Simplified (o, cert)
    | Error reason ->
        Telemetry.count "analysis.rewrites_refused";
        `Refused (o, reason)

(* A stored pathway is simplified over the source it reads; a
   contribution must also go on naming the same source objects, or
   storing the rewrite would change what it reads (an [id o o] step, say,
   is all that keeps [o]). *)
let simplify_stored ?seed ?trials repo p =
  Option.map
    (fun src ->
      match simplify_certified ?seed ?trials src p with
      | `Simplified (o, _)
        when not
               (Option.fold ~none:false ~some:(Schema.same_objects src)
                  (Repository.source_of
                     ~contribution:(Repository.is_contribution repo p)
                     repo o.Rewrite.pathway)) ->
          `Refused (o, "the rewrite changes the source objects it names")
      | s -> s)
    (Repository.source_of repo p)

type fix = {
  pathway : string;
  steps_before : int;
  steps_after : int;
  applications : Rewrite.application list;
  quarantined : bool;
  applied : (unit, string) result;
}

let fix_repository ?seed ?trials repo =
  Telemetry.with_span "analysis.fix_repository" @@ fun () ->
  (* Quarantine pass first: stranded pathways (and data-bearing pathways
     from evolved-away sources) are replaced by their universal
     quarantine shape before the simplification pass looks at anything,
     so the rewriter never reasons over steps that cannot replay. *)
  let quarantine_fixes =
    List.filter_map
      (fun (p : Transform.pathway) ->
        let label = Printf.sprintf "%s -> %s" p.from_schema p.to_schema in
        let needs =
          Quarantine.is_stranded repo p
          || Repository.retired repo p.from_schema
             && not (Quarantine.is_quarantined p)
        in
        if not needs then None
        else
          let applied, steps_after =
            match Quarantine.quarantine repo p with
            | Ok p' -> (Ok (), List.length p'.Transform.steps)
            | Error e -> (Error e, List.length p.steps)
          in
          if applied = Ok () then Telemetry.count "analysis.fixes_applied";
          Some
            {
              pathway = label;
              steps_before = List.length p.steps;
              steps_after;
              applications = [];
              quarantined = true;
              applied;
            })
      (Repository.pathways repo)
  in
  quarantine_fixes
  @ List.filter_map
    (fun (p : Transform.pathway) ->
      let fix (o : Rewrite.outcome) applied =
        Some
          {
            pathway = Printf.sprintf "%s -> %s" p.from_schema p.to_schema;
            steps_before = List.length p.steps;
            steps_after = List.length o.Rewrite.pathway.Transform.steps;
            applications = o.Rewrite.applications;
            quarantined = false;
            applied;
          }
      in
      match simplify_stored ?seed ?trials repo p with
      | None | Some `Unchanged -> None
      | Some (`Simplified (o, _cert)) ->
          let applied =
            Repository.replace_pathway repo ~old:p o.Rewrite.pathway
          in
          if applied = Ok () then Telemetry.count "analysis.fixes_applied";
          fix o applied
      | Some (`Refused (o, reason)) ->
          fix o (Error ("rewrite not certified: " ^ reason)))
    (Repository.pathways repo)
