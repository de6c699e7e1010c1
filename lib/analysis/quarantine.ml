module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Telemetry = Automed_telemetry.Telemetry

(* A pathway is {e stranded} when replaying it against the current
   repository can no longer work: schema evolution dropped or renamed
   objects its steps reference, or changed the endpoint schemas so the
   derived object set no longer agrees with the registered target.
   Stranded pathways are repaired by {e quarantine}: replacing the steps
   with the universal shape that contracts every current source object
   and extends every target object with a [Void] lower bound — the
   pathway stays in the network (old global versions remain well-defined
   and the id keeps resolving), but it contributes nothing and never
   fetches its source. *)

let check repo (p : Transform.pathway) =
  match
    (Repository.source_of repo p, Repository.schema repo p.to_schema)
  with
  | None, _ -> Some ("source schema " ^ p.from_schema ^ " is not registered")
  | _, None -> Some ("target schema " ^ p.to_schema ^ " is not registered")
  | Some src, Some tgt -> (
      match Transform.apply src p with
      | Error e -> Some ("steps no longer replay: " ^ e)
      | Ok derived ->
          if Repository.is_contribution repo p then
            if
              List.for_all
                (fun o -> Schema.mem o tgt)
                (Schema.objects derived)
            then None
            else
              Some
                "contribution derives objects absent from the evolved target"
          else if Schema.same_objects derived tgt then None
          else
            Some
              (Printf.sprintf
                 "derived object set (%d objects) no longer matches the \
                  registered target %s (%d objects)"
                 (Schema.object_count derived) p.to_schema
                 (Schema.object_count tgt)))

let is_stranded repo p = check repo p <> None

(* Quarantined steps are recognisable by shape: nothing but [Void]-bound
   contracts and extends, so the pathway provably contributes nothing. *)
let is_void_degraded_step = function
  | Transform.Contract (_, Ast.Void, _) | Transform.Extend (_, Ast.Void, _) ->
      true
  | _ -> false

let is_quarantined (p : Transform.pathway) =
  p.steps <> [] && List.for_all is_void_degraded_step p.steps

(* The strong certificate behind certified pathway removal: all steps
   are [Void]-bound (no definition carries information) and every source
   object is contracted (no object passes through with an identity
   definition, as it does in the extends-only federation shape).  Every
   derived definition is therefore the empty [Void] contribution and
   removing the pathway cannot change any answer. *)
let is_inert repo (p : Transform.pathway) =
  is_quarantined p
  &&
  match Repository.source_of repo p with
  | None -> false
  | Some src ->
      let contracted =
        List.filter_map
          (function Transform.Contract (o, _, _) -> Some o | _ -> None)
          p.steps
        |> Scheme.Set.of_list
      in
      List.for_all
        (fun o -> Scheme.Set.mem o contracted)
        (Schema.objects src)

let quarantined_steps repo (p : Transform.pathway) =
  let src = Repository.schema_exn repo p.from_schema in
  let tgt = Repository.schema_exn repo p.to_schema in
  List.map
    (fun o -> Transform.Contract (o, Ast.Void, Ast.Any))
    (Schema.objects src)
  @ List.map
      (fun o -> Transform.Extend (o, Ast.Void, Ast.Any))
      (Schema.objects tgt)

let quarantine repo (p : Transform.pathway) =
  let p' = { p with Transform.steps = quarantined_steps repo p } in
  match Repository.replace_pathway repo ~old:p p' with
  | Ok () ->
      Telemetry.count "analysis.pathways_quarantined";
      Ok p'
  | Error e -> Error e
