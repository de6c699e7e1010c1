module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Ast = Automed_iql.Ast
module Resilience = Automed_resilience.Resilience
module Telemetry = Automed_telemetry.Telemetry

let ( let* ) = Result.bind

let member_prefix ~member scheme = Scheme.prefix member scheme

let rec check_distinct = function
  | [] -> Ok ()
  | m :: rest ->
      if List.mem m rest then
        Error (Printf.sprintf "member %s listed twice" m)
      else check_distinct rest

let create repo ~name ~members =
  let* () = if members = [] then Error "no members" else Ok () in
  let* () = check_distinct members in
  let* () =
    if Repository.mem_schema repo name then
      Error (Printf.sprintf "schema %s already exists" name)
    else Ok ()
  in
  let* member_schemas =
    List.fold_left
      (fun acc m ->
        let* acc = acc in
        match Repository.schema repo m with
        | Some s -> Ok (s :: acc)
        | None -> Error (Printf.sprintf "member schema %s is not registered" m))
      (Ok []) members
  in
  let member_schemas = List.rev member_schemas in
  (* all objects of the federation, prefixed, with their extent types *)
  let all_objects =
    List.concat_map
      (fun s ->
        List.map
          (fun o ->
            (member_prefix ~member:(Schema.name s) o, Schema.extent_ty o s))
          (Schema.objects s))
      member_schemas
  in
  let pathway_for s =
    let m = Schema.name s in
    let renames =
      List.map
        (fun o -> Transform.Rename (o, member_prefix ~member:m o))
        (Schema.objects s)
    in
    let own =
      Scheme.Set.of_list
        (List.map (member_prefix ~member:m) (Schema.objects s))
    in
    let extends =
      List.filter_map
        (fun (o, _) ->
          if Scheme.Set.mem o own then None
          else Some (Transform.Extend (o, Ast.Void, Ast.Any)))
        all_objects
    in
    { Transform.from_schema = m; to_schema = name; steps = renames @ extends }
  in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        Repository.add_pathway repo (pathway_for s))
      (Ok ()) member_schemas
  in
  match Repository.schema repo name with
  | Some f -> Ok f
  | None -> Error "internal: federated schema not registered"

(* Degraded fan-out: members whose metadata fetch exhausts the resilience
   policy (or that are simply unregistered) are skipped instead of
   failing the federation, as long as at least one member survives.  The
   skipped members can be folded in later with a fresh federation once
   they recover — the dataspace stays queryable meanwhile. *)
let create_degraded ?resilience repo ~name ~members =
  let* () = if members = [] then Error "no members" else Ok () in
  let* () = check_distinct members in
  let probe m =
    let fetch () = Repository.schema repo m in
    match resilience with
    | Some r when Resilience.covers r m -> (
        match Resilience.call r ~source:m fetch with
        | Ok s -> Ok s
        | Error f -> Error (Fmt.str "%a" Resilience.pp_failure f))
    | _ -> Ok (fetch ())
  in
  let available, skipped =
    List.fold_left
      (fun (avail, skipped) m ->
        match probe m with
        | Ok (Some _) -> (m :: avail, skipped)
        | Ok None -> (avail, (m, "schema is not registered") :: skipped)
        | Error reason -> (avail, (m, reason) :: skipped))
      ([], []) members
  in
  let available = List.rev available and skipped = List.rev skipped in
  match available with
  | [] -> Error "no member is available"
  | _ ->
      List.iter (fun _ -> Telemetry.count "source.skipped") skipped;
      let* f = create repo ~name ~members:available in
      Ok (f, skipped)

(* Fan-out pruning: a member whose pathway into the federation gives a
   provably empty definition for every object the query references can
   be skipped without changing the answer.  The per-query counterpart of
   the processor's per-object pruning, useful for planning and
   reporting. *)
type member_verdict = Relevant of string | Irrelevant of string

let pp_member_verdict ppf = function
  | Relevant why -> Fmt.pf ppf "relevant (%s)" why
  | Irrelevant why -> Fmt.pf ppf "irrelevant (%s)" why

(* The explain-grade sibling of [relevant_members]: every member with
   its verdict and the reason, for the CLI's plan story. *)
let member_report repo ~federation q =
  if not (Repository.mem_schema repo federation) then
    Error (Printf.sprintf "schema %s is not registered" federation)
  else
    let refs = Ast.schemes q in
    let report =
      List.map
        (fun (p : Transform.pathway) ->
          let live =
            match Repository.source_of repo p with
            | None -> None
            | Some src ->
                Automed_analysis.Reachability.live_objects ~source:src p
          in
          let verdict =
            match live with
            | _ when Repository.retired repo p.from_schema ->
                (* retirement beats reachability: the member's extents
                   are gone for good, whatever its pathway could feed *)
                Irrelevant "evolved away (retired by schema evolution)"
            | None ->
                Relevant "pathway not analysable; conservatively kept"
            | Some live -> (
                match
                  Scheme.Set.choose_opt (Scheme.Set.inter refs live)
                with
                | Some o ->
                    Relevant
                      (Printf.sprintf "can feed %s" (Scheme.to_string o))
                | None ->
                    Irrelevant
                      "its definition of every referenced object is a \
                       provably empty lower bound")
          in
          (p.from_schema, verdict))
        (Repository.pathways_into repo federation)
    in
    Ok (List.sort_uniq compare report)

let relevant_members repo ~federation q =
  if not (Repository.mem_schema repo federation) then
    Error (Printf.sprintf "schema %s is not registered" federation)
  else
    let refs = Ast.schemes q in
    let members =
      List.filter_map
        (fun (p : Transform.pathway) ->
          let live =
            match Repository.source_of repo p with
            | None -> None
            | Some src ->
                Automed_analysis.Reachability.live_objects ~source:src p
          in
          match live with
          | _ when Repository.retired repo p.from_schema -> None
          | None -> Some p.from_schema (* unanalysable: assume relevant *)
          | Some live ->
              if Scheme.Set.exists (fun o -> Scheme.Set.mem o live) refs then
                Some p.from_schema
              else None)
        (Repository.pathways_into repo federation)
    in
    Ok (List.sort_uniq String.compare members)
