module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module D = Diagnostic

let label (p : Transform.pathway) =
  Printf.sprintf "%s -> %s" p.from_schema p.to_schema

let default_root repo =
  match List.rev (Repository.pathways repo) with
  | p :: _ -> Some p.Transform.to_schema
  | [] -> None

let endpoint_diags repo (p : Transform.pathway) =
  let name = label p in
  let missing side s =
    if Repository.mem_schema repo s then []
    else
      [
        D.make ~pathway:name D.Error ~rule:"endpoint-missing"
          "%s schema %s is not registered in the repository" side s;
      ]
  in
  missing "source" p.Transform.from_schema @ missing "target" p.Transform.to_schema

let pathway_diags repo (p : Transform.pathway) =
  match Repository.source_of repo p with
  | None -> []
  | Some src ->
      let name = label p in
      let ds = Pathway_lint.lint ~name src p in
      let mismatch =
        match Repository.schema repo p.Transform.to_schema with
        | None -> []
        | Some registered ->
            (* only meaningful when the steps themselves are clean *)
            if D.has_errors ds then []
            else
              let derived = Pathway_lint.final_state src p in
              if Repository.is_contribution repo p then
                (* contributions agree on a subset of the target *)
                if
                  List.for_all
                    (fun o -> Schema.mem o registered)
                    (Schema.objects derived)
                then []
                else
                  [
                    D.make ~pathway:name D.Error ~rule:"endpoint-mismatch"
                      "contribution derives object(s) that are not part of \
                       the registered schema %s"
                      p.Transform.to_schema;
                  ]
              else if Schema.same_objects derived registered then []
              else
                [
                  D.make ~pathway:name D.Error ~rule:"endpoint-mismatch"
                    "applying the pathway to %s yields %d object(s) that do \
                     not match the %d object(s) of the registered schema %s"
                    p.Transform.from_schema
                    (Schema.object_count derived)
                    (Schema.object_count registered)
                    p.Transform.to_schema;
                ]
      in
      ds @ mismatch

let pair_diags pathways =
  let rec go acc = function
    | [] -> List.rev acc
    | (p : Transform.pathway) :: rest ->
        let acc =
          List.fold_left
            (fun acc (q : Transform.pathway) ->
              let same_pair =
                p.from_schema = q.from_schema && p.to_schema = q.to_schema
              in
              let reverse_pair =
                p.from_schema = q.to_schema && p.to_schema = q.from_schema
              in
              if same_pair && p.steps = q.steps then
                D.make ~pathway:(label p) D.Warning ~rule:"duplicate-pathway"
                  "registered twice with identical steps"
                :: acc
              else if reverse_pair && (Transform.reverse p).steps = q.steps
              then
                D.make ~pathway:(label p) D.Warning ~rule:"duplicate-pathway"
                  "pathway %s is its automatic reverse: pathways are \
                   bidirectional, registering both is redundant"
                  (label q)
                :: acc
              else if same_pair || reverse_pair then
                D.make ~pathway:(label p) D.Warning ~rule:"conflicting-pathway"
                  "a structurally different pathway between the same schemas \
                   is also registered; query reformulation will use \
                   whichever the network search finds first"
                :: acc
              else acc)
            acc rest
        in
        go acc rest
  in
  go [] pathways

let reachability_diags ?root repo =
  let pathways = Repository.pathways repo in
  if pathways = [] then []
  else
    let root =
      match root with Some r -> Some r | None -> default_root repo
    in
    match root with
    | None -> []
    | Some root when not (Repository.mem_schema repo root) ->
        [
          D.make D.Error ~rule:"unreachable-schema"
            "root schema %s is not registered in the repository" root;
        ]
    | Some root ->
        let reached = Hashtbl.create 16 in
        Hashtbl.replace reached root ();
        let queue = Queue.create () in
        Queue.push root queue;
        while not (Queue.is_empty queue) do
          let here = Queue.pop queue in
          List.iter
            (fun (p : Transform.pathway) ->
              let visit s =
                if not (Hashtbl.mem reached s) then begin
                  Hashtbl.replace reached s ();
                  Queue.push s queue
                end
              in
              if p.from_schema = here then visit p.to_schema
              else if p.to_schema = here then visit p.from_schema)
            pathways
        done;
        List.filter_map
          (fun s ->
            let n = Schema.name s in
            if Hashtbl.mem reached n then None
            else
              Some
                (D.make D.Error ~rule:"unreachable-schema"
                   "schema %s is not reachable from %s through the pathway \
                    network: queries over it cannot be reformulated"
                   n root))
          (Repository.schemas repo)

(* A source whose stored extents no live definition chain carries up to
   the root schema is dead weight: replaying its pathways can never put
   a row into an answer over the root. *)
let source_reachability_diags ?root repo =
  if Repository.pathways repo = [] then []
  else
    match (match root with Some r -> Some r | None -> default_root repo) with
    | None -> []
    | Some root ->
        List.map
          (fun s ->
            D.make D.Warning ~rule:"unreachable-source"
              "source schema %s has materialised extents but no live \
               definition chain carries them to %s: its data can never \
               appear in an answer over the root"
              s root)
          (Reachability.unreachable_sources ~root repo)

(* Every schema with materialised extents is a data source whose fetches
   can fail at query time; without a resilience policy one flaky source
   fails global queries outright.  Only checked when the caller says
   which sources its resilience registry covers. *)
let resilience_diags ?covered repo =
  match covered with
  | None -> []
  | Some covered ->
      List.filter_map
        (fun s ->
          let n = Schema.name s in
          if Repository.has_stored_extents repo n && not (List.mem n covered)
          then
            Some
              (D.make D.Warning ~rule:"unprotected-source"
                 "source schema %s has materialised extents but no \
                  resilience policy: a fetch failure fails queries outright \
                  instead of degrading them"
                 n)
          else None)
        (Repository.schemas repo)

(* A workflow-built repository (recognisable by versioned global
   schemas) accumulates integration state worth keeping; running it with
   no write-ahead journal attached means a crash loses every iteration.
   Only checked when the caller says whether a durable handle exists. *)
let durability_diags ?journaled repo =
  let is_versioned n =
    match String.rindex_opt n '_' with
    | None -> false
    | Some i ->
        i + 1 < String.length n
        && n.[i + 1] = 'v'
        && i + 2 < String.length n
        && String.for_all
             (fun c -> c >= '0' && c <= '9')
             (String.sub n (i + 2) (String.length n - i - 2))
  in
  match journaled with
  | None | Some true -> []
  | Some false ->
      if
        List.exists
          (fun s -> is_versioned (Schema.name s))
          (Repository.schemas repo)
      then
        [
          D.make D.Warning ~rule:"unjournaled-repository"
            "repository holds workflow-built global schema versions but no \
             durable journal is attached: a crash silently loses the \
             integration history";
        ]
      else []

(* Schema evolution can strand a pathway (steps referencing dropped or
   renamed objects, or endpoint shapes that drifted apart) or leave a
   data-bearing pathway flowing from a source that evolved away.  Both
   have the same repair — quarantine via [lint --fix] — so both surface
   under dedicated rules. *)
let evolution_diags repo =
  List.concat_map
    (fun (p : Transform.pathway) ->
      let name = label p in
      let stranded =
        match Quarantine.check repo p with
        | None -> []
        | Some reason ->
            [
              D.make ~pathway:name D.Error ~rule:"stranded-pathway"
                "pathway was stranded by schema evolution (%s): quarantine \
                 it with [lint --fix] so it stops contributing"
                reason;
            ]
      in
      let retired =
        if
          Repository.retired repo p.Transform.from_schema
          && not (Quarantine.is_quarantined p)
        then
          [
            D.make ~pathway:name D.Error ~rule:"stranded-pathway"
              "source schema %s evolved away but this pathway still carries \
               its data: quarantine it with [lint --fix]"
              p.Transform.from_schema;
          ]
        else []
      in
      stranded @ retired)
    (Repository.pathways repo)

let lint ?root ?covered ?journaled repo =
  let pathways = Repository.pathways repo in
  List.concat_map (fun p -> endpoint_diags repo p @ pathway_diags repo p) pathways
  @ pair_diags pathways
  @ evolution_diags repo
  @ reachability_diags ?root repo
  @ source_reachability_diags ?root repo
  @ resilience_diags ?covered repo
  @ durability_diags ?journaled repo
