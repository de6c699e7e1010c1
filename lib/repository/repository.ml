module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform
module Types = Automed_iql.Types
module Value = Automed_iql.Value
module Telemetry = Automed_telemetry.Telemetry
module SM = Map.Make (String)
module SSet = Set.Make (String)

type extent_key = string * Scheme.t

module EK = struct
  type t = extent_key

  let compare (s1, o1) (s2, o2) =
    match String.compare s1 s2 with 0 -> Scheme.compare o1 o2 | c -> c
end

module EM = Map.Make (EK)

type validator = Schema.t -> Transform.pathway -> (unit, string) result

type schema_alter =
  | Alter_add_object of Scheme.t * Types.ty option
  | Alter_drop_object of Scheme.t
  | Alter_rename_object of Scheme.t * Scheme.t

type op =
  | Op_add_schema of Schema.t
  | Op_add_pathway of Transform.pathway
  | Op_add_contribution of Transform.pathway
  | Op_replace_pathway of Transform.pathway * Transform.pathway
  | Op_set_extent of string * Scheme.t * Value.Bag.t
  | Op_remove_schema of string
  | Op_rename_schema of string * string
  | Op_alter_schema of string * schema_alter
  | Op_retire_source of string
  | Op_remove_pathway of Transform.pathway
  | Op_compact_pathway of
      Transform.pathway * Transform.pathway * Transform.pathway list

type t = {
  mutable schemas : Schema.t SM.t;
  mutable pathways : Transform.pathway list; (* reverse insertion order *)
  mutable contribs : Transform.pathway list; (* subset of pathways *)
  mutable retired : SSet.t;
  mutable extents : Value.Bag.t EM.t;
  mutable validator : validator option;
  mutable observer : (op -> unit) option;
}

let create () =
  {
    schemas = SM.empty;
    pathways = [];
    contribs = [];
    retired = SSet.empty;
    extents = EM.empty;
    validator = None;
    observer = None;
  }

let set_validator t v = t.validator <- v
let validator t = t.validator
let set_observer t f = t.observer <- f
let observed t = Option.is_some t.observer
let notify t op = match t.observer with Some f -> f op | None -> ()

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let add_schema t s =
  let name = Schema.name s in
  if SM.mem name t.schemas then err "repository already has schema %s" name
  else begin
    t.schemas <- SM.add name s t.schemas;
    notify t (Op_add_schema s);
    Ok ()
  end

let schema t name = SM.find_opt name t.schemas

let schema_exn t name =
  match schema t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "no schema %s in repository" name)

let mem_schema t name = SM.mem name t.schemas
let schemas t = SM.bindings t.schemas |> List.map snd

let remove_schema t name =
  if not (SM.mem name t.schemas) then err "no schema %s" name
  else if
    List.exists
      (fun (p : Transform.pathway) ->
        p.from_schema = name || p.to_schema = name)
      t.pathways
  then err "schema %s is still referenced by a pathway" name
  else begin
    t.schemas <- SM.remove name t.schemas;
    t.extents <- EM.filter (fun (s, _) _ -> s <> name) t.extents;
    t.retired <- SSet.remove name t.retired;
    notify t (Op_remove_schema name);
    Ok ()
  end

let rename_schema t name new_name =
  match SM.find_opt name t.schemas with
  | None -> err "no schema %s" name
  | Some _ when name = new_name -> Ok ()
  | Some s ->
      if SM.mem new_name t.schemas then
        err "repository already has schema %s" new_name
      else if
        List.exists
          (fun (p : Transform.pathway) ->
            p.from_schema = name || p.to_schema = name)
          t.pathways
      then err "schema %s is still referenced by a pathway" name
      else begin
        t.schemas <- SM.add new_name (Schema.rename new_name s) (SM.remove name t.schemas);
        t.extents <-
          EM.fold
            (fun (s', o) bag acc ->
              EM.add ((if s' = name then new_name else s'), o) bag acc)
            t.extents EM.empty;
        if SSet.mem name t.retired then
          t.retired <- SSet.add new_name (SSet.remove name t.retired);
        notify t (Op_rename_schema (name, new_name));
        Ok ()
      end

let is_contribution t p =
  List.exists (fun q -> q == p) t.contribs
  || List.exists (fun q -> q = p) t.contribs

let contributions t = List.rev t.contribs

(* A contribution reads only the part of its source that its steps
   name: every other source object is implicitly contracted with
   [(Void, Any)].  This is the source-side twin of the subset rule on
   the target, and it keeps an evolution's contribution delta-sized
   when the source later grows. *)
let source_of ?contribution t (p : Transform.pathway) =
  let contribution =
    match contribution with Some c -> c | None -> is_contribution t p
  in
  match schema t p.from_schema with
  | Some src when contribution ->
      let named =
        List.fold_left
          (fun acc st -> Scheme.Set.union acc (Transform.footprint st))
          Scheme.Set.empty p.steps
      in
      Some (Schema.restrict named src)
  | src -> src

(* The admission checks of every checked registration, over the source
   as [source_of] reads it: well-formedness, the validation gate, and
   agreement with the registered target if there is one — exact for a
   full pathway, a subset for a contribution.  Returns the derived
   schema. *)
let admit ~contribution t (p : Transform.pathway) =
  match source_of ~contribution t p with
  | None -> err "pathway source schema %s is not registered" p.from_schema
  | Some src -> (
      let* () = Transform.well_formed src p in
      let* () = match t.validator with None -> Ok () | Some f -> f src p in
      let* derived = Transform.apply src p in
      match schema t p.to_schema with
      | None -> Ok derived
      | Some target when Schema.same_objects target derived -> Ok derived
      | Some target -> (
          match
            List.find_opt
              (fun o -> not (Schema.mem o target))
              (Schema.objects derived)
          with
          | Some o ->
              err "pathway %s -> %s derives %s, which the registered %s \
                   does not contain"
                p.from_schema p.to_schema (Scheme.to_string o) p.to_schema
          | None when contribution -> Ok derived
          | None ->
              err "pathway %s -> %s does not derive every object of the \
                   registered %s"
                p.from_schema p.to_schema p.to_schema))

(* [l] with its first structural match of [old] replaced by [by], or
   dropped when [by] is [None]: the network-search order is kept *)
let rec swap_first old by = function
  | [] -> []
  | q :: rest when q = old -> Option.to_list by @ rest
  | q :: rest -> q :: swap_first old by rest

let add_pathway t (p : Transform.pathway) =
  let* derived = admit ~contribution:false t p in
  if not (mem_schema t p.to_schema) then
    t.schemas <- SM.add p.to_schema derived t.schemas;
  t.pathways <- p :: t.pathways;
  Telemetry.count "repository.pathways_registered";
  notify t (Op_add_pathway p);
  Ok ()

(* A contribution feeds a subset of an existing schema's objects from
   the subset of its source that it names.  This is the delta-sized way
   to wire an evolved-in source into an already-built global schema —
   a full pathway would have to extend every other object of the
   target and contract every other object of the source, both
   proportional to repository size. *)
let add_contribution t (p : Transform.pathway) =
  if not (mem_schema t p.to_schema) then
    err "contribution target schema %s is not registered" p.to_schema
  else
    let* _ = admit ~contribution:true t p in
    t.pathways <- p :: t.pathways;
    t.contribs <- p :: t.contribs;
    Telemetry.count "repository.contributions_registered";
    notify t (Op_add_contribution p);
    Ok ()

let replace_pathway t ~old:(p_old : Transform.pathway) (p_new : Transform.pathway) =
  if
    p_old.from_schema <> p_new.from_schema || p_old.to_schema <> p_new.to_schema
  then
    err "replacement pathway must keep the endpoints %s -> %s"
      p_old.from_schema p_old.to_schema
  else if not (List.exists (fun q -> q = p_old) t.pathways) then
    err "no pathway %s -> %s with these steps is registered" p_old.from_schema
      p_old.to_schema
  else if not (mem_schema t p_new.to_schema) then
    err "pathway target schema %s vanished" p_new.to_schema
  else
    (* a replaced contribution stays one, with the weaker agreement *)
    let contribution = is_contribution t p_old in
    let* _ = admit ~contribution t p_new in
    t.pathways <- swap_first p_old (Some p_new) t.pathways;
    if contribution then t.contribs <- swap_first p_old (Some p_new) t.contribs;
    Telemetry.count "repository.pathways_replaced";
    notify t (Op_replace_pathway (p_old, p_new));
    Ok ()

(* Certified removal: the repository only checks registration — the
   caller (maintenance reclamation) holds the semantic certificate that
   the pathway contributes nothing (Quarantine.is_inert), so removal
   preserves every answer.  The first structural match goes, mirroring
   replace_pathway. *)
let remove_pathway t (p : Transform.pathway) =
  if not (List.exists (fun q -> q = p) t.pathways) then
    err "no pathway %s -> %s with these steps is registered" p.from_schema
      p.to_schema
  else begin
    t.pathways <- swap_first p None t.pathways;
    t.contribs <- swap_first p None t.contribs;
    Telemetry.count "repository.pathways_removed";
    notify t (Op_remove_pathway p);
    Ok ()
  end

(* One atomic chain-compaction transaction: swap [retired] for
   [shortcut] in place and append the rerouted contributions, all under
   a single observer notification.  Atomicity matters because bag union
   is additive: applying the swap and the reroutes as separate journaled
   ops would leave boundaries where the target schema's derivation
   under- or double-counts multiplicities.  All admission checks run
   before any mutation, so a failing check leaves the state untouched. *)
let compact_chain t ~retired:(p_ret : Transform.pathway)
    ~shortcut:(p_new : Transform.pathway) ~reroutes =
  if p_ret.to_schema <> p_new.to_schema then
    err "compaction shortcut must keep the target %s" p_ret.to_schema
  else if not (List.exists (fun q -> q = p_ret) t.pathways) then
    err "no pathway %s -> %s with these steps is registered" p_ret.from_schema
      p_ret.to_schema
  else if is_contribution t p_ret then
    err "pathway %s -> %s is a contribution, not a chain link"
      p_ret.from_schema p_ret.to_schema
  else if not (mem_schema t p_new.to_schema) then
    err "compaction target schema %s vanished" p_new.to_schema
  else
    let* _ = admit ~contribution:false t p_new in
    let* () =
      List.fold_left
        (fun acc (r : Transform.pathway) ->
          let* () = acc in
          if r.to_schema <> p_new.to_schema then
            err "rerouted contribution %s -> %s does not feed the compacted \
                 version %s"
              r.from_schema r.to_schema p_new.to_schema
          else Result.map ignore (admit ~contribution:true t r))
        (Ok ()) reroutes
    in
    t.pathways <- swap_first p_ret (Some p_new) t.pathways;
    (* pathways are held newest-first *)
    t.pathways <- List.rev_append reroutes t.pathways;
    t.contribs <- List.rev_append reroutes t.contribs;
    Telemetry.count "repository.chains_compacted";
    notify t (Op_compact_pathway (p_ret, p_new, reroutes));
    Ok ()

(* Trusted registration for state loading.  A saved state records
   pathways that were live when it was written — including ones a raw
   {!alter_schema} had already stranded (the [stranded-pathway] lint
   repairs those after recovery).  Re-running replay validation here
   would turn such a checkpoint into a hard load error, losing the whole
   store, so only the endpoints are required to exist. *)
let restore_pathway t ~contribution (p : Transform.pathway) =
  match (schema t p.from_schema, schema t p.to_schema) with
  | None, _ -> err "pathway source schema %s is not registered" p.from_schema
  | _, None -> err "pathway target schema %s is not registered" p.to_schema
  | Some _, Some _ ->
      t.pathways <- p :: t.pathways;
      if contribution then t.contribs <- p :: t.contribs;
      Telemetry.count "repository.pathways_restored";
      notify t
        (if contribution then Op_add_contribution p else Op_add_pathway p);
      Ok ()

let derive_schema t p =
  let* () = add_pathway t p in
  match schema t p.to_schema with
  | Some s -> Ok s
  | None -> err "internal: schema %s vanished" p.to_schema

let pathways t = List.rev t.pathways

let pathways_from t name =
  List.rev
    (List.filter (fun (p : Transform.pathway) -> p.from_schema = name) t.pathways)

let pathways_into t name =
  List.rev
    (List.filter (fun (p : Transform.pathway) -> p.to_schema = name) t.pathways)

let find_path t ~src ~dst =
  Telemetry.with_span "repository.find_path"
    ~attrs:(fun () -> [ ("src", src); ("dst", dst) ])
  @@ fun () ->
  if not (mem_schema t src) then err "no schema %s" src
  else if not (mem_schema t dst) then err "no schema %s" dst
  else if src = dst then
    Ok { Transform.from_schema = src; to_schema = dst; steps = [] }
  else begin
    (* BFS over schemas; each stored pathway is an edge in both directions *)
    let edges = pathways t in
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited src ();
    let queue = Queue.create () in
    Queue.push (src, []) queue;
    let result = ref None in
    while !result = None && not (Queue.is_empty queue) do
      let here, acc = Queue.pop queue in
      Telemetry.count "repository.find_path.nodes_expanded";
      let step (p : Transform.pathway) =
        if !result = None && not (Hashtbl.mem visited p.to_schema) then begin
          let acc = p :: acc in
          if p.to_schema = dst then result := Some (List.rev acc)
          else begin
            Hashtbl.replace visited p.to_schema ();
            Queue.push (p.to_schema, acc) queue
          end
        end
      in
      List.iter
        (fun (p : Transform.pathway) ->
          if p.from_schema = here then step p
          else if p.to_schema = here then step (Transform.reverse p))
        edges
    done;
    match !result with
    | None -> err "no pathway from %s to %s" src dst
    | Some [] -> assert false
    | Some (first :: rest) ->
        let composed =
          List.fold_left
            (fun acc p ->
              let* acc = acc in
              Transform.compose acc p)
            (Ok first) rest
        in
        (if Telemetry.active () then
           match composed with
           | Ok (p : Transform.pathway) ->
               let len = List.length p.steps in
               Telemetry.observe "repository.find_path.path_length"
                 (float_of_int len);
               Telemetry.annotate "path_length" (string_of_int len);
               Telemetry.annotate "hops" (string_of_int (1 + List.length rest))
           | Error _ -> ());
        composed
  end

let set_extent t ~schema:name obj bag =
  match schema t name with
  | None -> err "no schema %s" name
  | Some s ->
      if not (Schema.mem obj s) then
        err "schema %s has no object %s" name (Scheme.to_string obj)
      else begin
        t.extents <- EM.add (name, obj) bag t.extents;
        notify t (Op_set_extent (name, obj, bag));
        Ok ()
      end

(* Unlike [remove_schema]/[rename_schema], altering is allowed while
   pathways still reference the schema: that is exactly the live-evolution
   scenario.  Pathways stranded by the change are the evolution layer's
   (and the linter's stranded-pathway rule's) responsibility to repair. *)
let alter_schema t name alter =
  match schema t name with
  | None -> err "no schema %s" name
  | Some s ->
      let* s' =
        match alter with
        | Alter_add_object (o, extent_ty) -> Schema.add_object ?extent_ty o s
        | Alter_drop_object o -> Schema.remove_object o s
        | Alter_rename_object (a, b) -> Schema.rename_object a b s
      in
      t.schemas <- SM.add name s' t.schemas;
      (match alter with
      | Alter_add_object _ -> ()
      | Alter_drop_object o -> t.extents <- EM.remove (name, o) t.extents
      | Alter_rename_object (a, b) -> (
          match EM.find_opt (name, a) t.extents with
          | None -> ()
          | Some bag ->
              t.extents <- EM.add (name, b) bag (EM.remove (name, a) t.extents)));
      Telemetry.count "repository.schemas_altered";
      notify t (Op_alter_schema (name, alter));
      Ok ()

(* Retiring tombstones an evolved-away source: the schema and its
   pathways stay (so old global-schema versions remain well-defined and
   the network keeps its shape) but the stored extents are dropped and
   the processor refuses to fetch from it — in degraded mode the refusal
   becomes an "evolved away" skip marker rather than a fault. *)
let retire_source t name =
  if not (SM.mem name t.schemas) then err "no schema %s" name
  else if SSet.mem name t.retired then err "schema %s is already retired" name
  else begin
    t.retired <- SSet.add name t.retired;
    t.extents <- EM.filter (fun (s, _) _ -> s <> name) t.extents;
    Telemetry.count "repository.sources_retired";
    notify t (Op_retire_source name);
    Ok ()
  end

let retired t name = SSet.mem name t.retired
let retired_sources t = SSet.elements t.retired

let stored_extent t ~schema:name obj = EM.find_opt (name, obj) t.extents

let has_stored_extents t name =
  EM.exists (fun (s, _) _ -> s = name) t.extents

let stored_extent_count t = EM.cardinal t.extents

let stored_row_count t =
  EM.fold (fun _ bag acc -> acc + Value.Bag.cardinal bag) t.extents 0

let pp_summary ppf t =
  Fmt.pf ppf "@[<v>schemas: %a@,pathways: %a@,stored extents: %d@]"
    Fmt.(list ~sep:(any ", ") string)
    (List.map Schema.name (schemas t))
    Fmt.(
      list ~sep:(any ", ") (fun ppf (p : Transform.pathway) ->
          Fmt.pf ppf "%s->%s" p.from_schema p.to_schema))
    (pathways t) (EM.cardinal t.extents)
