module Schema = Automed_model.Schema
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Ast = Automed_iql.Ast
module Matcher = Automed_matching.Matcher

type iteration = {
  index : int;
  description : string;
  outcome : Intersection.outcome;
  global_name : string;
}

type evolution = {
  ev_index : int;
  ev_description : string;
  ev_prev : string;
  ev_next : string;
  ev_sources_touched : string list;
}

type t = {
  repo : Repository.t;
  proc : Processor.t;
  base_name : string;
  mutable srcs : string list;
  durable : Automed_durable.Durable.t option;
  mutable iters : iteration list; (* newest first *)
  mutable version : int; (* of the current global schema *)
  mutable evols : evolution list; (* newest first *)
}

let ( let* ) = Result.bind

let version_name base i = Printf.sprintf "%s_v%d" base i

(* Journal appends land per mutation via the repository observer; after
   each workflow milestone we also flush the journal so a completed
   iteration survives a crash immediately after it. *)
let flush_journal t =
  match t.durable with
  | None -> Ok ()
  | Some d -> Automed_durable.Durable.sync d

let start ?resilience ?durable repo ~name ~sources =
  let* () =
    if sources = [] then Error "workflow needs at least one source" else Ok ()
  in
  let* () =
    match durable with
    | Some d when Automed_durable.Durable.repository d != repo ->
        Error "durable handle is attached to a different repository"
    | _ -> Ok ()
  in
  let* _g =
    Global.create repo ~name:(version_name name 0) ~intersections:[]
      ~extensionals:sources
  in
  let t =
    {
      repo;
      proc = Processor.create ?resilience repo;
      base_name = name;
      srcs = sources;
      durable;
      iters = [];
      version = 0;
      evols = [];
    }
  in
  let* () = flush_journal t in
  Ok t

let repository t = t.repo
let processor t = t.proc
let sources t = t.srcs

let global_name t = version_name t.base_name t.version
let version t = t.version

let global_schema t = Repository.schema_exn t.repo (global_name t)
let iterations t = List.rev t.iters

let all_outcomes t =
  List.rev_map (fun it -> it.outcome) t.iters |> List.rev

let record ?(description = "") t outcome ~drop_redundant =
  let index = List.length t.iters + 1 in
  let global = version_name t.base_name (t.version + 1) in
  let* _g =
    Global.create ~drop_redundant t.repo ~name:global
      ~intersections:(all_outcomes t @ [ outcome ])
      ~extensionals:t.srcs
  in
  let it = { index; description; outcome; global_name = global } in
  t.iters <- it :: t.iters;
  t.version <- t.version + 1;
  Processor.invalidate t.proc;
  let* () = flush_journal t in
  Ok it

(* -- live schema evolution ----------------------------------------------- *)

let evolutions t = List.rev t.evols

(* One evolution step: allocate the next global version name, run the
   caller's repair (which registers the delta-sized chain pathway from
   the previous version plus any contributions/quarantines — every
   mutation journals through the repository observer), then advance the
   version.  Invalidation is targeted: only cache entries tainted by the
   touched sources are dropped (Processor.invalidate_source), never the
   whole cache — untouched sources keep their cached extents, which is
   what makes re-querying after an evolution cost O(delta).  The journal
   is flushed before returning so a crash immediately after an evolution
   replays it completely. *)
let evolve_version ?(description = "") t ~sources_touched ~repair =
  let prev = version_name t.base_name t.version in
  let next = version_name t.base_name (t.version + 1) in
  let* () = repair ~prev ~next in
  let* () =
    if not (Repository.mem_schema t.repo next) then
      Error
        (Printf.sprintf "evolution repair did not register global version %s"
           next)
    else Ok ()
  in
  t.version <- t.version + 1;
  let ev =
    {
      ev_index = List.length t.evols + 1;
      ev_description = description;
      ev_prev = prev;
      ev_next = next;
      ev_sources_touched = sources_touched;
    }
  in
  t.evols <- ev :: t.evols;
  List.iter (Processor.invalidate_source t.proc) sources_touched;
  let* () = flush_journal t in
  Ok ev

let note_source_added t name =
  if not (List.mem name t.srcs) then t.srcs <- t.srcs @ [ name ]

let note_source_dropped t name =
  t.srcs <- List.filter (fun s -> s <> name) t.srcs

let integrate ?(drop_redundant = true) ?description t spec =
  let* outcome = Intersection.create t.repo spec in
  record ?description t outcome ~drop_redundant

let integrate_adhoc ?(drop_redundant = true) ?description t ~name side =
  let* outcome = Intersection.extend_single t.repo ~name side in
  record ?description t outcome ~drop_redundant

(* parses [text] and hands the query to a processor entry point posed
   against the current global schema *)
let on_global t text f =
  let schema = global_name t in
  match Parser.parse text with
  | Error e -> Error (Processor.error ~schema e)
  | Ok q -> f t.proc ~schema q

let run_query t text = on_global t text (Processor.run ?optimize:None)

let run_query_degraded t text =
  on_global t text (Processor.run_degraded ?optimize:None)

let run_query_provenance ?key t text =
  on_global t text (Processor.run_provenance ?optimize:None ?key)

let explain_query t text =
  on_global t text (Processor.explain_plan ?optimize:None)

let answerable t q = Processor.answerable t.proc ~schema:(global_name t) q

let manual_steps t =
  List.fold_left (fun acc it -> acc + it.outcome.Intersection.manual_steps) 0 t.iters

let auto_steps t =
  List.fold_left (fun acc it -> acc + it.outcome.Intersection.auto_steps) 0 t.iters

let suggestions ?threshold t ~left ~right =
  Matcher.suggest ?threshold t.repo ~left ~right
