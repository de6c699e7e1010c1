module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Types = Automed_iql.Types
module Repository = Automed_repository.Repository
module Matcher = Automed_matching.Matcher

type entry = {
  entry_id : int;
  target : Scheme.t;
  source_schema : string;
  forward : Ast.expr;
  reverse : Ast.expr option;
  typed : bool;
}

type user_reverse = { ur_source : Scheme.t; ur_query : Ast.expr }

type session = {
  repo : Repository.t;
  name : string;
  sources : string list;
  mutable next_id : int;
  mutable items : entry list; (* newest first *)
  user_reverses : (int, user_reverse) Hashtbl.t;
}

let ( let* ) = Result.bind
let err fmt = Format.kasprintf (fun s -> Error s) fmt

let start repo ~name ~sources =
  let* () =
    if List.length sources < 1 then err "need at least one source" else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        if Repository.mem_schema repo s then Ok ()
        else err "source schema %s is not registered" s)
      (Ok ()) sources
  in
  Ok
    {
      repo;
      name;
      sources;
      next_id = 0;
      items = [];
      user_reverses = Hashtbl.create 8;
    }

let source_schema session source =
  if not (List.mem source session.sources) then
    err "%s is not one of this table's sources" source
  else
    match Repository.schema session.repo source with
    | Some s -> Ok s
    | None -> err "source schema %s vanished" source

let validate_refs sch forward =
  let missing =
    Scheme.Set.filter (fun o -> not (Schema.mem o sch)) (Ast.schemes forward)
  in
  if Scheme.Set.is_empty missing then Ok ()
  else
    err "query references %s absent from the source"
      (String.concat ", "
         (List.map Scheme.to_string (Scheme.Set.elements missing)))

let type_checks sch forward =
  match Types.infer ~schemes:(Schema.typing sch) forward with
  | Ok (Types.TBag _) -> true
  | Ok _ | Error _ -> false

let derive_reverse ~target ~forward =
  match (forward : Ast.expr) with
  | Ast.SchemeRef src | Ast.Comp (_, [ Ast.Gen (_, Ast.SchemeRef src) ]) ->
      Intersection.invert_forward ~target ~source:src forward
  | _ -> None

let mk_entry session ~target ~source ~forward ~typed =
  let entry =
    {
      entry_id = session.next_id;
      target;
      source_schema = source;
      forward;
      reverse = derive_reverse ~target ~forward;
      typed;
    }
  in
  session.next_id <- session.next_id + 1;
  session.items <- entry :: session.items;
  entry

let add_gen ~strict session ~target ~source ~forward =
  let* sch = source_schema session source in
  let* forward = Parser.parse forward in
  let* () = validate_refs sch forward in
  let typed = type_checks sch forward in
  let* () =
    if strict && not typed then
      err "the forward query for %s does not type-check (use add_unchecked \
           to force it)"
        (Scheme.to_string target)
    else Ok ()
  in
  let* () =
    if
      List.exists
        (fun e -> Scheme.equal e.target target && e.source_schema = source)
        session.items
    then err "a mapping for %s from %s already exists" (Scheme.to_string target) source
    else Ok ()
  in
  Ok (mk_entry session ~target ~source ~forward ~typed)

let add session ~target ~source ~forward =
  add_gen ~strict:true session ~target ~source ~forward

let add_unchecked session ~target ~source ~forward =
  add_gen ~strict:false session ~target ~source ~forward

let find session id =
  match List.find_opt (fun e -> e.entry_id = id) session.items with
  | Some e -> Ok e
  | None -> err "no entry %d" id

let edit session id ~forward =
  let* old = find session id in
  let* sch = source_schema session old.source_schema in
  let* forward = Parser.parse forward in
  let* () = validate_refs sch forward in
  let updated =
    {
      old with
      forward;
      typed = type_checks sch forward;
      reverse = derive_reverse ~target:old.target ~forward;
    }
  in
  session.items <-
    List.map (fun e -> if e.entry_id = id then updated else e) session.items;
  Ok updated

let set_reverse session id ~reverse ~source_object =
  let* entry = find session id in
  let* sch = source_schema session entry.source_schema in
  let* () =
    if Schema.mem source_object sch then Ok ()
    else
      err "%s is not an object of %s" (Scheme.to_string source_object)
        entry.source_schema
  in
  let* reverse = Parser.parse reverse in
  Hashtbl.replace session.user_reverses id
    { ur_source = source_object; ur_query = reverse };
  Ok ()

let remove session id =
  let* _ = find session id in
  session.items <- List.filter (fun e -> e.entry_id <> id) session.items;
  Hashtbl.remove session.user_reverses id;
  Ok ()

let entries session =
  List.sort (fun a b -> Int.compare a.entry_id b.entry_id) session.items

let prefill ?threshold session ~left ~right =
  let* () =
    if List.mem left session.sources && List.mem right session.sources then Ok ()
    else err "both %s and %s must be sources of this table" left right
  in
  let* suggestions = Matcher.suggest ?threshold session.repo ~left ~right in
  let added = ref [] in
  List.iter
    (fun (s : Matcher.suggestion) ->
      let base = List.nth (List.rev (Scheme.args s.Matcher.left)) 0 in
      let target =
        match Scheme.construct s.Matcher.left with
        | "table" -> Scheme.table ("U" ^ base)
        | _ -> Scheme.column ("U" ^ List.hd (Scheme.args s.Matcher.left)) base
      in
      let tagging source_schema (obj : Scheme.t) =
        match Scheme.args obj with
        | [ _t ] -> Printf.sprintf "[{'%s', k} | k <- %s]" source_schema
                      (Scheme.to_string obj)
        | _ -> Printf.sprintf "[{'%s', k, x} | {k,x} <- %s]" source_schema
                 (Scheme.to_string obj)
      in
      let try_add source obj =
        match
          add session ~target ~source ~forward:(tagging source obj)
        with
        | Ok e -> added := e :: !added
        | Error _ -> ()
      in
      try_add left s.Matcher.left;
      try_add right s.Matcher.right)
    suggestions;
  Ok (List.rev !added)

let side_of session source =
  let mappings =
    List.filter_map
      (fun e ->
        if e.source_schema = source then
          Some
            {
              Intersection.target = e.target;
              forward = e.forward;
              restore =
                (match Hashtbl.find_opt session.user_reverses e.entry_id with
                | Some { ur_source; ur_query } -> Some (ur_source, ur_query)
                | None -> None);
            }
        else None)
      (entries session)
  in
  { Intersection.schema = source; mappings }

let populated_sources session =
  List.filter
    (fun s -> List.exists (fun e -> e.source_schema = s) session.items)
    session.sources

let finish session =
  let populated = populated_sources session in
  if List.length populated < 2 then
    err "an intersection needs mappings from at least two sources (got %d)"
      (List.length populated)
  else
    Ok
      {
        Intersection.name = session.name;
        sides = List.map (side_of session) populated;
      }

let finish_single session =
  match populated_sources session with
  | [ source ] -> Ok (session.name, side_of session source)
  | l -> err "expected mappings from exactly one source, got %d" (List.length l)
