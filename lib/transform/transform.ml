module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Types = Automed_iql.Types
module Telemetry = Automed_telemetry.Telemetry

type query = Ast.expr

type prim =
  | Add of Scheme.t * query
  | Delete of Scheme.t * query
  | Extend of Scheme.t * query * query
  | Contract of Scheme.t * query * query
  | Rename of Scheme.t * Scheme.t
  | Id of Scheme.t * Scheme.t

type pathway = { from_schema : string; to_schema : string; steps : prim list }

let prim_scheme = function
  | Add (s, _) | Delete (s, _) | Extend (s, _, _) | Contract (s, _, _) -> s
  | Rename (s, _) | Id (s, _) -> s

let footprint = function
  | Add (s, q) | Delete (s, q) -> Scheme.Set.add s (Ast.schemes q)
  | Extend (s, ql, qu) | Contract (s, ql, qu) ->
      Scheme.Set.add s (Scheme.Set.union (Ast.schemes ql) (Ast.schemes qu))
  | Rename (a, b) | Id (a, b) -> Scheme.Set.of_list [ a; b ]

let prim_kind = function
  | Add _ -> "add"
  | Delete _ -> "delete"
  | Extend _ -> "extend"
  | Contract _ -> "contract"
  | Rename _ -> "rename"
  | Id _ -> "id"

let reverse_prim = function
  | Add (s, q) -> Delete (s, q)
  | Delete (s, q) -> Add (s, q)
  | Extend (s, ql, qu) -> Contract (s, ql, qu)
  | Contract (s, ql, qu) -> Extend (s, ql, qu)
  | Rename (a, b) -> Rename (b, a)
  | Id (a, b) -> Id (b, a)

let reverse p =
  {
    from_schema = p.to_schema;
    to_schema = p.from_schema;
    steps = List.rev_map reverse_prim p.steps;
  }

let is_trivial = function
  | Extend (_, Ast.Void, Ast.Any) | Contract (_, Ast.Void, Ast.Any) -> true
  | Id _ -> true
  | Add _ | Delete _ | Extend _ | Contract _ | Rename _ -> false

let is_manual = function
  | Rename _ | Id _ -> false
  | p -> not (is_trivial p)

let count_non_trivial p =
  List.length (List.filter is_manual p.steps)

let ( let* ) = Result.bind

let rec contains_var = function
  | Types.TVar _ -> true
  | Types.TTuple ts -> List.exists contains_var ts
  | Types.TBag t -> contains_var t
  | Types.TUnit | Types.TBool | Types.TInt | Types.TFloat | Types.TStr -> false

let infer_extent_ty schema q =
  match Types.infer ~schemes:(Schema.typing schema) q with
  | Ok (Types.TBag _ as t) when not (contains_var t) -> Some t
  | Ok _ | Error _ -> None

(* static strings: a no-sink probe stays a single branch, no allocation *)
let prim_counter = function
  | Add _ -> "transform.prim.add"
  | Delete _ -> "transform.prim.delete"
  | Extend _ -> "transform.prim.extend"
  | Contract _ -> "transform.prim.contract"
  | Rename _ -> "transform.prim.rename"
  | Id _ -> "transform.prim.id"

let apply_prim schema prim =
  Telemetry.count (prim_counter prim);
  let result =
    match prim with
    | Add (s, q) ->
        Schema.add_object ?extent_ty:(infer_extent_ty schema q) s schema
    | Extend (s, ql, _) ->
        Schema.add_object ?extent_ty:(infer_extent_ty schema ql) s schema
    | Delete (s, _) | Contract (s, _, _) -> Schema.remove_object s schema
    | Rename (a, b) -> Schema.rename_object a b schema
    | Id (a, _) ->
        if Schema.mem a schema then Ok schema
        else
          Error
            (Printf.sprintf "schema %s has no object %s" (Schema.name schema)
               (Scheme.to_string a))
  in
  Result.map_error
    (fun e ->
      Printf.sprintf "%s %s: %s" (prim_kind prim)
        (Scheme.to_string (prim_scheme prim))
        e)
    result

let fold_steps schema p f =
  let* final, _ =
    List.fold_left
      (fun acc prim ->
        let* s, i = acc in
        match f s prim with
        | Ok s' -> Ok (s', i + 1)
        | Error e ->
            Error
              (Printf.sprintf "pathway %s -> %s, step %d: %s" p.from_schema
                 p.to_schema i e))
      (Ok (schema, 1))
      p.steps
  in
  Ok final

let apply schema p =
  Telemetry.with_span "transform.apply"
    ~attrs:(fun () ->
      [
        ("pathway", p.from_schema ^ " -> " ^ p.to_schema);
        ("steps", string_of_int (List.length p.steps));
      ])
    (fun () ->
      let* s = fold_steps schema p apply_prim in
      Ok (Schema.rename p.to_schema s))

(* A query attached to a step may only mention objects present in the
   schema it is stated over: the pre-schema for add/extend, the
   post-schema for delete/contract. *)
let check_query_refs side schema q =
  let missing =
    Scheme.Set.filter (fun s -> not (Schema.mem s schema)) (Ast.schemes q)
  in
  if Scheme.Set.is_empty missing then Ok ()
  else
    Error
      (Printf.sprintf "query %s references %s absent from the %s schema"
         (Ast.to_string q)
         (String.concat ", "
            (List.map Scheme.to_string (Scheme.Set.elements missing)))
         side)

let well_formed schema p =
  let check_prim pre prim =
    let* post = apply_prim pre prim in
    let* () =
      match prim with
      | Add (_, q) | Extend (_, q, _) -> check_query_refs "pre" pre q
      | Delete (_, q) | Contract (_, q, _) -> check_query_refs "post" post q
      | Rename _ | Id _ -> Ok ()
    in
    let* () =
      match prim with
      | Extend (_, _, qu) | Contract (_, _, qu) -> (
          match qu with
          | Ast.Any -> Ok ()
          | q -> check_query_refs "bound" (match prim with
                   | Extend _ -> pre
                   | _ -> post) q)
      | _ -> Ok ()
    in
    Ok post
  in
  let* _final = fold_steps schema p check_prim in
  Ok ()

let ident s1 s2 =
  if not (Schema.same_objects s1 s2) then
    Error
      (Printf.sprintf "ident: schemas %s and %s are not syntactically identical"
         (Schema.name s1) (Schema.name s2))
  else
    Ok
      {
        from_schema = Schema.name s1;
        to_schema = Schema.name s2;
        steps = List.map (fun o -> Id (o, o)) (Schema.objects s1);
      }

let compose p q =
  if p.to_schema <> q.from_schema then
    Error
      (Printf.sprintf "cannot compose pathway to %s with pathway from %s"
         p.to_schema q.from_schema)
  else
    Ok
      {
        from_schema = p.from_schema;
        to_schema = q.to_schema;
        steps = p.steps @ q.steps;
      }

type shape = {
  renames : (Scheme.t * Scheme.t) list;
  adds : (Scheme.t * query) list;
  extends : Scheme.t list;
  deletes : (Scheme.t * query) list;
  contracts : Scheme.t list;
  ids : (Scheme.t * Scheme.t) list;
}

let intersection_shape p =
  let rec take_renames acc = function
    | Rename (a, b) :: rest -> take_renames ((a, b) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec take_adds adds extends = function
    | Add (s, q) :: rest -> take_adds ((s, q) :: adds) extends rest
    | Extend (s, Ast.Void, Ast.Any) :: rest ->
        take_adds adds (s :: extends) rest
    | rest -> (List.rev adds, List.rev extends, rest)
  in
  let rec take_deletes acc = function
    | Delete (s, q) :: rest -> take_deletes ((s, q) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec take_contracts acc = function
    | Contract (s, Ast.Void, Ast.Any) :: rest -> take_contracts (s :: acc) rest
    | (Contract (s, _, _) :: _) as rest ->
        ( List.rev acc,
          rest,
          Some
            (Printf.sprintf "contract of %s must carry Range Void Any"
               (Scheme.to_string s)) )
    | rest -> (List.rev acc, rest, None)
  in
  let rec take_ids acc = function
    | Id (a, b) :: rest -> take_ids ((a, b) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let renames, rest = take_renames [] p.steps in
  let adds, extends, rest = take_adds [] [] rest in
  let deletes, rest = take_deletes [] rest in
  let contracts, rest, contract_err = take_contracts [] rest in
  match contract_err with
  | Some e -> Error e
  | None -> (
      let ids, rest = take_ids [] rest in
      match rest with
      | [] -> Ok { renames; adds; extends; deletes; contracts; ids }
      | prim :: _ ->
          Error
            (Printf.sprintf
               "pathway %s -> %s is not in intersection form: unexpected step \
                on %s"
               p.from_schema p.to_schema
               (Scheme.to_string (prim_scheme prim))))

let pp_prim ppf = function
  | Add (s, q) -> Fmt.pf ppf "add %a %a" Scheme.pp s Ast.pp q
  | Delete (s, q) -> Fmt.pf ppf "delete %a %a" Scheme.pp s Ast.pp q
  | Extend (s, ql, qu) ->
      Fmt.pf ppf "extend %a Range %a %a" Scheme.pp s Ast.pp ql Ast.pp qu
  | Contract (s, ql, qu) ->
      Fmt.pf ppf "contract %a Range %a %a" Scheme.pp s Ast.pp ql Ast.pp qu
  | Rename (a, b) -> Fmt.pf ppf "rename %a %a" Scheme.pp a Scheme.pp b
  | Id (a, b) -> Fmt.pf ppf "id %a %a" Scheme.pp a Scheme.pp b

let pp ppf p =
  Fmt.pf ppf "@[<v2>pathway %s -> %s:@,%a@]" p.from_schema p.to_schema
    Fmt.(list ~sep:cut pp_prim)
    p.steps
