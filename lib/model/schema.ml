module Scheme = Automed_base.Scheme
module Types = Automed_iql.Types

type info = { extent_ty : Types.ty option }
type t = { schema_name : string; objects : info Scheme.Map.t }

let create schema_name = { schema_name; objects = Scheme.Map.empty }
let name s = s.schema_name
let rename n s = { s with schema_name = n }

let add_object ?extent_ty scheme s =
  match Model.validate_scheme scheme with
  | Error e -> Error e
  | Ok _ ->
      if Scheme.Map.mem scheme s.objects then
        Error
          (Printf.sprintf "schema %s already contains %s" s.schema_name
             (Scheme.to_string scheme))
      else
        Ok
          {
            s with
            objects = Scheme.Map.add scheme { extent_ty } s.objects;
          }

let remove_object scheme s =
  if Scheme.Map.mem scheme s.objects then
    Ok { s with objects = Scheme.Map.remove scheme s.objects }
  else
    Error
      (Printf.sprintf "schema %s has no object %s" s.schema_name
         (Scheme.to_string scheme))

let rename_object from_ to_ s =
  if Scheme.language from_ <> Scheme.language to_
     || Scheme.construct from_ <> Scheme.construct to_
  then
    Error
      (Printf.sprintf "rename cannot change construct kind: %s -> %s"
         (Scheme.to_string from_) (Scheme.to_string to_))
  else
    match Scheme.Map.find_opt from_ s.objects with
    | None ->
        Error
          (Printf.sprintf "schema %s has no object %s" s.schema_name
             (Scheme.to_string from_))
    | Some info ->
        if Scheme.Map.mem to_ s.objects then
          Error
            (Printf.sprintf "schema %s already contains %s" s.schema_name
               (Scheme.to_string to_))
        else
          Ok
            {
              s with
              objects =
                Scheme.Map.add to_ info (Scheme.Map.remove from_ s.objects);
            }

let mem scheme s = Scheme.Map.mem scheme s.objects
let find scheme s = Scheme.Map.find_opt scheme s.objects

let extent_ty scheme s =
  match find scheme s with Some { extent_ty } -> extent_ty | None -> None

let objects s = Scheme.Map.bindings s.objects |> List.map fst
let object_count s = Scheme.Map.cardinal s.objects

let restrict keep s =
  { s with
    objects = Scheme.Map.filter (fun o _ -> Scheme.Set.mem o keep) s.objects }
let fold f s init = Scheme.Map.fold f s.objects init
let typing s scheme = extent_ty scheme s
let hdm s = Model.hdm_of_schemes (objects s)

let same_objects a b =
  Scheme.Map.equal (fun _ _ -> true) a.objects b.objects

let of_objects name objs =
  List.fold_left
    (fun acc (scheme, extent_ty) ->
      Result.bind acc (fun s -> add_object ?extent_ty scheme s))
    (Ok (create name)) objs

let pp_brief ppf s =
  Fmt.pf ppf "%s (%d objects)" s.schema_name (object_count s)

let pp ppf s =
  Fmt.pf ppf "@[<v2>schema %s:@,%a@]" s.schema_name
    Fmt.(
      list ~sep:cut (fun ppf (scheme, { extent_ty }) ->
          Fmt.pf ppf "%a%a" Scheme.pp scheme
            (option (fun ppf t -> Fmt.pf ppf " : %a" Types.pp t))
            extent_ty))
    (Scheme.Map.bindings s.objects)
