module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module SS = Set.Make (String)

(* A definition that can be decided empty without data: the certain
   answers of [Void], an empty bag literal, or a range whose lower bound
   is one of those.  (Extend/contract lower bounds are exactly what the
   definition replay keeps.) *)
let provably_empty = function
  | Ast.Void | Ast.EBag [] | Ast.Range (Ast.Void, _) -> true
  | _ -> false

let live_objects ~source (p : Transform.pathway) =
  let query_live liveness q =
    if provably_empty q then false
    else
      match q with
      | Ast.SchemeRef s -> (
          match Scheme.Map.find_opt s liveness with
          | Some l -> l
          | None -> true (* unknown reference: assume live *))
      | _ -> true
  in
  let init =
    List.fold_left
      (fun m o -> Scheme.Map.add o true m)
      Scheme.Map.empty (Schema.objects source)
  in
  let exception Unknown in
  match
    List.fold_left
      (fun liveness (step : Transform.prim) ->
        match step with
        | Add (o, q) | Extend (o, q, _) ->
            Scheme.Map.add o (query_live liveness q) liveness
        | Delete (o, _) | Contract (o, _, _) -> Scheme.Map.remove o liveness
        | Rename (a, b) -> (
            match Scheme.Map.find_opt a liveness with
            | Some l -> Scheme.Map.add b l (Scheme.Map.remove a liveness)
            | None -> raise Unknown)
        | Id (a, b) -> (
            if Scheme.equal a b then liveness
            else
              match Scheme.Map.find_opt a liveness with
              | Some l -> Scheme.Map.add b l liveness
              | None -> raise Unknown))
      init p.steps
  with
  | liveness ->
      Some
        (Scheme.Map.fold
           (fun o live acc -> if live then Scheme.Set.add o acc else acc)
           liveness Scheme.Set.empty)
  | exception Unknown -> None

(* -- chasing live definitions down the network --------------------------- *)

type ctx = {
  repo : Repository.t;
  defs_cache :
    (Transform.pathway, Ast.expr Scheme.Map.t option) Hashtbl.t;
  memo : (string * Scheme.t, SS.t) Hashtbl.t;
  in_progress : (string * Scheme.t, unit) Hashtbl.t;
}

let make_ctx repo =
  {
    repo;
    defs_cache = Hashtbl.create 16;
    memo = Hashtbl.create 64;
    in_progress = Hashtbl.create 16;
  }

let all_stored_sources repo =
  List.fold_left
    (fun acc s ->
      let n = Schema.name s in
      if Repository.has_stored_extents repo n then SS.add n acc else acc)
    SS.empty (Repository.schemas repo)

let pathway_defs ctx (p : Transform.pathway) =
  match Hashtbl.find_opt ctx.defs_cache p with
  | Some d -> d
  | None ->
      let d =
        match Repository.source_of ctx.repo p with
        | None -> None
        | Some src -> Result.to_option (Equiv.defs src p)
      in
      Hashtbl.replace ctx.defs_cache p d;
      d

let rec sources_of ctx ~schema o =
  match Hashtbl.find_opt ctx.memo (schema, o) with
  | Some s -> s
  | None ->
      if Hashtbl.mem ctx.in_progress (schema, o) then SS.empty
      else begin
        Hashtbl.replace ctx.in_progress (schema, o) ();
        let base =
          match Repository.stored_extent ctx.repo ~schema o with
          | Some _ -> SS.singleton schema
          | None -> SS.empty
        in
        let acc =
          List.fold_left
            (fun acc (p : Transform.pathway) ->
              match pathway_defs ctx p with
              | None ->
                  (* unanalysable pathway: over-approximate, never prune *)
                  SS.union acc (all_stored_sources ctx.repo)
              | Some defs -> (
                  match Scheme.Map.find_opt o defs with
                  | None -> acc
                  | Some e when provably_empty e -> acc
                  | Some e ->
                      Scheme.Set.fold
                        (fun s acc ->
                          SS.union acc
                            (sources_of ctx ~schema:p.from_schema s))
                        (Ast.schemes e) acc))
            base
            (Repository.pathways_into ctx.repo schema)
        in
        Hashtbl.remove ctx.in_progress (schema, o);
        Hashtbl.replace ctx.memo (schema, o) acc;
        acc
      end

let object_sources repo ~schema o =
  SS.elements (sources_of (make_ctx repo) ~schema o)

let default_root repo =
  match List.rev (Repository.pathways repo) with
  | p :: _ -> Some p.Transform.to_schema
  | [] -> None

let unreachable_sources ?root repo =
  if Repository.pathways repo = [] then []
  else
    let root = match root with Some r -> Some r | None -> default_root repo in
    match root with
    | None -> []
    | Some root -> (
        match Repository.schema repo root with
        | None -> []
        | Some root_schema ->
            let ctx = make_ctx repo in
            let reachable =
              List.fold_left
                (fun acc o -> SS.union acc (sources_of ctx ~schema:root o))
                SS.empty
                (Schema.objects root_schema)
            in
            SS.elements
              (SS.filter
                 (fun s -> s <> root && not (SS.mem s reachable))
                 (all_stored_sources repo)))
