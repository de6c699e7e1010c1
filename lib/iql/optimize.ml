module SS = Set.Make (String)
module Telemetry = Automed_telemetry.Telemetry

(* free variables of an expression under an outer binding set *)
let free_vars e = SS.of_list (Ast.vars e)

let rec optimize (e : Ast.expr) : Ast.expr =
  match e with
  | Comp (head, quals) ->
      let head, quals = optimize_comprehension head quals in
      Comp (head, quals)
  | Const _ | Var _ | SchemeRef _ | Void | Any -> e
  | Tuple es -> Tuple (List.map optimize es)
  | EBag es -> EBag (List.map optimize es)
  | App (f, es) -> App (f, List.map optimize es)
  | Binop (op, a, b) -> Binop (op, optimize a, optimize b)
  | Unop (op, a) -> Unop (op, optimize a)
  | If (c, t, f) -> If (optimize c, optimize t, optimize f)
  | Let (x, a, b) -> Let (x, optimize a, optimize b)
  | Range (l, u) -> Range (optimize l, optimize u)

and optimize_comprehension head quals =
  Telemetry.count "iql.optimize.comprehensions";
  let head = optimize head in
  (* split into generators (with their binding sets and source
     dependencies) and filters (with their variable needs), keeping the
     original positions for stable tie-breaking *)
  let gens, filters =
    List.fold_left
      (fun (gens, filters) q ->
        match (q : Ast.qual) with
        | Gen (p, src) ->
            let src = optimize src in
            ((p, src, SS.of_list (Ast.pat_vars p), free_vars src) :: gens, filters)
        | Filter f ->
            let f = optimize f in
            (gens, (f, free_vars f) :: filters))
      ([], []) quals
  in
  let gens = List.rev gens and filters = List.rev filters in
  (* a generator is ready when its source's variables are bound; among
     ready generators pick the one enabling the most pending filters *)
  let rec schedule bound pending_gens pending_filters acc =
    (* emit every filter whose variables are all bound *)
    let applicable, pending_filters =
      List.partition (fun (_, needs) -> SS.subset needs bound) pending_filters
    in
    let acc =
      List.fold_left (fun acc (f, _) -> Ast.Filter f :: acc) acc applicable
    in
    match pending_gens with
    | [] ->
        (* any filters left reference unbound (outer) variables: keep them *)
        let acc =
          List.fold_left (fun acc (f, _) -> Ast.Filter f :: acc) acc
            pending_filters
        in
        List.rev acc
    | _ ->
        let ready =
          List.filter (fun (_, _, _, deps) -> SS.subset deps bound) pending_gens
        in
        let pick =
          match ready with
          | [] ->
              (* dependency on an outer/unbound variable: fall back to the
                 first pending generator to guarantee progress *)
              List.hd pending_gens
          | ready ->
              let enabled (_, _, binds, _) =
                let bound' = SS.union bound binds in
                List.length
                  (List.filter
                     (fun (_, needs) -> SS.subset needs bound')
                     pending_filters)
              in
              List.fold_left
                (fun best g -> if enabled g > enabled best then g else best)
                (List.hd ready) (List.tl ready)
        in
        let p, src, binds, _ = pick in
        let pending_gens =
          List.filter (fun g -> g != pick) pending_gens
        in
        schedule (SS.union bound binds) pending_gens pending_filters
          (Ast.Gen (p, src) :: acc)
  in
  (head, schedule SS.empty gens filters [])
