module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Transform = Automed_transform.Transform
module Telemetry = Automed_telemetry.Telemetry

type application = { rule : string; step : int; detail : string }

type outcome = {
  pathway : Transform.pathway;
  applications : application list;
  eligible : bool;
}

let rules =
  [
    ( "drop-identity-step",
      "id o o changes neither the schema state nor any derived definition" );
    ( "collapse-rename-chain",
      "rename a b; ...; rename b c with b and c untouched in between is \
       rename a c" );
    ( "cancel-rename-roundtrip",
      "rename a b; ...; rename b a with a and b untouched in between is a \
       no-op" );
    ( "cancel-dead-pair",
      "an object added/extended and later deleted/contracted, never read in \
       between, was dead work" );
    ( "reorder-commuting-steps",
      "adjacent steps over disjoint scheme sets sort into the canonical \
       rename, add, extend, delete, contract, id order" );
  ]

let pp_application ppf a =
  Fmt.pf ppf "%s (step %d): %s" a.rule a.step a.detail

(* -- footprints ---------------------------------------------------------- *)

let queries_of = function
  | Transform.Add (_, q) | Transform.Delete (_, q) -> [ q ]
  | Transform.Extend (_, ql, qu) | Transform.Contract (_, ql, qu) -> [ ql; qu ]
  | Transform.Rename _ | Transform.Id _ -> []

(* The rules repeatedly ask "does this step mention scheme s?" while
   scanning; recomputing [Ast.schemes] over large embedded queries on
   every probe dominated the engine's cost on real pathways, so each
   step carries its footprint (and the subset its queries read) for the
   lifetime of the rewrite. *)
type astep = {
  p : Transform.prim;
  fp : Scheme.Set.t;
  reads : Scheme.Set.t;
  key : int * string;  (** canonical order: (kind rank, scheme name) *)
}

(* canonical order: renames, adds, extends, deletes, contracts, ids --
   the shape intersection pathways are stated in *)
let kind_rank = function
  | Transform.Rename _ -> 0
  | Transform.Add _ -> 1
  | Transform.Extend _ -> 2
  | Transform.Delete _ -> 3
  | Transform.Contract _ -> 4
  | Transform.Id _ -> 5

let annotate prim =
  let reads =
    List.fold_left
      (fun acc q -> Scheme.Set.union acc (Ast.schemes q))
      Scheme.Set.empty (queries_of prim)
  in
  {
    p = prim;
    fp = Transform.footprint prim;
    reads;
    key = (kind_rank prim, Scheme.to_string (Transform.prim_scheme prim));
  }

let mentions s a = Scheme.Set.mem s a.fp

let sch = Scheme.to_string

(* -- the rules ----------------------------------------------------------- *)
(* Each rule takes the current (annotated) step list and applies its
   first instance — or, for the reorder pass, one full sweep — returning
   the rewritten list plus the audit records; [None] means the rule has
   no instance.  The driver iterates to a fixpoint; shrinking rules fire
   one instance at a time so every audit record's step index is accurate
   for the pathway as it stood when the rule fired. *)

let drop_identity steps =
  let rec go prefix i = function
    | [] -> None
    | { p = Transform.Id (a, b); _ } :: rest when Scheme.equal a b ->
        Some
          ( List.rev_append prefix rest,
            [
              {
                rule = "drop-identity-step";
                step = i + 1;
                detail = Printf.sprintf "id %s %s is a no-op" (sch a) (sch b);
              };
            ] )
    | s :: rest -> go (s :: prefix) (i + 1) rest
  in
  go [] 0 steps

(* rename a b ... rename b c: nothing in between may mention b (it would
   read or shadow the renamed object) nor c (the collapsed rename frees
   the name b but occupies c earlier than the original did) *)
let collapse_chain steps =
  let rec outer prefix i = function
    | [] -> None
    | ({ p = Transform.Rename (a, b); _ } as s) :: rest -> (
        let rec scan between = function
          | { p = Transform.Rename (b', c); _ } :: tail when Scheme.equal b b'
            ->
              if List.exists (mentions c) between then None
              else Some (List.rev between, c, tail)
          | x :: tail when not (mentions b x) -> scan (x :: between) tail
          | _ -> None
        in
        match scan [] rest with
        | Some (between, c, tail) ->
            let app rule detail = { rule; step = i + 1; detail } in
            let replacement, application =
              if Scheme.equal a c then
                ( between @ tail,
                  app "cancel-rename-roundtrip"
                    (Printf.sprintf
                       "rename %s %s and rename %s %s cancel out" (sch a)
                       (sch b) (sch b) (sch c)) )
              else
                ( (annotate (Transform.Rename (a, c)) :: between) @ tail,
                  app "collapse-rename-chain"
                    (Printf.sprintf
                       "rename %s %s and rename %s %s collapse to rename %s \
                        %s"
                       (sch a) (sch b) (sch b) (sch c) (sch a) (sch c)) )
            in
            Some (List.rev_append prefix replacement, [ application ])
        | None -> outer (s :: prefix) (i + 1) rest)
    | s :: rest -> outer (s :: prefix) (i + 1) rest
  in
  outer [] 0 steps

(* add/extend s ... delete/contract s: with nothing in between mentioning
   s, the definition map and the schema state are net-unchanged, so both
   steps (and the intermediate existence of s) were dead work *)
let cancel_dead_pair steps =
  let removal_of s a =
    match a.p with
    | Transform.Delete (s', _) | Transform.Contract (s', _, _) ->
        Scheme.equal s s'
        (* the restore query of the removal must not read s either *)
        && not (Scheme.Set.mem s a.reads)
    | _ -> false
  in
  let rec outer prefix i = function
    | [] -> None
    | ({ p = Transform.Add (s, _) | Transform.Extend (s, _, _); _ } as birth)
      :: rest -> (
        let rec scan between = function
          | death :: tail when removal_of s death ->
              Some (List.rev between, death, tail)
          | x :: tail when not (mentions s x) -> scan (x :: between) tail
          | _ -> None
        in
        match scan [] rest with
        | Some (between, death, tail) ->
            Some
              ( List.rev_append prefix (between @ tail),
                [
                  {
                    rule = "cancel-dead-pair";
                    step = i + 1;
                    detail =
                      Printf.sprintf
                        "%s %s is undone by a later %s and never read in \
                         between"
                        (Transform.prim_kind birth.p)
                        (sch s)
                        (Transform.prim_kind death.p);
                  };
                ] )
        | None -> outer (birth :: prefix) (i + 1) rest)
    | s :: rest -> outer (s :: prefix) (i + 1) rest
  in
  outer [] 0 steps

let commute a b = Scheme.Set.is_empty (Scheme.Set.inter a.fp b.fp)

(* bubble sort on the precomputed keys, swapping only commuting pairs;
   sweeps repeat until no adjacent out-of-order commuting pair remains.
   Sorting to completion inside one pass (rather than a swap per driver
   round) keeps the driver's round count — and with it the number of
   O(n^2) shrink-rule rescans — independent of the inversion count. *)
let reorder steps =
  let rec sweep i acc apps = function
    | x :: y :: rest when x.key > y.key && commute x y ->
        let app =
          {
            rule = "reorder-commuting-steps";
            step = i + 1;
            detail =
              Printf.sprintf
                "%s %s and %s %s commute; swapped into canonical order"
                (Transform.prim_kind x.p)
                (sch (Transform.prim_scheme x.p))
                (Transform.prim_kind y.p)
                (sch (Transform.prim_scheme y.p));
          }
        in
        sweep (i + 1) (y :: acc) (app :: apps) (x :: rest)
    | x :: rest -> sweep (i + 1) (x :: acc) apps rest
    | [] -> (List.rev acc, apps)
  in
  let rec fix steps apps =
    match sweep 0 [] [] steps with
    | steps', [] -> (steps', apps)
    | steps', new_apps -> fix steps' (List.rev_append new_apps apps)
  in
  match fix steps [] with
  | _, [] -> None
  | steps', apps -> Some (steps', List.rev apps)

(* -- the driver ---------------------------------------------------------- *)

let passes = [ drop_identity; collapse_chain; cancel_dead_pair; reorder ]

(* shrinking rules strictly reduce length; a reorder sweep strictly
   reduces the number of out-of-order adjacent pairs, so the fixpoint
   exists -- the cap is belt and braces *)
let max_rounds = 10_000

let simplify schema (p : Transform.pathway) =
  if Diagnostic.has_errors (Pathway_lint.lint schema p) then
    { pathway = p; applications = []; eligible = false }
  else begin
    let rec go steps apps rounds =
      if rounds >= max_rounds then (steps, apps)
      else
        match List.find_map (fun pass -> pass steps) passes with
        | Some (steps', new_apps) ->
            Telemetry.count
              ~by:(List.length new_apps)
              "analysis.rewrite.applications";
            go steps' (List.rev_append new_apps apps) (rounds + 1)
        | None -> (steps, apps)
    in
    let steps, apps = go (List.map annotate p.steps) [] 0 in
    {
      pathway = { p with steps = List.map (fun a -> a.p) steps };
      applications = List.rev apps;
      eligible = true;
    }
  end
