module Scheme = Automed_base.Scheme
module Telemetry = Automed_telemetry.Telemetry
module SM = Map.Make (String)

type error = { message : string; context : string list }

let pp_error ppf e =
  Fmt.pf ppf "%s%a" e.message
    Fmt.(list ~sep:nop (fun ppf c -> Fmt.pf ppf "@ while %s" c))
    e.context

exception Error of error

let err fmt = Format.kasprintf (fun message -> raise (Error { message; context = [] })) fmt

let rec match_pat (p : Ast.pat) (v : Value.t) =
  match (p, v) with
  | PWild, _ -> Some []
  | PVar x, v -> Some [ (x, v) ]
  | PConst c, v -> if Value.equal c v then Some [] else None
  | PTuple ps, Tuple vs when List.length ps = List.length vs ->
      let rec go acc = function
        | [], [] -> Some acc
        | p :: ps, v :: vs -> (
            match match_pat p v with
            | None -> None
            | Some bs -> go (acc @ bs) (ps, vs))
        | _ -> None
      in
      go [] (ps, vs)
  | PTuple _, _ -> None

(* -- scalar semantics: operators and builtins once operands are values -- *)

let as_plain_bag what = function
  | Value.Bag b -> b
  | v -> err "%s: expected a collection, got %s" what (Value.to_string v)

let as_number what = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | v -> err "%s: expected a number, got %s" what (Value.to_string v)

let as_bool what = function
  | Value.Bool b -> b
  | v -> err "%s: expected a boolean, got %s" what (Value.to_string v)

let arith op a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> (
      match op with
      | Ast.Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div ->
          if y = 0 then err "division by zero" else Value.Int (x / y)
      | _ -> assert false)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
      let x = as_number "arith" a and y = as_number "arith" b in
      match op with
      | Ast.Add -> Value.Float (x +. y)
      | Sub -> Value.Float (x -. y)
      | Mul -> Value.Float (x *. y)
      | Div ->
          if y = 0.0 then err "division by zero" else Value.Float (x /. y)
      | _ -> assert false)
  | Value.Str x, Value.Str y when op = Ast.Add -> Value.Str (x ^ y)
  | a, b ->
      err "arithmetic on non-numbers: %s, %s" (Value.to_string a)
        (Value.to_string b)

let apply_unop op v =
  match (op, v) with
  | Ast.Neg, Value.Int i -> Value.Int (-i)
  | Ast.Neg, Value.Float f -> Value.Float (-.f)
  | Ast.Neg, v -> err "negation of non-number %s" (Value.to_string v)
  | Ast.Not, v -> Value.Bool (not (as_bool "not" v))

(* every binary operator except the short-circuiting And/Or and the bag
   operators ++/--, which the evaluator defines over annotated bags *)
let apply_binop op a b =
  match (op : Ast.binop) with
  | (Add | Sub | Mul | Div) as op -> arith op a b
  | (Eq | Neq | Lt | Le | Gt | Ge) as op ->
      let c = Value.compare a b in
      Value.Bool
        (match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false)
  | And | Or | Union | Monus -> assert false

let one what = function
  | [ v ] -> v
  | args -> err "%s expects one argument, got %d" what (List.length args)

(* the builtins whose result is a scalar computed from whole argument
   values; distinct, flatten and group are bag-monad rules *)
let apply_builtin f (args : Value.t list) : Value.t =
  match f with
  | "count" ->
      Value.Int (Value.Bag.cardinal (as_plain_bag "count" (one "count" args)))
  | "sum" ->
      let b = as_plain_bag "sum" (one "sum" args) in
      let all_int =
        Value.Bag.fold
          (fun v _ ok -> ok && match v with Value.Int _ -> true | _ -> false)
          b true
      in
      if all_int then
        Value.Int
          (Value.Bag.fold
             (fun v n acc ->
               match v with Value.Int i -> acc + (i * n) | _ -> acc)
             b 0)
      else
        Value.Float
          (Value.Bag.fold
             (fun v n acc -> acc +. (as_number "sum" v *. float_of_int n))
             b 0.0)
  | "avg" ->
      let b = as_plain_bag "avg" (one "avg" args) in
      let n = Value.Bag.cardinal b in
      if n = 0 then err "avg of empty collection"
      else
        Value.Float
          (Value.Bag.fold
             (fun v m acc -> acc +. (as_number "avg" v *. float_of_int m))
             b 0.0
          /. float_of_int n)
  | "max" | "min" -> (
      let b = as_plain_bag f (one f args) in
      match Value.Bag.to_list b with
      | [] -> err "%s of empty collection" f
      | v :: vs ->
          let pick =
            if f = "max" then fun a b -> if Value.compare a b >= 0 then a else b
            else fun a b -> if Value.compare a b <= 0 then a else b
          in
          List.fold_left pick v vs)
  | "member" -> (
      match args with
      | [ v; Value.Bag b ] -> Value.Bool (Value.Bag.mem v b)
      | [ Value.Bag b; v ] -> Value.Bool (Value.Bag.mem v b)
      | _ -> err "member expects a value and a collection")
  | "abs" -> (
      match one "abs" args with
      | Value.Int i -> Value.Int (abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | v -> err "abs of non-number %s" (Value.to_string v))
  | "contains" -> (
      match args with
      | [ Value.Str s; Value.Str sub ] ->
          Value.Bool (Automed_base.Strutil.contains_sub ~sub s)
      | _ -> err "contains expects two strings")
  | "startswith" -> (
      match args with
      | [ Value.Str s; Value.Str prefix ] ->
          Value.Bool (Automed_base.Strutil.starts_with ~prefix s)
      | _ -> err "startswith expects two strings")
  | "upper" -> (
      match one "upper" args with
      | Value.Str s -> Value.Str (String.uppercase_ascii s)
      | v -> err "upper of non-string %s" (Value.to_string v))
  | "lower" -> (
      match one "lower" args with
      | Value.Str s -> Value.Str (String.lowercase_ascii s)
      | v -> err "lower of non-string %s" (Value.to_string v))
  | "strlen" -> (
      match one "strlen" args with
      | Value.Str s -> Value.Int (String.length s)
      | v -> err "strlen of non-string %s" (Value.to_string v))
  | "mod" -> (
      match args with
      | [ Value.Int a; Value.Int b ] ->
          if b = 0 then err "mod by zero" else Value.Int (a mod b)
      | _ -> err "mod expects two ints")
  | f -> err "unknown function %s" f

(* -- the evaluator, over an annotation ------------------------------------ *)

type 't annotation = { none : 't; join : 't -> 't -> 't; carry : 't -> 't }

type 't annotated =
  | Scalar of Value.t * 't
  | Bag of ((Value.t * (int * 't)) list * 't)

type ('t, 'w, 'b, 'v) instance =
  | Plain : (unit, int, Value.Bag.t, Value.t) instance
  | Annotated :
      't annotation
      -> ('t, int * 't, (Value.t * (int * 't)) list * 't, 't annotated) instance

(* One function per operation on an instance's representation.  Each is
   inlined where the rules use it, so the plain instance's branch is all
   that runs for it, at the cost of the unannotated evaluator. *)

let[@inline] none : type t w b v. (t, w, b, v) instance -> t = function
  | Plain -> ()
  | Annotated a -> a.none

(* [none] is the unit of [join], so the call is skipped for it *)
let[@inline] join : type t w b v. (t, w, b, v) instance -> t -> t -> t =
 fun k x y ->
  match k with
  | Plain -> ()
  | Annotated a ->
      if x == a.none then y else if y == a.none then x else a.join x y

let[@inline] carry : type t w b v. (t, w, b, v) instance -> t -> t =
 fun k x -> match k with Plain -> () | Annotated a -> a.carry x

let[@inline] weight : type t w b v. (t, w, b, v) instance -> int -> t -> w =
 fun k n a -> match k with Plain -> n | Annotated _ -> (n, a)

let[@inline] count : type t w b v. (t, w, b, v) instance -> w -> int =
 fun k w -> match k with Plain -> w | Annotated _ -> fst w

let[@inline] weight_annotation : type t w b v. (t, w, b, v) instance -> w -> t
    =
 fun k w -> match k with Plain -> () | Annotated _ -> snd w

let[@inline] bag : type t w b v.
    (t, w, b, v) instance -> (Value.t * w) list -> t -> b =
 fun k es a -> match k with Plain -> es | Annotated _ -> (es, a)

let[@inline] elements : type t w b v.
    (t, w, b, v) instance -> b -> (Value.t * w) list =
 fun k b -> match k with Plain -> b | Annotated _ -> fst b

let[@inline] ambient : type t w b v. (t, w, b, v) instance -> b -> t =
 fun k b -> match k with Plain -> () | Annotated _ -> snd b

let cite : type t w b v. (t, w, b, v) instance -> t -> Value.Bag.t -> b =
 fun k a b ->
  match k with
  | Plain -> b
  | Annotated _ -> (List.map (fun (v, n) -> (v, (n, a))) b, a)

let stamp : type t w b v. (t, w, b, v) instance -> t -> b -> b =
 fun k a b ->
  match k with
  | Plain -> b
  | Annotated x ->
      if a == x.none then b
      else
        let es, amb = b in
        ( List.map (fun (v, (n, a')) -> (v, (n, x.join a a'))) es,
          x.join a amb )

let[@inline] of_bag : type t w b v. (t, w, b, v) instance -> b -> v =
 fun k b -> match k with Plain -> Value.Bag b | Annotated _ -> Bag b

let[@inline] scalar : type t w b v. (t, w, b, v) instance -> Value.t -> t -> v
    =
 fun k v a -> match k with Plain -> v | Annotated _ -> Scalar (v, a)

let[@inline] lift : type t w b v. (t, w, b, v) instance -> t -> Value.t -> v =
 fun k a v ->
  match (k, v) with
  | Plain, v -> v
  | Annotated _, Value.Bag b -> Bag (cite k a b)
  | Annotated _, v -> Scalar (v, a)

let forget_bag (es, _) = Value.Bag (List.map (fun (v, (n, _)) -> (v, n)) es)

let[@inline] forget : type t w b v. (t, w, b, v) instance -> v -> Value.t =
 fun k v ->
  match (k, v) with
  | Plain, v -> v
  | Annotated _, Scalar (v, _) -> v
  | Annotated _, Bag b -> forget_bag b

let stamp_value : type t w b v. (t, w, b, v) instance -> t -> v -> v =
 fun k a v ->
  match (k, v) with
  | Plain, v -> v
  | Annotated _, Bag b -> Bag (stamp k a b)
  | Annotated _, Scalar (x, a') -> Scalar (x, join k a a')

let bag_annotation a (es, amb) =
  List.fold_left (fun acc (_, (_, a')) -> a.join acc a') amb es

let[@inline] annotation : type t w b v. (t, w, b, v) instance -> v -> t =
 fun k v ->
  match (k, v) with
  | Plain, _ -> ()
  | Annotated _, Scalar (_, a) -> a
  | Annotated a, Bag b -> bag_annotation a b

let[@inline] as_bag : type t w b v. (t, w, b, v) instance -> string -> v -> b =
 fun k what v ->
  match (k, v) with
  | Plain, v -> as_plain_bag what v
  | Annotated _, Bag b -> b
  | Annotated _, Scalar (v, _) ->
      err "%s: expected a collection, got %s" what (Value.to_string v)

let[@inline] annotate k w a =
  if a == none k then w
  else weight k (count k w) (join k (weight_annotation k w) a)

let[@inline] combine k f w w' =
  weight k (f (count k w) (count k w'))
    (join k (weight_annotation k w) (weight_annotation k w'))

let canon k pairs =
  Value.Bag.canonical (combine k ( + )) (fun w -> count k w > 0) pairs

(* the values themselves, and everything they were derived from *)
let[@inline] forget_all : type t w b v.
    (t, w, b, v) instance -> v list -> Value.t list =
 fun k vs -> match k with Plain -> vs | Annotated _ -> List.map (forget k) vs

let joined : type t w b v. (t, w, b, v) instance -> v list -> t =
 fun k vs ->
  match k with
  | Plain -> ()
  | Annotated _ ->
      List.fold_left (fun acc v -> join k acc (annotation k v)) (none k) vs

let[@inline] truth k what v = as_bool what (forget k v)

let union k a b =
  bag k
    (Value.Bag.merge
       (fun x y ->
         match (x, y) with
         | Some x, Some y -> Some (combine k ( + ) x y)
         | x, None | None, x -> x)
       (elements k a) (elements k b))
    (join k (ambient k a) (ambient k b))

(* a surviving element cites the subtrahend's occurrence too, and the
   whole subtrahend shaped the answer, so the result carries it *)
let monus k a b subtrahend =
  bag k
    (Value.Bag.merge
       (fun x y ->
         match (x, y) with
         | Some x, Some y ->
             if count k x > count k y then Some (combine k ( - ) x y) else None
         | x, _ -> x)
       (elements k a) (elements k b))
    (join k (ambient k a) subtrahend)

type ('b, 'v) environment = { schemes : Scheme.t -> 'b option; vars : 'v SM.t }
type env = (Value.Bag.t, Value.t) environment

let env ?(schemes = fun _ -> None) ?(vars = []) () =
  { schemes; vars = SM.of_seq (List.to_seq vars) }

let bind x v e = { e with vars = SM.add x v e.vars }

(* binds each pattern variable to its value, annotated by the element it
   came from *)
let rec bind_all k a env = function
  | [] -> env
  | (x, v) :: bs -> bind_all k a (bind x (lift k a v) env) bs

let rec eval_expr : type t w b v.
    (t, w, b, v) instance -> (b, v) environment -> Ast.expr -> v =
 fun k env e ->
  Telemetry.count "iql.eval.nodes";
  match e with
  | Const v -> lift k (none k) v
  | Void -> of_bag k (bag k [] (none k))
  | Any -> err "cannot materialise Any (no upper bound information)"
  | Var x -> (
      match SM.find_opt x env.vars with
      | Some v -> v
      | None -> err "unbound variable %s" x)
  | SchemeRef s -> (
      match env.schemes s with
      | Some b -> of_bag k b
      | None -> err "no extent for schema object %s" (Scheme.to_string s))
  | Tuple es ->
      let vs = List.map (eval_expr k env) es in
      scalar k (Value.Tuple (forget_all k vs)) (joined k vs)
  | EBag es ->
      let vs = List.map (eval_expr k env) es in
      of_bag k
        (bag k
           (canon k
              (List.map
                 (fun v -> (forget k v, weight k 1 (annotation k v)))
                 vs))
           (none k))
  | Range (l, _) -> eval_expr k env l
  | If (c, t, e) ->
      let cv = eval_expr k env c in
      let v = eval_expr k env (if truth k "if condition" cv then t else e) in
      (* the branch taken depends on the condition *)
      stamp_value k (annotation k cv) v
  | Let (x, e, body) -> eval_expr k (bind x (eval_expr k env e) env) body
  | Unop (op, e) ->
      let v = eval_expr k env e in
      scalar k (apply_unop op (forget k v)) (annotation k v)
  | Binop (((And | Or) as op), a, b) ->
      let what = if op = And then "and" else "or" in
      let av = eval_expr k env a in
      let x = truth k what av in
      if x = (op = Or) then scalar k (Value.Bool x) (annotation k av)
      else
        let bv = eval_expr k env b in
        scalar k
          (Value.Bool (truth k what bv))
          (join k (annotation k av) (annotation k bv))
  | Binop (Union, a, b) ->
      let a = as_bag k "++" (eval_expr k env a) in
      of_bag k (union k a (as_bag k "++" (eval_expr k env b)))
  | Binop (Monus, a, b) ->
      let a = as_bag k "--" (eval_expr k env a) in
      let bv = eval_expr k env b in
      of_bag k (monus k a (as_bag k "--" bv) (annotation k bv))
  | Binop (op, a, b) ->
      let av = eval_expr k env a in
      let bv = eval_expr k env b in
      scalar k
        (apply_binop op (forget k av) (forget k bv))
        (join k (annotation k av) (annotation k bv))
  | Comp (head, quals) ->
      (* accumulate weighted results and canonicalise once at the end:
         O(n log n) instead of per-element sorted insertion.  [w] is the
         derivation's weight so far: the product of the generator
         multiplicities, annotated by every element and satisfied filter
         on the path; a rejecting filter and every generator source still
         shaped the answer, so they go to the result's ambient
         annotation *)
      let acc = ref [] in
      let amb = ref (none k) in
      let rec go env w = function
        | [] ->
            let v = eval_expr k env head in
            acc := (forget k v, annotate k w (annotation k v)) :: !acc
        | Ast.Filter f :: rest ->
            let fv = eval_expr k env f in
            if truth k "filter" fv then
              go env (annotate k w (annotation k fv)) rest
            else amb := join k !amb (annotation k fv)
        | Ast.Gen (p, src) :: rest ->
            let b = as_bag k "generator source" (eval_expr k env src) in
            amb := join k !amb (ambient k b);
            let carried = carry k (ambient k b) in
            List.iter
              (fun (v, w') ->
                match match_pat p v with
                | None -> ()
                | Some bs ->
                    go
                      (bind_all k (weight_annotation k w') env bs)
                      (combine k ( * ) w (annotate k w' carried))
                      rest)
              (elements k b)
      in
      go env (weight k 1 (none k)) quals;
      of_bag k (bag k (canon k !acc) !amb)
  | App (f, args) -> eval_app k f (List.map (eval_expr k env) args)

and eval_app : type t w b v. (t, w, b, v) instance -> string -> v list -> v =
 fun k f args ->
  match f with
  | "distinct" ->
      let b = as_bag k "distinct" (one "distinct" args) in
      of_bag k
        (bag k
           (List.map
              (fun (v, w) -> (v, weight k 1 (weight_annotation k w)))
              (elements k b))
           (ambient k b))
  | "flatten" ->
      let b = as_bag k "flatten" (one "flatten" args) in
      let inner =
        List.concat_map
          (fun (v, w) ->
            List.map
              (fun (x, m) ->
                (x, weight k (m * count k w) (weight_annotation k w)))
              (as_plain_bag "flatten element" v))
          (elements k b)
      in
      of_bag k (bag k (canon k inner) (ambient k b))
  | "group" ->
      (* bag of {k, v} pairs -> bag of {k, bag of vs}; the standard IQL
         grouping operator, with multiplicities preserved inside groups *)
      let b = as_bag k "group" (one "group" args) in
      let module VM = Map.Make (struct
        type t = Value.t

        let compare = Value.compare
      end) in
      let groups =
        List.fold_left
          (fun acc (v, w) ->
            match v with
            | Value.Tuple [ key; x ] ->
                let vs, a =
                  Option.value
                    ~default:(Value.Bag.empty, none k)
                    (VM.find_opt key acc)
                in
                VM.add key
                  ( Value.Bag.add ~count:(count k w) x vs,
                    join k a (weight_annotation k w) )
                  acc
            | v ->
                err "group expects {key, value} pairs, got %s"
                  (Value.to_string v))
          VM.empty (elements k b)
      in
      of_bag k
        (bag k
           (canon k
              (VM.fold
                 (fun key (vs, a) acc ->
                   (Value.tuple2 key (Value.Bag vs), weight k 1 a) :: acc)
                 groups []))
           (ambient k b))
  | f -> lift k (joined k args) (apply_builtin f (forget_all k args))

let eval_with k env e =
  Telemetry.with_span "iql.eval" @@ fun () ->
  match eval_expr k env e with
  | v ->
      (if Telemetry.active () then begin
         Telemetry.annotate "expr_size" (string_of_int (Ast.size e));
         match forget k v with
         | Value.Bag b ->
             let n = Value.Bag.cardinal b in
             Telemetry.observe "iql.eval.bag_size" (float_of_int n);
             Telemetry.annotate "bag_size" (string_of_int n)
         | _ -> ()
       end);
      Ok v
  | exception Error err ->
      Error
        { err with context = err.context @ [ "evaluating " ^ Ast.to_string e ] }

let eval env e = eval_with Plain env e

let eval_exn env e =
  match eval env e with
  | Ok v -> v
  | Error e -> failwith (Fmt.str "%a" pp_error e)
