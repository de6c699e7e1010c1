module Scheme = Automed_base.Scheme

type binop =
  | Add | Sub | Mul | Div
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Union
  | Monus

type unop = Neg | Not

type expr =
  | Const of Value.t
  | Var of string
  | SchemeRef of Scheme.t
  | Tuple of expr list
  | EBag of expr list
  | Comp of expr * qual list
  | App of string * expr list
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | If of expr * expr * expr
  | Let of string * expr * expr
  | Range of expr * expr
  | Void
  | Any

and qual = Gen of pat * expr | Filter of expr

and pat =
  | PVar of string
  | PWild
  | PConst of Value.t
  | PTuple of pat list

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Value.equal x y
  | Var x, Var y -> String.equal x y
  | SchemeRef x, SchemeRef y -> Scheme.equal x y
  | Tuple xs, Tuple ys | EBag xs, EBag ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Comp (h1, q1), Comp (h2, q2) ->
      equal h1 h2 && List.length q1 = List.length q2
      && List.for_all2 equal_qual q1 q2
  | App (f, xs), App (g, ys) ->
      String.equal f g && List.length xs = List.length ys
      && List.for_all2 equal xs ys
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal e1 e2
  | If (c1, t1, e1), If (c2, t2, e2) -> equal c1 c2 && equal t1 t2 && equal e1 e2
  | Let (x, e1, b1), Let (y, e2, b2) -> String.equal x y && equal e1 e2 && equal b1 b2
  | Range (l1, u1), Range (l2, u2) -> equal l1 l2 && equal u1 u2
  | Void, Void | Any, Any -> true
  | ( ( Const _ | Var _ | SchemeRef _ | Tuple _ | EBag _ | Comp _ | App _
      | Binop _ | Unop _ | If _ | Let _ | Range _ | Void | Any ),
      _ ) ->
      false

and equal_qual q1 q2 =
  match (q1, q2) with
  | Gen (p1, e1), Gen (p2, e2) -> equal_pat p1 p2 && equal e1 e2
  | Filter e1, Filter e2 -> equal e1 e2
  | (Gen _ | Filter _), _ -> false

and equal_pat p1 p2 =
  match (p1, p2) with
  | PVar x, PVar y -> String.equal x y
  | PWild, PWild -> true
  | PConst x, PConst y -> Value.equal x y
  | PTuple xs, PTuple ys ->
      List.length xs = List.length ys && List.for_all2 equal_pat xs ys
  | (PVar _ | PWild | PConst _ | PTuple _), _ -> false

let rec fold_schemes acc = function
  | SchemeRef s -> Scheme.Set.add s acc
  | Const _ | Var _ | Void | Any -> acc
  | Tuple es | EBag es | App (_, es) -> List.fold_left fold_schemes acc es
  | Comp (h, qs) ->
      List.fold_left
        (fun acc -> function
          | Gen (_, e) | Filter e -> fold_schemes acc e)
        (fold_schemes acc h) qs
  | Binop (_, a, b) | Range (a, b) | Let (_, a, b) ->
      fold_schemes (fold_schemes acc a) b
  | Unop (_, e) -> fold_schemes acc e
  | If (c, t, e) -> fold_schemes (fold_schemes (fold_schemes acc c) t) e

let schemes e = fold_schemes Scheme.Set.empty e

let rec size = function
  | Const _ | Var _ | SchemeRef _ | Void | Any -> 1
  | Tuple es | EBag es | App (_, es) ->
      List.fold_left (fun acc e -> acc + size e) 1 es
  | Binop (_, a, b) | Range (a, b) | Let (_, a, b) -> 1 + size a + size b
  | Unop (_, e) -> 1 + size e
  | If (c, t, e) -> 1 + size c + size t + size e
  | Comp (h, qs) ->
      List.fold_left
        (fun acc -> function Gen (_, e) | Filter e -> acc + size e)
        (1 + size h) qs

let rec pat_vars = function
  | PVar x -> [ x ]
  | PWild | PConst _ -> []
  | PTuple ps -> List.concat_map pat_vars ps

module SS = Set.Make (String)

let vars e =
  (* first-occurrence order, excluding bound variables *)
  let seen = ref SS.empty in
  let out = ref [] in
  let rec go bound = function
    | Var x ->
        if (not (SS.mem x bound)) && not (SS.mem x !seen) then begin
          seen := SS.add x !seen;
          out := x :: !out
        end
    | Const _ | SchemeRef _ | Void | Any -> ()
    | Tuple es | EBag es | App (_, es) -> List.iter (go bound) es
    | Binop (_, a, b) | Range (a, b) -> go bound a; go bound b
    | Unop (_, e) -> go bound e
    | If (c, t, e) -> go bound c; go bound t; go bound e
    | Let (x, e, body) -> go bound e; go (SS.add x bound) body
    | Comp (h, qs) ->
        let bound =
          List.fold_left
            (fun bound q ->
              match q with
              | Gen (p, src) ->
                  go bound src;
                  List.fold_left (fun b v -> SS.add v b) bound (pat_vars p)
              | Filter f -> go bound f; bound)
            bound qs
        in
        go bound h
  in
  go SS.empty e;
  List.rev !out

let rec subst_schemes f = function
  | SchemeRef s as e -> ( match f s with Some e' -> e' | None -> e)
  | (Const _ | Var _ | Void | Any) as e -> e
  | Tuple es -> Tuple (List.map (subst_schemes f) es)
  | EBag es -> EBag (List.map (subst_schemes f) es)
  | App (g, es) -> App (g, List.map (subst_schemes f) es)
  | Comp (h, qs) ->
      let qs =
        List.map
          (function
            | Gen (p, e) -> Gen (p, subst_schemes f e)
            | Filter e -> Filter (subst_schemes f e))
          qs
      in
      Comp (subst_schemes f h, qs)
  | Binop (op, a, b) -> Binop (op, subst_schemes f a, subst_schemes f b)
  | Unop (op, e) -> Unop (op, subst_schemes f e)
  | If (c, t, e) -> If (subst_schemes f c, subst_schemes f t, subst_schemes f e)
  | Let (x, e, b) -> Let (x, subst_schemes f e, subst_schemes f b)
  | Range (l, u) -> Range (subst_schemes f l, subst_schemes f u)

let rename_scheme ~from_ ~to_ e =
  subst_schemes
    (fun s -> if Scheme.equal s from_ then Some (SchemeRef to_) else None)
    e

let is_range_void_any = function Range (Void, Any) -> true | _ -> false
let scheme_ref s = SchemeRef s
let str s = Const (Value.Str s)
let int i = Const (Value.Int i)

(* -- printing ---------------------------------------------------------- *)

(* Precedence levels, loosest first:
   0 let/if, 1 or, 2 and, 3 comparison, 4 ++/--, 5 +/-, 6 * / , 7 unary,
   8 atoms. *)

let binop_info = function
  | Or -> (1, "or")
  | And -> (2, "and")
  | Eq -> (3, "=")
  | Neq -> (3, "<>")
  | Lt -> (3, "<")
  | Le -> (3, "<=")
  | Gt -> (3, ">")
  | Ge -> (3, ">=")
  | Union -> (4, "++")
  | Monus -> (4, "--")
  | Add -> (5, "+")
  | Sub -> (5, "-")
  | Mul -> (6, "*")
  | Div -> (6, "/")

let add = Buffer.add_string

(* [body] at its own level [p], parenthesised where the context binds
   tighter *)
let paren buf prec p body =
  if prec > p then begin
    Buffer.add_char buf '(';
    body ();
    Buffer.add_char buf ')'
  end
  else body ()

let list = Automed_base.Strutil.add_list

let rec to_buffer_prec prec buf e =
  match e with
  | Const v -> Value.to_buffer buf v
  | Var x -> add buf x
  | SchemeRef s -> Scheme.to_buffer buf s
  | Void -> add buf "Void"
  | Any -> add buf "Any"
  | Tuple es -> list buf ~enclose:("{", "}") ~sep:", " (to_buffer_prec 0) es
  | EBag es -> list buf ~enclose:("[", "]") ~sep:"; " (to_buffer_prec 0) es
  | Comp (h, qs) ->
      Buffer.add_char buf '[';
      to_buffer_prec 0 buf h;
      list buf ~enclose:(" | ", "]") ~sep:"; " qual qs
  | App (f, es) ->
      add buf f;
      list buf ~enclose:("(", ")") ~sep:", " (to_buffer_prec 0) es
  | Range (l, u) ->
      paren buf prec 7 (fun () ->
          add buf "Range ";
          to_buffer_prec 8 buf l;
          Buffer.add_char buf ' ';
          to_buffer_prec 8 buf u)
  | Unop (op, e) ->
      paren buf prec 7 (fun () ->
          add buf (match op with Neg -> "-" | Not -> "not ");
          to_buffer_prec 7 buf e)
  | Binop (op, a, b) ->
      let p, s = binop_info op in
      (* comparisons are non-associative: both operands need a higher
         level so nested comparisons re-parse unambiguously *)
      let lhs_prec =
        match op with
        | Eq | Neq | Lt | Le | Gt | Ge -> p + 1
        | Add | Sub | Mul | Div | And | Or | Union | Monus -> p
      in
      paren buf prec p (fun () ->
          to_buffer_prec lhs_prec buf a;
          Buffer.add_char buf ' ';
          add buf s;
          Buffer.add_char buf ' ';
          to_buffer_prec (p + 1) buf b)
  | If (c, t, e) ->
      paren buf prec 0 (fun () ->
          add buf "if ";
          to_buffer_prec 0 buf c;
          add buf " then ";
          to_buffer_prec 0 buf t;
          add buf " else ";
          to_buffer_prec 0 buf e)
  | Let (x, e, b) ->
      paren buf prec 0 (fun () ->
          add buf "let ";
          add buf x;
          add buf " = ";
          to_buffer_prec 0 buf e;
          add buf " in ";
          to_buffer_prec 0 buf b)

and qual buf = function
  | Gen (p, e) ->
      pat buf p;
      add buf " <- ";
      to_buffer_prec 4 buf e
  | Filter e -> to_buffer_prec 3 buf e

and pat buf = function
  | PVar x -> add buf x
  | PWild -> Buffer.add_char buf '_'
  | PConst v -> Value.to_buffer buf v
  | PTuple ps -> list buf ~enclose:("{", "}") ~sep:"," pat ps

let to_buffer = to_buffer_prec 0

let to_string e =
  let buf = Buffer.create 64 in
  to_buffer buf e;
  Buffer.contents buf

let pp ppf e = Fmt.string ppf (to_string e)
