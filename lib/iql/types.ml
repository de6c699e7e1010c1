module Scheme = Automed_base.Scheme

type ty =
  | TUnit
  | TBool
  | TInt
  | TFloat
  | TStr
  | TTuple of ty list
  | TBag of ty
  | TVar of int

let rec to_buffer buf = function
  | TUnit -> Buffer.add_string buf "unit"
  | TBool -> Buffer.add_string buf "bool"
  | TInt -> Buffer.add_string buf "int"
  | TFloat -> Buffer.add_string buf "float"
  | TStr -> Buffer.add_string buf "str"
  | TTuple ts ->
      Automed_base.Strutil.add_list buf ~enclose:("{", "}") ~sep:"," to_buffer
        ts
  | TBag t ->
      Buffer.add_char buf '[';
      to_buffer buf t;
      Buffer.add_char buf ']'
  | TVar n ->
      Buffer.add_string buf "'t";
      Buffer.add_string buf (Int.to_string n)

let to_string t =
  let buf = Buffer.create 16 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Fmt.string ppf (to_string t)
let tuple_row tys = TBag (TTuple tys)

exception Ty_parse of string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while !pos < n && (text.[!pos] = ' ' || text.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else raise (Ty_parse (Printf.sprintf "expected %C at %d" c !pos))
  in
  let rec parse_ty () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        let rec items acc =
          let t = parse_ty () in
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; items (t :: acc)
          | Some '}' -> incr pos; List.rev (t :: acc)
          | _ -> raise (Ty_parse "expected ',' or '}'")
        in
        TTuple (items [])
    | Some '[' ->
        incr pos;
        let t = parse_ty () in
        expect ']';
        TBag t
    | Some c when c >= 'a' && c <= 'z' ->
        let start = !pos in
        while !pos < n && text.[!pos] >= 'a' && text.[!pos] <= 'z' do incr pos done;
        (match String.sub text start (!pos - start) with
        | "int" -> TInt
        | "float" -> TFloat
        | "str" -> TStr
        | "bool" -> TBool
        | "unit" -> TUnit
        | w -> raise (Ty_parse (Printf.sprintf "unknown type %S" w)))
    | _ -> raise (Ty_parse (Printf.sprintf "unexpected input at %d" !pos))
  in
  match
    let t = parse_ty () in
    skip_ws ();
    if !pos <> n then raise (Ty_parse "trailing input");
    t
  with
  | t -> Ok t
  | exception Ty_parse msg -> Error (Printf.sprintf "type parse error: %s" msg)

type scheme_typing = Scheme.t -> ty option
type error = { message : string; offender : Ast.expr }

let pp_error ppf e =
  Fmt.pf ppf "type error: %s in %s" e.message (Ast.to_string e.offender)

exception Err of error

let fail offender fmt =
  Format.kasprintf (fun message -> raise (Err { message; offender })) fmt

(* Unification over a mutable substitution table. *)

type state = { mutable next : int; subst : (int, ty) Hashtbl.t }

let fresh st =
  let n = st.next in
  st.next <- n + 1;
  TVar n

let rec repr st = function
  | TVar n as t -> (
      match Hashtbl.find_opt st.subst n with
      | Some t' ->
          let r = repr st t' in
          Hashtbl.replace st.subst n r;
          r
      | None -> t)
  | t -> t

let rec occurs st n = function
  | TVar m -> ( match repr st (TVar m) with TVar m' -> m' = n | t -> occurs st n t)
  | TTuple ts -> List.exists (occurs st n) ts
  | TBag t -> occurs st n t
  | TUnit | TBool | TInt | TFloat | TStr -> false

let rec unify st offender a b =
  let a = repr st a and b = repr st b in
  match (a, b) with
  | TVar n, TVar m when n = m -> ()
  | TVar n, t | t, TVar n ->
      if occurs st n t then fail offender "cyclic type"
      else Hashtbl.replace st.subst n t
  | TUnit, TUnit | TBool, TBool | TInt, TInt | TFloat, TFloat | TStr, TStr ->
      ()
  | TBag x, TBag y -> unify st offender x y
  | TTuple xs, TTuple ys when List.length xs = List.length ys ->
      List.iter2 (unify st offender) xs ys
  | TTuple xs, TTuple ys ->
      fail offender "tuple arity mismatch: %d vs %d" (List.length xs)
        (List.length ys)
  | a, b ->
      fail offender "cannot unify %s with %s" (to_string a) (to_string b)

let rec resolve st t =
  match repr st t with
  | TTuple ts -> TTuple (List.map (resolve st) ts)
  | TBag t -> TBag (resolve st t)
  | t -> t

let ty_of_value_shallow = function
  | Value.Unit -> Some TUnit
  | Value.Bool _ -> Some TBool
  | Value.Int _ -> Some TInt
  | Value.Float _ -> Some TFloat
  | Value.Str _ -> Some TStr
  | Value.Tuple _ | Value.Bag _ -> None

module SM = Map.Make (String)

let rec infer_expr st schemes vars (e : Ast.expr) : ty =
  match e with
  | Const v -> (
      match ty_of_value_shallow v with
      | Some t -> t
      | None -> fail e "non-scalar literal")
  | Var x -> (
      match SM.find_opt x vars with
      | Some t -> t
      | None -> fail e "unbound variable %s" x)
  | SchemeRef s -> (
      match schemes s with
      | Some t -> t
      | None ->
          (* unknown extent: any collection type *)
          TBag (fresh st))
  | Void | Any -> TBag (fresh st)
  | Tuple es -> TTuple (List.map (infer_expr st schemes vars) es)
  | EBag es ->
      let elt = fresh st in
      List.iter (fun e' -> unify st e elt (infer_expr st schemes vars e')) es;
      TBag elt
  | Range (l, u) ->
      let tl = infer_expr st schemes vars l in
      let tu = infer_expr st schemes vars u in
      let elt = fresh st in
      unify st e (TBag elt) tl;
      unify st e (TBag elt) tu;
      TBag elt
  | If (c, t, f) ->
      unify st e TBool (infer_expr st schemes vars c);
      let tt = infer_expr st schemes vars t in
      unify st e tt (infer_expr st schemes vars f);
      tt
  | Let (x, e1, body) ->
      let t1 = infer_expr st schemes vars e1 in
      infer_expr st schemes (SM.add x t1 vars) body
  | Unop (Neg, e1) ->
      let t = infer_expr st schemes vars e1 in
      (match repr st t with
      | TInt | TFloat | TVar _ -> ()
      | t -> fail e "cannot negate %s" (to_string t));
      t
  | Unop (Not, e1) ->
      unify st e TBool (infer_expr st schemes vars e1);
      TBool
  | Binop (((Ast.And | Ast.Or) as _op), a, b) ->
      unify st e TBool (infer_expr st schemes vars a);
      unify st e TBool (infer_expr st schemes vars b);
      TBool
  | Binop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b) ->
      let ta = infer_expr st schemes vars a in
      unify st e ta (infer_expr st schemes vars b);
      TBool
  | Binop ((Ast.Union | Ast.Monus), a, b) ->
      let elt = fresh st in
      unify st e (TBag elt) (infer_expr st schemes vars a);
      unify st e (TBag elt) (infer_expr st schemes vars b);
      TBag elt
  | Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) ->
      let ta = infer_expr st schemes vars a in
      unify st e ta (infer_expr st schemes vars b);
      (match repr st ta with
      | TInt | TFloat | TStr | TVar _ -> ()
      | t -> fail e "arithmetic on %s" (to_string t));
      ta
  | Comp (head, quals) ->
      let vars =
        List.fold_left
          (fun vars q ->
            match q with
            | Ast.Filter f ->
                unify st e TBool (infer_expr st schemes vars f);
                vars
            | Ast.Gen (p, src) ->
                let tsrc = infer_expr st schemes vars src in
                let elt = fresh st in
                unify st e (TBag elt) tsrc;
                bind_pat st schemes vars p elt)
          vars quals
      in
      TBag (infer_expr st schemes vars head)
  | App (f, args) -> infer_app st schemes vars e f args

and bind_pat st schemes vars p elt =
  match p with
  | Ast.PWild -> vars
  | Ast.PVar x -> SM.add x elt vars
  | Ast.PConst v -> (
      match ty_of_value_shallow v with
      | Some t ->
          unify st (Ast.Const v) t elt;
          vars
      | None -> vars)
  | Ast.PTuple ps ->
      let tys = List.map (fun _ -> fresh st) ps in
      unify st (Ast.Tuple []) (TTuple tys) elt;
      List.fold_left2 (fun vars p t -> bind_pat st schemes vars p t) vars ps tys

and infer_app st schemes vars e f args =
  let targs = List.map (infer_expr st schemes vars) args in
  let arg1 () =
    match targs with
    | [ t ] -> t
    | _ -> fail e "%s expects one argument" f
  in
  match f with
  | "count" ->
      unify st e (TBag (fresh st)) (arg1 ());
      TInt
  | "distinct" ->
      let t = arg1 () in
      unify st e (TBag (fresh st)) t;
      t
  | "flatten" ->
      let elt = fresh st in
      unify st e (TBag (TBag elt)) (arg1 ());
      TBag elt
  | "sum" | "avg" | "max" | "min" ->
      let elt = fresh st in
      unify st e (TBag elt) (arg1 ());
      if f = "avg" then TFloat else elt
  | "abs" -> arg1 ()
  | "member" -> (
      match targs with
      | [ tv; tb ] ->
          unify st e (TBag tv) tb;
          TBool
      | _ -> fail e "member expects two arguments")
  | "group" ->
      let k = fresh st and v = fresh st in
      unify st e (TBag (TTuple [ k; v ])) (arg1 ());
      TBag (TTuple [ k; TBag v ])
  | "contains" | "startswith" -> (
      match targs with
      | [ t1; t2 ] ->
          unify st e TStr t1;
          unify st e TStr t2;
          TBool
      | _ -> fail e "%s expects two arguments" f)
  | "upper" | "lower" ->
      unify st e TStr (arg1 ());
      TStr
  | "strlen" ->
      unify st e TStr (arg1 ());
      TInt
  | "mod" -> (
      match targs with
      | [ t1; t2 ] ->
          unify st e TInt t1;
          unify st e TInt t2;
          TInt
      | _ -> fail e "mod expects two arguments")
  | f -> fail e "unknown function %s" f

let infer ?(schemes = fun _ -> None) ?(vars = []) e =
  let st = { next = 0; subst = Hashtbl.create 16 } in
  match infer_expr st schemes (SM.of_seq (List.to_seq vars)) e with
  | t -> Ok (resolve st t)
  | exception Err err -> Error err

let check_extent_query ~schemes ~expected e =
  let st = { next = 0; subst = Hashtbl.create 16 } in
  match
    let t = infer_expr st schemes SM.empty e in
    unify st e expected t
  with
  | () -> Ok ()
  | exception Err err -> Error err
