(* The Buffer printers of schemes, values, types and IQL expressions print
   exactly what their former Format printers did.  The journal and
   checkpoint formats are made of these strings, so a stored repository
   recovers only while the two agree byte for byte.  The Format printers
   live on here as the reference. *)

module Scheme = Automed_base.Scheme
module Value = Automed_iql.Value
module Types = Automed_iql.Types
module Ast = Automed_iql.Ast

(* -- the reference printers ------------------------------------------------ *)

module Reference = struct
  let scheme_args ppf args = Fmt.(list ~sep:(any ",") string) ppf args

  let scheme ppf (s : Scheme.t) =
    let language = Scheme.language s and construct = Scheme.construct s in
    if language = "sql" && (construct = "table" || construct = "column") then
      Fmt.pf ppf "<<%a>>" scheme_args (Scheme.args s)
    else
      Fmt.pf ppf "<<%s,%s,%a>>" language construct scheme_args (Scheme.args s)

  let rec value ppf = function
    | Value.Unit -> Fmt.string ppf "()"
    | Value.Bool b -> Fmt.bool ppf b
    | Value.Int i -> Fmt.int ppf i
    | Value.Float f -> Fmt.pf ppf "%g" f
    | Value.Str s -> Fmt.pf ppf "'%s'" (Value.escape_string s)
    | Value.Tuple vs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") value) vs
    | Value.Bag b ->
        let item ppf (v, n) =
          if n = 1 then value ppf v else Fmt.pf ppf "%a*%d" value v n
        in
        Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") item) b

  let rec ty ppf = function
    | Types.TUnit -> Fmt.string ppf "unit"
    | Types.TBool -> Fmt.string ppf "bool"
    | Types.TInt -> Fmt.string ppf "int"
    | Types.TFloat -> Fmt.string ppf "float"
    | Types.TStr -> Fmt.string ppf "str"
    | Types.TTuple ts -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") ty) ts
    | Types.TBag t -> Fmt.pf ppf "[%a]" ty t
    | Types.TVar n -> Fmt.pf ppf "'t%d" n

  let binop_info = function
    | Ast.Or -> (1, "or")
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

  let rec expr prec ppf (e : Ast.expr) =
    match e with
    | Const v -> value ppf v
    | Var x -> Fmt.string ppf x
    | SchemeRef s -> scheme ppf s
    | Void -> Fmt.string ppf "Void"
    | Any -> Fmt.string ppf "Any"
    | Tuple es -> Fmt.pf ppf "{%a}" list es
    | EBag es -> Fmt.pf ppf "[%a]" seq es
    | Comp (h, qs) ->
        Fmt.pf ppf "[%a | %a]" (expr 0) h Fmt.(list ~sep:(any "; ") qual) qs
    | App (f, es) -> Fmt.pf ppf "%s(%a)" f list es
    | Range (l, u) ->
        let body ppf () = Fmt.pf ppf "Range %a %a" (expr 8) l (expr 8) u in
        if prec > 7 then Fmt.pf ppf "(%a)" body () else body ppf ()
    | Unop (op, e) ->
        let s = match op with Neg -> "-" | Not -> "not " in
        let body ppf () = Fmt.pf ppf "%s%a" s (expr 7) e in
        if prec > 7 then Fmt.pf ppf "(%a)" body () else body ppf ()
    | Binop (op, a, b) ->
        let p, s = binop_info op in
        let lhs_prec =
          match op with
          | Eq | Neq | Lt | Le | Gt | Ge -> p + 1
          | Add | Sub | Mul | Div | And | Or | Union | Monus -> p
        in
        let body ppf () =
          Fmt.pf ppf "%a %s %a" (expr lhs_prec) a s (expr (p + 1)) b
        in
        if prec > p then Fmt.pf ppf "(%a)" body () else body ppf ()
    | If (c, t, e) ->
        let body ppf () =
          Fmt.pf ppf "if %a then %a else %a" (expr 0) c (expr 0) t (expr 0) e
        in
        if prec > 0 then Fmt.pf ppf "(%a)" body () else body ppf ()
    | Let (x, e, b) ->
        let body ppf () =
          Fmt.pf ppf "let %s = %a in %a" x (expr 0) e (expr 0) b
        in
        if prec > 0 then Fmt.pf ppf "(%a)" body () else body ppf ()

  and list ppf es = Fmt.(list ~sep:(any ", ") (expr 0)) ppf es
  and seq ppf es = Fmt.(list ~sep:(any "; ") (expr 0)) ppf es

  and qual ppf = function
    | Ast.Gen (p, e) -> Fmt.pf ppf "%a <- %a" pat p (expr 4) e
    | Ast.Filter e -> expr 3 ppf e

  and pat ppf = function
    | Ast.PVar x -> Fmt.string ppf x
    | PWild -> Fmt.string ppf "_"
    | PConst v -> value ppf v
    | PTuple ps -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") pat) ps
end

(* -- generators ------------------------------------------------------------ *)

open QCheck.Gen

(* letters, the characters IQL string literals escape, and the quote the
   repository codec escapes in names *)
let gen_text =
  string_size ~gen:(oneofl [ 'a'; 'Z'; ' '; '\''; '\\'; '\n'; '\r'; '\t'; '"' ])
    (int_bound 6)

let gen_float =
  oneof
    [
      oneofl [ 0.0; -0.0; 3.0; -2.5; 1e-7; 1e21; -123456789.0; Float.infinity ];
      float;
    ]

let gen_value =
  let scalar =
    oneof
      [
        return Value.Unit;
        (bool >|= fun b -> Value.Bool b);
        (int_range (-1000) 1000 >|= fun i -> Value.Int i);
        (gen_float >|= fun f -> Value.Float f);
        (gen_text >|= fun s -> Value.Str s);
      ]
  in
  let rec value n =
    if n = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            list_size (int_range 0 3) (value (n - 1)) >|= fun vs ->
            Value.Tuple vs );
          ( 1,
            list_size (int_range 0 3) (pair (value (n - 1)) (int_range 1 3))
            >|= fun b -> Value.Bag b );
        ]
  in
  value 3

let gen_scheme =
  let name = oneofl [ "protein"; "t"; "org:name"; "x_1" ] in
  let args = list_size (int_range 1 3) name in
  oneof
    [
      (name >|= Scheme.table);
      (pair name name >|= fun (t, c) -> Scheme.column t c);
      (let* language = oneofl [ "sql"; "xml"; "rdf" ]
       and* construct = oneofl [ "table"; "column"; "element"; "attribute" ]
       and* args in
       return (Scheme.make ~language ~construct args));
    ]

let gen_ty =
  let rec ty n =
    let leaf =
      oneof
        [
          oneofl Types.[ TUnit; TBool; TInt; TFloat; TStr ];
          (small_nat >|= fun n -> Types.TVar n);
        ]
    in
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 1,
            list_size (int_range 1 3) (ty (n - 1)) >|= fun ts -> Types.TTuple ts
          );
          (1, ty (n - 1) >|= fun t -> Types.TBag t);
        ]
  in
  ty 3

(* the parser tests' generator, plus the constructs it leaves out: Range,
   unary operators, the other binary operators, Any, constant patterns
   and arbitrary constants *)
let gen_ast =
  let sub = Test_iql_parser.gen_expr in
  let rec ast n =
    if n = 0 then sub
    else
      let ast = ast (n - 1) in
      frequency
        [
          (3, sub);
          (1, pair ast ast >|= fun (l, u) -> Ast.Range (l, u));
          ( 1,
            let* op = oneofl Ast.[ Neg; Not ] and* e = ast in
            return (Ast.Unop (op, e)) );
          ( 2,
            let* op = oneofl Ast.[ Sub; Div; Neq; Le; Gt; Ge; And; Or; Monus ]
            and* a = ast
            and* b = ast in
            return (Ast.Binop (op, a, b)) );
          ( 1,
            let* v = gen_value and* head = ast in
            return
              (Ast.Comp
                 ( head,
                   [ Ast.Gen (Ast.PTuple [ Ast.PConst v; Ast.PWild ], Ast.Any);
                     Ast.Filter (Ast.Const v) ] )) );
          (1, gen_scheme >|= fun s -> Ast.Range (Ast.SchemeRef s, Ast.Any));
        ]
  in
  ast 2

(* -- properties ------------------------------------------------------------ *)

let agrees name gen print to_string reference =
  QCheck.Test.make ~name ~count:500 (QCheck.make ~print gen) (fun x ->
      let want = Fmt.to_to_string reference x and got = to_string x in
      got = want
      || QCheck.Test.fail_reportf "printed %S, the reference %S" got want)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      agrees "scheme printer matches the Format reference" gen_scheme
        Scheme.to_string Scheme.to_string Reference.scheme;
      agrees "value printer matches the Format reference" gen_value
        Value.to_string Value.to_string Reference.value;
      agrees "type printer matches the Format reference" gen_ty
        Types.to_string Types.to_string Reference.ty;
      agrees "IQL printer matches the Format reference" gen_ast
        Ast.to_string Ast.to_string (Reference.expr 0);
    ]
