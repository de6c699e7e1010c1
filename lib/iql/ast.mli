(** Abstract syntax of IQL, the functional query language of the AutoMed
    system.  The concrete syntax follows the paper: comprehensions
    [\[e | q1; ...; qn\]] whose qualifiers are generators [pat <- source]
    and boolean filters; tuple construction [{e1, ..., en}]; references to
    schema object extents [<<t>>] and [<<t,c>>]; and the bounding
    expressions [Range ql qu], [Void] and [Any] used by extend/contract
    transformations. *)

module Scheme = Automed_base.Scheme

type binop =
  | Add | Sub | Mul | Div
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Union  (** [++]: additive bag union *)
  | Monus  (** [--]: bag difference *)

type unop = Neg | Not

type expr =
  | Const of Value.t  (** scalar literals only; bags are built via [EBag] *)
  | Var of string
  | SchemeRef of Scheme.t
  | Tuple of expr list
  | EBag of expr list  (** bag literal [\[e1; e2; ...\]] *)
  | Comp of expr * qual list  (** [\[head | quals\]] *)
  | App of string * expr list  (** builtin application, e.g. [count(e)] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | If of expr * expr * expr
  | Let of string * expr * expr
  | Range of expr * expr  (** [Range lower upper] *)
  | Void  (** the empty collection: universal lower bound *)
  | Any  (** the largest collection of the type: universal upper bound *)

and qual = Gen of pat * expr | Filter of expr

and pat =
  | PVar of string
  | PWild
  | PConst of Value.t
  | PTuple of pat list

val equal : expr -> expr -> bool

val schemes : expr -> Scheme.Set.t
(** All schema objects whose extents the expression references. *)

val size : expr -> int
(** Number of AST nodes — the complexity measure reported by telemetry
    probes and query-processor errors. *)

val vars : expr -> string list
(** Free variables, each listed once, in first-occurrence order. *)

val subst_schemes : (Scheme.t -> expr option) -> expr -> expr
(** Replaces each [SchemeRef s] for which the function returns [Some e]
    by [e].  Substituted expressions are assumed closed (their only free
    references are schemes), which holds for transformation queries. *)

val rename_scheme : from_:Scheme.t -> to_:Scheme.t -> expr -> expr

val pat_vars : pat -> string list

val is_range_void_any : expr -> bool
(** True for the query [Range Void Any] - the "no information" bound whose
    transformations the paper counts as trivial. *)

val scheme_ref : Scheme.t -> expr
val str : string -> expr
val int : int -> expr

val to_buffer : Buffer.t -> expr -> unit
(** Appends the precedence-aware printed form, which re-parses to an
    equal AST.  The one printer; {!to_string} and {!pp} are derived
    from it. *)

val to_string : expr -> string
val pp : expr Fmt.t
