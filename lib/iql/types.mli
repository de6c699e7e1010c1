(** A lightweight structural type checker for IQL.

    Catches the common mapping mistakes before a query is ever attached to
    a transformation: arity mismatches between generator patterns and the
    extents they draw from, comparisons between incompatible types, and
    non-collection operands to [++]/[--].

    Types are first-order with unification variables; there is no
    polymorphism beyond the implicit generalisation of literals.  [Any]
    and [Void] have an unconstrained collection type. *)

type ty =
  | TUnit
  | TBool
  | TInt
  | TFloat
  | TStr
  | TTuple of ty list
  | TBag of ty
  | TVar of int  (** unification variable (only in inferred types) *)

val to_buffer : Buffer.t -> ty -> unit
(** Appends the printed form ([int], [{str,float}], [\[t\]], ['t3]) that
    {!of_string} reads back.  The one printer; {!to_string} and {!pp}
    are derived from it. *)

val to_string : ty -> string
val pp : ty Fmt.t

val of_string : string -> (ty, string) result
(** Parses the printed form of variable-free types: [int], [float],
    [str], [bool], [unit], tuples [{t1,t2}] and bags [\[t\]]. *)

val tuple_row : ty list -> ty
(** [tuple_row tys] is [TBag (TTuple tys)]: the type of an extent whose
    elements are tuples of the given component types. *)

type scheme_typing = Automed_base.Scheme.t -> ty option
(** Maps schema objects to their extent types. *)

type error = { message : string; offender : Ast.expr }

val pp_error : error Fmt.t

val infer :
  ?schemes:scheme_typing ->
  ?vars:(string * ty) list ->
  Ast.expr ->
  (ty, error) result
(** Infers the type of an expression.  Unresolved unification variables
    may remain in the result (e.g. for the empty bag). *)

val check_extent_query :
  schemes:scheme_typing -> expected:ty -> Ast.expr -> (unit, error) result
(** Checks that a transformation query produces the [expected] extent
    type.  [Range l u] checks both bounds against [expected]. *)
