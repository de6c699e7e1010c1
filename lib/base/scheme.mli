(** Schemes identify schema objects, following AutoMed's
    [<< M, m, s1, ..., sn >>] convention: a modelling language [M], a
    construct kind [m] of that language, and a list of textual arguments.

    For the relational language used throughout the paper, a table [t] is
    identified by [<< sql, table, t >>] and a column [c] of [t] by
    [<< sql, column, t, c >>].  As in the paper, the language and construct
    may be elided when printing if the context is unambiguous. *)

type t = private {
  language : string;  (** modelling language, e.g. ["sql"] *)
  construct : string; (** construct kind, e.g. ["table"] or ["column"] *)
  args : string list; (** identifying arguments, e.g. [["protein"; "organism"]] *)
}

val make : ?language:string -> ?construct:string -> string list -> t
(** [make args] builds a scheme.  [language] defaults to ["sql"].
    [construct] defaults to ["table"] for one argument and ["column"] for
    two; pass it explicitly for any other arity.
    @raise Invalid_argument if [args] is empty. *)

val table : string -> t
(** [table t] is [<< sql, table, t >>]. *)

val column : string -> string -> t
(** [column t c] is [<< sql, column, t, c >>]. *)

val language : t -> string
val construct : t -> string
val args : t -> string list

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_buffer : Buffer.t -> t -> unit
(** Appends the printed form: elided [<<protein,organism>>] when the
    scheme belongs to the relational language, full
    [<<xml,element,...>>] otherwise.  The one printer; {!to_string} and
    {!pp} are derived from it. *)

val to_string : t -> string
val pp : t Fmt.t

val of_string : string -> (t, string) result
(** Parses both the elided and the full printed forms. *)

val rename : string -> t -> t
(** [rename n s] replaces the last argument of [s] with [n] (renaming a
    table renames the table name, renaming a column the column name). *)

val prefix : string -> t -> t
(** [prefix p s] prefixes the first argument with [p ^ ":"]: used when
    forming federated schemas so that object provenance is visible and
    same-named objects from different schemas do not clash. *)

val unprefix : t -> (string * t) option
(** Inverse of {!prefix}: [unprefix (prefix p s) = Some (p, s)]. *)

val is_prefixed : t -> bool

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
