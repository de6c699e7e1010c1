(** IQL runtime values.

    IQL is a functional query language over collections with {e bag}
    semantics: the extent of every schema object is a bag of tuples, and
    the default derivation of a global schema object's extent is the bag
    union of its contributing extents (paper, Section 2.1).

    Bags are kept in a canonical form - elements sorted by {!compare}, each
    with a strictly positive multiplicity - so that structural equality of
    values coincides with bag equality. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Tuple of t list
  | Bag of (t * int) list
      (** canonical: strictly ascending elements, multiplicities >= 1 *)

val compare : t -> t -> int
(** Total order: constructor rank first, then structural comparison.
    Used as the bag element order. *)

val equal : t -> t -> bool
val to_buffer : Buffer.t -> t -> unit
(** Appends the IQL literal form: floats as [%g], strings quoted with
    {!escape_string}'s escapes, bags as [\[v; w*n\]] with multiplicity
    suffixes.  The one printer; {!to_string} and {!pp} are derived from
    it. *)

val to_string : t -> string
val pp : t Fmt.t

val escape_string : string -> string
(** The inner text of an IQL string literal for the given string:
    quotes, backslashes and control characters are [\ ]-escaped so that
    the lexer reads the exact string back.  Strings that need no
    escaping render as themselves. *)

val is_canonical : t -> bool
(** Checks the bag invariant recursively (used by property tests). *)

(** Canonical bag operations.  All functions expect and preserve the
    canonical form. *)
module Bag : sig
  type elt = t
  type nonrec t = (t * int) list

  val empty : t
  val is_empty : t -> bool

  val of_list : elt list -> t
  (** O(n log n): sorts and merges duplicates. *)

  val of_weighted_list : (elt * int) list -> t
  (** Builds a canonical bag from arbitrary (element, count) pairs -
      unsorted, duplicated and non-positive counts allowed (entries whose
      total count is not positive are dropped).  O(n log n); this is what
      comprehension evaluation accumulates into. *)

  val to_list : t -> elt list
  (** Expands multiplicities; ascending order. *)

  val singleton : elt -> t
  val add : ?count:int -> elt -> t -> t
  val cardinal : t -> int
  (** Total number of elements, counting multiplicity. *)

  val distinct_cardinal : t -> int
  val multiplicity : elt -> t -> int
  val mem : elt -> t -> bool

  val union : t -> t -> t
  (** Additive bag union [++]: multiplicities add. *)

  val monus : t -> t -> t
  (** Bag difference [--]: multiplicities subtract, floored at zero. *)

  val inter : t -> t -> t
  (** Minimum of multiplicities. *)

  val distinct : t -> t
  (** All multiplicities set to 1. *)

  val sub_bag : t -> t -> bool
  (** [sub_bag a b] iff every element's multiplicity in [a] is at most its
      multiplicity in [b]. *)

  val map : (elt -> elt) -> t -> t
  val filter : (elt -> bool) -> t -> t
  val fold : (elt -> int -> 'a -> 'a) -> t -> 'a -> 'a
  (** Folds over distinct elements with their multiplicities. *)

  val equal : t -> t -> bool

  (** {2 Weighted lists}

      The two walks the operations above are built from, generic over the
      weight an element carries: its multiplicity here, its multiplicity
      and annotation in an annotated evaluator ({!Eval.Make}). *)

  val canonical :
    ('w -> 'w -> 'w) -> ('w -> bool) -> (elt * 'w) list -> (elt * 'w) list
  (** [canonical plus positive pairs] sorts [pairs], adds the weights of
      equal elements with [plus] and keeps the elements whose total weight
      is [positive].  O(n log n). *)

  val merge :
    ('w option -> 'w option -> 'w option) ->
    (elt * 'w) list ->
    (elt * 'w) list ->
    (elt * 'w) list
  (** [merge f a b] walks two canonical lists in step: an element gets
      [f] of its weights in [a] and in [b] ([None] where absent) and is
      kept when that is [Some].  O(n + m). *)
end

val bag_of_list : t list -> t
(** Convenience: [Bag (Bag.of_list xs)]. *)

val tuple2 : t -> t -> t
val tuple3 : t -> t -> t -> t
