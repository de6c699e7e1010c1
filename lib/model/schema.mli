(** High-level schemas: named sets of schema objects (schemes), each with
    an optional extent type.

    A schema is the unit that transformations and pathways operate on.
    Its HDM representation is derived on demand through the Model
    Definitions Repository.  Two schemas are {e union-compatible}
    (and can be connected by an [ident] transformation) when they contain
    syntactically identical object sets. *)

module Scheme = Automed_base.Scheme

type info = { extent_ty : Automed_iql.Types.ty option }

type t
(** Immutable. *)

val create : string -> t
val name : t -> string
val rename : string -> t -> t

val add_object :
  ?extent_ty:Automed_iql.Types.ty -> Scheme.t -> t -> (t, string) result
(** Validates the scheme against the MDR; fails if the object exists. *)

val remove_object : Scheme.t -> t -> (t, string) result

val rename_object : Scheme.t -> Scheme.t -> t -> (t, string) result
(** Fails unless both schemes denote the same construct kind, the source
    exists and the target does not. *)

val mem : Scheme.t -> t -> bool
val find : Scheme.t -> t -> info option
val extent_ty : Scheme.t -> t -> Automed_iql.Types.ty option
val objects : t -> Scheme.t list
(** Sorted. *)

val object_count : t -> int

val restrict : Scheme.Set.t -> t -> t
(** Keeps only the objects in the set. *)

val fold : (Scheme.t -> info -> 'a -> 'a) -> t -> 'a -> 'a

val typing : t -> Automed_iql.Types.scheme_typing
(** Scheme-typing function for the IQL type checker. *)

val hdm : t -> (Automed_hdm.Hdm.graph, string) result

val same_objects : t -> t -> bool
(** Syntactic identity of the object sets: the precondition of [ident]. *)

val of_objects :
  string -> (Scheme.t * Automed_iql.Types.ty option) list -> (t, string) result

val pp : t Fmt.t
val pp_brief : t Fmt.t
