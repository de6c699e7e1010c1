(** The mappings table of the Intersection Schema Tool (paper Section 2.3,
    step 4):

    "For each Intersection Schema, a mappings table is maintained by the
    Intersection Schema Tool, which shows the IQL query correspondences
    between objects in the Intersection Schema and the current global
    schema.  The Intersection Schema tool allows mappings to be added and
    edited by the data integrator."

    A [session] is the mutable editing state behind that table: entries
    are added, edited and removed; every edit is validated immediately
    (the source schema must contain the referenced objects, and the
    forward query must type-check against their extent types); suggested
    entries can be pre-filled from the Schema Matching tool.  [finish]
    freezes the table into an {!Intersection.spec}. *)

module Scheme = Automed_base.Scheme
module Repository = Automed_repository.Repository

type entry = {
  entry_id : int;
  target : Scheme.t;
  source_schema : string;
  forward : Automed_iql.Ast.expr;
  reverse : Automed_iql.Ast.expr option;
      (** the auto-derived reverse query, when the forward is invertible:
          what the tool shows on the second screen *)
  typed : bool;  (** whether the forward query type-checked *)
}

type session

val start : Repository.t -> name:string -> sources:string list -> (session, string) result
(** Begins editing an intersection named [name] between the given
    (registered) source schemas. *)

val add :
  session -> target:Scheme.t -> source:string -> forward:string -> (entry, string) result
(** Parses and validates a new mapping; IQL type errors are reported as
    [Error] but a well-formed yet untypeable query can be forced with
    {!add_unchecked}. *)

val add_unchecked :
  session -> target:Scheme.t -> source:string -> forward:string -> (entry, string) result
(** Like {!add} but records a type-check failure in [typed] instead of
    rejecting (the integrator may know better than the checker). *)

val edit : session -> int -> forward:string -> (entry, string) result
(** Replaces the forward query of an entry. *)

val set_reverse : session -> int -> reverse:string -> source_object:Scheme.t -> (unit, string) result
(** Overrides the reverse (delete) query for the entry's source object:
    the user-input path of the paper's footnote 7. *)

val remove : session -> int -> (unit, string) result
val entries : session -> entry list
(** In entry-id order. *)

val prefill :
  ?threshold:float -> session -> left:string -> right:string -> (entry list, string) result
(** Consults the Schema Matching tool and adds one tagging mapping per
    suggested correspondence (both sides), targeting fresh ["U" ^ name]
    objects.  Returns the entries added. *)

val finish : session -> (Intersection.spec, string) result
(** Freezes the table.  Fails when fewer than two sources have mappings
    (use {!finish_single} for an ad-hoc single-schema extension). *)

val finish_single : session -> (string * Intersection.side, string) result
(** Freezes a single-source table into the name and side for
    {!Intersection.extend_single}. *)
