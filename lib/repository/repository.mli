(** The Schemas & Transformations Repository (STR).

    Stores all source, intermediate and integrated schemas together with
    the pathways between them, and the materialised extents of data source
    schema objects (put there by wrappers).  The pathway network is the
    backbone of query reformulation: every registered pathway is usable in
    both directions because pathways reverse automatically. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform
module Value = Automed_iql.Value

type t
(** Mutable repository. *)

type validator = Schema.t -> Transform.pathway -> (unit, string) result
(** An extra admission check run by {!add_pathway} after the built-in
    well-formedness test: the pathway and its registered source schema.
    Returning [Error] rejects the registration. *)

val create : unit -> t

val set_validator : t -> validator option -> unit
(** Installs (or, with [None], removes) the opt-in validation gate.  The
    static analyser provides one — see
    [Automed_analysis.Analysis.install_gate]. *)

val validator : t -> validator option

type schema_alter =
  | Alter_add_object of Scheme.t * Automed_iql.Types.ty option
  | Alter_drop_object of Scheme.t
  | Alter_rename_object of Scheme.t * Scheme.t
      (** One shape change to a registered schema: the repository-level
          vocabulary of live source evolution (a table or attribute
          added, dropped, or renamed mid-lifetime). *)

type op =
  | Op_add_schema of Schema.t
  | Op_add_pathway of Transform.pathway
  | Op_add_contribution of Transform.pathway
      (** like [Op_add_pathway] but admitted with subset target agreement *)
  | Op_replace_pathway of Transform.pathway * Transform.pathway
      (** old pathway, new pathway (same endpoints, same position) *)
  | Op_set_extent of string * Scheme.t * Value.Bag.t
  | Op_remove_schema of string
  | Op_rename_schema of string * string
  | Op_alter_schema of string * schema_alter
  | Op_retire_source of string
  | Op_remove_pathway of Transform.pathway
      (** certified removal of a pathway that contributes nothing (see
          {!remove_pathway}) *)
  | Op_compact_pathway of
      Transform.pathway * Transform.pathway * Transform.pathway list
      (** retired chain link, shortcut replacing it, rerouted
          contributions — one atomic maintenance transaction (see
          {!compact_chain}) *)
      (** A committed repository mutation, in the vocabulary of the
          public API.  [Op_add_pathway] implies the derived target schema
          (replaying {!add_pathway} re-derives it), so the op stream is a
          complete redo log of the repository state. *)

val set_observer : t -> (op -> unit) option -> unit
(** Installs (or removes) the mutation observer.  It runs immediately
    after each successful mutation, before the mutating call returns —
    the write-ahead journal of [Automed_durable.Durable] attaches here.
    An observer that raises aborts the caller (the mutation itself has
    already been applied in memory). *)

val observed : t -> bool
(** True while a mutation observer (e.g. a durable journal) is
    attached.  The static analyser's [unjournaled-repository] rule keys
    off this. *)

val add_schema : t -> Schema.t -> (unit, string) result
(** Fails if a schema with the same name is registered. *)

val schema : t -> string -> Schema.t option
val schema_exn : t -> string -> Schema.t
val mem_schema : t -> string -> bool
val schemas : t -> Schema.t list
(** Sorted by name. *)

val remove_schema : t -> string -> (unit, string) result
(** Fails while pathways still reference the schema. *)

val rename_schema : t -> string -> string -> (unit, string) result
(** [rename_schema t old new] renames a schema (and the keys of its
    stored extents).  Fails if [old] is unknown, [new] is taken, or a
    pathway still references [old]. *)

val add_pathway : t -> Transform.pathway -> (unit, string) result
(** The source schema must be registered and the pathway must be
    well-formed over it.  If the target schema is not yet registered, the
    result of applying the pathway is registered under the target name;
    if it is registered, its object set must agree with the application
    result. *)

val add_contribution : t -> Transform.pathway -> (unit, string) result
(** Registers a pathway that {e feeds} an existing target schema rather
    than defining it: both endpoint schemas must already be registered,
    and the subset rule holds on both sides.  The pathway reads only the
    source objects its steps name ({!source_of}); every other source
    object is implicitly contracted with [(Void, Any)].  The object set
    it derives must be a subset of the target's (instead of
    {!add_pathway}'s exact agreement).  This is the delta-sized building
    block of schema evolution — wiring a new or grown source into an
    already-built global schema without a trivial extend for every other
    target object or a trivial contract for every other source object.
    Contributions participate in reformulation and network search
    exactly like ordinary pathways. *)

val is_contribution : t -> Transform.pathway -> bool
val contributions : t -> Transform.pathway list
(** Contributions in insertion order. *)

val source_of :
  ?contribution:bool -> t -> Transform.pathway -> Schema.t option
(** The registered source schema as the pathway reads it: for a
    contribution ([contribution] defaults to {!is_contribution}), only
    the objects its steps name ({!Transform.footprint}); the whole
    schema otherwise.  Every place that applies a pathway to its source
    goes through this. *)

val replace_pathway :
  t -> old:Transform.pathway -> Transform.pathway -> (unit, string) result
(** [replace_pathway t ~old p] swaps a stored pathway (matched
    structurally) for a replacement with the same endpoints, keeping its
    position in the network-search order.  The replacement runs the same
    admission checks as {!add_pathway} (well-formedness, validation gate,
    target-schema agreement — or subset agreement when [old] is a
    contribution, in which case the replacement stays a contribution)
    and notifies the observer with [Op_replace_pathway], so a
    write-ahead journal records the change — this is how the lint
    autofixer commits certified simplifications and how evolution
    quarantines stranded pathways. *)

val remove_pathway : t -> Transform.pathway -> (unit, string) result
(** Removes a stored pathway (matched structurally; contribution status
    is cleared along with it) and notifies the observer with
    [Op_remove_pathway].  The repository checks only that the pathway is
    registered — {e answer preservation is the caller's certificate}:
    maintenance reclamation only removes pathways proven inert
    ({!Automed_analysis.Quarantine.is_inert}: every definition is the
    empty [Void] contribution), so every query on every schema version
    stays bit-identical.  Target schemas are never unregistered by this
    call. *)

val compact_chain :
  t ->
  retired:Transform.pathway ->
  shortcut:Transform.pathway ->
  reroutes:Transform.pathway list ->
  (unit, string) result
(** One atomic chain-compaction transaction: swaps the stored
    non-contribution pathway [retired] (matched structurally, keeping
    its network-search position) for [shortcut] — same target schema,
    any registered source schema — and registers each of [reroutes] as a
    contribution into that same target.  The shortcut runs
    {!add_pathway}'s admission checks (well-formedness, validation gate,
    exact target agreement), each reroute runs
    {!add_contribution}'s (subset agreement).  All-or-nothing: any
    failing check leaves the repository untouched.  The observer is
    notified once, with [Op_compact_pathway], so the whole maintenance
    transaction is a single journal record and a crash can only land
    before or after it — never between the swap and the reroutes, where
    the target's derivation would be transiently wrong (bag union is
    additive, so a half-applied rewiring double- or under-counts
    multiplicities). *)

val restore_pathway :
  t -> contribution:bool -> Transform.pathway -> (unit, string) result
(** Trusted registration used by state loading ({!Serialize.load}) when
    the checked {!add_pathway}/{!add_contribution} admission fails: a
    saved state records pathways that were live when written, including
    ones a raw {!alter_schema} had already stranded, and re-validation
    must not turn such a state into an unrecoverable load error.  Only
    the endpoint schemas are required to exist; the [stranded-pathway]
    lint flags (and [lint --fix] quarantines) anything that no longer
    replays. *)

val alter_schema : t -> string -> schema_alter -> (unit, string) result
(** Applies one shape change to a registered schema in place, re-keying
    or dropping stored extents as needed.  Deliberately permitted while
    pathways reference the schema (that is the live-evolution scenario);
    pathways stranded by the change are repaired by the evolution layer
    or flagged by the linter's [stranded-pathway] rule. *)

val retire_source : t -> string -> (unit, string) result
(** Tombstones an evolved-away source: keeps the schema and its pathways
    (old global-schema versions stay well-defined) but drops its stored
    extents and marks it so the processor reports "source evolved away"
    instead of fetching.  Fails if the schema is unknown or already
    retired. *)

val retired : t -> string -> bool
val retired_sources : t -> string list
(** Sorted. *)

val derive_schema : t -> Transform.pathway -> (Schema.t, string) result
(** [add_pathway] followed by looking up the target. *)

val pathways : t -> Transform.pathway list
val pathways_from : t -> string -> Transform.pathway list
(** Pathways stored with the given source, in insertion order. *)

val pathways_into : t -> string -> Transform.pathway list
(** Pathways stored with the given target, in insertion order. *)

val find_path : t -> src:string -> dst:string -> (Transform.pathway, string) result
(** Shortest composite pathway (BFS over the network, using stored
    pathways and their automatic reverses). *)

val set_extent : t -> schema:string -> Scheme.t -> Value.Bag.t -> (unit, string) result
(** Materialises the extent of a data source schema object.  The schema
    and object must exist. *)

val stored_extent : t -> schema:string -> Scheme.t -> Value.Bag.t option
(** Only consults materialised extents; no derivation. *)

val has_stored_extents : t -> string -> bool
(** True when at least one object of the schema has a stored extent. *)

val stored_extent_count : t -> int
(** Materialised extents across all schemas (the status dashboard's
    inventory line). *)

val stored_row_count : t -> int
(** Total rows across all materialised extents. *)

val pp_summary : t Fmt.t
