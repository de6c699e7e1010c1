(** The incremental integration workflow (paper Section 2.3).

    The workflow drives the pay-as-you-go process:

    + identify the extensional schemas to integrate;
    + create an initial federated schema over them - this is the first
      version of the global schema, and data services are available on it
      immediately;
    + select schemas and identify mappings into a new intersection schema
      (consulting the Schema Matching tool);
    + generate the intersection schema;
    + automatically combine it with the extensional schemas into a new
      version of the global schema (optionally dropping redundant
      objects);
    + test by running queries; repeat from step 3.

    Every global schema version remains registered (and queryable): the
    integration history is part of the dataspace. *)

module Schema = Automed_model.Schema
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Value = Automed_iql.Value
module Ast = Automed_iql.Ast

type iteration = {
  index : int;  (** 1-based iteration number *)
  description : string;
  outcome : Intersection.outcome;
  global_name : string;  (** the global schema version this produced *)
}

type evolution = {
  ev_index : int;  (** 1-based evolution number *)
  ev_description : string;
  ev_prev : string;  (** global version the evolution started from *)
  ev_next : string;  (** global version it produced *)
  ev_sources_touched : string list;
      (** source schemas whose data or shape the evolution changed —
          exactly the ones whose cache entries were invalidated *)
}
(** Audit record of one live schema evolution (source churn repaired
    into a new global version without re-running integration). *)

type t

val start :
  ?resilience:Automed_resilience.Resilience.t ->
  ?durable:Automed_durable.Durable.t ->
  ?simplify:bool ->
  Repository.t ->
  name:string ->
  sources:string list ->
  (t, string) result
(** Steps 1-2: registers the initial federated/global schema
    ["<name>_v0"] over the (already wrapped) source schemas.
    [resilience] is handed to the workflow's query processor, so every
    source fetch of {!run_query} runs under its policy.  [simplify]
    (default on) is handed there too: certified pathway simplification
    and reachability pruning; see {!Processor.create}.  [durable] must
    be a handle attached (see {!Automed_durable.Durable.attach}) to this
    same repository; each mutation already journals through the
    repository observer, and the workflow additionally fsyncs the
    journal after [start] and after every completed iteration, so a
    crash between iterations loses nothing. *)

val repository : t -> Repository.t
val processor : t -> Processor.t
val sources : t -> string list
val global_name : t -> string
(** Name of the current global schema version. *)

val version : t -> int
(** Number of the current global schema version ([<base>_v<version>]).
    Advanced by both {!integrate} iterations and {!evolve_version}
    evolutions. *)

val global_schema : t -> Schema.t
val iterations : t -> iteration list
(** Oldest first. *)

val evolve_version :
  ?description:string ->
  t ->
  sources_touched:string list ->
  repair:(prev:string -> next:string -> (unit, string) result) ->
  (evolution, string) result
(** One live schema evolution step.  Allocates the next global version
    name and hands both names to [repair], which must register the new
    version and the delta-sized pathways that define it (see
    {!Automed_evolution.Evolution} for the canonical repairs); every
    repository mutation it performs journals through the durable
    observer as usual.  On success the workflow advances to the new
    version, records the {!evolution} audit entry, invalidates exactly
    the cache entries tainted by [sources_touched] (untouched sources
    keep their cached extents — the incremental-repair guarantee), and
    fsyncs the journal so a crash immediately after the evolution
    replays it completely.  Fails without advancing the version when
    [repair] fails or did not register the new version. *)

val evolutions : t -> evolution list
(** Oldest first. *)

val note_source_added : t -> string -> unit
(** Adds a source schema to the workflow's extensional set, so later
    {!integrate} iterations federate it into new global versions
    (idempotent).  Called by the evolution operations; exposed for
    custom repairs. *)

val note_source_dropped : t -> string -> unit
(** Removes a source schema from the workflow's extensional set. *)

val integrate :
  ?drop_redundant:bool ->
  ?description:string ->
  t ->
  Intersection.spec ->
  (iteration, string) result
(** Steps 3-5 for a proper intersection between two or more sources. *)

val integrate_adhoc :
  ?drop_redundant:bool ->
  ?description:string ->
  t ->
  name:string ->
  Intersection.side ->
  (iteration, string) result
(** Steps 3-5 for an ad-hoc single-schema extension (footnote 8). *)

val run_query : t -> string -> (Value.t, Processor.error) result
(** Step 6: parse and evaluate IQL text over the current global schema. *)

val run_query_degraded :
  t -> string -> (Value.t * Processor.completeness, Processor.error) result
(** {!Processor.run_degraded} over the current global schema: sources
    that exhaust their resilience policy degrade the answer (and are
    reported) instead of failing it. *)

val run_query_provenance :
  ?key:string -> t -> string -> (Processor.annotated, Processor.error) result
(** {!Processor.run_provenance} over the current global schema: the
    bit-identical answer plus per-tuple lineage (cited source extents,
    pathway hops with simplification certificates, telemetry span ids)
    and a keyed tamper-evidence digest per tuple. *)

val explain_query : t -> string -> (Processor.explain, Processor.error) result
(** {!Processor.explain_plan} over the current global schema. *)

val answerable : t -> Ast.expr -> bool

val manual_steps : t -> int
(** Total user-defined transformations across all iterations: the
    integration effort metric of Section 3. *)

val auto_steps : t -> int

val suggestions :
  ?threshold:float -> t -> left:string -> right:string ->
  (Automed_matching.Matcher.suggestion list, string) result
(** Step 4 assistance: schema matching between two registered schemas. *)
