(** Tuple-level lineage annotations (why-provenance at extent
    granularity).

    Every value flowing through the provenance-annotated answer path
    carries a lineage: the set of stored source extents it was derived
    from ({!atom}s), the pathway crossings the derivation went through
    ({!hop}s), the telemetry span ids of the fetches that produced the
    underlying rows (so a tuple links into the exported Chrome trace),
    and the sources whose skip — in a degraded run — may have deprived
    the tuple of further support.

    The granularity is the {e extent}: an atom cites a whole stored
    extent [(source schema, schema object)], not an individual row.
    This is the right grain for the paper's pay-as-you-go argument
    ("which sources does this answer rest on?") and gives the
    sufficiency property tested by the suite: re-evaluating a query
    with the environment restricted to exactly the extents cited by a
    tuple's lineage reproduces that tuple with its multiplicity
    (for queries in the positive fragment: comprehensions, filters,
    unions, aggregation over cited extents).

    Lineages form a join-semilattice under {!union}; all operations are
    pure and the internal sets are canonical, so {!equal} lineages
    render and sign identically. *)

module Scheme = Automed_base.Scheme
module Value = Automed_iql.Value

type atom = { source : string; extent : Scheme.t }
(** One stored extent: the [extent] object of source schema [source]. *)

type hop = {
  pathway : string;  (** pathway id, ["from->to"] *)
  steps : int;  (** step count of the stored pathway *)
}
(** One pathway crossing of the derivation. *)

type t

val empty : t
val is_empty : t -> bool

val atom : ?span:int -> source:string -> Scheme.t -> t
(** A lineage citing one stored extent, optionally tagged with the
    telemetry span id of the fetch that read it. *)

val skip : string -> t
(** A lineage recording that the named source was skipped by a degraded
    run (faulty or breaker-open) and could have contributed. *)

val skip_evolved : string -> t
(** The second skip-marker kind: the named source {e evolved away} (was
    dropped by a live schema evolution).  Unlike a faulty skip, the
    missing support is permanent — the source will not come back. *)

val union : t -> t -> t
val add_hop : hop -> t -> t

val only_skips : t -> t
(** The lineage restricted to its skip markers — what comprehension
    evaluation propagates from a generator's ambient lineage onto each
    generated tuple ("this tuple might have had more support"). *)

val atoms : t -> atom list
(** Sorted, distinct. *)

val hops : t -> hop list

val skipped : t -> string list
(** All skipped sources, of either kind. *)

val skipped_faulty : t -> string list
val skipped_evolved : t -> string list

val sources : t -> string list
(** Distinct source schemas cited by the atoms, sorted. *)

val cites_source : string -> t -> bool

val cites_skip : string -> t -> bool
(** True for a skip marker of either kind. *)

val equal : t -> t -> bool

val pp : t Fmt.t
(** Compact one-line rendering, e.g.
    [{Pedro:<<protein>>, UniProt:<<protein>>} via Pedro->g_v2[2/9|eq-3o-64t-r]]. *)

val to_json : t -> string
(** Canonical JSON object:
    [{"atoms":[{"source":..,"extent":..}..],"pathways":[..],"spans":[..],"skipped":[..],"evolved":[..]}]. *)

(** {1 Tamper evidence}

    A keyed MAC over the (value, lineage) pair — a 64-bit FNV-1a digest
    of the canonical rendering, keyed fore and aft.  This is tamper
    {e evidence} for audit trails (a forged or transplanted lineage no
    longer matches its tuple), not a cryptographic guarantee. *)

val sign : key:string -> Value.t -> t -> string
(** 16 hex digits. *)

val verify : key:string -> Value.t -> t -> string -> bool

(** {1 Lineage-annotated evaluation} *)

type bag = (Value.t * (int * t)) list * t
(** Elements with their multiplicity and lineage, and the ambient
    lineage: bag-level facts that survive when the bag is empty (a
    cited-but-empty extent, a pathway hop, a degraded-mode skip). *)

type value = t Automed_iql.Eval.annotated

val instance : (t, int * t, bag, value) Automed_iql.Eval.instance
(** Lineage as the annotation of the IQL evaluator
    ({!Automed_iql.Eval.eval_with}): union-based why-provenance at extent
    granularity.  A generator source's skip markers ({!only_skips}) are
    carried onto every element it yields.  Forgetting the lineage of a
    result gives the plain evaluator's answer. *)
