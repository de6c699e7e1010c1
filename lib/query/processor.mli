(** The query processor.

    Queries posed against any schema in the repository are answered by
    walking the pathway network down to the data source schemas whose
    extents are materialised (BAV query processing: the add/extend steps
    of a pathway provide GAV-style view definitions that are unfolded; a
    contracted object contributes its lower bound - certain answers).

    The extent of an object registered in several pathways' targets is the
    {e bag union} of the contributions (the paper's default derivation).

    Two interfaces are provided:

    - {!run} evaluates a query directly, materialising (and caching)
      intermediate extents;
    - {!reformulate} produces the unfolded query text over source schemas,
      with every residual reference qualified by its source schema name
      ([<<Pedro:protein>>]) so that same-named objects from different
      sources stay distinct.  Running the reformulated query against
      {!source_env} gives the same answer as {!run}.

    All entry points share one derivation walk.  Per pathway into a
    schema, one decision ([decide]) says whether the pathway is pruned
    by reachability, gives the object no definition, or defines it by
    an expression over its source schema; [contributions] collects the
    defined cases in pathway order, and a single stack guard rejects
    cycles in the pathway network.  The consumers differ only in what
    they do with a definition:

    - {!run} evaluates it, and {!run_provenance} evaluates it through
      the provenance-annotated shadow interpreter
      ({!Automed_provenance.Peval}), returning the bit-identical answer
      plus, per answer tuple, the {!Automed_provenance.Lineage.t} citing
      the stored extents, pathway hops and telemetry spans the tuple
      was derived from.  Both cache extents through the same [memo]
      discipline, in two tables;
    - {!reformulate} substitutes it into the query text;
    - {!explain_plan} records every decision without running the query:
      per source the reformulation tree, each reachability-pruning or
      no-definition decision with its reason, and cache state.  It
      fills no cache. *)

module Scheme = Automed_base.Scheme
module Ast = Automed_iql.Ast
module Value = Automed_iql.Value
module Repository = Automed_repository.Repository
module Resilience = Automed_resilience.Resilience
module Lineage = Automed_provenance.Lineage
module Peval = Automed_provenance.Peval

type t
(** A processor wraps a repository with an extent cache. *)

val create : ?resilience:Resilience.t -> Repository.t -> t
(** With [resilience], every stored-extent fetch of a source registered
    in that registry goes through {!Resilience.call} (retries, timeout,
    circuit breaker).  A fetch that exhausts its policy fails the query
    in {!run} and becomes a recorded skip in {!run_degraded}.

    Every stored pathway is replayed as stored.  Before its first replay
    the {!Automed_analysis.Reachability} pass computes, once, the set of
    target objects with a provably non-empty derivation through it; the
    processor skips replaying the pathway entirely for any other object.
    Certified rewriting ({!Automed_analysis.Analysis.simplify_certified})
    is not on the query path: it belongs to [automed analyze],
    [lint --fix] and compaction. *)

val repository : t -> Repository.t
val resilience : t -> Resilience.t option

val invalidate : t -> unit
(** Drops the extent cache (call after data or pathway changes). *)

val invalidate_source : t -> string -> unit
(** Drops every cache entry that incorporates data from the given source
    schema (directly or through derivation) — extent bags, provenance
    twins, and the memoised reachability live sets of pathways that
    start or end at the source — so a
    recovered, refreshed or {e evolved} source is re-analysed and
    re-fetched on the next query, while entries of untouched sources
    stay cached.  Partial bags computed while a source was skipped are
    never cached in the first place, so this is only needed after the
    source's data or shape changed.  Emits the counters
    [processor.invalidated.extents], [processor.invalidated.provenance]
    and [processor.invalidated.pinfo] with the number of entries
    dropped (the cache-hygiene regression tests pin both directions on
    these). *)

type error = {
  message : string;
  schema : string option;
      (** the schema the failing request was posed against *)
  expr_size : int option;
      (** AST size of the expression being evaluated when the error was
          raised (post-optimisation / reformulation) — a proxy for how
          far the query had been unfolded *)
}

val error : ?schema:string -> ?expr_size:int -> string -> error
(** Builds an error value; the optional context fields default to
    absent.  Exposed for code that adapts string errors into processor
    errors (e.g. the integration workflow). *)

val pp_error : error Fmt.t
(** Prints the message followed by the available context, e.g.
    [no extent for ... \[schema ispider_v6, reformulated size 42\]]. *)

val extent_of : t -> schema:string -> Scheme.t -> (Value.Bag.t, error) result
(** The derived extent of one schema object: bag union of the stored
    extent (if any) and the contribution of every pathway into the
    schema.  Extend/contract bounds contribute their lower bound. *)

val run : ?optimize:bool -> t -> schema:string -> Ast.expr -> (Value.t, error) result
(** Evaluates a query whose scheme references are objects of the given
    schema.  [optimize] (default [true]) reschedules comprehension
    qualifiers (filter push-down, selectivity-greedy generator order)
    before evaluation; pass [false] to evaluate the query verbatim. *)

(** {1 Provenance-annotated answers} *)

type annotated_tuple = {
  value : Value.t;  (** one distinct answer value *)
  count : int;  (** its bag multiplicity *)
  lineage : Lineage.t;  (** what it was derived from *)
  mac : string;
      (** keyed tamper-evidence digest of (value, lineage); see
          {!Lineage.sign} *)
}

type annotated = {
  result : Value.t;
      (** the plain answer — bit-identical to what {!run} returns for
          the same query *)
  tuples : annotated_tuple list;
      (** per-tuple lineage: one entry per distinct answer value (in
          the bag's canonical order), or a single entry for a scalar
          answer *)
  lineage : Lineage.t;
      (** answer-level lineage: everything any tuple cites, joined with
          the ambient lineage (cited-but-empty extents, pruned-free
          hops, degraded-mode skips) *)
}

val default_mac_key : string
(** Key used to sign tuples when [?key] is omitted. *)

val run_provenance :
  ?optimize:bool ->
  ?key:string ->
  t ->
  schema:string ->
  Ast.expr ->
  (annotated, error) result
(** Like {!run}, but through the lineage-carrying shadow interpreter.
    The [result] field is guaranteed bit-identical to {!run}'s answer:
    scalar operator semantics are delegated to the reference evaluator
    (see {!Automed_provenance.Peval}), and the suite checks the
    equivalence by property.  Annotated extents are cached separately
    (same tainting discipline as the plain cache), so interleaving
    plain and provenance runs is safe. *)

type completeness = {
  complete : bool;  (** no source was skipped *)
  sources_ok : string list;
      (** sources whose data is incorporated in the answer (fetched
          during this run or served from complete cached extents),
          sorted *)
  sources_skipped : (string * string) list;
      (** sources that contributed nothing to the answer, with the
          reason: faulty ones that exhausted their resilience policy,
          and evolved-away ones (see [sources_evolved]) *)
  sources_evolved : string list;
      (** the subset of skipped sources that were not faulty but
          {e evolved away} — retired by a live schema evolution.  Their
          absence is permanent: re-running will not recover their
          contribution, unlike a faulty skip. *)
  retries : int;  (** resilience retries spent during this run *)
  breaker_opens : int;  (** breaker trips during this run *)
  short_circuits : int;  (** fetches rejected by an open breaker *)
  source_impact : (string * int) list;
      (** per skipped source, how many answer tuples (counted with
          multiplicity) carry its skip marker in their lineage — i.e.
          flowed through a bag the source should have fed and so could
          have gained support from it.  Only {!run_degraded_provenance}
          fills this in; {!run_degraded} leaves it empty. *)
}
(** The completeness report of a degraded run: which sources answered,
    which were skipped and why, and what the resilience layer spent
    getting there. *)

val pp_completeness : completeness Fmt.t
(** Multi-line human-readable rendering, e.g.
    [DEGRADED (2 sources answered, 1 skipped)]. *)

val run_degraded :
  ?optimize:bool ->
  t ->
  schema:string ->
  Ast.expr ->
  (Value.t * completeness, error) result
(** Like {!run}, but a source fetch that exhausts its resilience policy
    degrades the answer instead of failing it: the source contributes
    nothing (its certain-answer lower bound) and is reported in the
    {!completeness} record.  Results computed with a skip are never
    cached, so a later run re-attempts the source.  Without a resilience
    registry (or with no faults) this returns exactly {!run}'s value with
    [complete = true]. *)

val run_degraded_provenance :
  ?optimize:bool ->
  ?key:string ->
  t ->
  schema:string ->
  Ast.expr ->
  (annotated * completeness, error) result
(** {!run_degraded} through the annotated interpreter.  A skipped
    source leaves a skip marker in the lineage of every tuple that
    flowed through a bag it should have fed; the completeness report's
    [source_impact] counts those tuples per skipped source, answering
    "how much of this degraded answer could the missing source have
    changed?". *)

val run_string : t -> schema:string -> string -> (Value.t, error) result
(** Parses and runs. *)

val reformulate : t -> schema:string -> Ast.expr -> (Ast.expr, error) result
(** Unfolds the query onto the data source schemas.  Residual references
    are schema-qualified. *)

(** {1 Explain: the plan story}

    {!explain_plan} walks the same reformulation recursion as {!run} and
    {!reformulate} but records decisions instead of evaluating: which
    objects are stored (and how many rows), which are cached, and — per
    pathway into each schema — whether the pathway was applied, pruned
    by reachability analysis (with the reason it provably cannot
    contribute), or yields no definition for the object.  It never
    fetches source data, so explaining a query is side-effect free
    (breakers are not exercised, caches are not filled). *)

type cache_state = Cache_hit | Cache_cold

type explain_pathway = {
  ep_from : string;  (** the pathway's source schema *)
  ep_steps : int;  (** step count of the stored pathway *)
  ep_decision : explain_decision;
}

and explain_decision =
  | Applied of explain_node list
      (** the pathway contributes; children are the source-schema
          objects its view definition reads *)
  | Pruned of string  (** reachability pruning, with the reason *)
  | No_definition of string
      (** the object is deleted/contracted along the pathway *)

and explain_node = {
  en_schema : string;
  en_object : Scheme.t;
  en_stored : bool;
  en_rows : int option;  (** stored extent cardinality, when stored *)
  en_cached : cache_state;
      (** whether a (plain or provenance) cached extent exists for this
          object right now *)
  en_pathways : explain_pathway list;
}

type explain = {
  ex_schema : string;
  ex_query : Ast.expr;  (** as posed *)
  ex_optimized : Ast.expr;  (** as evaluated (qualifier rescheduling) *)
  ex_roots : explain_node list;
      (** one node per schema object the optimized query references *)
}

val explain_plan :
  ?optimize:bool -> t -> schema:string -> Ast.expr -> (explain, error) result

val pp_explain_node : explain_node Fmt.t

val pp_explain : explain Fmt.t
(** Indented text rendering of the whole plan story (the CLI's
    [automed explain] default output). *)

val source_env : t -> Automed_iql.Eval.env
(** Environment resolving schema-qualified references ([<<S:t>>] or
    [<<S:t,c>>]) to stored extents; for evaluating reformulated queries. *)

val answerable : t -> schema:string -> Ast.expr -> bool
(** True when every referenced object exists in the schema and the query
    evaluates without error. *)

val translate :
  t -> from_schema:string -> to_schema:string -> Ast.expr -> (Ast.expr, error) result
(** Translates a query stated on one schema into an equivalent query on
    another schema connected to it through the pathway network (in either
    direction, since pathways reverse automatically - the peer-to-peer
    BAV reformulation of McBrien & Poulovassilis).  Objects that the
    target schema cannot derive are replaced by their certain-answer
    lower bound ([Void] when nothing is known), so the translated query
    under-approximates in the same way {!run} does. *)
