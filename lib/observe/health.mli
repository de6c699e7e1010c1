(** Repair-debt accounting and health classification.

    A long-lived dataspace accumulates {e repair debt}: every evolution
    chains another global version, dropped sources leave quarantined
    pathways behind, patched definitions degrade to [Void] bounds,
    journal bytes pile up until the next checkpoint, and churn
    invalidations throw cached work away.  None of that is visible in
    any single subsystem — this module walks the repository, workflow,
    resilience and durable state, prices each debt dimension, and
    classifies it against configurable ok/warn/critical thresholds.

    The report is the trigger input of the ROADMAP's compaction /
    re-integration scheduler: {!report.r_needs_reintegration} is true
    exactly when one of the pay-as-you-go debt indicators (chain depth,
    quarantined pathways, [Void]-degraded steps) has crossed its warn
    threshold, i.e. when composing the chain into one certified pathway
    (or re-running integration) would pay off. *)

module Repository = Automed_repository.Repository
module Workflow = Automed_integration.Workflow
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Telemetry = Automed_telemetry.Telemetry

type level = Good | Warn | Critical

val level_label : level -> string
(** ["ok"], ["warn"] or ["critical"]. *)

type thresholds = { warn : float; critical : float }

val classify : thresholds -> float -> level
(** Boundary semantics: [value >= critical] is [Critical], else
    [value >= warn] is [Warn], else [Good] — at-threshold values
    escalate (pinned by a test). *)

(** Per-indicator thresholds.  The defaults are calibrated against the
    shipped iSpider case study with debt priced on the current
    version's {e active surface} (see {!active_surface}): the
    integrated baseline classifies as ok on every indicator; the
    unmaintained E-E1 50-cycle churn run crosses the chain-depth and
    quarantine warn thresholds mid-run (cycles 13 and 19) and their
    critical thresholds near the end, with [Void]-step debt crossing
    warn on the longer 200-cycle unmaintained horizon (the E-H1 and
    E-M1 debt curves); the maintained E-M1 200-cycle run stays below
    warn throughout. *)
type config = {
  chain_depth : thresholds;
  quarantined : thresholds;
  void_degraded : thresholds;
  retired_sources : thresholds;
  journal_bytes : thresholds;
  breakers : thresholds;
  cache_churn : thresholds;
}

val default_config : config

type indicator = {
  i_name : string;
  i_value : float;
  i_unit : string;
  i_thresholds : thresholds;
  i_level : level;
  i_detail : string;  (** human context: names, states, breakdowns *)
}

type report = {
  r_global : string;  (** current global version name, or ["(none)"] *)
  r_version : int;  (** version-chain depth *)
  r_indicators : indicator list;
  r_overall : level;  (** max over the indicators *)
  r_needs_reintegration : bool;
}

(** {1 Debt walkers} (exposed for the bench harness's per-cycle curve
    and the maintenance scheduler) *)

val active_surface :
  Repository.t -> root:string -> Automed_transform.Transform.pathway list
(** The pathways a query rooted at schema [root] can route through: the
    transitive [pathways_into] closure.  Maintenance compaction rewires
    the current version around retired interiors, so debt priced on
    this surface can go back down — whole-repository counts only ever
    grow, because old versions (and their quarantines) stay registered
    and answerable forever. *)

val effective_chain_depth : Repository.t -> root:string -> int
(** Link hops from [root] back to its chain anchor, following
    non-contribution pathways between versions of the same global base
    (names in the [base_vN] convention).  An integration version has no
    incoming chain link, so the integrated baseline measures 0; each
    evolution adds a hop; compaction collapses the walk back to one. *)

val quarantined_pathways : ?root:string -> Repository.t -> int
(** Pathways in the all-[Void] quarantine shape; with [root], only
    those on that schema's {!active_surface}. *)

val void_degraded_steps : ?root:string -> Repository.t -> int
(** [Void]-lower-bound extend/contract steps in {e non-quarantined}
    pathways: definitions individually degraded to "no information"
    (by an evolution patch, or a deliberately unbounded federation
    step) without the whole pathway being quarantined.  With [root],
    only steps of pathways on that schema's {!active_surface}. *)

(** {1 Assessment} *)

val of_repository :
  ?config:config ->
  ?version:int ->
  ?global:string ->
  ?resilience:Resilience.t ->
  ?durable:Durable.t ->
  ?metrics:Telemetry.Metrics.t ->
  Repository.t ->
  report
(** The full walk.  [version]/[global] default to [0]/["(none)"];
    omitted subsystems contribute a zero-valued indicator (reported,
    so the dashboard shape is stable).  [metrics] supplies the
    cache-invalidation churn counters ([processor.invalidated.*]).
    When the [global] schema is registered, the three debt indicators
    are priced on its {!active_surface} and chain depth is
    {!effective_chain_depth}; otherwise the walk falls back to
    whole-repository counts and the raw [version] number. *)

val assess :
  ?config:config ->
  ?resilience:Resilience.t ->
  ?durable:Durable.t ->
  ?metrics:Telemetry.Metrics.t ->
  Workflow.t ->
  report
(** {!of_repository} over a workflow's repository, version and global
    name. *)

val to_text : report -> string
val to_json : report -> Automed_telemetry.Microjson.t
(** [{"global":..,"version":..,"overall":..,"needs_reintegration":..,
    "indicators":[{"name":..,"value":..,"unit":..,"warn":..,
    "critical":..,"level":..,"detail":..},..]}] *)
