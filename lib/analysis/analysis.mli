(** Entry points of the static pathway/repository linter.

    The linter validates BAV pathways and the repository network without
    executing any transformation or query: it folds each pathway over a
    symbolic schema state, type-checks every embedded IQL query with
    {!Automed_iql.Types.infer} against the state at that step, and
    analyses the pathway algebra and the repository graph.  See
    {!Pathway_lint} and {!Network_lint} for the rule inventory, and the
    README "Static analysis" section for the user-facing documentation
    ([automed-cli lint]). *)

module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository

val lint_pathway :
  ?name:string -> Schema.t -> Transform.pathway -> Diagnostic.t list
(** {!Pathway_lint.lint}: every diagnostic for one pathway checked
    against a starting schema. *)

val lint_repository :
  ?root:string ->
  ?covered:string list ->
  ?journaled:bool ->
  Repository.t ->
  Diagnostic.t list
(** {!Network_lint.lint}: every registered pathway plus the network
    checks, sorted errors-first.  [covered] names the sources protected
    by a resilience policy and enables the [unprotected-source] warning;
    [journaled] states whether a durable journal is attached and enables
    the [unjournaled-repository] warning. *)

val install_gate : Repository.t -> unit
(** Opt-in validation gate: after this call,
    {!Repository.add_pathway} additionally rejects any pathway for which
    the linter reports error-severity diagnostics (warnings pass).  The
    error message carries the rule ids and step locations. *)

val remove_gate : Repository.t -> unit

type simplification =
  [ `Unchanged  (** no rewrite rule applied *)
  | `Simplified of Rewrite.outcome * Equiv.certificate
      (** simplified and certified equivalent *)
  | `Refused of Rewrite.outcome * string
      (** the rewrite engine produced a candidate the equivalence
          checker could not certify; the candidate must not be used *) ]

val simplify_certified :
  ?seed:int64 ->
  ?trials:int ->
  Schema.t ->
  Transform.pathway ->
  simplification
(** {!Rewrite.simplify} followed by {!Equiv.check}: the proof-checked
    simplification pipeline behind [automed analyze] and the lint
    autofixer.  A refusal is counted on the [analysis.rewrites_refused]
    telemetry counter (certifications on [analysis.rewrites_certified]). *)

val simplify_stored :
  ?seed:int64 ->
  ?trials:int ->
  Repository.t ->
  Transform.pathway ->
  simplification option
(** {!simplify_certified} of a stored pathway over the source it reads
    ([Repository.source_of]); [None] when that source is not
    registered.  A rewrite of a contribution that changes which source
    objects it names is refused: storing it would change what the
    contribution reads. *)

type fix = {
  pathway : string;  (** ["from -> to"] label *)
  steps_before : int;
  steps_after : int;
  applications : Rewrite.application list;
  quarantined : bool;
      (** the pathway was stranded by schema evolution (or still carried
          data of an evolved-away source) and was quarantined instead of
          simplified; see {!Quarantine} *)
  applied : (unit, string) result;
      (** [Ok ()] when the stored pathway was replaced through
          {!Repository.replace_pathway} (journaled via the repository
          observer); [Error] when certification or replacement failed *)
}

val fix_repository : ?seed:int64 -> ?trials:int -> Repository.t -> fix list
(** Two repair passes over every stored pathway, both through the
    repository API — so an attached write-ahead journal records each
    change as an [Op_replace_pathway].  First, pathways stranded by
    schema evolution (see {!Quarantine.check}) and unquarantined
    pathways from evolved-away sources are quarantined.  Then the
    remaining pathways are simplified, replacing the ones that both
    changed and certified.  Returns one record per pathway either pass
    touched (quarantined, certified or refused); untouched pathways are
    omitted. *)
