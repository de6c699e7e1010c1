(** The pathway rewrite engine: sound static simplification.

    Applies the pathway-algebra identities that {!Pathway_lint} only
    reports ([rename-chain], [dead-step-pair]) plus step-order
    normalisation, producing a shorter pathway with the same semantics:
    identical symbolic final state, identical derived definitions (and so
    bit-identical query answers), in both directions of the pathway.

    Rules (each application is recorded as an auditable
    {!application}):

    {ul
    {- [drop-identity-step]: [id o o] is a no-op in both the schema fold
       and the definition replay.}
    {- [collapse-rename-chain]: [rename a b; ...; rename b c] with no
       intervening step mentioning [b] or [c] becomes [rename a c].}
    {- [cancel-rename-roundtrip]: the [a = c] case of the chain - both
       renames vanish.}
    {- [cancel-dead-pair]: [add]/[extend] of an object later removed by
       [delete]/[contract] with no intervening step mentioning it - both
       steps vanish.}
    {- [reorder-commuting-steps]: adjacent steps on disjoint scheme sets
       are sorted into the canonical rename, add, extend, delete,
       contract, id order.}}

    The engine only touches pathways whose per-step lint is free of
    error-severity diagnostics; anything else is returned unchanged with
    [eligible = false].  Simplification is meant to be {e proof-checked},
    not trusted: callers should certify the result with {!Equiv.check}
    before using it ({!Analysis.simplify_certified} and compaction
    refuse uncertified rewrites). *)

module Schema = Automed_model.Schema
module Transform = Automed_transform.Transform

type application = {
  rule : string;  (** rule id, e.g. ["collapse-rename-chain"] *)
  step : int;
      (** 1-based index of the first affected step, in the pathway as it
          stood when the rule fired *)
  detail : string;  (** human-readable description of the rewrite *)
}

type outcome = {
  pathway : Transform.pathway;  (** the simplified pathway *)
  applications : application list;  (** in application order; [] = no change *)
  eligible : bool;
      (** false when the input pathway had lint errors and was left
          untouched *)
}

val rules : (string * string) list
(** Rule ids with one-line descriptions, in the order the engine tries
    them. *)

val simplify : Schema.t -> Transform.pathway -> outcome
(** Simplifies the pathway against its source schema to a fixpoint.
    Never raises; an ineligible or already-minimal pathway comes back
    unchanged. *)

val pp_application : application Fmt.t
