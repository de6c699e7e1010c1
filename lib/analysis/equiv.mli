(** The independent pathway-equivalence checker.

    Certifies that a candidate pathway (typically a {!Rewrite} output)
    has the same semantics as the original, without sharing any logic
    with the rewrite engine: equivalence is re-derived from the pathway
    semantics themselves.  Four checks must all pass, in both directions
    of the pathway (stored pathways are used reversed by the network
    search):

    + identical endpoints;
    + identical symbolic final state ({!Automed_transform.Transform.apply}
      on both, compared object-by-object including extent types);
    + identical derived definitions (an independent symbolic replay of
      each pathway's add/extend/rename steps, compared per object with
      {!Automed_iql.Ast.equal});
    + differential evaluation: every derived definition is evaluated on
      both sides over randomly generated source extents and the answers
      must be bit-identical (a definition absent on one side is the
      empty contribution [Void]).

    The lint autofixer and chain compaction refuse any rewrite this
    checker cannot certify, so static simplification is proof-checked
    rather than trusted. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform

val defs :
  Schema.t -> Transform.pathway -> (Ast.expr Scheme.Map.t, string) result
(** The definition each target-schema object gets by symbolically
    replaying the pathway over the source schema: the view definitions
    query reformulation unfolds.  Extend contributes its lower bound.
    Fails on a step that references an object absent at that point. *)

type certificate = {
  objects : int;  (** forward definitions compared *)
  trials : int;  (** differential-evaluation rounds run *)
  reverse_checked : bool;
      (** whether the reverse-direction definitions were comparable
          (they are skipped only when both reverse replays fail
          identically) *)
}

val check :
  ?seed:int64 ->
  ?trials:int ->
  ?extents:(int -> (Scheme.t * Value.Bag.t) list) ->
  ?syntactic:bool ->
  Schema.t ->
  original:Transform.pathway ->
  candidate:Transform.pathway ->
  (certificate, string) result
(** [check src ~original ~candidate] proves the two pathways equivalent
    over source schema [src], or says why not.  [trials] (default 2)
    differential rounds are evaluated over extents generated from [seed]
    (deterministic); [extents] overrides generation — it is given the
    trial index and must cover the source objects (e.g. qcheck-generated
    extents in the property tests).  [syntactic:false] skips the
    per-object syntactic comparison so the differential evaluator can be
    exercised on its own (used by the mutation tests). *)
