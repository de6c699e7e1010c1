(** IQL evaluator.

    Evaluation is defined against an environment that resolves schema
    object references to their extents (bags of values).  Comprehension
    semantics are the standard bag-monad semantics: generators iterate
    with multiplicity, refutable patterns filter, and the head is
    collected into a bag whose multiplicities multiply along the nesting.

    [Void] evaluates to the empty bag.  [Range l u] evaluates to its lower
    bound [l]: the {e certain} answers (the paper uses lower bounds when a
    contracted object's extent cannot be derived precisely).  [Any] cannot
    be materialised and evaluating it is an error.

    Operands are evaluated left to right: in [a op b], [a] is evaluated
    (and, for [++]/[--], checked to be a collection) before [b], and
    [and]/[or] evaluate [b] only when [a] does not decide the answer.  So
    when both operands fail, the error reported is [a]'s.

    {2 One evaluator, two annotations}

    The rules are written once, over an {!instance}: what a value
    carries besides itself.  The plain instance carries nothing and is
    the reference semantics; the lineage instance
    ([Automed_provenance.Lineage.instance]) carries, for every value and
    every bag element, what it was derived from.  Multiplicity and
    lineage are two annotations of one evaluator, in the manner of Green,
    Karvounarakis and Tannen, "Provenance Semirings" (PODS 2007).  Where
    the rules join annotations:

    - a comprehension result joins the annotations of every generator
      element and every satisfied filter on its derivation path, the
      head's own, and what each generator source [carry]s; a
      rejecting filter and every generator source go to the result's
      ambient annotation;
    - [if] joins the condition's annotation into the branch taken;
      [and]/[or] join the operands they evaluated;
    - [a -- b] joins, per surviving element, both sides' occurrences, and
      the whole of [b] into the result's ambient (the subtrahend shaped
      the answer);
    - [distinct], [flatten] and [group] keep their argument's ambient;
      every other builtin and scalar operator joins everything its
      arguments were derived from.

    Forgetting the annotations of a result gives what the plain instance
    computes (the suite checks this for the lineage instance by
    property). *)

type error = { message : string; context : string list }

val pp_error : error Fmt.t

val match_pat : Ast.pat -> Value.t -> (string * Value.t) list option
(** [match_pat p v] is [Some bindings] when [v] matches [p]. *)

(** {1 Instances} *)

type 't annotation = {
  none : 't;  (** derived from nothing: a constant's annotation *)
  join : 't -> 't -> 't;
      (** derived from both; associative, commutative and idempotent,
          with unit [none] *)
  carry : 't -> 't;
      (** the part of a generator source's ambient annotation that every
          element the generator yields inherits *)
}
(** What annotated values carry: a join-semilattice, and what a
    generator passes on. *)

type 't annotated =
  | Scalar of Value.t * 't  (** a value that is not a collection *)
  | Bag of ((Value.t * (int * 't)) list * 't)
      (** canonical elements (strictly ascending in [Value.compare]), each
          with its multiplicity and annotation, and the bag's {e ambient}
          annotation: what shaped the bag as a whole, which survives when
          it is empty *)
(** A value with its annotations. *)

type ('t, 'w, 'b, 'v) instance =
  | Plain : (unit, int, Value.Bag.t, Value.t) instance
      (** no annotation: bags are [Value.Bag.t], elements weigh their
          multiplicity *)
  | Annotated :
      't annotation
      -> ('t, int * 't, (Value.t * (int * 't)) list * 't, 't annotated) instance
(** Which annotation an evaluation carries, with its annotations ['t],
    element weights ['w], bags ['b] and values ['v]. *)

(** {1 Environments} *)

type ('b, 'v) environment
(** Immutable evaluation environment of an instance with bags ['b] and
    values ['v]. *)

type env = (Value.Bag.t, Value.t) environment
(** The plain instance's environment. *)

val env :
  ?schemes:(Automed_base.Scheme.t -> 'b option) ->
  ?vars:(string * 'v) list ->
  unit ->
  ('b, 'v) environment

val bind : string -> 'v -> ('b, 'v) environment -> ('b, 'v) environment

(** {1 Evaluation} *)

val eval_with :
  ('t, 'w, 'b, 'v) instance ->
  ('b, 'v) environment ->
  Ast.expr ->
  ('v, error) result

val eval : env -> Ast.expr -> (Value.t, error) result
(** [eval_with Plain]. *)

val eval_exn : env -> Ast.expr -> Value.t
(** @raise Failure with the rendered error. *)

(** {1 Annotated values} *)

val none : ('t, 'w, 'b, 'v) instance -> 't

val forget : ('t, 'w, 'b, 'v) instance -> 'v -> Value.t
(** Drops the annotations. *)

val annotation : ('t, 'w, 'b, 'v) instance -> 'v -> 't
(** Everything the value was derived from: for a bag, its ambient
    annotation joined with every element's. *)

val cite : ('t, 'w, 'b, 'v) instance -> 't -> Value.Bag.t -> 'b
(** A plain bag whose every element, and the bag itself, carry the
    annotation. *)

val stamp : ('t, 'w, 'b, 'v) instance -> 't -> 'b -> 'b
(** Joins the annotation into every element and the ambient. *)

val union : ('t, 'w, 'b, 'v) instance -> 'b -> 'b -> 'b
(** The [++] rule: weights of equal elements add, ambients join. *)
