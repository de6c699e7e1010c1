(** The paper's Section 3 case study, intersection-schema methodology.

    Replays the query-driven incremental integration: 26 user-defined
    transformations across the iterations that make queries 1-7 answerable
    (6 for query 1, +1 for query 2, +1 for query 3, +15 for queries 4-5,
    +3 for query 6; queries 5 and 7 need no new concepts). *)

module Repository = Automed_repository.Repository
module Workflow = Automed_integration.Workflow

type step = {
  label : string;  (** e.g. ["query 1: UProtein + accession_num"] *)
  enables : int list;  (** the case-study queries this step unlocks *)
  manual : int;  (** user-defined transformations in this step *)
}

type run = {
  workflow : Workflow.t;
  steps : step list;  (** in execution order *)
  total_manual : int;  (** 26 *)
}

val execute :
  ?resilience:Automed_resilience.Resilience.t ->
  Repository.t ->
  (run, string) result
(** Expects the three source schemas to be wrapped already (see
    {!Sources.wrap_all}).  Builds the initial federated schema and runs
    all iterations.  [resilience] is handed to the workflow's query
    processor (see {!Workflow.start}). *)

val intersection_names : string list
(** The intersection/extension schema names created, in order. *)
