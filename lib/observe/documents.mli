(** The JSON documents of [automed-cli explain --json] and
    [automed-cli status --json], built as values and printed with
    {!Automed_telemetry.Microjson.to_string}. *)

module Microjson = Automed_telemetry.Microjson
module Telemetry = Automed_telemetry.Telemetry
module Processor = Automed_query.Processor

val explain :
  schema:string ->
  query:string ->
  Processor.explain ->
  Processor.annotated ->
  Processor.completeness option ->
  Telemetry.Memory.t ->
  Microjson.t
(** The whole story of one query: [{"schema", "query", "optimized",
    "plan", "tuples", "completeness", "stages", "metrics"}].  A plan node
    is [{"schema", "object", "stored", "rows", "cached", "pathways"}] and
    each of its pathways [{"from", "steps", "decision", "reason",
    "children"}]; a tuple is [{"value", "count", "lineage", "mac"}], its
    lineage exactly the {!Automed_provenance.Lineage.to_json} form the
    digest was computed over; [completeness] is [null] outside degraded
    mode; [stages] lists the recorded spans with start and duration in
    ms. *)

val status :
  Health.report -> Telemetry.Metrics.t -> top:(string * int) list -> Microjson.t
(** {!Health.to_json} plus ["counters"] (the [top] counters, by name)
    and ["latency"] (p50/p95/p99 of every histogram). *)
