(** Zero-dependency instrumentation: hierarchical spans, named counters
    and histograms, and a pluggable sink interface.

    The library is designed around one invariant: {b when no sink is
    installed, every probe costs a single branch} (a match on the global
    sink reference).  Attribute lists are passed as thunks so that no
    string formatting happens on the fast path, and counter/histogram
    probes that need a computed value should be guarded with {!active}.

    Probes are process-global and single-threaded (like the rest of the
    system): spans installed by {!with_span} nest via an internal stack,
    so a sink sees a properly bracketed begin/end event stream.

    Timing uses a pluggable clock (default: wall clock) whose readings
    are clamped to be monotonically non-decreasing, so span durations are
    never negative even if the wall clock steps backwards.  Tests install
    a deterministic fake clock with {!set_clock}. *)

(** {1 Events and sinks} *)

type event =
  | Span_begin of {
      id : int;  (** unique within one sink installation *)
      parent : int option;
      name : string;
      ts : float;  (** clock seconds *)
      attrs : (string * string) list;
    }
  | Span_end of {
      id : int;
      name : string;
      ts : float;
      attrs : (string * string) list;
          (** attributes attached with {!annotate} while the span ran *)
    }
  | Count of { name : string; delta : int }
  | Observe of { name : string; value : float }

type sink = {
  emit : event -> unit;
  flush : unit -> unit;  (** called by {!uninstall} *)
}

val null_sink : sink
(** Swallows everything (useful to measure probe overhead). *)

val install : sink -> unit
(** Makes the sink the destination of all probes.  A previously
    installed sink is flushed before being replaced, so its buffered
    events are never silently dropped. *)

val uninstall : unit -> unit
(** Flushes and removes the installed sink, if any. *)

val active : unit -> bool
(** True while a sink is installed.  Guard for probes whose payload is
    expensive to compute (e.g. a bag cardinality). *)

val installed : unit -> sink option
(** The currently installed sink, if any.  A scoped measurement that
    must not steal events from an enclosing one combines the two with
    {!tee}: [with_sink (match installed () with Some o -> tee mine o
    | None -> mine) f]. *)

val tee : sink -> sink -> sink
(** [tee a b] forwards every event to both sinks; [flush] flushes
    both, [a] first. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f], then flushes [s] and
    restores the previously installed sink (if any) — exception-safe. *)

(** {1 Probes} *)

val with_span :
  ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  The span ends (and is
    emitted) when [f] returns or raises.  [attrs] is only forced when a
    sink is installed. *)

val annotate : string -> string -> unit
(** Attaches a key/value attribute to the innermost active span; no-op
    without a sink or outside any span. *)

val current_span_id : unit -> int option
(** The id of the innermost active span ([None] without a sink or
    outside any span).  Provenance annotations record it so an answer
    tuple links back into the exported Chrome trace. *)

val count : ?by:int -> string -> unit
(** Increments a named counter (default by 1). *)

val observe : string -> float -> unit
(** Records one observation of a named histogram. *)

(** {1 Clock} *)

val wall_clock : unit -> float
(** The default clock ([Unix.gettimeofday]). *)

val set_clock : (unit -> float) -> unit
(** Replaces the clock, e.g. with a deterministic counter in tests.
    Readings are still clamped monotonic per sink installation. *)

(** {1 Memory sink} *)

module Memory : sig
  type span = {
    id : int;
    parent : int option;
    name : string;
    start : float;  (** clock seconds *)
    dur : float;  (** seconds *)
    attrs : (string * string) list;  (** begin attrs @ annotations *)
  }

  type histo = { n : int; sum : float; min : float; max : float }

  type quantiles = { q50 : float; q95 : float; q99 : float }
  (** Nearest-rank percentiles estimated from a bounded reservoir (512
      samples, Vitter's algorithm R).  Exact while a histogram has seen
      at most 512 observations; an unbiased uniform-sample estimate
      beyond that.  The replacement stream is seeded from the histogram
      name, so snapshots are deterministic across runs. *)

  type t

  val create : unit -> t
  val sink : t -> sink

  val spans : t -> span list
  (** Completed spans ordered by (start, id) — deterministic under a
      deterministic clock. *)

  val counters : t -> (string * int) list
  (** Aggregated counter totals, sorted by name. *)

  val histograms : t -> (string * histo) list
  (** Aggregated histograms, sorted by name. *)

  val counter : t -> string -> int
  (** A single counter's total (0 when never incremented). *)

  val find_spans : t -> string -> span list
  (** Completed spans with the given name, in {!spans} order. *)

  val quantiles : t -> string -> quantiles option
  (** p50/p95/p99 of a histogram's observations ([None] when the
      histogram has never been observed). *)

  val reset : t -> unit
end

(** {1 Line-oriented JSON sink} *)

module Jsonl : sig
  val sink : (string -> unit) -> sink
  (** [sink write] renders every event as one JSON object per line and
      hands each line (newline included) to [write]. *)

  val to_channel : out_channel -> sink
  (** Writes lines to a channel; [flush] flushes the channel. *)
end

(** {1 Metric snapshots} *)

module Metrics : sig
  type t = {
    spans : int;  (** number of completed spans *)
    counters : (string * int) list;
    histograms : (string * Memory.histo) list;
    quantiles : (string * Memory.quantiles) list;
        (** reservoir percentiles, one entry per observed histogram *)
  }

  val of_memory : Memory.t -> t

  val quantiles_of : t -> string -> Memory.quantiles option

  val to_text : t -> string
  (** Human-readable multi-line summary. *)

  val to_tsv : t -> string
  (** One metric per line: [kind<TAB>name<TAB>fields...]; histogram
      lines end with the p50/p95/p99 fields. *)

  val to_json : t -> Microjson.t
  (** A single JSON object:
      [{"spans":n,"counters":{..},"histograms":{name:{"n":..,"sum":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}}}]. *)
end
