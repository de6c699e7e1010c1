(** Bench-history regression detection.

    Compares the metric samples of a fresh bench run against a committed
    baseline (the last full run in BENCH_history.jsonl) and classifies
    every metric's drift against percentage thresholds.  Deterministic metrics (counters,
    span counts, histogram observation counts) are {e gated}: any drift
    beyond tolerance fails the CI bench-regression job, because on a
    fixed dataset they must reproduce exactly.  Wall-clock metrics
    (latency percentiles, experiment wall time) are reported but only
    gated when [gate_wall] is on — shared CI runners make small timing
    drift meaningless, while the default 75% threshold still lets a
    genuine 2x slowdown surface loudly in the report. *)

type kind =
  | Count  (** deterministic: counters, span counts, histogram [n] *)
  | Wall  (** timing: milliseconds, percentiles *)

type sample = {
  experiment : string;  (** e.g. ["E-T1"] *)
  metric : string;  (** e.g. ["spans"], ["repository.find_path"] *)
  value : float;
  kind : kind;
}

type verdict =
  | Steady
  | Improved
  | Regressed
  | New_metric  (** in current, absent from baseline *)
  | Missing_metric  (** in baseline, absent from current *)

type finding = {
  f_experiment : string;
  f_metric : string;
  f_kind : kind;
  f_baseline : float;  (** [nan] for {!New_metric} *)
  f_current : float;  (** [nan] for {!Missing_metric} *)
  f_change_pct : float;  (** signed; [nan] when not comparable *)
  f_verdict : verdict;
  f_gate : bool;  (** true when this finding fails the CI gate *)
}

type config = {
  count_pct : float;  (** drift tolerance for {!Count} metrics *)
  wall_pct : float;  (** drift tolerance for {!Wall} metrics *)
  gate_wall : bool;  (** gate {!Wall} regressions too (off by default) *)
}

val default_config : config
(** [{count_pct = 10.0; wall_pct = 75.0; gate_wall = false}]. *)

val diff : ?config:config -> baseline:sample list -> sample list -> finding list
(** [diff ~baseline current] pairs samples by [(experiment, metric)].  A sample missing from one
    side yields {!New_metric}/{!Missing_metric}; {!Missing_metric} on a
    {!Count} metric is gated (a probe silently vanished).  Findings are
    sorted: gated first, then by absolute drift, descending. *)

val gate_failures : finding list -> finding list

val to_text : finding list -> string
(** Human report: the gate summary line, then one row per non-[Steady]
    finding (and a count of steady metrics). *)
