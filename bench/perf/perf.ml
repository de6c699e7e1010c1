(* The repository benchmark: one iSpider workload per process.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--smoke]

   Each workload builds its dataspace from the seed (set-up, repeated and
   timed), then drives one closed-loop client — the next operation starts
   when the previous one returns — checking every answer against the
   ground truth computed directly from the generated data.  [--seconds]
   fixes the amount of work, not a deadline: the run makes as many rounds
   as the workload completes in that time on the reference machine (a
   2-core x86 container), so the end state — repository size, journal,
   live heap — is the same on a faster or slower commit.

   Without tracing it prints the end-to-end metrics.  With [--trace 1]
   every other round of the loop runs under an aggregating telemetry sink
   (counters and self time per span; the first traced round is also kept
   in full and written as a Chrome trace to [.perf/trace-NAME.json]),
   then each layer is probed on the workload's own repository, and the
   per-layer metrics are printed.  Layer timings come from the untraced
   rounds and the probes; counts and self times from the traced rounds.

   Output: one JSON line per metric, then (last line) the summary object
   [{"correct":..,"attempted":..,"failed":..,"metrics":{..}}].  The exit
   code is 1 when any operation failed or returned a wrong answer. *)

module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Telemetry = Automed_telemetry.Telemetry
module Chrome_trace = Automed_telemetry.Chrome_trace
module Microjson = Automed_telemetry.Microjson
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Journal = Automed_durable.Journal
module Evolution = Automed_evolution.Evolution
module Maintain = Automed_maintain.Maintain
module Health = Automed_observe.Health
module Lineage = Automed_provenance.Lineage

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* -- command line ---------------------------------------------------------- *)

type workload = Cold_session | Warm_scan | Faulty_lineage | Churn

let workloads =
  [ ("cold-session", Cold_session); ("warm-scan", Warm_scan);
    ("faulty-lineage", Faulty_lineage); ("churn", Churn) ]

let usage =
  "usage: perf.exe --workload (cold-session|warm-scan|faulty-lineage|churn) \
   [--seed N] [--seconds S] [--trace 0|1] [--smoke]"

type opts = {
  name : string;
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** one set-up, one round, short probes *)
}

let parse_args argv =
  let num conv flag v =
    match conv v with
    | Some n -> n
    | None -> die "%s: bad value %S\n%s" flag v usage
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> (
        match List.assoc_opt w workloads with
        | Some wl -> go { o with name = w; workload = wl } rest
        | None -> die "unknown workload %S\n%s" w usage)
    | "--seed" :: n :: rest ->
        go { o with seed = num int_of_string_opt "--seed" n } rest
    | "--seconds" :: s :: rest ->
        go { o with seconds = num float_of_string_opt "--seconds" s } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | a :: _ -> die "unexpected argument %S\n%s" a usage
  in
  let o =
    go
      { name = ""; workload = Cold_session; seed = 42; seconds = 10.0;
        trace = false; smoke = false }
      (List.tl (Array.to_list argv))
  in
  if o.name = "" then die "--workload is required\n%s" usage;
  if o.seconds <= 0.0 then die "--seconds must be positive";
  o

(* -- measurement helpers --------------------------------------------------- *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

let ms f = snd (time f)

(* the benchmark's own span around each call into the system; a single
   branch when no sink is installed *)
let span = Telemetry.with_span

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* nearest-rank percentile *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = ratio (float_of_int a) (float_of_int n)

(* the OCaml heap still reachable from [root] after a full major
   collection, MiB: what the dataspace holds, without the collector's
   timing in it *)
let heap_live_mb root =
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity root);
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* -- the oracle ------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("perf: FAILED " ^ what)
  end

type query = { q : Queries.query; ast : Ast.expr; truth : Value.Bag.t }

let label x = Printf.sprintf "Q%d" x.q.Queries.number

let bag_is x = function
  | Ok (Value.Bag b) -> Value.Bag.equal b x.truth
  | Ok _ | Error _ -> false

let scale = function
  | Cold_session | Churn -> 30
  | Faulty_lineage -> 100
  | Warm_scan -> 300

(* How many independently seeded dataspaces a run cycles through.  The
   warm-scan cost is dominated by one join whose input size varies from
   seed to seed (query 6 reads the peptide hits of one db search), so a
   run averages over five datasets; the other workloads vary little. *)
let datasets = function
  | Warm_scan -> 5
  | Cold_session | Faulty_lineage | Churn -> 1

(* the oracle: ground truth computed directly from the generated data,
   outside every timed region (generation is deterministic per seed) *)
let oracle w seed =
  let dataset =
    Sources.generate ~seed:(Int64.of_int seed) ~scale:(scale w) ()
  in
  List.map
    (fun (q : Queries.query) ->
      { q; ast = Parser.parse_exn q.Queries.global_text;
        truth = q.Queries.ground_truth dataset })
    Queries.all

(* -- set-up ---------------------------------------------------------------- *)

type env = {
  repo : Repository.t;
  wf : Workflow.t;
  durable : Durable.t;
  io : Counting_vfs.t;  (** the journal's in-memory store, instrumented *)
  res : Resilience.t option;
  proc : Processor.t;  (** the long-lived processor of the warm workloads *)
  queries : query list;  (** with this dataset's ground truth *)
}

type phase_times = {
  generate_ms : float;
  wrap_ms : float;
  integrate_ms : float;
}

let fault_rate = 0.2

(* The default retry policy without its circuit breaker: on the virtual
   clock nothing advances time while a breaker is open, so one trip would
   degrade every later query of the run (it did at seeds 2 and 4). *)
let fault_policy = { Resilience.Policy.default with breaker_threshold = 0 }

(* One query through the workload's query path.  Returns the verdict as
   a thunk, so the caller can time the call without the check. *)
let ask w env ~degraded x =
  let schema = Workflow.global_name env.wf in
  match w with
  | Cold_session ->
      (* one `automed query` invocation: a fresh processor per query *)
      let p =
        span "perf.processor.create" (fun () -> Processor.create env.repo)
      in
      let r =
        span "perf.processor.run" (fun () -> Processor.run p ~schema x.ast)
      in
      fun () -> bag_is x r
  | Warm_scan ->
      let r =
        span "perf.processor.run" (fun () ->
            Processor.run env.proc ~schema x.ast)
      in
      fun () -> bag_is x r
  | Faulty_lineage -> (
      let r =
        span "perf.processor.run_degraded_provenance" (fun () ->
            Processor.run_degraded_provenance env.proc ~schema x.ast)
      in
      fun () ->
        match r with
        | Error _ -> false
        | Ok (ann, c) ->
            (* a degraded answer is not a failure, but its lineage must
               still verify; a complete one must be exact *)
            if not c.Processor.complete then incr degraded;
            List.for_all
              (fun (t : Processor.annotated_tuple) ->
                Lineage.verify ~key:Processor.default_mac_key t.value
                  t.lineage t.mac)
              ann.Processor.tuples
            && ((not c.Processor.complete)
               || Value.equal ann.Processor.result (Value.Bag x.truth)))
  | Churn ->
      let r =
        span "perf.workflow.run_query" (fun () ->
            Workflow.run_query env.wf x.q.Queries.global_text)
      in
      fun () -> bag_is x r

let ok_or_die what = function
  | Ok v -> v
  | Error e -> die "set-up: %s: %s" what e

(* One dataspace: generate, journal, wrap, integrate, then one warm-up
   pass of the seven queries through the workload's query path; faults
   are injected after it. *)
let build w ~seed queries =
  let dataset, generate_ms =
    time (fun () ->
        span "perf.sources.generate" (fun () ->
            Sources.generate ~seed:(Int64.of_int seed) ~scale:(scale w) ()))
  in
  let repo = Repository.create () in
  let io = Counting_vfs.wrap (Counting_vfs.memory ()) in
  let durable =
    ok_or_die "attach"
      (span "perf.durable.attach" (fun () -> Durable.attach io.vfs repo))
  in
  let res =
    match w with
    | Faulty_lineage ->
        Some
          (Resilience.create ~seed:(Int64.of_int seed) ~policy:fault_policy
             ())
    | Cold_session | Warm_scan | Churn -> None
  in
  let (), wrap_ms =
    time (fun () ->
        ok_or_die "wrap"
          (span "perf.sources.wrap_all" (fun () ->
               Sources.wrap_all ?resilience:res repo dataset)))
  in
  let run, integrate_ms =
    time (fun () ->
        ok_or_die "integrate"
          (span "perf.intersection_run.execute" (fun () ->
               Intersection_run.execute ?resilience:res repo)))
  in
  let wf = run.Intersection_run.workflow in
  let proc =
    match w with
    | Churn -> Workflow.processor wf
    | Cold_session | Warm_scan | Faulty_lineage ->
        Processor.create ?resilience:res repo
  in
  let env = { repo; wf; durable; io; res; proc; queries } in
  List.iter
    (fun x -> ignore (ask w env ~degraded:(ref 0) x : unit -> bool))
    queries;
  Option.iter
    (fun r ->
      Resilience.inject r ~source:Sources.pedro_name
        (Resilience.Fault.rate fault_rate))
    res;
  (env, { generate_ms; wrap_ms; integrate_ms })

(* The workload's set-up, [reps] times: returns the dataspaces of the last
   repetition, each repetition's wall time, and every build's phases. *)
let setup w ~seeds ~reps =
  let oracles = List.map (oracle w) seeds in
  let rec go n envs walls phases =
    if n = 0 then (Array.of_list envs, walls, phases)
    else begin
      let t0 = now () in
      let built = List.map2 (fun seed qs -> build w ~seed qs) seeds oracles in
      let wall = now () -. t0 in
      go (n - 1) (List.map fst built) (wall :: walls)
        (List.map snd built @ phases)
    end
  in
  go reps [] [] []

(* -- the closed loop ------------------------------------------------------- *)

(* rounds per second on the reference machine: [--seconds] times this is
   the run's round count (each round is the seven queries) *)
let rounds_per_second = function
  | Cold_session -> 5.0
  | Warm_scan -> 50.0
  | Faulty_lineage -> 18.0
  | Churn -> 20.0

type state = {
  envs : env array;  (** round [r] runs on [envs.(r mod length)] *)
  env : env;  (** the first: churn, recovery and the layer probes use it *)
  scheduler : Maintain.Scheduler.t;  (** default policy, as in E-M1 *)
  mutable cycle : int;  (** next churn-script cycle *)
  mutable rounds : int;
  mutable checkpointed : bool;  (** the last tick of [scheduler] did *)
}

(* what one stretch of operations measured *)
type samples = {
  mutable query_ms : float list;
  degraded : int ref;
  mutable wall_s : float;
  mutable evolve : (string * float) list;  (** delta kind, ms *)
  mutable patched : int;  (** pathways the evolutions patched *)
  mutable tick : (string * float) list;  (** heaviest action fired, ms *)
  mutable assess_ms : float list;
  mutable cycles : int;
  mutable cycle_bytes : int;  (** store bytes written by the cycles *)
  mutable cycle_appends : int;
  mutable cycle_syncs : int;
  mutable cycle_vfs_ms : float;
}

let samples () =
  { query_ms = []; degraded = ref 0; wall_s = 0.0; evolve = []; patched = 0;
    tick = []; assess_ms = []; cycles = 0; cycle_bytes = 0;
    cycle_appends = 0; cycle_syncs = 0; cycle_vfs_ms = 0.0 }

let fired action events =
  List.exists (fun e -> e.Maintain.e_action = action) events

let tick_class events =
  if fired Maintain.Reclaim events then "reclaim"
  else if fired Maintain.Compact events then "compact"
  else if fired Maintain.Checkpoint events then "checkpoint"
  else "idle"

(* one churn-script step on the write path: evolve, one maintenance
   tick, then the health assessment a status dashboard would poll *)
let write_cycle st s scheduler =
  let io = st.env.io in
  let bytes0 = Counting_vfs.bytes_written io and appends0 = io.append.calls in
  let syncs0 = io.sync.calls and vfs_ms0 = Counting_vfs.ms io in
  let delta = Churn.delta st.cycle in
  let what = Printf.sprintf "cycle %d %s" st.cycle (Churn.kind delta) in
  st.cycle <- st.cycle + 1;
  let r, evolve_ms =
    time (fun () ->
        span "perf.evolution.evolve" (fun () ->
            Evolution.evolve st.env.wf delta))
  in
  (match r with
  | Ok (_, plan) ->
      check what true;
      s.patched <- s.patched + List.length plan.Evolution.pl_pathways_patched
  | Error e -> check (what ^ ": " ^ e) false);
  s.evolve <- (Churn.kind delta, evolve_ms) :: s.evolve;
  let r, tick_ms =
    time (fun () ->
        span "perf.maintain.tick" (fun () ->
            Maintain.Scheduler.tick ~durable:st.env.durable scheduler
              st.env.wf))
  in
  (match r with
  | Ok events ->
      check (what ^ ": tick") true;
      s.tick <- (tick_class events, tick_ms) :: s.tick;
      if scheduler == st.scheduler then
        st.checkpointed <- fired Maintain.Checkpoint events
  | Error e -> check (what ^ ": tick: " ^ e) false);
  s.assess_ms <-
    ms (fun () ->
        span "perf.health.assess" (fun () ->
            Health.assess ~durable:st.env.durable st.env.wf))
    :: s.assess_ms;
  s.cycles <- s.cycles + 1;
  s.cycle_bytes <- s.cycle_bytes + Counting_vfs.bytes_written io - bytes0;
  s.cycle_appends <- s.cycle_appends + io.append.calls - appends0;
  s.cycle_syncs <- s.cycle_syncs + io.sync.calls - syncs0;
  s.cycle_vfs_ms <- s.cycle_vfs_ms +. Counting_vfs.ms io -. vfs_ms0

let round w st s =
  let env = st.envs.(st.rounds mod Array.length st.envs) in
  let t0 = now () in
  (match w with
  | Faulty_lineage ->
      span "perf.processor.invalidate_source" (fun () ->
          Processor.invalidate_source env.proc Sources.pedro_name)
  | Churn -> write_cycle st s st.scheduler
  | Cold_session | Warm_scan -> ());
  List.iter
    (fun x ->
      let verdict, q_ms =
        time (fun () -> ask w env ~degraded:s.degraded x)
      in
      s.query_ms <- q_ms :: s.query_ms;
      check (label x) (verdict ()))
    env.queries;
  s.wall_s <- s.wall_s +. now () -. t0;
  st.rounds <- st.rounds + 1

(* [target] rounds; churn then runs on to a round whose tick
   checkpointed (at most 50 more), so the store recovery reopens does not
   depend on where the run ended in the checkpoint period.  With [trace =
   Some (first, rest)] every other round runs under a sink — [first] for
   the first such round, [rest] after — and lands in the second samples
   record. *)
let drive w st ~target ~trace =
  let plain = samples () and traced = samples () in
  let rounds = ref 0 in
  let settled () =
    w <> Churn || st.checkpointed || !rounds >= target + 50
  in
  while !rounds < target || not (settled ()) do
    (match trace with
    | Some (first, rest) when !rounds mod 2 = 1 ->
        let sink = if !rounds = 1 then first else rest in
        Telemetry.with_sink sink (fun () -> round w st traced)
    | Some _ | None -> round w st plain);
    incr rounds
  done;
  (plain, traced)

let target o =
  if o.smoke then 1
  else
    max 2
      (int_of_float (Float.ceil (o.seconds *. rounds_per_second o.workload)))

(* [reps] recoveries of the journal store; the last recovered repository
   must answer all seven queries *)
let recover st ~reps =
  let runs =
    List.init reps (fun _ ->
        time (fun () ->
            span "perf.durable.recover" (fun () ->
                Durable.recover st.env.io.vfs)))
  in
  let replayed =
    match fst (List.nth runs (reps - 1)) with
    | Error e ->
        check ("recover: " ^ e) false;
        0
    | Ok (d, report) ->
        let p = Processor.create (Durable.repository d) in
        let schema = Workflow.global_name st.env.wf in
        List.iter
          (fun x ->
            check (label x ^ " after recovery")
              (bag_is x (Processor.run p ~schema x.ast)))
          st.env.queries;
        Durable.detach d;
        report.Durable.replayed
  in
  (median (List.map snd runs), replayed)

(* -- layer probes (traced run) --------------------------------------------- *)

(* Per query, on a fresh processor, each layer is isolated by the cache
   state it runs against: the first explain pays pathway analysis and a
   second one does not; the first run after them pays extent derivation
   and source fetch with analysis warm, a second run only IQL evaluation;
   the first provenance run pays annotated derivation from the same
   cold-extent state as the first plain run.  Each figure is the mean
   over the seven queries, median over [reps] passes. *)
type query_probe = {
  first_touch_ms : float;
  parse_ms : float;
  reformulate_ms : float;
  extent_ms : float;
  eval_ms : float;
  annotate_ms : float;
}

let probe_queries st ~reps =
  let schema = Workflow.global_name st.env.wf in
  let pass () =
    let sum = Array.make 6 0.0 in
    let add i v = sum.(i) <- sum.(i) +. v in
    List.iter
      (fun x ->
        let p = Processor.create ?resilience:st.env.res st.env.repo in
        let explain () =
          ms (fun () -> Processor.explain_plan p ~schema x.ast)
        in
        let fresh = explain () in
        add 0 (fresh -. explain ());
        add 1 (ms (fun () -> Parser.parse x.q.Queries.global_text));
        let run () = Processor.run_degraded p ~schema x.ast in
        let cold, cold_ms = time run in
        check (label x ^ " probe")
          (match cold with
          | Ok (v, c) ->
              (not c.Processor.complete) || Value.equal v (Value.Bag x.truth)
          | Error _ -> false);
        add 3 cold_ms;
        add 4 (ms run);
        add 5
          (ms (fun () -> Processor.run_degraded_provenance p ~schema x.ast)
          -. cold_ms);
        add 2 (ms (fun () -> Processor.reformulate p ~schema x.ast)))
      st.env.queries;
    Array.map (fun t -> t /. float_of_int (List.length st.env.queries)) sum
  in
  let passes = List.init reps (fun _ -> pass ()) in
  let m i = median (List.map (fun a -> a.(i)) passes) in
  { first_touch_ms = m 0; parse_ms = m 1; reformulate_ms = m 2;
    extent_ms = m 3; eval_ms = m 4; annotate_ms = m 5 }

(* A maintenance policy with low thresholds, so that a ten-cycle probe
   fires every scheduler action (compaction, reclamation, checkpoint) on
   any workload's repository. *)
let probe_policy =
  let t warn = { Health.warn; critical = 3.0 *. warn } in
  {
    Maintain.default_policy with
    Maintain.reclaim_cooldown = 3;
    health =
      {
        Health.default_config with
        Health.chain_depth = t 4.0;
        retired_sources = t 2.0;
        journal_bytes = t 262144.0;
      };
  }

(* -- output ---------------------------------------------------------------- *)

let num f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let emit o metrics =
  let value v unit_ =
    Printf.sprintf "\"value\":%s,\"unit\":%s" (num v) (Microjson.escape unit_)
  in
  List.iter
    (fun (name, v, unit_) ->
      Printf.printf "{\"workload\":%s,\"metric\":%s,%s}\n"
        (Microjson.escape o.name) (Microjson.escape name) (value v unit_))
    metrics;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ","
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "%s:{%s}" (Microjson.escape name) (value v unit_))
          metrics))

let write_trace o mem =
  let doc = Chrome_trace.render ~process_name:("perf " ^ o.name) mem in
  check "chrome trace validates"
    (match Chrome_trace.validate doc with
    | Ok () -> true
    | Error e ->
        prerr_endline ("perf: chrome trace: " ^ e);
        false);
  let dir = ".perf" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir ("trace-" ^ o.name ^ ".json") in
  Out_channel.with_open_bin path (fun oc -> output_string oc doc)

(* what each kind of repository operation costs in the set-up journal *)
let journal_breakdown o env =
  match Journal.read env.io.vfs ~file:Durable.journal_file with
  | Error e -> check ("journal scan: " ^ e) false
  | Ok scan ->
      let kinds = Hashtbl.create 16 in
      List.iter
        (fun (_, payload) ->
          let kind =
            match String.split_on_char ' ' (Durable.describe_op payload) with
            | a :: b :: _ -> a ^ " " ^ b
            | _ -> "other"
          in
          let n, b =
            Option.value ~default:(0, 0) (Hashtbl.find_opt kinds kind)
          in
          Hashtbl.replace kinds kind
            (n + 1, b + Journal.header_bytes + String.length payload))
        scan.Journal.records;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
      |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
      |> List.iter (fun (kind, (n, b)) ->
             Printf.printf
               "{\"workload\":%s,\"journal_op\":%s,\"records\":%d,\
                \"bytes\":%d}\n"
               (Microjson.escape o.name) (Microjson.escape kind) n b)

(* -- main ------------------------------------------------------------------ *)

let end_to_end o st ~walls =
  let s, _ = drive o.workload st ~target:(target o) ~trace:None in
  let recover_ms, _ = recover st ~reps:(List.length walls) in
  let queries = float_of_int (List.length s.query_ms) in
  [
    ("setup_s", median walls, "s");
    ("query_p50_ms", percentile 0.5 s.query_ms, "ms");
    ("query_p95_ms", percentile 0.95 s.query_ms, "ms");
    ("queries_per_s", ratio queries s.wall_s, "1/s");
    ("recover_ms", recover_ms, "ms");
    ("heap_live_mb", heap_live_mb st, "MiB");
  ]

let per_layer o st ~phases =
  let env = st.env in
  let setup_bytes = Counting_vfs.bytes_written env.io in
  journal_breakdown o env;
  let agg = Span_stats.create () and mem = Telemetry.Memory.create () in
  let res_totals () =
    match env.res with
    | Some r -> (Resilience.totals r, Resilience.now_ms r)
    | None -> (Resilience.zero_stats, 0.0)
  in
  let r0, v0 = res_totals () in
  let plain, traced =
    drive o.workload st ~target:(max 2 (target o))
      ~trace:
        (Some
           ( Telemetry.tee (Span_stats.sink agg) (Telemetry.Memory.sink mem),
             Span_stats.sink agg ))
  in
  let r1, v1 = res_totals () in
  write_trace o mem;
  let probe = probe_queries st ~reps:(if o.smoke then 1 else 3) in
  let writes = samples () in
  let scheduler = Maintain.Scheduler.create ~policy:probe_policy () in
  for _ = 1 to if o.smoke then 2 else 10 do
    write_cycle st writes scheduler
  done;
  let _, recover_records = recover st ~reps:1 in
  List.iter
    (fun (name, (s : Span_stats.span_total)) ->
      Printf.printf
        "{\"workload\":%s,\"span\":%s,\"calls\":%d,\"self_ms\":%s,\
         \"total_ms\":%s}\n"
        (Microjson.escape o.name) (Microjson.escape name) s.calls
        (num (s.self_s *. 1000.0)) (num (s.total_s *. 1000.0)))
    (Span_stats.spans agg);
  let setup f = median (List.map f phases) in
  (* counts from the traced rounds, per traced query *)
  let nq = List.length traced.query_ms in
  let counted k = per (Span_stats.counter agg k) nq in
  let hits = Span_stats.counter agg "processor.extent.cache_hits" in
  let misses = Span_stats.counter agg "processor.extent.cache_misses" in
  (* resilience over every round of the loop *)
  let all_q = List.length plain.query_ms + nq in
  let faults f = per (f r1 - f r0) all_q in
  (* write-path timings from the untraced rounds and the probe; volumes
     from every cycle *)
  let timed = [ plain; writes ] and every = [ plain; traced; writes ] in
  let cat f l = List.concat_map f l in
  let sum f l = List.fold_left (fun a s -> a + f s) 0 l in
  let evolve = cat (fun s -> s.evolve) timed in
  let tick = cat (fun s -> s.tick) timed in
  let of_kind k xs =
    median (List.filter_map (fun (k', v) -> if k = k' then Some v else None) xs)
  in
  let cycles = sum (fun s -> s.cycles) every in
  let per_cycle f = per (sum f every) cycles in
  let actions = List.filter (fun (k, _) -> k <> "idle") tick in
  let vfs_ms = List.fold_left (fun a s -> a +. s.cycle_vfs_ms) 0.0 every in
  [
    ("ispider.generate_ms", setup (fun t -> t.generate_ms), "ms");
    ("datasource.wrap_ms", setup (fun t -> t.wrap_ms), "ms");
    ("core.integrate_ms", setup (fun t -> t.integrate_ms), "ms");
    ("analysis.first_touch_ms", probe.first_touch_ms, "ms");
    ("analysis.rewrites_certified",
     counted "analysis.rewrites_certified", "count");
    ("analysis.rewrite.applications",
     counted "analysis.rewrite.applications", "count");
    ("iql.parse_ms", probe.parse_ms, "ms");
    ("iql.eval_nodes_per_query", counted "iql.eval.nodes", "count");
    ("query.reformulate_ms", probe.reformulate_ms, "ms");
    ("query.extent_ms", probe.extent_ms, "ms");
    ("query.eval_ms", probe.eval_ms, "ms");
    ("query.extent_cache_hit_ratio", per hits (hits + misses), "ratio");
    ("query.steps_replayed_per_query",
     counted "processor.pathway_steps_replayed", "count");
    ("query.pathways_pruned", counted "processor.pathways_pruned", "count");
    ("query.rows_fetched_per_query", counted "processor.rows_fetched", "count");
    ("query.invalidated_pinfo",
     counted "processor.invalidated.pinfo", "count");
    ("provenance.annotate_ms", probe.annotate_ms, "ms");
    ("resilience.attempts", faults (fun s -> s.Resilience.attempts), "count");
    ("resilience.retries", faults (fun s -> s.Resilience.retries), "count");
    ("resilience.faults_injected",
     faults (fun s -> s.Resilience.faults_injected), "count");
    ("resilience.virtual_ms",
     ratio (v1 -. v0) (float_of_int all_q), "virtual_ms");
    ("resilience.degraded_ratio",
     per (!(plain.degraded) + !(traced.degraded)) all_q, "ratio");
    ("evolution.evolve_ms.add_source", of_kind "add_source" evolve, "ms");
    ("evolution.evolve_ms.alter", of_kind "alter" evolve, "ms");
    ("evolution.evolve_ms.drop_source", of_kind "drop_source" evolve, "ms");
    ("evolution.evolve_p95_ms", percentile 0.95 (List.map snd evolve), "ms");
    ("evolution.pathways_patched", per_cycle (fun s -> s.patched), "count");
    ("durable.bytes_per_cycle", per_cycle (fun s -> s.cycle_bytes), "B");
    ("durable.appends_per_cycle",
     per_cycle (fun s -> s.cycle_appends), "count");
    ("durable.syncs_per_cycle", per_cycle (fun s -> s.cycle_syncs), "count");
    ("durable.vfs_ms_per_cycle", ratio vfs_ms (float_of_int cycles), "ms");
    ("durable.bytes_per_record",
     per env.io.append.bytes env.io.append.calls, "B");
    ("durable.setup_bytes", float_of_int setup_bytes, "B");
    ("durable.recover_records", float_of_int recover_records, "count");
    ("maintain.tick_ms.idle", of_kind "idle" tick, "ms");
    ("maintain.tick_ms.compact", of_kind "compact" tick, "ms");
    ("maintain.tick_ms.reclaim", of_kind "reclaim" tick, "ms");
    ("maintain.tick_ms.checkpoint", of_kind "checkpoint" tick, "ms");
    ("maintain.tick_p95_ms", percentile 0.95 (List.map snd tick), "ms");
    ("maintain.actions",
     per (List.length actions) (List.length tick), "ratio");
    ("observe.assess_ms", median (cat (fun s -> s.assess_ms) timed), "ms");
    ("trace.overhead_ratio",
     ratio (percentile 0.5 traced.query_ms) (percentile 0.5 plain.query_ms),
     "ratio");
  ]

let () =
  let o = parse_args Sys.argv in
  let seeds =
    List.init
      (if o.smoke then 1 else datasets o.workload)
      (fun k -> o.seed + (k * 7919))
  in
  let envs, walls, phases =
    setup o.workload ~seeds ~reps:(if o.smoke then 1 else 5)
  in
  let st =
    { envs; env = envs.(0); scheduler = Maintain.Scheduler.create ();
      cycle = 0; rounds = 0; checkpointed = false }
  in
  (* measure from a compacted heap, without the set-up repetitions' garbage *)
  Gc.compact ();
  emit o (if o.trace then per_layer o st ~phases else end_to_end o st ~walls);
  exit (if !failed = 0 then 0 else 1)
