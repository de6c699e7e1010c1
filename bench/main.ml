(* Experiment harness: reproduces the paper's evaluation and checks the
   reproduction's behaviour claims, each by the exit code (EXPERIMENTS.md
   has the index):

   - E-T1   Table 1: the seven case-study queries over the intersection-
            based global schema, verified against ground truth;
   - E-CS1  the Section 3 headline: 26 manually-defined transformations
            (intersection methodology) vs 95 (classical iSpider ladder);
   - E-CS2  the pay-as-you-go curve: queries answerable vs cumulative
            manual transformations, for both methodologies;
   - E-F1..E-F4  machine-checked reconstructions of Figures 1-4;
   - E-FW1  the projected user effort of the paper's planned study;
   - E-R1, E-D1, E-S1, E-O1, E-E1/E-H1, E-M1  the claims of the
            reproduction's own layers: fault tolerance, durability,
            reachability pruning, provenance, evolution and maintenance.

   A claim experiment writes only its own BENCH_*.json snapshot, and the
   snapshot holds only deterministic values, so a rerun reproduces it
   byte for byte; wall-clock timings go to stdout only.  The entry
   [counts] prints the work counts of the deterministic experiments for
   the runtest diff against bench/work_counts.expected. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Processor = Automed_query.Processor
module Federated = Automed_integration.Federated
module Intersection = Automed_integration.Intersection
module Global = Automed_integration.Global
module Workflow = Automed_integration.Workflow
module Classical = Automed_integration.Classical
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Classical_run = Automed_ispider.Classical_run
module Churn = Automed_ispider.Churn
module Telemetry = Automed_telemetry.Telemetry
module Microjson = Automed_telemetry.Microjson
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Journal = Automed_durable.Journal
module Vfs = Automed_durable.Vfs
module Evolution = Automed_evolution.Evolution
module Health = Automed_observe.Health
module Maintain = Automed_maintain.Maintain

let die fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt
let ok = function Ok v -> v | Error e -> die "error: %s" e

let ok_p = function
  | Ok v -> v
  | Error e -> die "error: %s" (Fmt.str "%a" Processor.pp_error e)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* [f ()] and its wall clock in milliseconds *)
let timed f =
  let t0 = Telemetry.wall_clock () in
  let r = f () in
  (r, (Telemetry.wall_clock () -. t0) *. 1000.0)

(* [f ()] under a fresh memory sink, and the metrics it recorded *)
let measured f =
  let mem = Telemetry.Memory.create () in
  let r = Telemetry.with_sink (Telemetry.Memory.sink mem) f in
  (r, Telemetry.Metrics.of_memory mem)

let int n = Microjson.Num (float_of_int n)
let seed s = Microjson.Num (Int64.to_float s)

let write_snapshot path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Microjson.to_string json));
  Printf.printf "wrote %s\n" path

(* one shared dataset and both integrations *)
let dataset = Sources.generate ()

let intersection_repo, intersection_run =
  let repo = Repository.create () in
  ok (Sources.wrap_all repo dataset);
  let run = ok (Intersection_run.execute repo) in
  (repo, run)

let classical_repo, classical_run =
  let repo = Repository.create () in
  ok (Sources.wrap_all repo dataset);
  let run = ok (Classical_run.execute repo) in
  (repo, run)

(* -- E-T1: Table 1 ------------------------------------------------------ *)

let sample_answers bag n =
  let items = Value.Bag.to_list bag in
  let shown = List.filteri (fun i _ -> i < n) items in
  String.concat ", " (List.map Value.to_string shown)
  ^ if List.length items > n then ", ..." else ""

(* the seven queries on the shared workflow, each checked against ground
   truth: (query, answer, wall clock) *)
let table1_run () =
  let wf = intersection_run.Intersection_run.workflow in
  List.map
    (fun (q : Queries.query) ->
      match timed (fun () -> Workflow.run_query wf q.Queries.global_text) with
      | Ok (Value.Bag got), ms ->
          if not (Value.Bag.equal got (q.Queries.ground_truth dataset)) then
            die "query %d does not match ground truth" q.Queries.number;
          (q, got, ms)
      | Ok v, _ ->
          die "query %d returned %s" q.Queries.number (Value.to_string v)
      | Error e, _ ->
          die "query %d: %s" q.Queries.number (Fmt.str "%a" Processor.pp_error e))
    Queries.all

let experiment_table1 rows =
  section
    "E-T1  Table 1: the seven case-study queries (intersection global schema)";
  Printf.printf "global schema: %s\n\n"
    (Workflow.global_name intersection_run.Intersection_run.workflow);
  List.iter
    (fun ((q : Queries.query), got, ms) ->
      Printf.printf "Q%d  %s\n" q.Queries.number q.Queries.title;
      Printf.printf "    IQL: %s\n" q.Queries.global_text;
      Printf.printf "    answers: %d (%s)\n" (Value.Bag.cardinal got)
        (sample_answers got 3);
      Printf.printf "    wall clock: %.2f ms\n" ms;
      Printf.printf "    ground truth: %d -> MATCH\n\n" (Value.Bag.cardinal got))
    rows

(* -- E-CS1: transformation counts --------------------------------------- *)

(* both integrations on fresh repositories, so that a measured run sees
   their construction *)
let effort_run () =
  let fresh () =
    let repo = Repository.create () in
    ok (Sources.wrap_all repo dataset);
    repo
  in
  ( ok (Intersection_run.execute (fresh ())),
    ok (Classical_run.execute (fresh ())) )

let experiment_effort (irun, crun) =
  section "E-CS1  Integration effort: manually-defined transformations";
  Printf.printf "%-52s %s\n" "intersection methodology (query-driven)" "manual";
  List.iter
    (fun (s : Intersection_run.step) ->
      Printf.printf "  %-50s %4d\n" s.Intersection_run.label
        s.Intersection_run.manual)
    irun.Intersection_run.steps;
  Printf.printf "  %-50s %4d   (paper: 26 = 6+1+1+15+3)\n" "TOTAL"
    irun.Intersection_run.total_manual;
  Printf.printf "\n%-52s %s\n" "classical up-front methodology (iSpider ladder)"
    "manual";
  Printf.printf "  %-50s %4d   (paper: 19)\n" "gpmDB -> GS1 non-trivial"
    crun.Classical_run.gs1_gpm;
  Printf.printf "  %-50s %4d   (paper: 35)\n" "PepSeeker -> GS1 non-trivial"
    crun.Classical_run.gs1_pep;
  Printf.printf "  %-50s %4d   (paper: 41)\n" "PepSeeker -> GS2 additional"
    crun.Classical_run.gs2_pep;
  Printf.printf "  %-50s %4d   (paper: 95 = 19+35+41)\n" "TOTAL"
    crun.Classical_run.total_manual;
  Printf.printf "\nratio classical/intersection: %.2fx (paper: 95/26 = 3.65x)\n"
    (float_of_int crun.Classical_run.total_manual
    /. float_of_int irun.Intersection_run.total_manual);
  if irun.Intersection_run.total_manual <> 26
     || crun.Classical_run.total_manual <> 95
  then
    die "E-CS1: %d vs %d manual transformations, the paper reports 26 vs 95"
      irun.Intersection_run.total_manual crun.Classical_run.total_manual

(* -- E-CS2: pay-as-you-go curve ------------------------------------------ *)

let experiment_payg () =
  section
    "E-CS2  Pay-as-you-go: queries answerable vs cumulative manual effort";
  let proc = Processor.create intersection_repo in
  let answerable schema (q : Queries.query) =
    match Parser.parse q.Queries.global_text with
    | Error _ -> false
    | Ok ast -> Processor.answerable proc ~schema ast
  in
  Printf.printf "intersection methodology:\n";
  Printf.printf "  %-46s %10s %10s\n" "after" "cum.manual" "answerable";
  Printf.printf "  %-46s %10d %10d\n" "initial federated schema (v0)" 0
    (List.length (List.filter (answerable "ispider_v0") Queries.all));
  let cum = ref 0 in
  List.iteri
    (fun i (s : Intersection_run.step) ->
      cum := !cum + s.Intersection_run.manual;
      let schema = Printf.sprintf "ispider_v%d" (i + 1) in
      Printf.printf "  %-46s %10d %10d\n" s.Intersection_run.label !cum
        (List.length (List.filter (answerable schema) Queries.all)))
    intersection_run.Intersection_run.steps;
  let cproc = Processor.create classical_repo in
  let canswerable schema (q : Queries.query) =
    match Parser.parse q.Queries.classical_text with
    | Error _ -> false
    | Ok ast -> Processor.answerable cproc ~schema ast
  in
  Printf.printf
    "\nclassical methodology (no services before a stage completes):\n";
  Printf.printf "  %-46s %10s %10s\n" "after" "cum.manual" "answerable";
  Printf.printf "  %-46s %10d %10d\n" "start" 0 0;
  let cum = ref 0 in
  List.iter
    (fun (stage_name, fresh) ->
      cum := !cum + fresh;
      Printf.printf "  %-46s %10d %10d\n"
        (Printf.sprintf "global schema %s complete" stage_name)
        !cum
        (List.length (List.filter (canswerable stage_name) Queries.all)))
    classical_run.Classical_run.ladder.Classical.new_manual_per_stage

(* -- E-F1..E-F4: figure reconstructions ---------------------------------- *)

let two_library_repo () =
  let repo = Repository.create () in
  let mk name objs =
    ok (Schema.of_objects name (List.map (fun o -> (o, None)) objs))
  in
  ok
    (Repository.add_schema repo
       (mk "lib1"
          [ Scheme.table "book"; Scheme.column "book" "isbn";
            Scheme.table "member" ]));
  ok
    (Repository.add_schema repo
       (mk "lib2"
          [ Scheme.table "volume"; Scheme.column "volume" "code";
            Scheme.table "loan" ]));
  let set s o vs =
    ok
      (Repository.set_extent repo ~schema:s o
         (Value.Bag.of_list (List.map (fun x -> Value.Str x) vs)))
  in
  set "lib1" (Scheme.table "book") [ "b1"; "b2" ];
  set "lib1" (Scheme.table "member") [ "m1" ];
  set "lib2" (Scheme.table "volume") [ "v1"; "v2"; "v3" ];
  set "lib2" (Scheme.table "loan") [ "l1"; "l2" ];
  ok
    (Repository.set_extent repo ~schema:"lib1" (Scheme.column "book" "isbn")
       (Value.Bag.of_list
          [ Value.tuple2 (Value.Str "b1") (Value.Str "111");
            Value.tuple2 (Value.Str "b2") (Value.Str "222") ]));
  ok
    (Repository.set_extent repo ~schema:"lib2" (Scheme.column "volume" "code")
       (Value.Bag.of_list
          [ Value.tuple2 (Value.Str "v1") (Value.Str "111");
            Value.tuple2 (Value.Str "v2") (Value.Str "333");
            Value.tuple2 (Value.Str "v3") (Value.Str "444") ]));
  repo

let ubook_spec =
  let q = Parser.parse_exn in
  {
    Intersection.name = "i_book";
    sides =
      [
        {
          Intersection.schema = "lib1";
          mappings =
            [
              { Intersection.target = Scheme.table "UBook";
                forward = q "[{'L1', k} | k <- <<book>>]"; restore = None };
              { Intersection.target = Scheme.column "UBook" "isbn";
                forward = q "[{'L1', k, x} | {k,x} <- <<book,isbn>>]";
                restore = None };
            ];
        };
        {
          Intersection.schema = "lib2";
          mappings =
            [
              { Intersection.target = Scheme.table "UBook";
                forward = q "[{'L2', k} | k <- <<volume>>]"; restore = None };
              { Intersection.target = Scheme.column "UBook" "isbn";
                forward = q "[{'L2', k, x} | {k,x} <- <<volume,code>>]";
                restore = None };
            ];
        };
      ];
  }

let check name cond =
  Printf.printf "  [%s] %s\n" (if cond then "ok" else "FAIL") name;
  if not cond then die "figure check failed: %s" name

let experiment_figures () =
  section "E-F1  Figure 1: classical integration via union-compatible schemas";
  let repo = two_library_repo () in
  let stage =
    {
      Classical.stage_name = "GS";
      sources =
        [
          {
            Classical.schema = "lib1";
            mappings =
              [
                { Intersection.target = Scheme.table "book";
                  forward = Ast.SchemeRef (Scheme.table "book"); restore = None };
              ];
          };
          {
            Classical.schema = "lib2";
            mappings =
              [
                { Intersection.target = Scheme.table "book";
                  forward = Ast.SchemeRef (Scheme.table "volume");
                  restore = None };
              ];
          };
        ];
    }
  in
  let o = ok (Classical.integrate_stage repo stage) in
  check "every DSi has a pathway to a union-compatible USi"
    (List.length (Repository.pathways_from repo "lib1") = 1
    && List.length (Repository.pathways_from repo "lib2") = 1);
  check "union-compatible schemas are idented into the global schema"
    (List.exists
       (fun (p : Transform.pathway) ->
         p.Transform.to_schema = "GS"
         && p.Transform.steps <> []
         && List.for_all
              (function Transform.Id _ -> true | _ -> false)
              p.Transform.steps)
       (Repository.pathways repo));
  let proc = Processor.create repo in
  let merged = ok_p (Processor.run_string proc ~schema:"GS" "count(<<book>>)") in
  check "global extents are the bag union of all sources (2 + 3 = 5)"
    (Value.equal merged (Value.Int 5));
  check "identity derivations cost nothing, cross derivations count"
    (o.Classical.per_source_manual = [ ("lib1", 0); ("lib2", 1) ]);

  section "E-F2  Figure 2: the intersection schema and its canonical pathways";
  let repo = two_library_repo () in
  let o = ok (Intersection.create repo ubook_spec) in
  check "both ES -> I' pathways have the add*/delete*/contract* shape"
    (List.for_all
       (fun (_, p) -> Result.is_ok (Transform.intersection_shape p))
       o.Intersection.side_pathways);
  check "the union-compatible counterparts are connected by ident"
    (List.exists
       (fun (p : Transform.pathway) ->
         p.Transform.to_schema = "i_book"
         && p.Transform.steps <> []
         && List.for_all
              (function Transform.Id _ -> true | _ -> false)
              p.Transform.steps)
       (Repository.pathways repo));
  let proc = Processor.create repo in
  let ubook = ok_p (Processor.run_string proc ~schema:"i_book" "count(<<UBook>>)") in
  check "intersection extents are the bag union of both sides (2 + 3 = 5)"
    (Value.equal ubook (Value.Int 5));

  section
    "E-F3  Figure 3: federated schema over extensional + intersection schemas";
  let f =
    ok (Federated.create repo ~name:"F" ~members:[ "lib1"; "lib2"; "i_book" ])
  in
  check "F unions every member object under a provenance prefix"
    (Schema.object_count f = 8
    && Schema.mem (Scheme.prefix "i_book" (Scheme.table "UBook")) f
    && Schema.mem (Scheme.prefix "lib1" (Scheme.table "book")) f);
  let proc = Processor.create repo in
  let v = ok_p (Processor.run_string proc ~schema:"F" "count(<<lib2:loan>>)") in
  check "data services run on F without any integration"
    (Value.equal v (Value.Int 2));

  section "E-F4  Figure 4: global schema G = I u (ES1 - I) u (ES2 - I)";
  let repo = two_library_repo () in
  let o = ok (Intersection.create repo ubook_spec) in
  let g =
    ok
      (Global.create repo ~name:"G" ~intersections:[ o ]
         ~extensionals:[ "lib1"; "lib2" ])
  in
  check "ES - I retains exactly the contracted (unmapped) objects"
    (Scheme.Set.equal
       (Scheme.Set.of_list (Global.dropped_objects [ o ] "lib1"))
       (Scheme.Set.of_list [ Scheme.table "book"; Scheme.column "book" "isbn" ]));
  check "G = I u (lib1 - I) u (lib2 - I): 2 + 1 + 1 objects"
    (Schema.object_count g = 4);
  let proc = Processor.create repo in
  let v = ok_p (Processor.run_string proc ~schema:"G" "count(<<UBook,isbn>>)") in
  check "dropped objects' data still reachable through I (2 + 3 = 5)"
    (Value.equal v (Value.Int 5));
  Printf.printf
    "\nE-F5 (Figure 5, the GUI tool) is reproduced as a CLI: run\n\
    \  dune exec bin/automed_cli.exe -- tool demo\n"

(* -- E-FW1: projected user-effort (the paper's planned evaluation) -------- *)

let experiment_user_cost () =
  section
    "E-FW1  Projected user effort (simulating the Section 4 study metrics)";
  let module User_cost = Automed_ispider.User_cost in
  let ic = User_cost.intersection_cost intersection_run in
  let cc = User_cost.classical_cost classical_repo in
  Printf.printf "  %-28s %s\n" "intersection methodology"
    (Fmt.str "%a" User_cost.pp ic);
  Printf.printf "  %-28s %s\n" "classical methodology"
    (Fmt.str "%a" User_cost.pp cc);
  Printf.printf
    "  projected time ratio: %.2fx (transformation-count ratio: %.2fx)\n"
    (cc.User_cost.minutes /. ic.User_cost.minutes)
    (float_of_int cc.User_cost.transformations
    /. float_of_int ic.User_cost.transformations)

(* -- E-R1: the seven queries under injected faults ------------------------ *)

(* The priority queries at a seeded 20% fault rate on one source
   (pedro), in three configurations:

   - no policy: fail-fast, no retries, no breaker — the seed behaviour;
   - retry policy: the default policy (2 retries, exponential backoff);
   - degraded mode: fail-fast but through [run_query_degraded], so an
     exhausted source is skipped and reported instead of failing the
     query.

   Latency added by the kernel is virtual (backoff sleeps on the
   simulated clock), so the numbers are deterministic; the run exits 1
   unless each configuration answers as many queries as EXPERIMENTS.md
   records (4, 6 and 7 of 7). *)

let resilience_fault_rate = 0.2
let resilience_seed = 3L (* the test suite's seed: faults demonstrably fire *)

type resilience_outcome = {
  label : string;
  claim : int;  (** queries answered, complete or degraded *)
  per_query : (int * [ `Ok | `Degraded of int (* skips *) | `Failed ]) list;
  virtual_ms : float;  (** simulated backoff/latency spent by the kernel *)
  wall_ms : float;
  pedro : Resilience.stats;
}

let resilience_config ~label ~claim ~policy ~degrade =
  let repo = Repository.create () in
  let res = Resilience.create ~seed:resilience_seed ~policy () in
  ok (Sources.wrap_all ~resilience:res repo dataset);
  let run = ok (Intersection_run.execute ~resilience:res repo) in
  let wf = run.Intersection_run.workflow in
  Resilience.inject res ~source:"pedro"
    (Resilience.Fault.rate resilience_fault_rate);
  let base_virtual = Resilience.now_ms res in
  let base_stats = Resilience.stats res "pedro" in
  let per_query, wall_ms =
    timed @@ fun () ->
    List.map
      (fun (q : Queries.query) ->
        (* a cold cache per query: every query re-attempts the faulty
           source instead of riding an earlier query's fetches *)
        Processor.invalidate (Workflow.processor wf);
        let outcome =
          if degrade then
            match Workflow.run_query_degraded wf q.Queries.global_text with
            | Ok (_, c) when c.Processor.complete -> `Ok
            | Ok (_, c) -> `Degraded (List.length c.Processor.sources_skipped)
            | Error _ -> `Failed
          else
            match Workflow.run_query wf q.Queries.global_text with
            | Ok _ -> `Ok
            | Error _ -> `Failed
        in
        (q.Queries.number, outcome))
      Queries.all
  in
  let s = Resilience.stats res "pedro" in
  {
    label;
    claim;
    per_query;
    virtual_ms = Resilience.now_ms res -. base_virtual;
    wall_ms;
    pedro =
      {
        s with
        Resilience.attempts = s.Resilience.attempts - base_stats.Resilience.attempts;
        successes = s.Resilience.successes - base_stats.Resilience.successes;
      };
  }

let fail_fast_policy =
  {
    Resilience.Policy.none with
    Resilience.Policy.breaker_threshold = 0;
  }

let resilience_outcomes () =
  [
    resilience_config ~label:"no policy (fail fast)" ~claim:4
      ~policy:fail_fast_policy ~degrade:false;
    resilience_config ~label:"retry policy (default)" ~claim:6
      ~policy:Resilience.Policy.default ~degrade:false;
    resilience_config ~label:"degraded mode (fail fast)" ~claim:7
      ~policy:fail_fast_policy ~degrade:true;
  ]

let resilience_json outcomes =
  let outcome_json o =
    Microjson.Obj
      [
        ("label", Str o.label);
        ( "queries",
          Arr
            (List.map
               (fun (n, r) ->
                 Microjson.Obj
                   [
                     ("query", int n);
                     ( "outcome",
                       match r with
                       | `Ok -> Str "ok"
                       | `Degraded k ->
                           Obj [ ("degraded", Obj [ ("skipped", int k) ]) ]
                       | `Failed -> Str "failed" );
                   ])
               o.per_query) );
        (* 0.1 ms resolution: the jittered backoff's trailing digits would
           tie the snapshot to float rounding, not to the claim *)
        ("virtual_ms", Num (Float.round (o.virtual_ms *. 10.0) /. 10.0));
        ( "pedro",
          Obj
            [
              ("attempts", int o.pedro.Resilience.attempts);
              ("retries", int o.pedro.Resilience.retries);
              ("failures", int o.pedro.Resilience.failures);
              ("faults_injected", int o.pedro.Resilience.faults_injected);
            ] );
      ]
  in
  Microjson.Obj
    [
      ("experiment", Str "E-R1");
      ("fault_rate", Num resilience_fault_rate);
      ("seed", seed resilience_seed);
      ("faulty_source", Str "pedro");
      ("configurations", Arr (List.map outcome_json outcomes));
    ]

let experiment_resilience outcomes =
  section
    (Printf.sprintf
       "E-R1  Fault tolerance: 7 queries, %.0f%% injected fault rate on pedro"
       (100.0 *. resilience_fault_rate));
  List.iter
    (fun o ->
      let ok_n =
        List.length (List.filter (fun (_, r) -> r = `Ok) o.per_query)
      in
      let degraded_n =
        List.length
          (List.filter
             (fun (_, r) -> match r with `Degraded _ -> true | _ -> false)
             o.per_query)
      in
      let failed_n = List.length o.per_query - ok_n - degraded_n in
      Printf.printf "%s\n" o.label;
      Printf.printf
        "  answered: %d/7 (%d complete, %d degraded), failed: %d\n" (ok_n + degraded_n)
        ok_n degraded_n failed_n;
      Printf.printf "  per query: %s\n"
        (String.concat " "
           (List.map
              (fun (n, r) ->
                Printf.sprintf "Q%d=%s" n
                  (match r with
                  | `Ok -> "ok"
                  | `Degraded k -> Printf.sprintf "degraded(%d skipped)" k
                  | `Failed -> "FAILED"))
              o.per_query));
      Printf.printf
        "  pedro fetches: %d attempts, %d retries, %d injected faults\n"
        o.pedro.Resilience.attempts o.pedro.Resilience.retries
        o.pedro.Resilience.faults_injected;
      Printf.printf "  added latency: %.0f ms virtual, %.2f ms wall\n\n"
        o.virtual_ms o.wall_ms;
      if ok_n + degraded_n <> o.claim then
        die "E-R1: %s answered %d/7, expected %d/7" o.label (ok_n + degraded_n)
          o.claim)
    outcomes;
  write_snapshot "BENCH_resilience.json" (resilience_json outcomes)

(* -- E-D1: durability ------------------------------------------------------ *)

(* The journal of the real op stream of the 7-query iSpider integration:
   the whole run is executed with a durable handle attached to an
   in-memory store.  Every record is decoded and re-encoded, which must
   reproduce its payload byte for byte; recovery from growing journal
   prefixes (no checkpoint, so every record replays) must replay exactly
   the prefix; and after full recovery the seven priority queries must
   match ground truth.  The run exits 1 on any of these.  Journal and
   recovery timings are measured by bench/perf's churn workload
   ([durable.*] metrics and [recover_ms]). *)

type durability_outcome = {
  journaled_ops : int;
  journal_bytes : int;
  recover_points : (int * int) list;  (** records replayed, journal bytes *)
  queries_ok : int;
}

let durability_outcome () =
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  let _durable = ok (Durable.attach vfs repo) in
  ok (Sources.wrap_all repo dataset);
  ignore (ok (Intersection_run.execute repo));
  let scan = ok (Journal.read vfs ~file:Durable.journal_file) in
  let journaled_ops = List.length scan.Journal.records in
  List.iteri
    (fun i (_, payload) ->
      if Serialize.save_op (ok (Serialize.load_op payload)) <> payload then
        die "E-D1: record %d does not re-encode to its stored payload" i)
    scan.Journal.records;
  let journal = ok (Vfs.(vfs.read) Durable.journal_file) in
  (* recover from the first [keep] records of the journal *)
  let recover keep =
    let cut =
      match List.nth_opt scan.Journal.records keep with
      | Some (off, _) -> off
      | None -> String.length journal
    in
    let store = Vfs.memory () in
    ok (Vfs.(store.write) Durable.journal_file (String.sub journal 0 cut));
    let d, report = ok (Durable.recover store) in
    if report.Durable.replayed <> keep then
      die "E-D1: recovery replayed %d of %d records" report.Durable.replayed
        keep;
    (d, cut)
  in
  let recover_points =
    List.map
      (fun frac ->
        let keep = journaled_ops * frac / 8 in
        (keep, snd (recover keep)))
      [ 1; 2; 4; 8 ]
  in
  let proc = Processor.create (Durable.repository (fst (recover journaled_ops))) in
  let global = Workflow.global_name intersection_run.Intersection_run.workflow in
  let queries_ok =
    List.length
      (List.filter
         (fun (q : Queries.query) ->
           match Processor.run_string proc ~schema:global q.Queries.global_text with
           | Ok (Value.Bag got) ->
               Value.Bag.equal got (q.Queries.ground_truth dataset)
           | Ok _ | Error _ -> false)
         Queries.all)
  in
  {
    journaled_ops;
    journal_bytes = scan.Journal.total_bytes;
    recover_points;
    queries_ok;
  }

let experiment_durability o =
  section "E-D1  Durability: journal codec round trip and recovery replay";
  Printf.printf
    "  integration journaled %d ops (%d bytes); all %d records re-encode \
     byte for byte\n"
    o.journaled_ops o.journal_bytes o.journaled_ops;
  Printf.printf "  recovery replays every record of a journal prefix:\n";
  List.iter
    (fun (records, bytes) ->
      Printf.printf "  %6d records %10d bytes\n" records bytes)
    o.recover_points;
  Printf.printf
    "  7-query check after full recovery: %d/%d match ground truth\n"
    o.queries_ok (List.length Queries.all);
  if o.queries_ok <> List.length Queries.all then
    die "recovered repository does not answer the case-study queries";
  write_snapshot "BENCH_durability.json"
    (Microjson.Obj
       [
         ("experiment", Str "E-D1");
         ("journaled_ops", int o.journaled_ops);
         ("journal_bytes", int o.journal_bytes);
         ( "recovery",
           Arr
             (List.map
                (fun (records, bytes) ->
                  Microjson.Obj
                    [ ("records", int records); ("journal_bytes", int bytes) ])
                o.recover_points) );
         ( "queries_after_recovery",
           Obj
             [ ("ok", int o.queries_ok);
               ("total", int (List.length Queries.all)) ] );
       ])

(* -- E-S1: reachability pruning --------------------------------------------- *)

(* Replayed-step and pruned-pathway counts for the seven case-study
   queries on a fresh integration, where the query processor skips
   replaying a pathway for every object whose derivation through it is
   provably empty.  The printed wall clock includes the one-off
   reachability analysis, which happens lazily at the first query. *)

(* fresh integration, then the seven queries checked against ground
   truth: (query number, answer size) and the queries' wall clock *)
let pruning_run () =
  let repo = Repository.create () in
  ok (Sources.wrap_all repo dataset);
  let wf = (ok (Intersection_run.execute repo)).Intersection_run.workflow in
  timed @@ fun () ->
  List.map
    (fun (q : Queries.query) ->
      match Workflow.run_query wf q.Queries.global_text with
      | Ok (Value.Bag b) ->
          if not (Value.Bag.equal b (q.Queries.ground_truth dataset)) then
            die "E-S1: query %d does not match ground truth" q.Queries.number;
          (q.Queries.number, Value.Bag.cardinal b)
      | Ok v ->
          die "E-S1 query %d returned %s" q.Queries.number (Value.to_string v)
      | Error e ->
          die "E-S1 query %d: %s" q.Queries.number
            (Fmt.str "%a" Processor.pp_error e))
    Queries.all

let experiment_pruning ((cardinalities, wall_ms), m) =
  let counter name =
    Option.value ~default:0 (List.assoc_opt name m.Telemetry.Metrics.counters)
  in
  let replayed = counter "processor.pathway_steps_replayed" in
  let pruned = counter "processor.pathways_pruned" in
  section "E-S1  Reachability pruning: replayed pathway steps, 7 queries";
  Printf.printf "  pathway steps replayed: %d\n" replayed;
  Printf.printf "  pathways pruned (provably empty contribution): %d\n" pruned;
  Printf.printf "  wall clock (7 queries): %.2f ms\n" wall_ms;
  Printf.printf "answers match ground truth\n";
  write_snapshot "BENCH_analysis.json"
    (Microjson.Obj
       [
         ("experiment", Str "E-S1");
         ("queries", int (List.length cardinalities));
         ("answers_match_ground_truth", Bool true);
         ("pathway_steps_replayed", int replayed);
         ("pathways_pruned", int pruned);
         ( "answers",
           Arr
             (List.map
                (fun (n, c) ->
                  Microjson.Obj [ ("query", int n); ("cardinality", int c) ])
                cardinalities) );
       ])

(* -- E-O1: provenance overhead -------------------------------------------- *)

(* The seven case-study queries evaluated twice over the same repository
   with cold processors: the plain instance of the evaluator vs its
   lineage instance.  The answers must be bit-identical (both instances
   run the same rules; the lineage instance only adds annotations), and
   every tuple's tamper-evidence digest is re-verified.  The printed
   timings are single cold runs; bench/perf's faulty-lineage workload
   measures [provenance.annotate_ms]. *)

type provenance_outcome = {
  po_query : int;
  po_plain_ms : float;
  po_prov_ms : float;
  po_tuples : int;  (** distinct answer values *)
  po_atoms : int;  (** distinct source extents cited across all tuples *)
  po_hops : int;  (** distinct pathway crossings cited *)
}

let provenance_outcomes () =
  let wf = intersection_run.Intersection_run.workflow in
  let schema = Workflow.global_name wf in
  List.map
    (fun (q : Queries.query) ->
      let ast = ok (Parser.parse q.Queries.global_text) in
      let plain, plain_ms =
        timed (fun () ->
            ok_p (Processor.run (Processor.create intersection_repo) ~schema ast))
      in
      let ann, prov_ms =
        timed (fun () ->
            ok_p
              (Processor.run_provenance
                 (Processor.create intersection_repo)
                 ~schema ast))
      in
      if Value.compare plain ann.Processor.result <> 0 then
        die "E-O1: query %d answer differs with provenance on"
          q.Queries.number;
      let lineage =
        List.fold_left
          (fun acc (tp : Processor.annotated_tuple) ->
            if
              not
                (Automed_provenance.Lineage.verify
                   ~key:Processor.default_mac_key tp.Processor.value
                   tp.Processor.lineage tp.Processor.mac)
            then die "E-O1: query %d tuple fails MAC verification"
                   q.Queries.number;
            Automed_provenance.Lineage.union acc tp.Processor.lineage)
          Automed_provenance.Lineage.empty ann.Processor.tuples
      in
      {
        po_query = q.Queries.number;
        po_plain_ms = plain_ms;
        po_prov_ms = prov_ms;
        po_tuples = List.length ann.Processor.tuples;
        po_atoms =
          List.length (Automed_provenance.Lineage.atoms lineage);
        po_hops = List.length (Automed_provenance.Lineage.hops lineage);
      })
    Queries.all

let experiment_provenance outcomes =
  section
    "E-O1  Provenance overhead: plain vs lineage-annotated evaluation";
  List.iter
    (fun o ->
      Printf.printf
        "Q%d  plain %.2f ms, annotated %.2f ms (x%.2f)  — %d tuples citing \
         %d extents over %d pathway hops\n"
        o.po_query o.po_plain_ms o.po_prov_ms
        (if o.po_plain_ms > 0.0 then o.po_prov_ms /. o.po_plain_ms else 0.0)
        o.po_tuples o.po_atoms o.po_hops)
    outcomes;
  Printf.printf
    "\nanswers bit-identical with provenance on; every tuple MAC verified\n";
  write_snapshot "BENCH_provenance.json"
    (Microjson.Obj
       [
         ("experiment", Str "E-O1");
         ("queries", int (List.length outcomes));
         ("answers_bit_identical", Bool true);
         ("macs_verified", Bool true);
         ( "per_query",
           Arr
             (List.map
                (fun o ->
                  Microjson.Obj
                    [
                      ("query", int o.po_query);
                      ("tuples", int o.po_tuples);
                      ("atoms", int o.po_atoms);
                      ("hops", int o.po_hops);
                    ])
                outcomes) );
       ])

(* -- E-E1: schema-evolution churn ----------------------------------------- *)

(* Fifty evolve+query cycles over the live iSpider trio, with a 20%
   fault rate injected on pedro throughout (a retry-heavy policy masks
   the faults, so answers stay exact).  Each cycle applies one delta
   from a deterministic churn script — satellite sources appear and
   evolve away again, pedro gains/renames/sheds scratch tables and
   columns — then:

   - the incremental path repairs the current global schema through
     [Evolution.evolve] (delta-sized chain pathway, targeted cache
     invalidation) and answers the seven priority queries on the live,
     evolved workflow;
   - the from-scratch control rebuilds a fresh repository, re-runs the
     whole integration and replays the full delta history, and answers
     the same seven queries.

   Every cycle all seven answers must be bit-identical between the two
   paths (and to ground truth: the churn script never touches a queried
   object).  BENCH_evolution.json records each cycle's chain length,
   journaled ops and repair-debt indicators, and the live run's journal
   is dumped to BENCH_evolution.journal; the repair, live-query and
   from-scratch wall clocks are printed only (bench/perf's churn
   workload measures [evolution.evolve_ms.*]). *)

let evolution_cycles = 50
let evolution_fault_rate = 0.2
let evolution_seed = 3L

let evolution_policy =
  { Resilience.Policy.default with Resilience.Policy.retries = 6 }

type churn_cycle = {
  ec_cycle : int;
  ec_kind : string;  (** the plan's human description of the delta *)
  ec_chain_steps : int;
  ec_journal_ops : int;  (** journal records the repair appended *)
  ec_repair_ms : float;
  ec_live_query_ms : float;  (** the 7 queries on the evolved workflow *)
  ec_scratch_ms : float;  (** fresh integration + full history replay *)
  ec_identical : bool;  (** all 7 answers bit-identical live vs scratch *)
  (* repair-debt indicators after this cycle (the E-H1 curve) *)
  ec_chain_depth : int;  (** effective chain depth (link hops to anchor) *)
  ec_quarantined : int;  (** quarantine-shaped pathways on the active surface *)
  ec_void_steps : int;  (** Void-degraded surface steps outside quarantines *)
}

(* The seven queries on [wf]; [experiment] names the failing run. *)
let run_seven experiment wf =
  List.map
    (fun (q : Queries.query) ->
      match Workflow.run_query wf q.Queries.global_text with
      | Ok v -> (q, v)
      | Error e ->
          die "%s: query %d: %s" experiment q.Queries.number
            (Fmt.str "%a" Processor.pp_error e))
    Queries.all

(* The from-scratch control after cycle [i]: a fresh integration with
   the whole churn history replayed, answering the seven queries.
   [identical] holds when [live] matches it and ground truth. *)
let scratch_control experiment i =
  let repo = Repository.create () in
  ok (Sources.wrap_all repo dataset);
  let wf = (ok (Intersection_run.execute repo)).Intersection_run.workflow in
  for j = 0 to i do
    ignore (ok (Evolution.evolve wf (Churn.delta j)))
  done;
  run_seven experiment wf

let identical live scratch =
  List.for_all2
    (fun ((q : Queries.query), lv) (_, sv) ->
      Value.compare lv sv = 0
      && Value.compare lv (Value.Bag (q.Queries.ground_truth dataset)) = 0)
    live scratch

let evolution_outcome () =
  (* the live dataspace: journaled, resilient, faults on pedro *)
  let repo = Repository.create () in
  let vfs = Vfs.memory () in
  let durable = ok (Durable.attach vfs repo) in
  let res = Resilience.create ~seed:evolution_seed ~policy:evolution_policy () in
  ok (Sources.wrap_all ~resilience:res repo dataset);
  let run = ok (Intersection_run.execute ~resilience:res repo) in
  let wf = run.Intersection_run.workflow in
  Resilience.inject res ~source:Sources.pedro_name
    (Resilience.Fault.rate evolution_fault_rate);
  let cycles =
    List.init evolution_cycles (fun i ->
        (* incremental repair on the live workflow *)
        let before = Durable.appended durable in
        let (_ev, plan), repair_ms =
          timed (fun () -> ok (Evolution.evolve wf (Churn.delta i)))
        in
        let journal_ops = Durable.appended durable - before in
        let live, live_query_ms = timed (fun () -> run_seven "E-E1" wf) in
        let scratch, scratch_ms =
          timed (fun () -> scratch_control "E-E1" i)
        in
        let root = Workflow.global_name wf in
        {
          ec_cycle = i;
          ec_kind = plan.Evolution.pl_kind;
          ec_chain_steps = plan.Evolution.pl_chain_steps;
          ec_journal_ops = journal_ops;
          ec_repair_ms = repair_ms;
          ec_live_query_ms = live_query_ms;
          ec_scratch_ms = scratch_ms;
          ec_identical = identical live scratch;
          (* debt priced on the current version's active surface — the
             view maintenance can actually pay down *)
          ec_chain_depth = Health.effective_chain_depth repo ~root;
          ec_quarantined = Health.quarantined_pathways ~root repo;
          ec_void_steps = Health.void_degraded_steps ~root repo;
        })
  in
  (cycles, ok (Vfs.(vfs.read) Durable.journal_file))

let mean f xs =
  List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)

let evolution_journal = "BENCH_evolution.journal"

let evolution_json (cycles, journal) =
  Microjson.Obj
    [
      ("experiment", Str "E-E1");
      ("cycles", int evolution_cycles);
      ("fault_rate", Num evolution_fault_rate);
      ("seed", seed evolution_seed);
      ("faulty_source", Str Sources.pedro_name);
      ("answers_bit_identical", Bool (List.for_all (fun c -> c.ec_identical) cycles));
      ("journal_file", Str evolution_journal);
      ("journal_bytes", int (String.length journal));
      ( "per_cycle",
        Arr
          (List.map
             (fun c ->
               Microjson.Obj
                 [
                   ("cycle", int c.ec_cycle);
                   ("kind", Str c.ec_kind);
                   ("chain_steps", int c.ec_chain_steps);
                   ("journal_ops", int c.ec_journal_ops);
                   ("identical", Bool c.ec_identical);
                   ("chain_depth", int c.ec_chain_depth);
                   ("quarantined", int c.ec_quarantined);
                   ("void_steps", int c.ec_void_steps);
                 ])
             cycles) );
    ]

let experiment_evolution ((cycles, journal) as outcome) =
  section
    (Printf.sprintf
       "E-E1  Evolution churn: %d evolve+query cycles, %.0f%% faults on pedro"
       evolution_cycles (100.0 *. evolution_fault_rate));
  List.iter
    (fun c ->
      Printf.printf
        "cycle %2d  %-28s chain %d, journal ops %2d, repair %6.2f ms, live \
         queries %6.1f ms, scratch %7.1f ms, %s\n"
        c.ec_cycle c.ec_kind c.ec_chain_steps c.ec_journal_ops c.ec_repair_ms
        c.ec_live_query_ms c.ec_scratch_ms
        (if c.ec_identical then "7/7 identical" else "MISMATCH"))
    cycles;
  let half = evolution_cycles / 2 in
  let first = List.filteri (fun i _ -> i < half) cycles in
  let second = List.filteri (fun i _ -> i >= half) cycles in
  Printf.printf
    "\n\
     mean repair: %.2f ms (cycles 0-%d) vs %.2f ms (cycles %d-%d)\n"
    (mean (fun c -> c.ec_repair_ms) first)
    (half - 1)
    (mean (fun c -> c.ec_repair_ms) second)
    half (evolution_cycles - 1);
  Printf.printf
    "mean from-scratch control: %.1f ms vs %.1f ms — pays integration plus \
     a growing history replay\n"
    (mean (fun c -> c.ec_scratch_ms) first)
    (mean (fun c -> c.ec_scratch_ms) second);
  Printf.printf "evolution journal: %d bytes\n" (String.length journal);
  if not (List.for_all (fun c -> c.ec_identical) cycles) then
    die "E-E1: an incremental answer differs from the from-scratch control";
  Out_channel.with_open_bin evolution_journal (fun oc ->
      output_string oc journal);
  write_snapshot "BENCH_evolution.json" (evolution_json outcome)

(* -- E-H1: the repair-debt growth curve over the E-E1 churn --------------- *)

let experiment_debt_curve (cycles, _journal) =
  section
    "E-H1  Repair-debt growth across the churn (health-observatory view)";
  let cfg = Health.default_config in
  let level v t = Health.level_label (Health.classify t v) in
  Printf.printf "  %-7s %-13s %-22s %-18s\n" "cycle" "chain depth"
    "quarantined pathways" "void-degraded";
  List.iter
    (fun c ->
      if c.ec_cycle mod 5 = 4 || c.ec_cycle = 0 then
        Printf.printf "  %-7d %4d %-8s %4d %-17s %4d %-8s\n" c.ec_cycle
          c.ec_chain_depth
          (level (float_of_int c.ec_chain_depth) cfg.Health.chain_depth)
          c.ec_quarantined
          (level (float_of_int c.ec_quarantined) cfg.Health.quarantined)
          c.ec_void_steps
          (level (float_of_int c.ec_void_steps) cfg.Health.void_degraded))
    cycles;
  let crossing field threshold =
    List.find_opt (fun c -> float_of_int (field c) >= threshold) cycles
  in
  (match
     crossing (fun c -> c.ec_chain_depth) cfg.Health.chain_depth.Health.warn
   with
  | Some c ->
      Printf.printf
        "\nchain depth crosses its warn threshold at cycle %d — from here the \
         observatory recommends re-integration\n"
        c.ec_cycle
  | None ->
      die "E-H1: chain depth never crossed its warn threshold (miscalibrated?)");
  match
    crossing (fun c -> c.ec_quarantined) cfg.Health.quarantined.Health.warn
  with
  | Some c ->
      Printf.printf "quarantined pathways cross their warn threshold at cycle %d\n"
        c.ec_cycle
  | None ->
      Printf.printf
        "quarantined pathways stay under their warn threshold for the whole \
         run\n"

(* -- E-M1: autonomic maintenance over a 200-cycle churn ------------------- *)

(* The longest experiment: the same deterministic churn script as E-E1
   but four times as long, run twice.  The OFF arm is left unmaintained
   and only its debt curve is recorded (the contrast).  The ON arm gets
   one maintenance-scheduler tick after every cycle, and every cycle
   all seven case-study queries are verified bit-identical against
   ground truth AND against a from-scratch control that re-integrates
   and replays the full unmaintained history — proving the maintenance
   transactions (certified compaction, reclamation, checkpoints) never
   change an answer while they keep every core debt indicator below
   its warn threshold. *)

let maintenance_cycles = 200

(* The 200-cycle soak makes ~30x more faulted fetches than E-E1, so a
   5-consecutive-failure streak (p = 0.2^5 per run) is near-certain to
   occur somewhere; give the retry loop enough headroom that no fetch
   ever exhausts it and disable the breaker — the experiment measures
   maintenance debt, not fault exhaustion. *)
let maintenance_policy =
  {
    evolution_policy with
    Resilience.Policy.retries = 10;
    Resilience.Policy.breaker_threshold = 0;
  }

type m_cycle = {
  mc_cycle : int;
  mc_depth : int;
  mc_quarantined : int;
  mc_void : int;
  mc_retired : int;
  mc_journal : int;
  mc_worst : Health.level;  (** worst core-indicator level after the tick *)
  mc_events : string list;  (** maintenance actions fired this cycle *)
  mc_identical : bool;  (** 7/7 vs ground truth and from-scratch control *)
}

let m_core_indicators =
  [ "chain-depth"; "quarantined-pathways"; "void-degraded-steps";
    "retired-sources"; "journal-debt" ]

let m_indicator (report : Health.report) name =
  match
    List.find_opt
      (fun (i : Health.indicator) -> i.Health.i_name = name)
      report.Health.r_indicators
  with
  | Some i -> i
  | None -> die "E-M1: report lacks indicator %s" name

let maintenance_off_arm () =
  let repo = Repository.create () in
  let res =
    Resilience.create ~seed:evolution_seed ~policy:maintenance_policy ()
  in
  ok (Sources.wrap_all ~resilience:res repo dataset);
  let run = ok (Intersection_run.execute ~resilience:res repo) in
  let wf = run.Intersection_run.workflow in
  Resilience.inject res ~source:Sources.pedro_name
    (Resilience.Fault.rate evolution_fault_rate);
  List.init maintenance_cycles (fun i ->
      ignore (ok (Evolution.evolve wf (Churn.delta i)));
      let report = Health.assess ~resilience:res wf in
      let v name = int_of_float (m_indicator report name).Health.i_value in
      (i, v "chain-depth", v "quarantined-pathways", v "void-degraded-steps"))

let maintenance_on_arm () =
  let repo = Repository.create () in
  let durable = ok (Durable.attach (Vfs.memory ()) repo) in
  let res =
    Resilience.create ~seed:evolution_seed ~policy:maintenance_policy ()
  in
  ok (Sources.wrap_all ~resilience:res repo dataset);
  let run = ok (Intersection_run.execute ~resilience:res repo) in
  let wf = run.Intersection_run.workflow in
  Resilience.inject res ~source:Sources.pedro_name
    (Resilience.Fault.rate evolution_fault_rate);
  let scheduler = Maintain.Scheduler.create () in
  let cycles =
    List.init maintenance_cycles (fun i ->
        ignore (ok (Evolution.evolve wf (Churn.delta i)));
        let events =
          match
            Maintain.Scheduler.tick ~durable ~resilience:res scheduler wf
          with
          | Ok evs -> evs
          | Error e -> die "E-M1: scheduler tick %d: %s" i e
        in
        let live = run_seven "E-M1" wf in
        (* the from-scratch control replays the full unmaintained history:
           the answer baseline maintenance must match *)
        let identical = identical live (scratch_control "E-M1" i) in
        let report = Health.assess ~resilience:res ~durable wf in
        let v name = int_of_float (m_indicator report name).Health.i_value in
        let worst =
          List.fold_left
            (fun acc name ->
              let l = (m_indicator report name).Health.i_level in
              if l > acc then l else acc)
            Health.Good m_core_indicators
        in
        {
          mc_cycle = i;
          mc_depth = v "chain-depth";
          mc_quarantined = v "quarantined-pathways";
          mc_void = v "void-degraded-steps";
          mc_retired = v "retired-sources";
          mc_journal = v "journal-debt";
          mc_worst = worst;
          mc_events = List.map (fun e -> Maintain.action_label e.Maintain.e_action) events;
          mc_identical = identical;
        })
  in
  (cycles, Maintain.Scheduler.events scheduler)

let maintenance_outcome () =
  let off = maintenance_off_arm () in
  let on, events = maintenance_on_arm () in
  (off, on, events)

let maintenance_json (off, on, events) =
  let debt cycle depth quarantined void =
    [ ("cycle", int cycle); ("chain_depth", int depth);
      ("quarantined", int quarantined); ("void_steps", int void) ]
  in
  Microjson.Obj
    [
      ("experiment", Str "E-M1");
      ("cycles", int maintenance_cycles);
      ("fault_rate", Num evolution_fault_rate);
      ("seed", seed evolution_seed);
      ("answers_bit_identical", Bool (List.for_all (fun c -> c.mc_identical) on));
      ( "events",
        Arr
          (List.map
             (fun (e : Maintain.event) ->
               Microjson.Obj
                 [
                   ("tick", int e.Maintain.e_tick);
                   ("action", Str (Maintain.action_label e.Maintain.e_action));
                   ("trigger", Str e.Maintain.e_trigger);
                   ("outcome", Str e.Maintain.e_outcome);
                 ])
             events) );
      ( "maintained",
        Arr
          (List.map
             (fun (c : m_cycle) ->
               Microjson.Obj
                 (debt c.mc_cycle c.mc_depth c.mc_quarantined c.mc_void
                 @ [
                     ("retired", int c.mc_retired);
                     ("journal_bytes", int c.mc_journal);
                     ("worst", Str (Health.level_label c.mc_worst));
                     ("events", Arr (List.map (fun e -> Microjson.Str e) c.mc_events));
                     ("identical", Bool c.mc_identical);
                   ]))
             on) );
      ( "unmaintained",
        Arr (List.map (fun (i, d, q, v) -> Microjson.Obj (debt i d q v)) off) );
    ]

let experiment_maintenance ((off, on, events) as outcome) =
  section
    (Printf.sprintf
       "E-M1  Autonomic maintenance: %d evolve+query cycles, %.0f%% faults, \
        scheduler on vs off"
       maintenance_cycles
       (100.0 *. evolution_fault_rate));
  Printf.printf "maintenance actions fired (%d):\n" (List.length events);
  print_string (Maintain.Scheduler.report_to_text events);
  Printf.printf
    "\n  %-7s %-26s %-26s %-15s\n" "cycle" "chain depth  on / off"
    "void steps  on / off" "quarantined on / off";
  List.iter
    (fun (c : m_cycle) ->
      if c.mc_cycle mod 20 = 19 || c.mc_cycle = 0 then
        let _, od, oq, ov =
          List.nth off c.mc_cycle
        in
        Printf.printf "  %-7d %6d / %-6d %12s %6d / %-6d %12s %4d / %-4d\n"
          c.mc_cycle c.mc_depth od ""
          c.mc_void ov ""
          c.mc_quarantined oq)
    on;
  let max_depth =
    List.fold_left (fun acc c -> max acc c.mc_depth) 0 on
  in
  let worst =
    List.fold_left
      (fun acc c -> if c.mc_worst > acc then c.mc_worst else acc)
      Health.Good on
  in
  Printf.printf
    "\nmaintained arm: max chain depth %d, worst core-indicator level %s, \
     %d/%d cycles 7/7 bit-identical\n"
    max_depth
    (Health.level_label worst)
    (List.length (List.filter (fun c -> c.mc_identical) on))
    (List.length on);
  let off_crossing field threshold =
    List.find_opt (fun r -> float_of_int (field r) >= threshold) off
  in
  let cfg = Health.default_config in
  (match
     off_crossing (fun (_, d, _, _) -> d) cfg.Health.chain_depth.Health.warn
   with
  | Some (i, _, _, _) ->
      Printf.printf
        "unmaintained arm: chain depth crosses warn at cycle %d" i
  | None -> die "E-M1: unmaintained chain depth never crossed warn");
  (match
     off_crossing (fun (_, _, q, _) -> q) cfg.Health.quarantined.Health.warn
   with
  | Some (i, _, _, _) -> Printf.printf ", quarantines at cycle %d" i
  | None -> die "E-M1: unmaintained quarantines never crossed warn");
  (match
     off_crossing (fun (_, _, _, v) -> v) cfg.Health.void_degraded.Health.warn
   with
  | Some (i, _, _, _) -> Printf.printf ", void steps at cycle %d\n" i
  | None ->
      Printf.printf
        ", void steps stay under warn for the whole unmaintained run\n");
  (* the acceptance gates *)
  if not (List.for_all (fun c -> c.mc_identical) on) then
    die "E-M1: a maintained answer differs from the from-scratch control";
  if worst <> Health.Good then
    die
      "E-M1: a core health indicator reached %s under maintenance \
       (should stay below warn)"
      (Health.level_label worst);
  if max_depth > 13 then
    die "E-M1: chain depth reached %d — not bounded by the scheduler"
      max_depth;
  write_snapshot "BENCH_maintain.json" (maintenance_json outcome)

(* -- counts: the exact work-count gate ------------------------------------ *)

(* [bench/main.exe counts] re-runs the deterministic experiments, each
   under a fresh memory sink, and prints what each recorded: its span
   count, every counter and every histogram's observation count, one per
   line and sorted by name.  On the seeded dataset these reproduce
   exactly, so the runtest rule in bench/dune diffs them against the
   committed bench/work_counts.expected: a probe that vanished, a plan
   that stopped pruning, a cache that stopped hitting or one extra
   traced fetch fails the build.  Work that no probe sees does not show.
   A deliberate change is re-baselined with [dune promote]. *)
let run_counts () =
  let print name (m : Telemetry.Metrics.t) =
    Printf.printf "%s spans %d\n" name m.Telemetry.Metrics.spans;
    List.iter
      (fun (n, v) -> Printf.printf "%s counter %s %d\n" name n v)
      m.Telemetry.Metrics.counters;
    List.iter
      (fun (n, (h : Telemetry.Memory.histo)) ->
        Printf.printf "%s histogram %s n %d\n" name n h.Telemetry.Memory.n)
      m.Telemetry.Metrics.histograms
  in
  let count name f = print name (snd (measured f)) in
  count "E-T1" table1_run;
  count "E-CS1" effort_run;
  count "E-R1" resilience_outcomes;
  count "E-S1" pruning_run;
  count "E-O1" provenance_outcomes

(* -- entries ---------------------------------------------------------------- *)

(* The full run, in order; each entry also runs alone by name. *)
let experiments =
  [
    ("table1", fun () -> experiment_table1 (table1_run ()));
    ("effort", fun () -> experiment_effort (effort_run ()));
    ("payg", experiment_payg);
    ("figures", experiment_figures);
    ("user-cost", experiment_user_cost);
    ("resilience", fun () -> experiment_resilience (resilience_outcomes ()));
    ("durability", fun () -> experiment_durability (durability_outcome ()));
    ("pruning", fun () -> experiment_pruning (measured pruning_run));
    ("provenance", fun () -> experiment_provenance (provenance_outcomes ()));
    ( "evolution",
      fun () ->
        let outcome = evolution_outcome () in
        experiment_evolution outcome;
        experiment_debt_curve outcome );
  ]

(* [bench/main.exe NAME] runs one entry; no argument runs the full run.
   E-M1 ([maintenance]) is not part of it: its from-scratch control is
   O(n^2) over 200 cycles. *)
let entries =
  ("all", fun () -> List.iter (fun (_, run) -> run ()) experiments)
  :: ("counts", run_counts)
  :: ( "maintenance",
       fun () -> experiment_maintenance (maintenance_outcome ()) )
  :: experiments

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match List.assoc_opt name entries with
  | Some run -> run ()
  | None ->
      die "unknown entry %S; expected one of: %s" name
        (String.concat ", " (List.map fst entries))
