(* The telemetry library: span nesting and ordering, counter
   aggregation, memory-sink snapshot determinism, Chrome-trace JSON
   well-formedness, and no-sink/with-sink result equivalence for an
   instrumented Processor.run. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Telemetry = Automed_telemetry.Telemetry
module Chrome_trace = Automed_telemetry.Chrome_trace
module Microjson = Automed_telemetry.Microjson

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let ok_p = function Ok v -> v | Error e -> Alcotest.failf "%a" Processor.pp_error e

(* a deterministic clock: every reading advances by one second *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let with_fake_clock f =
  Telemetry.set_clock (fake_clock ());
  Fun.protect ~finally:(fun () -> Telemetry.set_clock Telemetry.wall_clock) f

let record f =
  with_fake_clock @@ fun () ->
  let mem = Telemetry.Memory.create () in
  Telemetry.with_sink (Telemetry.Memory.sink mem) f;
  mem

(* -- spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  let mem =
    record (fun () ->
        Telemetry.with_span "outer" (fun () ->
            Telemetry.with_span "inner_a" (fun () -> ());
            Telemetry.with_span "inner_b" (fun () ->
                Telemetry.with_span "leaf" (fun () -> ()))))
  in
  let spans = Telemetry.Memory.spans mem in
  Alcotest.(check (list string))
    "start order" [ "outer"; "inner_a"; "inner_b"; "leaf" ]
    (List.map (fun s -> s.Telemetry.Memory.name) spans);
  let find name =
    List.find (fun s -> s.Telemetry.Memory.name = name) spans
  in
  let outer = find "outer" in
  Alcotest.(check (option int)) "outer is a root" None outer.Telemetry.Memory.parent;
  Alcotest.(check (option int))
    "inner_a nests under outer" (Some outer.Telemetry.Memory.id)
    (find "inner_a").Telemetry.Memory.parent;
  Alcotest.(check (option int))
    "inner_b nests under outer" (Some outer.Telemetry.Memory.id)
    (find "inner_b").Telemetry.Memory.parent;
  Alcotest.(check (option int))
    "leaf nests under inner_b" (Some (find "inner_b").Telemetry.Memory.id)
    (find "leaf").Telemetry.Memory.parent

let test_span_exception_safe () =
  let mem =
    record (fun () ->
        try
          Telemetry.with_span "outer" (fun () ->
              Telemetry.with_span "boom" (fun () -> failwith "boom"))
        with Failure _ -> ())
  in
  (* both spans were closed despite the exception, and a later span is
     again a root: the stack was unwound correctly *)
  Alcotest.(check int) "both closed" 2 (List.length (Telemetry.Memory.spans mem));
  let mem2 =
    record (fun () ->
        (try Telemetry.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        Telemetry.with_span "after" (fun () -> ()))
  in
  let after =
    List.find
      (fun s -> s.Telemetry.Memory.name = "after")
      (Telemetry.Memory.spans mem2)
  in
  Alcotest.(check (option int)) "after is a root" None after.Telemetry.Memory.parent

let test_span_attrs_and_annotations () =
  let mem =
    record (fun () ->
        Telemetry.with_span "s"
          ~attrs:(fun () -> [ ("k", "v") ])
          (fun () -> Telemetry.annotate "rows" "42"))
  in
  let s = List.hd (Telemetry.Memory.spans mem) in
  Alcotest.(check (list (pair string string)))
    "begin attrs then annotations" [ ("k", "v"); ("rows", "42") ]
    s.Telemetry.Memory.attrs

let test_no_sink_probes_are_noops () =
  (* without a sink every probe must be safe and side-effect free *)
  Alcotest.(check bool) "inactive" false (Telemetry.active ());
  let v =
    Telemetry.with_span "free"
      ~attrs:(fun () -> Alcotest.fail "attrs forced without a sink")
      (fun () ->
        Telemetry.count "c";
        Telemetry.observe "h" 1.0;
        Telemetry.annotate "a" "b";
        17)
  in
  Alcotest.(check int) "value returned" 17 v

(* -- counters and histograms ---------------------------------------------- *)

let test_counter_aggregation () =
  let mem =
    record (fun () ->
        Telemetry.count "a";
        Telemetry.count ~by:4 "a";
        Telemetry.count "b";
        Telemetry.count ~by:0 "zero")
  in
  Alcotest.(check (list (pair string int)))
    "totals sorted by name"
    [ ("a", 5); ("b", 1); ("zero", 0) ]
    (Telemetry.Memory.counters mem);
  Alcotest.(check int) "single counter" 5 (Telemetry.Memory.counter mem "a");
  Alcotest.(check int) "missing counter" 0 (Telemetry.Memory.counter mem "nope")

let test_histogram_aggregation () =
  let mem =
    record (fun () ->
        List.iter (Telemetry.observe "h") [ 3.0; 1.0; 2.0 ])
  in
  match Telemetry.Memory.histograms mem with
  | [ ("h", { Telemetry.Memory.n; sum; min; max }) ] ->
      Alcotest.(check int) "n" 3 n;
      Alcotest.(check (float 1e-9)) "sum" 6.0 sum;
      Alcotest.(check (float 1e-9)) "min" 1.0 min;
      Alcotest.(check (float 1e-9)) "max" 3.0 max
  | hs -> Alcotest.failf "unexpected histograms (%d)" (List.length hs)

(* -- snapshot determinism ------------------------------------------------- *)

let scenario () =
  Telemetry.with_span "root" (fun () ->
      Telemetry.count ~by:2 "beta";
      Telemetry.count "alpha";
      Telemetry.with_span "child" (fun () -> Telemetry.observe "width" 7.5);
      Telemetry.with_span "child" (fun () -> Telemetry.observe "width" 2.5))

let test_snapshot_deterministic () =
  let render mem =
    let m = Telemetry.Metrics.of_memory mem in
    (Telemetry.Metrics.to_text m, Telemetry.Metrics.to_tsv m,
     Telemetry.Metrics.to_json m)
  in
  let t1, v1, j1 = render (record scenario) in
  let t2, v2, j2 = render (record scenario) in
  Alcotest.(check string) "text stable" t1 t2;
  Alcotest.(check string) "tsv stable" v1 v2;
  Alcotest.(check string) "json stable" j1 j2;
  (match Microjson.parse j1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "to_json output unparsable: %s" e);
  (* reset really clears the sink state *)
  let mem = record scenario in
  Telemetry.Memory.reset mem;
  Alcotest.(check int) "no spans after reset" 0
    (List.length (Telemetry.Memory.spans mem));
  Alcotest.(check (list (pair string int)))
    "no counters after reset" [] (Telemetry.Memory.counters mem)

(* -- Chrome trace export --------------------------------------------------- *)

let test_chrome_trace_well_formed () =
  let mem = record scenario in
  let json = Chrome_trace.render ~process_name:"test" mem in
  (match Chrome_trace.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid trace: %s" e);
  match Microjson.parse json with
  | Error e -> Alcotest.failf "trace not JSON: %s" e
  | Ok doc ->
      let events =
        match Microjson.member "traceEvents" doc with
        | Some (Microjson.Arr es) -> es
        | _ -> Alcotest.fail "traceEvents missing"
      in
      let ph e =
        match Microjson.member "ph" e with
        | Some (Microjson.Str s) -> s
        | _ -> Alcotest.fail "event without ph"
      in
      (* 1 metadata + 3 spans + 2 counters *)
      Alcotest.(check int) "span events" 3
        (List.length (List.filter (fun e -> ph e = "X") events));
      Alcotest.(check int) "counter events" 2
        (List.length (List.filter (fun e -> ph e = "C") events));
      Alcotest.(check int) "metadata events" 1
        (List.length (List.filter (fun e -> ph e = "M") events))

let test_chrome_trace_validate_rejects () =
  let reject name s =
    match Chrome_trace.validate s with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  reject "not JSON" "{";
  reject "no traceEvents" {|{"foo": []}|};
  reject "traceEvents not an array" {|{"traceEvents": 3}|};
  reject "event without ph" {|{"traceEvents": [{"name": "x"}]}|};
  reject "X event with string dur"
    {|{"traceEvents": [{"ph": "X", "name": "x", "ts": 0, "dur": "z"}]}|}

(* -- Jsonl sink ------------------------------------------------------------ *)

let test_jsonl_sink () =
  let lines = Buffer.create 256 in
  (with_fake_clock @@ fun () ->
   Telemetry.with_sink (Telemetry.Jsonl.sink (Buffer.add_string lines))
     scenario);
  let rendered = Buffer.contents lines in
  let rows =
    String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "")
  in
  (* begin/end per span (3 spans) + 2 counts + 2 observations *)
  Alcotest.(check int) "one line per event" 10 (List.length rows);
  List.iter
    (fun line ->
      match Microjson.parse line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e)
    rows

(* -- instrumented Processor.run: sink must not change results -------------- *)

let query_repo () =
  let q = Parser.parse_exn in
  let repo = Repository.create () in
  ok
    (Repository.add_schema repo
       (ok (Schema.of_objects "src" [ (Scheme.table "t", None) ])));
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
       (Value.Bag.of_list [ Value.Str "a"; Value.Str "b" ]));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "src";
         to_schema = "derived";
         steps =
           [ Transform.Add (Scheme.table "tagged", q "[{'S', k} | k <- <<t>>]") ];
       });
  repo

let test_sink_equivalence () =
  let text = "[k | {s, k} <- <<tagged>>; s = 'S']" in
  let run () =
    (* a fresh processor per run: no shared extent cache *)
    let proc = Processor.create (query_repo ()) in
    ok_p (Processor.run_string proc ~schema:"derived" text)
  in
  let bare = run () in
  let mem = Telemetry.Memory.create () in
  let sunk = Telemetry.with_sink (Telemetry.Memory.sink mem) run in
  Alcotest.(check bool) "same answer with and without a sink" true
    (Value.equal bare sunk);
  Alcotest.(check bool) "probes actually fired" true
    (Telemetry.Memory.counter mem "processor.runs" > 0
    && Telemetry.Memory.find_spans mem "processor.run" <> []);
  Alcotest.(check bool) "sink gone afterwards" false (Telemetry.active ())

(* -- install semantics, span ids, reservoir percentiles -------------------- *)

let test_install_flushes_replaced_sink () =
  (* regression: installing over a live sink must flush the old one so
     its buffered events are not silently dropped *)
  let flushed = ref false in
  let old_sink =
    { Telemetry.emit = (fun _ -> ()); flush = (fun () -> flushed := true) }
  in
  Telemetry.install old_sink;
  Alcotest.(check bool) "not flushed yet" false !flushed;
  let mem = Telemetry.Memory.create () in
  Telemetry.install (Telemetry.Memory.sink mem);
  Alcotest.(check bool) "replaced sink was flushed" true !flushed;
  Telemetry.count "after.swap";
  Telemetry.uninstall ();
  Alcotest.(check int) "new sink receives events" 1
    (Telemetry.Memory.counter mem "after.swap");
  Alcotest.(check bool) "uninstalled" false (Telemetry.active ())

let test_current_span_id () =
  Alcotest.(check (option int)) "none without a sink" None
    (Telemetry.current_span_id ());
  let mem = Telemetry.Memory.create () in
  let inner_id = ref None in
  Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
      Alcotest.(check (option int)) "none outside any span" None
        (Telemetry.current_span_id ());
      Telemetry.with_span "outer" (fun () ->
          Telemetry.with_span "inner" (fun () ->
              inner_id := Telemetry.current_span_id ())));
  let inner =
    List.find
      (fun s -> s.Telemetry.Memory.name = "inner")
      (Telemetry.Memory.spans mem)
  in
  Alcotest.(check (option int)) "innermost span id" (Some inner.Telemetry.Memory.id)
    !inner_id

let test_reservoir_percentiles () =
  let mem =
    record (fun () ->
        for i = 1 to 100 do
          Telemetry.observe "lat" (float_of_int i)
        done)
  in
  (match Telemetry.Memory.quantiles mem "lat" with
  | None -> Alcotest.fail "no quantiles for an observed histogram"
  | Some q ->
      (* 100 observations fit the 512-slot reservoir: exact nearest-rank *)
      Alcotest.(check (float 0.0)) "p50" 50.0 q.Telemetry.Memory.q50;
      Alcotest.(check (float 0.0)) "p95" 95.0 q.Telemetry.Memory.q95;
      Alcotest.(check (float 0.0)) "p99" 99.0 q.Telemetry.Memory.q99);
  Alcotest.(check (option unit)) "unobserved histogram has none" None
    (Option.map ignore (Telemetry.Memory.quantiles mem "nope"));
  (* over capacity the reservoir still yields a plausible estimate *)
  let big =
    record (fun () ->
        for i = 1 to 10_000 do
          Telemetry.observe "big" (float_of_int i)
        done)
  in
  (match Telemetry.Memory.quantiles big "big" with
  | None -> Alcotest.fail "no quantiles over capacity"
  | Some q ->
      Alcotest.(check bool) "p50 in bulk range" true
        (q.Telemetry.Memory.q50 > 1_000. && q.Telemetry.Memory.q50 < 9_000.);
      Alcotest.(check bool) "ordered" true
        (q.Telemetry.Memory.q50 <= q.Telemetry.Memory.q95
        && q.Telemetry.Memory.q95 <= q.Telemetry.Memory.q99));
  (* the Metrics snapshot carries the same percentiles *)
  let m = Telemetry.Metrics.of_memory mem in
  match Telemetry.Metrics.quantiles_of m "lat" with
  | Some q -> Alcotest.(check (float 0.0)) "metrics p95" 95.0 q.Telemetry.Memory.q95
  | None -> Alcotest.fail "metrics snapshot lacks quantiles"

(* -- hostile metric names ------------------------------------------------- *)

(* Names a probe should never use, but that must round-trip through
   every JSON emitter without producing invalid documents: tabs,
   quotes, newlines, backslashes, non-ASCII. *)
let hostile_names =
  [ "tab\tname"; "quo\"te"; "new\nline"; "back\\slash";
    "caf\xc3\xa9.r\xc3\xa9sum\xc3\xa9"; "ctrl\x01char" ]

let hostile_record () =
  record (fun () ->
      Telemetry.with_span "hostile\t\"span\"" (fun () ->
          List.iter
            (fun n ->
              Telemetry.count n;
              Telemetry.observe n (float_of_int (String.length n)))
            hostile_names))

let test_hostile_names_chrome_trace () =
  let mem = hostile_record () in
  let json = Chrome_trace.render ~process_name:"hostile \"proc\"" mem in
  (match Chrome_trace.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid trace: %s" e);
  match Microjson.parse json with
  | Error e -> Alcotest.failf "trace not JSON: %s" e
  | Ok _ -> ()

let test_hostile_names_metrics_json () =
  let mem = hostile_record () in
  let m = Telemetry.Metrics.of_memory mem in
  match Microjson.parse (Telemetry.Metrics.to_json m) with
  | Error e -> Alcotest.failf "metrics not JSON: %s" e
  | Ok doc -> (
      let counters =
        match Microjson.member "counters" doc with
        | Some (Microjson.Obj cs) -> cs
        | _ -> Alcotest.fail "counters missing"
      in
      Alcotest.(check int)
        "every hostile counter survives the round-trip"
        (List.length hostile_names) (List.length counters);
      List.iter
        (fun n ->
          match List.assoc_opt n counters with
          | Some (Microjson.Num 1.0) -> ()
          | Some _ -> Alcotest.failf "counter %S has wrong value" n
          | None -> Alcotest.failf "counter %S lost in the round-trip" n)
        hostile_names;
      match Microjson.member "histograms" doc with
      | Some (Microjson.Obj hs) ->
          Alcotest.(check int)
            "every hostile histogram survives"
            (List.length hostile_names) (List.length hs)
      | _ -> Alcotest.fail "histograms missing")

let test_hostile_names_jsonl () =
  let buf = Buffer.create 256 in
  let sink = Telemetry.Jsonl.sink (Buffer.add_string buf) in
  Telemetry.with_sink sink (fun () ->
      List.iter (fun n -> Telemetry.count n) hostile_names);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "one line per event" (List.length hostile_names)
    (List.length lines);
  List.iter
    (fun l ->
      match Microjson.parse l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "jsonl line %S not JSON: %s" l e)
    lines

(* Microjson.to_string: one fixed layout that parses back to the value *)
let test_json_to_string () =
  let open Microjson in
  let doc =
    Obj
      [
        ("name", Str "quo\"te\n");
        ("rate", Num 0.2);
        ("count", Num 3.0);
        ("small", Num 1e-7);
        ("flags", Arr [ Bool true; Null ]);
        ("rows", Arr [ Obj [ ("q", Num 1.0); ("tags", Arr [ Str "a" ]) ]; Obj [] ]);
        ("nested", Obj [ ("ok", Num 7.0) ]);
        ("empty", Arr []);
      ]
  in
  let text = to_string doc in
  Alcotest.(check string) "layout"
    "{\n\
    \  \"name\": \"quo\\\"te\\n\",\n\
    \  \"rate\": 0.2,\n\
    \  \"count\": 3,\n\
    \  \"small\": 1e-07,\n\
    \  \"flags\": [true, null],\n\
    \  \"rows\": [\n\
    \    {\"q\": 1, \"tags\": [\"a\"]},\n\
    \    {}\n\
    \  ],\n\
    \  \"nested\": {\n\
    \    \"ok\": 7\n\
    \  },\n\
    \  \"empty\": []\n\
     }\n"
    text;
  Alcotest.(check bool) "parses back to the same value" true
    (parse text = Ok doc);
  Alcotest.(check bool) "an irrational number round-trips" true
    (parse (to_string (Num (Float.pi /. 3.0))) = Ok (Num (Float.pi /. 3.0)))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "span attrs and annotations" `Quick
      test_span_attrs_and_annotations;
    Alcotest.test_case "probes are no-ops without a sink" `Quick
      test_no_sink_probes_are_noops;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "histogram aggregation" `Quick test_histogram_aggregation;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_deterministic;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_chrome_trace_well_formed;
    Alcotest.test_case "chrome trace validation rejects" `Quick
      test_chrome_trace_validate_rejects;
    Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
    Alcotest.test_case "with-sink run equals no-sink run" `Quick
      test_sink_equivalence;
    Alcotest.test_case "install flushes the replaced sink" `Quick
      test_install_flushes_replaced_sink;
    Alcotest.test_case "current span id" `Quick test_current_span_id;
    Alcotest.test_case "reservoir percentiles" `Quick
      test_reservoir_percentiles;
    Alcotest.test_case "hostile names: chrome trace" `Quick
      test_hostile_names_chrome_trace;
    Alcotest.test_case "hostile names: metrics json" `Quick
      test_hostile_names_metrics_json;
    Alcotest.test_case "hostile names: jsonl sink" `Quick
      test_hostile_names_jsonl;
    Alcotest.test_case "json to_string" `Quick test_json_to_string;
  ]
