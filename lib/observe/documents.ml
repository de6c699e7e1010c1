module Scheme = Automed_base.Scheme
module Ast = Automed_iql.Ast
module Value = Automed_iql.Value
module Lineage = Automed_provenance.Lineage
module Microjson = Automed_telemetry.Microjson
module Telemetry = Automed_telemetry.Telemetry
module Processor = Automed_query.Processor
open Microjson

let int n = Num (float_of_int n)
let strings l = Arr (List.map (fun s -> Str s) l)

let rec node (n : Processor.explain_node) =
  Obj
    [
      ("schema", Str n.en_schema);
      ("object", Str (Scheme.to_string n.en_object));
      ("stored", Bool n.en_stored);
      ("rows", match n.en_rows with Some r -> int r | None -> Null);
      ("cached", Bool (n.en_cached = Processor.Cache_hit));
      ("pathways", Arr (List.map pathway n.en_pathways));
    ]

and pathway (p : Processor.explain_pathway) =
  let decision, reason, children =
    match p.ep_decision with
    | Processor.Applied cs -> ("applied", Null, List.map node cs)
    | Processor.Pruned r -> ("pruned", Str r, [])
    | Processor.No_definition r -> ("no-definition", Str r, [])
  in
  Obj
    [
      ("from", Str p.ep_from);
      ("steps", int p.ep_steps);
      ("decision", Str decision);
      ("reason", reason);
      ("children", Arr children);
    ]

(* the lineage in the exact form its digest was computed over *)
let lineage l =
  match parse (Lineage.to_json l) with Ok v -> v | Error e -> invalid_arg e

let tuple (tp : Processor.annotated_tuple) =
  Obj
    [
      ("value", Str (Value.to_string tp.value));
      ("count", int tp.count);
      ("lineage", lineage tp.lineage);
      ("mac", Str tp.mac);
    ]

let completeness (c : Processor.completeness) =
  let skipped (s, reason) =
    Obj
      [
        ("source", Str s);
        ("reason", Str reason);
        ( "impact",
          int (Option.value ~default:0 (List.assoc_opt s c.source_impact)) );
      ]
  in
  Obj
    [
      ("complete", Bool c.complete);
      ("sources_ok", strings c.sources_ok);
      ("skipped", Arr (List.map skipped c.sources_skipped));
    ]

let explain ~schema ~query (plan : Processor.explain)
    (ann : Processor.annotated) c mem =
  let spans = Telemetry.Memory.spans mem in
  let t0 =
    List.fold_left
      (fun a (s : Telemetry.Memory.span) -> Float.min a s.start)
      infinity spans
  in
  let stage (s : Telemetry.Memory.span) =
    Obj
      [
        ("id", int s.id);
        ("parent", match s.parent with Some p -> int p | None -> Null);
        ("name", Str s.name);
        ("start_ms", Num ((s.start -. t0) *. 1000.0));
        ("dur_ms", Num (s.dur *. 1000.0));
      ]
  in
  Obj
    [
      ("schema", Str schema);
      ("query", Str query);
      ("optimized", Str (Ast.to_string plan.ex_optimized));
      ("plan", Arr (List.map node plan.ex_roots));
      ("tuples", Arr (List.map tuple ann.tuples));
      ("completeness", match c with Some c -> completeness c | None -> Null);
      ("stages", Arr (List.map stage spans));
      ("metrics", Telemetry.Metrics.to_json (Telemetry.Metrics.of_memory mem));
    ]

let status report (metrics : Telemetry.Metrics.t) ~top =
  let quantiles (name, (q : Telemetry.Memory.quantiles)) =
    (name, Obj [ ("p50", Num q.q50); ("p95", Num q.q95); ("p99", Num q.q99) ])
  in
  let health = match Health.to_json report with Obj ms -> ms | _ -> [] in
  Obj
    (health
    @ [
        ("counters", Obj (List.map (fun (n, v) -> (n, int v)) top));
        ("latency", Obj (List.map quantiles metrics.quantiles));
      ])
