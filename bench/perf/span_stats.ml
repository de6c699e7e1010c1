(* A telemetry sink that keeps only aggregates: per span name the number
   of calls, total time and self time (duration minus the part its child
   spans cover), and per counter its total.  Memory stays bounded however
   long the traced run is, unlike a sink that keeps every span. *)

module Telemetry = Automed_telemetry.Telemetry

type span_total = {
  mutable calls : int;
  mutable self_s : float;
  mutable total_s : float;
}

type open_span = {
  id : int;
  name : string;
  start : float;
  mutable children : float;  (** time covered by finished child spans *)
}

type t = {
  spans : (string, span_total) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  mutable stack : open_span list;  (** innermost first *)
}

let create () =
  { spans = Hashtbl.create 64; counters = Hashtbl.create 64; stack = [] }

let close t o ts =
  let dur = ts -. o.start in
  (match t.stack with p :: _ -> p.children <- p.children +. dur | [] -> ());
  let s =
    match Hashtbl.find_opt t.spans o.name with
    | Some s -> s
    | None ->
        let s = { calls = 0; self_s = 0.0; total_s = 0.0 } in
        Hashtbl.replace t.spans o.name s;
        s
  in
  s.calls <- s.calls + 1;
  s.self_s <- s.self_s +. dur -. o.children;
  s.total_s <- s.total_s +. dur

let sink t =
  let emit = function
    | Telemetry.Span_begin { id; name; ts; _ } ->
        t.stack <- { id; name; start = ts; children = 0.0 } :: t.stack
    | Span_end { id; ts; _ } -> (
        match t.stack with
        | o :: rest when o.id = id ->
            t.stack <- rest;
            close t o ts
        | _ -> ())
    | Count { name; delta } ->
        Hashtbl.replace t.counters name
          (delta + Option.value ~default:0 (Hashtbl.find_opt t.counters name))
    | Observe _ -> ()
  in
  { Telemetry.emit; flush = ignore }

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

let spans t =
  List.sort
    (fun (_, a) (_, b) -> Float.compare b.self_s a.self_s)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.spans [])
