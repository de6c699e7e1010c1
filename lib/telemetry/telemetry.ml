type event =
  | Span_begin of {
      id : int;
      parent : int option;
      name : string;
      ts : float;
      attrs : (string * string) list;
    }
  | Span_end of {
      id : int;
      name : string;
      ts : float;
      attrs : (string * string) list;
    }
  | Count of { name : string; delta : int }
  | Observe of { name : string; value : float }

type sink = { emit : event -> unit; flush : unit -> unit }

let null_sink = { emit = ignore; flush = ignore }

let wall_clock = Unix.gettimeofday
let clock = ref wall_clock
let set_clock f = clock := f

type frame = { fid : int; fname : string; mutable fattrs : (string * string) list }

type state = {
  sink : sink;
  mutable next_id : int;
  mutable stack : frame list;
  mutable last_ts : float;
}

let current : state option ref = ref None

(* clamped-monotonic clock reading *)
let now st =
  let t = !clock () in
  let t = if t >= st.last_ts then t else st.last_ts in
  st.last_ts <- t;
  t

let install sink =
  (* flush the sink being replaced so its buffered events are not lost *)
  (match !current with None -> () | Some st -> st.sink.flush ());
  current := Some { sink; next_id = 0; stack = []; last_ts = !clock () }

let uninstall () =
  match !current with
  | None -> ()
  | Some st ->
      current := None;
      st.sink.flush ()

let active () = !current <> None

let installed () =
  match !current with None -> None | Some st -> Some st.sink

let tee a b =
  {
    emit = (fun e -> a.emit e; b.emit e);
    flush = (fun () -> a.flush (); b.flush ());
  }

let with_sink sink f =
  let previous = !current in
  install sink;
  let restore () =
    uninstall ();
    current := previous
  in
  match f () with
  | v -> restore (); v
  | exception e -> restore (); raise e

let count ?(by = 1) name =
  match !current with
  | None -> ()
  | Some st -> st.sink.emit (Count { name; delta = by })

let observe name value =
  match !current with
  | None -> ()
  | Some st -> st.sink.emit (Observe { name; value })

let current_span_id () =
  match !current with
  | None -> None
  | Some st -> ( match st.stack with [] -> None | f :: _ -> Some f.fid)

let annotate key value =
  match !current with
  | None -> ()
  | Some st -> (
      match st.stack with
      | [] -> ()
      | f :: _ -> f.fattrs <- (key, value) :: f.fattrs)

let with_span ?attrs name f =
  match !current with
  | None -> f ()
  | Some st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      let parent = match st.stack with [] -> None | p :: _ -> Some p.fid in
      let attrs = match attrs with None -> [] | Some mk -> mk () in
      st.sink.emit (Span_begin { id; parent; name; ts = now st; attrs });
      let frame = { fid = id; fname = name; fattrs = [] } in
      st.stack <- frame :: st.stack;
      let finish () =
        (match st.stack with
        | f :: rest when f == frame -> st.stack <- rest
        | stack -> st.stack <- List.filter (fun f -> f != frame) stack);
        st.sink.emit
          (Span_end
             { id; name = frame.fname; ts = now st; attrs = List.rev frame.fattrs })
      in
      (match f () with
      | v -> finish (); v
      | exception e -> finish (); raise e)

(* -- memory sink --------------------------------------------------------- *)

module Memory = struct
  type span = {
    id : int;
    parent : int option;
    name : string;
    start : float;
    dur : float;
    attrs : (string * string) list;
  }

  type histo = { n : int; sum : float; min : float; max : float }

  (* Bounded reservoir (Vitter's algorithm R) retaining a uniform sample
     of each histogram's observations for quantile estimation.  The
     replacement index stream is SplitMix64 seeded from the histogram
     name, so snapshots are deterministic across runs. *)
  type reservoir = {
    samples : float array;
    mutable seen : int;
    mutable rng : int64;
  }

  let reservoir_capacity = 512

  let splitmix_next r =
    r.rng <- Int64.add r.rng 0x9E3779B97F4A7C15L;
    let z = r.rng in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let reservoir_create name =
    {
      samples = Array.make reservoir_capacity 0.0;
      seen = 0;
      rng = Int64.of_int (Hashtbl.hash name);
    }

  let reservoir_add r v =
    (if r.seen < reservoir_capacity then r.samples.(r.seen) <- v
     else
       let j =
         Int64.to_int
           (Int64.rem
              (Int64.logand (splitmix_next r) Int64.max_int)
              (Int64.of_int (r.seen + 1)))
       in
       if j < reservoir_capacity then r.samples.(j) <- v);
    r.seen <- r.seen + 1

  type quantiles = { q50 : float; q95 : float; q99 : float }

  type open_span = {
    o_parent : int option;
    o_name : string;
    o_start : float;
    o_attrs : (string * string) list;
  }

  type t = {
    mutable completed : span list; (* reverse completion order *)
    opened : (int, open_span) Hashtbl.t;
    cnt : (string, int ref) Hashtbl.t;
    his : (string, histo ref) Hashtbl.t;
    res : (string, reservoir) Hashtbl.t;
  }

  let create () =
    {
      completed = [];
      opened = Hashtbl.create 32;
      cnt = Hashtbl.create 32;
      his = Hashtbl.create 32;
      res = Hashtbl.create 32;
    }

  let reset t =
    t.completed <- [];
    Hashtbl.reset t.opened;
    Hashtbl.reset t.cnt;
    Hashtbl.reset t.his;
    Hashtbl.reset t.res

  let emit t = function
    | Span_begin { id; parent; name; ts; attrs } ->
        Hashtbl.replace t.opened id
          { o_parent = parent; o_name = name; o_start = ts; o_attrs = attrs }
    | Span_end { id; ts; attrs; _ } -> (
        match Hashtbl.find_opt t.opened id with
        | None -> ()
        | Some o ->
            Hashtbl.remove t.opened id;
            t.completed <-
              {
                id;
                parent = o.o_parent;
                name = o.o_name;
                start = o.o_start;
                dur = ts -. o.o_start;
                attrs = o.o_attrs @ attrs;
              }
              :: t.completed)
    | Count { name; delta } -> (
        match Hashtbl.find_opt t.cnt name with
        | Some r -> r := !r + delta
        | None -> Hashtbl.add t.cnt name (ref delta))
    | Observe { name; value } -> (
        (match Hashtbl.find_opt t.res name with
        | Some r -> reservoir_add r value
        | None ->
            let r = reservoir_create name in
            reservoir_add r value;
            Hashtbl.add t.res name r);
        match Hashtbl.find_opt t.his name with
        | Some r ->
            let h = !r in
            r :=
              {
                n = h.n + 1;
                sum = h.sum +. value;
                min = Float.min h.min value;
                max = Float.max h.max value;
              }
        | None ->
            Hashtbl.add t.his name
              (ref { n = 1; sum = value; min = value; max = value }))

  let sink t = { emit = emit t; flush = ignore }

  let spans t =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> Int.compare a.id b.id
        | c -> c)
      t.completed

  let sorted_bindings tbl deref =
    Hashtbl.fold (fun k v acc -> (k, deref v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counters t = sorted_bindings t.cnt ( ! )
  let histograms t = sorted_bindings t.his ( ! )

  let counter t name =
    match Hashtbl.find_opt t.cnt name with Some r -> !r | None -> 0

  let find_spans t name = List.filter (fun s -> s.name = name) (spans t)

  (* nearest-rank percentile over the retained sample *)
  let percentile sorted n p =
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)

  let quantiles t name =
    match Hashtbl.find_opt t.res name with
    | None -> None
    | Some r ->
        let n = Stdlib.min r.seen reservoir_capacity in
        if n = 0 then None
        else begin
          let s = Array.sub r.samples 0 n in
          Array.sort Float.compare s;
          Some
            {
              q50 = percentile s n 0.50;
              q95 = percentile s n 0.95;
              q99 = percentile s n 0.99;
            }
        end
end

(* -- JSONL sink ----------------------------------------------------------- *)

module Jsonl = struct
  let render = function
    | Span_begin { id; parent; name; ts; attrs } ->
        Printf.sprintf
          "{\"ev\":\"span_begin\",\"id\":%d,\"parent\":%s,\"name\":%s,\"ts\":%.6f%s}\n"
          id
          (match parent with Some p -> string_of_int p | None -> "null")
          (Microjson.escape name) ts
          (Microjson.obj_suffix "attrs" attrs)
    | Span_end { id; name; ts; attrs } ->
        Printf.sprintf
          "{\"ev\":\"span_end\",\"id\":%d,\"name\":%s,\"ts\":%.6f%s}\n" id
          (Microjson.escape name) ts
          (Microjson.obj_suffix "attrs" attrs)
    | Count { name; delta } ->
        Printf.sprintf "{\"ev\":\"count\",\"name\":%s,\"delta\":%d}\n"
          (Microjson.escape name) delta
    | Observe { name; value } ->
        Printf.sprintf "{\"ev\":\"observe\",\"name\":%s,\"value\":%s}\n"
          (Microjson.escape name)
          (Microjson.number value)

  let sink write = { emit = (fun ev -> write (render ev)); flush = ignore }

  let to_channel oc =
    {
      emit = (fun ev -> output_string oc (render ev));
      flush = (fun () -> flush oc);
    }
end

(* -- metric snapshots ------------------------------------------------------ *)

module Metrics = struct
  type t = {
    spans : int;
    counters : (string * int) list;
    histograms : (string * Memory.histo) list;
    quantiles : (string * Memory.quantiles) list;
  }

  let of_memory m =
    let histograms = Memory.histograms m in
    {
      spans = List.length (Memory.spans m);
      counters = Memory.counters m;
      histograms;
      quantiles =
        List.filter_map
          (fun (name, _) ->
            match Memory.quantiles m name with
            | Some q -> Some (name, q)
            | None -> None)
          histograms;
    }

  let quantiles_of t name = List.assoc_opt name t.quantiles

  let to_text t =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "spans: %d\n" t.spans);
    if t.counters <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (n, v) -> Buffer.add_string b (Printf.sprintf "  %-40s %10d\n" n v))
        t.counters
    end;
    if t.histograms <> [] then begin
      Buffer.add_string b "histograms:\n";
      List.iter
        (fun (name, (h : Memory.histo)) ->
          let qs =
            match quantiles_of t name with
            | None -> ""
            | Some q ->
                Printf.sprintf " p50=%g p95=%g p99=%g" q.Memory.q50
                  q.Memory.q95 q.Memory.q99
          in
          Buffer.add_string b
            (Printf.sprintf "  %-40s n=%d sum=%g min=%g max=%g%s\n" name h.n
               h.sum h.min h.max qs))
        t.histograms
    end;
    Buffer.contents b

  let to_tsv t =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "spans\t-\t%d\n" t.spans);
    List.iter
      (fun (n, v) -> Buffer.add_string b (Printf.sprintf "counter\t%s\t%d\n" n v))
      t.counters;
    List.iter
      (fun (name, (h : Memory.histo)) ->
        let qs =
          match quantiles_of t name with
          | None -> "\t-\t-\t-"
          | Some q ->
              Printf.sprintf "\t%s\t%s\t%s"
                (Microjson.number q.Memory.q50)
                (Microjson.number q.Memory.q95)
                (Microjson.number q.Memory.q99)
        in
        Buffer.add_string b
          (Printf.sprintf "histogram\t%s\t%d\t%s\t%s\t%s%s\n" name h.n
             (Microjson.number h.sum) (Microjson.number h.min)
             (Microjson.number h.max) qs))
      t.histograms;
    Buffer.contents b

  let to_json t =
    let num f = Microjson.Num f and int n = Microjson.Num (float_of_int n) in
    let histo (name, (h : Memory.histo)) =
      let qs =
        match quantiles_of t name with
        | None -> []
        | Some q ->
            [ ("p50", num q.Memory.q50); ("p95", num q.Memory.q95);
              ("p99", num q.Memory.q99) ]
      in
      ( name,
        Microjson.Obj
          ([ ("n", int h.n); ("sum", num h.sum); ("min", num h.min);
             ("max", num h.max) ]
          @ qs) )
    in
    Microjson.Obj
      [
        ("spans", int t.spans);
        ("counters", Obj (List.map (fun (n, v) -> (n, int v)) t.counters));
        ("histograms", Obj (List.map histo t.histograms));
      ]
end
