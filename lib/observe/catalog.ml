module Microjson = Automed_telemetry.Microjson

type kind = Counter | Histogram

type decl = {
  name : string;
  kind : kind;
  unit_ : string;
  description : string;
  dynamic : bool;
}

let kind_label = function Counter -> "counter" | Histogram -> "histogram"

let c ?(dynamic = false) name unit_ description =
  { name; kind = Counter; unit_; description; dynamic }

let h name unit_ description =
  { name; kind = Histogram; unit_; description; dynamic = false }

(* One entry per probe name in the tree, sorted by name.  Keep this list
   in lock-step with the emit sites: the [metrics check] runtest rule
   fails on any name present on one side only. *)
let all =
  [
    c "analysis.fixes_applied" "fixes"
      "pathway repairs applied by [lint --fix] (journaled replacements)";
    c "analysis.pathways_quarantined" "pathways"
      "stranded pathways degraded to the all-Void quarantine shape";
    c "analysis.rewrite.applications" "rewrites"
      "individual simplification-rule applications during a fixpoint run";
    c "analysis.rewrites_certified" "rewrites"
      "simplified pathways accepted by the independent Equiv certifier";
    c "analysis.rewrites_refused" "rewrites"
      "simplified pathways the certifier could not prove equivalent";
    c "durable.append" "records"
      "repository mutations appended to the write-ahead journal";
    c "durable.replay" "records"
      "journal records re-applied during recovery";
    c "durable.scrub_bad_record" "records"
      "journal records rejected by scrub/recovery (bad checksum or payload)";
    c "durable.snapshot" "checkpoints"
      "atomic checkpoints written (each empties the journal)";
    c "evolution.pathways_patched" "pathways"
      "stranded pathways repaired in place by modification propagation";
    h "evolution.repair_ms" "ms"
      "wall clock of one applied evolution (chain + patch + invalidate)";
    c "evolution.sources_added" "sources"
      "live source additions applied through Evolution.evolve";
    c "evolution.sources_altered" "sources"
      "live source alterations applied through Evolution.evolve";
    c "evolution.sources_dropped" "sources"
      "live source retirements applied through Evolution.evolve";
    h "iql.eval.bag_size" "rows"
      "cardinality of each materialised bag during IQL evaluation";
    c "iql.eval.nodes" "nodes" "IQL AST nodes evaluated";
    c "iql.optimize.comprehensions" "comprehensions"
      "comprehensions whose qualifiers the optimiser rescheduled";
    c "lint.diagnostics.error" "diagnostics" "lint diagnostics at error level";
    c "lint.diagnostics.info" "diagnostics" "lint diagnostics at info level";
    c "lint.diagnostics.warning" "diagnostics"
      "lint diagnostics at warning level";
    c "maintain.checkpoints" "checkpoints"
      "journal checkpoints fired by the maintenance scheduler";
    c "maintain.compactions" "compactions"
      "certified chain compactions committed";
    c "maintain.compactions_refused" "compactions"
      "chain compactions refused because a certificate could not be produced";
    c "maintain.pathways_reclaimed" "pathways"
      "provably-inert quarantined pathways removed by reclamation";
    c "maintain.reclamations" "reclamations"
      "targeted re-integrations committed by reclamation";
    c "maintain.scheduler_ticks" "ticks"
      "maintenance scheduler heartbeats (most fire no action)";
    c "processor.degraded_answers" "answers"
      "answers served with at least one source skipped";
    c "processor.degraded_runs" "runs" "degraded-mode query evaluations";
    c "processor.explains" "plans" "side-effect-free explain plans built";
    c "processor.extent.cache_hits" "lookups" "extent-cache hits";
    c "processor.extent.cache_misses" "lookups" "extent-cache misses";
    c "processor.invalidated.extents" "entries"
      "extent-cache entries dropped by targeted churn invalidation";
    c "processor.invalidated.pinfo" "entries"
      "memoised pathway analyses dropped by targeted churn invalidation";
    c "processor.invalidated.provenance" "entries"
      "provenance-cache entries dropped by targeted churn invalidation";
    c "processor.pathway_applications" "pathways"
      "pathway replays started while deriving extents";
    c "processor.pathway_steps_replayed" "steps"
      "primitive transformation steps replayed while deriving extents";
    c "processor.pathways_pruned" "pathways"
      "pathway replays skipped because reachability proves them empty";
    c "processor.provenance_runs" "runs" "lineage-annotated query evaluations";
    h "processor.reformulated_size" "nodes"
      "AST size of each reformulated query";
    c "processor.reformulations" "queries"
      "global-to-source query reformulations";
    c "processor.rows_fetched" "rows" "rows fetched from source extents";
    c "processor.runs" "runs" "plain query evaluations";
    c "processor.translations" "queries" "schema-to-schema query translations";
    c "repository.chains_compacted" "transactions"
      "atomic chain-compaction transactions applied (swap + reroutes)";
    c "repository.contributions_registered" "pathways"
      "contribution pathways registered";
    c "repository.find_path.nodes_expanded" "nodes"
      "schemas expanded by the pathway-network search";
    h "repository.find_path.path_length" "steps"
      "length of each pathway chain found between two schemas";
    c "repository.pathways_registered" "pathways" "pathways registered";
    c "repository.pathways_removed" "pathways"
      "pathways removed under a caller-held inertness certificate";
    c "repository.pathways_replaced" "pathways"
      "pathways replaced in place (lint --fix, quarantine, patches)";
    c "repository.pathways_restored" "pathways"
      "pathways restored verbatim from a checkpoint (trusted load)";
    c "repository.schemas_altered" "alters"
      "schema alterations applied (add/drop/rename of objects)";
    c "repository.sources_retired" "sources"
      "source schemas retired (kept queryable, no longer live)";
    c "resilience.breaker_open" "transitions"
      "circuit-breaker closed/half-open to open transitions";
    c "resilience.disk.bit_flip" "faults" "injected disk bit-flip faults";
    c "resilience.disk.failed_rename" "faults"
      "injected atomic-rename failures";
    c "resilience.disk.short_read" "faults" "injected short reads";
    c "resilience.disk.torn_write" "faults" "injected torn writes";
    c "resilience.evolved_reject" "calls"
      "calls rejected because the source evolved away (retired)";
    c "resilience.fault_injected" "attempts"
      "attempts failed by the deterministic fault injector";
    c "resilience.retry" "attempts" "retry attempts beyond the first";
    c "resilience.short_circuit" "calls"
      "calls rejected while a breaker was open";
    c "resilience.timeout" "attempts"
      "attempts lost to the per-call timeout budget";
    c "source.skipped" "fetches"
      "source fetches skipped in degraded mode (policy exhausted)";
    c "source.skipped_evolved" "fetches"
      "source fetches skipped because the source evolved away";
    h "status.probe_ms" "ms"
      "wall-clock of one probe query of the status dashboard";
    c ~dynamic:true "transform.prim.add" "steps"
      "add steps applied (emitted via Transform.prim_counter)";
    c ~dynamic:true "transform.prim.contract" "steps"
      "contract steps applied (emitted via Transform.prim_counter)";
    c ~dynamic:true "transform.prim.delete" "steps"
      "delete steps applied (emitted via Transform.prim_counter)";
    c ~dynamic:true "transform.prim.extend" "steps"
      "extend steps applied (emitted via Transform.prim_counter)";
    c ~dynamic:true "transform.prim.id" "steps"
      "id steps applied (emitted via Transform.prim_counter)";
    c ~dynamic:true "transform.prim.rename" "steps"
      "rename steps applied (emitted via Transform.prim_counter)";
    c "wrapper.rows_materialized" "rows"
      "rows materialised into stored extents by source wrappers";
  ]

let find name = List.find_opt (fun d -> d.name = name) all

let to_text () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%-42s %-9s %-12s %s\n" "name" "kind" "unit" "description");
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "%-42s %-9s %-12s %s%s\n" d.name (kind_label d.kind)
           d.unit_ d.description
           (if d.dynamic then "  [dynamic]" else "")))
    all;
  Buffer.add_string b
    (Printf.sprintf "-- %d metrics (%d counters, %d histograms)\n"
       (List.length all)
       (List.length (List.filter (fun d -> d.kind = Counter) all))
       (List.length (List.filter (fun d -> d.kind = Histogram) all)));
  Buffer.contents b

let to_json () =
  let entry d =
    Microjson.Obj
      [
        ("name", Str d.name);
        ("kind", Str (kind_label d.kind));
        ("unit", Str d.unit_);
        ("description", Str d.description);
        ("dynamic", Bool d.dynamic);
      ]
  in
  Microjson.Obj [ ("metrics", Arr (List.map entry all)) ]

(* -- source scanning ------------------------------------------------------ *)

type site = {
  s_file : string;
  s_line : int;
  s_kind : kind;
  s_name : string option;
}

(* A tiny purpose-built lexer: after a [Telemetry.count]/[.observe]
   token, skip whitespace and at most one [~by:] argument (identifier or
   balanced parens, possibly spanning lines), then read the name if it
   is a string literal.  Anything else is a dynamic site. *)
let scan ~file src =
  let n = String.length src in
  let line_at =
    (* offset -> 1-based line, via a precomputed newline index *)
    let newlines = ref [] in
    String.iteri (fun i ch -> if ch = '\n' then newlines := i :: !newlines) src;
    let arr = Array.of_list (List.rev !newlines) in
    fun off ->
      let rec bisect lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if arr.(mid) < off then bisect (mid + 1) hi else bisect lo mid
      in
      1 + bisect 0 (Array.length arr)
  in
  let is_ident ch =
    (ch >= 'a' && ch <= 'z')
    || (ch >= 'A' && ch <= 'Z')
    || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = '.' || ch = '\''
  in
  let skip_ws i =
    let i = ref i in
    while !i < n && (src.[!i] = ' ' || src.[!i] = '\n' || src.[!i] = '\t') do
      incr i
    done;
    !i
  in
  let skip_parens i =
    (* [i] points at '('; returns the offset after the matching ')' *)
    let depth = ref 0 and i = ref i in
    let continue = ref true in
    while !continue && !i < n do
      (match src.[!i] with
      | '(' -> incr depth
      | ')' -> decr depth; if !depth = 0 then continue := false
      | _ -> ());
      incr i
    done;
    !i
  in
  let read_literal i =
    (* [i] points at the opening quote; the probe names in this tree
       contain no escapes, but skip backslash pairs defensively *)
    let j = ref (i + 1) and b = Buffer.create 32 in
    let closed = ref false in
    while (not !closed) && !j < n do
      (match src.[!j] with
      | '"' -> closed := true
      | '\\' when !j + 1 < n ->
          Buffer.add_char b src.[!j];
          incr j;
          Buffer.add_char b src.[!j]
      | ch -> Buffer.add_char b ch);
      incr j
    done;
    if !closed then Some (Buffer.contents b) else None
  in
  let sites = ref [] in
  let add off kind name =
    sites := { s_file = file; s_line = line_at off; s_kind = kind; s_name = name } :: !sites
  in
  let try_at off kind token =
    let tl = String.length token in
    if off + tl <= n && String.sub src off tl = token then begin
      let i = skip_ws (off + tl) in
      let i =
        if i + 4 <= n && String.sub src i 4 = "~by:" then begin
          let j = skip_ws (i + 4) in
          let j =
            if j < n && src.[j] = '(' then skip_parens j
            else begin
              let j = ref j in
              while !j < n && is_ident src.[!j] do incr j done;
              !j
            end
          in
          skip_ws j
        end
        else i
      in
      if i < n && src.[i] = '"' then add off kind (read_literal i)
      else add off kind None;
      true
    end
    else false
  in
  (* the probe tokens are built by concatenation so that scanning this
     very file does not mistake them for emit sites *)
  let count_tok = "Telemetry" ^ ".count" in
  let observe_tok = "Telemetry" ^ ".observe" in
  let i = ref 0 in
  while !i < n do
    if
      try_at !i Counter (count_tok ^ " ")
      || try_at !i Counter (count_tok ^ "\n")
      || try_at !i Histogram (observe_tok ^ " ")
      || try_at !i Histogram (observe_tok ^ "\n")
    then i := !i + String.length count_tok
    else incr i
  done;
  List.rev !sites

type issue =
  | Undeclared of site * string
  | Orphaned of decl
  | Kind_mismatch of site * string * decl

let pp_issue ppf = function
  | Undeclared (s, name) ->
      Fmt.pf ppf "%s:%d: %s site emits undeclared metric %S" s.s_file s.s_line
        (kind_label s.s_kind) name
  | Orphaned d ->
      Fmt.pf ppf "catalog declares %s %S but no emit site remains"
        (kind_label d.kind) d.name
  | Kind_mismatch (s, name, d) ->
      Fmt.pf ppf "%s:%d: %s site emits %S, declared as a %s" s.s_file s.s_line
        (kind_label s.s_kind) name (kind_label d.kind)

let check files =
  let sites = List.concat_map (fun (file, src) -> scan ~file src) files in
  let emitted = Hashtbl.create 64 in
  let issues = ref [] in
  List.iter
    (fun s ->
      match s.s_name with
      | None -> ()
      | Some name -> (
          Hashtbl.replace emitted name ();
          match find name with
          | None -> issues := Undeclared (s, name) :: !issues
          | Some d ->
              if d.kind <> s.s_kind then
                issues := Kind_mismatch (s, name, d) :: !issues))
    sites;
  List.iter
    (fun d ->
      if (not d.dynamic) && not (Hashtbl.mem emitted d.name) then
        issues := Orphaned d :: !issues)
    all;
  List.rev !issues
