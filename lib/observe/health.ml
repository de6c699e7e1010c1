module Repository = Automed_repository.Repository
module Workflow = Automed_integration.Workflow
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Telemetry = Automed_telemetry.Telemetry
module Microjson = Automed_telemetry.Microjson
module Quarantine = Automed_analysis.Quarantine
module Transform = Automed_transform.Transform

type level = Good | Warn | Critical

let level_label = function
  | Good -> "ok"
  | Warn -> "warn"
  | Critical -> "critical"

let level_rank = function Good -> 0 | Warn -> 1 | Critical -> 2
let worst a b = if level_rank a >= level_rank b then a else b

type thresholds = { warn : float; critical : float }

let classify t v =
  if v >= t.critical then Critical else if v >= t.warn then Warn else Good

type config = {
  chain_depth : thresholds;
  quarantined : thresholds;
  void_degraded : thresholds;
  retired_sources : thresholds;
  journal_bytes : thresholds;
  breakers : thresholds;
  cache_churn : thresholds;
}

(* Calibrated against the shipped case study, with debt priced on the
   current version's {e active surface} (the pathways a query on the
   current global version can route through) rather than the whole
   repository — old versions stay registered forever, so whole-repo
   counts could only ever grow and no maintenance could pay them down.
   The integrated iSpider baseline classifies ok everywhere: its chain
   anchor is the integration version itself (0 link hops), the
   federation leaves 3 quarantine-shaped all-[Void] pathways and ~430
   individual [Void]-bound steps on the surface, and building the
   dataspace journals ~512 KiB before any churn.  Each unmaintained
   churn cycle then stacks one chain link onto the surface and every
   5-cycle block leaves ~6 quarantine-shaped pathways behind, so over
   the E-E1/E-H1 50-cycle run chain depth crosses warn at cycle 13 and
   quarantines at cycle 19, both reaching critical around cycle 44
   (E-H1 prints the crossings; BENCH_evolution.json has the per-cycle
   curve).  [Void]-step debt grows by ~1.4 steps a cycle (~924 after
   one cycle, ~994 after 50, ~1204 after 200), because a contribution
   carries no contract for a source object it does not export, so it
   stays under warn for E-M1's whole 200-cycle unmaintained horizon.
   The maintained E-M1 arm stays below warn on every core indicator
   for 200 cycles: compaction pays the chain-depth debt (interior links
   leave the surface), reclamation the quarantine and retired-source
   debt. *)
let default_config =
  {
    chain_depth = { warn = 14.0; critical = 42.0 };
    quarantined = { warn = 30.0; critical = 60.0 };
    void_degraded = { warn = 2000.0; critical = 4000.0 };
    retired_sources = { warn = 8.0; critical = 24.0 };
    journal_bytes = { warn = 2097152.0; critical = 8388608.0 };
    breakers = { warn = 1.0; critical = 3.0 };
    cache_churn = { warn = 500.0; critical = 5000.0 };
  }

type indicator = {
  i_name : string;
  i_value : float;
  i_unit : string;
  i_thresholds : thresholds;
  i_level : level;
  i_detail : string;
}

type report = {
  r_global : string;
  r_version : int;
  r_indicators : indicator list;
  r_overall : level;
  r_needs_reintegration : bool;
}

(* -- debt walkers --------------------------------------------------------- *)

(* "base_v7" -> Some ("base", 7): the version-name convention of
   [Workflow.version_name], which is how chain links are recognised
   without the repository knowing about versions. *)
let split_version name =
  match String.rindex_opt name '_' with
  | None -> None
  | Some i ->
      let base = String.sub name 0 i in
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      if String.length suffix >= 2 && suffix.[0] = 'v' then
        match
          int_of_string_opt (String.sub suffix 1 (String.length suffix - 1))
        with
        | Some j when j >= 0 -> Some (base, j)
        | _ -> None
      else None

(* The pathways a query on [root] can actually route through: the
   transitive [pathways_into] closure.  Maintenance rewires the current
   version around retired interiors, so debt priced on this surface can
   go back down — debt priced on the whole repository never does,
   because old versions (and their quarantines) are kept answerable
   forever. *)
let active_surface repo ~root =
  let rec grow visited acc = function
    | [] -> List.rev acc
    | s :: rest ->
        if List.mem s visited then grow visited acc rest
        else
          let incoming = Repository.pathways_into repo s in
          let srcs =
            List.map
              (fun (p : Transform.pathway) -> p.Transform.from_schema)
              incoming
          in
          grow (s :: visited) (List.rev_append incoming acc) (srcs @ rest)
  in
  grow [] [] [ root ]

(* Non-contribution links between versions of the same global base:
   the chain a query on an old version walks to reach stored data. *)
let chain_links repo name =
  match split_version name with
  | None -> []
  | Some (base, _) ->
      List.filter
        (fun (p : Transform.pathway) ->
          (not (Repository.is_contribution repo p))
          &&
          match split_version p.Transform.from_schema with
          | Some (b, _) -> b = base
          | None -> false)
        (Repository.pathways_into repo name)

(* Link hops from [root] back to its chain anchor (an integration
   version has no incoming global-to-global link).  Unlike the raw
   version counter this falls when compaction replaces the last link
   with an anchor shortcut: the interiors stay registered and
   answerable, but the current version no longer routes through them. *)
let effective_chain_depth repo ~root =
  let rec depth visited name =
    if List.mem name visited then 0
    else
      match chain_links repo name with
      | [] -> 0
      | links ->
          1
          + List.fold_left
              (fun acc (p : Transform.pathway) ->
                max acc (depth (name :: visited) p.Transform.from_schema))
              0 links
  in
  depth [] root

let surface_pathways ?root repo =
  match root with
  | None -> Repository.pathways repo
  | Some root -> active_surface repo ~root

let quarantined_pathways ?root repo =
  List.length
    (List.filter Quarantine.is_quarantined (surface_pathways ?root repo))

(* [Void]-bound steps appear for two reasons: the integration federates
   unmapped objects with deliberately unbounded extends (a fixed,
   structural baseline), and every evolution repair degrades what it
   cannot propagate — a patched definition falls to the [Void] lower
   bound, and each chain link [Void]-bounds the objects the delta added
   or dropped.  The raw count over non-quarantined pathways therefore
   grows with accumulated repairs and resets on re-integration, which
   is exactly the debt being priced; the thresholds sit above the
   structural baseline. *)
let void_degraded_steps ?root repo =
  List.fold_left
    (fun acc (p : Transform.pathway) ->
      if Quarantine.is_quarantined p then acc
      else
        acc
        + List.length
            (List.filter Quarantine.is_void_degraded_step p.Transform.steps))
    0
    (surface_pathways ?root repo)

(* -- assessment ----------------------------------------------------------- *)

let truncate_names names =
  match names with
  | [] -> ""
  | _ ->
      let shown = List.filteri (fun i _ -> i < 4) names in
      String.concat ", " shown
      ^ if List.length names > 4 then ", ..." else ""

let counter_total metrics prefix =
  match metrics with
  | None -> 0
  | Some (m : Telemetry.Metrics.t) ->
      List.fold_left
        (fun acc (name, v) ->
          if
            String.length name >= String.length prefix
            && String.sub name 0 (String.length prefix) = prefix
          then acc + v
          else acc)
        0 m.Telemetry.Metrics.counters

let of_repository ?(config = default_config) ?(version = 0)
    ?(global = "(none)") ?resilience ?durable ?metrics repo =
  let ind name value unit_ thresholds detail =
    {
      i_name = name;
      i_value = value;
      i_unit = unit_;
      i_thresholds = thresholds;
      i_level = classify thresholds value;
      i_detail = detail;
    }
  in
  (* Price debt on the current version's active surface when the global
     schema is actually registered; fall back to whole-repository
     walks (and the raw version counter) otherwise, e.g. for a bare
     repository or a synthetic report. *)
  let root = if Repository.mem_schema repo global then Some global else None in
  let quarantined =
    List.filter Quarantine.is_quarantined (surface_pathways ?root repo)
  in
  let retired = Repository.retired_sources repo in
  let chain_value, chain_detail =
    match root with
    | Some g ->
        ( float_of_int (effective_chain_depth repo ~root:g),
          Printf.sprintf
            "link hops from %s to its chain anchor (raw chain v0..v%d)" g
            version )
    | None ->
        ( float_of_int version,
          Printf.sprintf "global version chain v0..v%d (current %s)" version
            global )
  in
  let jbytes =
    match durable with Some d -> Durable.journal_bytes d | None -> 0
  in
  let jrecords = match durable with Some d -> Durable.appended d | None -> 0 in
  let breaker_rows =
    match resilience with
    | None -> []
    | Some r ->
        List.filter
          (fun (_, state, _, _) -> state <> Resilience.Closed)
          (Resilience.report r)
  in
  let churn = counter_total metrics "processor.invalidated." in
  let indicators =
    [
      ind "chain-depth" chain_value "links" config.chain_depth chain_detail;
      ind "quarantined-pathways"
        (float_of_int (List.length quarantined))
        "pathways" config.quarantined
        (truncate_names
           (List.map
              (fun (p : Transform.pathway) ->
                p.Transform.from_schema ^ "->" ^ p.Transform.to_schema)
              quarantined));
      ind "void-degraded-steps"
        (float_of_int (void_degraded_steps ?root repo))
        "steps" config.void_degraded
        "definitions patched down to the Void bound (quarantines excluded)";
      ind "retired-sources"
        (float_of_int (List.length retired))
        "sources" config.retired_sources (truncate_names retired);
      ind "journal-debt" (float_of_int jbytes) "bytes" config.journal_bytes
        (Printf.sprintf "%d records since last checkpoint" jrecords);
      ind "breakers-not-closed"
        (float_of_int (List.length breaker_rows))
        "breakers" config.breakers
        (truncate_names
           (List.map
              (fun (name, state, _, _) ->
                Printf.sprintf "%s:%s" name
                  (match state with
                  | Resilience.Open -> "open"
                  | Resilience.Half_open -> "half-open"
                  | Resilience.Closed -> "closed"))
              breaker_rows));
      ind "cache-invalidation-churn" (float_of_int churn) "entries"
        config.cache_churn
        "processor.invalidated.* entries dropped in this metric window";
    ]
  in
  let overall =
    List.fold_left (fun acc i -> worst acc i.i_level) Good indicators
  in
  let debt_names =
    [ "chain-depth"; "quarantined-pathways"; "void-degraded-steps" ]
  in
  let needs =
    List.exists
      (fun i -> List.mem i.i_name debt_names && i.i_level <> Good)
      indicators
  in
  {
    r_global = global;
    r_version = version;
    r_indicators = indicators;
    r_overall = overall;
    r_needs_reintegration = needs;
  }

let assess ?config ?resilience ?durable ?metrics wf =
  of_repository ?config
    ~version:(Workflow.version wf)
    ~global:(Workflow.global_name wf)
    ?resilience ?durable ?metrics (Workflow.repository wf)

(* -- rendering ------------------------------------------------------------ *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f" v

let to_text r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "health of %s (version chain depth %d): %s%s\n" r.r_global
       r.r_version
       (level_label r.r_overall)
       (if r.r_needs_reintegration then
          "  ** re-integration recommended: repair debt over budget **"
        else ""));
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "  [%-8s] %-26s %10s %-9s (warn %s, critical %s)%s\n"
           (level_label i.i_level) i.i_name (fmt_value i.i_value) i.i_unit
           (fmt_value i.i_thresholds.warn)
           (fmt_value i.i_thresholds.critical)
           (if i.i_detail = "" then "" else "  " ^ i.i_detail)))
    r.r_indicators;
  Buffer.contents b

let to_json r =
  let indicator i =
    Microjson.Obj
      [
        ("name", Str i.i_name);
        ("value", Num i.i_value);
        ("unit", Str i.i_unit);
        ("warn", Num i.i_thresholds.warn);
        ("critical", Num i.i_thresholds.critical);
        ("level", Str (level_label i.i_level));
        ("detail", Str i.i_detail);
      ]
  in
  Microjson.Obj
    [
      ("global", Str r.r_global);
      ("version", Num (float_of_int r.r_version));
      ("overall", Str (level_label r.r_overall));
      ("needs_reintegration", Bool r.r_needs_reintegration);
      ("indicators", Arr (List.map indicator r.r_indicators));
    ]
