(* automed-cli: a command-line front end to the dataspace.

   By default the commands operate on the built-in iSpider dataspace
   (synthetic Pedro, gpmDB and PepSeeker sources); [--integrated] runs
   the intersection-based integration first so that the global schema
   versions exist.  With [--csv NAME=DIR] (repeatable) additional
   relational sources are loaded from directories of CSV files (one file
   per table, first header field is the key) and wrapped into the
   repository.  [tool] is the paper's Intersection Schema Tool
   (Figure 5). *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Ast = Automed_iql.Ast
module Types = Automed_iql.Types
module Parser = Automed_iql.Parser
module Relational = Automed_datasource.Relational
module Csv = Automed_datasource.Csv
module Wrapper = Automed_datasource.Wrapper
module Repository = Automed_repository.Repository
module Processor = Automed_query.Processor
module Matcher = Automed_matching.Matcher
module Workflow = Automed_integration.Workflow
module Intersection = Automed_integration.Intersection
module Mapping_table = Automed_integration.Mapping_table
module Analysis = Automed_analysis.Analysis
module Diagnostic = Automed_analysis.Diagnostic
module Rewrite = Automed_analysis.Rewrite
module Reachability = Automed_analysis.Reachability
module Equiv = Automed_analysis.Equiv
module Transform = Automed_transform.Transform
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Classical_run = Automed_ispider.Classical_run
module Churn = Automed_ispider.Churn
module Telemetry = Automed_telemetry.Telemetry
module Chrome_trace = Automed_telemetry.Chrome_trace
module Microjson = Automed_telemetry.Microjson
module Lineage = Automed_provenance.Lineage
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Journal = Automed_durable.Journal
module Vfs = Automed_durable.Vfs
module Evolution = Automed_evolution.Evolution
module Catalog = Automed_observe.Catalog
module Health = Automed_observe.Health
module Documents = Automed_observe.Documents
module Maintain = Automed_maintain.Maintain

open Cmdliner

let ( let* ) = Result.bind
let perr r = Result.map_error (Fmt.str "%a" Processor.pp_error) r

let rec iter_ok f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      iter_ok f rest

(* A command body returns [(unit, string) result]; an error exits 124
   with its message, like a command-line error. *)
let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.term_result' term)

let pos_arg n docv doc =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* -- the dataspace a command works on ------------------------------------ *)

(* One relational source from a directory of CSV files, one table each *)
let load_csv_dir name dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "not a directory: %s" dir)
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.sort String.compare
    |> List.fold_left
         (fun acc file ->
           let* db = acc in
           let* table =
             Csv.load_table_auto ~name:(Filename.remove_extension file)
               (read_file (Filename.concat dir file))
           in
           Relational.add_table db table)
         (Ok (Relational.create_db name))

type dataspace = {
  repo : Repository.t;
  res : Resilience.t option;  (** [None] under [--no-resilience] *)
}

let fault_seed =
  Arg.(
    value & opt int64 0x5EEDL
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the deterministic fault injector and backoff jitter; the \
           same seed always produces the same failures.")

let faults_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string float) []
    & info [ "fault" ] ~docv:"NAME=RATE"
        ~doc:
          "Inject deterministic faults: every extent fetch from source \
           $(i,NAME) fails with probability $(i,RATE) (repeatable; see \
           $(b,--fault-seed)).")

let degrade_arg =
  flag "degrade"
    "Degrade gracefully: a source that exhausts its resilience policy is \
     skipped (contributing its certain-answer lower bound, i.e. nothing) \
     and reported in a completeness footer instead of failing the query; \
     $(b,explain) also counts the answer tuples each skipped source could \
     have affected."

(* The term every repository-reading command starts from: the iSpider
   sources, any --csv sources, the integration under --integrated, and
   the resilience registry unless --no-resilience.  [~faults:true] adds
   --fault and --fault-seed; [~integration_flag:false] leaves out
   --integrated, for a command that integrates by itself. *)
let repo_term ?(integration_flag = true) ?(faults = false) () =
  let integrated =
    if integration_flag then
      flag "integrated" "Run the intersection-based integration first."
    else Term.const false
  in
  let faults =
    if faults then Term.(const (fun seed fs -> (seed, fs)) $ fault_seed $ faults_arg)
    else Term.const (0x5EEDL, [])
  in
  let csvs =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "csv" ] ~docv:"NAME=DIR"
          ~doc:
            "Load an additional relational source from a directory of CSV \
             files.")
  in
  let no_resilience =
    flag "no-resilience"
      "Build the repository without the fault-handling layer: source \
       fetches are not retried and $(b,lint) warns about every \
       unprotected source."
  in
  let build integrated csvs no_resilience (seed, faults) =
    let res =
      if no_resilience then None else Some (Resilience.create ~seed ())
    in
    let repo = Repository.create () in
    let* () = Sources.wrap_all ?resilience:res repo (Sources.generate ()) in
    let* () =
      iter_ok
        (fun (name, dir) ->
          let* db = load_csv_dir name dir in
          Result.map ignore (Wrapper.wrap ?resilience:res repo db))
        csvs
    in
    let* () =
      if integrated then
        Result.map ignore (Intersection_run.execute ?resilience:res repo)
      else Ok ()
    in
    let* () =
      iter_ok
        (fun (source, rate) ->
          match res with
          | None -> Error "--fault requires the resilience layer"
          | Some _ when not (rate >= 0.0 && rate <= 1.0) ->
              Error (Printf.sprintf "--fault rate must be in [0,1], got %g" rate)
          | Some r -> Ok (Resilience.inject r ~source (Resilience.Fault.rate rate)))
        faults
    in
    Ok { repo; res }
  in
  Term.(
    term_result' (const build $ integrated $ csvs $ no_resilience $ faults))

let processor ds = Processor.create ?resilience:ds.res ds.repo
let schema_arg = pos_arg 0 "SCHEMA" "Schema name."
let iql_arg = pos_arg 1 "IQL" "IQL query text."

(* -- browsing and querying ----------------------------------------------- *)

let print_values b =
  List.iter
    (fun (v, n) ->
      if n = 1 then Printf.printf "%s\n" (Value.to_string v)
      else Printf.printf "%s  (x%d)\n" (Value.to_string v) n)
    b

let print_value = function
  | Value.Bag b ->
      print_values b;
      Printf.printf "-- %d answers\n" (Value.Bag.cardinal b)
  | v -> Printf.printf "%s\n" (Value.to_string v)

let schemas_cmd =
  let run ds =
    List.iter
      (fun s ->
        Printf.printf "%-28s %4d objects%s\n" (Schema.name s)
          (Schema.object_count s)
          (if Repository.has_stored_extents ds.repo (Schema.name s) then
             "  [materialised]"
           else ""))
      (Repository.schemas ds.repo);
    Ok ()
  in
  cmd "schemas" ~doc:"List all schemas in the repository."
    Term.(const run $ repo_term ())

let show_cmd =
  let run ds name =
    match Repository.schema ds.repo name with
    | None -> Error ("no schema " ^ name)
    | Some s -> Ok (Printf.printf "%s\n" (Fmt.str "%a" Schema.pp s))
  in
  cmd "show" ~doc:"Show a schema's objects and extent types."
    Term.(const run $ repo_term () $ schema_arg)

let query_cmd =
  let run ds name text degrade =
    let proc = processor ds in
    if degrade then (
      let* ast = Parser.parse text in
      let* v, c = perr (Processor.run_degraded proc ~schema:name ast) in
      print_value v;
      Printf.printf "-- completeness: %s\n"
        (Fmt.str "%a" Processor.pp_completeness c);
      Ok ())
    else
      let* v = perr (Processor.run_string proc ~schema:name text) in
      Ok (print_value v)
  in
  cmd "query" ~doc:"Run an IQL query against a schema."
    Term.(
      const run $ repo_term ~faults:true () $ schema_arg $ iql_arg
      $ degrade_arg)

let reformulate_cmd =
  let run ds name text =
    let* ast = Parser.parse text in
    let* q = perr (Processor.reformulate (processor ds) ~schema:name ast) in
    Ok (Printf.printf "%s\n" (Ast.to_string q))
  in
  cmd "reformulate"
    ~doc:"Unfold a query over a schema onto the data source schemas."
    Term.(const run $ repo_term () $ schema_arg $ iql_arg)

let match_cmd =
  let threshold =
    Arg.(
      value & opt float 0.35
      & info [ "threshold" ] ~doc:"Minimum combined score to report.")
  in
  let run ds left right threshold =
    let* suggestions = Matcher.suggest ~threshold ds.repo ~left ~right in
    List.iter
      (fun s -> Printf.printf "%s\n" (Fmt.str "%a" Matcher.pp_suggestion s))
      suggestions;
    Printf.printf "-- %d suggestions\n" (List.length suggestions);
    Ok ()
  in
  cmd "match" ~doc:"Suggest semantic correspondences between two schemas."
    Term.(
      const run $ repo_term ()
      $ pos_arg 0 "LEFT" "Left schema."
      $ pos_arg 1 "RIGHT" "Right schema."
      $ threshold)

let pathways_cmd =
  let run ds =
    List.iter
      (fun (p : Transform.pathway) ->
        Printf.printf "%-28s -> %-28s %3d steps (%d non-trivial)\n"
          p.from_schema p.to_schema (List.length p.steps)
          (Transform.count_non_trivial p))
      (Repository.pathways ds.repo);
    Ok ()
  in
  cmd "pathways" ~doc:"List all pathways in the repository."
    Term.(const run $ repo_term ())

let export_cmd =
  let run ds extents =
    Ok (print_string (Automed_repository.Serialize.save ~extents ds.repo))
  in
  cmd "export"
    ~doc:
      "Serialise the repository (schemas, pathways, optionally extents) to \
       stdout."
    Term.(
      const run $ repo_term ()
      $ flag "extents" "Also serialise the materialised extents.")

(* the paper's Extent Tool: "allows the extent of any schema object to be
   displayed" (Section 2.3, step 4) *)
let extent_cmd =
  let run ds name text =
    let* o = Scheme.of_string text in
    let* bag = perr (Processor.extent_of (processor ds) ~schema:name o) in
    print_values bag;
    Printf.printf "-- %d elements (%d distinct)\n" (Value.Bag.cardinal bag)
      (Value.Bag.distinct_cardinal bag);
    Ok ()
  in
  cmd "extent"
    ~doc:"Display the derived extent of a schema object (the Extent Tool)."
    Term.(
      const run $ repo_term () $ schema_arg
      $ pos_arg 1 "OBJECT" "Schema object, e.g. <<protein>>.")

let materialize_cmd =
  let cell = function
    | None -> ""
    | Some (Value.Str s) -> s
    | Some v -> Value.to_string v
  in
  let run ds name =
    let* db =
      Automed_datasource.Materialize.db_of_schema (processor ds) ~schema:name
    in
    List.iter
      (fun t ->
        Printf.printf "-- table %s\n" (Relational.table_name t);
        print_string
          (Csv.render
             (List.map fst (Relational.columns t)
             :: List.map (List.map cell) (Relational.rows t))))
      (Relational.tables db);
    Ok ()
  in
  cmd "materialize"
    ~doc:
      "Derive every relational table of a schema and print it as CSV \
       (integration as ETL)."
    Term.(const run $ repo_term () $ schema_arg)

(* -- static analysis ------------------------------------------------------ *)

let root_arg what =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"SCHEMA"
        ~doc:
          (what
         ^ " is measured from.  Defaults to the target of the most \
            recently registered pathway (the current global schema \
            version in workflow-built repositories)."))

let lint_cmd =
  let format_ =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("tsv", `Tsv) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (human-readable) or $(b,tsv) \
             (machine-readable, one diagnostic per line).")
  in
  let allow =
    Arg.(
      value & opt_all string []
      & info [ "allow" ] ~docv:"RULE"
          ~doc:
            "Suppress every diagnostic emitted by lint rule $(i,RULE) \
             (repeatable).  Suppressed diagnostics are neither printed nor \
             counted towards the exit status.")
  in
  let print_fixes fixes =
    List.iter
      (fun (f : Analysis.fix) ->
        match f.applied with
        | Ok () ->
            Printf.printf "fixed %s: %d -> %d steps (%s)\n" f.pathway
              f.steps_before f.steps_after
              (String.concat ", "
                 (List.sort_uniq String.compare
                    (List.map
                       (fun (a : Rewrite.application) -> a.rule)
                       f.applications)))
        | Error e -> Printf.printf "refused %s: %s\n" f.pathway e)
      fixes;
    Printf.printf "-- %d pathways rewritten\n"
      (List.length
         (List.filter (fun (f : Analysis.fix) -> Result.is_ok f.applied) fixes))
  in
  (* the diagnostic counts by severity and any histograms observed while
     linting, with their reservoir percentiles *)
  let print_stats format_ mem =
    let stat, histo =
      match format_ with
      | `Tsv -> (Printf.printf "stat\t%s\t%d\n", Printf.printf "histo\t%s\t%d\t%g\t%g\t%g\n")
      | `Text ->
          ( Printf.printf "-- stat %s = %d\n",
            Printf.printf "-- histo %s: n=%d p50=%g p95=%g p99=%g\n" )
    in
    List.iter
      (fun sev ->
        let name = "lint.diagnostics." ^ sev in
        stat name (Telemetry.Memory.counter mem name))
      [ "error"; "warning"; "info" ];
    let snapshot = Telemetry.Metrics.of_memory mem in
    List.iter
      (fun (name, (h : Telemetry.Memory.histo)) ->
        Option.iter
          (fun (q : Telemetry.Memory.quantiles) ->
            histo name h.n q.q50 q.q95 q.q99)
          (Telemetry.Metrics.quantiles_of snapshot name))
      snapshot.histograms
  in
  let run ds root format_ errors_only stats warnings_as_errors allow fix =
    if fix then print_fixes (Analysis.fix_repository ds.repo);
    let covered = Option.map Resilience.sources ds.res in
    let journaled = Some (Repository.observed ds.repo) in
    let mem = Telemetry.Memory.create () in
    let lint () = Analysis.lint_repository ?root ?covered ?journaled ds.repo in
    let diags =
      if stats then Telemetry.with_sink (Telemetry.Memory.sink mem) lint
      else lint ()
    in
    let diags =
      List.filter (fun d -> not (List.mem d.Diagnostic.rule allow)) diags
    in
    let diags = if errors_only then Diagnostic.errors diags else diags in
    (match format_ with
    | `Text ->
        List.iter (fun d -> print_endline (Fmt.str "%a" Diagnostic.pp d)) diags;
        Printf.printf "-- %d pathways checked: %s\n"
          (List.length (Repository.pathways ds.repo))
          (Fmt.str "%a" Diagnostic.pp_summary (Diagnostic.count diags))
    | `Tsv -> List.iter (fun d -> print_endline (Diagnostic.to_tsv d)) diags);
    if stats then print_stats format_ mem;
    if
      Diagnostic.has_errors diags
      || (warnings_as_errors && Diagnostic.warnings diags <> [])
    then exit 1;
    Ok ()
  in
  cmd "lint"
    ~doc:
      "Statically analyse every pathway and the repository network without \
       executing anything: well-formedness of each step, IQL type checking \
       of embedded queries, pathway-algebra hazards and network \
       reachability.  Exits 1 when errors are found (or, with \
       $(b,--warnings-as-errors), warnings).  $(b,--fix) first rewrites \
       every stored pathway to its certified simplified form."
    Term.(
      const run $ repo_term ()
      $ root_arg "Schema that reachability"
      $ format_
      $ flag "errors-only" "Report only error-severity diagnostics."
      $ flag "stats"
          "Append a footer of diagnostic counts by severity, sourced from \
           the telemetry counter API."
      $ flag "warnings-as-errors"
          "Exit 1 when any warning-severity diagnostic remains (after \
           $(b,--allow) filtering), not just errors.  For CI gates."
      $ allow
      $ flag "fix"
          "Before linting, rewrite every stored pathway to its certified \
           simplified form (the lint autofixer).  Each fix goes through the \
           repository API, so an attached journal records the replacement \
           like any other mutation.  Rewrites the equivalence checker cannot \
           certify are refused and reported.")

(* per-pathway report of the proof-checked simplification pipeline: which
   rewrite rules fire where, what the equivalence checker certified, and
   which stored-extent sources are reachable from the root *)
let analyze_cmd =
  let print_applications verbose apps =
    if verbose then
      List.iter
        (fun a -> Printf.printf "  %s\n" (Fmt.str "%a" Rewrite.pp_application a))
        apps
    else
      List.iter
        (fun (rule, _) ->
          match
            List.length
              (List.filter (fun (a : Rewrite.application) -> a.rule = rule) apps)
          with
          | 0 -> ()
          | n -> Printf.printf "  %s: %d application(s)\n" rule n)
        Rewrite.rules
  in
  let run ds root verbose =
    let repo = ds.repo in
    let pathways = Repository.pathways repo in
    let simplified = ref 0 and removed = ref 0 and refused = ref 0 in
    List.iter
      (fun (p : Transform.pathway) ->
        let label = Printf.sprintf "%s -> %s" p.from_schema p.to_schema in
        let steps = List.length p.steps in
        match Analysis.simplify_stored repo p with
        | None ->
            Printf.printf "pathway %s (%d steps): source schema not registered\n"
              label steps
        | Some `Unchanged ->
            Printf.printf "pathway %s (%d steps): no rewrite applies\n" label
              steps
        | Some (`Simplified (o, (cert : Equiv.certificate))) ->
            let after = List.length o.Rewrite.pathway.steps in
            incr simplified;
            removed := !removed + steps - after;
            Printf.printf "pathway %s (%d -> %d steps)\n" label steps after;
            print_applications verbose o.applications;
            Printf.printf
              "  certified: %d objects agree symbolically, %d differential \
               trial(s)%s\n"
              cert.objects cert.trials
              (if cert.reverse_checked then ", reverse direction checked"
               else "")
        | Some (`Refused (o, reason)) ->
            incr refused;
            Printf.printf "pathway %s (%d steps): rewrite REFUSED — %s\n" label
              steps reason;
            print_applications verbose o.Rewrite.applications)
      pathways;
    let root =
      match (root, pathways) with
      | Some r, _ -> Some r
      | None, p :: _ -> Some p.Transform.to_schema
      | None, [] -> None
    in
    Option.iter
      (fun root ->
        let unreachable = Reachability.unreachable_sources ~root repo in
        Printf.printf "reachability (root %s):\n" root;
        List.iter
          (fun s ->
            let name = Schema.name s in
            if name <> root && Repository.has_stored_extents repo name then
              Printf.printf "  %-24s %s\n" name
                (if List.mem name unreachable then
                   "unreachable (no live definition chain to root)"
                 else "reachable"))
          (Repository.schemas repo))
      root;
    Printf.printf
      "-- %d pathways analysed: %d simplified (%d steps removed), %d refused\n"
      (List.length pathways) !simplified !removed !refused;
    if !refused > 0 then exit 1;
    Ok ()
  in
  cmd "analyze"
    ~doc:
      "Run the static simplification pipeline over every stored pathway and \
       report each rewrite-rule application with its equivalence \
       certificate, plus a source-reachability report.  Nothing is \
       modified (use $(b,lint --fix) to commit the rewrites).  Exits 1 if \
       any rewrite is refused certification."
    Term.(
      const run $ repo_term ()
      $ root_arg "Schema the reachability report"
      $ flag "verbose"
          "Print every individual rewrite-rule application (the full audit \
           trail) instead of per-rule counts.")

(* -- tracing ------------------------------------------------------------- *)

(* [trace] replays a named example scenario end to end with a telemetry
   sink installed, so the full request path — source wrapping, pathway
   registration, reformulation, pathway application, evaluation, source
   fetches — lands in one Chrome-trace file. *)

let traced_queries proc ~schema texts =
  iter_ok
    (fun text ->
      Telemetry.with_span "query" ~attrs:(fun () -> [ ("iql", text) ])
      @@ fun () ->
      let* ast = Parser.parse text in
      let* _ = perr (Processor.reformulate proc ~schema ast) in
      Result.map ignore (perr (Processor.run proc ~schema ast)))
    texts

(* the two-source music dataspace of examples/quickstart.ml *)
let quickstart_scenario () =
  let source name table csv =
    let* t = Csv.load_table_auto ~name:table csv in
    Relational.add_table (Relational.create_db name) t
  in
  let* store =
    source "store" "album" "id,title,price\na1,Blue Train,9.99\na2,Kind of Blue,12.50\n"
  in
  let* radio =
    source "radio" "record"
      "rid,name,airplays\nr7,Kind of Blue,41\nr8,A Love Supreme,17\n"
  in
  let repo = Repository.create () in
  let* _ = Wrapper.wrap repo store in
  let* _ = Wrapper.wrap repo radio in
  let* wf = Workflow.start repo ~name:"music" ~sources:[ "store"; "radio" ] in
  let side schema table title =
    let map target fmt =
      { Intersection.target; forward = Parser.parse_exn fmt; restore = None }
    in
    {
      Intersection.schema;
      mappings =
        [
          map (Scheme.table "URelease")
            (Printf.sprintf "[{'%s', k} | k <- <<%s>>]" schema table);
          map
            (Scheme.column "URelease" "title")
            (Printf.sprintf "[{'%s', k, x} | {k,x} <- <<%s,%s>>]" schema table
               title);
        ];
    }
  in
  let* _ =
    Workflow.integrate wf
      {
        Intersection.name = "i_release";
        sides = [ side "store" "album" "title"; side "radio" "record" "name" ];
      }
  in
  traced_queries (Workflow.processor wf) ~schema:(Workflow.global_name wf)
    [
      "count(<<URelease>>)";
      "[t | {s, k, t} <- <<URelease,title>>; s = 'radio']";
      "[t | {s1, k1, t} <- <<URelease,title>>; {s2, k2, t2} <- \
       <<URelease,title>>; s1 = 'store'; s2 = 'radio'; t = t2]";
      "[{k, p} | {k, p} <- <<store:album,price>>]";
    ]

(* the paper's iSpider case study: integration plus the 7 priority queries *)
let ispider_scenario () =
  let repo = Repository.create () in
  let* () = Sources.wrap_all repo (Sources.generate ()) in
  let* run = Intersection_run.execute repo in
  let wf = run.workflow in
  traced_queries (Workflow.processor wf) ~schema:(Workflow.global_name wf)
    (List.map (fun (q : Queries.query) -> q.global_text) Queries.all)

let scenarios =
  [
    ("quickstart", quickstart_scenario);
    ("ispider_integration", ispider_scenario);
    ("ispider", ispider_scenario);
  ]

let trace_cmd =
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Where to write the Chrome-trace JSON (open in chrome://tracing \
             or https://ui.perfetto.dev).")
  in
  let metrics =
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("tsv", `Tsv) ])) None
      & info [ "metrics" ] ~docv:"FORMAT"
          ~doc:
            "Also print a counter/histogram summary in $(b,text) or $(b,tsv) \
             form.")
  in
  let run example out metrics =
    let base = Filename.remove_extension (Filename.basename example) in
    match List.assoc_opt base scenarios with
    | None ->
        Error
          (Printf.sprintf "unknown example %s (known: quickstart, \
                           ispider_integration)" example)
    | Some scenario ->
        let mem = Telemetry.Memory.create () in
        let* () = Telemetry.with_sink (Telemetry.Memory.sink mem) scenario in
        let json = Chrome_trace.render ~process_name:example mem in
        let* () =
          Result.map_error
            (( ^ ) "internal error: emitted trace is invalid: ")
            (Chrome_trace.validate json)
        in
        let oc = open_out_bin out in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc json);
        Printf.printf "wrote %s: %d spans, %d counters\n" out
          (List.length (Telemetry.Memory.spans mem))
          (List.length (Telemetry.Memory.counters mem));
        let snapshot = Telemetry.Metrics.of_memory mem in
        (match metrics with
        | Some `Text -> print_string (Telemetry.Metrics.to_text snapshot)
        | Some `Tsv -> print_string (Telemetry.Metrics.to_tsv snapshot)
        | None -> ());
        Ok ()
  in
  cmd "trace"
    ~doc:
      "Replay an example scenario with telemetry enabled and export the \
       spans as Chrome-trace JSON."
    Term.(
      const run
      $ pos_arg 0 "EXAMPLE"
          "Example scenario to trace: $(b,examples/quickstart) or \
           $(b,examples/ispider_integration) (the $(b,examples/) prefix and \
           $(b,.ml) suffix are optional)."
      $ out $ metrics)

let trace_validate_cmd =
  let run file =
    match read_file file with
    | exception Sys_error e -> Error e
    | contents ->
        let* () =
          Result.map_error (Printf.sprintf "%s: %s" file)
            (Chrome_trace.validate contents)
        in
        Ok (Printf.printf "%s: valid Chrome-trace JSON\n" file)
  in
  cmd "trace-validate"
    ~doc:
      "Check that a file parses as JSON and has the Chrome trace-event shape \
       (used by the CI runtest rule)."
    Term.(const run $ pos_arg 0 "FILE" "Trace file to validate.")

(* -- explain -------------------------------------------------------------- *)

(* [explain] tells the full story of a query: the reformulation tree per
   source with every pruning decision and its reason, each pathway's step
   count, cache state, breaker status, the per-stage timing waterfall
   reconstructed from the telemetry spans of an actual
   provenance-annotated run, and the lineage of every answer tuple. *)

let span_ms (s : Telemetry.Memory.span) = s.dur *. 1000.0

(* Indented span tree.  Sibling groups larger than [collapse] spans of the
   same name are aggregated into one line, so a run over many extents
   stays readable. *)
let print_waterfall spans =
  let collapse = 5 in
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Telemetry.Memory.span) ->
      Hashtbl.add children (Option.value ~default:(-1) s.parent) s)
    (List.rev spans);
  let kids = Hashtbl.find_all children in
  let attr_str attrs =
    match
      List.filter
        (fun (k, _) -> List.mem k [ "schema"; "object"; "iql"; "skipped" ])
        attrs
    with
    | [] -> ""
    | kvs ->
        "  ["
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ "]"
  in
  let rec go indent (s : Telemetry.Memory.span) =
    Printf.printf "%s%8.3fms  %s%s\n" indent (span_ms s) s.name
      (attr_str s.attrs);
    let children = kids s.id in
    let names =
      List.fold_left
        (fun acc (c : Telemetry.Memory.span) ->
          if List.mem c.name acc then acc else acc @ [ c.name ])
        [] children
    in
    List.iter
      (fun name ->
        let group =
          List.filter (fun (c : Telemetry.Memory.span) -> c.name = name) children
        in
        if List.length group <= collapse then List.iter (go (indent ^ "  ")) group
        else
          Printf.printf "%s  %8.3fms  %s (x%d, aggregated)\n" indent
            (List.fold_left (fun a c -> a +. span_ms c) 0.0 group)
            name (List.length group))
      names
  in
  List.iter (go "") (kids (-1))

let print_tuples limit (ann : Processor.annotated) =
  let tuples = ann.tuples in
  let shown =
    if limit > 0 then List.filteri (fun i _ -> i < limit) tuples else tuples
  in
  List.iter
    (fun (tp : Processor.annotated_tuple) ->
      Printf.printf "%s%s\n" (Value.to_string tp.value)
        (if tp.count = 1 then "" else Printf.sprintf "  (x%d)" tp.count);
      Printf.printf "    lineage: %s\n" (Fmt.str "%a" Lineage.pp tp.lineage);
      Printf.printf "    mac: %s\n" tp.mac)
    shown;
  if List.length tuples > List.length shown then
    Printf.printf "... (%d more tuples; raise --limit)\n"
      (List.length tuples - List.length shown);
  Printf.printf "-- %d distinct answer values\n" (List.length tuples)

let explain_cmd =
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Print the lineage of at most $(i,N) answer tuples in text mode \
             (0 = all; JSON mode always includes every tuple).")
  in
  let run ds name text degrade json limit =
    let* ast = Parser.parse text in
    let proc = processor ds in
    let mem = Telemetry.Memory.create () in
    let* plan, ann, completeness =
      Telemetry.with_sink (Telemetry.Memory.sink mem) @@ fun () ->
      let* plan =
        Telemetry.with_span "explain.plan" (fun () ->
            perr (Processor.explain_plan proc ~schema:name ast))
      in
      Telemetry.with_span "explain.run" @@ fun () ->
      if degrade then
        let* ann, c =
          perr (Processor.run_degraded_provenance proc ~schema:name ast)
        in
        Ok (plan, ann, Some c)
      else
        let* ann = perr (Processor.run_provenance proc ~schema:name ast) in
        Ok (plan, ann, None)
    in
    if json then
      print_string
        (Microjson.to_string
           (Documents.explain ~schema:name ~query:text plan ann completeness mem))
    else (
      Printf.printf "== plan ==\n%s\n" (Fmt.str "%a" Processor.pp_explain plan);
      Printf.printf "\n== answers ==\n";
      print_tuples limit ann;
      Option.iter
        (fun c ->
          Printf.printf "\n== completeness ==\n%s\n"
            (Fmt.str "%a" Processor.pp_completeness c))
        completeness;
      Option.iter
        (fun r ->
          Printf.printf "\n== sources ==\n%s\n"
            (Fmt.str "%a" Resilience.pp_report (Resilience.report r)))
        ds.res;
      Printf.printf "\n== waterfall ==\n";
      print_waterfall (Telemetry.Memory.spans mem);
      Printf.printf "\n== metrics ==\n%s"
        (Telemetry.Metrics.to_text (Telemetry.Metrics.of_memory mem)));
    Ok ()
  in
  cmd "explain"
    ~doc:
      "Tell a query's full plan story: the per-source reformulation tree \
       with every reachability-pruning decision and its reason, cache \
       state, breaker status, a per-stage timing waterfall, and the lineage \
       of every answer tuple (which source extents, pathway hops and trace \
       spans it was derived from, with a tamper-evidence digest)."
    Term.(
      const run $ repo_term ~faults:true () $ schema_arg $ iql_arg
      $ degrade_arg
      $ flag "json"
          "Emit the whole story as one JSON object (plan, per-tuple lineage, \
           completeness, stages, metrics)."
      $ limit)

let case_study_cmd =
  let run () =
    let ds = Sources.generate () in
    let fresh () =
      let repo = Repository.create () in
      let* () = Sources.wrap_all repo ds in
      Ok repo
    in
    let* run = Result.bind (fresh ()) Intersection_run.execute in
    Printf.printf "intersection methodology: %d manual transformations\n"
      run.total_manual;
    List.iter
      (fun (s : Intersection_run.step) ->
        Printf.printf "  %-48s %3d\n" s.label s.manual)
      run.steps;
    (match Result.bind (fresh ()) Classical_run.execute with
    | Error e -> prerr_endline e
    | Ok c ->
        Printf.printf
          "classical methodology: %d manual transformations (19+35+41)\n"
          c.total_manual);
    Printf.printf "\nqueries over %s:\n" (Workflow.global_name run.workflow);
    List.iter
      (fun (q : Queries.query) ->
        match Workflow.run_query run.workflow q.global_text with
        | Ok (Value.Bag b) ->
            Printf.printf "  Q%d: %d answers\n" q.number (Value.Bag.cardinal b)
        | Ok _ | Error _ -> Printf.printf "  Q%d: failed\n" q.number)
      Queries.all;
    Ok ()
  in
  cmd "case-study" ~doc:"Replay the paper's Section 3 case study end to end."
    Term.(const run $ const ())

(* -- evolution ------------------------------------------------------------ *)

(* [evolve]: live schema evolution over the integrated dataspace.  Always
   runs the intersection integration first (evolution needs a current
   global version to repair), then applies — or, with --dry-run,
   previews — one delta. *)

let parse_delta op args =
  let alter source a = Ok (Evolution.Alter (source, [ a ])) in
  let add o ty = Repository.Alter_add_object (o, ty) in
  let col = Scheme.column in
  match (op, args) with
  | "add-source", [ spec ] -> (
      match String.index_opt spec '=' with
      | None -> Error (Printf.sprintf "add-source expects NAME=DIR, got %S" spec)
      | Some i ->
          let name = String.sub spec 0 i in
          let dir = String.sub spec (i + 1) (String.length spec - i - 1) in
          let* db = load_csv_dir name dir in
          (* wrap into a scratch repository to reuse the schema extraction
             and extent materialisation, then lift the result out as the
             evolution delta *)
          let scratch = Repository.create () in
          let* schema = Wrapper.wrap scratch db in
          let extent o =
            Option.map
              (fun b -> (o, b))
              (Repository.stored_extent scratch ~schema:name o)
          in
          Ok
            (Evolution.Add_source
               (schema, List.filter_map extent (Schema.objects schema))))
  | "drop-source", [ name ] -> Ok (Evolution.Drop_source name)
  | "add-table", [ s; t ] -> alter s (add (Scheme.table t) None)
  | "drop-table", [ s; t ] ->
      (* bare names are a convenience for tables: [t] means [<<t>>] *)
      let* o =
        match Scheme.of_string t with
        | Ok o -> Ok o
        | Error _ -> Scheme.of_string (Printf.sprintf "<<%s>>" t)
      in
      alter s (Repository.Alter_drop_object o)
  | "rename-table", [ s; a; b ] ->
      alter s (Repository.Alter_rename_object (Scheme.table a, Scheme.table b))
  | "add-column", [ s; t; c ] -> alter s (add (col t c) None)
  | "add-column", [ s; t; c; ty ] ->
      let* ty = Types.of_string ty in
      alter s (add (col t c) (Some ty))
  | "drop-column", [ s; t; c ] -> alter s (Repository.Alter_drop_object (col t c))
  | "rename-column", [ s; t; a; b ] ->
      alter s (Repository.Alter_rename_object (col t a, col t b))
  | _ ->
      Error
        (Printf.sprintf
           "unknown evolution %s (or wrong arguments); see automed evolve \
            --help"
           op)

(* The --dry-run impact preview: for every current-global object the
   delta would drop or rename, replay the explain-plan decision story so
   the integrator sees which pathways feed it today (and why) before
   committing the evolution. *)
let print_impact wf (plan : Evolution.plan) =
  let proc = Workflow.processor wf in
  List.iter
    (fun o ->
      if Schema.mem o (Workflow.global_schema wf) then
        match
          Processor.explain_plan proc ~schema:(Workflow.global_name wf)
            (Ast.SchemeRef o)
        with
        | Error _ -> ()
        | Ok ex ->
            List.iter
              (fun node ->
                Printf.printf "%s\n"
                  (Fmt.str "%a" Processor.pp_explain_node node))
              ex.ex_roots)
    (plan.pl_objects_dropped @ List.map fst plan.pl_objects_renamed);
  List.iter
    (fun o ->
      Printf.printf "  %s: new object, no feeding pathway yet\n"
        (Scheme.to_string o))
    plan.pl_objects_added

let evolve_cmd =
  let run ds dry op args =
    let* run = Intersection_run.execute ?resilience:ds.res ds.repo in
    let wf = run.workflow in
    let* delta = parse_delta op args in
    if dry then (
      let* plan = Evolution.preview wf delta in
      Printf.printf "== plan (dry run) ==\n%s\n"
        (Fmt.str "%a" Evolution.pp_plan plan);
      Printf.printf "\n== current feeds of affected objects ==\n";
      print_impact wf plan;
      Ok ())
    else
      let* ev, plan = Evolution.evolve wf delta in
      Printf.printf "evolved %s -> %s\n" ev.ev_prev ev.ev_next;
      Printf.printf "%s\n" (Fmt.str "%a" Evolution.pp_plan plan);
      Ok ()
  in
  cmd "evolve"
    ~doc:
      "Apply one live schema evolution to the integrated dataspace: add or \
       drop a source, or alter a source's tables and columns.  The global \
       schema is repaired incrementally (a delta-sized chain pathway to the \
       next version; stranded pathways patched or quarantined) — never \
       regenerated from scratch.  With $(b,--dry-run), prints the repair \
       plan and the explain-plan decision reasons for every affected global \
       object instead."
    Term.(
      const run
      $ repo_term ~integration_flag:false ()
      $ flag "dry-run"
          "Preview only: print the repair plan (chain steps, pathway patches \
           and quarantines, cache invalidation) and the current explain-plan \
           decisions for every affected global object, without mutating \
           anything."
      $ pos_arg 0 "OP"
          "The evolution: $(b,add-source) NAME=DIR, $(b,drop-source) NAME, \
           $(b,add-table) SOURCE TABLE, $(b,drop-table) SOURCE TABLE, \
           $(b,rename-table) SOURCE OLD NEW, $(b,add-column) SOURCE TABLE \
           COLUMN [TYPE], $(b,drop-column) SOURCE TABLE COLUMN, \
           $(b,rename-column) SOURCE TABLE OLD NEW."
      $ Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"Operands."))

(* -- durable store -------------------------------------------------------- *)

(* The [repo] subcommands operate on an on-disk durable store: a
   checkpoint plus write-ahead journal managed by [Automed_durable]. *)

let store_dir =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Directory of the durable store ($(b,checkpoint.str) + \
           $(b,journal.wal)); created if missing.")

let repo_snapshot_cmd =
  let run ds dir =
    let* d = Durable.attach (Vfs.os dir) ds.repo in
    let* () = Durable.snapshot d in
    Printf.printf "wrote %s/%s (%d schemas, %d pathways)\n" dir
      Durable.checkpoint_file
      (List.length (Repository.schemas ds.repo))
      (List.length (Repository.pathways ds.repo));
    Ok ()
  in
  cmd "snapshot"
    ~doc:
      "Build the repository and write an atomic checksummed checkpoint of \
       it (schemas, pathways, extents) into the store directory, emptying \
       the journal."
    Term.(const run $ repo_term () $ store_dir)

let repo_recover_cmd =
  let run dir =
    let* d, report = Durable.recover (Vfs.os dir) in
    print_endline (Fmt.str "%a" Durable.pp_report report);
    Printf.printf "%s\n" (Fmt.str "%a" Repository.pp_summary (Durable.repository d));
    Ok ()
  in
  cmd "recover"
    ~doc:
      "Rebuild the repository from the store's checkpoint plus journal, \
       truncating any torn or corrupt journal tail (reported as a warning).  \
       A corrupt checkpoint is an error, never a silently wrong repository."
    Term.(const run $ store_dir)

let repo_scrub_cmd =
  let run dir =
    let* s = Durable.scrub (Vfs.os dir) in
    print_endline (Fmt.str "%a" Durable.pp_scrub s);
    let status = s.checkpoint_status in
    let clean =
      (status = "absent" || String.starts_with ~prefix:"ok" status)
      && s.journal_tail = Journal.Clean
      && s.bad_payloads = []
    in
    if clean then Ok () else exit 1
  in
  cmd "scrub"
    ~doc:
      "Verify the store without modifying it: checkpoint checksum, journal \
       record checksums and payload parsability.  Exits 1 when anything is \
       torn, corrupt or unparseable."
    Term.(const run $ store_dir)

let repo_log_cmd =
  let run dir =
    let* scan = Journal.read (Vfs.os dir) ~file:Durable.journal_file in
    List.iteri
      (fun i (off, payload) ->
        Printf.printf "%4d  @%-8d %s\n" i off (Durable.describe_op payload))
      scan.records;
    Printf.printf "-- %d records, %d bytes, tail %s\n"
      (List.length scan.records) scan.total_bytes
      (Fmt.str "%a" Journal.pp_tail scan.tail);
    Ok ()
  in
  cmd "log"
    ~doc:
      "List the journal's records (one committed repository mutation each) \
       in replay order."
    Term.(const run $ store_dir)

let repo_cmd =
  Cmd.group
    (Cmd.info "repo"
       ~doc:
         "Operate on a durable on-disk repository store: write-ahead journal \
          plus checksummed checkpoints.")
    [ repo_snapshot_cmd; repo_recover_cmd; repo_scrub_cmd; repo_log_cmd ]

(* -- observability: metrics catalog and health status -------------------- *)

let metrics_catalog_cmd =
  let run json =
    Ok
      (print_string
         (if json then Microjson.to_string (Catalog.to_json ())
          else Catalog.to_text ()))
  in
  cmd "catalog"
    ~doc:
      "Dump the typed metrics catalog: every counter and histogram name a \
       probe can emit, with its kind, unit and description."
    Term.(const run $ flag "json" "Emit the catalog as one JSON object.")

let metrics_check_cmd =
  let srcs =
    Arg.(
      value & opt_all string []
      & info [ "src" ] ~docv:"DIR"
          ~doc:
            "Source tree to scan (repeatable); every .ml file under it is \
             checked.  Defaults to lib, bin and bench under the current \
             directory.")
  in
  let rec ml_files path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.concat_map (fun e -> ml_files (Filename.concat path e))
    else if Filename.check_suffix path ".ml" then [ path ]
    else []
  in
  let run srcs =
    let srcs = if srcs = [] then [ "lib"; "bin"; "bench" ] else srcs in
    match
      List.sort compare
        (List.concat_map ml_files (List.filter Sys.file_exists srcs))
    with
    | [] -> Error ("no .ml files found under: " ^ String.concat ", " srcs)
    | files -> (
        match Catalog.check (List.map (fun f -> (f, read_file f)) files) with
        | [] ->
            Printf.printf
              "metrics catalog clean: %d declarations, %d files scanned\n"
              (List.length Catalog.all) (List.length files);
            Ok ()
        | issues ->
            List.iter
              (fun i -> Printf.eprintf "%s\n" (Fmt.str "%a" Catalog.pp_issue i))
              issues;
            Error (Printf.sprintf "%d metrics catalog issue(s)" (List.length issues)))
  in
  cmd "check"
    ~doc:
      "Scan source trees for $(b,Telemetry.count)/$(b,Telemetry.observe) \
       probe sites and fail when a site uses an uncatalogued name, a \
       catalogue entry has no emit site left, or a counter name is used as \
       a histogram (or vice versa)."
    Term.(const run $ srcs)

let metrics_cmd =
  Cmd.group
    (Cmd.info "metrics"
       ~doc:
         "The typed metrics catalog: the single source of truth every \
          telemetry probe name must be declared in.")
    [ metrics_catalog_cmd; metrics_check_cmd ]

(* every health indicator a --threshold can override, with its field *)
let indicators =
  [
    ("chain-depth", fun c t -> { c with Health.chain_depth = t });
    ("quarantined-pathways", fun c t -> { c with Health.quarantined = t });
    ("void-degraded-steps", fun c t -> { c with Health.void_degraded = t });
    ("retired-sources", fun c t -> { c with Health.retired_sources = t });
    ("journal-debt", fun c t -> { c with Health.journal_bytes = t });
    ("breakers-not-closed", fun c t -> { c with Health.breakers = t });
    ("cache-invalidation-churn", fun c t -> { c with Health.cache_churn = t });
  ]

(* the health configuration under the --threshold overrides *)
let health_term =
  let overrides =
    Arg.(
      value
      & opt_all
          (pair ~sep:'='
             (enum (List.map (fun (n, _) -> (n, n)) indicators))
             (pair ~sep:',' float float))
          []
      & info [ "threshold" ] ~docv:"INDICATOR=WARN,CRITICAL"
          ~doc:
            ("Override one health indicator's thresholds (repeatable).  \
              Indicators: "
            ^ String.concat ", " (List.map fst indicators)
            ^ "."))
  in
  let config overrides =
    List.fold_left
      (fun acc (name, (warn, critical)) ->
        let* c = acc in
        if warn > critical then
          Error (Printf.sprintf "%s: warn must not exceed critical" name)
        else Ok ((List.assoc name indicators) c { Health.warn; critical }))
      (Ok Health.default_config) overrides
  in
  Term.(term_result' (const config $ overrides))

(* The journaled, resilient, integrated iSpider dataspace that [status],
   [maintain] and [compact] work on, with [fault_rate] injected on pedro *)
type live = {
  durable : Durable.t;
  resilience : Resilience.t;
  wf : Workflow.t;
}

let live_term ?(fault_rate = Term.const 0.0) () =
  let build fault_seed fault_rate =
    let policy = { Resilience.Policy.default with retries = 6 } in
    let resilience = Resilience.create ~seed:fault_seed ~policy () in
    let repo = Repository.create () in
    let* durable = Durable.attach (Vfs.memory ()) repo in
    let* () = Sources.wrap_all ~resilience repo (Sources.generate ()) in
    let* run = Intersection_run.execute ~resilience repo in
    if fault_rate > 0.0 then
      Resilience.inject resilience ~source:Sources.pedro_name
        (Resilience.Fault.rate fault_rate);
    Ok { durable; resilience; wf = run.workflow }
  in
  Term.(term_result' (const build $ fault_seed $ fault_rate))

let status_cmd =
  let run live config json exit_code =
    (* probe workload: the seven case-study queries, under a private sink,
       so the counter and latency panes reflect live behaviour *)
    let mem = Telemetry.Memory.create () in
    Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
        List.iter
          (fun (q : Queries.query) ->
            let t0 = Telemetry.wall_clock () in
            ignore (Workflow.run_query live.wf q.global_text);
            Telemetry.observe "status.probe_ms"
              ((Telemetry.wall_clock () -. t0) *. 1000.0))
          Queries.all);
    let metrics = Telemetry.Metrics.of_memory mem in
    let report =
      Health.assess ~config ~resilience:live.resilience ~durable:live.durable
        ~metrics live.wf
    in
    let top =
      List.filteri
        (fun i _ -> i < 10)
        (List.stable_sort (fun (_, a) (_, b) -> compare b a) metrics.counters)
    in
    if json then
      print_string (Microjson.to_string (Documents.status report metrics ~top))
    else (
      print_string (Health.to_text report);
      Printf.printf "\ntop counters (probe workload: the 7 case-study queries)\n";
      List.iter (fun (n, v) -> Printf.printf "  %-44s %8d\n" n v) top;
      Printf.printf "\nlatency percentiles\n";
      List.iter
        (fun (n, (q : Telemetry.Memory.quantiles)) ->
          Printf.printf "  %-36s %-8s p50 %10.3f  p95 %10.3f  p99 %10.3f\n" n
            (match Catalog.find n with Some d -> d.unit_ | None -> "")
            q.q50 q.q95 q.q99)
        metrics.quantiles);
    match report.r_overall with
    | Health.Warn when exit_code -> exit 1
    | Health.Critical when exit_code -> exit 2
    | _ -> Ok ()
  in
  cmd "status"
    ~doc:
      "The dataspace health dashboard: builds the integrated iSpider \
       dataspace with the resilience and durability layers wired, runs the \
       seven case-study queries as a probe workload, and reports repair \
       debt (version-chain depth, quarantined pathways, Void-degraded \
       definitions, retired sources, journal bytes, breaker states, cache \
       churn) classified against ok/warn/critical thresholds, plus the top \
       counters and latency percentiles of the probe run."
    Term.(
      const run $ live_term () $ health_term
      $ flag "json" "Emit the dashboard as one JSON object."
      $ flag "exit-code"
          "Reflect the overall classification in the exit status: 0 when \
           ok, 1 when any indicator is warn, 2 when any is critical — for CI \
           gates and cron probes.")

(* -- autonomic maintenance ----------------------------------------------- *)

let cycles_arg default =
  Arg.(
    value & opt int default
    & info [ "cycles" ] ~docv:"N"
        ~doc:
          "Evolution churn cycles to drive against the dataspace (the \
           deterministic 5-phase script the benches use).")

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Per-attempt failure probability injected on the pedro source \
           during churn (deterministic under $(b,--fault-seed)).")

let churn wf ?(each = fun () -> Ok ()) cycles =
  iter_ok
    (fun i ->
      let* _ = Evolution.evolve wf (Churn.delta i) in
      each ())
    (List.init cycles Fun.id)

let health_summary wf =
  let report = Health.assess wf in
  Printf.sprintf "overall %s, chain depth %.0f links"
    (Health.level_label report.r_overall)
    (match
       List.find_opt
         (fun (i : Health.indicator) -> i.i_name = "chain-depth")
         report.r_indicators
     with
    | Some i -> i.i_value
    | None -> 0.0)

let print_compaction verb (c : Maintain.compaction) =
  Printf.printf
    "%s: composed %d chain links (%d steps) from anchor %s into a %d-step \
     certified shortcut\n"
    verb c.c_links c.c_steps_before c.c_anchor c.c_steps_after;
  Printf.printf
    "  replaced link %s; %d contributions rerouted, %d dead ones dropped\n"
    c.c_retired c.c_rerouted c.c_dropped_contributions;
  let cert = c.c_certificate in
  Printf.printf
    "  certificate: %d object definitions over %d differential trials%s\n"
    cert.objects cert.trials
    (if cert.reverse_checked then ", reverse checked" else "")

let maintain_cmd =
  let run live config cycles dry_run once =
    let policy = { Maintain.default_policy with health = config } in
    let scheduler = Maintain.Scheduler.create ~policy () in
    let wf = live.wf in
    let tick () =
      let* events =
        Maintain.Scheduler.tick ~durable:live.durable
          ~resilience:live.resilience scheduler wf
      in
      Ok (print_string (Maintain.Scheduler.report_to_text events))
    in
    (* maintenance is held back under --dry-run and --once *)
    let* () =
      if dry_run || once then churn wf cycles else churn wf ~each:tick cycles
    in
    let unmaintained () =
      Printf.printf "after %d unmaintained cycles: %s\n" cycles
        (health_summary wf)
    in
    let* () =
      if dry_run then (
        unmaintained ();
        let* c = Maintain.compact ~dry_run:true wf in
        (match c with
        | Maintain.Compacted c -> print_compaction "would compact" c
        | Maintain.Nothing_to_do why ->
            Printf.printf "compaction: nothing to do (%s)\n" why
        | Maintain.Refused why ->
            Printf.printf "compaction would be refused: %s\n" why);
        let* r = Maintain.reclaim ~dry_run:true wf in
        Printf.printf
          "would reclaim: %d inert quarantined pathway(s) removed, %d retired \
           schema(s) pruned%s\n"
          r.rc_pathways_removed
          (List.length r.rc_schemas_pruned)
          (match r.rc_new_version with
          | Some v -> Printf.sprintf ", re-integrated as %s" v
          | None -> "");
        Ok ())
      else if once then (
        unmaintained ();
        let* () = tick () in
        Printf.printf "after one maintenance tick: %s\n" (health_summary wf);
        Ok ())
      else (
        Printf.printf
          "%d churn cycles with a maintenance tick each; %d maintenance \
           action(s) fired\n"
          cycles
          (List.length (Maintain.Scheduler.events scheduler));
        Printf.printf "final state: %s\n" (health_summary wf);
        Ok ())
    in
    let report =
      Health.assess ~config ~resilience:live.resilience ~durable:live.durable wf
    in
    print_string (Health.to_text report);
    (* the default mode is a promise: the scheduler keeps debt below
       warn.  Breaking it is a failure; --dry-run and --once exist
       precisely to *show* accumulated debt, so they always exit 0. *)
    if (not (dry_run || once)) && report.r_overall <> Health.Good then exit 1;
    Ok ()
  in
  cmd "maintain"
    ~doc:
      "The autonomic maintenance loop: drives deterministic evolution churn \
       against the integrated iSpider dataspace while the debt-driven \
       scheduler fires certified chain compaction, quarantine reclamation \
       and journal checkpoints with hysteresis, one tick per cycle.  \
       $(b,--dry-run) previews the actions, $(b,--once) runs a single tick \
       after unmaintained churn."
    Term.(
      const run
      $ live_term ~fault_rate:fault_rate_arg ()
      $ health_term $ cycles_arg 40
      $ flag "dry-run"
          "After the churn, report what compaction and reclamation would do \
           (every check and certification runs) without mutating the \
           repository."
      $ flag "once"
          "Run the churn unmaintained, then a single scheduler tick: shows \
           the debt the tick pays down.")

let compact_cmd =
  let run live cycles dry_run =
    let wf = live.wf in
    let* () = churn wf cycles in
    let depth () =
      Health.effective_chain_depth (Workflow.repository wf)
        ~root:(Workflow.global_name wf)
    in
    let before = depth () in
    let* result = Maintain.compact ~dry_run wf in
    match result with
    | Maintain.Compacted c ->
        print_compaction (if dry_run then "would compact" else "compacted") c;
        Printf.printf "  effective chain depth: %d -> %d links\n" before
          (depth ());
        Ok ()
    | Maintain.Nothing_to_do why -> Ok (Printf.printf "nothing to do: %s\n" why)
    | Maintain.Refused why -> Error ("compaction refused: " ^ why)
  in
  cmd "compact"
    ~doc:
      "One-shot certified chain compaction: churns the integrated iSpider \
       dataspace through $(b,--cycles) evolution cycles, then composes the \
       accumulated global version chain into a single certified shortcut \
       pathway (refusing if no equivalence certificate can be produced) and \
       reroutes interior contributions onto the current version.  Every old \
       version keeps answering bit-identically."
    Term.(
      const run
      $ live_term ~fault_rate:fault_rate_arg ()
      $ cycles_arg 12
      $ flag "dry-run"
          "Run every check and certification but leave the repository \
           untouched.")

(* -- the Intersection Schema Tool (Figure 5) ----------------------------- *)

(* The paper's GUI tool showed three panels: source schemas on the left,
   the current global schema on the right, and the mappings table (with
   the transformation queries) at the bottom; after the forwards queries,
   a second screen collected the reverse queries, pre-filling the ones
   the tool could derive automatically.  [tool demo] walks the same flow
   on the paper's Section 2.4 example — the Pedro/PepSeeker proteinhit
   intersection — printing each panel and then verifying the integration
   against the generated data.  [tool interactive] reads mapping lines
   [TARGET := SIDE_SCHEMA : FORWARD_QUERY] from stdin (a blank line
   ends), so the same flow can be driven by hand or from a script. *)

let heading title =
  Printf.printf "\n== %s %s\n" title
    (String.make (max 0 (66 - String.length title)) '=')

let show_schema repo name =
  match Repository.schema repo name with
  | None -> Error ("no schema " ^ name)
  | Some s ->
      Printf.printf "%s:\n" name;
      List.iter
        (fun o -> Printf.printf "    %s\n" (Scheme.to_string o))
        (Schema.objects s);
      Ok ()

let show_mappings (side : Intersection.side) =
  Printf.printf "  source schema %s:\n" side.schema;
  List.iter
    (fun (m : Intersection.mapping) ->
      Printf.printf "    %-28s <=  %s\n" (Scheme.to_string m.target)
        (Ast.to_string m.forward))
    side.mappings

let show_reverse_queries (side : Intersection.side) =
  Printf.printf "  reverse queries for %s (auto-derived where possible):\n"
    side.schema;
  List.iter
    (fun (m : Intersection.mapping) ->
      let line src q tag =
        Printf.printf "    %-28s <=  %s   [%s]\n" (Scheme.to_string src) q tag
      in
      match
        ( m.restore,
          match m.forward with
          | Ast.SchemeRef src
          | Ast.Comp (_, [ Ast.Gen (_, Ast.SchemeRef src) ]) ->
              Some src
          | _ -> None )
      with
      | Some (src, q), _ -> line src (Ast.to_string q) "user"
      | None, Some src -> (
          match
            Intersection.invert_forward ~target:m.target ~source:src m.forward
          with
          | Some q -> line src (Ast.to_string q) "auto"
          | None -> line src "Range Void Any" "not derivable")
      | None, None -> ())
    side.mappings

let tool_demo () =
  let data = Sources.generate () in
  let repo = Repository.create () in
  let* () = Sources.wrap_all repo data in
  let* wf =
    Workflow.start repo ~name:"demo"
      ~sources:[ Sources.pedro_name; Sources.pepseeker_name; Sources.gpmdb_name ]
  in
  let query text = perr (Workflow.run_query wf text) in
  heading "Step 1-2: federated schema created; data services available";
  Printf.printf "initial global schema: %s\n" (Workflow.global_name wf);
  let* v = query "count(<<pedro:proteinhit>>)" in
  Printf.printf "count(<<pedro:proteinhit>>) = %s\n" (Value.to_string v);

  heading "Step 3: inspect source schemas (left panel)";
  Printf.printf "(fragments relevant to the example)\n";
  Printf.printf
    "pedro:\n\
    \    <<proteinhit>>\n\
    \    <<proteinhit,db_search>>\n\
     pepseeker:\n\
    \    <<proteinhit>>\n\
    \    <<proteinhit,fileparameters>>\n";

  heading "Step 4: mappings table (bottom panel) - forwards direction";
  let side schema tag column =
    {
      Intersection.schema;
      mappings =
        [
          {
            Intersection.target = Scheme.column "UProteinHit" "dbsearch";
            forward =
              Parser.parse_exn
                (Printf.sprintf "[{'%s', k, x} | {k,x} <- <<proteinhit,%s>>]"
                   tag column);
            restore = None;
          };
        ];
    }
  in
  let spec =
    {
      Intersection.name = "i_uproteinhit";
      sides =
        [
          side Sources.pedro_name "PEDRO" "db_search";
          side Sources.pepseeker_name "pepSeeker" "fileparameters";
        ];
    }
  in
  List.iter show_mappings spec.sides;

  heading "Step 4b: reverse direction (second screen)";
  List.iter show_reverse_queries spec.sides;

  heading "Step 5: generate the intersection schema and the new global schema";
  let* it = Workflow.integrate wf spec in
  Printf.printf "intersection schema: %s (%d user transformations, %d automatic)\n"
    (Schema.name it.outcome.intersection)
    it.outcome.manual_steps it.outcome.auto_steps;
  Printf.printf "new global schema (right panel): %s\n" (Workflow.global_name wf);
  let* () = show_schema repo "i_uproteinhit" in
  Printf.printf
    "redundant objects dropped from the global schema:\n\
    \    <<pedro:proteinhit,db_search>>\n\
    \    <<pepseeker:proteinhit,fileparameters>>\n";

  heading "Step 6: verify by querying the new global schema";
  (* the bag union must hold every row of both source columns, counted in
     the generated data rather than through the integration *)
  let column_size db column =
    match Relational.find_table db "proteinhit" with
    | None -> 0
    | Some t -> (
        match Relational.column_extent t column with
        | Ok b -> Value.Bag.cardinal b
        | Error _ -> 0)
  in
  let expected =
    column_size data.pedro "db_search"
    + column_size data.pepseeker "fileparameters"
  in
  let* v = query "count(<<UProteinHit,dbsearch>>)" in
  Printf.printf "count(<<UProteinHit,dbsearch>>) = %s (bag union of both sources)\n"
    (Value.to_string v);
  let* () =
    if Value.equal v (Value.Int expected) then Ok ()
    else
      Error
        (Printf.sprintf
           "count(<<UProteinHit,dbsearch>>) is %s, but the two source \
            columns hold %d rows"
           (Value.to_string v) expected)
  in
  let* pep =
    query "[{k, x} | {s, k, x} <- <<UProteinHit,dbsearch>>; s = 'pepSeeker']"
  in
  Printf.printf "pepSeeker-side entries: %s\n"
    (match pep with
    | Value.Bag b -> string_of_int (Value.Bag.cardinal b)
    | v -> Value.to_string v);
  Printf.printf "\nworkflow can now continue from step 3 with another pair.\n";
  Ok ()

(* TARGET := SIDE : FORWARD *)
let parse_mapping_line line =
  let rec assign i =
    if i + 1 >= String.length line then None
    else if line.[i] = ':' && line.[i + 1] = '=' then Some i
    else assign (i + 1)
  in
  match assign 0 with
  | None -> Error (Printf.sprintf "expected TARGET := SIDE : QUERY in %S" line)
  | Some i -> (
      let rest = String.sub line (i + 2) (String.length line - i - 2) in
      match String.index_opt rest ':' with
      | None -> Error "missing ':' between side schema and query"
      | Some j ->
          let* target = Scheme.of_string (String.trim (String.sub line 0 i)) in
          let* forward =
            Parser.parse (String.sub rest (j + 1) (String.length rest - j - 1))
          in
          Ok (target, String.trim (String.sub rest 0 j), forward))

let tool_interactive () =
  let repo = Repository.create () in
  let* () = Sources.wrap_all repo (Sources.generate ()) in
  let* session =
    Mapping_table.start repo ~name:"i_interactive"
      ~sources:[ "pedro"; "gpmdb"; "pepseeker" ]
  in
  Printf.printf
    "sources: pedro, gpmdb, pepseeker\n\
     enter mappings as  <<Target>> := side : [ ... | ... ]  (blank line ends):\n";
  let rec loop () =
    print_string "> ";
    match String.trim (read_line ()) with
    | exception End_of_file -> ()
    | "" -> ()
    | line ->
        (match parse_mapping_line line with
        | Error e -> Printf.printf "error: %s\n" e
        | Ok (target, side, forward) -> (
            (* every entry is validated (and type-checked) on the spot *)
            match
              Mapping_table.add session ~target ~source:side
                ~forward:(Ast.to_string forward)
            with
            | Ok e ->
                Printf.printf "  added #%d%s" e.entry_id
                  (if e.typed then "" else " (untyped)");
                (match e.reverse with
                | Some r -> Printf.printf "; auto reverse: %s\n" (Ast.to_string r)
                | None -> print_newline ())
            | Error e -> Printf.printf "error: %s\n" e));
        loop ()
  in
  loop ();
  let* spec = Mapping_table.finish session in
  let* o = Intersection.create repo spec in
  Printf.printf "created %s with %d objects (%d manual, %d auto steps)\n"
    (Schema.name o.intersection)
    (Schema.object_count o.intersection)
    o.manual_steps o.auto_steps;
  show_schema repo "i_interactive"

let tool_cmd =
  Cmd.group
    (Cmd.info "tool"
       ~doc:
         "The Intersection Schema Tool of the paper's Figure 5: the source \
          schemas, the mappings table with its forward and auto-derived \
          reverse queries, and the new global schema.")
    [
      cmd "demo"
        ~doc:
          "Walk the tool's flow on the paper's Section 2.4 example (the \
           Pedro/PepSeeker proteinhit intersection) and verify the new \
           global schema against the generated data; exits non-zero on a \
           mismatch."
        Term.(const tool_demo $ const ());
      cmd "interactive"
        ~doc:
          "Read mapping lines $(i,TARGET) := $(i,SIDE) : $(i,QUERY) from \
           stdin (a blank line ends), validating each on the spot, then \
           create the intersection schema."
        Term.(const tool_interactive $ const ());
    ]

let () =
  let doc = "AutoMed-style dataspace integration with intersection schemas" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "automed-cli" ~version:"1.0.0" ~doc)
          [ schemas_cmd; show_cmd; query_cmd; reformulate_cmd; match_cmd;
            pathways_cmd; lint_cmd; analyze_cmd; export_cmd; extent_cmd;
            materialize_cmd; trace_cmd; trace_validate_cmd; explain_cmd;
            case_study_cmd; evolve_cmd; repo_cmd; metrics_cmd; status_cmd;
            maintain_cmd; compact_cmd; tool_cmd ]))
