(* automed-cli: a command-line front end to the dataspace.

   By default the commands operate on the built-in iSpider dataspace
   (synthetic Pedro, gpmDB and PepSeeker sources); [--integrated] runs
   the intersection-based integration first so that the global schema
   versions exist.  With [--csv DIR] (repeatable, [NAME=DIR]) additional
   relational sources are loaded from directories of CSV files (one file
   per table, first header field is the key) and wrapped into the
   repository. *)

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
module Analysis = Automed_analysis.Analysis
module Diagnostic = Automed_analysis.Diagnostic
module Rewrite = Automed_analysis.Rewrite
module Reachability = Automed_analysis.Reachability
module Transform = Automed_transform.Transform
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Classical_run = Automed_ispider.Classical_run
module Telemetry = Automed_telemetry.Telemetry
module Chrome_trace = Automed_telemetry.Chrome_trace
module Intersection = Automed_integration.Intersection
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Evolution = Automed_evolution.Evolution
module Journal = Automed_durable.Journal
module Vfs = Automed_durable.Vfs

open Cmdliner

let fail fmt = Format.kasprintf (fun s -> `Error (false, s)) fmt

(* -- repository construction -------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_csv_source ?resilience repo spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "--csv expects NAME=DIR, got %S" spec)
  | Some i ->
      let name = String.sub spec 0 i in
      let dir = String.sub spec (i + 1) (String.length spec - i - 1) in
      if not (Sys.is_directory dir) then
        Error (Printf.sprintf "not a directory: %s" dir)
      else
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".csv")
          |> List.sort String.compare
        in
        let ( let* ) = Result.bind in
        let* db =
          List.fold_left
            (fun acc file ->
              let* db = acc in
              let tname = Filename.remove_extension file in
              let* table =
                Csv.load_table_auto ~name:tname
                  (read_file (Filename.concat dir file))
              in
              Relational.add_table db table)
            (Ok (Relational.create_db name))
            files
        in
        let* _ = Wrapper.wrap ?resilience repo db in
        Ok ()

let build_repo ~integrated ~csv_specs ~resilience =
  let repo = Repository.create () in
  let ( let* ) = Result.bind in
  let* () = Sources.wrap_all ?resilience repo (Sources.generate ()) in
  let* () =
    List.fold_left
      (fun acc spec ->
        let* () = acc in
        load_csv_source ?resilience repo spec)
      (Ok ()) csv_specs
  in
  if integrated then
    let* _run = Intersection_run.execute ?resilience repo in
    Ok repo
  else Ok repo

(* -- common options ------------------------------------------------------ *)

let integrated =
  Arg.(
    value & flag
    & info [ "integrated" ] ~doc:"Run the intersection-based integration first.")

let csv_specs =
  Arg.(
    value & opt_all string []
    & info [ "csv" ] ~docv:"NAME=DIR"
        ~doc:"Load an additional relational source from a directory of CSV files.")

let no_resilience =
  Arg.(
    value & flag
    & info [ "no-resilience" ]
        ~doc:
          "Build the repository without the fault-handling layer: source \
           fetches are not retried and $(b,lint) warns about every \
           unprotected source.")

let fault_seed =
  Arg.(
    value & opt int64 0x5EEDL
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the deterministic fault injector and backoff jitter; the \
           same seed always produces the same failures.")

(* [f] receives the repository and, unless --no-resilience, the registry
   every wrapped source was registered in *)
let with_repo ?(fault_seed = 0x5EEDL) integrated csv_specs no_resilience f =
  let resilience =
    if no_resilience then None else Some (Resilience.create ~seed:fault_seed ())
  in
  match build_repo ~integrated ~csv_specs ~resilience with
  | Error e -> `Error (false, e)
  | Ok repo -> f repo resilience

(* -- commands ------------------------------------------------------------ *)

let schemas_cmd =
  let run integrated csv_specs no_resilience =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        List.iter
          (fun s ->
            Printf.printf "%-28s %4d objects%s\n" (Schema.name s)
              (Schema.object_count s)
              (if Repository.has_stored_extents repo (Schema.name s) then
                 "  [materialised]"
               else ""))
          (Repository.schemas repo);
        `Ok ())
  in
  Cmd.v (Cmd.info "schemas" ~doc:"List all schemas in the repository.")
    Term.(ret (const run $ integrated $ csv_specs $ no_resilience))

let schema_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCHEMA" ~doc:"Schema name.")

let show_cmd =
  let run integrated csv_specs no_resilience name =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        match Repository.schema repo name with
        | None -> fail "no schema %s" name
        | Some s ->
            Printf.printf "%s\n" (Fmt.str "%a" Schema.pp s);
            `Ok ())
  in
  Cmd.v (Cmd.info "show" ~doc:"Show a schema's objects and extent types.")
    Term.(ret (const run $ integrated $ csv_specs $ no_resilience $ schema_arg))

(* NAME=RATE fault profile specs, e.g. --fault pedro=0.2 *)
let parse_fault_spec spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "--fault expects NAME=RATE, got %S" spec)
  | Some i -> (
      let name = String.sub spec 0 i in
      let rate = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt rate with
      | Some r when r >= 0.0 && r <= 1.0 -> Ok (name, r)
      | _ -> Error (Printf.sprintf "--fault rate must be in [0,1], got %S" rate))

let apply_faults resilience specs =
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun () ->
          Result.map
            (fun (name, r) ->
              Resilience.inject resilience ~source:name (Resilience.Fault.rate r))
            (parse_fault_spec spec)))
    (Ok ()) specs

let print_bag b =
  List.iter
    (fun (v, n) ->
      if n = 1 then Printf.printf "%s\n" (Value.to_string v)
      else Printf.printf "%s  (x%d)\n" (Value.to_string v) n)
    b;
  Printf.printf "-- %d answers\n" (Value.Bag.cardinal b)

let query_cmd =
  let iql =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"IQL" ~doc:"IQL query text.")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Degrade gracefully: a source that exhausts its resilience \
             policy is skipped (contributing its certain-answer lower \
             bound, i.e. nothing) and reported in a completeness footer \
             instead of failing the query.")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"NAME=RATE"
          ~doc:
            "Inject deterministic faults: every extent fetch from source \
             $(i,NAME) fails with probability $(i,RATE) (repeatable; see \
             $(b,--fault-seed)).")
  in
  let run integrated csv_specs no_resilience fault_seed name text
      faults degrade =
    with_repo ~fault_seed integrated csv_specs no_resilience (fun repo res ->
        let ( let* ) = Result.bind in
        match
          let* () =
            match (res, faults) with
            | _, [] -> Ok ()
            | Some r, _ -> apply_faults r faults
            | None, _ :: _ -> Error "--fault requires the resilience layer"
          in
          Ok (Processor.create ?resilience:res repo)
        with
        | Error e -> fail "%s" e
        | Ok proc when degrade -> (
            match Parser.parse text with
            | Error e -> fail "%s" e
            | Ok ast -> (
                match Processor.run_degraded proc ~schema:name ast with
                | Ok (Value.Bag b, c) ->
                    print_bag b;
                    Printf.printf "-- completeness: %s\n"
                      (Fmt.str "%a" Processor.pp_completeness c);
                    `Ok ()
                | Ok (v, c) ->
                    Printf.printf "%s\n" (Value.to_string v);
                    Printf.printf "-- completeness: %s\n"
                      (Fmt.str "%a" Processor.pp_completeness c);
                    `Ok ()
                | Error e -> fail "%s" (Fmt.str "%a" Processor.pp_error e)))
        | Ok proc -> (
            match Processor.run_string proc ~schema:name text with
            | Ok (Value.Bag b) ->
                print_bag b;
                `Ok ()
            | Ok v ->
                Printf.printf "%s\n" (Value.to_string v);
                `Ok ()
            | Error e -> fail "%s" (Fmt.str "%a" Processor.pp_error e)))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run an IQL query against a schema.")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience
       $ fault_seed $ schema_arg $ iql $ faults $ degrade))

let reformulate_cmd =
  let iql =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"IQL" ~doc:"IQL query text.")
  in
  let run integrated csv_specs no_resilience name text =
    with_repo integrated csv_specs no_resilience (fun repo res ->
        let proc = Processor.create ?resilience:res repo in
        match Parser.parse text with
        | Error e -> fail "%s" e
        | Ok ast -> (
            match Processor.reformulate proc ~schema:name ast with
            | Ok unfolded ->
                Printf.printf "%s\n" (Ast.to_string unfolded);
                `Ok ()
            | Error e -> fail "%s" (Fmt.str "%a" Processor.pp_error e)))
  in
  Cmd.v
    (Cmd.info "reformulate"
       ~doc:"Unfold a query over a schema onto the data source schemas.")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience
       $ schema_arg $ iql))

let match_cmd =
  let left =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"LEFT" ~doc:"Left schema.")
  in
  let right =
    Arg.(
      required & pos 1 (some string) None & info [] ~docv:"RIGHT" ~doc:"Right schema.")
  in
  let threshold =
    Arg.(
      value & opt float 0.35
      & info [ "threshold" ] ~doc:"Minimum combined score to report.")
  in
  let run integrated csv_specs no_resilience left right threshold =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        match Matcher.suggest ~threshold repo ~left ~right with
        | Error e -> fail "%s" e
        | Ok suggestions ->
            List.iter
              (fun s -> Printf.printf "%s\n" (Fmt.str "%a" Matcher.pp_suggestion s))
              suggestions;
            Printf.printf "-- %d suggestions\n" (List.length suggestions);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Suggest semantic correspondences between two schemas.")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience $ left $ right
       $ threshold))

let pathways_cmd =
  let run integrated csv_specs no_resilience =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        List.iter
          (fun (p : Automed_transform.Transform.pathway) ->
            Printf.printf "%-28s -> %-28s %3d steps (%d non-trivial)\n"
              p.Automed_transform.Transform.from_schema
              p.Automed_transform.Transform.to_schema
              (List.length p.Automed_transform.Transform.steps)
              (Automed_transform.Transform.count_non_trivial p))
          (Repository.pathways repo);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "pathways" ~doc:"List all pathways in the repository.")
    Term.(ret (const run $ integrated $ csv_specs $ no_resilience))

let export_cmd =
  let with_extents =
    Arg.(
      value & flag
      & info [ "extents" ] ~doc:"Also serialise the materialised extents.")
  in
  let run integrated csv_specs no_resilience with_extents =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        print_string
          (Automed_repository.Serialize.save ~extents:with_extents repo);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Serialise the repository (schemas, pathways, optionally extents) \
          to stdout.")
    Term.(
      ret (const run $ integrated $ csv_specs $ no_resilience $ with_extents))

let extent_cmd =
  (* the paper's Extent Tool: "allows the extent of any schema object to
     be displayed" (Section 2.3, step 4) *)
  let obj =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OBJECT" ~doc:"Schema object, e.g. <<protein>>.")
  in
  let run integrated csv_specs no_resilience name obj_text =
    with_repo integrated csv_specs no_resilience (fun repo res ->
        match Scheme.of_string obj_text with
        | Error e -> fail "%s" e
        | Ok scheme -> (
            let proc = Processor.create ?resilience:res repo in
            match Processor.extent_of proc ~schema:name scheme with
            | Error e -> fail "%s" (Fmt.str "%a" Processor.pp_error e)
            | Ok bag ->
                List.iter
                  (fun (v, n) ->
                    if n = 1 then Printf.printf "%s\n" (Value.to_string v)
                    else Printf.printf "%s  (x%d)\n" (Value.to_string v) n)
                  bag;
                Printf.printf "-- %d elements (%d distinct)\n"
                  (Value.Bag.cardinal bag)
                  (Value.Bag.distinct_cardinal bag);
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "extent"
       ~doc:"Display the derived extent of a schema object (the Extent Tool).")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience
       $ schema_arg $ obj))

let materialize_cmd =
  let run integrated csv_specs no_resilience name =
    with_repo integrated csv_specs no_resilience (fun repo res ->
        let proc = Processor.create ?resilience:res repo in
        match Automed_datasource.Materialize.db_of_schema proc ~schema:name with
        | Error e -> fail "%s" e
        | Ok db ->
            List.iter
              (fun t ->
                Printf.printf "-- table %s\n" (Relational.table_name t);
                let header = List.map fst (Relational.columns t) in
                let rows =
                  List.map
                    (List.map (function
                      | None -> ""
                      | Some (Value.Str s) -> s
                      | Some v -> Value.to_string v))
                    (Relational.rows t)
                in
                print_string (Csv.render (header :: rows)))
              (Relational.tables db);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "materialize"
       ~doc:
         "Derive every relational table of a schema and print it as CSV \
          (integration as ETL).")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience $ schema_arg))

let lint_cmd =
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"SCHEMA"
          ~doc:
            "Schema that reachability is measured from.  Defaults to the \
             target of the most recently registered pathway (the current \
             global schema version in workflow-built repositories).")
  in
  let format_ =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("tsv", `Tsv) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) (human-readable) or $(b,tsv) \
                (machine-readable, one diagnostic per line).")
  in
  let errors_only =
    Arg.(
      value & flag
      & info [ "errors-only" ] ~doc:"Report only error-severity diagnostics.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Append a footer of diagnostic counts by severity, sourced \
             from the telemetry counter API.")
  in
  let warnings_as_errors =
    Arg.(
      value & flag
      & info [ "warnings-as-errors" ]
          ~doc:
            "Exit 1 when any warning-severity diagnostic remains (after \
             $(b,--allow) filtering), not just errors.  For CI gates.")
  in
  let allow =
    Arg.(
      value & opt_all string []
      & info [ "allow" ] ~docv:"RULE"
          ~doc:
            "Suppress every diagnostic emitted by lint rule $(i,RULE) \
             (repeatable).  Suppressed diagnostics are neither printed \
             nor counted towards the exit status.")
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Before linting, rewrite every stored pathway to its \
             certified simplified form (the lint autofixer).  Each fix \
             goes through the repository API, so an attached journal \
             records the replacement like any other mutation.  Rewrites \
             the equivalence checker cannot certify are refused and \
             reported.")
  in
  let run integrated csv_specs no_resilience root format_ errors_only stats
      warnings_as_errors allow fix =
    with_repo integrated csv_specs no_resilience (fun repo res ->
        (if fix then
           let fixes = Analysis.fix_repository repo in
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
               | Error e ->
                   Printf.printf "refused %s: %s\n" f.pathway e)
             fixes;
           Printf.printf "-- %d pathways rewritten\n"
             (List.length
                (List.filter
                   (fun (f : Analysis.fix) -> Result.is_ok f.applied)
                   fixes)));
        let covered = Option.map Resilience.sources res in
        let journaled = Some (Repository.observed repo) in
        let mem = Telemetry.Memory.create () in
        let diags =
          if stats then
            Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
                Analysis.lint_repository ?root ?covered ?journaled repo)
          else Analysis.lint_repository ?root ?covered ?journaled repo
        in
        let diags =
          if allow = [] then diags
          else
            List.filter
              (fun d -> not (List.mem d.Diagnostic.rule allow))
              diags
        in
        let diags = if errors_only then Diagnostic.errors diags else diags in
        (match format_ with
        | `Text ->
            List.iter
              (fun d -> print_endline (Fmt.str "%a" Diagnostic.pp d))
              diags;
            Printf.printf "-- %d pathways checked: %s\n"
              (List.length (Repository.pathways repo))
              (Fmt.str "%a" Diagnostic.pp_summary (Diagnostic.count diags))
        | `Tsv ->
            List.iter (fun d -> print_endline (Diagnostic.to_tsv d)) diags);
        (if stats then begin
           List.iter
             (fun sev ->
               let name = "lint.diagnostics." ^ sev in
               match format_ with
               | `Tsv ->
                   Printf.printf "stat\t%s\t%d\n" name
                     (Telemetry.Memory.counter mem name)
               | `Text ->
                   Printf.printf "-- stat %s = %d\n" name
                     (Telemetry.Memory.counter mem name))
             [ "error"; "warning"; "info" ];
           (* any histograms observed while linting, with their
              reservoir percentiles *)
           let snapshot = Telemetry.Metrics.of_memory mem in
           List.iter
             (fun (name, (h : Telemetry.Memory.histo)) ->
               match Telemetry.Metrics.quantiles_of snapshot name with
               | None -> ()
               | Some q -> (
                   match format_ with
                   | `Tsv ->
                       Printf.printf
                         "histo\t%s\t%d\t%g\t%g\t%g\n" name h.n
                         q.Telemetry.Memory.q50 q.Telemetry.Memory.q95
                         q.Telemetry.Memory.q99
                   | `Text ->
                       Printf.printf
                         "-- histo %s: n=%d p50=%g p95=%g p99=%g\n" name h.n
                         q.Telemetry.Memory.q50 q.Telemetry.Memory.q95
                         q.Telemetry.Memory.q99))
             snapshot.Telemetry.Metrics.histograms
         end);
        if
          Diagnostic.has_errors diags
          || (warnings_as_errors && Diagnostic.warnings diags <> [])
        then exit 1;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse every pathway and the repository network \
          without executing anything: well-formedness of each step, IQL \
          type checking of embedded queries, pathway-algebra hazards and \
          network reachability.  Exits 1 when errors are found (or, with \
          $(b,--warnings-as-errors), warnings).  $(b,--fix) first rewrites \
          every stored pathway to its certified simplified form.")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience $ root $ format_
       $ errors_only $ stats $ warnings_as_errors $ allow $ fix))

let analyze_cmd =
  (* per-pathway report of the proof-checked simplification pipeline:
     which rewrite rules fire where, what the equivalence checker
     certified, and which stored-extent sources are reachable from the
     root. *)
  let root =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"SCHEMA"
          ~doc:
            "Schema the reachability report is measured from.  Defaults \
             to the target of the most recently registered pathway.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:
            "Print every individual rewrite-rule application (the full \
             audit trail) instead of per-rule counts.")
  in
  let print_applications verbose apps =
    if verbose then
      List.iter
        (fun a -> Printf.printf "  %s\n" (Fmt.str "%a" Rewrite.pp_application a))
        apps
    else
      let tally = Hashtbl.create 8 in
      List.iter
        (fun (a : Rewrite.application) ->
          Hashtbl.replace tally a.rule
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally a.rule)))
        apps;
      List.iter
        (fun (rule, _) ->
          match Hashtbl.find_opt tally rule with
          | None -> ()
          | Some n -> Printf.printf "  %s: %d application(s)\n" rule n)
        Rewrite.rules
  in
  let run integrated csv_specs no_resilience root verbose =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        let pathways = Repository.pathways repo in
        let simplified = ref 0 and removed = ref 0 and refused = ref 0 in
        List.iter
          (fun (p : Transform.pathway) ->
            let label =
              Printf.sprintf "%s -> %s" p.Transform.from_schema
                p.Transform.to_schema
            in
            let steps = List.length p.Transform.steps in
            match Analysis.simplify_stored repo p with
            | None ->
                Printf.printf
                  "pathway %s (%d steps): source schema not registered\n"
                  label steps
            | Some s -> (
                match s with
                | `Unchanged ->
                    Printf.printf "pathway %s (%d steps): no rewrite applies\n"
                      label steps
                | `Simplified (o, cert) ->
                    let after =
                      List.length o.Rewrite.pathway.Transform.steps
                    in
                    incr simplified;
                    removed := !removed + steps - after;
                    Printf.printf "pathway %s (%d -> %d steps)\n" label steps
                      after;
                    print_applications verbose o.Rewrite.applications;
                    Printf.printf
                      "  certified: %d objects agree symbolically, %d \
                       differential trial(s)%s\n"
                      cert.Automed_analysis.Equiv.objects
                      cert.Automed_analysis.Equiv.trials
                      (if cert.Automed_analysis.Equiv.reverse_checked then
                         ", reverse direction checked"
                       else "")
                | `Refused (o, reason) ->
                    incr refused;
                    Printf.printf
                      "pathway %s (%d steps): rewrite REFUSED — %s\n" label
                      steps reason;
                    print_applications verbose o.Rewrite.applications))
          pathways;
        (let root =
           match root with
           | Some r -> Some r
           | None -> (
               match pathways with
               | [] -> None
               | p :: _ -> Some p.Transform.to_schema)
         in
         match root with
         | None -> ()
         | Some root ->
             let unreachable = Reachability.unreachable_sources ~root repo in
             Printf.printf "reachability (root %s):\n" root;
             List.iter
               (fun s ->
                 let name = Schema.name s in
                 if name <> root && Repository.has_stored_extents repo name
                 then
                   Printf.printf "  %-24s %s\n" name
                     (if List.mem name unreachable then
                        "unreachable (no live definition chain to root)"
                      else "reachable"))
               (Repository.schemas repo));
        Printf.printf
          "-- %d pathways analysed: %d simplified (%d steps removed), %d \
           refused\n"
          (List.length pathways) !simplified !removed !refused;
        if !refused > 0 then exit 1;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static simplification pipeline over every stored \
          pathway and report each rewrite-rule application with its \
          equivalence certificate, plus a source-reachability report.  \
          Nothing is modified (use $(b,lint --fix) to commit the \
          rewrites).  Exits 1 if any rewrite is refused certification.")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience $ root $ verbose))

(* -- tracing ------------------------------------------------------------- *)

(* The [trace] subcommand replays a named example scenario end to end with
   a telemetry sink installed, so the full request path — source wrapping,
   pathway registration, reformulation, pathway application, evaluation,
   source fetches — lands in one Chrome-trace file. *)

let ( let* ) = Result.bind

let traced_query proc ~schema text =
  Telemetry.with_span "query" ~attrs:(fun () -> [ ("iql", text) ]) @@ fun () ->
  let* ast = Parser.parse text in
  let* reformulated =
    Result.map_error (Fmt.str "%a" Processor.pp_error)
      (Processor.reformulate proc ~schema ast)
  in
  ignore (reformulated : Ast.expr);
  let* _answer =
    Result.map_error (Fmt.str "%a" Processor.pp_error)
      (Processor.run proc ~schema ast)
  in
  Ok ()

(* the two-source music dataspace of examples/quickstart.ml *)
let quickstart_scenario () =
  let mk_db name tname key cols rows =
    let* table = Relational.create_table ~name:tname ~key cols in
    let* table = Relational.insert_all table rows in
    Relational.add_table (Relational.create_db name) table
  in
  let* store_db =
    mk_db "store" "album" "id"
      [ ("id", Relational.CStr); ("title", Relational.CStr);
        ("price", Relational.CFloat) ]
      [
        [ Relational.str_cell "a1"; Relational.str_cell "Blue Train";
          Relational.float_cell 9.99 ];
        [ Relational.str_cell "a2"; Relational.str_cell "Kind of Blue";
          Relational.float_cell 12.50 ];
      ]
  in
  let* radio_db =
    mk_db "radio" "record" "rid"
      [ ("rid", Relational.CStr); ("name", Relational.CStr);
        ("airplays", Relational.CInt) ]
      [
        [ Relational.str_cell "r7"; Relational.str_cell "Kind of Blue";
          Relational.int_cell 41 ];
        [ Relational.str_cell "r8"; Relational.str_cell "A Love Supreme";
          Relational.int_cell 17 ];
      ]
  in
  let repo = Repository.create () in
  let* _ = Wrapper.wrap repo store_db in
  let* _ = Wrapper.wrap repo radio_db in
  let* wf = Workflow.start repo ~name:"music" ~sources:[ "store"; "radio" ] in
  let side schema table title_col =
    {
      Intersection.schema;
      mappings =
        [
          { Intersection.target = Scheme.table "URelease";
            forward =
              Parser.parse_exn
                (Printf.sprintf "[{'%s', k} | k <- <<%s>>]" schema table);
            restore = None };
          { Intersection.target = Scheme.column "URelease" "title";
            forward =
              Parser.parse_exn
                (Printf.sprintf "[{'%s', k, x} | {k,x} <- <<%s,%s>>]" schema
                   table title_col);
            restore = None };
        ];
    }
  in
  let spec =
    {
      Intersection.name = "i_release";
      sides = [ side "store" "album" "title"; side "radio" "record" "name" ];
    }
  in
  let* _it = Workflow.integrate wf spec in
  let proc = Workflow.processor wf in
  let schema = Workflow.global_name wf in
  List.fold_left
    (fun acc text ->
      let* () = acc in
      traced_query proc ~schema text)
    (Ok ())
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
  let wf = run.Intersection_run.workflow in
  let proc = Workflow.processor wf in
  let schema = Workflow.global_name wf in
  List.fold_left
    (fun acc (q : Queries.query) ->
      let* () = acc in
      traced_query proc ~schema q.Queries.global_text)
    (Ok ()) Queries.all

let scenarios =
  [
    ("quickstart", quickstart_scenario);
    ("ispider_integration", ispider_scenario);
  ]

let scenario_of_name name =
  let base = Filename.remove_extension (Filename.basename name) in
  match List.assoc_opt base scenarios with
  | Some s -> Some s
  | None -> if base = "ispider" then Some ispider_scenario else None

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let trace_cmd =
  let example =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXAMPLE"
          ~doc:
            "Example scenario to trace: $(b,examples/quickstart) or \
             $(b,examples/ispider_integration) (the $(b,examples/) prefix \
             and $(b,.ml) suffix are optional).")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Where to write the Chrome-trace JSON (open in \
             chrome://tracing or https://ui.perfetto.dev).")
  in
  let metrics =
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("tsv", `Tsv) ])) None
      & info [ "metrics" ] ~docv:"FORMAT"
          ~doc:
            "Also print a counter/histogram summary in $(b,text) or \
             $(b,tsv) form.")
  in
  let run example out metrics =
    match scenario_of_name example with
    | None ->
        fail "unknown example %s (known: %s)" example
          (String.concat ", " (List.map fst scenarios))
    | Some scenario -> (
        let mem = Telemetry.Memory.create () in
        match Telemetry.with_sink (Telemetry.Memory.sink mem) scenario with
        | Error e -> fail "%s" e
        | Ok () -> (
            let json = Chrome_trace.render ~process_name:example mem in
            match Chrome_trace.validate json with
            | Error e -> fail "internal error: emitted trace is invalid: %s" e
            | Ok () ->
                write_file out json;
                Printf.printf "wrote %s: %d spans, %d counters\n" out
                  (List.length (Telemetry.Memory.spans mem))
                  (List.length (Telemetry.Memory.counters mem));
                (let snapshot = Telemetry.Metrics.of_memory mem in
                 match metrics with
                 | Some `Text -> print_string (Telemetry.Metrics.to_text snapshot)
                 | Some `Tsv -> print_string (Telemetry.Metrics.to_tsv snapshot)
                 | None -> ());
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay an example scenario with telemetry enabled and export \
          the spans as Chrome-trace JSON.")
    Term.(ret (const run $ example $ out $ metrics))

let trace_validate_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file to validate.")
  in
  let run file =
    match read_file file with
    | exception Sys_error e -> fail "%s" e
    | contents -> (
        match Chrome_trace.validate contents with
        | Ok () ->
            Printf.printf "%s: valid Chrome-trace JSON\n" file;
            `Ok ()
        | Error e -> fail "%s: %s" file e)
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~doc:
         "Check that a file parses as JSON and has the Chrome trace-event \
          shape (used by the CI runtest rule).")
    Term.(ret (const run $ file))

(* -- explain -------------------------------------------------------------- *)

(* [automed explain] tells the full story of a query without (text mode:
   before) trusting it: the reformulation tree per source with every
   pruning decision and its reason, each pathway's step count, cache
   state, breaker status, the per-stage timing
   waterfall reconstructed from the telemetry spans of an actual
   provenance-annotated run, and the lineage of every answer tuple. *)

module Lineage = Automed_provenance.Lineage
module Microjson = Automed_telemetry.Microjson

let span_ms s = s.Telemetry.Memory.dur *. 1000.0

let group_by_name spans =
  let names =
    List.fold_left
      (fun acc (s : Telemetry.Memory.span) ->
        if List.mem s.name acc then acc else s.name :: acc)
      [] spans
    |> List.rev
  in
  List.map
    (fun n ->
      (n, List.filter (fun (s : Telemetry.Memory.span) -> s.name = n) spans))
    names

(* Indented span tree.  Sibling groups larger than [collapse] spans of
   the same name are aggregated into one line, so a run over many
   extents stays readable. *)
let print_waterfall spans =
  let collapse = 5 in
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Telemetry.Memory.span) ->
      let key = match s.parent with None -> -1 | Some p -> p in
      Hashtbl.replace children key
        (s :: Option.value ~default:[] (Hashtbl.find_opt children key)))
    spans;
  let kids id =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt children id))
  in
  let interesting (k, _) =
    match k with "schema" | "object" | "iql" | "skipped" -> true | _ -> false
  in
  let attr_str attrs =
    match List.filter interesting attrs with
    | [] -> ""
    | kvs ->
        "  ["
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ "]"
  in
  let rec go indent (s : Telemetry.Memory.span) =
    Printf.printf "%s%8.3fms  %s%s\n" indent (span_ms s) s.name
      (attr_str s.attrs);
    List.iter
      (fun (name, group) ->
        if List.length group <= collapse then
          List.iter (go (indent ^ "  ")) group
        else
          let total = List.fold_left (fun a c -> a +. span_ms c) 0.0 group in
          Printf.printf "%s  %8.3fms  %s (x%d, aggregated)\n" indent total
            name (List.length group))
      (group_by_name (kids s.id))
  in
  List.iter (go "") (kids (-1))

let print_tuples limit (ann : Processor.annotated) =
  let tuples = ann.Processor.tuples in
  let shown = if limit > 0 then List.filteri (fun i _ -> i < limit) tuples
              else tuples in
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

(* JSON rendering, self-validated before printing (the CI schema gate). *)
let explain_json ~schema ~query (plan : Processor.explain)
    (ann : Processor.annotated) completeness (mem : Telemetry.Memory.t) =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let rec node_json (n : Processor.explain_node) =
    add "{\"schema\":";
    add (Microjson.escape n.Processor.en_schema);
    add ",\"object\":";
    add (Microjson.escape (Scheme.to_string n.Processor.en_object));
    add ",\"stored\":";
    add (if n.Processor.en_stored then "true" else "false");
    add ",\"rows\":";
    (match n.Processor.en_rows with
    | Some r -> add (string_of_int r)
    | None -> add "null");
    add ",\"cached\":";
    add
      (match n.Processor.en_cached with
      | Processor.Cache_hit -> "true"
      | Processor.Cache_cold -> "false");
    add ",\"pathways\":[";
    List.iteri
      (fun i (p : Processor.explain_pathway) ->
        if i > 0 then add ",";
        add "{\"from\":";
        add (Microjson.escape p.Processor.ep_from);
        add (Printf.sprintf ",\"steps\":%d" p.Processor.ep_steps);
        (match p.Processor.ep_decision with
        | Processor.Applied children ->
            add ",\"decision\":\"applied\",\"reason\":null,\"children\":[";
            List.iteri
              (fun i c ->
                if i > 0 then add ",";
                node_json c)
              children;
            add "]"
        | Processor.Pruned reason ->
            add ",\"decision\":\"pruned\",\"reason\":";
            add (Microjson.escape reason);
            add ",\"children\":[]"
        | Processor.No_definition reason ->
            add ",\"decision\":\"no-definition\",\"reason\":";
            add (Microjson.escape reason);
            add ",\"children\":[]");
        add "}")
      n.Processor.en_pathways;
    add "]}"
  in
  add "{\"schema\":";
  add (Microjson.escape schema);
  add ",\"query\":";
  add (Microjson.escape query);
  add ",\"optimized\":";
  add (Microjson.escape (Ast.to_string plan.Processor.ex_optimized));
  add ",\"plan\":[";
  List.iteri
    (fun i n ->
      if i > 0 then add ",";
      node_json n)
    plan.Processor.ex_roots;
  add "],\"tuples\":[";
  List.iteri
    (fun i (tp : Processor.annotated_tuple) ->
      if i > 0 then add ",";
      add "{\"value\":";
      add (Microjson.escape (Value.to_string tp.value));
      add (Printf.sprintf ",\"count\":%d,\"lineage\":" tp.count);
      add (Lineage.to_json tp.lineage);
      add ",\"mac\":";
      add (Microjson.escape tp.mac);
      add "}")
    ann.Processor.tuples;
  add "],\"completeness\":";
  (match completeness with
  | None -> add "null"
  | Some (c : Processor.completeness) ->
      add
        (Printf.sprintf "{\"complete\":%b,\"sources_ok\":[%s],\"skipped\":["
           c.Processor.complete
           (String.concat ","
              (List.map Microjson.escape c.Processor.sources_ok)));
      List.iteri
        (fun i (s, reason) ->
          if i > 0 then add ",";
          add
            (Printf.sprintf "{\"source\":%s,\"reason\":%s,\"impact\":%d}"
               (Microjson.escape s) (Microjson.escape reason)
               (Option.value ~default:0
                  (List.assoc_opt s c.Processor.source_impact))))
        c.Processor.sources_skipped;
      add "]}");
  add ",\"stages\":[";
  let spans = Telemetry.Memory.spans mem in
  let t0 =
    List.fold_left
      (fun a (s : Telemetry.Memory.span) -> Float.min a s.start)
      infinity spans
  in
  List.iteri
    (fun i (s : Telemetry.Memory.span) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "{\"id\":%d,\"parent\":%s,\"name\":%s,\"start_ms\":%s,\"dur_ms\":%s}"
           s.id
           (match s.parent with Some p -> string_of_int p | None -> "null")
           (Microjson.escape s.name)
           (Microjson.number ((s.start -. t0) *. 1000.0))
           (Microjson.number (span_ms s))))
    spans;
  add "],\"metrics\":";
  add (Telemetry.Metrics.to_json (Telemetry.Metrics.of_memory mem));
  add "}";
  Buffer.contents b

let explain_json_check doc =
  match Microjson.parse doc with
  | Error e -> Error (Printf.sprintf "emitted JSON does not parse: %s" e)
  | Ok j ->
      let missing =
        List.filter
          (fun k -> Microjson.member k j = None)
          [ "schema"; "query"; "optimized"; "plan"; "tuples";
            "completeness"; "stages"; "metrics" ]
      in
      if missing = [] then Ok ()
      else
        Error
          (Printf.sprintf "emitted JSON lacks member(s): %s"
             (String.concat ", " missing))

let explain_cmd =
  let iql =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"IQL" ~doc:"IQL query text.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the whole story as one JSON object (plan, per-tuple \
             lineage, completeness, stages, metrics), self-validated \
             against the schema before printing.")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Run in degraded mode: skipped sources are reported with the \
             number of answer tuples each could have affected (per-source \
             lineage counts).")
  in
  let faults =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"NAME=RATE"
          ~doc:"Inject deterministic faults (see $(b,query --fault).)")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Print the lineage of at most $(i,N) answer tuples in text \
             mode (0 = all; JSON mode always includes every tuple).")
  in
  let run integrated csv_specs no_resilience fault_seed name text
      faults degrade json limit =
    with_repo ~fault_seed integrated csv_specs no_resilience (fun repo res ->
        match
          let* () =
            match (res, faults) with
            | _, [] -> Ok ()
            | Some r, _ -> apply_faults r faults
            | None, _ :: _ -> Error "--fault requires the resilience layer"
          in
          let* ast = Parser.parse text in
          let proc = Processor.create ?resilience:res repo in
          let mem = Telemetry.Memory.create () in
          let perr r = Result.map_error (Fmt.str "%a" Processor.pp_error) r in
          let* plan, ann, completeness =
            Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
                let* plan =
                  Telemetry.with_span "explain.plan" (fun () ->
                      perr (Processor.explain_plan proc ~schema:name ast))
                in
                if degrade then
                  let* ann, c =
                    Telemetry.with_span "explain.run" (fun () ->
                        perr
                          (Processor.run_degraded_provenance proc ~schema:name
                             ast))
                  in
                  Ok (plan, ann, Some c)
                else
                  let* ann =
                    Telemetry.with_span "explain.run" (fun () ->
                        perr (Processor.run_provenance proc ~schema:name ast))
                  in
                  Ok (plan, ann, None))
          in
          Ok (plan, ann, completeness, mem)
        with
        | Error e -> fail "%s" e
        | Ok (plan, ann, completeness, mem) ->
            if json then (
              let doc =
                explain_json ~schema:name ~query:text plan ann completeness mem
              in
              match explain_json_check doc with
              | Error e -> fail "internal error: %s" e
              | Ok () ->
                  print_endline doc;
                  `Ok ())
            else (
              Printf.printf "== plan ==\n%s\n"
                (Fmt.str "%a" Processor.pp_explain plan);
              Printf.printf "\n== answers ==\n";
              print_tuples limit ann;
              (match completeness with
              | None -> ()
              | Some c ->
                  Printf.printf "\n== completeness ==\n%s\n"
                    (Fmt.str "%a" Processor.pp_completeness c));
              (match res with
              | None -> ()
              | Some r ->
                  Printf.printf "\n== sources ==\n%s\n"
                    (Fmt.str "%a" Resilience.pp_report (Resilience.report r)));
              Printf.printf "\n== waterfall ==\n";
              print_waterfall (Telemetry.Memory.spans mem);
              Printf.printf "\n== metrics ==\n%s"
                (Telemetry.Metrics.to_text (Telemetry.Metrics.of_memory mem));
              `Ok ()))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Tell a query's full plan story: the per-source reformulation \
          tree with every reachability-pruning decision and its reason, \
          cache state, breaker status, a \
          per-stage timing waterfall, and the lineage of every answer \
          tuple (which source extents, pathway hops and trace spans it \
          was derived from, with a tamper-evidence digest).")
    Term.(
      ret
        (const run $ integrated $ csv_specs $ no_resilience
       $ fault_seed $ schema_arg $ iql $ faults $ degrade $ json $ limit))

let case_study_cmd =
  let run () =
    let repo = Repository.create () in
    let ds = Sources.generate () in
    (match Sources.wrap_all repo ds with
    | Ok () -> ()
    | Error e -> prerr_endline e; exit 1);
    match Intersection_run.execute repo with
    | Error e -> `Error (false, e)
    | Ok run ->
        Printf.printf "intersection methodology: %d manual transformations\n"
          run.Intersection_run.total_manual;
        List.iter
          (fun (s : Intersection_run.step) ->
            Printf.printf "  %-48s %3d\n" s.Intersection_run.label
              s.Intersection_run.manual)
          run.Intersection_run.steps;
        let repo2 = Repository.create () in
        (match Sources.wrap_all repo2 ds with
        | Ok () -> ()
        | Error e -> prerr_endline e; exit 1);
        (match Classical_run.execute repo2 with
        | Error e -> prerr_endline e
        | Ok c ->
            Printf.printf
              "classical methodology: %d manual transformations (19+35+41)\n"
              c.Classical_run.total_manual);
        Printf.printf "\nqueries over %s:\n"
          (Workflow.global_name run.Intersection_run.workflow);
        List.iter
          (fun (q : Queries.query) ->
            match
              Workflow.run_query run.Intersection_run.workflow
                q.Queries.global_text
            with
            | Ok (Value.Bag b) ->
                Printf.printf "  Q%d: %d answers\n" q.Queries.number
                  (Value.Bag.cardinal b)
            | Ok _ | Error _ -> Printf.printf "  Q%d: failed\n" q.Queries.number)
          Queries.all;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "case-study"
       ~doc:"Replay the paper's Section 3 case study end to end.")
    Term.(ret (const run $ const ()))

(* -- durable store ------------------------------------------------------- *)

(* The [evolve] subcommand: live schema evolution over the integrated
   dataspace.  Always runs the intersection integration first (evolution
   needs a current global version to repair), then applies — or, with
   --dry-run, previews — one delta. *)

let parse_scheme text =
  match Scheme.of_string text with
  | Ok s -> Ok s
  | Error _ ->
      (* bare names are a convenience for tables: [t] means [<<t>>] *)
      Scheme.of_string (Printf.sprintf "<<%s>>" text)

let parse_delta op args =
  let* () = Ok () in
  match (op, args) with
  | "add-source", [ spec ] -> (
      match String.index_opt spec '=' with
      | None -> Error (Printf.sprintf "add-source expects NAME=DIR, got %S" spec)
      | Some i ->
          let name = String.sub spec 0 i in
          let dir = String.sub spec (i + 1) (String.length spec - i - 1) in
          if not (Sys.file_exists dir && Sys.is_directory dir) then
            Error (Printf.sprintf "not a directory: %s" dir)
          else
            let files =
              Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".csv")
              |> List.sort String.compare
            in
            let* db =
              List.fold_left
                (fun acc file ->
                  let* db = acc in
                  let tname = Filename.remove_extension file in
                  let* table =
                    Csv.load_table_auto ~name:tname
                      (read_file (Filename.concat dir file))
                  in
                  Relational.add_table db table)
                (Ok (Relational.create_db name))
                files
            in
            (* wrap into a scratch repository to reuse the schema
               extraction and extent materialisation, then lift the
               result out as the evolution delta *)
            let scratch = Repository.create () in
            let* schema = Wrapper.wrap scratch db in
            let extents =
              List.filter_map
                (fun o ->
                  Option.map
                    (fun b -> (o, b))
                    (Repository.stored_extent scratch ~schema:name o))
                (Schema.objects schema)
            in
            Ok (Evolution.Add_source (schema, extents)))
  | "drop-source", [ name ] -> Ok (Evolution.Drop_source name)
  | "add-table", [ source; table ] ->
      Ok
        (Evolution.Alter
           (source, [ Repository.Alter_add_object (Scheme.table table, None) ]))
  | "drop-table", [ source; table ] ->
      let* o = parse_scheme table in
      Ok (Evolution.Alter (source, [ Repository.Alter_drop_object o ]))
  | "rename-table", [ source; old_t; new_t ] ->
      Ok
        (Evolution.Alter
           ( source,
             [
               Repository.Alter_rename_object
                 (Scheme.table old_t, Scheme.table new_t);
             ] ))
  | "add-column", [ source; table; column ] ->
      Ok
        (Evolution.Alter
           ( source,
             [ Repository.Alter_add_object (Scheme.column table column, None) ]
           ))
  | "add-column", [ source; table; column; ty_text ] ->
      let* ty = Types.of_string ty_text in
      Ok
        (Evolution.Alter
           ( source,
             [
               Repository.Alter_add_object (Scheme.column table column, Some ty);
             ] ))
  | "drop-column", [ source; table; column ] ->
      Ok
        (Evolution.Alter
           (source, [ Repository.Alter_drop_object (Scheme.column table column) ]))
  | "rename-column", [ source; table; old_c; new_c ] ->
      Ok
        (Evolution.Alter
           ( source,
             [
               Repository.Alter_rename_object
                 (Scheme.column table old_c, Scheme.column table new_c);
             ] ))
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
  let global = Workflow.global_name wf in
  let affected =
    plan.Evolution.pl_objects_dropped
    @ List.map fst plan.Evolution.pl_objects_renamed
  in
  let current = Workflow.global_schema wf in
  List.iter
    (fun o ->
      if Schema.mem o current then
        match Processor.explain_plan proc ~schema:global (Ast.SchemeRef o) with
        | Error _ -> ()
        | Ok ex ->
            List.iter
              (fun node ->
                Printf.printf "%s\n"
                  (Fmt.str "%a" Processor.pp_explain_node node))
              ex.Processor.ex_roots)
    affected;
  List.iter
    (fun o ->
      Printf.printf "  %s: new object, no feeding pathway yet\n"
        (Scheme.to_string o))
    plan.Evolution.pl_objects_added

let evolve_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "The evolution: $(b,add-source) NAME=DIR, $(b,drop-source) NAME, \
             $(b,add-table) SOURCE TABLE, $(b,drop-table) SOURCE TABLE, \
             $(b,rename-table) SOURCE OLD NEW, $(b,add-column) SOURCE TABLE \
             COLUMN [TYPE], $(b,drop-column) SOURCE TABLE COLUMN, \
             $(b,rename-column) SOURCE TABLE OLD NEW.")
  in
  let rest_args =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"Operands.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Preview only: print the repair plan (chain steps, pathway \
             patches and quarantines, cache invalidation) and the current \
             explain-plan decisions for every affected global object, \
             without mutating anything.")
  in
  let run csv_specs no_resilience dry op args =
    with_repo false csv_specs no_resilience (fun repo res ->
        match
          let* run = Result.map_error Fun.id (Intersection_run.execute ?resilience:res repo) in
          let wf = run.Intersection_run.workflow in
          let* delta = parse_delta op args in
          Ok (wf, delta)
        with
        | Error e -> fail "%s" e
        | Ok (wf, delta) ->
            if dry then (
              match Evolution.preview wf delta with
              | Error e -> fail "%s" e
              | Ok plan ->
                  Printf.printf "== plan (dry run) ==\n%s\n"
                    (Fmt.str "%a" Evolution.pp_plan plan);
                  Printf.printf "\n== current feeds of affected objects ==\n";
                  print_impact wf plan;
                  `Ok ())
            else
              match Evolution.evolve wf delta with
              | Error e -> fail "%s" e
              | Ok (ev, plan) ->
                  Printf.printf "evolved %s -> %s\n" ev.Workflow.ev_prev
                    ev.Workflow.ev_next;
                  Printf.printf "%s\n" (Fmt.str "%a" Evolution.pp_plan plan);
                  `Ok ())
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Apply one live schema evolution to the integrated dataspace: \
          add or drop a source, or alter a source's tables and columns.  \
          The global schema is repaired incrementally (a delta-sized \
          chain pathway to the next version; stranded pathways patched or \
          quarantined) — never regenerated from scratch.  With \
          $(b,--dry-run), prints the repair plan and the explain-plan \
          decision reasons for every affected global object instead.")
    Term.(
      ret (const run $ csv_specs $ no_resilience $ dry_run $ op_arg $ rest_args))

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
  let run integrated csv_specs no_resilience dir =
    with_repo integrated csv_specs no_resilience (fun repo _res ->
        let vfs = Vfs.os dir in
        match
          let* d = Durable.attach vfs repo in
          let* () = Durable.snapshot d in
          Ok d
        with
        | Error e -> fail "%s" e
        | Ok _ ->
            Printf.printf "wrote %s/%s (%d schemas, %d pathways)\n" dir
              Durable.checkpoint_file
              (List.length (Repository.schemas repo))
              (List.length (Repository.pathways repo));
            `Ok ())
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Build the repository and write an atomic checksummed checkpoint \
          of it (schemas, pathways, extents) into the store directory, \
          emptying the journal.")
    Term.(
      ret (const run $ integrated $ csv_specs $ no_resilience $ store_dir))

let repo_recover_cmd =
  let run dir =
    match Durable.recover (Vfs.os dir) with
    | Error e -> fail "%s" e
    | Ok (d, report) ->
        print_endline (Fmt.str "%a" Durable.pp_report report);
        Printf.printf "%s\n"
          (Fmt.str "%a" Repository.pp_summary (Durable.repository d));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild the repository from the store's checkpoint plus journal, \
          truncating any torn or corrupt journal tail (reported as a \
          warning).  A corrupt checkpoint is an error, never a silently \
          wrong repository.")
    Term.(ret (const run $ store_dir))

let repo_scrub_cmd =
  let run dir =
    match Durable.scrub (Vfs.os dir) with
    | Error e -> fail "%s" e
    | Ok s ->
        print_endline (Fmt.str "%a" Durable.pp_scrub s);
        let checkpoint_ok =
          s.Durable.checkpoint_status = "absent"
          || String.length s.Durable.checkpoint_status >= 2
             && String.sub s.Durable.checkpoint_status 0 2 = "ok"
        in
        let clean =
          checkpoint_ok
          && (match s.Durable.journal_tail with
             | Journal.Clean -> true
             | Journal.Torn _ | Journal.Corrupt _ -> false)
          && s.Durable.bad_payloads = []
        in
        if clean then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify the store without modifying it: checkpoint checksum, \
          journal record checksums and payload parsability.  Exits 1 when \
          anything is torn, corrupt or unparseable.")
    Term.(ret (const run $ store_dir))

let repo_log_cmd =
  let run dir =
    let vfs = Vfs.os dir in
    match Journal.read vfs ~file:Durable.journal_file with
    | Error e -> fail "%s" e
    | Ok scan ->
        List.iteri
          (fun i (off, payload) ->
            Printf.printf "%4d  @%-8d %s\n" i off (Durable.describe_op payload))
          scan.Journal.records;
        Printf.printf "-- %d records, %d bytes, tail %s\n"
          (List.length scan.Journal.records)
          scan.Journal.total_bytes
          (Fmt.str "%a" Journal.pp_tail scan.Journal.tail);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:
         "List the journal's records (one committed repository mutation \
          each) in replay order.")
    Term.(ret (const run $ store_dir))

let repo_cmd =
  Cmd.group
    (Cmd.info "repo"
       ~doc:
         "Operate on a durable on-disk repository store: write-ahead \
          journal plus checksummed checkpoints.")
    [ repo_snapshot_cmd; repo_recover_cmd; repo_scrub_cmd; repo_log_cmd ]

(* -- observability: metrics catalog and health status -------------------- *)

module Catalog = Automed_observe.Catalog
module Health = Automed_observe.Health
module Maintain = Automed_maintain.Maintain

(* -- health threshold overrides ------------------------------------------ *)

let threshold_names =
  [ "chain-depth"; "quarantined-pathways"; "void-degraded-steps";
    "retired-sources"; "journal-debt"; "breakers-not-closed";
    "cache-invalidation-churn" ]

let parse_threshold spec =
  match String.index_opt spec '=' with
  | None ->
      Error (Printf.sprintf "expected INDICATOR=WARN,CRITICAL, got %S" spec)
  | Some i -> (
      let name = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      if not (List.mem name threshold_names) then
        Error
          (Printf.sprintf "unknown indicator %S (one of: %s)" name
             (String.concat ", " threshold_names))
      else
        match String.split_on_char ',' rest with
        | [ w; c ] -> (
            match (float_of_string_opt w, float_of_string_opt c) with
            | Some warn, Some critical when warn <= critical ->
                Ok (name, warn, critical)
            | Some _, Some _ ->
                Error
                  (Printf.sprintf "%s: warn must not exceed critical" name)
            | _ ->
                Error
                  (Printf.sprintf "%s: WARN and CRITICAL must be numbers" name))
        | _ ->
            Error
              (Printf.sprintf "%s: expected two values WARN,CRITICAL" name))

let threshold_conv =
  let parse s =
    match parse_threshold s with Ok v -> Ok v | Error e -> Error (`Msg e)
  in
  let print ppf (n, w, c) = Format.fprintf ppf "%s=%g,%g" n w c in
  Arg.conv (parse, print)

let thresholds_arg =
  Arg.(
    value
    & opt_all threshold_conv []
    & info [ "threshold" ] ~docv:"INDICATOR=WARN,CRITICAL"
        ~doc:
          "Override one health indicator's thresholds (repeatable).  \
           Indicators: chain-depth, quarantined-pathways, \
           void-degraded-steps, retired-sources, journal-debt, \
           breakers-not-closed, cache-invalidation-churn.")

let apply_thresholds overrides =
  List.fold_left
    (fun (c : Health.config) (name, warn, critical) ->
      let t = { Health.warn; critical } in
      match name with
      | "chain-depth" -> { c with Health.chain_depth = t }
      | "quarantined-pathways" -> { c with Health.quarantined = t }
      | "void-degraded-steps" -> { c with Health.void_degraded = t }
      | "retired-sources" -> { c with Health.retired_sources = t }
      | "journal-debt" -> { c with Health.journal_bytes = t }
      | "breakers-not-closed" -> { c with Health.breakers = t }
      | _ -> { c with Health.cache_churn = t })
    Health.default_config overrides

let metrics_catalog_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the catalog as one JSON object.")
  in
  let run json =
    if json then print_endline (Catalog.to_json ())
    else print_string (Catalog.to_text ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "catalog"
       ~doc:
         "Dump the typed metrics catalog: every counter and histogram \
          name a probe can emit, with its kind, unit and description.")
    Term.(ret (const run $ json))

let ml_files_under dir =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> walk acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.sort compare (walk [] dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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
  let run srcs =
    let srcs = if srcs = [] then [ "lib"; "bin"; "bench" ] else srcs in
    let roots = List.filter Sys.file_exists srcs in
    match List.concat_map ml_files_under roots with
    | [] -> fail "no .ml files found under: %s" (String.concat ", " srcs)
    | files -> (
        let issues =
          Catalog.check (List.map (fun f -> (f, read_file f)) files)
        in
        match issues with
        | [] ->
            Printf.printf
              "metrics catalog clean: %d declarations, %d files scanned\n"
              (List.length Catalog.all) (List.length files);
            `Ok ()
        | _ ->
            List.iter
              (fun i -> Printf.eprintf "%s\n" (Fmt.str "%a" Catalog.pp_issue i))
              issues;
            fail "%d metrics catalog issue(s)" (List.length issues))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Scan source trees for $(b,Telemetry.count)/$(b,Telemetry.observe) \
          probe sites and fail when a site uses an uncatalogued name, a \
          catalogue entry has no emit site left, or a counter name is used \
          as a histogram (or vice versa).")
    Term.(ret (const run $ srcs))

let metrics_cmd =
  Cmd.group
    (Cmd.info "metrics"
       ~doc:
         "The typed metrics catalog: the single source of truth every \
          telemetry probe name must be declared in.")
    [ metrics_catalog_cmd; metrics_check_cmd ]

let status_json report (metrics : Telemetry.Metrics.t) top =
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  (* splice the extra dashboard members into the health report object *)
  let h = Health.to_json report in
  add (String.sub h 0 (String.length h - 1));
  add ",\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then add ",";
      add (Printf.sprintf "%s:%d" (Microjson.escape name) v))
    top;
  add "},\"latency\":{";
  List.iteri
    (fun i (name, (q : Telemetry.Memory.quantiles)) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "%s:{\"p50\":%s,\"p95\":%s,\"p99\":%s}"
           (Microjson.escape name) (Microjson.number q.q50)
           (Microjson.number q.q95) (Microjson.number q.q99)))
    metrics.Telemetry.Metrics.quantiles;
  add "}}";
  Buffer.contents b

let status_json_check doc =
  match Microjson.parse doc with
  | Error e -> Error (Printf.sprintf "emitted JSON does not parse: %s" e)
  | Ok j ->
      let missing =
        List.filter
          (fun k -> Microjson.member k j = None)
          [ "global"; "version"; "overall"; "needs_reintegration";
            "indicators"; "counters"; "latency" ]
      in
      if missing = [] then Ok ()
      else
        Error
          (Printf.sprintf "emitted JSON lacks member(s): %s"
             (String.concat ", " missing))

let status_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the dashboard as one JSON object, self-validated against \
             the schema before printing.")
  in
  let exit_code =
    Arg.(
      value & flag
      & info [ "exit-code" ]
          ~doc:
            "Reflect the overall classification in the exit status: 0 when \
             ok, 1 when any indicator is warn, 2 when any is critical — \
             for CI gates and cron probes.")
  in
  let run fault_seed json exit_code thresholds =
    let config = apply_thresholds thresholds in
    let resilience = Resilience.create ~seed:fault_seed () in
    let repo = Repository.create () in
    let ( let* ) = Result.bind in
    match
      let* durable = Durable.attach (Vfs.memory ()) repo in
      let* () = Sources.wrap_all ~resilience repo (Sources.generate ()) in
      let* run =
        Intersection_run.execute ~resilience repo
      in
      Ok (durable, run.Intersection_run.workflow)
    with
    | Error e -> fail "%s" e
    | Ok (durable, wf) ->
        (* probe workload: the seven case-study queries, under a private
           sink, so the counter and latency panes reflect live behaviour *)
        let mem = Telemetry.Memory.create () in
        Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
            List.iter
              (fun (q : Queries.query) ->
                let t0 = Telemetry.wall_clock () in
                ignore (Workflow.run_query wf q.Queries.global_text);
                Telemetry.observe "status.probe_ms"
                  ((Telemetry.wall_clock () -. t0) *. 1000.0))
              Queries.all);
        let metrics = Telemetry.Metrics.of_memory mem in
        let report = Health.assess ~config ~resilience ~durable ~metrics wf in
        let finish () =
          if not exit_code then `Ok ()
          else
            match report.Health.r_overall with
            | Health.Good -> `Ok ()
            | Health.Warn -> exit 1
            | Health.Critical -> exit 2
        in
        let top =
          List.filteri
            (fun i _ -> i < 10)
            (List.stable_sort
               (fun (_, a) (_, b) -> compare b a)
               metrics.Telemetry.Metrics.counters)
        in
        if json then (
          let doc = status_json report metrics top in
          match status_json_check doc with
          | Error e -> fail "internal error: %s" e
          | Ok () ->
              print_endline doc;
              finish ())
        else (
          print_string (Health.to_text report);
          Printf.printf
            "\ntop counters (probe workload: the 7 case-study queries)\n";
          List.iter
            (fun (n, v) -> Printf.printf "  %-44s %8d\n" n v)
            top;
          Printf.printf "\nlatency percentiles\n";
          List.iter
            (fun (n, (q : Telemetry.Memory.quantiles)) ->
              Printf.printf "  %-36s %-8s p50 %10.3f  p95 %10.3f  p99 %10.3f\n"
                n
                (match Catalog.find n with
                | Some d -> d.Catalog.unit_
                | None -> "")
                q.q50 q.q95 q.q99)
            metrics.Telemetry.Metrics.quantiles;
          finish ())
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "The dataspace health dashboard: builds the integrated iSpider \
          dataspace with the resilience and durability layers wired, runs \
          the seven case-study queries as a probe workload, and reports \
          repair debt (version-chain depth, quarantined pathways, \
          Void-degraded definitions, retired sources, journal bytes, \
          breaker states, cache churn) classified against ok/warn/critical \
          thresholds, plus the top counters and latency percentiles of \
          the probe run.")
    Term.(
      ret
        (const run $ fault_seed $ json $ exit_code $ thresholds_arg))

(* -- autonomic maintenance ----------------------------------------------- *)

(* The deterministic churn script shared with the E-E1/E-M1 benches:
   block [i/5] adds a satellite source, grows and alters a scratch table
   on pedro, then drops the satellite again — each block leaves one
   renamed table and one quarantined pathway behind, so debt accrues at
   a constant rate per block. *)
let maintain_churn_delta i =
  let k = string_of_int (i / 5) in
  match i mod 5 with
  | 0 ->
      let name = "sat" ^ k in
      let table = Scheme.table ("s" ^ k) in
      Result.map
        (fun schema ->
          Evolution.Add_source
            ( schema,
              [ ( table,
                  Value.Bag.of_list
                    [ Value.Str (name ^ "-r1"); Value.Str (name ^ "-r2") ] )
              ] ))
        (Schema.of_objects name [ (table, None) ])
  | 1 ->
      Ok
        (Evolution.Alter
           ( Sources.pedro_name,
             [ Repository.Alter_add_object (Scheme.table ("tmp" ^ k), None) ]
           ))
  | 2 ->
      Ok
        (Evolution.Alter
           ( Sources.pedro_name,
             [
               Repository.Alter_add_object
                 (Scheme.column ("tmp" ^ k) "note", None);
             ] ))
  | 3 ->
      Ok
        (Evolution.Alter
           ( Sources.pedro_name,
             [
               Repository.Alter_drop_object (Scheme.column ("tmp" ^ k) "note");
               Repository.Alter_rename_object
                 (Scheme.table ("tmp" ^ k), Scheme.table ("kept" ^ k));
             ] ))
  | _ -> Ok (Evolution.Drop_source ("sat" ^ k))

(* Build the journaled, resilient iSpider dataspace the maintenance
   commands operate on — the same shape as [status]. *)
let build_live_dataspace ~fault_seed ~fault_rate =
  let policy =
    { Resilience.Policy.default with Resilience.Policy.retries = 6 }
  in
  let resilience = Resilience.create ~seed:fault_seed ~policy () in
  let repo = Repository.create () in
  let ( let* ) = Result.bind in
  let* durable = Durable.attach (Vfs.memory ()) repo in
  let* () = Sources.wrap_all ~resilience repo (Sources.generate ()) in
  let* run =
    Intersection_run.execute ~resilience repo
  in
  if fault_rate > 0.0 then
    Resilience.inject resilience ~source:Sources.pedro_name
      (Resilience.Fault.rate fault_rate);
  Ok (durable, resilience, run.Intersection_run.workflow)

let maintain_cycles default =
  Arg.(
    value & opt int default
    & info [ "cycles" ] ~docv:"N"
        ~doc:
          "Evolution churn cycles to drive against the dataspace (the \
           deterministic 5-phase script the benches use).")

let maintain_fault_rate =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Per-attempt failure probability injected on the pedro source \
           during churn (deterministic under $(b,--fault-seed)).")

let health_summary wf =
  let report = Health.assess wf in
  Printf.sprintf "overall %s, chain depth %.0f links"
    (Health.level_label report.Health.r_overall)
    (match
       List.find_opt
         (fun i -> i.Health.i_name = "chain-depth")
         report.Health.r_indicators
     with
    | Some i -> i.Health.i_value
    | None -> 0.0)

let print_compaction verb (c : Maintain.compaction) =
  Printf.printf
    "%s: composed %d chain links (%d steps) from anchor %s into a \
     %d-step certified shortcut\n" verb c.Maintain.c_links
    c.Maintain.c_steps_before c.Maintain.c_anchor c.Maintain.c_steps_after;
  Printf.printf
    "  replaced link %s; %d contributions rerouted, %d dead ones \
     dropped\n" c.Maintain.c_retired c.Maintain.c_rerouted
    c.Maintain.c_dropped_contributions;
  let cert = c.Maintain.c_certificate in
  Printf.printf
    "  certificate: %d object definitions over %d differential trials%s\n"
    cert.Maintain.Equiv.objects cert.Maintain.Equiv.trials
    (if cert.Maintain.Equiv.reverse_checked then ", reverse checked" else "")

let print_reclamation verb (r : Maintain.reclamation) =
  Printf.printf
    "%s: %d inert quarantined pathway(s) removed, %d retired schema(s) \
     pruned%s\n" verb r.Maintain.rc_pathways_removed
    (List.length r.Maintain.rc_schemas_pruned)
    (match r.Maintain.rc_new_version with
    | Some v -> Printf.sprintf ", re-integrated as %s" v
    | None -> "")

let maintain_cmd =
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "After the churn, report what compaction and reclamation \
             would do (every check and certification runs) without \
             mutating the repository.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Run the churn unmaintained, then a single scheduler tick: \
             shows the debt the tick pays down.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Interleave one scheduler tick after every churn cycle (the \
             default): the autonomic loop that keeps debt below warn.")
  in
  let run fault_seed cycles fault_rate dry_run once watch
      thresholds =
    ignore watch;
    let config = apply_thresholds thresholds in
    let policy = { Maintain.default_policy with Maintain.health = config } in
    match build_live_dataspace ~fault_seed ~fault_rate with
    | Error e -> fail "%s" e
    | Ok (durable, resilience, wf) -> (
        let scheduler = Maintain.Scheduler.create ~policy () in
        let tick () =
          match
            Maintain.Scheduler.tick ~durable ~resilience scheduler wf
          with
          | Error e -> Error e
          | Ok events ->
              print_string (Maintain.Scheduler.report_to_text events);
              Ok ()
        in
        let ( let* ) = Result.bind in
        let outcome =
          let churn i =
            let* delta = maintain_churn_delta i in
            let* _ev, _plan = Evolution.evolve wf delta in
            Ok ()
          in
          let rec cycle i =
            if i >= cycles then Ok ()
            else
              let* () = churn i in
              let* () =
                if dry_run || once then Ok () (* maintenance held back *)
                else tick ()
              in
              cycle (i + 1)
          in
          let* () = cycle 0 in
          if dry_run then (
            Printf.printf "after %d unmaintained cycles: %s\n" cycles
              (health_summary wf);
            let* c = Maintain.compact ~dry_run:true wf in
            (match c with
            | Maintain.Compacted c -> print_compaction "would compact" c
            | Maintain.Nothing_to_do why ->
                Printf.printf "compaction: nothing to do (%s)\n" why
            | Maintain.Refused why ->
                Printf.printf "compaction would be refused: %s\n" why);
            let* r = Maintain.reclaim ~dry_run:true wf in
            print_reclamation "would reclaim" r;
            Ok ())
          else if once then (
            Printf.printf "after %d unmaintained cycles: %s\n" cycles
              (health_summary wf);
            let* () = tick () in
            Printf.printf "after one maintenance tick: %s\n"
              (health_summary wf);
            Ok ())
          else (
            Printf.printf
              "%d churn cycles with a maintenance tick each; %d \
               maintenance action(s) fired\n" cycles
              (List.length (Maintain.Scheduler.events scheduler));
            Printf.printf "final state: %s\n" (health_summary wf);
            Ok ())
        in
        match outcome with
        | Error e -> fail "%s" e
        | Ok () ->
            let report =
              Health.assess ~config ~resilience ~durable wf
            in
            print_string (Health.to_text report);
            (* watch mode is a promise: the scheduler keeps debt below
               warn.  Breaking it is a failure; --dry-run and --once
               exist precisely to *show* accumulated debt, so they
               always exit 0. *)
            if
              (not (dry_run || once))
              && report.Health.r_overall <> Health.Good
            then exit 1;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "maintain"
       ~doc:
         "The autonomic maintenance loop: drives deterministic evolution \
          churn against the integrated iSpider dataspace while the \
          debt-driven scheduler fires certified chain compaction, \
          quarantine reclamation and journal checkpoints with \
          hysteresis.  $(b,--dry-run) previews the actions, $(b,--once) \
          runs a single tick after unmaintained churn, $(b,--watch) \
          (the default) interleaves a tick per cycle.")
    Term.(
      ret
        (const run $ fault_seed $ maintain_cycles 40
       $ maintain_fault_rate $ dry_run $ once $ watch $ thresholds_arg))

let compact_cmd =
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Run every check and certification but leave the repository \
             untouched.")
  in
  let run fault_seed cycles fault_rate dry_run =
    match build_live_dataspace ~fault_seed ~fault_rate with
    | Error e -> fail "%s" e
    | Ok (_durable, _resilience, wf) -> (
        let ( let* ) = Result.bind in
        let outcome =
          let rec churn i =
            if i >= cycles then Ok ()
            else
              let* delta = maintain_churn_delta i in
              let* _ = Evolution.evolve wf delta in
              churn (i + 1)
          in
          let* () = churn 0 in
          let repo = Workflow.repository wf in
          let before =
            Health.effective_chain_depth repo ~root:(Workflow.global_name wf)
          in
          let* result = Maintain.compact ~dry_run wf in
          Ok (repo, before, result)
        in
        match outcome with
        | Error e -> fail "%s" e
        | Ok (repo, before, result) -> (
            match result with
            | Maintain.Compacted c ->
                print_compaction
                  (if dry_run then "would compact" else "compacted")
                  c;
                let after =
                  Health.effective_chain_depth repo
                    ~root:(Workflow.global_name wf)
                in
                Printf.printf "  effective chain depth: %d -> %d links\n"
                  before after;
                `Ok ()
            | Maintain.Nothing_to_do why ->
                Printf.printf "nothing to do: %s\n" why;
                `Ok ()
            | Maintain.Refused why -> fail "compaction refused: %s" why))
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "One-shot certified chain compaction: churns the integrated \
          iSpider dataspace through $(b,--cycles) evolution cycles, then \
          composes the accumulated global version chain into a single \
          certified shortcut pathway (refusing if no equivalence \
          certificate can be produced) and reroutes interior \
          contributions onto the current version.  Every old version \
          keeps answering bit-identically.")
    Term.(
      ret
        (const run $ fault_seed $ maintain_cycles 12
       $ maintain_fault_rate $ dry_run))

let main =
  let doc = "AutoMed-style dataspace integration with intersection schemas" in
  let info = Cmd.info "automed-cli" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ schemas_cmd; show_cmd; query_cmd; reformulate_cmd; match_cmd;
      pathways_cmd; lint_cmd; analyze_cmd; export_cmd; extent_cmd;
      materialize_cmd; trace_cmd; trace_validate_cmd; explain_cmd;
      case_study_cmd; evolve_cmd; repo_cmd; metrics_cmd; status_cmd;
      maintain_cmd; compact_cmd ]

let () = exit (Cmd.eval main)
