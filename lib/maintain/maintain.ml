module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Quarantine = Automed_analysis.Quarantine
module Rewrite = Automed_analysis.Rewrite
module Equiv = Automed_analysis.Equiv
module Processor = Automed_query.Processor
module Workflow = Automed_integration.Workflow
module Global = Automed_integration.Global
module Health = Automed_observe.Health
module Durable = Automed_durable.Durable
module Resilience = Automed_resilience.Resilience
module Telemetry = Automed_telemetry.Telemetry

let ( let* ) = Result.bind
let err fmt = Format.kasprintf (fun s -> Error s) fmt

let label (p : Transform.pathway) =
  Printf.sprintf "%s -> %s" p.from_schema p.to_schema

(* -- chain topology ------------------------------------------------------- *)

(* Same version-name convention as the health observatory: chain links
   are recognised structurally, the repository knows nothing about
   versions. *)
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

(* Links from the current version back to its anchor, oldest first.
   An anchor (integration or reclaimed version) has no incoming link;
   anything other than a linear chain is a malformed repository. *)
let chain_to_anchor repo current =
  let rec go acc name visited =
    if List.mem name visited then
      err "version chain contains a cycle at %s" name
    else
      match chain_links repo name with
      | [] -> Ok (acc, name)
      | [ (link : Transform.pathway) ] ->
          go (link :: acc) link.Transform.from_schema (name :: visited)
      | _ :: _ :: _ ->
          err "version %s has more than one incoming chain link" name
  in
  go [] current []

(* -- chain compaction ----------------------------------------------------- *)

type compaction = {
  c_anchor : string;
  c_retired : string;
  c_links : int;
  c_steps_before : int;
  c_steps_after : int;
  c_rerouted : int;
  c_dropped_contributions : int;
  c_certificate : Equiv.certificate;
}

type compact_result =
  | Compacted of compaction
  | Nothing_to_do of string
  | Refused of string

(* Chain links written by the evolution repairs only ever carry
   [Void]-bounded extends/contracts and renames.  That shape is what
   makes contribution rerouting certifiable: no link step's query can
   read an object a rerouted contribution feeds, so pushing the
   contribution past the link cannot change what the query sees.  A
   link outside the shape is refused wholesale. *)
let safe_link_step = function
  | Transform.Extend (_, Ast.Void, Ast.Any)
  | Transform.Contract (_, Ast.Void, Ast.Any)
  | Transform.Rename _ | Transform.Id _ ->
      true
  | _ -> false

(* Where suffix steps send a target-side object name: renamed along,
   or dropped (contracted/deleted downstream — the object contributes
   nothing to the version the suffix ends at). *)
let translate suffix o =
  List.fold_left
    (fun acc (st : Transform.prim) ->
      match (acc, st) with
      | None, _ -> None
      | Some o, Transform.Rename (a, b) when Scheme.equal a o -> Some b
      | Some o, (Transform.Contract (a, _, _) | Transform.Delete (a, _))
        when Scheme.equal a o ->
          None
      | acc, _ -> acc)
    (Some o) suffix

(* Push a contribution feeding an interior version forward onto the
   current one: rewrite each target-side name through the suffix of
   chain links between them, leaving out what the suffix drops (a source
   object the contribution no longer names is implicitly contracted),
   then certify that the rebuilt pathway, over the part of the source it
   names, derives exactly the definitions the chain would have carried
   (symbolic comparison via [Equiv.defs]).  [Ok None] means the
   contribution is dead on the current version — everything it feeds is
   [Void] or contracted away downstream — and can simply be left
   behind. *)
let push_contribution repo ~suffix ~current (c : Transform.pathway) =
  let defs_of c =
    match Repository.source_of ~contribution:true repo c with
    | Some src -> Equiv.defs src c
    | None ->
        err "contribution source schema %s is not registered"
          c.Transform.from_schema
  in
  let* defs = defs_of c in
  let expected =
    Scheme.Map.fold
      (fun o e acc ->
        if e = Ast.Void then acc
        else
          match translate suffix o with
          | None -> acc
          | Some o' -> Scheme.Map.add o' e acc)
      defs Scheme.Map.empty
  in
  if Scheme.Map.is_empty expected then Ok None
  else
    let steps =
      List.concat_map
        (fun (st : Transform.prim) ->
          match st with
          | Transform.Contract _ | Transform.Delete _ -> [ st ]
          | Transform.Rename (x, o) -> (
              match translate suffix o with
              | Some o' -> [ Transform.Rename (x, o') ]
              | None -> [])
          | Transform.Extend (o, ql, qu) -> (
              match translate suffix o with
              | Some o' -> [ Transform.Extend (o', ql, qu) ]
              | None -> [])
          | Transform.Add (o, q) -> (
              match translate suffix o with
              | Some o' -> [ Transform.Add (o', q) ]
              | None -> [])
          | Transform.Id (x, y) -> (
              match translate suffix y with
              | Some y' -> [ Transform.Id (x, y') ]
              | None -> []))
        c.Transform.steps
    in
    let c' =
      { Transform.from_schema = c.Transform.from_schema;
        to_schema = current; steps }
    in
    let* defs' = defs_of c' in
    let got = Scheme.Map.filter (fun _ e -> e <> Ast.Void) defs' in
    if Scheme.Map.equal Ast.equal expected got then Ok (Some c')
    else
      err
        "rerouting contribution %s changes its derived definitions; \
         compaction refused"
        (label c)

exception Refuse of string
exception Hard of string

let compact ?(dry_run = false) wf =
  let repo = Workflow.repository wf in
  let current = Workflow.global_name wf in
  let refuse fmt = Format.kasprintf (fun s -> raise (Refuse s)) fmt in
  let hard e = raise (Hard e) in
  try
    let links, anchor =
      match chain_to_anchor repo current with
      | Ok v -> v
      | Error e -> hard e
    in
    match links with
    | [] ->
        Ok
          (Nothing_to_do
             (Printf.sprintf "%s is already a chain anchor" current))
    | [ _ ] ->
        Ok
          (Nothing_to_do
             (Printf.sprintf "chain %s -> %s is a single link" anchor current))
    | first :: rest ->
        List.iter
          (fun (l : Transform.pathway) ->
            if not (List.for_all safe_link_step l.Transform.steps) then
              refuse
                "chain link %s carries a non-evolution step; its feeds \
                 cannot be certifiably rerouted"
                (label l))
          links;
        let composed =
          List.fold_left
            (fun p l ->
              match Transform.compose p l with
              | Ok c -> c
              | Error e -> hard e)
            first rest
        in
        let anchor_schema =
          match Repository.schema repo anchor with
          | Some s -> s
          | None ->
              hard (Printf.sprintf "anchor schema %s is not registered" anchor)
        in
        let simplified =
          (Rewrite.simplify anchor_schema composed).Rewrite.pathway
        in
        let cert =
          (* always proof-check, even when the simplifier found nothing
             to do: the composition itself is only trusted certified *)
          match
            Equiv.check anchor_schema ~original:composed ~candidate:simplified
          with
          | Ok c -> c
          | Error reason ->
              Telemetry.count "maintain.compactions_refused";
              raise (Refuse ("shortcut certification failed: " ^ reason))
        in
        let retired_link = List.nth links (List.length links - 1) in
        (* interior feeds: everything into a non-current link target must
           be the chain link itself or a contribution we can push *)
        let rec collect acc = function
          | [] | [ _ ] -> List.rev acc
          | (l : Transform.pathway) :: tail ->
              let v = l.Transform.to_schema in
              let suffix =
                List.concat_map
                  (fun (t : Transform.pathway) -> t.Transform.steps)
                  tail
              in
              let entries =
                List.filter_map
                  (fun (p : Transform.pathway) ->
                    if p = l then None
                    else if Repository.is_contribution repo p then
                      Some (p, suffix)
                    else
                      refuse
                        "interior version %s is fed by non-contribution \
                         pathway %s"
                        v (label p))
                  (Repository.pathways_into repo v)
              in
              collect (List.rev_append entries acc) tail
        in
        let entries = collect [] links in
        let pushed, dropped =
          List.fold_left
            (fun (ok, dead) (c, suffix) ->
              match push_contribution repo ~suffix ~current c with
              | Ok None -> (ok, dead + 1)
              | Ok (Some c') -> (c' :: ok, dead)
              | Error e -> refuse "%s" e)
            ([], 0) entries
        in
        let reroutes = List.rev pushed in
        let report =
          {
            c_anchor = anchor;
            c_retired = label retired_link;
            c_links = List.length links;
            c_steps_before = List.length composed.Transform.steps;
            c_steps_after = List.length simplified.Transform.steps;
            c_rerouted = List.length reroutes;
            c_dropped_contributions = dropped;
            c_certificate = cert;
          }
        in
        if dry_run then Ok (Compacted report)
        else begin
          match
            Repository.compact_chain repo ~retired:retired_link
              ~shortcut:simplified ~reroutes
          with
          | Error e -> hard e
          | Ok () ->
              (* answer-preserving by the certificates, but cached plans
                 may reference the rewired network: start clean *)
              Processor.invalidate (Workflow.processor wf);
              Telemetry.count "maintain.compactions";
              Ok (Compacted report)
        end
  with
  | Refuse r -> Ok (Refused r)
  | Hard e -> Error e

(* -- quarantine / Void reclamation ---------------------------------------- *)

type reclamation = {
  rc_pathways_removed : int;
  rc_schemas_pruned : string list;
  rc_new_version : string option;
}

let reclaim ?(dry_run = false) ?(drop_redundant = true) wf =
  let repo = Workflow.repository wf in
  (* certified removals: provably-inert quarantines of evolved-away
     sources — every definition they derive is the empty [Void]
     contribution, so no answer on any version changes *)
  let victims =
    List.filter
      (fun (p : Transform.pathway) ->
        Repository.retired repo p.Transform.from_schema
        && Quarantine.is_inert repo p)
      (Repository.pathways repo)
  in
  let prunable =
    let removed p = List.exists (fun q -> q = p) victims in
    List.filter
      (fun s ->
        List.for_all
          (fun (p : Transform.pathway) ->
            removed p
            || (p.Transform.from_schema <> s && p.Transform.to_schema <> s))
          (Repository.pathways repo))
      (Repository.retired_sources repo)
  in
  if dry_run then
    Ok
      {
        rc_pathways_removed = List.length victims;
        rc_schemas_pruned = prunable;
        rc_new_version = None;
      }
  else
    let* () =
      List.fold_left
        (fun acc p ->
          let* () = acc in
          let* () = Repository.remove_pathway repo p in
          Telemetry.count "maintain.pathways_reclaimed";
          Ok ())
        (Ok ()) victims
    in
    let* pruned =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          let* () = Repository.remove_schema repo s in
          Ok (s :: acc))
        (Ok []) prunable
    in
    (* targeted re-integration: re-run the stored integration outcomes
       over the live sources.  The new version has no incoming chain
       link — a fresh anchor — so effective chain depth and the
       accumulated surface debt reset without a from-scratch rebuild. *)
    let intersections =
      List.map
        (fun (it : Workflow.iteration) -> it.Workflow.outcome)
        (Workflow.iterations wf)
    in
    let* ev =
      Workflow.evolve_version ~description:"maintenance re-integration" wf
        ~sources_touched:[]
        ~repair:(fun ~prev:_ ~next ->
          let* (_ : Schema.t) =
            Global.create ~drop_redundant repo ~name:next ~intersections
              ~extensionals:(Workflow.sources wf)
          in
          Ok ())
    in
    Processor.invalidate (Workflow.processor wf);
    Telemetry.count "maintain.reclamations";
    Ok
      {
        rc_pathways_removed = List.length victims;
        rc_schemas_pruned = List.rev pruned;
        rc_new_version = Some ev.Workflow.ev_next;
      }

(* -- the debt-driven scheduler -------------------------------------------- *)

type action = Compact | Reclaim | Checkpoint

let action_label = function
  | Compact -> "compact"
  | Reclaim -> "reclaim"
  | Checkpoint -> "checkpoint"

type policy = {
  fire_fraction : float;
  clear_fraction : float;
  reclaim_cooldown : int;
  health : Health.config;
}

let default_policy =
  {
    fire_fraction = 0.85;
    clear_fraction = 0.5;
    reclaim_cooldown = 10;
    health = Health.default_config;
  }

type event = {
  e_tick : int;
  e_action : action;
  e_trigger : string;
  e_outcome : string;
}

module Scheduler = struct
  type t = {
    policy : policy;
    mutable tick_count : int;
    mutable last_reclaim : int;  (* 0 = never *)
    mutable compact_disarmed : string list;
        (* indicators whose last firing has not cleared yet *)
    mutable history : event list;  (* newest first *)
  }

  let create ?(policy = default_policy) () =
    {
      policy;
      tick_count = 0;
      last_reclaim = 0;
      compact_disarmed = [];
      history = [];
    }

  let indicator (report : Health.report) name =
    List.find_opt
      (fun (i : Health.indicator) -> i.Health.i_name = name)
      report.Health.r_indicators

  let value report name =
    match indicator report name with
    | Some i -> i.Health.i_value
    | None -> 0.0

  let warn_of report name =
    match indicator report name with
    | Some i -> i.Health.i_thresholds.Health.warn
    | None -> infinity

  let fires t report name =
    value report name >= t.policy.fire_fraction *. warn_of report name

  let cleared t report name =
    value report name <= t.policy.clear_fraction *. warn_of report name

  let trigger report name =
    Printf.sprintf "%s=%.0f (warn %.0f)" name (value report name)
      (warn_of report name)

  let record t action trig outcome =
    let e =
      { e_tick = t.tick_count; e_action = action; e_trigger = trig;
        e_outcome = outcome }
    in
    t.history <- e :: t.history;
    e

  let tick ?durable ?resilience ?metrics t wf =
    t.tick_count <- t.tick_count + 1;
    Telemetry.count "maintain.scheduler_ticks";
    let report =
      Telemetry.with_span "maintain.assess" @@ fun () ->
      Health.assess ~config:t.policy.health ?resilience ?durable ?metrics wf
    in
    t.compact_disarmed <-
      List.filter (fun n -> not (cleared t report n)) t.compact_disarmed;
    let fired = ref [] in
    let note e = fired := e :: !fired in
    (* compaction first: it is the cheap action, it pays both the
       chain-depth debt and the [Void]-step debt the links carry (the
       interior links leave the active surface), and a refusal escalates
       straight to reclamation below.  Each indicator has its own arming:
       a firing disarms the indicators that fired, each re-arms when it
       clears, so debt compaction cannot pay off does not re-fire it on
       every tick and does not block the other indicator *)
    let firing =
      List.filter (fires t report) [ "chain-depth"; "void-degraded-steps" ]
    in
    let* escalate =
      match
        List.find_opt (fun n -> not (List.mem n t.compact_disarmed)) firing
      with
      | Some ind -> (
        t.compact_disarmed <-
          List.sort_uniq compare (firing @ t.compact_disarmed);
        let trig = trigger report ind in
        let* result =
          Telemetry.with_span "maintain.compact" (fun () -> compact wf)
        in
        match result with
        | Compacted c ->
            note
              (record t Compact trig
                 (Printf.sprintf
                    "composed %d links into %d certified steps (%d \
                     contributions rerouted, %d dead)"
                    c.c_links c.c_steps_after c.c_rerouted
                    c.c_dropped_contributions));
            Ok false
        | Refused reason ->
            note (record t Compact trig ("refused: " ^ reason));
            Ok true
        | Nothing_to_do msg ->
            note (record t Compact trig msg);
            Ok false)
      | None -> Ok false
    in
    let reclaim_trigger =
      if escalate then Some "escalated from refused/ineffective compaction"
      else
        List.find_map
          (fun name ->
            if fires t report name then Some (trigger report name) else None)
          [ "quarantined-pathways"; "retired-sources" ]
    in
    let cooldown_ok =
      t.last_reclaim = 0
      || t.tick_count - t.last_reclaim >= t.policy.reclaim_cooldown
    in
    let* () =
      match reclaim_trigger with
      | Some trig when cooldown_ok ->
          t.last_reclaim <- t.tick_count;
          let* r =
            Telemetry.with_span "maintain.reclaim" (fun () -> reclaim wf)
          in
          note
            (record t Reclaim trig
               (Printf.sprintf
                  "removed %d inert pathways, pruned %d retired schemas, \
                   re-integrated as %s"
                  r.rc_pathways_removed
                  (List.length r.rc_schemas_pruned)
                  (Option.value r.rc_new_version ~default:"(dry-run)")));
          Ok ()
      | _ -> Ok ()
    in
    (* checkpoint last, against the *live* journal size: a compaction or
       reclamation above has already appended its transaction, which the
       report assessed at the top of the tick cannot know about.  No
       armed/cleared hysteresis here — a snapshot resets journal debt to
       zero, so firing on the live value is self-hysteretic, whereas a
       stale-report re-arm check deadlocks once a single cycle appends
       more than [clear_fraction * warn] bytes *)
    let* () =
      match durable with
      | Some d
        when float_of_int (Durable.journal_bytes d)
             >= t.policy.fire_fraction
                *. t.policy.health.Health.journal_bytes.Health.warn ->
          let trig =
            Printf.sprintf "journal-debt=%d (warn %.0f)"
              (Durable.journal_bytes d)
              t.policy.health.Health.journal_bytes.Health.warn
          in
          let* () =
            Telemetry.with_span "maintain.checkpoint" (fun () ->
                Durable.snapshot d)
          in
          Telemetry.count "maintain.checkpoints";
          note (record t Checkpoint trig "journal compacted into checkpoint");
          Ok ()
      | _ -> Ok ()
    in
    Ok (List.rev !fired)

  let events t = List.rev t.history
  let ticks t = t.tick_count

  let report_to_text events =
    String.concat ""
      (List.map
         (fun e ->
           Printf.sprintf "[tick %3d] %-10s %-34s %s\n" e.e_tick
             (action_label e.e_action)
             e.e_trigger e.e_outcome)
         events)
end
