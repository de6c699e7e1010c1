module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Value = Automed_iql.Value
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Quarantine = Automed_analysis.Quarantine
module Processor = Automed_query.Processor
module Resilience = Automed_resilience.Resilience
module Workflow = Automed_integration.Workflow
module Telemetry = Automed_telemetry.Telemetry

let ( let* ) = Result.bind
let err fmt = Format.kasprintf (fun s -> Error s) fmt

type delta =
  | Add_source of Schema.t * (Scheme.t * Value.Bag.t) list
  | Drop_source of string
  | Alter of string * Repository.schema_alter list

type plan = {
  pl_kind : string;
  pl_prev : string;
  pl_next : string;
  pl_sources_touched : string list;
  pl_chain_steps : int;
  pl_new_contributions : int;
  pl_pathways_patched : string list;
  pl_pathways_quarantined : string list;
  pl_objects_added : Scheme.t list;
  pl_objects_dropped : Scheme.t list;
  pl_objects_renamed : (Scheme.t * Scheme.t) list;
}

let pp_plan ppf p =
  Fmt.pf ppf "%s: %s -> %s" p.pl_kind p.pl_prev p.pl_next;
  Fmt.pf ppf "@\n  chain pathway: %d step%s" p.pl_chain_steps
    (if p.pl_chain_steps = 1 then "" else "s");
  if p.pl_new_contributions > 0 then
    Fmt.pf ppf "@\n  new contribution pathway%s: %d"
      (if p.pl_new_contributions = 1 then "" else "s")
      p.pl_new_contributions;
  List.iter
    (fun l -> Fmt.pf ppf "@\n  patch pathway: %s" l)
    p.pl_pathways_patched;
  List.iter
    (fun l -> Fmt.pf ppf "@\n  quarantine pathway: %s" l)
    p.pl_pathways_quarantined;
  List.iter
    (fun o -> Fmt.pf ppf "@\n  + global object %a" Scheme.pp o)
    p.pl_objects_added;
  List.iter
    (fun o -> Fmt.pf ppf "@\n  - global object %a" Scheme.pp o)
    p.pl_objects_dropped;
  List.iter
    (fun (a, b) ->
      Fmt.pf ppf "@\n  ~ global object %a -> %a" Scheme.pp a Scheme.pp b)
    p.pl_objects_renamed;
  Fmt.pf ppf "@\n  cache invalidation: %s"
    (String.concat ", " p.pl_sources_touched)

let label (p : Transform.pathway) =
  Printf.sprintf "%s -> %s" p.from_schema p.to_schema

(* -- modification propagation: patching stranded steps ------------------- *)

let query_refs q =
  let refs = ref [] in
  ignore
    (Ast.subst_schemes
       (fun s ->
         refs := s :: !refs;
         None)
       q);
  !refs

let refs_ok state q =
  List.for_all (fun s -> Schema.mem s state) (query_refs q)

(* Rename [a -> b] substituted into the {e input positions} of a step
   sequence: scheme references inside queries, the consumed slot of
   rename/id, and the subject of delete/contract — never the subject of
   add/extend or the produced slot of rename/id, which name objects the
   pathway introduces on the target side and must keep their names so
   downstream schema versions stay well-defined. *)
let subst_inputs ~from_:a ~to_:b steps =
  let rq q = Ast.rename_scheme ~from_:a ~to_:b q in
  let ro o = if Scheme.equal o a then b else o in
  List.map
    (fun (st : Transform.prim) ->
      match st with
      | Transform.Add (o, q) -> Transform.Add (o, rq q)
      | Transform.Delete (o, q) -> Transform.Delete (ro o, rq q)
      | Transform.Extend (o, ql, qu) -> Transform.Extend (o, rq ql, rq qu)
      | Transform.Contract (o, ql, qu) ->
          Transform.Contract (ro o, rq ql, rq qu)
      | Transform.Rename (x, y) -> Transform.Rename (ro x, y)
      | Transform.Id (x, y) -> Transform.Id (ro x, y))
    steps

(* Tolerant replay of a step sequence against an evolved source schema.
   Every step that no longer works is degraded to the best information-
   preserving repair instead of failing the fold:

   - a definition whose query lost a referenced object falls back to the
     [Void] lower bound (the object survives, its certain answers become
     empty);
   - a step consuming an object the evolution dropped is dropped or
     becomes a [Void]-bounded contract;
   - a rename whose input is gone re-introduces its output as a [Void]
     extend, so target-side names stay defined.

   Returns the kept/repaired steps and the final derived state. *)
let patch_steps src steps =
  let apply state (st : Transform.prim) =
    match Transform.apply_prim state st with
    | Ok state' -> (Some st, state')
    | Error _ -> (None, state)
  in
  let step state (st : Transform.prim) =
    match st with
    | Transform.Add (o, q) ->
        if Schema.mem o state then (None, state)
        else if refs_ok state q then apply state st
        else apply state (Transform.Extend (o, Ast.Void, Ast.Any))
    | Transform.Extend (o, ql, qu) ->
        if Schema.mem o state then (None, state)
        else if
          refs_ok state ql && (qu = Ast.Any || refs_ok state qu)
        then apply state st
        else apply state (Transform.Extend (o, Ast.Void, Ast.Any))
    | Transform.Delete (o, q) ->
        if not (Schema.mem o state) then (None, state)
        else (
          match Transform.apply_prim state st with
          | Ok state' when refs_ok state' q -> (Some st, state')
          | _ -> apply state (Transform.Contract (o, Ast.Void, Ast.Any)))
    | Transform.Contract (o, ql, qu) ->
        if not (Schema.mem o state) then (None, state)
        else (
          match Transform.apply_prim state st with
          | Ok state'
            when (ql = Ast.Void || refs_ok state' ql)
                 && (qu = Ast.Any || refs_ok state' qu) ->
              (Some st, state')
          | _ -> apply state (Transform.Contract (o, Ast.Void, Ast.Any)))
    | Transform.Rename (x, y) ->
        if Schema.mem x state then apply state st
        else if Schema.mem y state then (None, state)
        else apply state (Transform.Extend (y, Ast.Void, Ast.Any))
    | Transform.Id (x, _) ->
        if Schema.mem x state then apply state st else (None, state)
  in
  let kept, final =
    List.fold_left
      (fun (acc, state) st ->
        let st', state' = step state st in
        ((match st' with Some s -> s :: acc | None -> acc), state'))
      ([], src) steps
  in
  (List.rev kept, final)

(* After patching, force agreement with the registered target: contract
   derived objects the target does not know (e.g. an object the
   evolution just added, which only the {e next} version exposes) and —
   for exact pathways — re-extend target objects the patch lost. *)
let reconcile repo ~contribution (p : Transform.pathway) kept final =
  let target = Repository.schema_exn repo p.to_schema in
  let extra =
    List.filter (fun o -> not (Schema.mem o target)) (Schema.objects final)
  in
  let steps =
    kept
    @ List.map (fun o -> Transform.Contract (o, Ast.Void, Ast.Any)) extra
  in
  if contribution then steps
  else
    let derived =
      List.filter (fun o -> not (List.mem o extra)) (Schema.objects final)
    in
    let missing =
      List.filter
        (fun o -> not (List.mem o derived))
        (Schema.objects target)
    in
    steps
    @ List.map (fun o -> Transform.Extend (o, Ast.Void, Ast.Any)) missing

(* A contribution is patched over the part of the evolved source its
   (renamed) steps name, so an object added to the source leaves it
   untouched. *)
let patched_pathway repo ~renames (p : Transform.pathway) =
  let contribution = Repository.is_contribution repo p in
  let steps =
    List.fold_left
      (fun steps (a, b) -> subst_inputs ~from_:a ~to_:b steps)
      p.steps renames
  in
  let src =
    Option.get (Repository.source_of ~contribution repo { p with steps })
  in
  let kept, final = patch_steps src steps in
  let steps = reconcile repo ~contribution p kept final in
  if steps = p.steps then None else Some { p with Transform.steps }

(* Repairs every pathway flowing out of the altered source, replacing
   each through the journaled repository API; a patch the repository
   still rejects (it re-validates well-formedness and endpoint
   agreement) falls back to quarantine, so the network is never left
   with a stranded pathway. *)
let repair_pathways_from repo ~renames source =
  List.fold_left
    (fun acc (p : Transform.pathway) ->
      let* patched = acc in
      match patched_pathway repo ~renames p with
      | None -> Ok patched
      | Some p' -> (
          match Repository.replace_pathway repo ~old:p p' with
          | Ok () ->
              Telemetry.count "evolution.pathways_patched";
              Ok (label p :: patched)
          | Error _ ->
              let* _q = Quarantine.quarantine repo p in
              Ok (label p :: patched)))
    (Ok [])
    (Repository.pathways_from repo source)

(* -- the three evolution operations -------------------------------------- *)

let prefixed_of source g =
  List.filter
    (fun o ->
      match Scheme.unprefix o with
      | Some (s, _) -> s = source
      | None -> false)
    (Schema.objects g)

(* A contribution names only what it exports: every other source
   object is implicitly contracted ([Repository.source_of]). *)
let contribution_steps source ~exported =
  List.map (fun o -> Transform.Rename (o, Scheme.prefix source o)) exported

let register_with_resilience wf name =
  match Processor.resilience (Workflow.processor wf) with
  | Some r -> Resilience.register r name
  | None -> ()

let preview_add_source wf (s : Schema.t) =
  let repo = Workflow.repository wf in
  let name = Schema.name s in
  let* () =
    if Repository.mem_schema repo name then
      err "schema %s is already registered" name
    else Ok ()
  in
  let prev = Workflow.global_name wf in
  Ok
    {
      pl_kind = Printf.sprintf "add source %s" name;
      pl_prev = prev;
      pl_next = Printf.sprintf "%s (v%d)" prev (Workflow.version wf + 1);
      pl_sources_touched = [ name ];
      pl_chain_steps = Schema.object_count s;
      pl_new_contributions = 1;
      pl_pathways_patched = [];
      pl_pathways_quarantined = [];
      pl_objects_added =
        List.map (fun o -> Scheme.prefix name o) (Schema.objects s);
      pl_objects_dropped = [];
      pl_objects_renamed = [];
    }

let evolve_add_source ?description wf (s : Schema.t) ~extents =
  let repo = Workflow.repository wf in
  let name = Schema.name s in
  let* plan = preview_add_source wf s in
  let* ev =
    Workflow.evolve_version
      ~description:
        (Option.value description
           ~default:(Printf.sprintf "add source %s" name))
      wf ~sources_touched:[ name ]
      ~repair:(fun ~prev ~next ->
        let* () = Repository.add_schema repo s in
        let* () =
          List.fold_left
            (fun acc (o, bag) ->
              let* () = acc in
              Repository.set_extent repo ~schema:name o bag)
            (Ok ()) extents
        in
        let chain =
          {
            Transform.from_schema = prev;
            to_schema = next;
            steps =
              List.map
                (fun o ->
                  Transform.Extend
                    (Scheme.prefix name o, Ast.Void, Ast.Any))
                (Schema.objects s);
          }
        in
        let* () = Repository.add_pathway repo chain in
        let contrib =
          {
            Transform.from_schema = name;
            to_schema = next;
            steps = contribution_steps name ~exported:(Schema.objects s);
          }
        in
        let* () = Repository.add_contribution repo contrib in
        register_with_resilience wf name;
        Workflow.note_source_added wf name;
        Ok ())
  in
  Telemetry.count "evolution.sources_added";
  Ok (ev, { plan with pl_next = ev.Workflow.ev_next })

let preview_drop_source wf source =
  let repo = Workflow.repository wf in
  let* () =
    if not (Repository.mem_schema repo source) then
      err "schema %s is not registered" source
    else if Repository.retired repo source then
      err "source %s has already evolved away" source
    else Ok ()
  in
  let prev = Workflow.global_name wf in
  let g = Repository.schema_exn repo prev in
  let doomed = prefixed_of source g in
  let quarantined =
    List.filter_map
      (fun (p : Transform.pathway) ->
        if Quarantine.is_quarantined p then None else Some (label p))
      (Repository.pathways_from repo source)
  in
  Ok
    {
      pl_kind = Printf.sprintf "drop source %s" source;
      pl_prev = prev;
      pl_next = Printf.sprintf "%s (v%d)" prev (Workflow.version wf + 1);
      pl_sources_touched = [ source ];
      pl_chain_steps = List.length doomed;
      pl_new_contributions = 0;
      pl_pathways_patched = [];
      pl_pathways_quarantined = quarantined;
      pl_objects_added = [];
      pl_objects_dropped = doomed;
      pl_objects_renamed = [];
    }

let evolve_drop_source ?description wf source =
  let repo = Workflow.repository wf in
  let* plan = preview_drop_source wf source in
  let* ev =
    Workflow.evolve_version
      ~description:
        (Option.value description
           ~default:(Printf.sprintf "drop source %s" source))
      wf ~sources_touched:[ source ]
      ~repair:(fun ~prev ~next ->
        (* quarantine every data-bearing pathway out of the source, so
           no schema version — old or new — fetches it again *)
        let* () =
          List.fold_left
            (fun acc (p : Transform.pathway) ->
              let* () = acc in
              if Quarantine.is_quarantined p then Ok ()
              else
                let* _q = Quarantine.quarantine repo p in
                Ok ())
            (Ok ())
            (Repository.pathways_from repo source)
        in
        let* () = Repository.retire_source repo source in
        (match Processor.resilience (Workflow.processor wf) with
        | Some r when Resilience.covers r source ->
            Resilience.retire r ~source
        | _ -> ());
        let g = Repository.schema_exn repo prev in
        let chain =
          {
            Transform.from_schema = prev;
            to_schema = next;
            steps =
              List.map
                (fun o -> Transform.Contract (o, Ast.Void, Ast.Any))
                (prefixed_of source g);
          }
        in
        let* () = Repository.add_pathway repo chain in
        Workflow.note_source_dropped wf source;
        Ok ())
  in
  Telemetry.count "evolution.sources_dropped";
  Ok (ev, { plan with pl_next = ev.Workflow.ev_next })

(* The net schema-level effect of an alter batch, tracked over the
   global version's object set (prefixed names) to build the chain, and
   over the source's own names to build the added-objects contribution. *)
let alter_effects repo ~prev source alters =
  let* src0 =
    match Repository.schema repo source with
    | Some s ->
        if Repository.retired repo source then
          err "source %s has evolved away" source
        else Ok s
    | None -> err "schema %s is not registered" source
  in
  let g = Repository.schema_exn repo prev in
  let* _final, added_rev, dropped_rev, renamed_rev =
    List.fold_left
      (fun acc alter ->
        let* src, added, dropped, renamed = acc in
        match (alter : Repository.schema_alter) with
        | Repository.Alter_add_object (o, ty) ->
            let* src' = Schema.add_object ?extent_ty:ty o src in
            Ok (src', o :: added, dropped, renamed)
        | Repository.Alter_drop_object o ->
            let* src' = Schema.remove_object o src in
            let added' = List.filter (fun x -> not (Scheme.equal x o)) added in
            let dropped' =
              if List.exists (Scheme.equal o) added then dropped
              else o :: dropped
            in
            Ok (src', added', dropped', renamed)
        | Repository.Alter_rename_object (a, b) ->
            let* src' = Schema.rename_object a b src in
            if List.exists (Scheme.equal a) added then
              Ok
                ( src',
                  b :: List.filter (fun x -> not (Scheme.equal x a)) added,
                  dropped,
                  renamed )
            else Ok (src', added, dropped, (a, b) :: renamed))
      (Ok (src0, [], [], []))
      alters
  in
  let added = List.rev added_rev
  and dropped = List.rev dropped_rev
  and renamed = List.rev renamed_rev in
  (* chain steps over the previous global version: only objects the
     version actually exposes (redundancy dropping may have removed
     some) produce a step *)
  let p o = Scheme.prefix source o in
  let in_g = ref (Scheme.Set.of_list (Schema.objects g)) in
  let steps =
    List.filter_map
      (fun x -> x)
      (List.map
         (fun o ->
           if Scheme.Set.mem (p o) !in_g then None
           else begin
             in_g := Scheme.Set.add (p o) !in_g;
             Some (Transform.Extend (p o, Ast.Void, Ast.Any))
           end)
         added
      @ List.map
          (fun o ->
            if Scheme.Set.mem (p o) !in_g then begin
              in_g := Scheme.Set.remove (p o) !in_g;
              Some (Transform.Contract (p o, Ast.Void, Ast.Any))
            end
            else None)
          dropped
      @ List.map
          (fun (a, b) ->
            if Scheme.Set.mem (p a) !in_g then begin
              in_g := Scheme.Set.add (p b) (Scheme.Set.remove (p a) !in_g);
              Some (Transform.Rename (p a, p b))
            end
            else None)
          renamed)
  in
  Ok (steps, added, dropped, renamed)

let preview_alter wf source alters =
  let repo = Workflow.repository wf in
  let prev = Workflow.global_name wf in
  let* chain, added, dropped, renamed =
    alter_effects repo ~prev source alters
  in
  let p o = Scheme.prefix source o in
  Ok
    {
      pl_kind = Printf.sprintf "alter source %s" source;
      pl_prev = prev;
      pl_next = Printf.sprintf "%s (v%d)" prev (Workflow.version wf + 1);
      pl_sources_touched = [ source ];
      pl_chain_steps = List.length chain;
      pl_new_contributions = (if added = [] then 0 else 1);
      pl_pathways_patched =
        List.map label (Repository.pathways_from repo source);
      pl_pathways_quarantined = [];
      pl_objects_added = List.map p added;
      pl_objects_dropped = List.map p dropped;
      pl_objects_renamed = List.map (fun (a, b) -> (p a, p b)) renamed;
    }

let evolve_alter ?description wf source alters =
  let repo = Workflow.repository wf in
  let* () =
    if alters = [] then Error "alter batch is empty" else Ok ()
  in
  let* plan = preview_alter wf source alters in
  let patched = ref [] in
  let* ev =
    Workflow.evolve_version
      ~description:
        (Option.value description
           ~default:(Printf.sprintf "alter source %s" source))
      wf ~sources_touched:[ source ]
      ~repair:(fun ~prev ~next ->
        let* chain_steps, added, _dropped, renamed =
          alter_effects repo ~prev source alters
        in
        let* () =
          List.fold_left
            (fun acc alter ->
              let* () = acc in
              Repository.alter_schema repo source alter)
            (Ok ()) alters
        in
        let* labels = repair_pathways_from repo ~renames:renamed source in
        patched := labels;
        let chain =
          { Transform.from_schema = prev; to_schema = next;
            steps = chain_steps }
        in
        let* () = Repository.add_pathway repo chain in
        let* () =
          if added = [] then Ok ()
          else
            Repository.add_contribution repo
              {
                Transform.from_schema = source;
                to_schema = next;
                steps = contribution_steps source ~exported:added;
              }
        in
        Ok ())
  in
  Telemetry.count "evolution.sources_altered";
  Ok
    ( ev,
      {
        plan with
        pl_next = ev.Workflow.ev_next;
        pl_pathways_patched = List.rev !patched;
      } )

(* -- uniform front door --------------------------------------------------- *)

let preview wf = function
  | Add_source (s, _) -> preview_add_source wf s
  | Drop_source s -> preview_drop_source wf s
  | Alter (s, alters) -> preview_alter wf s alters

(* Each applied evolution runs inside an [evolution.evolve] span (kind +
   source attrs, so a trace tells an add from an alter) and lands one
   observation in the [evolution.repair_ms] histogram — the per-repair
   latency distribution that [automed status] and the E-E1 churn bench
   report as percentiles. *)
let delta_attrs = function
  | Add_source (s, _) -> [ ("kind", "add-source"); ("source", Schema.name s) ]
  | Drop_source s -> [ ("kind", "drop-source"); ("source", s) ]
  | Alter (s, alters) ->
      [ ("kind", "alter"); ("source", s);
        ("alters", string_of_int (List.length alters)) ]

let evolve ?description wf delta =
  Telemetry.with_span "evolution.evolve" ~attrs:(fun () -> delta_attrs delta)
  @@ fun () ->
  let t0 = Telemetry.wall_clock () in
  let result =
    match delta with
    | Add_source (s, extents) -> evolve_add_source ?description wf s ~extents
    | Drop_source s -> evolve_drop_source ?description wf s
    | Alter (s, alters) -> evolve_alter ?description wf s alters
  in
  if Telemetry.active () && Result.is_ok result then
    Telemetry.observe "evolution.repair_ms"
      ((Telemetry.wall_clock () -. t0) *. 1000.0);
  result
