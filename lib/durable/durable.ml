module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Telemetry = Automed_telemetry.Telemetry

let ( let* ) = Result.bind

exception Journal_error of string

let journal_file = "journal.wal"
let checkpoint_file = "checkpoint.str"
let checkpoint_tmp = "checkpoint.tmp"

(* [journal_bytes] is tracked rather than read from the store: the
   health observatory and the maintenance tick poll it every cycle, and
   re-reading the whole journal on each poll cost more than the rest of
   the tick. *)
type t = {
  repo : Repository.t;
  vfs : Vfs.t;
  mutable appended : int;
  mutable journal_bytes : int;
}

let repository t = t.repo
let vfs t = t.vfs
let appended t = t.appended
let journal_bytes t = t.journal_bytes

(* the store's view: 0 when the journal is absent or unreadable *)
let stored_journal_bytes (vfs : Vfs.t) =
  match vfs.read journal_file with
  | Ok contents -> String.length contents
  | Error _ -> 0

(* -- checkpoint format --------------------------------------------------- *)

let render_checkpoint repo =
  let body = Serialize.save ~extents:true repo in
  Printf.sprintf "checkpoint v1 len=%d crc32=%s\n" (String.length body)
    (Crc32.to_hex (Crc32.digest body))
  ^ body

let parse_checkpoint contents =
  match String.index_opt contents '\n' with
  | None -> Error "checkpoint: missing header line"
  | Some nl -> (
      let header = String.sub contents 0 nl in
      let body_off = nl + 1 in
      match
        Scanf.sscanf_opt header "checkpoint v1 len=%d crc32=%lx"
          (fun len crc -> (len, crc))
      with
      | None -> Error (Printf.sprintf "checkpoint: bad header %S" header)
      | Some (len, crc) ->
          if String.length contents - body_off <> len then
            Error
              (Printf.sprintf
                 "checkpoint: header declares %d body bytes, file has %d" len
                 (String.length contents - body_off))
          else
            let body = String.sub contents body_off len in
            let actual = Crc32.digest body in
            if actual <> crc then
              Error
                (Printf.sprintf
                   "checkpoint: checksum mismatch (header %s, body %s)"
                   (Crc32.to_hex crc) (Crc32.to_hex actual))
            else Ok body)

(* -- journaling observer ------------------------------------------------- *)

(* spanned as [durable.append], so a traced write path shows the record's
   encoding and append apart from the mutation that notified it *)
let observer t op =
  Telemetry.with_span "durable.append" @@ fun () ->
  let payload = Serialize.save_op op in
  match Journal.append t.vfs ~file:journal_file payload with
  | Ok () ->
      t.appended <- t.appended + 1;
      t.journal_bytes <-
        t.journal_bytes + Journal.header_bytes + String.length payload;
      Telemetry.count "durable.append"
  | Error e ->
      t.journal_bytes <- stored_journal_bytes t.vfs;
      raise (Journal_error (Printf.sprintf "journal append failed: %s" e))

let install t = Repository.set_observer t.repo (Some (observer t))
let detach t = Repository.set_observer t.repo None

let snapshot t =
  detach t;
  Fun.protect ~finally:(fun () -> install t) @@ fun () ->
  let rendered = render_checkpoint t.repo in
  let* () = t.vfs.write checkpoint_tmp rendered in
  let* () = t.vfs.sync checkpoint_tmp in
  let* () = t.vfs.rename ~old_name:checkpoint_tmp ~new_name:checkpoint_file in
  (* the checkpoint is committed; the journal is now redundant *)
  let* () = t.vfs.write journal_file "" in
  t.journal_bytes <- 0;
  let* () = t.vfs.sync journal_file in
  t.appended <- 0;
  Telemetry.count "durable.snapshot";
  Ok ()

let sync t =
  if t.vfs.exists journal_file then t.vfs.sync journal_file else Ok ()

let attach vfs repo =
  if Repository.observed repo then
    Error "repository already has an observer (attached twice?)"
  else begin
    let t =
      { repo; vfs; appended = 0; journal_bytes = stored_journal_bytes vfs }
    in
    install t;
    if (not (vfs.exists checkpoint_file)) && Repository.schemas repo <> []
    then
      let* () = snapshot t in
      Ok t
    else Ok t
  end

(* -- recovery ------------------------------------------------------------ *)

type report = {
  checkpoint_loaded : bool;
  replayed : int;
  truncated_bytes : int;
  warnings : string list;
}

let pp_report ppf r =
  Fmt.pf ppf "checkpoint %s, %d record%s replayed"
    (if r.checkpoint_loaded then "loaded" else "absent")
    r.replayed
    (if r.replayed = 1 then "" else "s");
  if r.truncated_bytes > 0 then
    Fmt.pf ppf ", %d byte%s truncated" r.truncated_bytes
      (if r.truncated_bytes = 1 then "" else "s");
  List.iter (fun w -> Fmt.pf ppf "@.warning: %s" w) r.warnings

let recover vfs =
  let* repo, checkpoint_loaded =
    if Vfs.(vfs.exists) checkpoint_file then
      let* contents = vfs.read checkpoint_file in
      let* body = parse_checkpoint contents in
      let* repo = Serialize.load body in
      Ok (repo, true)
    else Ok (Repository.create (), false)
  in
  let* scan = Journal.read vfs ~file:journal_file in
  (* Replay intact records until one fails to parse or apply; everything
     from the first bad record on is dropped, exactly like a torn tail. *)
  let rec replay n warnings = function
    | [] -> (n, warnings, None)
    | (off, payload) :: rest -> (
        match
          let* op = Serialize.load_op payload in
          Serialize.apply_op repo op
        with
        | Ok () ->
            Telemetry.count "durable.replay";
            replay (n + 1) warnings rest
        | Error e ->
            Telemetry.count "durable.scrub_bad_record";
            ( n,
              Printf.sprintf "record %d (byte %d) dropped: %s" n off e
              :: warnings,
              Some off ))
  in
  let replayed, warnings, bad_at = replay 0 [] scan.records in
  let tail_warnings, keep =
    match (scan.tail, bad_at) with
    | _, Some off ->
        (* an unreplayable record invalidates its suffix too *)
        Telemetry.count ~by:(List.length scan.records - replayed - 1)
          "durable.scrub_bad_record";
        ([], Some off)
    | Journal.Clean, None -> ([], None)
    | (Journal.Torn _ | Journal.Corrupt _), None ->
        Telemetry.count "durable.scrub_bad_record";
        ( [ Fmt.str "journal tail: %a" Journal.pp_tail scan.tail ],
          Some scan.valid_bytes )
  in
  let* truncated_bytes =
    match keep with
    | None -> Ok 0
    | Some keep ->
        let* () = Journal.truncate vfs ~file:journal_file ~keep in
        Ok (scan.total_bytes - keep)
  in
  let t =
    {
      repo;
      vfs;
      appended = replayed;
      journal_bytes = scan.total_bytes - truncated_bytes;
    }
  in
  install t;
  Ok
    ( t,
      {
        checkpoint_loaded;
        replayed;
        truncated_bytes;
        warnings = List.rev warnings @ tail_warnings;
      } )

(* -- scrub --------------------------------------------------------------- *)

type scrub = {
  checkpoint_status : string;
  journal_records : int;
  journal_bytes : int;
  journal_tail : Journal.tail;
  bad_payloads : (int * string) list;
}

let pp_scrub ppf s =
  Fmt.pf ppf "checkpoint: %s@.journal: %d record%s, %d bytes, tail %a"
    s.checkpoint_status s.journal_records
    (if s.journal_records = 1 then "" else "s")
    s.journal_bytes Journal.pp_tail s.journal_tail;
  List.iter
    (fun (i, reason) -> Fmt.pf ppf "@.record %d: %s" i reason)
    s.bad_payloads

let scrub vfs =
  let checkpoint_status =
    if not (Vfs.(vfs.exists) checkpoint_file) then "absent"
    else
      match vfs.read checkpoint_file with
      | Error e -> Printf.sprintf "unreadable (%s)" e
      | Ok contents -> (
          match parse_checkpoint contents with
          | Error e ->
              Telemetry.count "durable.scrub_bad_record";
              e
          | Ok body ->
              Printf.sprintf "ok (%d bytes, crc32 %s)" (String.length body)
                (Crc32.to_hex (Crc32.digest body)))
  in
  let* scan = Journal.read vfs ~file:journal_file in
  (match scan.tail with
  | Journal.Clean -> ()
  | Journal.Torn _ | Journal.Corrupt _ ->
      Telemetry.count "durable.scrub_bad_record");
  let bad_payloads =
    scan.records
    |> List.mapi (fun i (_, payload) ->
           match Serialize.load_op payload with
           | Ok _ -> None
           | Error e ->
               Telemetry.count "durable.scrub_bad_record";
               Some (i, e))
    |> List.filter_map Fun.id
  in
  Ok
    {
      checkpoint_status;
      journal_records = List.length scan.records;
      journal_bytes = scan.total_bytes;
      journal_tail = scan.tail;
      bad_payloads;
    }

let describe_op payload =
  match Serialize.load_op payload with
  | Error e -> Printf.sprintf "unparseable (%s)" e
  | Ok op -> (
      match op with
      | Repository.Op_add_schema s ->
          Printf.sprintf "add schema %s" (Automed_model.Schema.name s)
      | Repository.Op_add_pathway p ->
          Printf.sprintf "add pathway %s -> %s"
            Automed_transform.Transform.(p.from_schema)
            Automed_transform.Transform.(p.to_schema)
      | Repository.Op_replace_pathway (p_old, p_new) ->
          Printf.sprintf "replace pathway %s -> %s (%d -> %d steps)"
            Automed_transform.Transform.(p_old.from_schema)
            Automed_transform.Transform.(p_old.to_schema)
            (List.length Automed_transform.Transform.(p_old.steps))
            (List.length Automed_transform.Transform.(p_new.steps))
      | Repository.Op_set_extent (schema, scheme, bag) ->
          Printf.sprintf "set extent %s %s (%d values)" schema
            (Automed_base.Scheme.to_string scheme)
            (Automed_iql.Value.Bag.cardinal bag)
      | Repository.Op_remove_schema name ->
          Printf.sprintf "remove schema %s" name
      | Repository.Op_rename_schema (old_name, new_name) ->
          Printf.sprintf "rename schema %s -> %s" old_name new_name
      | Repository.Op_add_contribution p ->
          Printf.sprintf "evolve: contribute %s -> %s (%d steps)"
            Automed_transform.Transform.(p.from_schema)
            Automed_transform.Transform.(p.to_schema)
            (List.length Automed_transform.Transform.(p.steps))
      | Repository.Op_alter_schema (name, alter) -> (
          let scheme = Automed_base.Scheme.to_string in
          match alter with
          | Repository.Alter_add_object (o, _) ->
              Printf.sprintf "evolve: alter %s, add object %s" name (scheme o)
          | Repository.Alter_drop_object o ->
              Printf.sprintf "evolve: alter %s, drop object %s" name (scheme o)
          | Repository.Alter_rename_object (a, b) ->
              Printf.sprintf "evolve: alter %s, rename object %s -> %s" name
                (scheme a) (scheme b))
      | Repository.Op_retire_source name ->
          Printf.sprintf "evolve: retire source %s (evolved away)" name
      | Repository.Op_remove_pathway p ->
          Printf.sprintf "maintain: drop inert pathway %s -> %s"
            Automed_transform.Transform.(p.from_schema)
            Automed_transform.Transform.(p.to_schema)
      | Repository.Op_compact_pathway (retired, shortcut, reroutes) ->
          Printf.sprintf
            "maintain: compact chain %s -> %s into %s -> %s (%d -> %d \
             steps, %d contributions rerouted)"
            Automed_transform.Transform.(retired.from_schema)
            Automed_transform.Transform.(retired.to_schema)
            Automed_transform.Transform.(shortcut.from_schema)
            Automed_transform.Transform.(shortcut.to_schema)
            (List.length Automed_transform.Transform.(retired.steps))
            (List.length Automed_transform.Transform.(shortcut.steps))
            (List.length reroutes))
