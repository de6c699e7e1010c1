(* Crash safety of the durable repository: journal framing, checkpoint
   atomicity, fault-injected recovery and the kill-point matrix (a
   simulated crash at every journal record boundary, and inside records,
   must recover to exactly the state the completed ops describe). *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Parser = Automed_iql.Parser
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Processor = Automed_query.Processor
module Intersection = Automed_integration.Intersection
module Workflow = Automed_integration.Workflow
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Resilience = Automed_resilience.Resilience
module Crc32 = Automed_durable.Crc32
module Vfs = Automed_durable.Vfs
module Journal = Automed_durable.Journal
module Durable = Automed_durable.Durable

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error e -> e
let save repo = Serialize.save ~extents:true repo

(* -- CRC32 ---------------------------------------------------------------- *)

let test_crc_known_answer () =
  (* the IEEE 802.3 check value *)
  Alcotest.(check string) "123456789" "cbf43926"
    (Crc32.to_hex (Crc32.digest "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.digest ""));
  (* incremental = one-shot *)
  let half = Crc32.digest "12345" in
  Alcotest.(check string) "incremental" "cbf43926"
    (Crc32.to_hex (Crc32.digest ~crc:half "6789"))

(* The polynomial loop itself, one bit at a time and with no table: the
   reference the slicing-by-8 kernel must agree with. *)
let crc_reference ?(crc = 0l) s =
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* strings of every length mod 8 (the kernel's eight-byte body plus its
   byte-wise tail), a cut point to chain through [~crc], and a seed CRC *)
let qcheck_crc_matches_reference =
  let gen =
    QCheck.Gen.(
      let* words = int_bound 12 and* rem = int_bound 7 in
      let* s = string_size ~gen:char (return ((8 * words) + rem)) in
      let* cut = int_bound (String.length s) and* seed = ui32 in
      return (s, cut, seed))
  in
  let print (s, cut, seed) =
    Printf.sprintf "%S cut %d seed %08lx" s cut seed
  in
  QCheck.Test.make ~name:"crc32 equals the bit-at-a-time reference"
    ~count:500 (QCheck.make ~print gen) (fun (s, cut, seed) ->
      let a = String.sub s 0 cut
      and b = String.sub s cut (String.length s - cut) in
      Crc32.digest s = crc_reference s
      && Crc32.digest ~crc:(Crc32.digest a) b = crc_reference s
      && Crc32.digest ~crc:seed s = crc_reference ~crc:seed s)

(* -- journal framing ------------------------------------------------------ *)

let test_journal_roundtrip () =
  let vfs = Vfs.memory () in
  let payloads = [ "alpha"; ""; "third record\nwith newline"; "\x00\xff" ] in
  List.iter (fun p -> ok (Journal.append vfs ~file:"j" p)) payloads;
  let scan = ok (Journal.read vfs ~file:"j") in
  Alcotest.(check (list string)) "payloads" payloads
    (List.map snd scan.Journal.records);
  (match scan.Journal.tail with
  | Journal.Clean -> ()
  | t -> Alcotest.failf "expected clean tail, got %a" Journal.pp_tail t);
  Alcotest.(check int) "valid covers all" scan.Journal.total_bytes
    scan.Journal.valid_bytes

let test_journal_missing_file () =
  let scan = ok (Journal.read (Vfs.memory ()) ~file:"absent") in
  Alcotest.(check int) "no records" 0 (List.length scan.Journal.records)

let test_journal_torn_and_corrupt () =
  let a = Journal.frame "first" and b = Journal.frame "second" in
  (* torn: the file ends inside the second record *)
  let torn = a ^ String.sub b 0 (String.length b - 3) in
  let scan = Journal.scan torn in
  Alcotest.(check (list string)) "prefix survives" [ "first" ]
    (List.map snd scan.Journal.records);
  (match scan.Journal.tail with
  | Journal.Torn { offset; _ } ->
      Alcotest.(check int) "torn at boundary" (String.length a) offset
  | t -> Alcotest.failf "expected torn, got %a" Journal.pp_tail t);
  Alcotest.(check int) "valid_bytes stops at boundary" (String.length a)
    scan.Journal.valid_bytes;
  (* corrupt: one flipped bit in the second payload *)
  let both = Bytes.of_string (a ^ b) in
  let i = String.length a + Journal.header_bytes in
  Bytes.set both i (Char.chr (Char.code (Bytes.get both i) lxor 0x10));
  let scan = Journal.scan (Bytes.to_string both) in
  Alcotest.(check (list string)) "prefix survives corruption" [ "first" ]
    (List.map snd scan.Journal.records);
  match scan.Journal.tail with
  | Journal.Corrupt _ -> ()
  | t -> Alcotest.failf "expected corrupt, got %a" Journal.pp_tail t

(* -- a scripted mixed-op scenario ----------------------------------------- *)

(* Each closure performs exactly one journaled mutation, covering all
   five op constructors (including hostile names and string values that
   exercise the serialisation escapes). *)
let scripted_ops repo =
  let add name objs =
    ok (Repository.add_schema repo (ok (Schema.of_objects name objs)))
  in
  [
    (fun () ->
      add "src" [ (Scheme.table "t", None); (Scheme.column "t" "c", None) ]);
    (fun () ->
      ok
        (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
           (Value.Bag.of_list
              [ Value.Str "it's\na\t'quoted' \\ value"; Value.Str "plain" ])));
    (fun () ->
      ok
        (Repository.set_extent repo ~schema:"src" (Scheme.column "t" "c")
           (Value.Bag.of_list
              [ Value.tuple2 (Value.Str "a") (Value.Int 1);
                Value.tuple2 (Value.Str "b") (Value.Int 2) ])));
    (fun () ->
      ok
        (Repository.add_pathway repo
           {
             Transform.from_schema = "src";
             to_schema = "derived";
             steps =
               [
                 Transform.Add
                   (Scheme.table "tagged",
                    Parser.parse_exn "[{'S', k} | k <- <<t>>]");
               ];
           }));
    (fun () -> add "we\"ird\\nam\ne" [ (Scheme.table "wt", None) ]);
    (fun () ->
      ok
        (Repository.set_extent repo ~schema:"we\"ird\\nam\ne"
           (Scheme.table "wt")
           (Value.Bag.of_list [ Value.Str "w1" ])));
    (fun () -> add "lone" [ (Scheme.table "lt", None) ]);
    (fun () -> ok (Repository.rename_schema repo "we\"ird\\nam\ne" "tamed"));
    (fun () -> ok (Repository.remove_schema repo "lone"));
    (fun () ->
      ok
        (Repository.set_extent repo ~schema:"tamed" (Scheme.table "wt")
           (Value.Bag.of_list [ Value.Str "w1"; Value.Str "w2" ])));
    (* the evolution ops: contributions, in-place alters, retirement *)
    (fun () ->
      ok
        (Repository.add_contribution repo
           {
             Transform.from_schema = "tamed";
             to_schema = "derived";
             steps =
               [ Transform.Rename (Scheme.table "wt", Scheme.table "tagged") ];
           }));
    (fun () ->
      ok
        (Repository.alter_schema repo "tamed"
           (Repository.Alter_add_object (Scheme.table "extra", None))));
    (fun () ->
      ok
        (Repository.alter_schema repo "tamed"
           (Repository.Alter_add_object
              ( Scheme.column "wt" "c",
                Some
                  (Automed_iql.Types.TBag
                     (Automed_iql.Types.TTuple
                        [ Automed_iql.Types.TStr; Automed_iql.Types.TInt ])) ))));
    (fun () ->
      ok
        (Repository.alter_schema repo "tamed"
           (Repository.Alter_rename_object
              (Scheme.table "extra", Scheme.table "extra2"))));
    (fun () ->
      ok
        (Repository.alter_schema repo "tamed"
           (Repository.Alter_drop_object (Scheme.column "wt" "c"))));
    (fun () -> ok (Repository.retire_source repo "src"));
  ]

(* Runs the script with a durable handle on a fresh memory store.
   Returns the vfs, the journal contents, the scan, and the serialised
   repository state after each prefix of ops (states.(k) = state once
   the first k ops committed). *)
let scripted_run () =
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  let d = ok (Durable.attach vfs repo) in
  let states = ref [ save repo ] in
  List.iter
    (fun op ->
      op ();
      states := save repo :: !states)
    (scripted_ops repo);
  let journal = ok (Vfs.(vfs.read) Durable.journal_file) in
  let scan = Journal.scan journal in
  Alcotest.(check int) "one record per op" (List.length (scripted_ops (Repository.create ())))
    (Durable.appended d);
  (vfs, journal, scan, Array.of_list (List.rev !states))

let recover_journal_bytes bytes =
  let store = Vfs.memory () in
  ok (Vfs.(store.write) Durable.journal_file bytes);
  ok (Durable.recover store)

(* -- the kill-point matrix ------------------------------------------------ *)

let test_killpoint_matrix () =
  let _vfs, journal, scan, states = scripted_run () in
  let boundaries =
    List.map fst scan.Journal.records @ [ String.length journal ]
  in
  (* a crash at every record boundary: recovery must rebuild exactly the
     state after the ops whose records are complete, bit-identically *)
  List.iteri
    (fun k cut ->
      let d, report = recover_journal_bytes (String.sub journal 0 cut) in
      Alcotest.(check int)
        (Printf.sprintf "boundary %d replays %d" k k)
        k report.Durable.replayed;
      Alcotest.(check int)
        (Printf.sprintf "boundary %d drops nothing" k)
        0 report.Durable.truncated_bytes;
      Alcotest.(check string)
        (Printf.sprintf "boundary %d state bit-identical" k)
        states.(k)
        (save (Durable.repository d)))
    boundaries;
  (* a crash inside every record: recovery truncates the torn tail and
     lands on the preceding boundary's state *)
  List.iteri
    (fun k (off, payload) ->
      List.iter
        (fun cut ->
          let d, report = recover_journal_bytes (String.sub journal 0 cut) in
          Alcotest.(check int)
            (Printf.sprintf "mid-record %d replays %d" k k)
            k report.Durable.replayed;
          Alcotest.(check bool)
            (Printf.sprintf "mid-record %d warns" k)
            true
            (report.Durable.truncated_bytes > 0
            && report.Durable.warnings <> []);
          Alcotest.(check string)
            (Printf.sprintf "mid-record %d state bit-identical" k)
            states.(k)
            (save (Durable.repository d)))
        [
          off + 3; (* inside the length/crc header *)
          off + Journal.header_bytes + (String.length payload / 2);
        ])
    scan.Journal.records

(* -- a live crash through the kill-point harness -------------------------- *)

let test_live_crash_recovery () =
  let _vfs, journal, scan, states = scripted_run () in
  (* rerun the script on a crashable store, arming the write budget to
     die 3 bytes into each record in turn *)
  List.iteri
    (fun k (off, _) ->
      let inner = Vfs.memory () in
      let vfs, arm = Vfs.crashable inner in
      let repo = Repository.create () in
      let _d = ok (Durable.attach vfs repo) in
      arm (Some (off + 3));
      (try List.iter (fun op -> op ()) (scripted_ops repo)
       with Vfs.Crash _ -> ());
      arm None;
      (* a new handle recovers from what physically reached "disk" *)
      Repository.set_observer repo None;
      let d, report = ok (Durable.recover inner) in
      Alcotest.(check int)
        (Printf.sprintf "crash in record %d replays %d" k k)
        k report.Durable.replayed;
      Alcotest.(check string)
        (Printf.sprintf "crash in record %d state" k)
        states.(k)
        (save (Durable.repository d)))
    scan.Journal.records;
  ignore journal

(* -- bit flips and scrub -------------------------------------------------- *)

let test_bit_flip_detected () =
  let _vfs, journal, scan, states = scripted_run () in
  let n = List.length scan.Journal.records in
  (* flip one payload bit in the middle record: recovery must keep the
     prefix, truncate from the flipped record on, and warn - never load
     a silently wrong repository *)
  let k = n / 2 in
  let off, payload = List.nth scan.Journal.records k in
  let corrupted = Bytes.of_string journal in
  let i = off + Journal.header_bytes + (String.length payload / 3) in
  Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
  let d, report = recover_journal_bytes (Bytes.to_string corrupted) in
  Alcotest.(check int) "prefix replayed" k report.Durable.replayed;
  Alcotest.(check bool) "warned" true (report.Durable.warnings <> []);
  Alcotest.(check bool) "truncated" true (report.Durable.truncated_bytes > 0);
  Alcotest.(check string) "prefix state" states.(k)
    (save (Durable.repository d));
  (* scrub sees the same corruption without touching the store *)
  let store = Vfs.memory () in
  ok (Vfs.(store.write) Durable.journal_file (Bytes.to_string corrupted));
  let s = ok (Durable.scrub store) in
  (match s.Durable.journal_tail with
  | Journal.Corrupt _ -> ()
  | t -> Alcotest.failf "scrub should report corrupt, got %a" Journal.pp_tail t);
  Alcotest.(check int) "scrub leaves bytes alone"
    (String.length journal)
    (String.length (ok (Vfs.(store.read) Durable.journal_file)))

let test_recovery_truncates_then_clean () =
  let _vfs, journal, scan, _states = scripted_run () in
  let off, payload = List.nth scan.Journal.records 2 in
  let cut = off + Journal.header_bytes + (String.length payload / 2) in
  let store = Vfs.memory () in
  ok (Vfs.(store.write) Durable.journal_file (String.sub journal 0 cut));
  let d, report = ok (Durable.recover store) in
  Alcotest.(check bool) "first recovery warns" true
    (report.Durable.warnings <> []);
  Durable.detach d;
  (* the torn tail is gone from disk: a second recovery is clean *)
  let _d, report = ok (Durable.recover store) in
  Alcotest.(check (list string)) "second recovery clean" []
    report.Durable.warnings;
  Alcotest.(check int) "journal truncated to boundary" off
    (String.length (ok (Vfs.(store.read) Durable.journal_file)))

(* -- checkpoints ---------------------------------------------------------- *)

let scripted_store_with_checkpoint () =
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  let d = ok (Durable.attach vfs repo) in
  let ops = scripted_ops repo in
  List.iteri (fun i op -> if i < 5 then op ()) ops;
  ok (Durable.snapshot d);
  List.iteri (fun i op -> if i >= 5 then op ()) ops;
  (vfs, repo, d)

let test_snapshot_then_more_ops () =
  let vfs, repo, d = scripted_store_with_checkpoint () in
  let post = List.length (scripted_ops (Repository.create ())) - 5 in
  Alcotest.(check int) "journal holds only post-snapshot ops" post
    (Durable.appended d);
  Durable.detach d;
  let d', report = ok (Durable.recover vfs) in
  Alcotest.(check bool) "checkpoint used" true report.Durable.checkpoint_loaded;
  Alcotest.(check int) "journal replayed on top" post report.Durable.replayed;
  Alcotest.(check string) "state bit-identical" (save repo)
    (save (Durable.repository d'))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_corrupt_checkpoint_is_hard_error () =
  let vfs, _repo, d = scripted_store_with_checkpoint () in
  Durable.detach d;
  let contents = ok (Vfs.(vfs.read) Durable.checkpoint_file) in
  let corrupted = Bytes.of_string contents in
  let i = String.length contents / 2 in
  Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x01));
  ok (Vfs.(vfs.write) Durable.checkpoint_file (Bytes.to_string corrupted));
  let e = err (Durable.recover vfs) in
  Alcotest.(check bool) "error mentions the checkpoint" true
    (contains ~sub:"checkpoint" e)

let test_failed_rename_keeps_old_checkpoint () =
  let disk =
    Resilience.Disk.create
      { Resilience.Disk.none with Resilience.Disk.fail_rename = true }
  in
  let inner = Vfs.memory () in
  let repo = Repository.create () in
  let d = ok (Durable.attach inner repo) in
  List.iteri (fun i op -> if i < 5 then op ()) (scripted_ops repo);
  ok (Durable.snapshot d);
  let good_checkpoint = ok (Vfs.(inner.read) Durable.checkpoint_file) in
  List.iteri (fun i op -> if i >= 5 then op ()) (scripted_ops repo);
  let journal_before = ok (Vfs.(inner.read) Durable.journal_file) in
  (* route the next snapshot through the failing-rename injector: the
     commit must fail without damaging the previous checkpoint or the
     journal *)
  Durable.detach d;
  let faulty = Vfs.with_faults disk inner in
  let d2 = ok (Durable.attach faulty repo) in
  ignore (err (Durable.snapshot d2));
  Alcotest.(check string) "old checkpoint intact" good_checkpoint
    (ok (Vfs.(inner.read) Durable.checkpoint_file));
  Alcotest.(check string) "journal intact" journal_before
    (ok (Vfs.(inner.read) Durable.journal_file));
  (* recovery from the unrenamed store still reaches the current state *)
  Durable.detach d2;
  let d3, _ = ok (Durable.recover inner) in
  Alcotest.(check string) "recoverable state unchanged" (save repo)
    (save (Durable.repository d3))

(* -- attach semantics ----------------------------------------------------- *)

let test_attach_nonempty_snapshots () =
  (* attaching to a repository that already has content must checkpoint
     it immediately: the store is self-contained from the first attach *)
  let repo = Repository.create () in
  List.iter (fun op -> op ()) (scripted_ops repo);
  let vfs = Vfs.memory () in
  let d = ok (Durable.attach vfs repo) in
  Alcotest.(check bool) "checkpoint written" true
    (Vfs.(vfs.exists) Durable.checkpoint_file);
  Durable.detach d;
  let d', report = ok (Durable.recover vfs) in
  Alcotest.(check bool) "loaded from checkpoint" true
    report.Durable.checkpoint_loaded;
  Alcotest.(check string) "state preserved" (save repo)
    (save (Durable.repository d'))

let test_attach_twice_rejected () =
  let repo = Repository.create () in
  let _d = ok (Durable.attach (Vfs.memory ()) repo) in
  ignore (err (Durable.attach (Vfs.memory ()) repo))

(* -- workflow integration ------------------------------------------------- *)

let two_sources repo =
  let add name objs =
    ok (Repository.add_schema repo (ok (Schema.of_objects name objs)))
  in
  add "lib1" [ (Scheme.table "book", None) ];
  add "lib2" [ (Scheme.table "volume", None) ];
  let set s o vs =
    ok
      (Repository.set_extent repo ~schema:s o
         (Value.Bag.of_list (List.map (fun x -> Value.Str x) vs)))
  in
  set "lib1" (Scheme.table "book") [ "b1"; "b2" ];
  set "lib2" (Scheme.table "volume") [ "v1"; "v2"; "v3" ]

let ubook_spec =
  let q = Parser.parse_exn in
  let side schema table tag =
    {
      Intersection.schema;
      mappings =
        [
          { Intersection.target = Scheme.table "UBook";
            forward = q (Printf.sprintf "[{'%s', k} | k <- <<%s>>]" tag table);
            restore = None };
        ];
    }
  in
  {
    Intersection.name = "i_book";
    sides = [ side "lib1" "book" "L1"; side "lib2" "volume" "L2" ];
  }

let test_workflow_journals_and_recovers () =
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  two_sources repo;
  let d = ok (Durable.attach vfs repo) in
  let wf = ok (Workflow.start ~durable:d repo ~name:"demo" ~sources:[ "lib1"; "lib2" ]) in
  let _it = ok (Workflow.integrate wf ubook_spec) in
  (* kill the process: all that survives is the store *)
  Durable.detach d;
  let d', report = ok (Durable.recover vfs) in
  Alcotest.(check bool) "something replayed or checkpointed" true
    (report.Durable.replayed > 0 || report.Durable.checkpoint_loaded);
  Alcotest.(check string) "workflow state survives" (save repo)
    (save (Durable.repository d'));
  let proc = Processor.create (Durable.repository d') in
  match Processor.run_string proc ~schema:"demo_v1" "count(<<UBook>>)" with
  | Ok v -> Alcotest.(check string) "queries run after recovery" "5" (Value.to_string v)
  | Error e -> Alcotest.failf "%a" Processor.pp_error e

let test_workflow_rejects_foreign_durable () =
  let repo = Repository.create () in
  two_sources repo;
  let other = Repository.create () in
  let d = ok (Durable.attach (Vfs.memory ()) other) in
  ignore
    (err (Workflow.start ~durable:d repo ~name:"demo" ~sources:[ "lib1" ]))

(* -- the full iSpider run ------------------------------------------------- *)

let test_ispider_recovery_end_to_end () =
  (* the 7-query case study (scale 10 for speed): journal the whole
     integration, recover from the journal alone, and answer all seven
     priority queries identically to the uncrashed repository *)
  let ds = Sources.generate ~scale:10 () in
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  let _d = ok (Durable.attach vfs repo) in
  ok (Sources.wrap_all repo ds);
  let run = ok (Intersection_run.execute repo) in
  let global = Workflow.global_name run.Intersection_run.workflow in
  let journal = ok (Vfs.(vfs.read) Durable.journal_file) in
  let d', report = recover_journal_bytes journal in
  Alcotest.(check int) "every op replayed"
    (List.length (Journal.scan journal).Journal.records)
    report.Durable.replayed;
  Alcotest.(check string) "bit-identical store" (save repo)
    (save (Durable.repository d'));
  let proc = Processor.create repo in
  let proc' = Processor.create (Durable.repository d') in
  List.iter
    (fun (q : Queries.query) ->
      match
        ( Processor.run_string proc ~schema:global q.Queries.global_text,
          Processor.run_string proc' ~schema:global q.Queries.global_text )
      with
      | Ok a, Ok b ->
          Alcotest.(check bool)
            (Printf.sprintf "query %d identical" q.Queries.number)
            true (Value.equal a b)
      | _ -> Alcotest.failf "query %d failed" q.Queries.number)
    Queries.all

(* -- the tracked journal size ---------------------------------------------- *)

let check_journal_bytes what d =
  let vfs = Durable.vfs d in
  Alcotest.(check int) what
    (ok (Journal.read vfs ~file:Durable.journal_file)).Journal.total_bytes
    (Durable.journal_bytes d)

let test_journal_bytes_tracks_store () =
  let vfs, _journal, _scan, _states = scripted_run () in
  (* an empty repository attached to a store that holds a journal *)
  let d = ok (Durable.attach vfs (Repository.create ())) in
  check_journal_bytes "attach to an existing journal" d;
  Alcotest.(check bool) "the journal is not empty" true
    (Durable.journal_bytes d > 0);
  Durable.detach d;
  let repo = Repository.create () in
  let d = ok (Durable.attach (Vfs.memory ()) repo) in
  List.iter
    (fun op ->
      op ();
      check_journal_bytes "after each append" d)
    (scripted_ops repo);
  ok (Durable.snapshot d);
  check_journal_bytes "after snapshot" d;
  Alcotest.(check int) "snapshot empties the journal" 0
    (Durable.journal_bytes d)

let test_journal_bytes_after_recover () =
  let _vfs, journal, scan, _states = scripted_run () in
  (* a torn tail, truncated away *)
  let off, payload = List.nth scan.Journal.records 2 in
  let cut = off + Journal.header_bytes + (String.length payload / 2) in
  let d, report = recover_journal_bytes (String.sub journal 0 cut) in
  Alcotest.(check bool) "torn tail truncated" true
    (report.Durable.truncated_bytes > 0);
  check_journal_bytes "after truncating a torn tail" d;
  (* an intact record whose payload is no operation, dropped with its
     suffix *)
  let store = Vfs.memory () in
  ok (Vfs.(store.write) Durable.journal_file journal);
  ok (Journal.append store ~file:Durable.journal_file "not an operation");
  ok (Journal.append store ~file:Durable.journal_file "nor this");
  let d, report = ok (Durable.recover store) in
  Alcotest.(check bool) "unreplayable record dropped" true
    (report.Durable.truncated_bytes > 0);
  check_journal_bytes "after dropping an unreplayable record" d;
  Alcotest.(check int) "back to the intact journal" (String.length journal)
    (Durable.journal_bytes d)

let test_journal_bytes_after_failed_append () =
  (* an append that stores a torn prefix and then reports failure, like
     a write that runs out of space part-way *)
  let inner = Vfs.memory () in
  let failing = ref false in
  let vfs =
    {
      inner with
      Vfs.append =
        (fun name data ->
          if !failing then begin
            ignore (inner.Vfs.append name (String.sub data 0 5));
            Error "injected append failure"
          end
          else inner.Vfs.append name data);
    }
  in
  let repo = Repository.create () in
  let d = ok (Durable.attach vfs repo) in
  let ops = scripted_ops repo in
  List.iteri (fun i op -> if i < 3 then op ()) ops;
  failing := true;
  (match (List.nth ops 3) () with
  | () -> Alcotest.fail "the append should have failed"
  | exception Durable.Journal_error _ -> ());
  check_journal_bytes "after a failed append" d

(* -- telemetry ------------------------------------------------------------ *)

let test_telemetry_counters () =
  let module Telemetry = Automed_telemetry.Telemetry in
  let mem = Telemetry.Memory.create () in
  Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
      let _vfs, journal, scan, _states = scripted_run () in
      let n = List.length scan.Journal.records in
      Alcotest.(check int) "durable.append counts every record" n
        (Telemetry.Memory.counter mem "durable.append");
      let off, payload = List.nth scan.Journal.records (n - 1) in
      let cut = off + Journal.header_bytes + (String.length payload / 2) in
      let _ = recover_journal_bytes (String.sub journal 0 cut) in
      Alcotest.(check int) "durable.replay counts the prefix" (n - 1)
        (Telemetry.Memory.counter mem "durable.replay");
      Alcotest.(check bool) "scrub_bad_record fired" true
        (Telemetry.Memory.counter mem "durable.scrub_bad_record" > 0))

(* -- pinned store bytes ------------------------------------------------------ *)

(* Every byte the durable store is handed, pinned: iSpider integrated at a
   fixed seed and scale, then a fixed delta script (add source, alter by
   adding, renaming and dropping objects, drop source) with a maintenance
   tick after each delta, enough to compact, reclaim and checkpoint.  Each
   write and append is logged as its kind, file name and the MD5 of its
   data, in one log for the set-up (wrapping and integration) and one for
   the churn; the digests of those logs, and of the final
   [Serialize.save ~extents:true], must not move.  A printer change that
   moves one separator in anything this run stores fails here: existing
   stores must keep recovering byte for byte.  test_printers.ml covers
   the IQL constructs the case study's pathways do not use. *)

module Evolution = Automed_evolution.Evolution
module Maintain = Automed_maintain.Maintain
module Types = Automed_iql.Types

let pinned_delta i =
  let k = string_of_int (i / 5) in
  match i mod 5 with
  | 0 ->
      (* extents with escapes, signed and integral floats, tuples and a
         repeated row (multiplicity 2) *)
      let name = "sat" ^ k in
      let table = Scheme.table ("s" ^ k) in
      let column = Scheme.column ("s" ^ k) "w" in
      let schema =
        ok
          (Schema.of_objects name
             [ (table, None);
               (column, Some (Types.tuple_row [ Types.TStr; Types.TFloat ])) ])
      in
      let rows =
        Value.Bag.of_list
          [ Value.Str (name ^ "-r1"); Value.Str "it's \"q\"\n\\ \t";
            Value.Str (name ^ "-r1") ]
      and weights =
        Value.Bag.of_list
          [ Value.tuple2 (Value.Str (name ^ "-r1")) (Value.Float (-2.5));
            Value.tuple2 (Value.Str "it's \"q\"\n\\ \t") (Value.Float 3.0);
            Value.tuple2 (Value.Str "z") (Value.Float 1e-7) ]
      in
      Evolution.Add_source (schema, [ (table, rows); (column, weights) ])
  | 1 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [ Repository.Alter_add_object (Scheme.table ("tmp" ^ k), None) ] )
  | 2 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [
            Repository.Alter_add_object
              ( Scheme.column ("tmp" ^ k) "note",
                Some (Types.tuple_row [ Types.TStr; Types.TInt ]) );
          ] )
  | 3 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [
            Repository.Alter_drop_object (Scheme.column ("tmp" ^ k) "note");
            Repository.Alter_rename_object
              (Scheme.table ("tmp" ^ k), Scheme.table ("kept" ^ k));
          ] )
  | _ -> Evolution.Drop_source ("sat" ^ k)

let pinned_cycles = 10

(* thresholds low enough that ten cycles fire every maintenance action *)
let pinned_policy =
  let module Health = Automed_observe.Health in
  let t warn = { Health.warn; critical = 4.0 *. warn } in
  {
    Maintain.default_policy with
    Maintain.reclaim_cooldown = 3;
    health =
      {
        Health.default_config with
        Health.chain_depth = t 3.0;
        retired_sources = t 1.0;
        journal_bytes = t 1_000_000.0;
      };
  }

(* The set-up writes are the bytes the Format/Printf printers wrote
   before the codec moved onto one Buffer (the single digest pinned then
   covered them).  The churn and saved-state digests were re-pinned when
   contributions stopped contracting the source objects they do not
   export: the deltas journal shorter contributions and patches. *)
let pinned_setup_digest = "733d99b35c605dd49e4d18606f77646c"
let pinned_churn_digest = "2d0c85a127c7d4e2b795a06d6fcc9f4c"
let pinned_state_digest = "9f3b6bad113fbf6dcdfd493ae8db0cbc"

let test_pinned_store_bytes () =
  let inner = Vfs.memory () in
  let setup = Buffer.create 4096 and churn = Buffer.create 4096 in
  let log = ref setup and writes = ref 0 in
  let record kind name data =
    incr writes;
    Buffer.add_string !log
      (Printf.sprintf "%s %s %s\n" kind name
         (Digest.to_hex (Digest.string data)))
  in
  let vfs =
    {
      inner with
      Vfs.append =
        (fun name data ->
          record "append" name data;
          inner.Vfs.append name data);
      write =
        (fun name data ->
          record "write" name data;
          inner.Vfs.write name data);
    }
  in
  let repo = Repository.create () in
  let durable = ok (Durable.attach vfs repo) in
  ok (Sources.wrap_all repo (Sources.generate ~seed:11L ~scale:12 ()));
  let wf = (ok (Intersection_run.execute repo)).Intersection_run.workflow in
  let setup_writes = !writes in
  log := churn;
  let scheduler = Maintain.Scheduler.create ~policy:pinned_policy () in
  for i = 0 to pinned_cycles - 1 do
    ignore (ok (Evolution.evolve wf (pinned_delta i)));
    ignore (ok (Maintain.Scheduler.tick ~durable scheduler wf))
  done;
  let events = Maintain.Scheduler.events scheduler in
  List.iter
    (fun action ->
      Alcotest.(check bool)
        (Maintain.action_label action ^ " fires")
        true
        (List.exists (fun e -> e.Maintain.e_action = action) events))
    [ Maintain.Compact; Maintain.Reclaim; Maintain.Checkpoint ];
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check int) "set-up store writes" 231 setup_writes;
  Alcotest.(check int) "churn store writes" 145 (!writes - setup_writes);
  Alcotest.(check string) "digest of the set-up writes" pinned_setup_digest
    (digest setup);
  Alcotest.(check string) "digest of the churn writes" pinned_churn_digest
    (digest churn);
  Alcotest.(check string) "digest of the saved state" pinned_state_digest
    (Digest.to_hex (Digest.string (save repo)))

(* A store written before contributions named only what they export
   holds old-style contributions: explicit [(Void, Any)] contracts of
   every other object of their source.  Such a contribution names its
   whole source, so it reads what it always read, later alters patch it
   over the whole source, and the store recovers to the same state and
   the same seven answers. *)
let old_style repo (c : Transform.pathway) =
  let named =
    List.filter_map
      (function Transform.Rename (o, _) -> Some o | _ -> None)
      c.Transform.steps
  in
  let others =
    List.filter
      (fun o -> not (List.mem o named))
      (Schema.objects (Repository.schema_exn repo c.Transform.from_schema))
  in
  { c with
    Transform.steps =
      List.map
        (fun o ->
          Transform.Contract (o, Automed_iql.Ast.Void, Automed_iql.Ast.Any))
        others
      @ c.Transform.steps }

let test_old_style_contributions_recover () =
  let vfs = Vfs.memory () in
  let repo = Repository.create () in
  let _d = ok (Durable.attach vfs repo) in
  ok (Sources.wrap_all repo (Sources.generate ~scale:10 ()));
  let wf = (ok (Intersection_run.execute repo)).Intersection_run.workflow in
  let alter a =
    ignore
      (ok (Evolution.evolve wf (Evolution.Alter (Sources.pedro_name, [ a ]))))
  in
  alter (Repository.Alter_add_object (Scheme.table "extra", None));
  List.iter
    (fun c -> ok (Repository.replace_pathway repo ~old:c (old_style repo c)))
    (Repository.contributions repo);
  alter (Repository.Alter_add_object (Scheme.table "more", None));
  alter
    (Repository.Alter_rename_object
       (Scheme.table "extra", Scheme.table "renamed"));
  let global = Workflow.global_name wf in
  let answers repo =
    let proc = Processor.create repo in
    List.map
      (fun (q : Queries.query) ->
        match
          Processor.run_string proc ~schema:global q.Queries.global_text
        with
        | Ok v -> v
        | Error e ->
            Alcotest.failf "query %d: %a" q.Queries.number Processor.pp_error
              e)
      Queries.all
  in
  let d', _ =
    recover_journal_bytes (ok (Vfs.(vfs.read) Durable.journal_file))
  in
  let repo' = Durable.repository d' in
  Alcotest.(check bool) "an old-style contribution is stored" true
    (List.exists
       (fun (c : Transform.pathway) ->
         List.exists
           (function Transform.Contract _ -> true | _ -> false)
           c.Transform.steps)
       (Repository.contributions repo'));
  Alcotest.(check string) "same state digest"
    (Digest.to_hex (Digest.string (save repo)))
    (Digest.to_hex (Digest.string (save repo')));
  List.iter2
    (fun a b -> Alcotest.(check bool) "same answer" true (Value.equal a b))
    (answers repo) (answers repo')

let suite =
  [
    Alcotest.test_case "crc32 known answers" `Quick test_crc_known_answer;
    QCheck_alcotest.to_alcotest qcheck_crc_matches_reference;
    Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal missing file" `Quick test_journal_missing_file;
    Alcotest.test_case "journal torn and corrupt tails" `Quick
      test_journal_torn_and_corrupt;
    Alcotest.test_case "kill-point matrix" `Quick test_killpoint_matrix;
    Alcotest.test_case "live crash via write budget" `Quick
      test_live_crash_recovery;
    Alcotest.test_case "bit flip detected, never silent" `Quick
      test_bit_flip_detected;
    Alcotest.test_case "recovery truncates torn tail" `Quick
      test_recovery_truncates_then_clean;
    Alcotest.test_case "snapshot then more ops" `Quick
      test_snapshot_then_more_ops;
    Alcotest.test_case "corrupt checkpoint is a hard error" `Quick
      test_corrupt_checkpoint_is_hard_error;
    Alcotest.test_case "failed rename keeps old checkpoint" `Quick
      test_failed_rename_keeps_old_checkpoint;
    Alcotest.test_case "attach snapshots non-empty repository" `Quick
      test_attach_nonempty_snapshots;
    Alcotest.test_case "attach twice rejected" `Quick test_attach_twice_rejected;
    Alcotest.test_case "workflow journals and recovers" `Quick
      test_workflow_journals_and_recovers;
    Alcotest.test_case "workflow rejects foreign durable" `Quick
      test_workflow_rejects_foreign_durable;
    Alcotest.test_case "iSpider journal recovery end to end" `Slow
      test_ispider_recovery_end_to_end;
    Alcotest.test_case "journal bytes track the store" `Quick
      test_journal_bytes_tracks_store;
    Alcotest.test_case "journal bytes after recover" `Quick
      test_journal_bytes_after_recover;
    Alcotest.test_case "journal bytes after a failed append" `Quick
      test_journal_bytes_after_failed_append;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
    Alcotest.test_case "pinned store bytes" `Quick test_pinned_store_bytes;
    Alcotest.test_case "old-style contributions recover" `Quick
      test_old_style_contributions_recover;
  ]
