(** Crash-safe repository: write-ahead journal + checksummed checkpoints.

    A durable handle observes a {!Automed_repository.Repository.t}: every
    committed mutation is rendered with
    {!Automed_repository.Serialize.save_op} and appended to
    [journal.wal] as a length-prefixed, CRC-32-checksummed record
    ({!Journal}).  {!snapshot} compacts the journal into an atomic
    checkpoint (write temp → fsync → rename → empty the journal) whose
    header carries the body's length and checksum.  {!recover} loads the
    checkpoint, replays the journal, and — when the journal's tail is
    torn or corrupt — truncates it to the last intact record and reports
    what was dropped.  A corrupt {e checkpoint} is a hard error: the
    repository is never silently loaded wrong.

    Telemetry counters: [durable.append], [durable.snapshot],
    [durable.replay] (records replayed during recovery) and
    [durable.scrub_bad_record] (torn/corrupt/unreplayable records
    dropped or flagged). *)

exception Journal_error of string
(** Raised out of a mutating repository call when its journal append
    fails: the in-memory mutation is applied, but it is NOT durable. *)

val journal_file : string
val checkpoint_file : string
val checkpoint_tmp : string

type t

val repository : t -> Automed_repository.Repository.t
val vfs : t -> Vfs.t

val appended : t -> int
(** Journal records appended through this handle (resets on snapshot). *)

val journal_bytes : t -> int
(** Bytes sitting in the journal since the last checkpoint, tracked by
    the handle so reading it costs nothing: {!attach} reads the store
    once (0 when the journal is absent or unreadable), {!recover} takes
    the size it left after any truncation, every append adds its framed
    record, {!snapshot} zeroes it, and a failed append re-reads it from
    the store.  It equals the journal's size as long as nothing but this
    handle writes the journal.  One of the repair-debt indicators of the
    health observatory: growth here is replay work the next recovery
    must pay until a {!snapshot} retires it. *)

val attach :
  Vfs.t -> Automed_repository.Repository.t -> (t, string) result
(** Starts journaling the repository's mutations.  Fails if the
    repository already has an observer.  A non-empty repository with no
    checkpoint on disk is snapshotted immediately, so the store is
    self-contained from the first attach. *)

val detach : t -> unit
(** Stops journaling (removes the observer). *)

val snapshot : t -> (unit, string) result
(** Atomic checkpoint: serialise (with extents), write to
    [checkpoint.tmp], fsync, rename over [checkpoint.str], then empty
    the journal.  A failure before the rename leaves the previous
    checkpoint and the journal untouched, so recovery still works. *)

val sync : t -> (unit, string) result
(** Fsyncs the journal (used after a batch of appends, e.g. per
    workflow iteration). *)

(** Outcome of {!recover}. *)
type report = {
  checkpoint_loaded : bool;  (** false when starting from an empty store *)
  replayed : int;  (** journal records applied *)
  truncated_bytes : int;  (** torn/corrupt tail bytes dropped *)
  warnings : string list;
}

val recover : Vfs.t -> (t * report, string) result
(** Rebuilds the repository from checkpoint + journal and attaches a
    fresh handle.  Journal replay stops at the first torn, corrupt or
    unreplayable record; everything from there on is truncated away and
    reported in [warnings].  An unreadable or checksum-failing
    checkpoint is [Error] — never a silently wrong repository. *)

(** Read-only integrity report, per file. *)
type scrub = {
  checkpoint_status : string;
  journal_records : int;
  journal_bytes : int;
  journal_tail : Journal.tail;
  bad_payloads : (int * string) list;
      (** (record index, reason) for intact records whose payload does
          not parse as an operation *)
}

val scrub : Vfs.t -> (scrub, string) result
(** Verifies checkpoint checksum and scans the journal without
    modifying anything or building a repository. *)

val describe_op : string -> string
(** One-line human summary of a journal payload (for [repo log]). *)

val pp_report : report Fmt.t
val pp_scrub : scrub Fmt.t
