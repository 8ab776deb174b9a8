(** Write-ahead log for the served table.

    One checksummed record per [APPEND]/[DELETE] batch. The file is a
    flat sequence of frames [length (i32 LE) | record image], each
    record image a full {!Wire} envelope (magic ["PKGQWAL1"], version,
    monotone sequence number, op tag, payload, checksum). A torn tail —
    a frame cut short by a crash, or one whose checksum fails — marks
    the end of the valid prefix; {!replay} reports it and can truncate
    it away.

    Writes bypass [Stdlib] buffering (unbuffered [Unix] fd, [O_APPEND])
    so that a [SIGKILL] at any instruction leaves every previously
    written byte visible to the next process — the property the chaos
    harness's kill points rely on.

    Fault hooks ({!Pkg.Faults.wal_write_fault},
    {!Pkg.Faults.wal_fsync_fails}) are consulted on every {!append}:
    [wal=torn:K] persists half of the K-th frame and kills the process,
    [wal=crash:K] makes the K-th record durable and then kills the
    process before the caller can acknowledge, and [wal=fsync:fail]
    makes every sync report failure (the record is rolled back out of
    the log before {!Sync_failed} is raised). *)

type op = Append of Relalg.Relation.t | Delete of int list

(** [epoch] is the membership epoch the record was written under (0 for
    records predating the fencing layer — including every record of a
    version-1 log). Within one log, epochs never decrease; {!replay}
    enforces this and discards a regressing (fenced) suffix. *)
type record = { seq : int; epoch : int; op : op }

(** [encode_record ~seq ~epoch op] — the current (version-2) record
    image: a {!Wire} envelope over [seq | epoch | tag | payload].
    Exposed for the format round-trip tests. *)
val encode_record : seq:int -> epoch:int -> op -> string

(** Decode a record image of either version: v2 as written by
    {!encode_record}, v1 (no epoch field) as epoch 0.
    @raise Wire.Error on a corrupt image or unknown version. *)
val decode_record : string -> record

(** A WAL sync failed: the record was rolled back (truncated out of the
    log); the write must be neither applied nor acknowledged. *)
exception Sync_failed of string

(** [Always] — fsync after every record, before the caller may
    acknowledge (the durable default). [Never] — leave flushing to the
    kernel: survives process death (bytes are in the page cache) but
    not power loss; for benchmarking the sync overhead. *)
type sync = Always | Never

(** The spellings [pkgq_server] accepts for [PKGQ_WAL_SYNC]:
    ["off"|"never"|"0"|"no"] is {!Never}, ["always"|"on"|"1"|"yes"]
    {!Always} (case and surrounding blanks ignored); [None] otherwise. *)
val sync_of_string : string -> sync option

type t

(** What {!replay} found in an existing log file. *)
type replay = {
  ops : record list;  (** valid records, in write order *)
  valid_bytes : int;  (** length of the intact prefix *)
  torn_bytes : int;  (** bytes past it, discarded *)
  fenced_bytes : int;
      (** bytes of a suffix whose records regress in epoch — writes a
          deposed primary kept appending after a newer epoch existed —
          discarded exactly like a torn tail, but counted apart *)
  replay_last_seq : int;  (** 0 when the log is empty *)
  replay_last_epoch : int;  (** highest epoch in the valid prefix, 0 if none *)
}

(** [replay ?truncate path] decodes the valid prefix of the log at
    [path] (a missing file is an empty log). With [~truncate:true] the
    torn tail, if any, is cut off on disk so the next appender starts
    from a clean end. Record-level corruption is contained — the scan
    stops at the first bad frame — but an unreadable file raises
    [Sys_error]. *)
val replay : ?truncate:bool -> string -> replay

(** [open_log ?sync path] replays (truncating any torn tail), then
    opens the log for appending positioned at the end of the valid
    prefix. [sync] defaults to {!Always}. *)
val open_log : ?sync:sync -> string -> t * replay

(** [append ?epoch t op] encodes, writes and (under {!Always}) fsyncs
    one record, returning its sequence number. [epoch] (default 0)
    stamps the record with the writer's membership epoch; the stamp is
    clamped up to the log's running maximum so one log's epochs never
    regress. Only after [append] returns may the caller apply the op in
    memory and acknowledge it.
    @raise Sync_failed when the record could not be made durable; the
    log is left exactly as before the call. *)
val append : ?epoch:int -> t -> op -> int

(** [reset t] truncates the log to empty — the checkpoint has absorbed
    its records. Sequence numbers keep counting from {!last_seq}, which
    is what lets recovery skip records an earlier checkpoint already
    covers. *)
val reset : t -> unit

(** [bump_seq t floor] raises {!last_seq} to at least [floor]. Recovery
    calls this with the checkpoint's sequence number after opening a
    truncated (empty) log, so new records keep numbering above the
    records the checkpoint absorbed. *)
val bump_seq : t -> int -> unit

val close : t -> unit

val path : t -> string

(** Records appended since open/reset (checkpoint trigger input). *)
val records : t -> int

(** Bytes in the valid log (checkpoint trigger input). *)
val bytes : t -> int

(** Sequence number of the newest record ever written, 0 if none. *)
val last_seq : t -> int

(** Highest epoch ever written to (or replayed from) this log. *)
val last_epoch : t -> int

val sync_mode : t -> sync
