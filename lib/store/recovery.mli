(** Startup recovery: checkpoint load + WAL replay.

    A durability directory holds [checkpoint.seg] (envelope
    ["PKGQCKPT"]: the sequence number it covers plus a full table
    segment) and [wal.log] ({!Wal} records past that sequence number).
    {!recover} rebuilds the table to exactly the last acknowledged
    state: load the checkpoint (or the caller's base relation when
    there is none), replay the WAL's valid prefix skipping records the
    checkpoint already covers, truncate any torn tail, and return the
    open log ready for appending.

    {!checkpoint} publishes a fresh checkpoint atomically (tempfile +
    fsync + rename) and only then truncates the log. A crash between
    those two steps is benign: replay's sequence-number guard skips the
    still-logged records the new checkpoint absorbed, so nothing is
    applied twice. Partition catalog entries are not part of recovery
    state — they are keyed by table fingerprint and rebuilt (or
    re-fetched from {!Catalog}) on demand, so the recovered relation's
    fingerprint determines exactly which entries hit. *)

val wal_file : string

val checkpoint_file : string

val wal_path : string -> string

val checkpoint_path : string -> string

type stats = {
  checkpoint_seq : int;
  checkpoint_rows : int option;  (** [None]: no checkpoint, base used *)
  records_replayed : int;
  records_skipped : int;  (** <= checkpoint seq (crash mid-protocol) *)
  rows_appended : int;
  rows_deleted : int;
  torn_bytes : int;  (** truncated from the tail *)
  fenced_bytes : int;
      (** an epoch-regressing suffix truncated at open — a deposed
          primary's post-promotion writes, asserted away by replay's
          epoch-monotonicity check, never applied *)
  last_seq : int;
  last_epoch : int;  (** highest epoch in the replayed log, 0 if none *)
  wall : float;
}

val pp_stats : Format.formatter -> stats -> unit

(** [recover ?sync ~dir ~base ()] rebuilds the table from [dir]
    (created if missing), falling back to [base ()] when no checkpoint
    exists. Replays through {!apply}, the builder the live server's
    writes use, so the recovered relation's segment fingerprint equals
    the acknowledged state's.
    @raise Wire.Error on a corrupt checkpoint or a record that does not
    fit the table (WAL torn tails are handled, not raised). *)
val recover :
  ?sync:Wal.sync ->
  dir:string ->
  base:(unit -> Relalg.Relation.t) ->
  unit ->
  Relalg.Relation.t * Wal.t * stats

(** [checkpoint ~dir wal rel] atomically publishes [rel] as the new
    checkpoint covering everything up to [Wal.last_seq wal], then
    truncates the log. *)
val checkpoint : dir:string -> Wal.t -> Relalg.Relation.t -> unit

(** [apply rel op] builds the table one write leaves behind — the one
    builder the server's write path, replay, the coordinator and chaos
    share: append concatenates rows in order; delete drops ids
    (duplicates allowed) and compacts in order. Numeric columns [rel]
    has materialized are carried over (extended or filtered), so the
    result never re-reads boxed rows for them. A write of no rows
    returns [rel] itself.
    @raise Wire.Error on schema mismatch or out-of-range id. *)
val apply : Relalg.Relation.t -> Wal.op -> Relalg.Relation.t
