(** Epoch-fenced membership for the sharded fleet: per-shard fencing
    tokens (epochs) plus write leases.

    {b Invariants.}
    - Exactly one epoch per shard is "current"; it only ever increases,
      and {!bump} persists the increment (atomic tempfile + fsync +
      rename through a {!Store.Wire} envelope) {e before} revealing the
      new value — so epochs survive coordinator restart and an old
      incarnation can never re-grant a spent epoch.
    - A node may ack writes only while it holds an unexpired lease at
      the current epoch. The server demotes itself read-only strictly
      before its lease's nominal expiry (it forfeits a skew margin);
      the coordinator waits out the {e full} nominal lease since its
      last successful grant ({!quarantine_remaining}) before bumping
      the epoch for a promotion. Together: by the time epoch [e+1] can
      ack its first write, every epoch-[e] holder has already refused
      writes — no instant with two acking primaries.

    Leases alone cannot close split-brain (a paused process's clock of
    "now" is frozen exactly while it matters); epochs alone cannot
    detect silence. The lease detects the dead/stalled primary, the
    epoch fences its unsent past: WAL records are stamped with the
    epoch they were acked under, {!Store.Ship} refuses to ship records
    older than the promotion fence, and replay truncates an
    epoch-regressing suffix. *)

type t

(** [create ?dir ?lease_ms ~shards ()] — epochs start at 1 (epoch 0 is
    reserved for "never fenced" records) and are raised to any higher
    persisted value found in [dir] (the persisted epoch file,
    [epochs.bin]); without [dir] epochs are coordinator-local, not
    persisted. [lease_ms] is the lease duration (default 1500). A
    persisted file for a different shard count keeps the overlapping
    shards' epochs. *)
val create : ?dir:string -> ?lease_ms:int -> shards:int -> unit -> t

val shards : t -> int

(** Current epoch of shard [i]. *)
val epoch : t -> int -> int

val lease_seconds : t -> float

val lease_ms : t -> int

(** [bump t i] durably advances shard [i]'s epoch and returns the new
    value. The persisted file hits disk before the value is revealed. *)
val bump : t -> int -> int

(** Record a successful lease grant/renewal for shard [i] (a LEASE the
    holder acknowledged). *)
val note_grant : t -> int -> unit

(** Seconds since shard [i]'s last successful grant ([infinity] when
    never granted). *)
val grant_age : t -> int -> float

(** How long a promotion must still wait before bumping shard [i]'s
    epoch: the unexpired remainder of the last lease this coordinator
    granted (0 when never granted or already expired). Waiting this out
    guarantees the old primary has self-demoted first. *)
val quarantine_remaining : t -> int -> float
