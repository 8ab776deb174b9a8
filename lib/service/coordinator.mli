(** The [pkgq_shard] coordinator: scatter/gather SketchRefine over a
    fleet of [pkgq_server] shards, with robustness as the design
    center — never a hang, never a silently wrong answer.

    {2 Topology}

    Shared-storage sharding: the coordinator and every shard load the
    {e same} table (same file, or the same base plus the same WAL op
    sequence), so global row ids are shard-local row ids and no row
    data ever travels for a query. The table is partitioned once
    (coordinator-side, the ordinary {!Pkg.Partition}) and the partition
    {e groups} are dealt round-robin across shards. ASSIGN installs
    each shard's groups and returns the shard's own representative
    tuples, which the coordinator diffs against its local partitioning:
    any divergence (a shard serving different bytes) is a typed data
    error, not a wrong package.

    {2 Per-query flow}

    plan locally -> SKETCH scatter (per-group WHERE-filtered candidate
    counts -> sketch ILP caps) -> {!Pkg.Sketch_refine.drive}, as on a
    single node: the sketch ILP (or the progressive descent) solved
    locally over the representative relation, the sequential
    greedy-backtracking refine (Algorithm 2) with each group's refine
    ILP dispatched to its owning shard as a REFINE RPC carrying the
    partial package's constraint-bound offsets as hex floats
    (bit-identical on both sides), and the Section 4.4 ladder, whose
    hybrid sketch reads candidate rows from the coordinator's own copy
    of the table. Shards solve refine ILPs {e cold} (no warm-start), so
    a failover or hedged duplicate computes the identical answer on the
    primary or its replica.

    {2 Robustness}

    Every RPC gets a deadline carved from the query budget. Primary
    exchanges are retried with capped backoff behind a per-shard
    circuit breaker ({!config.breaker_trips} consecutive failures trip
    it; a PING probe after {!config.breaker_probe_seconds} readmits).
    On primary exhaustion the coordinator fails over to the replica,
    first promoting it: the dead primary's on-disk WAL is shipped from
    the last {e sent} record (never re-shipped — APPEND is not
    idempotent). Refine RPCs are hedged: if the primary has not
    answered within {!config.hedge_ms}, the same request is raced
    against the replica and the first answer wins (the loser is
    abandoned and its connection dies with it). A replica answer whose
    ship-acknowledgement cursor lags the primary's WAL tail marks its
    groups {e stale}; a group whose shard and replica are both
    unreachable is {e omitted} and the query degrades into a typed
    {!Protocol.Degraded} error naming exactly which groups were stale
    or omitted, instead of hanging or lying.

    {2 Membership & fencing}

    Replica-bearing shards live under a write-lease regime
    ({!Membership}): the active node may only ack writes while holding
    an unexpired lease, renewed over the shipping thread's cadence, and
    every write is stamped with the shard's current epoch. Failover for
    {e writes} is a fencing handshake ([fence_promote]): catch-up ship
    while the fence is down, wait out the deposed primary's lease,
    durably bump the epoch, raise the ship fence, grant the replica the
    new epoch's lease, and only then follow it — so a zombie primary
    (paused, deposed, resumed) can never ack a write the fleet loses:
    it self-demoted when its lease expired, its stale stamps answer the
    typed {!Protocol.Fenced} error, and its unshipped old-epoch WAL
    suffix is dropped at the fence. Reads also follow the active node;
    a deposed primary is never consulted again. *)

type endpoint = { ep_host : string; ep_port : int }

(** One shard: a primary, an optional read replica, and optionally the
    primary's on-disk WAL file ({!Store.Recovery.wal_path}) for
    shipping and promotion — the coordinator runs on the same
    filesystem as its local fleet. *)
type shard_spec = {
  primary : endpoint;
  replica : endpoint option;
  wal : string option;
}

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  method_ : [ `Sketch_refine | `Progressive ];
      (** [`Progressive] partitions with the DLV hierarchy leaf instead
          of the flat quad-tree and runs {!Pkg.Progressive.descend}
          locally over scatter-derived caps before the distributed
          refine, so it answers what a progressive {!Server} answers
          (with its [progressive_level<l>*] STATS entries); the fleet
          must be launched with [--method progressive] so the shards
          derive the identical leaf (ASSIGN divergence check). *)
  attrs : string list;
      (** partitioning attributes; required non-empty, and the fleet
          must be launched with the identical [--attrs] (and [--tau],
          [--epsilon]) or ASSIGN reports divergence *)
  tau : int option;
  epsilon : float option;
  limits : Ilp.Branch_bound.limits;
  request_seconds : float;  (** per-query budget; RPC deadlines are carved from it *)
  connect_timeout : float;
  rpc_seconds : float;
      (** cap on scatter-phase (ASSIGN/SKETCH) read timeouts, so a
          stalled shard is detected long before the query budget *)
  retries : int;  (** primary attempts per exchange before failover *)
  hedge_ms : int;  (** refine hedging delay; 0 disables *)
  breaker_trips : int;
      (** consecutive primary failures that trip the breaker *)
  breaker_probe_seconds : float;  (** open time before a PING probe readmits *)
  probe_timeout : float;
      (** the half-open probe's own connect/read deadline (default
          0.25s) — independent of [rpc_seconds], so a probe against a
          stalled node answers "still sick" in bounded time; probe
          timeouts are typed and counted ([shard_probe_timeouts]) *)
  ship_every : float;  (** WAL shipper cycle, seconds *)
  lease_ms : int option;
      (** write-lease duration for replica-bearing shards; [None] is
          {!Membership.create}'s 1500 ms *)
  epoch_dir : string option;
      (** where per-shard fencing epochs are persisted ([epochs.bin]);
          [None] keeps them coordinator-local *)
  levels : int;
      (** progressive hierarchy level count; the shards must use the
          same one *)
}

(** Defaults: localhost, ephemeral port, flat SketchRefine, a 60 s
    query budget, 1 s connect timeout, 2 s scatter reads, 2 retries,
    a 50 ms hedge, 3 breaker trips, a 1500 ms lease, coordinator-local
    epochs and {!Pkg.Hierarchy.default_levels}. [pkgq_shard] fills them
    from its flags and environment. *)
val default_config : config

type t

(** [start cfg specs rel] — serve [rel] (the coordinator's own copy of
    the fleet's table) across [specs]. Binds the front-end socket,
    starts the accept loop and the WAL shipper thread.
    @raise Failure when [cfg.attrs] is empty. *)
val start : config -> shard_spec list -> Relalg.Relation.t -> t

val port : t -> int

val metrics : t -> Metrics.t

(** Shard [i]'s current fencing epoch (see {!Membership}). Starts at 1
    (raised by a persisted [epoch_dir]) and bumps durably on every
    fencing promotion. *)
val shard_epoch : t -> int -> int

(** One query through the full scatter/gather path (the same code the
    QUERY verb runs) — for in-process tests and the bench. *)
val eval : t -> string -> Protocol.response

val stop : t -> unit
