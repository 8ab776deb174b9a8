(** The package-query server: a long-running TCP service evaluating
    PaQL queries over one shared, warm table.

    Request flow: a connection thread of the {!Front} shell reads a
    framed {!Protocol} request, stamps its deadline
    ([arrival + request_seconds] — the budget the resilience layer then
    propagates into every ILP call), and submits an evaluation job to
    the {!Scheduler}. Admission
    control answers over-capacity requests immediately with a typed
    [rejected] failure ({!Pkg.Eval.Rejected}); admitted jobs run on the
    worker pool against an immutable snapshot of the table state.

    Work is shared across requests at three levels:

    - {b plan cache} — parse/analyze/compile once per query
      fingerprint ({!Paql.Fingerprint});
    - {b partitions} — partitionings and progressive hierarchies are
      kept per {!Engine.layout} (attrs, tau, radius) in memory (and in
      the {!Store.Catalog} when one is attached), so they are built
      once and reused by every request — the across-query reuse the
      billion-tuple follow-up work gets its wins from;
    - {b result cache} — keyed by (query fingerprint, table
      fingerprint): a repeated query against an unchanged table
      returns the rendered answer without touching the solver. Only
      {e proven} outcomes are cached: Optimal, Infeasible, and a
      [Feasible] gap within {!Pkg.Eval.rel_gap} (a gap-stopped search).
      Larger, budget-dependent gaps and failures are recomputed. [APPEND]
      explicitly invalidates every result for the superseded table
      fingerprint;
    - {b basis cache} — keyed by (query {e structure} fingerprint,
      table fingerprint): the optimal root-LP basis of a DIRECT solve
      is saved and warm-starts the dual simplex for the next
      parameter-tweaked variant of the same query
      ({!Paql.Fingerprint.structure_of_query} abstracts numeric
      literals, so [... <= 150] and [... <= 160] share a key).
      Capacity is [config.basis_cache] (128); entries for a superseded
      table fingerprint are invalidated alongside results.

    [APPEND] and [DELETE] build the table the write leaves behind once,
    with {!Store.Recovery.apply} (the builder WAL replay uses, carrying
    the warm numeric columns over), then maintain every cached
    partitioning against that one relation ({!Store.Maintain}: local
    re-splits only), recompute the table fingerprint and swap in a new
    snapshot; in-flight requests keep their pre-write snapshot. STATS
    splits a write's server time into the [wal_append] (record +
    fsync) and [maintain] (all partitionings) stages. A write of no
    rows changes nothing and is acked without a sequence number. *)

type config = {
  host : string;
  port : int;          (** 0 picks an ephemeral port; see {!port} *)
  workers : int;       (** worker pool size *)
  queue : int;         (** admission queue capacity *)
  result_cache : int;  (** result cache capacity; 0 disables *)
  plan_cache : int;    (** plan cache capacity; 0 disables *)
  basis_cache : int;   (** solver basis cache capacity; 0 disables *)
  method_ : Engine.method_;
      (** STATS carries progressive runs' [progressive_level<l>*] and
          stochastic runs' [stoch_*] gauges. *)
  attrs : string list; (** partitioning attrs; [] = query's numeric attrs *)
  tau : int option;    (** [None] = 10% of the table *)
  epsilon : float option;
  limits : Ilp.Branch_bound.limits;  (** per-ILP budget *)
  request_seconds : float;  (** per-request wall budget (deadline) *)
  log_every : float;   (** seconds between metrics log lines; 0 = off *)
  wal_dir : string option;
      (** durability directory (WAL + checkpoint); [None] = volatile *)
  wal_checkpoint : int;
      (** records between checkpoints; 0 = never checkpoint *)
  wal_sync : Store.Wal.sync;  (** fsync policy of the WAL *)
  levels : int;  (** progressive hierarchy level count *)
  stochastic : Pkg.Stochastic.options;
      (** SummarySearch scenario counts and seed; [limits] and the
          request budget replace its own *)
}

(** Defaults: localhost, ephemeral port, DIRECT, 60s request budget, 4
    workers, a 32-request queue, result/plan/basis caches of 256/64/128
    entries, no WAL (a checkpoint every 64 records, fsync on every
    record when one is attached), {!Pkg.Hierarchy.default_levels} and
    {!Pkg.Stochastic.default_options}. [pkgq_server] fills them from
    its flags and environment. *)
val default_config : config

type t

(** [start ?catalog config rel] binds, pre-warms the numeric column
    cache, starts the worker pool and accept thread, and returns. With
    [config.wal_dir] set, the served state is what
    {!Store.Recovery.recover} rebuilds — checkpoint + replayed WAL —
    and [rel] only seeds a directory that has never checkpointed; every
    write is then logged durably before it is applied or acknowledged
    ([config.wal_sync] controls the fsync), and the log is folded into a
    fresh checkpoint every [wal_checkpoint] records.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Store.Wire.Error when the durability directory is corrupt. *)
val start : ?catalog:Store.Catalog.t -> config -> Relalg.Relation.t -> t

(** The bound port (the actual one when the config asked for 0). *)
val port : t -> int

val metrics : t -> Metrics.t

val config : t -> config

(** Current table content fingerprint (changes on append/delete). *)
val table_fingerprint : t -> string

(** Current table row count (after recovery, when a WAL is attached). *)
val table_rows : t -> int

(** Evaluations that actually invoked a solver (cache hits don't). *)
val solve_count : t -> int

(** Raised by {!append}/{!delete} when the write is refused by the
    membership fence: its epoch stamp predates this node's installed
    epoch, or the node's lease has expired and it has self-demoted
    read-only. Surfaces over the wire as the typed [fenced] error. *)
exception Fenced_write of string

(** The highest membership epoch installed here — by a [LEASE] from the
    coordinator, or recovered from the WAL's epoch stamps at startup.
    0 until either happens. *)
val current_epoch : t -> int

(** [append t extra] appends [extra]'s rows to the served table:
    maintains cached partitionings incrementally, recomputes the
    fingerprint, and invalidates the superseded result-cache entries.
    An [extra] of no rows is acked without logging, publishing or
    invalidating anything, and returns [None].
    Also the implementation of the [APPEND] verb. With a WAL attached
    the rows are durable before the call returns, stamped with [epoch]
    (raised to the installed epoch; default the installed epoch), and
    the durable record's sequence number is returned ([None] without a
    log) — acks carry it so a coordinator knows exactly which WAL
    prefix it has acknowledged.
    @raise Invalid_argument when schemas differ.
    @raise Fenced_write when the membership fence refuses the write.
    @raise Store.Wal.Sync_failed when the record could not be made
    durable (the state is untouched). *)
val append : ?epoch:int -> t -> Relalg.Relation.t -> int option

(** [delete t ids] removes the given row ids (0-based, into the current
    table; duplicates allowed), compacting the remaining rows in order
    ({!Store.Recovery.apply}) and updating every cached partitioning
    against the compacted table ({!Store.Maintain.delete}). Also the
    implementation of the [DELETE] verb; same durability, fencing,
    returned-sequence and empty-write contract as {!append}.
    @raise Invalid_argument on an out-of-range id. *)
val delete : ?epoch:int -> t -> int list -> int option

(** Recovery statistics from startup, when [wal_dir] was set. *)
val last_recovery : t -> Store.Recovery.stats option

(** Stop accepting, drain admitted work, close connections, join every
    thread. Idempotent. *)
val stop : t -> unit
