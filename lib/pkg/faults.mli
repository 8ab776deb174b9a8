(** Deterministic fault injection and deadline-aware ILP dispatch.

    Every [Branch_bound.solve] call site in the package pipeline routes
    through {!solve}, making this module the single choke point for two
    resilience mechanisms:

    - {b deadline propagation} — given an absolute [deadline], the
      per-call [max_seconds] is clamped to the remaining global budget
      (an already-expired deadline returns a synthetic time-stopped
      [Limit] without invoking the solver);
    - {b fault injection} — an installed {!spec} can force a [Limit],
      an [Infeasible], or a raised {!Injected} exception on the k-th
      ILP call overall, on a pipeline stage, or on a specific group,
      and can kill a chosen parallel worker. This is what makes every
      rung of the Section 4.4 fallback ladder — and the Section 4.5
      worker-crash/repair path — deterministically testable on feasible
      inputs.

    Faults are installed by a front end's [--faults] flag (or its
    [PKGQ_FAULTS] fallback, read once at startup), by the REPL's
    [\faults], or programmatically.

    {2 Grammar}

    Directives are separated by [';']; each is [selector:action] where
    the selector is a [',']-separated conjunction of [key=value] pairs:

    {v
    ilp=K        the K-th ILP call overall (1-based, global counter)
    stage=S      S in sketch|hybrid|refine|repair|direct|parallel|
                 progressive
    group=J      partition group id J
    worker=W     parallel worker index W (only with action crash)
    store=F      F in read|checksum (only with action fail)
    queue=full   the service scheduler's admission check (action fail)
    net=F        F in accept|read (only with action fail)
    wal=torn:K   tear the K-th WAL record write (half the bytes, no
                 sync) and kill the process — a torn tail
    wal=crash:K  kill the process right after the K-th WAL record is
                 durable but before it is acknowledged
    wal=fsync:fail  every WAL sync reports failure (write not applied,
                 not acknowledged)
    lp=warm:reject      drop any warm-start basis handed to {!solve}
                 (every basis-cache lookup behaves as a miss)
    lp=singular:reject  corrupt the warm-start basis into a singular
                 one, forcing the solver's warm-reject path
    shard=K:crash       one-shot: the coordinator treats its next
                 exchange with shard K as a dead connection
    shard=K:stall:MS    one-shot: delay the coordinator's next exchange
                 with shard K by MS milliseconds (fires hedges and
                 read timeouts deterministically)
    shard=K:drop        one-shot: sever the coordinator's connection
                 to shard K once (exercises reconnect)
    repl=lag:N   hold each WAL shipper N records behind its primary
                 while installed (replica staleness, deterministic)
    partition=build:fail   every hierarchy/partition build raises
                 {!Injected} while installed (the progressive driver
                 must answer with a typed failure, not an exception)
    partition=level:K      one-shot: inject a failure into the
                 progressive descent's level-K sketch (0 = coarsest);
                 the driver must degrade typed — widen the level and
                 retry, or report the failure — never hang
    stoch=scenario:fail    every scenario generation raises {!Injected}
                 while installed (the stochastic driver must answer
                 with a typed failure, not an exception)
    stoch=validate:fail    every out-of-sample validation raises
                 {!Injected} while installed — same typed-degradation
                 obligation. Summary-ILP faults use the generic
                 [stage=summary:...] selector.
    fence=lease:expire     the server treats its write lease as already
                 expired while installed: every write answers with a
                 typed [fenced] error, as if the coordinator stopped
                 renewing (deterministic zombie-primary simulation)
    fence=epoch:stale      the server treats every write's epoch stamp
                 as predating its promotion epoch while installed: the
                 replica-apply rejection path, deterministically
    v}

    Actions: [limit] (forced node-limit), [infeasible], [raise]
    (raises {!Injected}), [crash] (worker kill), [fail] (store-layer
    corruption: [store=read] makes the next segment read abort as if
    the file were truncated, [store=checksum] makes its checksum
    verification fail; service layer: [queue=full] makes every
    admission check report a full queue while installed — so shedding
    is testable without racing real load — and [net=accept] /
    [net=read] arm {e one-shot} connection faults: the service front-end
    shell drops the next accepted connection / fails the next request
    read, consumed on use; the shell is shared by [pkgq_server] and
    [pkgq_shard], so they apply to whichever front end runs in the
    process). [queue=full] alone is accepted as shorthand for
    [queue=full:fail]. Examples: ["ilp=3:limit"],
    ["stage=sketch:infeasible"],
    ["stage=refine,group=2:raise; worker=1:crash"],
    ["store=checksum:fail"], ["queue=full"], ["net=read:fail"],
    ["lp=singular:reject"]. The [lp=] directives must never change an
    answer: {!Lp.Simplex.resolve} degrades a rejected or unusable warm
    start to an internal cold solve. *)

type action = Force_limit | Force_infeasible | Force_raise

type store_fault = Store_read | Store_checksum

type net_fault = Net_accept | Net_read

type wal_fault = Wal_torn of int | Wal_fsync_fail | Wal_crash of int

type lp_fault = Lp_warm_drop | Lp_singular

type shard_fault = Shard_crash | Shard_stall of int | Shard_drop

type partition_fault = Partition_level of int | Partition_build

type stoch_fault = Stoch_scenario | Stoch_validate

type fence_fault = Fence_lease_expire | Fence_epoch_stale

type cond = {
  on_call : int option;
  on_stage : Eval.stage option;
  on_group : int option;
}

type directive =
  | Ilp_fault of cond * action
  | Worker_kill of int
  | Store_break of store_fault
  | Queue_full
  | Net_break of net_fault
  | Wal_break of wal_fault
  | Lp_break of lp_fault
  | Shard_break of int * shard_fault
  | Repl_lag of int
  | Partition_break of partition_fault
  | Stoch_break of stoch_fault
  | Fence_break of fence_fault

type spec = directive list

(** Raised by an ILP call matched by a [raise] directive, and inside a
    worker matched by a [crash] directive. *)
exception Injected of string

(** Parse a fault spec in the grammar above. *)
val parse : string -> (spec, string) result

(** Install a spec and reset the global ILP call counter. *)
val install : spec -> unit

(** Remove all faults and reset the call counter. *)
val clear : unit -> unit

val active : unit -> bool

(** [solve ?limits ?deadline ?warm ?basis_out ~stage ?group p] is
    [Branch_bound.solve ~limits ~rel_gap:Eval.rel_gap p] — every
    package ILP stops at the paper's relative gap — with the per-call
    [max_seconds] clamped to the budget remaining before [deadline],
    after applying any fault directive matching this call. Increments
    the global call counter even when a fault short-circuits the
    solver.

    [warm] seeds the root LP from a saved basis (subject to the [lp=]
    fault directives above); [basis_out], when given, receives the root
    relaxation's optimal basis for reuse on the next call with the same
    columns. *)
val solve :
  ?limits:Ilp.Branch_bound.limits ->
  ?deadline:float ->
  ?warm:Lp.Simplex.Basis.t ->
  ?basis_out:Lp.Simplex.Basis.t option ref ->
  stage:Eval.stage ->
  ?group:int ->
  Lp.Problem.t ->
  Ilp.Branch_bound.result

(** Whether an [lp=...] directive of the given kind is installed. *)
val lp_fault : lp_fault -> bool

(** Whether an installed directive kills parallel worker [w]. *)
val worker_should_crash : int -> bool

(** The store-corruption directive to apply to the next segment read,
    if any ([Store.Segment] consults this on every read). *)
val store_fault : unit -> store_fault option

(** Whether a [queue=full] directive is installed: the service
    scheduler's admission check treats the queue as full while one is
    (every request is shed with a typed [rejected] failure). *)
val queue_full : unit -> bool

(** [take_net_fault f] consumes one pending [net=...] directive of kind
    [f], if armed. One-shot: [install] arms one occurrence per
    directive in the spec; each successful take disarms it. *)
val take_net_fault : net_fault -> bool

(** [take_shard_fault k] consumes one pending [shard=k:...] directive,
    if armed — same one-shot discipline as {!take_net_fault}. The
    coordinator consults this before every exchange with shard [k]. *)
val take_shard_fault : int -> shard_fault option

(** Whether a [partition=build:fail] directive is installed: the next
    hierarchy (or partition) build must raise {!Injected}. Standing
    while installed. *)
val partition_build_fails : unit -> bool

(** [take_level_fault k] consumes one pending [partition=level:k]
    directive, if armed — same one-shot discipline as
    {!take_net_fault}. The progressive driver consults this before each
    level's sketch. *)
val take_level_fault : int -> bool

(** Whether a [stoch=scenario:fail] directive is installed: scenario
    generation must raise {!Injected}. Standing while installed. *)
val stoch_scenario_fails : unit -> bool

(** Whether a [stoch=validate:fail] directive is installed:
    out-of-sample validation must raise {!Injected}. Standing while
    installed. *)
val stoch_validate_fails : unit -> bool

(** Whether a [fence=lease:expire] directive is installed: the server's
    write gate treats its lease as already expired and answers every
    write with a typed [fenced] error. Standing while installed. *)
val fence_lease_expires : unit -> bool

(** Whether a [fence=epoch:stale] directive is installed: the server's
    write gate treats every write's epoch stamp as stale (older than
    its promotion epoch) and refuses it typed. Standing while
    installed. *)
val fence_epoch_stale : unit -> bool

(** The installed [repl=lag:N] value (the largest, if several), or 0.
    Unlike the shard faults this is a standing condition: the WAL
    shipper re-reads it on every shipping cycle. *)
val repl_lag : unit -> int

(** [wal_write_fault ()] bumps the WAL-record counter (1-based, reset
    by {!install}) and reports the injected outcome for this record, if
    any: [`Torn] — the writer must persist only a prefix of the record
    and kill the process; [`Crash] — the writer must make the record
    durable, then kill the process before acknowledging.
    [Store.Wal.append] consults this on every record. *)
val wal_write_fault : unit -> [ `Torn | `Crash ] option

(** Whether a [wal=fsync:fail] directive is installed: every WAL sync
    reports failure, so the server must neither apply nor acknowledge
    the write. *)
val wal_fsync_fails : unit -> bool
