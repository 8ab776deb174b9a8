(** The REFINE step with greedy backtracking (Section 4.2.2,
    Algorithm 2): replace each group's representatives with original
    tuples, one group at a time, by solving a per-group query whose
    bounds are offset by the aggregates of the rest of the current
    package. On an infeasible refine query the algorithm backtracks,
    reordering so that previously non-refinable groups go first.

    The search is independent of where a group's query is solved: it
    calls a {!solver} with a group id and that group's offsets. The
    in-process drivers pass {!local}; the shard coordinator passes an
    RPC to the group's owning shard, which answers with {!local}. *)

type result =
  | Refined of Package.t
  | Refine_infeasible
      (** greedy backtracking exhausted every ordering *)
  | Refine_failed of Eval.failure  (** solver limit or deadline *)

(** A refine query solved: the group's chosen original tuples as
    [(row, count)] entries in candidate order, infeasibility, or a
    typed failure. *)
type solved =
  [ `Feasible of (int * int) list | `Infeasible | `Failed of Eval.failure ]

(** One refine query's outcome: solved, or [`Unreachable] when the
    group's solver cannot be reached at all (a shard and its replica
    down), so the group must be left out of the package. *)
type answer = [ solved | `Unreachable ]

(** [solve j offsets] answers the refine query Q[Gj] given [offsets],
    the per-constraint aggregates of the rest of the package. *)
type solver = int -> float array -> answer

(** [local ?limits ?deadline ?stage ?bases ctx counters] solves refine
    queries in process: it builds the group's ILP over its candidate
    rows, solves it through {!Faults.solve} (so [deadline], an absolute
    [Unix.gettimeofday] instant, clamps the solver's time limit) and
    counts the call in [counters]. [stage] (default {!Eval.Refine})
    tags fault-injection matching and failures. [bases] (one slot per
    partition group) carries each group's last optimal root basis
    across calls: a group re-solved after backtracking — same candidate
    columns, shifted offsets — warm-starts from it. Without [bases]
    every solve is cold. It is never [`Unreachable]. *)
val local :
  ?limits:Ilp.Branch_bound.limits ->
  ?deadline:float ->
  ?stage:Eval.stage ->
  ?bases:Lp.Simplex.Basis.t option array ->
  Sketch.ctx ->
  Eval.counters ->
  int ->
  float array ->
  [> solved ]

(** [run ?deadline ?max_backtracks ?stage ~solve ctx counters
    ~rep_counts ~refined] completes the sketch package described by
    [rep_counts] (per-group representative multiplicities) and
    [refined] (groups already fixed to original tuples, e.g. by the
    hybrid sketch query); both arrays are updated in place. Groups are
    visited largest multiplicity first. Passing the deadline before a
    refine query yields [Refine_failed] tagged with [stage] (default
    {!Eval.Refine}); a [`Failed] answer yields [Refine_failed] with the
    answer's failure. Backtracking events are counted in
    [counters.backtracks]; more than [max_backtracks] of them (default
    256, greedy backtracking is worst-case factorial) yields
    [Refine_infeasible] so the caller can fall back to the hybrid
    sketch. An [`Unreachable] group is left out: the search starts
    over from the state it was given, with that group's
    representatives zeroed (at most one restart per group). An
    exception raised by [solve] propagates unchanged. *)
val run :
  ?deadline:float ->
  ?max_backtracks:int ->
  ?stage:Eval.stage ->
  solve:solver ->
  Sketch.ctx ->
  Eval.counters ->
  rep_counts:float array ->
  refined:(int * int) list option array ->
  result

(** [offsets ctx ~rep_counts ~refined j] is the value of each global
    constraint's linear form over every group but [j] (representatives
    included): the offsets of group [j]'s refine query. *)
val offsets :
  Sketch.ctx ->
  rep_counts:float array ->
  refined:(int * int) list option array ->
  int ->
  float array

(** [totals ctx ~rep_counts ~refined] is {!offsets} with no group left
    out: the value of each global constraint's linear form. *)
val totals :
  Sketch.ctx ->
  rep_counts:float array ->
  refined:(int * int) list option array ->
  float array

(** [within_bounds ctx values] checks the per-constraint values against
    the query's bounds. *)
val within_bounds : ?tol:float -> Sketch.ctx -> float array -> bool
