(** Branch-and-bound integer linear programming on top of {!Lp.Simplex}.

    Best-first search on the LP relaxation bound, most-fractional
    branching, a nearest-rounding heuristic for an initial incumbent,
    and node/time limits mirroring the paper's CPLEX configuration
    (1-hour cap, kill on resource exhaustion). A search that hits a
    limit reports [Feasible] (with the optimality gap) when an
    incumbent exists and [Limit] otherwise — the latter is what the
    benchmarks treat as a Direct failure. *)

type sol = { x : float array; obj : float }

type limits = {
  max_nodes : int;       (** branch-and-bound node budget *)
  max_seconds : float;   (** wall-clock budget *)
  max_simplex_iters : int;
      (** total simplex pivot budget across all LP solves of the search
          (default [max_int]); each LP is handed the remainder *)
}

val default_limits : limits

(** Which limit stopped a search that came back [Limit]/[Feasible].
    The {e first} limit crossed is recorded; later triggers are
    consequences of it. *)
type stop_reason = Stop_nodes | Stop_time | Stop_iterations

val pp_stop_reason : Format.formatter -> stop_reason -> unit

type stats = {
  nodes : int;
  simplex_iterations : int;
  elapsed : float;       (** seconds *)
  stopped : stop_reason option;
      (** [None] when the search ran to natural completion *)
}

type result =
  | Optimal of sol * stats
  | Feasible of sol * stats * float
      (** best incumbent when a limit was hit; the float is the relative
          optimality gap *)
  | Infeasible of stats
  | Unbounded of stats
  | Limit of stats  (** limit hit before any feasible point was found *)

(** [solve ?limits ?rel_gap ?warm_start ?basis_out p] honours the
    [integer] flags in [p].

    [rel_gap] (default [0.] = prove exact optimality) stops the search
    once no open node can improve the incumbent by more than this
    relative amount; CPLEX's default is [1e-4]. A search stopped by the
    gap reports [Optimal].

    [warm_start] seeds the root LP with a previously saved basis (see
    {!Lp.Simplex.resolve}). Child nodes always warm-start from their
    parent's optimal basis internally, and every LP of one search
    re-solves a single {!Lp.Simplex.Workspace} in place. [basis_out],
    when given, receives the root relaxation's optimal basis — the
    handle a caller caches to warm-start the next search over the same
    columns. *)
val solve :
  ?limits:limits -> ?rel_gap:float -> ?warm_start:Lp.Simplex.Basis.t ->
  ?basis_out:Lp.Simplex.Basis.t option ref -> Lp.Problem.t -> result

val stats_of : result -> stats
val solution_of : result -> sol option
val pp_result : Format.formatter -> result -> unit
