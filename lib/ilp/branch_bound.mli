(** Branch-and-bound integer linear programming on top of {!Lp.Simplex}.

    Best-first search on the LP relaxation bound, most-fractional
    branching, and two heuristics for an early incumbent: nearest
    rounding of each LP point, and, at a fractional root whose rounding
    gives no incumbent that compacts the ILP, a small ILP restricted to
    the root LP's support and the 50 at-bound columns of least reduced
    cost, searched under at most 300 of the ILP's own nodes.
    Reduced-cost fixing and compaction start at the first incumbent. Node/time limits mirror the paper's CPLEX
    configuration (1-hour cap, kill on resource exhaustion). A search
    that hits a limit reports [Feasible] (with the optimality gap) when
    an incumbent exists and [Limit] otherwise — the latter is what the
    benchmarks treat as a Direct failure. A search that [rel_gap]
    stopped short of a proof reports [Feasible] too, with
    [stopped = Some Stop_gap]. *)

type sol = { x : float array; obj : float }

type limits = {
  max_nodes : int;       (** branch-and-bound node budget *)
  max_seconds : float;   (** wall-clock budget *)
  max_simplex_iters : int;
      (** total simplex pivot budget across all LP solves of the search
          (default [max_int]); each LP is handed the remainder *)
}

val default_limits : limits

(** What stopped a search that came back [Limit]/[Feasible]. The
    {e first} limit crossed is recorded; later triggers are
    consequences of it. [Stop_gap] marks a search that ran to
    completion but dropped nodes that could improve the incumbent by
    no more than [rel_gap]; it always comes with an incumbent, so never
    with [Limit]. *)
type stop_reason = Stop_nodes | Stop_time | Stop_iterations | Stop_gap

val pp_stop_reason : Format.formatter -> stop_reason -> unit

(** A relative gap as a percentage with two decimals; a nonzero gap
    below 0.01% prints with two significant digits instead, never as
    [0.00%]. *)
val pp_gap : Format.formatter -> float -> unit

type stats = {
  nodes : int;
  lp : Lp.Simplex.work;
      (** every simplex call of the search: its pivots
          ({!Lp.Simplex.iterations} of them count against
          [max_simplex_iters]) and its cold and warm runs *)
  elapsed : float;       (** seconds *)
  stopped : stop_reason option;
      (** [None] when the search ran to natural completion *)
  columns : int;
      (** columns of the ILP the search ended on: the problem's own
          count, or fewer once reduced-cost fixing compacted it *)
  first_incumbent : int option;
      (** [nodes] when the first incumbent appeared: [Some 0] when the
          root supplied it (an integral root LP, its rounding or its
          restricted ILP, whose nodes count in [nodes] all the same);
          [None] when the search found none *)
}

type result =
  | Optimal of sol * stats
  | Feasible of sol * stats * float
      (** best incumbent when a limit or the relative gap stopped the
          search; the float is the proven relative optimality gap *)
  | Infeasible of stats
  | Unbounded of stats
  | Limit of stats  (** limit hit before any feasible point was found *)

(** [solve ?limits ?rel_gap ?warm_start ?basis_out p] honours the
    [integer] flags in [p].

    [rel_gap] (default [0.] = prove exact optimality) stops the search
    once no open node can improve the incumbent by more than this
    relative amount; CPLEX's default is [1e-4]. A search that dropped
    such a node reports [Feasible (sol, st, gap)] with
    [st.stopped = Some Stop_gap] and the proven [gap] ([0 < gap <=
    rel_gap]); [Optimal] means no node was dropped that way. A node-
    or time-limit stop folds the dropped nodes into the gap it
    reports. With [rel_gap = 0.] no node is ever dropped by the gap,
    and the search is the exact one.

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
