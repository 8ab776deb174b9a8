(** SKETCHREFINE (Algorithm 1): sketch over the representatives, then
    refine group by group, with the false-infeasibility fallback
    strategies of Section 4.4.

    When the sketch query or the greedy backtracking refinement report
    (possibly false) infeasibility, the configured fallbacks run in
    order:

    - {b Hybrid_sketch} (4.4.1): one group contributes original tuples
      while the rest stay represented, tried group by group — the
      strategy the paper's experiments use.
    - {b Drop_attributes} (4.4.3): extract an IIS of the sketch ILP,
      drop the partitioning attributes implicated by it, re-partition
      coarser and retry (groups merge, so previously infeasible
      sub-queries can become feasible).
    - {b Merge_groups} (4.4.4): iteratively merge the smallest groups
      pairwise and retry; in the limit of one group the refine/hybrid
      query {e is} the original problem, so this brute-force ladder is
      complete for feasible queries (at DIRECT's cost).

    Reporting [Infeasible] after the fallbacks may still be a false
    negative, with the low, selectivity-bounded probability of
    Theorem 4. *)

type fallback = Hybrid_sketch | Drop_attributes | Merge_groups

type options = {
  limits : Ilp.Branch_bound.limits;  (** per-ILP-call solver budget *)
  max_seconds : float;
      (** overall wall-clock budget; every ILP's time limit is clamped
          to what remains of it *)
  fallbacks : fallback list;
      (** tried in order on false infeasibility; default
          [[Hybrid_sketch]], matching the paper's setup *)
}

val default_options : options

(** [run ?options spec rel partition] evaluates the compiled query.
    The partition must have been built over [rel] (or a superset
    restricted with {!Partition.restrict_prefix}). *)
val run :
  ?options:options ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Partition.t ->
  Eval.report

(** {1 The driver}

    {!run}, {!Parallel.run}, {!Progressive.run} and the shard
    coordinator are one driver: an attempt is a sketch, the refine from
    it, then the ladder over the same partitioning, under one deadline,
    one set of counters and one report. The variants seed its first
    rung, and the coordinator supplies the solver of its group
    queries. *)

(** A refine a caller has set up, tried first on cold bases:
    Progressive's refine of its shaded leaf sketch, Parallel's Phase-3
    repair of its merged state. [stage] tags its ILPs and failures;
    [status] labels a package it refines. *)
type rung = {
  ctx : Sketch.ctx;
  rep_counts : float array;
  refined : (int * int) list option array;
  stage : Eval.stage;
  status : Eval.status;
}

(** Where an attempt starts. *)
type seed

(** [seed ?tuples ?sketch ?status ?first full]: [first], then the
    refine from [full]'s plain sketch, then the ladder over [full]'s
    partitioning. [sketch] is that plain sketch when the caller already
    solved it ([Sketch_infeasible] goes straight to the ladder); [None]
    solves it. [status] (default [Optimal]) labels a package refined
    from it. [tuples] (default [full]) is [full] with candidate rows,
    which the hybrid sketch reads; a coordinator, whose [full] has
    none, builds it from its own copy of the table. [full] and [tuples]
    are forced only if the attempt gets that far. *)
val seed :
  ?tuples:Sketch.ctx Lazy.t ->
  ?sketch:Sketch.result ->
  ?status:Eval.status ->
  ?first:rung ->
  Sketch.ctx Lazy.t ->
  seed

(** The group-query solver of one refine rung, given the rung's stage,
    its per-group warm-start slots and its context. *)
type refiner =
  stage:Eval.stage ->
  bases:Lp.Simplex.Basis.t option array ->
  Sketch.ctx ->
  Eval.counters ->
  Refine.solver

(** [drive ?options ?refine seed] runs [seed ~deadline counters] with
    the run's absolute deadline and counters, then the attempt it
    describes; the report covers the seed's work and time too.
    [refine] solves the group queries of every refine over the seed's
    partitioning (default: {!Refine.local} under the run's limits and
    deadline, warm from the rung's bases); a rung that re-partitions
    ([Drop_attributes], [Merge_groups]) always refines with
    {!Refine.local}. A group [refine] answers [`Unreachable] is left
    out of that refine ({!Refine.run}); the caller keeps its own record
    of it. Never raises: an exception, the seed's included, becomes a
    [Failed] report. *)
val drive :
  ?options:options ->
  ?refine:refiner ->
  (deadline:float -> Eval.counters -> seed) ->
  Eval.report
