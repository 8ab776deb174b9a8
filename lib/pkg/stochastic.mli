(** SummarySearch-style evaluation of stochastic package queries
    (arXiv:2103.06784).

    A stochastic spec (any [WITH PROBABILITY] constraint or [EXPECTED]
    objective — {!Paql.Translate.is_stochastic}) is solved against
    Monte-Carlo scenarios of its noisy attributes
    ({!Datagen.Scenario}): an optimization set drives the ILP, a
    disjoint held-out set validates the answer out of sample.

    Instead of the scenario-expanded ILP (variables and rows scaling
    with the scenario count), each probabilistic constraint contributes
    a few {e summary} rows: the covered scenarios — the first
    [ceil(p-hat * S)] in index order — are partitioned round-robin into
    [m] groups, and each group is collapsed into one conservative
    (CVaR-like) row taking the per-row minimum of the scenario
    coefficients for a [>=] constraint (maximum for [<=]). Feasibility
    for the summaries implies feasibility for every covered scenario.
    The loop then iterates: an infeasible summary ILP doubles [m]
    (finer, less conservative); a package that misses its probability
    out of sample raises the covered fraction [p-hat]; anything that
    cannot make progress returns a {e typed} outcome within the
    deadline — never a hang.

    Fault hooks: [stoch=scenario:fail] / [stoch=validate:fail] raise at
    the scenario / validation stage, and the generic
    [stage=summary:...] directives hit the summary ILPs; all are
    contained into typed [Failed] reports. *)

type options = {
  limits : Ilp.Branch_bound.limits;
  max_seconds : float;  (** one global budget for the whole search *)
  scenarios : int;  (** optimization scenarios (the front ends' [PKGQ_SCENARIOS]) *)
  validation : int;  (** held-out scenarios ([PKGQ_VALIDATE]) *)
  summaries : int;  (** initial summary count [m] ([PKGQ_SUMMARIES]) *)
  max_summaries : int;  (** doubling cap for [m] *)
  seed : int;  (** scenario PRNG seed *)
  noise : Datagen.Scenario.spec list option;
      (** noise model; [None] derives {!Datagen.Scenario.default_specs}
          over the noisy attributes the query reads *)
}

(** Defaults: 48 scenarios, 200 held out, 2 initial summaries, seed
    42, a 60 s budget. *)
val default_options : options

type stats = {
  st_scenarios : int;
  st_validation : int;
  st_summaries : int;  (** final summary count per constraint *)
  st_rounds : int;  (** SummarySearch iterations (solve + validate) *)
  st_validated : float;
      (** worst per-constraint empirical probability of the final
          package on the held-out set (0 when no package) *)
}

(** [run ?options spec rel] — a report, never an exception. A
    non-stochastic spec delegates to {!Direct.run} (empty stats).
    Deterministic for fixed options: scenario streams are derived
    per-index from the seed, independent of worker counts. *)
val run :
  ?options:options ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Eval.report * stats

(** [summary_ilp ?options spec rel] is the first summary ILP {!run}
    hands the solver: one integral column per candidate, the
    deterministic rows, then [options.summaries] summary rows per
    probabilistic constraint over its [ceil (p * S)] covered scenarios.
    [Error] carries a scenario-generation failure. *)
val summary_ilp :
  ?options:options ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  (Lp.Problem.t, string) result

(** [run_naive ?options spec rel] solves the full scenario-expanded
    ILP: one big-M indicator per (constraint, scenario), a violation
    budget of [floor((1-p) * S)] per constraint. Exact on the
    optimization set but scales with the scenario count — the bench
    baseline SummarySearch is measured against. Requires a finite
    [REPEAT] bound (typed [Data_error] otherwise). The answer is
    validated on the same held-out set ([st_validated]). *)
val run_naive :
  ?options:options ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Eval.report * stats
