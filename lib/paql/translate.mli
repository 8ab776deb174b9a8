(** PaQL → ILP translation (Section 3 of the paper).

    [compile] turns an analyzed query into a {!spec}: per-constraint
    and per-objective coefficient functions closed over the schema,
    plus bound information. A spec is independent of any particular
    tuple set, which is exactly what SketchRefine needs — the same
    spec is instantiated over the full relation (DIRECT), over the
    representative relation (SKETCH, with per-group cardinality caps),
    and over single groups with bound offsets from the partial package
    (REFINE). *)

type compiled_constraint = {
  coeff : Relalg.Tuple.t -> float;  (** per-tuple coefficient *)
  coeff_rows : Relalg.Relation.t -> int -> float;
      (** row-indexed variant reading the relation's cached unboxed
          columns ({!Linform.coeff_rows}); bind the relation once,
          then apply per row id — this is the fast path the ILP column
          construction uses *)
  clo : float;
  chi : float;  (** [clo <= sum_i coeff(t_i) x_i <= chi] *)
  cname : string;
  cattrs : string list;
      (** attributes the constraint reads (aggregate arguments and
          subquery filters) — used by the IIS-guided attribute-dropping
          fallback of Section 4.4 *)
}

(** One [WITH PROBABILITY] constraint of the stochastic extension
    (arXiv:2103.06784): [slo <= sum <= shi] must hold with probability
    at least [sprob] over scenario realizations of the noisy
    attributes. Kept separate from [constraints] so the deterministic
    drivers are untouched; only {!Pkg.Stochastic} consumes these. *)
type stochastic_constraint = {
  sterms : Linform.term list;
      (** normalized linear form — the stochastic driver re-derives
          per-scenario coefficients from the terms *)
  scoeff_rows : Relalg.Relation.t -> int -> float;
      (** base-realization coefficients (same contract as
          [coeff_rows]) *)
  slo : float;
  shi : float;
  sprob : float;  (** required probability, in (0, 1] *)
  sname : string;  (** ["s0"], ["s1"], ... — indexed within this class *)
  sattrs : string list;
}

type spec = {
  query : Ast.query;
  schema : Relalg.Schema.t;
  where : Relalg.Expr.t option;
  constraints : compiled_constraint list;
  stochastic : stochastic_constraint list;
      (** probabilistic constraints; empty for deterministic queries *)
  expected_objective : bool;
      (** whether the objective wraps an [EXPECTED] expression (the
          compiled [objective] reads base-realization coefficients;
          the stochastic driver substitutes scenario means) *)
  objective : (Lp.Problem.sense * (Relalg.Tuple.t -> float) * float) option;
      (** sense, per-tuple coefficient, constant offset *)
  objective_rows : Relalg.Relation.t -> int -> float;
      (** row-indexed objective coefficients (constantly [0.] when the
          query has no objective) *)
  max_count : float;
      (** repetition cap per tuple: [K+1] for [REPEAT K], [infinity]
          otherwise *)
}

(** Whether the spec has any stochastic construct ([WITH PROBABILITY]
    constraints or an [EXPECTED] objective). Front-ends route such
    specs to the stochastic driver; deterministic drivers ignore the
    stochastic fields entirely. *)
val is_stochastic : spec -> bool

(** [compile schema q] analyzes and compiles the query. *)
val compile : Relalg.Schema.t -> Ast.query -> (spec, string) result

val compile_exn : Relalg.Schema.t -> Ast.query -> spec

(** [base_candidates spec r] applies the base (WHERE) predicate,
    returning the surviving row ids — the paper's base-relation
    computation, which eliminates variables fixed to zero. *)
val base_candidates : spec -> Relalg.Relation.t -> int array

(** [to_problem spec r ~candidates] builds the ILP with one integer
    column per candidate row id, in candidate order, and one row per
    global constraint, through {!Lp.Problem.columns}.

    @param var_hi per-candidate repetition cap override (the sketch
    query's [|Gj| * (1+K)] bounds); defaults to [spec.max_count].
    @param offsets per-constraint contribution already consumed by a
    fixed partial package (the refine query's [p-bar] aggregates);
    constraint bounds are shifted by these amounts. *)
val to_problem :
  ?var_hi:(int -> float) ->
  ?offsets:float array ->
  spec ->
  Relalg.Relation.t ->
  candidates:int array ->
  Lp.Problem.t

(** [constraint_rows ?offsets spec r ~candidates] is one
    {!Lp.Problem.columns} row per global constraint, over the candidate
    row ids: [(coef, lo, hi)] with [coef k] the constraint's coefficient
    on [candidates.(k)] and the bounds shifted by [offsets] as in
    {!to_problem}. *)
val constraint_rows :
  ?offsets:float array ->
  spec ->
  Relalg.Relation.t ->
  candidates:int array ->
  ((int -> float) * float * float) list

(** [objective_sense spec] defaults to [Minimize] (vacuous objective)
    when the query has no objective clause. *)
val objective_sense : spec -> Lp.Problem.sense

(** [describe spec rel] renders an EXPLAIN-style summary: candidate
    counts after base-predicate elimination, the ILP dimensions, each
    global constraint's bounds and attributes, and the objective. *)
val describe : spec -> Relalg.Relation.t -> string
