(** The SKETCH step (Section 4.2.1): solve the package query over the
    representative relation, with per-representative multiplicity caps
    of [|Gj| * (1 + K)] accounting for the repetition constraint. *)

(** Evaluation context shared by SKETCH and REFINE: per-group candidate
    rows (base-predicate filtered) and representative caps. Groups
    whose candidates were all filtered out get a zero cap, so their
    representatives can never be picked. *)
type ctx = {
  spec : Paql.Translate.spec;
  rel : Relalg.Relation.t;
  part : Partition.t;
  cand : int array array;  (** per-group candidate row ids *)
  caps : float array;      (** per-group sketch multiplicity cap *)
  coeff_rel : (int -> float) array;
      (** per-constraint row-coefficient accessors over [rel], bound to
          its cached columns once so REFINE's repeated partial-package
          aggregations avoid per-tuple interpretation *)
  coeff_reps : (int -> float) array;
      (** same, over the representative relation [part.reps] *)
}

val make_ctx :
  Paql.Translate.spec -> Relalg.Relation.t -> Partition.t -> ctx

(** [light_ctx spec rel part ~caps] is a context with the given caps
    and no candidate rows: enough for the sketch ILP and the refine's
    offsets, not for a query over original tuples. The shard
    coordinator's, whose caps come from its SKETCH scatter. *)
val light_ctx :
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Partition.t ->
  caps:float array ->
  ctx

type result =
  | Sketched of float array
      (** per-group multiplicity of each representative *)
  | Sketch_infeasible
  | Sketch_failed of Eval.failure

(** [problem ctx] is the sketch query [Q[R~]] as an ILP whose variable
    [k] counts the representative of group [groups.(k)]: only groups
    with a nonzero cap get one. *)
val problem : ctx -> int array * Lp.Problem.t

(** [run ?limits ?deadline ?warm ?basis_out ?stage ctx counters] solves
    the sketch query [Q[R~]] through {!Faults.solve}; [deadline] clamps
    the ILP's time budget to the remaining global budget. [warm] seeds
    the root LP from a saved basis and [basis_out] receives the root's
    optimal basis (the progressive driver threads them level to level —
    a basis whose dimensions no longer match degrades to a cold solve
    inside the simplex). [stage] (default {!Eval.Sketch}) tags
    fault-injection matching and failure context. *)
val run :
  ?limits:Ilp.Branch_bound.limits ->
  ?deadline:float ->
  ?warm:Lp.Simplex.Basis.t ->
  ?basis_out:Lp.Simplex.Basis.t option ref ->
  ?stage:Eval.stage ->
  ctx ->
  Eval.counters ->
  result

(** [group_counts ctx x ~groups] maps an ILP solution over the listed
    group ids back to a per-group (all groups) count array. *)
val group_counts : ctx -> float array -> groups:int array -> float array
