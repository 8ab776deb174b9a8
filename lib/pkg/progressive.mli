(** Progressive shading (arXiv:2307.02860 §5): coarse-to-fine package
    evaluation over a {!Hierarchy.t}.

    The coarsest level's sketch ILP is solved first; at each finer
    level only the children of {e active} groups — plus a configurable
    slice of objective-attractive runners-up ("near-binding"
    augmentation) — get variables, their caps zeroed otherwise. The
    leaf sketch is refined into original tuples exactly as SketchRefine
    does (Algorithm 2, per-group warm-started ILPs). The cross-level
    LP basis is threaded through {!Faults.solve} so each level warm
    starts from its parent when the dimensions line up.

    Degradation ladder, charged to one absolute deadline:
    - a restricted level that comes back infeasible widens to the full
      level and retries (shading was too aggressive — not an error);
    - a restricted level that {e fails} (injected fault, node budget)
      retries widened and flags the answer [Degraded];
    - a full-width non-leaf infeasibility descends unshaded (finer
      representatives may still express the query);
    - past the descent, {!run} is {!Sketch_refine.drive} over the leaf
      partitioning, seeded with the descent's leaf sketch ({!seed}). A
      shaded leaf's refine dead end goes on with the full-width sketch,
      its refine and the Section 4.4 ladder; a leaf sketch solved full
      width is the plain sketch, so its dead end, or its infeasibility,
      goes straight to the ladder. Either way the run then does what
      {!Sketch_refine.run} does on {!Hierarchy.leaf} (arXiv:2307.02860
      treats SketchRefine as the one-level case);
    - everything else is a typed [Failed] report — never an exception,
      never a hang. *)

type options = {
  limits : Ilp.Branch_bound.limits;
  max_seconds : float;  (** one global budget for the whole descent *)
  keep : float;
      (** near-binding augmentation: how many inactive runners-up
          descend, as a fraction of the active-group count
          (default 0.5) *)
}

val default_options : options

(** One descent step's telemetry: one entry per level, describing its
    last solve (the widened retry, if there was one). *)
type level_stat = {
  ls_level : int;
  ls_groups : int;    (** groups that had variables *)
  ls_active : int;    (** groups active in the level's solution *)
  ls_seconds : float;
  ls_widened : bool;  (** this solve ran widened to the full level *)
}

(** How a descent ended: the leaf level's context (caps shaded to the
    descended cone) with its sketch solution, or the verdict of the
    level that stopped it. *)
type outcome =
  | Sketched of {
      ctx : Sketch.ctx;
      rep_counts : float array;
      shaded : bool;
          (** some group of the leaf lost its variable to the shading;
              [false] means the leaf sketch was solved full width *)
    }
  | Infeasible
      (** the full-width leaf sketch is infeasible. This is not the
          query's verdict: a false infeasibility of the sketch is what
          the Section 4.4 ladder, which {!run} climbs next, is for. *)
  | Failed of Eval.failure

type descent = {
  outcome : outcome;
  levels : level_stat list;  (** coarsest first *)
  degraded : string list;
      (** levels that failed and were solved widened, in order: a
          package refined from this descent is [Degraded] *)
}

(** [descend ?limits ?keep ~deadline ~level_ctx hier counters] runs the
    coarse-to-fine sketch descent ([keep] as in {!options}).
    [level_ctx l] supplies level [l]'s context: its caps decide which
    groups get variables, and a coarse group's cap is the sum of its
    children's (as {!Sketch.make_ctx} computes it). It is called at
    most once per level, and the descent zeroes the caps of shaded-out
    groups in place. [run] passes {!Sketch.make_ctx} contexts; the shard
    coordinator passes light contexts whose leaf caps come from its
    SKETCH scatter. Never raises: exceptions become [Failed]. *)
val descend :
  ?limits:Ilp.Branch_bound.limits ->
  ?keep:float ->
  deadline:float ->
  level_ctx:(int -> Sketch.ctx) ->
  Hierarchy.t ->
  Eval.counters ->
  descent

(** [seed ?tuples d ~full] is the {!Sketch_refine.drive} seed that
    goes on from descent [d] over the leaf partitioning, whose
    full-width context is [full] ([tuples] as in
    {!Sketch_refine.seed}). A shaded leaf sketch seeds a first rung; a
    leaf sketch solved full width is the plain sketch, refined and
    laddered over its own context with the same bases; [Infeasible]
    and [Failed] are the plain sketch's verdict. A package refined from
    the leaf sketch of a descent that noted a degradation is
    [Degraded]. *)
val seed :
  ?tuples:Sketch.ctx Lazy.t ->
  descent ->
  full:Sketch.ctx Lazy.t ->
  Sketch_refine.seed

(** [run ?options spec rel hier] evaluates the query coarse-to-fine:
    {!descend} with {!Sketch.make_ctx} contexts as the seed of
    {!Sketch_refine.drive} (its [fallbacks] the default
    [[Hybrid_sketch]]), so one deadline, one set of counters and one
    report cover the descent, the leaf refine and any ladder rung. A
    package refined from a descent that noted a degradation is
    [Degraded]. Returns the report plus per-level stats (coarsest
    first).
    Deterministic: identical hierarchies and options yield identical
    packages. *)
val run :
  ?options:options ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Hierarchy.t ->
  Eval.report * level_stat list
