(** Parallel SKETCHREFINE — the parallelization the paper sketches as
    future work (Section 4.5) and warns about: refining several groups
    concurrently makes only local decisions, so combined results can be
    infeasible and need repair.

    Strategy (optimistic parallel refine):
    + the sketch runs as usual;
    + every group holding representatives is refined {e in parallel}
      (one ILP per group, fanned out over OCaml 5 domains), each
      against the {e initial} sketch package — i.e. every other group
      is assumed to contribute its representative aggregates;
    + a sequential validation pass merges the parallel answers in
      order, accepting a group's answer only if it still combines
      feasibly with everything merged so far (plus representatives for
      the rest);
    + rejected groups — the paper's predicted infeasibilities — are
      re-refined sequentially by Algorithm 2 from the merged state;
    + if even that fails, the whole evaluation falls back to plain
      {!Sketch_refine.run} with its fallback ladder.

    The result is always a feasible package (or a principled
    infeasible/failed report), never a torn merge.

    Resilience: every ILP, Phase-1 workers' included, clamps its time
    limit to the global deadline (see
    {!Sketch_refine.options.max_seconds}); a worker body never
    lets an exception escape — a crash (including an injected
    [worker=W:crash] fault) marks the worker's stripe of groups
    [`Failed] and they are repaired in Phase 3; all domains are joined
    even when one fails; and the sequential fallback receives only the
    remaining wall budget, not a fresh one. *)

(** [run ?options ?domains spec rel partition] — [domains] caps the
    worker count (default [Domain.recommended_domain_count ()],
    at most the number of groups to refine). *)
val run :
  ?options:Sketch_refine.options ->
  ?domains:int ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Partition.t ->
  Eval.report
