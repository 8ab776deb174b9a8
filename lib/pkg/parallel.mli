(** Parallel SKETCHREFINE — the parallelization the paper sketches as
    future work (Section 4.5) and warns about: refining several groups
    concurrently makes only local decisions, so combined results can be
    infeasible and need repair.

    Strategy (optimistic parallel refine), as a seeded
    {!Sketch_refine.drive}:
    + the sketch runs as usual;
    + every group holding representatives is refined {e in parallel}
      (one cold ILP per group, striped over OCaml 5 domains: group [i]
      of [k] goes to worker [i mod k]), each against the {e initial} sketch
      package — i.e. every other group is assumed to contribute its
      representative aggregates;
    + a sequential validation pass merges the parallel answers in
      order, accepting a group's answer only if it still combines
      feasibly with everything merged so far (plus representatives for
      the rest);
    + rejected groups — the paper's predicted infeasibilities — are
      repaired by Algorithm 2 from the merged state (the driver's first
      rung, stage [Repair]);
    + if the repair fails too, the driver refines from the same sketch
      as flat SketchRefine does and then climbs the Section 4.4 ladder.
      An infeasible sketch goes straight to the ladder. Neither solves
      the sketch again: a run whose sketch is infeasible solves exactly
      the ILPs flat SketchRefine solves.

    The result is always a feasible package (or a principled
    infeasible/failed report), never a torn merge.

    Resilience: every ILP, Phase-1 workers' included, clamps its time
    limit to the run's one deadline (see
    {!Sketch_refine.options.max_seconds}); a worker never lets an
    exception escape — a crash (including an injected [worker=W:crash]
    fault) marks the rest of the worker's stripe [`Failed] and those
    groups are repaired; and every domain is joined before the run
    goes on. *)

(** [run ?options ?domains spec rel partition] — [domains] caps the
    worker count (default [Domain.recommended_domain_count ()],
    at most the number of groups to refine). Packages are the same for
    any [domains]. *)
val run :
  ?options:Sketch_refine.options ->
  ?domains:int ->
  Paql.Translate.spec ->
  Relalg.Relation.t ->
  Partition.t ->
  Eval.report
