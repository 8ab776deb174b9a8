(* Progressive shading (arXiv:2307.02860 §5): solve the package query
   coarse-to-fine over a partition hierarchy.

   The coarsest level's sketch ILP is tiny and cheap. Its solution
   names the groups that matter; only their children (plus a slice of
   "near-binding" runners-up, to hedge against the coarse reps lying)
   get variables at the next level. The leaf level's sketch seeds the
   SketchRefine driver, which refines it into original tuples. Tight
   constraints that a flat, coarse sketch cannot express (group means
   smooth away the tail tuples the query needs) become reachable
   because the descent buys fine leaves only where the solution lives.
   The degradation ladder is documented in the interface. *)

let src = Logs.Src.create "pkgq.progressive" ~doc:"Progressive evaluation"

module Log = (val Logs.src_log src : Logs.LOG)

type options = {
  limits : Ilp.Branch_bound.limits;
  max_seconds : float;
  keep : float;
      (* near-binding augmentation: fraction of the active-group count
         worth of inactive runners-up whose children also descend *)
}

let default_options =
  { limits = Ilp.Branch_bound.default_limits; max_seconds = 3600.; keep = 0.5 }

(* Per-level descent telemetry (surfaced as server STATS gauges). *)
type level_stat = {
  ls_level : int;
  ls_groups : int;   (* groups that had variables *)
  ls_active : int;   (* groups active in the level's solution *)
  ls_seconds : float;
  ls_widened : bool; (* the level had to widen to all groups *)
}

(* Rank the inactive-but-eligible groups by how attractive their
   representative is to the objective (sense-adjusted, ties by gid):
   the runners-up most likely to become binding one level finer. *)
let runners_up (ctx : Sketch.ctx) ~eligible ~active ~n =
  if n <= 0 then []
  else begin
    let reps = ctx.Sketch.part.Partition.reps in
    let obj = ctx.Sketch.spec.Paql.Translate.objective_rows reps in
    let sense = Paql.Translate.objective_sense ctx.Sketch.spec in
    let score g =
      match sense with
      | Lp.Problem.Maximize -> obj g
      | Lp.Problem.Minimize -> -.obj g
    in
    let cands =
      List.filter (fun g -> eligible g && not (active g))
        (List.init (Partition.num_groups ctx.Sketch.part) Fun.id)
    in
    let ranked =
      List.sort
        (fun a b ->
          let c = Float.compare (score b) (score a) in
          if c <> 0 then c else Int.compare a b)
        cands
    in
    List.filteri (fun i _ -> i < n) ranked
  end

type outcome =
  | Sketched of { ctx : Sketch.ctx; rep_counts : float array; shaded : bool }
  | Infeasible
  | Failed of Eval.failure

type descent = {
  outcome : outcome;
  levels : level_stat list;
  degraded : string list;
}

let descend ?limits ?(keep = default_options.keep) ~deadline ~level_ctx
    (hier : Hierarchy.t) counters =
  let stats : level_stat list ref = ref [] in
  let degraded : string list ref = ref [] in
  let finish outcome =
    { outcome; levels = List.rev !stats; degraded = List.rev !degraded }
  in
  let out_of_time () = Unix.gettimeofday () > deadline in
  let nlevels = Hierarchy.num_levels hier in
  (* The cross-level warm-start thread: each level's root basis seeds
     the next solve; a dimension mismatch degrades to a cold solve
     inside the simplex, so this is free insurance, not a correctness
     dependency. *)
  let basis = ref None in
  let sketch_level ~level ctx =
    let basis_out = ref None in
    let r =
      if Faults.take_level_fault level then
        Sketch.Sketch_failed
          (Eval.failure ~stage:Eval.Progressive ~group:level
             (Eval.Solver_error
                (Printf.sprintf "injected descent fault at level %d" level)))
      else
        Eval.observe_stage Eval.Progressive (fun () ->
            Sketch.run ?limits ~deadline ?warm:!basis ~basis_out
              ~stage:Eval.Progressive ctx counters)
    in
    (match !basis_out with Some _ as b -> basis := b | None -> ());
    r
  in
  (* Solve one level, widening to the full level once if the restricted
     solve fails or comes back infeasible. [pristine] is the cap array
     as the caller built it (the caps in [ctx] are zeroed in place to
     shade groups out). The level's one telemetry entry describes its
     last solve. *)
  let solve_level ~level ctx ~pristine ~restricted =
    let t0 = Unix.gettimeofday () in
    let record ~widened r =
      let groups = ref 0 and active = ref 0 in
      Array.iter (fun c -> if c > 0. then incr groups) ctx.Sketch.caps;
      (match r with
      | Sketch.Sketched rc ->
        Array.iter (fun c -> if c > 0.5 then incr active) rc
      | Sketch.Sketch_infeasible | Sketch.Sketch_failed _ -> ());
      stats :=
        {
          ls_level = level;
          ls_groups = !groups;
          ls_active = !active;
          ls_seconds = Unix.gettimeofday () -. t0;
          ls_widened = widened;
        }
        :: !stats;
      r
    in
    let widened () =
      Array.blit pristine 0 ctx.Sketch.caps 0 (Array.length pristine);
      record ~widened:true (sketch_level ~level ctx)
    in
    (match restricted with
    | None -> ()
    | Some allowed ->
      Array.iteri
        (fun g _ -> if not allowed.(g) then ctx.Sketch.caps.(g) <- 0.)
        ctx.Sketch.caps);
    let narrowed =
      match restricted with
      | None -> false
      | Some allowed -> Array.exists (fun g -> not g) allowed
    in
    match sketch_level ~level ctx with
    | Sketch.Sketch_infeasible when narrowed ->
      (* the shading was too aggressive for this query: retry over the
         whole level before concluding anything *)
      Log.info (fun k -> k "level %d infeasible when shaded; widening" level);
      widened ()
    | Sketch.Sketch_failed f when f.Eval.kind <> Eval.Deadline_exceeded -> (
      (* a failed restricted solve (injected fault, node budget) is
         retried once over the full level: slower but sturdier. The
         answer is then flagged degraded — the descent lost its
         shading at this level. *)
      Log.info (fun k ->
          k "level %d sketch failed (%a); retrying widened" level
            Eval.pp_failure f);
      match widened () with
      | Sketch.Sketched _ as r ->
        degraded :=
          Format.asprintf "level %d sketch failed (%a), solved widened" level
            Eval.pp_failure f
          :: !degraded;
        r
      | r -> r)
    | r -> record ~widened:false r
  in
  (* [restricted]: the groups of level [l] that get variables; None =
     all groups *)
  let rec level l restricted =
    if out_of_time () then
      Failed (Eval.failure ~stage:Eval.Progressive Eval.Deadline_exceeded)
    else begin
      let ctx = level_ctx l in
      let pristine = Array.copy ctx.Sketch.caps in
      match solve_level ~level:l ctx ~pristine ~restricted with
      | Sketch.Sketch_failed f -> Failed f
      | Sketch.Sketch_infeasible when l = nlevels - 1 ->
        (* infeasible over the full leaf level: flat SketchRefine's
           plain sketch over the leaf partitioning, which [run] takes
           on to the Section 4.4 ladder *)
        Infeasible
      | Sketch.Sketch_infeasible ->
        (* means at this granularity cannot express the query; descend
           unshaded — finer reps may still manage *)
        Log.info (fun k ->
            k "level %d infeasible at full width; descending unshaded" l);
        level (l + 1) None
      | Sketch.Sketched rep_counts when l = nlevels - 1 ->
        let shaded = Array.exists2 ( <> ) pristine ctx.Sketch.caps in
        Sketched { ctx; rep_counts; shaded }
      | Sketch.Sketched rep_counts ->
        (* choose who descends: the active groups plus the most
           objective-attractive runners-up *)
        let active = Array.map (fun c -> c > 0.5) rep_counts in
        let n_active =
          Array.fold_left (fun n a -> if a then n + 1 else n) 0 active
        in
        let extra =
          runners_up ctx
            ~eligible:(fun g -> pristine.(g) > 0.)
            ~active:(fun g -> active.(g))
            ~n:(int_of_float (Float.round (keep *. float_of_int n_active)))
        in
        List.iter (fun g -> active.(g) <- true) extra;
        let children = Hierarchy.children hier l in
        let next = Hierarchy.level hier (l + 1) in
        let allowed = Array.make (Partition.num_groups next) false in
        Array.iteri
          (fun g on ->
            if on then List.iter (fun c -> allowed.(c) <- true) children.(g))
          active;
        Log.debug (fun k ->
            k "level %d: %d active (+%d runners-up) of %d; %d children" l
              n_active (List.length extra)
              (Partition.num_groups ctx.Sketch.part)
              (Array.fold_left (fun n a -> if a then n + 1 else n) 0 allowed));
        level (l + 1) (Some allowed)
    end
  in
  (* The resilience contract: an outcome, never an exception. *)
  try finish (level 0 None)
  with e ->
    let msg =
      match e with Faults.Injected msg -> msg | e -> Printexc.to_string e
    in
    finish
      (Failed (Eval.failure ~stage:Eval.Progressive (Eval.Solver_error msg)))

let seed ?tuples d ~full =
  let plain sketch = Sketch_refine.seed ?tuples ~sketch full in
  match d.outcome with
  | Failed f -> plain (Sketch.Sketch_failed f)
  | Infeasible -> plain Sketch.Sketch_infeasible
  | Sketched { ctx; rep_counts; shaded } ->
    let status =
      if d.degraded = [] then Eval.Optimal
      else
        Eval.Degraded
          {
            Eval.stale_groups = [];
            omitted_groups = [];
            detail = String.concat "; " d.degraded;
          }
    in
    if shaded then
      let refined = Array.make (Partition.num_groups ctx.Sketch.part) None in
      Sketch_refine.seed ?tuples
        ~first:{ ctx; rep_counts; refined; stage = Eval.Refine; status }
        full
    else
      (* solved full width: the leaf sketch is the plain sketch *)
      Sketch_refine.seed ?tuples ~sketch:(Sketch.Sketched rep_counts) ~status
        (Lazy.from_val ctx)

let run ?(options = default_options) spec rel (hier : Hierarchy.t) =
  let levels = ref [] in
  let seeded ~deadline counters =
    let d =
      descend ~limits:options.limits ~keep:options.keep ~deadline
        ~level_ctx:(fun l -> Sketch.make_ctx spec rel (Hierarchy.level hier l))
        hier counters
    in
    levels := d.levels;
    (* past the descent the run is flat SketchRefine over the leaf
       partitioning *)
    seed d ~full:(lazy (Sketch.make_ctx spec rel (Hierarchy.leaf hier)))
  in
  let options =
    {
      Sketch_refine.default_options with
      limits = options.limits;
      max_seconds = options.max_seconds;
    }
  in
  let report = Sketch_refine.drive ~options seeded in
  (report, !levels)
