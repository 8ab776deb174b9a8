(* Progressive shading (arXiv:2307.02860 §5): solve the package query
   coarse-to-fine over a partition hierarchy.

   The coarsest level's sketch ILP is tiny and cheap. Its solution
   names the groups that matter; only their children (plus a slice of
   "near-binding" runners-up, to hedge against the coarse reps lying)
   get variables at the next level. The leaf level's sketch is then
   refined into original tuples exactly as SketchRefine does. Tight
   constraints that a flat, coarse sketch cannot express (group means
   smooth away the tail tuples the query needs) become reachable
   because the descent buys fine leaves only where the solution lives.

   Resilience: one absolute deadline covers the whole descent (every
   ILP clamps to the remaining budget via [Faults.solve]); a failed or
   injected level solve widens that level to all groups and retries
   once, surfacing as a typed [Degraded] answer; anything unrecoverable
   is a typed [Failed] report, never an exception. *)

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
  | Sketched of Sketch.ctx * float array
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
     shade groups out). Returns [`Counts rep_counts | `Infeasible |
     `Failed f]. *)
  let solve_level ~level ctx ~pristine ~restricted =
    let t0 = Unix.gettimeofday () in
    let record ~widened ~counts =
      let groups = ref 0 and active = ref 0 in
      Array.iter (fun c -> if c > 0. then incr groups) ctx.Sketch.caps;
      (match counts with
      | Some rc -> Array.iter (fun c -> if c > 0.5 then incr active) rc
      | None -> ());
      stats :=
        {
          ls_level = level;
          ls_groups = !groups;
          ls_active = !active;
          ls_seconds = Unix.gettimeofday () -. t0;
          ls_widened = widened;
        }
        :: !stats
    in
    let widen () =
      Array.blit pristine 0 ctx.Sketch.caps 0 (Array.length pristine)
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
    | Sketch.Sketched rc ->
      record ~widened:false ~counts:(Some rc);
      `Counts rc
    | Sketch.Sketch_infeasible when narrowed -> (
      (* the shading was too aggressive for this query: retry over the
         whole level before concluding anything *)
      widen ();
      Log.info (fun k -> k "level %d infeasible when shaded; widening" level);
      match sketch_level ~level ctx with
      | Sketch.Sketched rc ->
        record ~widened:true ~counts:(Some rc);
        `Counts rc
      | Sketch.Sketch_infeasible ->
        record ~widened:true ~counts:None;
        `Infeasible
      | Sketch.Sketch_failed f ->
        record ~widened:true ~counts:None;
        `Failed f)
    | Sketch.Sketch_infeasible ->
      record ~widened:false ~counts:None;
      `Infeasible
    | Sketch.Sketch_failed f when f.Eval.kind <> Eval.Deadline_exceeded -> (
      (* a failed restricted solve (injected fault, node budget) is
         retried once over the full level: slower but sturdier. The
         answer is then flagged degraded — the descent lost its
         shading at this level. *)
      widen ();
      Log.info (fun k ->
          k "level %d sketch failed (%a); retrying widened" level
            Eval.pp_failure f);
      match sketch_level ~level ctx with
      | Sketch.Sketched rc ->
        degraded :=
          Format.asprintf "level %d sketch failed (%a), solved widened" level
            Eval.pp_failure f
          :: !degraded;
        record ~widened:true ~counts:(Some rc);
        `Counts rc
      | Sketch.Sketch_infeasible ->
        record ~widened:true ~counts:None;
        `Infeasible
      | Sketch.Sketch_failed f' ->
        record ~widened:true ~counts:None;
        `Failed f')
    | Sketch.Sketch_failed f ->
      record ~widened:false ~counts:None;
      `Failed f
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
      | `Failed f -> Failed f
      | `Infeasible when l = nlevels - 1 ->
        (* infeasible over the full leaf level: the same verdict flat
           SketchRefine's plain sketch would reach *)
        Infeasible
      | `Infeasible ->
        (* means at this granularity cannot express the query; descend
           unshaded — finer reps may still manage *)
        Log.info (fun k ->
            k "level %d infeasible at full width; descending unshaded" l);
        level (l + 1) None
      | `Counts rep_counts when l = nlevels - 1 -> Sketched (ctx, rep_counts)
      | `Counts rep_counts ->
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

let run ?(options = default_options) spec rel (hier : Hierarchy.t) =
  let start = Unix.gettimeofday () in
  let deadline = start +. options.max_seconds in
  let counters = Eval.fresh_counters () in
  let d =
    descend ~limits:options.limits ~keep:options.keep ~deadline
      ~level_ctx:(fun l -> Sketch.make_ctx spec rel (Hierarchy.level hier l))
      hier counters
  in
  let finish status package objective =
    ( Eval.report ~status ~package ~objective
        ~wall_time:(Unix.gettimeofday () -. start)
        ~counters,
      d.levels )
  in
  match d.outcome with
  | Failed f -> finish (Eval.Failed f) None None
  | Infeasible -> finish Eval.Infeasible None None
  | Sketched (ctx, rep_counts) -> (
    (* leaf: refine the sketch into original tuples *)
    let m = Partition.num_groups ctx.Sketch.part in
    try
      match
        Eval.observe_stage Eval.Refine (fun () ->
            Refine.run ~deadline
              ~solve:
                (Refine.local ~limits:options.limits ~deadline
                   ~bases:(Array.make m None) ctx counters)
              ctx counters ~rep_counts ~refined:(Array.make m None))
      with
      | Refine.Refined p ->
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
        finish status (Some p) (Some (Package.objective spec p))
      | Refine.Refine_failed f -> finish (Eval.Failed f) None None
      | Refine.Refine_infeasible ->
        (* Dead end: hand the leaf partitioning to flat SketchRefine,
           whose ladder starts with the full-width sketch and refine;
           its answer carries the descent's work and time too *)
        if Unix.gettimeofday () > deadline then
          finish Eval.Infeasible None None
        else begin
          Log.info (fun k ->
              k "leaf refine dead end; flat fallback over %d groups" m);
          let options =
            {
              Sketch_refine.default_options with
              limits = options.limits;
              max_seconds = deadline -. Unix.gettimeofday ();
            }
          in
          let r = Sketch_refine.run ~options spec rel ctx.Sketch.part in
          Eval.absorb counters r.Eval.counters;
          finish r.Eval.status r.Eval.package r.Eval.objective
        end
    with e ->
      let msg =
        match e with Faults.Injected msg -> msg | e -> Printexc.to_string e
      in
      finish
        (Eval.failed ~stage:Eval.Progressive (Eval.Solver_error msg))
        None None)
