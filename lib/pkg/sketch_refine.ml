let src = Logs.Src.create "pkgq.sketchrefine" ~doc:"SketchRefine evaluation"

module Log = (val Logs.src_log src : Logs.LOG)

type fallback = Hybrid_sketch | Drop_attributes | Merge_groups

type options = {
  limits : Ilp.Branch_bound.limits;
  max_seconds : float;
  fallbacks : fallback list;
}

let default_options =
  {
    limits = Ilp.Branch_bound.default_limits;
    max_seconds = 3600.;
    fallbacks = [ Hybrid_sketch ];
  }

(* Hybrid sketch query (Section 4.4.1): original tuples for group [j],
   representatives (with caps) for every other group, in one ILP. On
   success the package is already refined on [j]. *)
let hybrid_sketch ?limits ?deadline (ctx : Sketch.ctx) counters j =
  let rel = ctx.Sketch.rel in
  let reps = ctx.Sketch.part.Partition.reps in
  let spec = { ctx.Sketch.spec with Paql.Translate.where = None } in
  let own = ctx.Sketch.cand.(j) in
  let n_own = Array.length own in
  let m = Partition.num_groups ctx.Sketch.part in
  let other_groups =
    Array.of_list
      (List.filter (fun g -> g <> j && ctx.Sketch.caps.(g) > 0.)
         (List.init m Fun.id))
  in
  (* One ILP over two tuple sources, so not Translate.to_problem:
     columns [0, n_own) read group j's rows of [rel]; the rest read one
     rep row each — both through the cached row-coefficient accessors. *)
  let block f_rel f_reps k =
    if k < n_own then f_rel own.(k) else f_reps other_groups.(k - n_own)
  in
  let problem =
    Lp.Problem.columns
      ~sense:(Paql.Translate.objective_sense spec)
      ~obj:
        (block
           (spec.Paql.Translate.objective_rows rel)
           (spec.Paql.Translate.objective_rows reps))
      ~hi:
        (block (fun _ -> spec.Paql.Translate.max_count) (fun g ->
             ctx.Sketch.caps.(g)))
      ~rows:
        (List.mapi
           (fun ci (c : Paql.Translate.compiled_constraint) ->
             ( block ctx.Sketch.coeff_rel.(ci) ctx.Sketch.coeff_reps.(ci),
               c.Paql.Translate.clo,
               c.Paql.Translate.chi ))
           spec.Paql.Translate.constraints)
      (n_own + Array.length other_groups)
  in
  let result = Faults.solve ?limits ?deadline ~stage:Eval.Hybrid ~group:j problem in
  Eval.bump counters result;
  match result with
  | Ilp.Branch_bound.Optimal (sol, _) | Ilp.Branch_bound.Feasible (sol, _, _)
    ->
    let x = sol.Ilp.Branch_bound.x in
    let entries = ref [] in
    for k = 0 to n_own - 1 do
      let c = int_of_float (Float.round x.(k)) in
      if c > 0 then entries := (own.(k), c) :: !entries
    done;
    let rep_counts = Array.make m 0. in
    Array.iteri
      (fun i g -> rep_counts.(g) <- Float.round x.(n_own + i))
      other_groups;
    Some (List.rev !entries, rep_counts)
  | Ilp.Branch_bound.Infeasible _ | Ilp.Branch_bound.Unbounded _
  | Ilp.Branch_bound.Limit _ ->
    None

(* Partitioning attributes implicated by an IIS of the sketch ILP
   (Section 4.4.3). *)
let iis_attrs (ctx : Sketch.ctx) (counters : Eval.counters) =
  match Ilp.Iis.rows ~work:counters.Eval.lp (snd (Sketch.problem ctx)) with
  | None -> []
  | Some rows ->
    let constraints = Array.of_list ctx.Sketch.spec.Paql.Translate.constraints in
    List.concat_map
      (fun i ->
        if i < Array.length constraints then
          constraints.(i).Paql.Translate.cattrs
        else [])
      rows

(* Merge the smallest groups pairwise, halving the group count
   (Section 4.4.4). *)
let merge_groups (part : Partition.t) rel =
  let sets =
    Array.to_list part.Partition.groups
    |> List.map (fun (g : Partition.group) -> g.Partition.members)
    |> List.sort (fun a b -> compare (Array.length a) (Array.length b))
  in
  let rec pair = function
    | a :: b :: rest -> Array.append a b :: pair rest
    | [ a ] -> [ a ]
    | [] -> []
  in
  Partition.of_groups ~attrs:part.Partition.attrs rel (pair sets)

type rung = {
  ctx : Sketch.ctx;
  rep_counts : float array;
  refined : (int * int) list option array;
  stage : Eval.stage;
  status : Eval.status;
}

type seed = {
  full : Sketch.ctx Lazy.t;
  tuples : Sketch.ctx Lazy.t;
  sketch : Sketch.result option;
  status : Eval.status;
  first : rung option;
}

let seed ?tuples ?sketch ?(status = Eval.Optimal) ?first full =
  { full; tuples = Option.value tuples ~default:full; sketch; status; first }

type refiner =
  stage:Eval.stage ->
  bases:Lp.Simplex.Basis.t option array ->
  Sketch.ctx ->
  Eval.counters ->
  Refine.solver

let drive ?(options = default_options) ?refine seed =
  let start = Unix.gettimeofday () in
  (* Every ILP derives its time limit from the remaining global
     budget, so no single solve can overrun it. *)
  let deadline = start +. options.max_seconds in
  let counters = Eval.fresh_counters () in
  let finish status package objective =
    Eval.report ~status ~package ~objective
      ~wall_time:(Unix.gettimeofday () -. start)
      ~counters
  in
  let out_of_time () = Unix.gettimeofday () > deadline in
  let local ~stage ~bases ctx counters =
    Refine.local ~limits:options.limits ~deadline ~stage ~bases ctx counters
  in
  (* Algorithm 2 from a sketch state, its group queries answered by
     [solver]; [on_infeasible] is the rest of the ladder. *)
  let refine_from ?(stage = Eval.Refine) ~(solver : refiner) ~bases
      (ctx : Sketch.ctx) ~rep_counts ~refined ~status ~on_infeasible =
    match
      Eval.observe_stage stage (fun () ->
          Refine.run ~deadline ~stage
            ~solve:(solver ~stage ~bases ctx counters)
            ctx counters ~rep_counts ~refined)
    with
    | Refine.Refined p ->
      finish status (Some p) (Some (Package.objective ctx.Sketch.spec p))
    | Refine.Refine_infeasible -> on_infeasible ()
    | Refine.Refine_failed f -> finish (Eval.Failed f) None None
  in
  (* One attempt over a partitioning: its sketch ([sketch] when the
     caller already solved it), the refine from that sketch, then the
     fallback ladder. [tuples] is [ctx] with candidate rows, which the
     hybrid sketch reads; [solver] answers the group queries. *)
  let rec attempt ?sketch ?(status = Eval.Optimal) ~solver ~tuples
      (ctx : Sketch.ctx) ~fallbacks =
    let spec = ctx.Sketch.spec and rel = ctx.Sketch.rel in
    let part = ctx.Sketch.part in
    let m = Partition.num_groups part in
    Log.debug (fun k -> k "attempt: %d groups, fallbacks=%d" m
                  (List.length fallbacks));
    (* One basis slot per group, shared by every refine rung of this
       attempt (ladder re-entries via the hybrid sketch included): a
       group re-solved on a later rung warm-starts from its last
       optimal basis. A new attempt re-partitions, so bases reset. *)
    let bases = Array.make m None in
    (* a new partitioning has no owner but this process *)
    let repartitioned ctx ~fallbacks =
      attempt ~solver:local ~tuples:(Lazy.from_val ctx) ctx ~fallbacks
    in
    let rec try_hybrid j ~on_exhausted =
      if j >= m then on_exhausted ()
      else if out_of_time () then
        finish (Eval.failed ~stage:Eval.Hybrid Eval.Deadline_exceeded) None None
      else if ctx.Sketch.caps.(j) <= 0. then try_hybrid (j + 1) ~on_exhausted
      else
        match
          Eval.observe_stage Eval.Hybrid (fun () ->
              hybrid_sketch ~limits:options.limits ~deadline
                (Lazy.force tuples) counters j)
        with
        | Some (entries, rep_counts) ->
          let refined = Array.make m None in
          refined.(j) <- Some entries;
          rep_counts.(j) <- 0.;
          refine_from ~solver ~bases ctx ~rep_counts ~refined
            ~status:Eval.Optimal
            ~on_infeasible:(fun () -> try_hybrid (j + 1) ~on_exhausted)
        | None -> try_hybrid (j + 1) ~on_exhausted
    in
    (* Fallback ladder: each strategy either produces a report or
       delegates to the rest of the ladder. *)
    let rec fallback_chain = function
      | [] -> finish Eval.Infeasible None None
      | _ when out_of_time () ->
        finish (Eval.failed ~stage:Eval.Fallback Eval.Deadline_exceeded) None
          None
      | Hybrid_sketch :: rest ->
        Log.info (fun k -> k "falling back: hybrid sketch queries");
        try_hybrid 0 ~on_exhausted:(fun () -> fallback_chain rest)
      | Drop_attributes :: rest -> (
        Log.info (fun k -> k "falling back: IIS-guided attribute dropping");
        match iis_attrs ctx counters with
        | [] -> fallback_chain rest
        | bad ->
          let remaining =
            List.filter
              (fun a -> not (List.mem a bad))
              part.Partition.attrs
          in
          if remaining = [] || List.length remaining = List.length part.Partition.attrs
          then fallback_chain rest
          else begin
            let tau = max 1 (Partition.max_group_size part) in
            let coarser = Partition.create ~tau ~attrs:remaining rel in
            (* retry once with the projected partitioning; do not
               re-enter Drop_attributes *)
            repartitioned (Sketch.make_ctx spec rel coarser) ~fallbacks:rest
          end)
      | Merge_groups :: rest ->
        Log.info (fun k -> k "falling back: merging %d groups pairwise" m);
        if m <= 1 then fallback_chain rest
        else
          (* halve the group count and retry, keeping Merge_groups in
             the ladder: the recursion bottoms out at one group, where
             the hybrid/refine query is the original problem *)
          repartitioned
            (Sketch.make_ctx spec rel (merge_groups part rel))
            ~fallbacks:(Hybrid_sketch :: Merge_groups :: rest)
    in
    let sketch =
      match sketch with
      | Some s -> s
      | None ->
        Eval.observe_stage Eval.Sketch (fun () ->
            Sketch.run ~limits:options.limits ~deadline ctx counters)
    in
    match sketch with
    | Sketch.Sketched rep_counts ->
      refine_from ~solver ~bases ctx ~rep_counts ~refined:(Array.make m None)
        ~status ~on_infeasible:(fun () -> fallback_chain fallbacks)
    | Sketch.Sketch_failed f -> finish (Eval.Failed f) None None
    | Sketch.Sketch_infeasible ->
      Log.info (fun k -> k "sketch query infeasible");
      fallback_chain fallbacks
  in
  let solver = Option.value refine ~default:local in
  let first_attempt { full; tuples; sketch; status; first } =
    let plain () =
      attempt ?sketch ~status ~solver ~tuples (Lazy.force full)
        ~fallbacks:options.fallbacks
    in
    match first with
    | None -> plain ()
    | Some r ->
      (* the caller's rung refines on cold bases of its own *)
      let bases = Array.make (Partition.num_groups r.ctx.Sketch.part) None in
      refine_from ~stage:r.stage ~solver ~bases r.ctx ~rep_counts:r.rep_counts
        ~refined:r.refined ~status:r.status ~on_infeasible:plain
  in
  (* The resilience contract: a report, never an exception. *)
  try first_attempt (seed ~deadline counters) with
  | Faults.Injected msg ->
    finish (Eval.failed (Eval.Solver_error msg)) None None
  | e -> finish (Eval.failed (Eval.Solver_error (Printexc.to_string e))) None None

let run ?options spec rel partition =
  drive ?options (fun ~deadline:_ _ ->
      seed (lazy (Sketch.make_ctx spec rel partition)))
