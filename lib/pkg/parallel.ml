let src = Logs.Src.create "pkgq.parallel" ~doc:"Parallel refinement driver"

module Log = (val Logs.src_log src : Logs.LOG)

let run ?(options = Sketch_refine.default_options) ?domains spec rel partition
    =
  let start = Unix.gettimeofday () in
  let deadline = start +. options.Sketch_refine.max_seconds in
  let limits = options.Sketch_refine.limits in
  let counters = Eval.fresh_counters () in
  let finish status package objective =
    Eval.report ~status ~package ~objective
      ~wall_time:(Unix.gettimeofday () -. start)
      ~counters
  in
  let sequential_fallback () =
    (* keep the already-spent counters visible in the final report, and
       hand the ladder only the budget that is actually left *)
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then
      finish (Eval.failed ~stage:Eval.Fallback Eval.Deadline_exceeded) None None
    else begin
      let options = { options with Sketch_refine.max_seconds = remaining } in
      let r = Sketch_refine.run ~options spec rel partition in
      Eval.absorb counters r.Eval.counters;
      finish r.Eval.status r.Eval.package r.Eval.objective
    end
  in
  let evaluate () =
    let ctx = Sketch.make_ctx spec rel partition in
    let m = Partition.num_groups partition in
    match Sketch.run ~limits ~deadline ctx counters with
    | Sketch.Sketch_failed f -> finish (Eval.Failed f) None None
    | Sketch.Sketch_infeasible ->
      (* nothing to parallelize; use the sequential fallback ladder *)
      sequential_fallback ()
    | Sketch.Sketched rep_counts ->
      let todo =
        Array.of_list
          (List.filter (fun j -> rep_counts.(j) > 0.) (List.init m Fun.id))
      in
      let k = Array.length todo in
      if k = 0 then
        (* empty package already complete *)
        finish Eval.Optimal
          (Some (Package.make rel []))
          (Some (Package.objective spec (Package.make rel [])))
      else begin
        (* Phase 1: optimistic parallel refinement against the initial
           sketch assignment. Each worker gets its own counters; results
           land in a pre-sized array, so no synchronization is needed
           beyond the joins. A worker body never lets an exception
           escape: a crash marks the worker's remaining stripe [`Failed]
           and the groups are repaired in Phase 3. *)
        let initial = Array.make m None in
        let results :
            [ `Feasible of (int * int) list
            | `Infeasible
            | `Failed of Eval.failure ]
            array =
          Array.make k `Infeasible
        in
        let workers =
          let requested =
            match domains with
            | Some d -> d
            | None -> Domain.recommended_domain_count ()
          in
          max 1 (min k requested)
        in
        let worker_counters =
          Array.init workers (fun _ -> Eval.fresh_counters ())
        in
        let spawn w =
          Domain.spawn (fun () ->
              let i = ref w in
              try
                if Faults.worker_should_crash w then
                  raise
                    (Faults.Injected
                       (Printf.sprintf "worker %d killed by fault injection" w));
                (* cold solves: each group is solved once, against the
                   initial sketch *)
                let solve =
                  Refine.local ~limits ~deadline ~stage:Eval.Parallel ctx
                    worker_counters.(w)
                in
                while !i < k do
                  let j = todo.(!i) in
                  results.(!i) <-
                    solve j
                      (Refine.offsets ctx ~rep_counts ~refined:initial j);
                  i := !i + workers
                done
              with e ->
                let f =
                  Eval.failure ~stage:Eval.Parallel ~worker:w
                    (Eval.Worker_crash (Printexc.to_string e))
                in
                while !i < k do
                  results.(!i) <- `Failed f;
                  i := !i + workers
                done)
        in
        let handles = List.init workers spawn in
        (* join every domain even if one join raises — a leaked domain
           would keep mutating [results] under our feet *)
        List.iter
          (fun h ->
            try Domain.join h
            with e ->
              Log.warn (fun k ->
                  k "worker domain died: %s" (Printexc.to_string e)))
          handles;
        Array.iter
          (fun wc ->
            counters.Eval.ilp_calls <-
              counters.Eval.ilp_calls + wc.Eval.ilp_calls;
            counters.Eval.nodes <- counters.Eval.nodes + wc.Eval.nodes;
            counters.Eval.simplex_iterations <-
              counters.Eval.simplex_iterations + wc.Eval.simplex_iterations)
          worker_counters;
        (* Phase 2: sequential validation — accept a group's parallel
           answer only if the assignment stays within every global
           constraint once merged (remaining groups still represented). *)
        let merged_reps = Array.copy rep_counts in
        let merged_refined = Array.make m None in
        let rejected = ref [] in
        Array.iteri
          (fun i j ->
            match results.(i) with
            | `Feasible entries ->
              let saved = merged_reps.(j) in
              merged_reps.(j) <- 0.;
              merged_refined.(j) <- Some entries;
              let totals =
                Refine.totals ctx ~rep_counts:merged_reps
                  ~refined:merged_refined
              in
              if not (Refine.within_bounds ctx totals) then begin
                (* the optimistic answer no longer fits: undo *)
                merged_reps.(j) <- saved;
                merged_refined.(j) <- None;
                rejected := j :: !rejected
              end
            | `Infeasible -> rejected := j :: !rejected
            | `Failed _ -> rejected := j :: !rejected)
          todo;
        (* Phase 3: repair the rejected groups sequentially (Algorithm 2
           from the merged state). *)
        match
          Refine.run ~deadline ~stage:Eval.Repair
            ~solve:
              (Refine.local ~limits ~deadline ~stage:Eval.Repair
                 ~bases:(Array.make m None) ctx counters)
            ctx counters ~rep_counts:merged_reps ~refined:merged_refined
        with
        | Refine.Refined p ->
          finish Eval.Optimal (Some p) (Some (Package.objective spec p))
        | Refine.Refine_infeasible ->
          (* the paper's warning realized: local decisions reached
             infeasibility — fall back to the sequential ladder *)
          sequential_fallback ()
        | Refine.Refine_failed f -> finish (Eval.Failed f) None None
      end
  in
  (* The resilience contract: a report, never an exception. *)
  try evaluate () with
  | Faults.Injected msg ->
    finish (Eval.failed (Eval.Solver_error msg)) None None
  | e -> finish (Eval.failed (Eval.Solver_error (Printexc.to_string e))) None None
