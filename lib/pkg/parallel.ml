(* [stripe ~workers n f] evaluates [f w i] for every [i] in [\[0, n)]
   and returns the results in index order. Item [i] runs on worker
   [w = i mod workers]: one domain per worker, or the calling domain
   alone when [workers = 1]. Every domain is joined before the first
   exception a worker raised is re-raised. *)
let stripe ~workers n f =
  if workers = 1 then Array.init n (f 0)
  else begin
    let results = Array.make n None in
    let body k () =
      let i = ref k in
      while !i < n do
        results.(!i) <- Some (f k !i);
        i := !i + workers
      done
    in
    let handles = List.init workers (fun k -> Domain.spawn (body k)) in
    (* join every domain before re-raising, so none outlives the call
       still writing [results] *)
    let error = ref None in
    List.iter
      (fun h -> try Domain.join h with e -> if !error = None then error := Some e)
      handles;
    Option.iter raise !error;
    Array.map (function Some r -> r | None -> assert false) results
  end

(* Phases 1 and 2 from the sketch [rep_counts]: every group holding
   representatives is refined in parallel against the initial sketch,
   then the answers are merged in group order, keeping one only if the
   merged package stays within every global constraint. Returns the
   merged state as the driver's first rung: Phase 3 repairs the groups
   left represented. *)
let merged ~limits ~deadline ?domains (ctx : Sketch.ctx) counters rep_counts =
  let m = Partition.num_groups ctx.Sketch.part in
  let todo =
    Array.of_list
      (List.filter (fun j -> rep_counts.(j) > 0.) (List.init m Fun.id))
  in
  let k = Array.length todo in
  (* Phase 1: cold solves, each group once, against the initial sketch.
     A worker never lets an exception escape: a crash (an injected
     [worker=W:crash] included) marks the rest of its stripe [`Failed]
     and Phase 3 repairs those groups. *)
  let initial = Array.make m None in
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let workers = max 1 (min k requested) in
  let worker_counters = Array.init workers (fun _ -> Eval.fresh_counters ()) in
  let crashed = Array.make workers None in
  let results =
    stripe ~workers k (fun w i ->
        match crashed.(w) with
        | Some f -> `Failed f
        | None -> (
          try
            if i = w && Faults.worker_should_crash w then
              raise
                (Faults.Injected
                   (Printf.sprintf "worker %d killed by fault injection" w));
            let j = todo.(i) in
            Refine.local ~limits ~deadline ~stage:Eval.Parallel ctx
              worker_counters.(w) j
              (Refine.offsets ctx ~rep_counts ~refined:initial j)
          with e ->
            let f =
              Eval.failure ~stage:Eval.Parallel ~worker:w
                (Eval.Worker_crash (Printexc.to_string e))
            in
            crashed.(w) <- Some f;
            `Failed f))
  in
  Array.iter (Eval.absorb counters) worker_counters;
  (* Phase 2: sequential validation — accept a group's parallel answer
     only if the assignment stays within every global constraint once
     merged (remaining groups still represented). *)
  let merged_reps = Array.copy rep_counts in
  let merged_refined = Array.make m None in
  Array.iteri
    (fun i j ->
      match results.(i) with
      | `Feasible entries ->
        merged_reps.(j) <- 0.;
        merged_refined.(j) <- Some entries;
        let totals =
          Refine.totals ctx ~rep_counts:merged_reps ~refined:merged_refined
        in
        if not (Refine.within_bounds ctx totals) then begin
          (* the optimistic answer no longer fits: undo *)
          merged_reps.(j) <- rep_counts.(j);
          merged_refined.(j) <- None
        end
      | `Infeasible | `Failed _ -> ())
    todo;
  {
    Sketch_refine.ctx;
    rep_counts = merged_reps;
    refined = merged_refined;
    stage = Eval.Repair;
    status = Eval.Optimal;
  }

let run ?(options = Sketch_refine.default_options) ?domains spec rel partition
    =
  let limits = options.Sketch_refine.limits in
  Sketch_refine.drive ~options (fun ~deadline counters ->
      let ctx = Sketch.make_ctx spec rel partition in
      let sketch =
        Eval.observe_stage Eval.Sketch (fun () ->
            Sketch.run ~limits ~deadline ctx counters)
      in
      let first =
        match sketch with
        | Sketch.Sketched rep_counts ->
          Some (merged ~limits ~deadline ?domains ctx counters rep_counts)
        | Sketch.Sketch_infeasible | Sketch.Sketch_failed _ -> None
      in
      Sketch_refine.seed ~sketch ?first (Lazy.from_val ctx))
