type result =
  | Refined of Package.t
  | Refine_infeasible
  | Refine_failed of Eval.failure

type solved =
  [ `Feasible of (int * int) list | `Infeasible | `Failed of Eval.failure ]

type answer = [ solved | `Unreachable ]

type solver = int -> float array -> answer

(* Contribution of group [j]'s current contents to constraint [ci]: a
   group is either still represented by [rep_counts.(j)] copies of its
   representative, or fixed to original tuples [refined.(j) = Some
   entries]. Read through the ctx's precomputed row-coefficient
   accessors. *)
let group_contribution (ctx : Sketch.ctx) rep_counts refined j ci =
  match refined.(j) with
  | Some entries ->
    let f = ctx.Sketch.coeff_rel.(ci) in
    List.fold_left
      (fun acc (row, cnt) -> acc +. (float_of_int cnt *. f row))
      0. entries
  | None ->
    if rep_counts.(j) = 0. then 0.
    else rep_counts.(j) *. ctx.Sketch.coeff_reps.(ci) j

(* Per-constraint aggregates of every group but [except] (none when
   [except] is not a group id), summed in group order. *)
let aggregate ctx ~rep_counts ~refined ~except =
  let m = Partition.num_groups ctx.Sketch.part in
  Array.init (Array.length ctx.Sketch.coeff_rel) (fun ci ->
      let acc = ref 0. in
      for i = 0 to m - 1 do
        if i <> except then
          acc := !acc +. group_contribution ctx rep_counts refined i ci
      done;
      !acc)

let offsets ctx ~rep_counts ~refined j =
  aggregate ctx ~rep_counts ~refined ~except:j

let totals ctx ~rep_counts ~refined =
  aggregate ctx ~rep_counts ~refined ~except:(-1)

let within_bounds ?(tol = 1e-6) ctx values =
  List.for_all2
    (fun (c : Paql.Translate.compiled_constraint) v ->
      v >= c.Paql.Translate.clo -. tol && v <= c.Paql.Translate.chi +. tol)
    ctx.Sketch.spec.Paql.Translate.constraints
    (Array.to_list values)

(* The refine query Q[Gj]: pick original tuples from group j that
   combine with the rest of the package (the [offsets]) to satisfy the
   query. [bases.(j)] caches the optimal root basis of the group's last
   solve: its candidate columns never change across backtracking
   re-solves (only the constraint-bound offsets move), so the next
   solve for the same group warm-starts from it. *)
let local ?limits ?deadline ?(stage = Eval.Refine) ?bases (ctx : Sketch.ctx)
    counters j offsets =
  let candidates = ctx.Sketch.cand.(j) in
  let problem =
    Paql.Translate.to_problem ~offsets
      { ctx.Sketch.spec with Paql.Translate.where = None }
      ctx.Sketch.rel ~candidates
  in
  let result =
    match bases with
    | None -> Faults.solve ?limits ?deadline ~stage ~group:j problem
    | Some bases ->
      let basis_out = ref None in
      let r =
        Faults.solve ?limits ?deadline ?warm:bases.(j) ~basis_out ~stage
          ~group:j problem
      in
      (match !basis_out with Some _ as b -> bases.(j) <- b | None -> ());
      r
  in
  Eval.bump counters result;
  match result with
  | Ilp.Branch_bound.Optimal (sol, _) | Ilp.Branch_bound.Feasible (sol, _, _)
    ->
    let entries = ref [] in
    Array.iteri
      (fun k row ->
        let c = int_of_float (Float.round sol.Ilp.Branch_bound.x.(k)) in
        if c > 0 then entries := (row, c) :: !entries)
      candidates;
    `Feasible (List.rev !entries)
  | Ilp.Branch_bound.Infeasible _ -> `Infeasible
  | Ilp.Branch_bound.Unbounded _ ->
    `Failed
      (Eval.failure ~stage ~group:j
         (Eval.Solver_error "refine query unbounded"))
  | Ilp.Branch_bound.Limit st -> `Failed (Eval.limit_failure ~stage ~group:j st)

(* Algorithm 2. [todo] holds every group still carrying representatives.
   Each loop iteration speculatively refines one group and recurses on
   the rest; a child failure undoes the choice and reorders the
   remaining alternatives so that non-refinable groups come first. At a
   non-root level the first infeasible refine query aborts the level
   (the paper's line 17); at the root we keep trying other first
   groups. The per-level queue only shrinks, so the search is finite
   (worst case, all orderings — as the paper notes). [budget] caps the
   total number of failed refine queries: greedy backtracking is
   worst-case factorial, and past the budget we declare (possibly
   false) infeasibility so the caller can fall back to the hybrid
   sketch, which re-anchors the search on real tuples. *)
let run ?deadline ?(max_backtracks = 256) ?(stage = Eval.Refine) ~solve ctx
    counters ~rep_counts ~refined =
  let exception Deadline in
  let exception Solver_failure of Eval.failure in
  let exception Budget_exhausted in
  let exception Unreachable of int in
  let refine_group j =
    (match deadline with
    | Some d when Unix.gettimeofday () > d -> raise Deadline
    | _ -> ());
    solve j (offsets ctx ~rep_counts ~refined j)
  in
  let rec refine_level ~budget ~at_root todo =
    match todo with
    | [] -> Ok ()
    | _ ->
      let failed = ref [] in
      let queue = ref todo in
      let result = ref None in
      while !result = None && !queue <> [] do
        let j, rest =
          match !queue with j :: rest -> j, rest | [] -> assert false
        in
        queue := rest;
        match refine_group j with
        | `Failed f -> raise (Solver_failure f)
        | `Unreachable -> raise (Unreachable j)
        | `Infeasible ->
          counters.Eval.backtracks <- counters.Eval.backtracks + 1;
          if counters.Eval.backtracks > budget then raise Budget_exhausted;
          failed := j :: !failed;
          if not at_root then result := Some (Error !failed)
        | `Feasible entries -> (
          let saved_rep = rep_counts.(j) in
          refined.(j) <- Some entries;
          rep_counts.(j) <- 0.;
          let undo () =
            refined.(j) <- None;
            rep_counts.(j) <- saved_rep
          in
          let child_todo = List.filter (fun g -> g <> j) todo in
          match refine_level ~budget ~at_root:false child_todo with
          | Ok () -> result := Some (Ok ())
          | exception (Unreachable _ as e) ->
            (* leave the state as the search found it *)
            undo ();
            raise e
          | Error f ->
            (* undo the speculative refinement and greedily prioritize
               the groups that could not be refined below *)
            undo ();
            failed := f @ !failed;
            let prioritized, others =
              List.partition (fun g -> List.mem g f) !queue
            in
            queue := prioritized @ others)
      done;
      (match !result with Some r -> r | None -> Error !failed)
  in
  (* Refine biggest representative multiplicities first: they constrain
     the remaining groups the most. (The initial order is arbitrary per
     the paper; this deterministic choice keeps runs reproducible.) An
     unreachable group is dropped from the package and the search
     starts over without it: at most one restart per group. *)
  let rec search () =
    let budget = counters.Eval.backtracks + max_backtracks in
    let todo =
      List.filter
        (fun j -> refined.(j) = None && rep_counts.(j) > 0.)
        (List.init (Partition.num_groups ctx.Sketch.part) Fun.id)
      |> List.sort (fun a b -> compare rep_counts.(b) rep_counts.(a))
    in
    match refine_level ~budget ~at_root:true todo with
    | Ok () ->
      let entries =
        Array.to_list refined
        |> List.concat_map (function Some e -> e | None -> [])
      in
      Refined (Package.make ctx.Sketch.rel entries)
    | Error _ | (exception Budget_exhausted) -> Refine_infeasible
    | exception Deadline ->
      Refine_failed (Eval.failure ~stage Eval.Deadline_exceeded)
    | exception Solver_failure f -> Refine_failed f
    | exception Unreachable j ->
      rep_counts.(j) <- 0.;
      search ()
  in
  search ()
