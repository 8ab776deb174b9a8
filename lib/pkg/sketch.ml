type ctx = {
  spec : Paql.Translate.spec;
  rel : Relalg.Relation.t;
  part : Partition.t;
  cand : int array array;
  caps : float array;
  coeff_rel : (int -> float) array;
  coeff_reps : (int -> float) array;
}

let coeffs spec r =
  Array.of_list
    (List.map
       (fun (c : Paql.Translate.compiled_constraint) ->
         c.Paql.Translate.coeff_rows r)
       spec.Paql.Translate.constraints)

let light_ctx spec rel (part : Partition.t) ~caps =
  {
    spec;
    rel;
    part;
    cand = Array.make (Array.length caps) [||];
    caps;
    coeff_rel = coeffs spec rel;
    coeff_reps = coeffs spec part.Partition.reps;
  }

let make_ctx spec rel (part : Partition.t) =
  let keep =
    match spec.Paql.Translate.where with
    | None -> fun _ -> true
    | Some pred ->
      (* one vectorized pass over the whole relation, then O(1) member
         lookups while filtering each group *)
      let mask, _ = Relalg.Relation.select_mask rel pred in
      fun row -> Bytes.unsafe_get mask row = '\001'
  in
  let cand =
    Array.map
      (fun (g : Partition.group) ->
        Array.of_list (List.filter keep (Array.to_list g.Partition.members)))
      part.Partition.groups
  in
  let coeff_rel = coeffs spec rel in
  let coeff_reps = coeffs spec part.Partition.reps in
  let caps =
    Array.map
      (fun c ->
        let size = float_of_int (Array.length c) in
        (* REPEAT K lets each of the |Gj| candidates appear K+1 times.
           Guard the empty group: [0 * infinity] is NaN. *)
        if size = 0. then 0. else size *. spec.Paql.Translate.max_count)
      cand
  in
  { spec; rel; part; cand; caps; coeff_rel; coeff_reps }

type result =
  | Sketched of float array
  | Sketch_infeasible
  | Sketch_failed of Eval.failure

let group_counts ctx x ~groups =
  let counts = Array.make (Partition.num_groups ctx.part) 0. in
  Array.iteri (fun k gid -> counts.(gid) <- x.(k)) groups;
  counts

let problem ctx =
  let m = Partition.num_groups ctx.part in
  (* Only groups with a nonzero cap get a variable. *)
  let groups =
    Array.of_list
      (List.filter (fun g -> ctx.caps.(g) > 0.) (List.init m Fun.id))
  in
  (* The sketch ILP ranges over representative tuples: reuse the query
     translation with the representative relation as candidate source
     and the group caps as variable bounds. The WHERE clause is not
     re-applied to representatives: filtering already happened on the
     original tuples, via the caps. *)
  ( groups,
    Paql.Translate.to_problem
      ~var_hi:(fun k -> ctx.caps.(groups.(k)))
      { ctx.spec with Paql.Translate.where = None }
      ctx.part.Partition.reps ~candidates:groups )

let run ?limits ?deadline ?warm ?basis_out ?(stage = Eval.Sketch) ctx counters
    =
  let groups, problem = problem ctx in
  let result = Faults.solve ?limits ?deadline ?warm ?basis_out ~stage problem in
  Eval.bump counters result;
  match result with
  | Ilp.Branch_bound.Optimal (sol, _) | Ilp.Branch_bound.Feasible (sol, _, _)
    ->
    Sketched (group_counts ctx sol.Ilp.Branch_bound.x ~groups)
  | Ilp.Branch_bound.Infeasible _ -> Sketch_infeasible
  | Ilp.Branch_bound.Unbounded _ ->
    Sketch_failed
      (Eval.failure ~stage (Eval.Solver_error "sketch query unbounded"))
  | Ilp.Branch_bound.Limit st -> Sketch_failed (Eval.limit_failure ~stage st)
