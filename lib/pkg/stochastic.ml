(* SummarySearch-style solving of stochastic package queries
   (arXiv:2103.06784). The scenario-expanded ILP is never solved
   directly on the optimization path: each WITH PROBABILITY constraint
   is represented by a small number of *summary* rows, each the
   conservative (CVaR-like) aggregate of a group of covered scenarios —
   min of the scenario coefficients for a >= constraint, max for a <=.
   A package feasible for the summaries is feasible for every covered
   scenario; out-of-sample validation on a held-out scenario set then
   certifies the probability, and the driver iterates (more summaries
   when infeasible, a larger covered fraction when validation misses)
   until the requested probability is met or a typed outcome falls
   out. *)

type options = {
  limits : Ilp.Branch_bound.limits;
  max_seconds : float;
  scenarios : int;
  validation : int;
  summaries : int;
  max_summaries : int;
  seed : int;
  noise : Datagen.Scenario.spec list option;
}

let default_options =
  {
    limits = Ilp.Branch_bound.default_limits;
    max_seconds = 60.;
    scenarios = 48;
    validation = 200;
    summaries = 2;
    max_summaries = 16;
    seed = 42;
    noise = None;
  }

type stats = {
  st_scenarios : int;
  st_validation : int;
  st_summaries : int;
  st_rounds : int;
  st_validated : float;
}

let no_stats =
  {
    st_scenarios = 0;
    st_validation = 0;
    st_summaries = 0;
    st_rounds = 0;
    st_validated = 1.;
  }

(* Which side of a probabilistic constraint binds. Eq is rejected by
   Analyze, and Gprob never lowers to a two-sided row. *)
let direction (c : Paql.Translate.stochastic_constraint) =
  if c.Paql.Translate.slo > neg_infinity then `Ge else `Le

(* Noisy attributes a constraint's linear form actually reads: SUM
   terms over attributes that have a perturbation matrix. COUNT terms
   are invariant under additive noise. *)
let sum_attrs terms =
  List.filter_map
    (fun (t : Paql.Linform.term) ->
      match t.Paql.Linform.kind with
      | Paql.Linform.Sum a -> Some a
      | _ -> None)
    terms

(* For each SUM term over a noisy attribute, the per-row weight that
   multiplies the attribute's perturbation: the term's coefficient when
   its filter passes and the value is non-null — exactly a COUNT term's
   contribution, so [Linform.coeff_rows] is reused as-is. *)
let noise_weights schema rel deltas terms =
  List.filter_map
    (fun (t : Paql.Linform.term) ->
      match t.Paql.Linform.kind with
      | Paql.Linform.Sum a -> (
        match List.assoc_opt a deltas with
        | None -> None
        | Some m ->
          let w =
            Paql.Linform.coeff_rows schema rel
              [ { t with Paql.Linform.kind = Paql.Linform.Count a } ]
          in
          Some (m, w))
      | _ -> None)
    terms

(* Scenario-dependent coefficient of one constraint for one row:
   base-realization coefficient plus the weighted perturbations. *)
let scenario_coeff base weights s row =
  List.fold_left
    (fun acc ((m : float array array), w) -> acc +. (w row *. m.(s).(row)))
    (base row) weights

let objective_terms (spec : Paql.Translate.spec) =
  match spec.Paql.Translate.query.Paql.Ast.objective with
  | None -> []
  | Some o -> (
    match Paql.Linform.of_objective o with
    | Ok (_, terms, _) -> terms
    | Error _ -> [])

(* Round-robin partition of the covered scenario list into [m] groups
   (deterministic: scenario indices ascending, groups cycled). *)
let round_robin m covered =
  let groups = Array.make m [] in
  List.iteri (fun i s -> groups.(i mod m) <- s :: groups.(i mod m)) covered;
  Array.to_list groups |> List.filter (fun g -> g <> []) |> List.map List.rev

exception Finished of (Eval.report * stats)

(* What a driver reads of the scenarios: the candidates, each
   stochastic constraint with its base coefficients and noise weights,
   and the objective column, which under an EXPECTED objective (when
   [expected]) is shifted by the mean perturbation over the
   optimization scenarios. [observe] wraps the scenario generation. *)
type setup = {
  candidates : int array;
  compiled :
    (Paql.Translate.stochastic_constraint
    * (int -> float)
    * (float array array * (int -> float)) list)
    list;
  obj_row : int -> float;
}

let setup ~expected ~observe opts (spec : Paql.Translate.spec) rel =
  let schema = spec.Paql.Translate.schema in
  let candidates = Paql.Translate.base_candidates spec rel in
  let expected = expected && spec.Paql.Translate.expected_objective in
  let noisy_attrs =
    (* attrs read by stochastic constraints and (for an EXPECTED
       objective) the objective, restricted to float columns *)
    List.concat_map
      (fun (c : Paql.Translate.stochastic_constraint) ->
        sum_attrs c.Paql.Translate.sterms)
      spec.Paql.Translate.stochastic
    @ (if expected then sum_attrs (objective_terms spec) else [])
    |> List.sort_uniq compare
    |> List.filter (fun a ->
           match Relalg.Schema.index_of_opt schema a with
           | Some i -> (
             match (Relalg.Schema.attr_at schema i).Relalg.Schema.ty with
             | Relalg.Value.TFloat -> true
             | _ -> false)
           | None -> false)
  in
  let scen =
    observe (fun () ->
        if noisy_attrs = [] then Ok None
        else
          let specs =
            match opts.noise with
            | Some specs -> specs
            | None -> Datagen.Scenario.default_specs rel noisy_attrs
          in
          Result.map Option.some
            (Datagen.Scenario.generate ~seed:opts.seed
               ~scenarios:(opts.scenarios + opts.validation)
               specs rel))
  in
  Result.map
    (fun scen ->
      let deltas =
        match scen with
        | None -> []
        | Some t ->
          List.filter_map
            (fun a -> Option.map (fun m -> a, m) (Datagen.Scenario.deltas t a))
            noisy_attrs
      in
      let compiled =
        List.map
          (fun (c : Paql.Translate.stochastic_constraint) ->
            ( c,
              c.Paql.Translate.scoeff_rows rel,
              noise_weights schema rel deltas c.Paql.Translate.sterms ))
          spec.Paql.Translate.stochastic
      in
      let obj_base = spec.Paql.Translate.objective_rows rel in
      let obj_row =
        if (not expected) || deltas = [] then obj_base
        else begin
          let weights = noise_weights schema rel deltas (objective_terms spec) in
          let s_count = float_of_int opts.scenarios in
          fun row ->
            List.fold_left
              (fun acc ((m : float array array), w) ->
                let sum = ref 0. in
                for s = 0 to opts.scenarios - 1 do
                  sum := !sum +. m.(s).(row)
                done;
                acc +. (w row *. !sum /. s_count))
              (obj_base row) weights
        end
      in
      { candidates; compiled; obj_row })
    scen

(* One SummarySearch ILP: a column per candidate, the deterministic
   rows, then per stochastic constraint its covered scenarios (the
   first [ceil (p * S)] for its [p] in [p_hat]) split round-robin into
   [m] groups, each collapsed into one conservative row: per candidate
   the min (>=) or max (<=) of the group's scenario coefficients. *)
let summary_problem opts spec rel su ~m ~p_hat =
  let summary_row ((c : Paql.Translate.stochastic_constraint), base, weights)
      group =
    let pick = match direction c with `Ge -> Float.min | `Le -> Float.max in
    ( (fun k ->
        let row_id = su.candidates.(k) in
        List.fold_left
          (fun acc s -> pick acc (scenario_coeff base weights s row_id))
          (scenario_coeff base weights (List.hd group) row_id)
          (List.tl group)),
      c.Paql.Translate.slo,
      c.Paql.Translate.shi )
  in
  let srows =
    List.concat_map
      (fun (((c : Paql.Translate.stochastic_constraint), _, _) as cc) ->
        let p = List.assoc c.Paql.Translate.sname p_hat in
        let covered_n =
          min opts.scenarios
            (max 1 (int_of_float (Float.ceil (p *. float_of_int opts.scenarios))))
        in
        List.map (summary_row cc) (round_robin m (List.init covered_n Fun.id)))
      su.compiled
  in
  Lp.Problem.columns
    ~sense:(Paql.Translate.objective_sense spec)
    ~obj:(fun k -> su.obj_row su.candidates.(k))
    ~hi:(fun _ -> spec.Paql.Translate.max_count)
    ~rows:
      (Paql.Translate.constraint_rows spec rel ~candidates:su.candidates
      @ srows)
    (Array.length su.candidates)

let initial_p_hat su =
  List.map
    (fun ((c : Paql.Translate.stochastic_constraint), _, _) ->
      c.Paql.Translate.sname, c.Paql.Translate.sprob)
    su.compiled

let summary_ilp ?(options = default_options) spec rel =
  Result.map
    (fun su ->
      summary_problem options spec rel su ~m:(max 1 options.summaries)
        ~p_hat:(initial_p_hat su))
    (setup ~expected:true ~observe:(fun f -> f ()) options spec rel)

(* Out-of-sample validation: per stochastic constraint, the fraction of
   held-out scenarios in which the package [entries] satisfy it. *)
let held_out opts su entries =
  List.map
    (fun ((c : Paql.Translate.stochastic_constraint), base, weights) ->
      let ok = ref 0 in
      for s = opts.scenarios to opts.scenarios + opts.validation - 1 do
        let v =
          List.fold_left
            (fun acc (row, mult) ->
              acc +. (float_of_int mult *. scenario_coeff base weights s row))
            0. entries
        in
        if v >= c.Paql.Translate.slo -. 1e-9 && v <= c.Paql.Translate.shi +. 1e-9
        then incr ok
      done;
      c, float_of_int !ok /. float_of_int opts.validation)
    su.compiled

let run ?options (spec : Paql.Translate.spec) rel =
  let opts = match options with Some o -> o | None -> default_options in
  let start = Unix.gettimeofday () in
  let deadline = start +. opts.max_seconds in
  let counters = Eval.fresh_counters () in
  let current_stage = ref Eval.Scenario in
  let finish ?(stats = no_stats) status package objective =
    Eval.report ~status ~package ~objective
      ~wall_time:(Unix.gettimeofday () -. start)
      ~counters,
    stats
  in
  if not (Paql.Translate.is_stochastic spec) then begin
    (* Degenerate: nothing stochastic — the deterministic DIRECT path
       answers (same report shape, empty stochastic stats). *)
    let report = Direct.run ~limits:opts.limits spec rel in
    report, no_stats
  end
  else begin
    let evaluate () =
      (* --- Scenario stage ------------------------------------------- *)
      current_stage := Eval.Scenario;
      let su =
        match
          setup ~expected:true opts spec rel ~observe:(fun f ->
              Eval.observe_stage Eval.Scenario (fun () ->
                  if Faults.stoch_scenario_fails () then
                    raise
                      (Faults.Injected
                         "injected fault: scenario generation failed");
                  f ()))
        with
        | Ok su -> su
        | Error msg ->
          raise_notrace
            (Finished
               (finish (Eval.failed ~stage:Eval.Scenario (Eval.Data_error msg))
                  None None))
      in
      let validate pkg =
        Eval.observe_stage Eval.Validate (fun () ->
            if Faults.stoch_validate_fails () then
              raise (Faults.Injected "injected fault: validation failed");
            held_out opts su (Package.entries pkg))
      in
      (* --- SummarySearch loop --------------------------------------- *)
      let p_hat = ref (initial_p_hat su) in
      let m = ref (max 1 opts.summaries) in
      let rounds = ref 0 in
      let max_rounds = 24 in
      let stats ~validated () =
        {
          st_scenarios = opts.scenarios;
          st_validation = opts.validation;
          st_summaries = !m;
          st_rounds = !rounds;
          st_validated = validated;
        }
      in
      let give_up status =
        raise_notrace
          (Finished (finish ~stats:(stats ~validated:0. ()) status None None))
      in
      let result = ref None in
      while !result = None do
        incr rounds;
        if !rounds > max_rounds then
          give_up
            (Eval.failed ~stage:Eval.Validate
               (Eval.Solver_error
                  "SummarySearch did not converge; increase PKGQ_SCENARIOS"));
        if Unix.gettimeofday () > deadline then
          give_up (Eval.failed ~stage:Eval.Summary Eval.Deadline_exceeded);
        current_stage := Eval.Summary;
        let problem = summary_problem opts spec rel su ~m:!m ~p_hat:!p_hat in
        let solve_result =
          Eval.observe_stage Eval.Summary (fun () ->
              Faults.solve ~limits:opts.limits ~deadline ~stage:Eval.Summary
                problem)
        in
        Eval.bump counters solve_result;
        match solve_result with
        | Ilp.Branch_bound.Infeasible _ ->
          if !m * 2 <= opts.max_summaries then m := !m * 2
          else
            (* conservatively infeasible at the requested probability
               even at the finest summary partition: a typed answer *)
            result :=
              Some (finish ~stats:(stats ~validated:0. ()) Eval.Infeasible None None)
        | Ilp.Branch_bound.Unbounded _ ->
          give_up
            (Eval.failed ~stage:Eval.Summary
               (Eval.Solver_error "unbounded objective"))
        | Ilp.Branch_bound.Limit st ->
          give_up (Eval.Failed (Eval.limit_failure ~stage:Eval.Summary st))
        | Ilp.Branch_bound.Optimal (sol, _) | Ilp.Branch_bound.Feasible (sol, _, _)
          -> (
          let status =
            match solve_result with
            | Ilp.Branch_bound.Optimal _ -> Eval.Optimal
            | Ilp.Branch_bound.Feasible (_, _, gap) -> Eval.Feasible gap
            | _ -> assert false
          in
          let pkg =
            Package.of_solution rel ~candidates:su.candidates
              sol.Ilp.Branch_bound.x
          in
          current_stage := Eval.Validate;
          if Unix.gettimeofday () > deadline then
            give_up (Eval.failed ~stage:Eval.Validate Eval.Deadline_exceeded);
          let measured = validate pkg in
          let worst =
            List.fold_left (fun acc (_, e) -> Float.min acc e) 1. measured
          in
          let misses =
            List.filter
              (fun ((c : Paql.Translate.stochastic_constraint), e) ->
                e < c.Paql.Translate.sprob)
              measured
          in
          if misses = [] then
            result :=
              Some
                (finish ~stats:(stats ~validated:worst ()) status (Some pkg)
                   (Some (Package.objective spec pkg)))
          else begin
            (* cover a larger fraction of the optimization scenarios for
               every constraint that missed; if already at full
               coverage, the scenario budget cannot certify p *)
            let bumped = ref false in
            p_hat :=
              List.map
                (fun (name, p) ->
                  if
                    List.exists
                      (fun ((c : Paql.Translate.stochastic_constraint), _) ->
                        c.Paql.Translate.sname = name)
                      misses
                    && p < 1.
                  then begin
                    bumped := true;
                    name, Float.min 1. (p +. (0.5 *. (1. -. p)))
                  end
                  else name, p)
                !p_hat;
            if not !bumped then
              give_up
                (Eval.failed ~stage:Eval.Validate
                   (Eval.Solver_error
                      (Printf.sprintf
                         "validated probability %.3f below target at full \
                          scenario coverage; increase PKGQ_SCENARIOS"
                         worst)))
          end)
      done;
      Option.get !result
    in
    try evaluate () with
    | Finished (report, stats) -> report, stats
    | Faults.Injected msg ->
      finish (Eval.failed ~stage:!current_stage (Eval.Solver_error msg)) None
        None
    | e ->
      finish
        (Eval.failed ~stage:!current_stage
           (Eval.Solver_error (Printexc.to_string e)))
        None None
  end

(* Naive baseline for the bench: the full scenario-expanded ILP with
   one big-M indicator per (constraint, scenario) and a budget row
   allowing at most floor((1-p) * S) violations. Exact on the
   optimization set, but its variable and row counts scale with S —
   the regime SummarySearch exists to avoid. Requires a finite
   repetition cap (REPEAT) to bound the big-M. *)
let run_naive ?options (spec : Paql.Translate.spec) rel =
  let opts = match options with Some o -> o | None -> default_options in
  let start = Unix.gettimeofday () in
  let deadline = start +. opts.max_seconds in
  let counters = Eval.fresh_counters () in
  let finish ?(stats = no_stats) status package objective =
    Eval.report ~status ~package ~objective
      ~wall_time:(Unix.gettimeofday () -. start)
      ~counters,
    stats
  in
  if not (Paql.Translate.is_stochastic spec) then
    Direct.run ~limits:opts.limits spec rel, no_stats
  else if spec.Paql.Translate.max_count = infinity then
    finish
      (Eval.failed ~stage:Eval.Summary
         (Eval.Data_error
            "the scenario-expanded ILP needs a finite REPEAT bound (big-M)"))
      None None
  else begin
    let evaluate () =
      match setup ~expected:false ~observe:(fun f -> f ()) opts spec rel with
      | Error msg ->
        finish (Eval.failed ~stage:Eval.Scenario (Eval.Data_error msg)) None
          None
      | Ok su ->
        let candidates = su.candidates and sc = opts.scenarios in
        let cap = spec.Paql.Translate.max_count in
        let nx = Array.length candidates in
        let x_only f k = if k < nx then f k else 0. in
        (* after the candidates, one indicator column per (constraint,
           scenario): z = 1 when the scenario may be violated *)
        let scenario_rows ci
            ((c : Paql.Translate.stochastic_constraint), base, weights) =
          let zbase = nx + (ci * sc) in
          let bound =
            match direction c with
            | `Ge -> c.Paql.Translate.slo
            | `Le -> c.Paql.Translate.shi
          in
          List.init sc (fun s ->
              let coef k = scenario_coeff base weights s candidates.(k) in
              (* big-M: the constraint is released when z = 1 *)
              let reach = ref 0. in
              for k = 0 to nx - 1 do
                let a = coef k in
                if a <> 0. then reach := !reach +. (cap *. Float.abs a)
              done;
              let big_m = !reach +. Float.abs bound +. 1. in
              let z, lo, hi =
                match direction c with
                | `Ge -> big_m, c.Paql.Translate.slo, infinity
                | `Le -> -.big_m, neg_infinity, c.Paql.Translate.shi
              in
              ( (fun k ->
                  if k < nx then coef k else if k = zbase + s then z else 0.),
                lo,
                hi ))
          @ [
              (* violation budget: at most floor((1-p) * S) scenarios *)
              ( (fun k -> if k >= zbase && k < zbase + sc then 1. else 0.),
                neg_infinity,
                Float.of_int
                  (int_of_float
                     (Float.of_int sc *. (1. -. c.Paql.Translate.sprob))) );
            ]
        in
        let problem =
          Lp.Problem.columns
            ~sense:(Paql.Translate.objective_sense spec)
            ~obj:(x_only (fun k -> su.obj_row candidates.(k)))
            ~hi:(fun k -> if k < nx then cap else 1.)
            ~rows:
              (List.map
                 (fun (f, lo, hi) -> (x_only f, lo, hi))
                 (Paql.Translate.constraint_rows spec rel ~candidates)
              @ List.concat (List.mapi scenario_rows su.compiled))
            (nx + (sc * List.length su.compiled))
        in
        let result =
          Faults.solve ~limits:opts.limits ~deadline ~stage:Eval.Summary
            problem
        in
        Eval.bump counters result;
        match result with
        | Ilp.Branch_bound.Infeasible _ -> finish Eval.Infeasible None None
        | Ilp.Branch_bound.Unbounded _ ->
          finish
            (Eval.failed ~stage:Eval.Summary
               (Eval.Solver_error "unbounded objective"))
            None None
        | Ilp.Branch_bound.Limit st ->
          finish (Eval.Failed (Eval.limit_failure ~stage:Eval.Summary st)) None
            None
        | Ilp.Branch_bound.Optimal (sol, _)
        | Ilp.Branch_bound.Feasible (sol, _, _) ->
          let status =
            match result with
            | Ilp.Branch_bound.Optimal _ -> Eval.Optimal
            | Ilp.Branch_bound.Feasible (_, _, gap) -> Eval.Feasible gap
            | _ -> assert false
          in
          let x = Array.sub sol.Ilp.Branch_bound.x 0 nx in
          let pkg = Package.of_solution rel ~candidates x in
          let validated =
            List.fold_left
              (fun acc (_, e) -> Float.min acc e)
              1.
              (held_out opts su (Package.entries pkg))
          in
          let stats =
            {
              st_scenarios = opts.scenarios;
              st_validation = opts.validation;
              st_summaries = 0;
              st_rounds = 1;
              st_validated = validated;
            }
          in
          finish ~stats status (Some pkg)
            (Some (Package.objective spec pkg))
    in
    try evaluate () with
    | Faults.Injected msg ->
      finish (Eval.failed ~stage:Eval.Summary (Eval.Solver_error msg)) None None
    | e ->
      finish
        (Eval.failed ~stage:Eval.Summary
           (Eval.Solver_error (Printexc.to_string e)))
        None None
  end
