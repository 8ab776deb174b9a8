let rel_gap = 1e-4

type stage =
  | Sketch
  | Hybrid
  | Refine
  | Repair
  | Direct
  | Parallel
  | Fallback
  | Progressive
  | Scenario
  | Summary
  | Validate

let stage_name = function
  | Sketch -> "sketch"
  | Hybrid -> "hybrid"
  | Refine -> "refine"
  | Repair -> "repair"
  | Direct -> "direct"
  | Parallel -> "parallel"
  | Fallback -> "fallback"
  | Progressive -> "progressive"
  | Scenario -> "scenario"
  | Summary -> "summary"
  | Validate -> "validate"

type failure_kind =
  | Deadline_exceeded
  | Node_limit
  | Iteration_limit
  | Solver_error of string
  | Data_error of string
  | Worker_crash of string
  | Rejected of string
  | Fenced of string

type failure = {
  kind : failure_kind;
  stage : stage option;
  group : int option;
  worker : int option;
}

let failure ?stage ?group ?worker kind = { kind; stage; group; worker }

(* Map a Branch_bound [Limit] outcome to the taxonomy. An unclassified
   limit (old-style synthetic stats) is attributed to the node budget.
   A gap stop always has an incumbent, so it comes back [Feasible]. *)
let limit_failure ?stage ?group ?worker (st : Ilp.Branch_bound.stats) =
  let kind =
    match st.Ilp.Branch_bound.stopped with
    | Some Ilp.Branch_bound.Stop_time -> Deadline_exceeded
    | Some Ilp.Branch_bound.Stop_iterations -> Iteration_limit
    | Some Ilp.Branch_bound.Stop_nodes | None -> Node_limit
    | Some Ilp.Branch_bound.Stop_gap ->
      invalid_arg "Eval.limit_failure: a gap stop is an answer, not a limit"
  in
  failure ?stage ?group ?worker kind

type degradation = {
  stale_groups : int list;
  omitted_groups : int list;
  detail : string;
}

type status =
  | Optimal
  | Feasible of float
  | Infeasible
  | Degraded of degradation
  | Failed of failure

let failed ?stage ?group ?worker kind = Failed (failure ?stage ?group ?worker kind)

type counters = {
  mutable ilp_calls : int;
  mutable nodes : int;
  mutable simplex_iterations : int;
  mutable backtracks : int;
  lp : Lp.Simplex.work;
}

let fresh_counters () =
  {
    ilp_calls = 0;
    nodes = 0;
    simplex_iterations = 0;
    backtracks = 0;
    lp = Lp.Simplex.new_work ();
  }

let bump c result =
  let stats = Ilp.Branch_bound.stats_of result in
  c.ilp_calls <- c.ilp_calls + 1;
  c.nodes <- c.nodes + stats.Ilp.Branch_bound.nodes;
  c.simplex_iterations <-
    c.simplex_iterations + Lp.Simplex.iterations stats.Ilp.Branch_bound.lp;
  Lp.Simplex.add_work ~into:c.lp stats.Ilp.Branch_bound.lp

let absorb c (from : counters) =
  c.ilp_calls <- c.ilp_calls + from.ilp_calls;
  c.nodes <- c.nodes + from.nodes;
  c.simplex_iterations <- c.simplex_iterations + from.simplex_iterations;
  c.backtracks <- c.backtracks + from.backtracks;
  Lp.Simplex.add_work ~into:c.lp from.lp

type report = {
  status : status;
  package : Package.t option;
  objective : float option;
  wall_time : float;
  counters : counters;
}

let report ~status ~package ~objective ~wall_time ~counters =
  { status; package; objective; wall_time; counters }

(* Per-stage latency observer (installed by the service layer). *)
let observer : (stage -> float -> unit) option Atomic.t = Atomic.make None

let set_observer f = Atomic.set observer f

let observe_stage stage f =
  match Atomic.get observer with
  | None -> f ()
  | Some h ->
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> h stage (Unix.gettimeofday () -. t0)) f

let pp_failure_kind ppf = function
  | Deadline_exceeded -> Format.pp_print_string ppf "deadline exceeded"
  | Node_limit -> Format.pp_print_string ppf "node limit"
  | Iteration_limit -> Format.pp_print_string ppf "iteration limit"
  | Solver_error msg -> Format.fprintf ppf "solver error: %s" msg
  | Data_error msg -> Format.fprintf ppf "data error: %s" msg
  | Worker_crash msg -> Format.fprintf ppf "worker crash: %s" msg
  | Rejected msg -> Format.fprintf ppf "rejected: %s" msg
  | Fenced msg -> Format.fprintf ppf "fenced: %s" msg

let pp_failure ppf f =
  pp_failure_kind ppf f.kind;
  let ctx =
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun s -> "stage=" ^ stage_name s) f.stage;
        Option.map (fun g -> Printf.sprintf "group=%d" g) f.group;
        Option.map (fun w -> Printf.sprintf "worker=%d" w) f.worker;
      ]
  in
  if ctx <> [] then
    Format.fprintf ppf " [%s]" (String.concat ", " ctx)

let pp_int_list ppf ids =
  Format.fprintf ppf "[%s]" (String.concat "," (List.map string_of_int ids))

let pp_degradation ppf d =
  Format.fprintf ppf "stale %a, omitted %a (%s)" pp_int_list d.stale_groups
    pp_int_list d.omitted_groups d.detail

let pp_status ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Feasible gap ->
    Format.fprintf ppf "feasible (gap %a)" Ilp.Branch_bound.pp_gap gap
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Degraded d -> Format.fprintf ppf "degraded: %a" pp_degradation d
  | Failed f -> Format.fprintf ppf "failed: %a" pp_failure f

let pp_report ppf r =
  Format.fprintf ppf "%a" pp_status r.status;
  Option.iter (fun o -> Format.fprintf ppf ", obj=%g" o) r.objective;
  Format.fprintf ppf ", %.3fs, %d ILP call(s), %d node(s)" r.wall_time
    r.counters.ilp_calls r.counters.nodes;
  if r.counters.backtracks > 0 then
    Format.fprintf ppf ", %d backtrack(s)" r.counters.backtracks
