(** Shared result types, failure taxonomy and counters for the package
    evaluation methods (DIRECT, the SketchRefine family — flat,
    parallel and progressive, one driver — and stochastic). *)

(** The relative MIP gap every package ILP stops at: [1e-4], CPLEX's
    default, under which the paper ran every ILP (Section 5). A search
    it stops short of a proof answers [Feasible gap] with
    [gap <= rel_gap]. *)
val rel_gap : float

(** Where in the pipeline a failure originated — the ladder rung or
    evaluation phase that was executing. *)
type stage =
  | Sketch      (** the representative sketch ILP *)
  | Hybrid      (** a hybrid-sketch ILP (Section 4.4 fallback) *)
  | Refine      (** a sequential refine ILP (Algorithm 2) *)
  | Repair      (** Phase-3 repair of a parallel run (Section 4.5) *)
  | Direct      (** the single DIRECT ILP *)
  | Parallel    (** a Phase-1 parallel refine worker *)
  | Fallback    (** between rungs of the Section 4.4 ladder *)
  | Progressive (** a per-level sketch of the coarse-to-fine descent *)
  | Scenario    (** stochastic scenario generation *)
  | Summary     (** a summary-ILP solve of the SummarySearch loop *)
  | Validate    (** out-of-sample validation of a candidate package *)

val stage_name : stage -> string

type failure_kind =
  | Deadline_exceeded   (** a wall-clock budget (global or per-call) ran out *)
  | Node_limit          (** branch-and-bound node budget exhausted *)
  | Iteration_limit     (** simplex pivot budget exhausted *)
  | Solver_error of string  (** unexpected solver outcome or exception *)
  | Data_error of string    (** bad input data (CSV, enumeration blow-up) *)
  | Worker_crash of string  (** a parallel worker domain died *)
  | Rejected of string
      (** the service layer's admission control shed the request before
          any evaluation work ran (queue full / overload) — a typed,
          immediate answer, never an unbounded wait *)
  | Fenced of string
      (** a write was refused because the serving node's membership
          lease expired or its epoch is superseded (it is no longer the
          shard's primary) — the caller should retry against the
          current primary, never treat the old ack path as live *)

(** A typed failure with enough context to tell graceful degradation
    apart from a crash: which budget/fault fired, on which ladder rung,
    for which group, in which worker. *)
type failure = {
  kind : failure_kind;
  stage : stage option;
  group : int option;   (** partition group id, when per-group *)
  worker : int option;  (** parallel worker index, when per-worker *)
}

val failure : ?stage:stage -> ?group:int -> ?worker:int -> failure_kind -> failure

(** Classify a {!Ilp.Branch_bound.Limit} outcome by its recorded stop
    reason: time maps to [Deadline_exceeded], pivots to
    [Iteration_limit], nodes (or an unclassified limit) to
    [Node_limit]. A gap stop is an answer, not a failure, and never
    comes with [Limit].
    @raise Invalid_argument on stats stopped by [Stop_gap]. *)
val limit_failure :
  ?stage:stage -> ?group:int -> ?worker:int -> Ilp.Branch_bound.stats -> failure

(** Which partition groups a degraded distributed answer failed to
    serve at full fidelity. A group is {e stale} when its refine was
    served by a replica lagging the primary's WAL position, and
    {e omitted} when neither the owning shard nor its replica could be
    reached — the assembled package covers only the remaining groups
    and its constraints are evaluated without the missing groups'
    contributions. *)
type degradation = {
  stale_groups : int list;
  omitted_groups : int list;
  detail : string;  (** human-readable cause, e.g. "shard 2 and replica down" *)
}

type status =
  | Optimal
      (** DIRECT (and the stochastic driver): the package ILP was solved
          to proven optimality. The SketchRefine family means less:
          every sketch and refine ILP the answer rests on returned a
          solution, and a solution that stopped at {!rel_gap} or at a
          solver limit (node, pivot or time budget) with an incumbent
          counts. It is not a proof of the query's optimum either,
          which SketchRefine approximates (Theorem 3). *)
  | Feasible of float
      (** a solver limit was hit, or a search stopped at {!rel_gap};
          the payload is the proven relative optimality gap *)
  | Infeasible
  | Degraded of degradation
      (** a sharded evaluation answered with reduced fidelity rather
          than hanging or silently lying: the payload names exactly
          which groups were served stale or omitted. Never cacheable,
          never presented as a proven optimum. *)
  | Failed of failure
      (** the solver gave up with no usable answer — the analogue of
          the paper's CPLEX failures (memory/time kill), now typed *)

(** [failed ?stage ?group ?worker kind] is [Failed (failure ... kind)]. *)
val failed : ?stage:stage -> ?group:int -> ?worker:int -> failure_kind -> status

type counters = {
  mutable ilp_calls : int;
  mutable nodes : int;
  mutable simplex_iterations : int;
      (** pivots of the branch-and-bound searches *)
  mutable backtracks : int;
  lp : Lp.Simplex.work;
      (** every simplex call of the evaluation, the searches' and the
          IIS probes' alike: pivots, refactorizations, cold and warm
          runs *)
}

val fresh_counters : unit -> counters

(** Accumulate a branch-and-bound run into the counters. *)
val bump : counters -> Ilp.Branch_bound.result -> unit

(** [absorb c from] adds every counter of [from] into [c]: the work of
    a nested evaluation that hands its answer up. *)
val absorb : counters -> counters -> unit

type report = {
  status : status;
  package : Package.t option;
  objective : float option;  (** objective incl. constant term *)
  wall_time : float;         (** seconds *)
  counters : counters;
}

val report :
  status:status ->
  package:Package.t option ->
  objective:float option ->
  wall_time:float ->
  counters:counters ->
  report

(** {1 Stage timing}

    An optional observer for per-stage wall-clock latencies. The
    service layer installs one to feed its live histograms; with none
    installed, {!observe_stage} is a direct call. The observer must be
    cheap and must not raise. *)

(** [set_observer (Some f)] routes every {!observe_stage} duration to
    [f stage seconds]; [set_observer None] uninstalls. *)
val set_observer : (stage -> float -> unit) option -> unit

(** [observe_stage stage f] runs [f ()], reporting its wall-clock time
    to the installed observer (also on exception). *)
val observe_stage : stage -> (unit -> 'a) -> 'a

val pp_failure_kind : Format.formatter -> failure_kind -> unit
val pp_failure : Format.formatter -> failure -> unit
val pp_degradation : Format.formatter -> degradation -> unit
val pp_status : Format.formatter -> status -> unit
val pp_report : Format.formatter -> report -> unit
