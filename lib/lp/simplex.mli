(** Two-phase revised primal simplex for bounded-variable LPs, plus a
    bounded-variable dual simplex for warm restarts from a saved basis.

    Designed for the package-query regime: few rows (one per global
    predicate), many columns (one per tuple). The basis is a dense
    [m x m] inverse, refactorized periodically; pricing is Dantzig with
    a Bland fallback after a run of degenerate pivots.

    Each ranged row [lo <= a.x <= hi] becomes [a.x - s = 0] with a slack
    bounded in [lo, hi]; phase 1 drives artificial variables (one per
    initially violated row) to zero.

    {2 Warm starts}

    [Optimal] solutions carry an opaque {!Basis.t}. Feeding it back via
    {!resolve} on a problem with the same shape but different bounds or
    objective re-enters the solver at that basis: dual pivots restore
    primal feasibility, then primal phase 2 finishes. Every failure
    mode of the warm path (wrong dimensions, singular or inconsistent
    basis, stall, any non-optimal dual outcome) degrades to an internal
    cold {!solve}, so a stale basis can cost time but never change an
    answer.

    {2 Pricing}

    One serial scan over the columns per pivot: Dantzig's largest
    [|d|], first column on ties, and the dual ratio test's least
    [|d| / |alpha|], then largest [|alpha|], then first column. The
    solver keeps no process-wide state: what a call did is counted in a {!work} record its caller
    owns. *)

(** A saved simplex basis over the structural + slack columns. *)
module Basis : sig
  type t

  (** Fault-injection helper: returns a structurally valid but singular
      basis, which {!resolve} must reject into a cold solve. *)
  val corrupt : t -> t

  (** [resting b j] is where column [j] (structural, or slack [n + i] of
      row [i]) sits in [b]: basic, or nonbasic on its lower bound, its
      upper bound, or free at zero. *)
  val resting : t -> int -> [ `Basic | `Lower | `Upper | `Free ]

  (** [restrict b ~keep] is [b] over the structural columns [keep]
      (strictly ascending indices) and every slack, for the problem
      that drops the other structural columns and keeps the rows.
      [None] when a dropped column is basic in [b]. *)
  val restrict : t -> keep:int array -> t option
end

type solution = {
  x : float array;      (** structural variable values *)
  obj : float;          (** objective in the problem's own sense *)
  iterations : int;
  basis : Basis.t option;
      (** optimal basis for later {!resolve}; [None] when an artificial
          column was left basic *)
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit

(** Default pivot budget for a problem: [20_000 + 4 * (nvars + nrows)]. *)
val default_max_iters : Problem.t -> int

(** {2 Work counts}

    What simplex calls did, added up in a record the caller owns and
    hands to each call it wants counted. *)

type work = {
  mutable pivots : int;  (** primal pivots (both phases) *)
  mutable dual_pivots : int;
  mutable refactorizations : int;
  mutable cold_solves : int;  (** cold runs, including warm fallbacks *)
  mutable warm_attempts : int;  (** calls that had a basis to start from *)
  mutable warm_hits : int;  (** warm attempts that finished without falling cold *)
}

(** A record of zero counts. *)
val new_work : unit -> work

(** [add_work ~into w] adds every count of [w] into [into]. *)
val add_work : into:work -> work -> unit

(** [iterations w] is [w.pivots + w.dual_pivots]: the pivots that count
    against a [max_iters] budget. *)
val iterations : work -> int

(** [solve ?max_iters ?tol ?deadline ?work p] solves the LP relaxation
    of [p] (integrality flags are ignored). [tol] is the feasibility/dual
    tolerance (default [1e-7]). [deadline] is an absolute wall-clock
    time ([Unix.gettimeofday] scale) polled every 128 pivots; crossing
    it returns [Iter_limit]. [work], when given, is charged with the
    call's pivots, refactorizations and cold or warm runs on {e every}
    exit path — including [Infeasible], [Unbounded] and [Iter_limit],
    which carry no solution record of their own. *)
val solve :
  ?max_iters:int ->
  ?tol:float ->
  ?deadline:float ->
  ?work:work ->
  Problem.t ->
  result

(** [resolve ?basis ...] is {!solve} that warm-starts from [basis] when
    one is given. Same budget semantics as {!solve}; dual pivots count
    against the same [max_iters] budget, and pivots burned by a
    rejected warm attempt are charged before the internal cold fallback
    runs. *)
val resolve :
  ?basis:Basis.t ->
  ?max_iters:int ->
  ?tol:float ->
  ?deadline:float ->
  ?work:work ->
  Problem.t ->
  result

(** {2 Workspaces}

    A workspace holds the solver state of one problem: its compressed
    columns copied once, with a slack column per row appended, plus the
    status, value,
    basis and basis-inverse arrays. {!Workspace.resolve} re-solves in
    place under new structural bounds, so a search that solves the same
    rows many times (branch-and-bound nodes) pays the build once.
    {!solve} and {!resolve} are a fresh workspace and one re-solve, and
    a workspace re-solve returns bit-for-bit what {!resolve} returns on
    the problem with the same bounds. Not safe to share across
    domains. *)
module Workspace : sig
  type t

  (** [create p] builds [p]'s state ([p] was validated when it was
      built). *)
  val create : Problem.t -> t

  (** [resolve ?basis ... ~lo ~hi ws] is {!resolve} of [ws]'s problem
      with structural bounds [lo] / [hi] (copied in; length [nvars]).
      @raise Invalid_argument when some [lo.(j) > hi.(j)]. *)
  val resolve :
    ?basis:Basis.t ->
    ?max_iters:int ->
    ?tol:float ->
    ?deadline:float ->
    ?work:work ->
    lo:float array ->
    hi:float array ->
    t ->
    result

  (** [duals ws] is the row duals [y = c_B B^-1] of the basis the last
      re-solve ended on, in the internal minimizing sense (the
      objective negated for a maximization); meaningful right after an
      [Optimal] re-solve. One float per row. *)
  val duals : t -> float array

  (** [reduced_costs ws ~duals] is [c_j - duals . A_j] for every
      structural column [j], in the same sense as {!duals}. A slack
      column's reduced cost is its row's dual. *)
  val reduced_costs : t -> duals:float array -> float array
end

val pp_result : Format.formatter -> result -> unit
