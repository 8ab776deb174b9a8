(** Linear (and integer-linear) program representation.

    A problem is [min/max c.x] subject to ranged rows
    [rlo_i <= a_i . x <= rhi_i] and column bounds [lo_j <= x_j <= hi_j].
    Equality rows have [rlo = rhi]; one-sided rows use
    [neg_infinity] / [infinity]. Integrality is a per-column flag,
    honoured by {!Ilp.Branch_bound} and ignored by the LP relaxation.

    The matrix is stored by compressed columns, the layout the simplex
    works in: column [j]'s entries sit at positions
    [cstart.(j) .. cstart.(j + 1) - 1] of [crow] (row indices,
    ascending) and [cval] (coefficients, none of them zero). A package
    ILP has a few rows and one column per candidate tuple, so
    {!columns} fills it one column at a time and every reader sweeps
    the columns in place.

    A problem carries no names: a writer that wants them (see
    {!Mps.to_string}) is handed them as functions of the index. *)

type sense = Minimize | Maximize

type t = {
  sense : sense;
  obj : float array;  (** per column, in the problem's own sense *)
  lo : float array;
  hi : float array;
  integer : bool array;
  rlo : float array;  (** per row *)
  rhi : float array;
  cstart : int array;  (** [nvars + 1] offsets into [crow] / [cval] *)
  crow : int array;
  cval : float array;
}

(** [columns ~sense ~obj ~hi ~rows n] is the ILP over [n] integral
    columns, column [k] costing [obj k] with bounds [[0, hi k]], under
    the rows [(coef, lo, hi)]: [lo <= sum_k coef k * x_k <= hi]. It
    calls [coef] once per row and column, column by column, and keeps
    the nonzero coefficients.
    @raise Invalid_argument when a bound pair is crossed. *)
val columns :
  sense:sense ->
  obj:(int -> float) ->
  hi:(int -> float) ->
  rows:((int -> float) * float * float) list ->
  int ->
  t

(** A column or a row described for {!make}. *)
type var

type row

(** [var ?integer ?lo ?hi obj] — defaults: continuous, [lo = 0.],
    [hi = infinity]. *)
val var : ?integer:bool -> ?lo:float -> ?hi:float -> float -> var

(** [row coeffs ~lo ~hi], [coeffs] as sparse (column, coefficient)
    pairs in any order. *)
val row : (int * float) list -> lo:float -> hi:float -> row

(** [make ~sense ~vars ~rows] transposes row-wise input into the
    column layout: each column's entries in row order, zeros dropped.
    @raise Invalid_argument when a bound pair is crossed or a row
    names a column out of range. *)
val make : sense:sense -> vars:var list -> rows:row list -> t

(** [sub p ~cols ~rows] keeps the columns [cols] and the rows [rows]
    of [p] (both ascending original indices), renumbered in that
    order. *)
val sub : t -> cols:int array -> rows:int array -> t

val nvars : t -> int
val nrows : t -> int

(** [objective p x] is [c.x], summed in column order. *)
val objective : t -> float array -> float

(** [activities p x] is each row's [a_i . x], summed in column order
    (reads [x.(0 .. nvars p - 1)]). *)
val activities : t -> float array -> float array

(** [feasible ?tol p x] checks bounds, integrality and rows at [x]. *)
val feasible : ?tol:float -> t -> float array -> bool

(** [pp_bound] prints a bound, infinities as [+inf] / [-inf]. *)
val pp_bound : Format.formatter -> float -> unit

val pp : Format.formatter -> t -> unit
