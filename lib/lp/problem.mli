(** Linear (and integer-linear) program representation.

    A problem is [min/max c.x] subject to ranged rows
    [lo_i <= a_i . x <= hi_i] and variable bounds [lo_j <= x_j <= hi_j].
    Equality rows have [lo = hi]; one-sided rows use
    [neg_infinity] / [infinity]. Integrality is a per-variable flag,
    honoured by {!Ilp.Branch_bound} and ignored by the LP relaxation. *)

type sense = Minimize | Maximize

type var = {
  obj : float;
  lo : float;
  hi : float;
  integer : bool;
  vname : string;
}

type row = {
  coeffs : (int * float) list;  (** sparse (variable index, coefficient) *)
  rlo : float;
  rhi : float;
  rname : string;
}

type t = { sense : sense; vars : var array; rows : row array }

val make : sense:sense -> vars:var list -> rows:row list -> t

(** [var ?name ?integer ?lo ?hi obj] — defaults: continuous, [lo = 0.],
    [hi = infinity], name auto-assigned by position. *)
val var : ?name:string -> ?integer:bool -> ?lo:float -> ?hi:float -> float -> var

(** [row ?name coeffs ~lo ~hi]. *)
val row : ?name:string -> (int * float) list -> lo:float -> hi:float -> row

val nvars : t -> int
val nrows : t -> int

(** [objective p x] evaluates the objective at a point. *)
val objective : t -> float array -> float

(** [row_value r x] is the activity [a . x] of row [r] at [x], summed
    in [coeffs] order. *)
val row_value : row -> float array -> float

(** [feasible ?tol p x] checks bounds, rows and integrality at [x]. *)
val feasible : ?tol:float -> t -> float array -> bool

(** [validate p] checks structural sanity (indices in range, lo <= hi);
    returns a diagnostic on failure. *)
val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
