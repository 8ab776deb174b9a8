(** MPS output — the industry-standard LP/ILP exchange format (what
    one would feed to CPLEX). Writes the free-format subset needed for
    package ILPs:

    - [OBJSENSE] (MIN/MAX extension),
    - [ROWS] with N/L/G/E kinds,
    - [COLUMNS] with [INTORG]/[INTEND] integrality markers,
    - [RHS], [RANGES] (for two-sided rows), and
    - [BOUNDS] with UP/LO/FX/FR/MI/PL/BV.

    Bounds are always written explicitly for every variable, so the
    classic "integer columns default to an upper bound of 1" ambiguity
    never arises. Numbers print as [%.17g], so they read back exactly. *)

(** [to_string p] renders the problem as MPS. Variables are named
    after [vname] when set (sanitized, uniquified), else [x<i>];
    rows likewise ([c<i>]). *)
val to_string : Problem.t -> string

val write : string -> Problem.t -> unit
