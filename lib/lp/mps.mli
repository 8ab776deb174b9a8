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
    never arises. Numbers print as [%.17g], so they read back exactly.
    The [COLUMNS] section walks {!Problem.t}'s compressed columns as
    they are stored. *)

(** [to_string ?col_name ?row_name p] renders the problem as MPS.
    A problem carries no names, so they are asked for on demand:
    column [j] is named [col_name j] (default [x<j>]) and row [i]
    [row_name i] (default [c<i>]); each name is sanitized to
    [[A-Za-z0-9_]] and uniquified. *)
val to_string :
  ?col_name:(int -> string) -> ?row_name:(int -> string) -> Problem.t -> string

val write :
  ?col_name:(int -> string) ->
  ?row_name:(int -> string) ->
  string ->
  Problem.t ->
  unit
