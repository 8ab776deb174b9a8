(** Aggregate functions over relations (and over arbitrary tuple
    sequences, for package materializations). NULLs are skipped, as in
    SQL; [Sum]/[Avg]/[Min]/[Max] of an all-null column is [Null]. *)

type func = Count_star | Count of string | Sum of string | Avg of string
          | Min of string | Max of string

(** [over_rows schema rows f] computes [f] over a tuple sequence. *)
val over_rows : Schema.t -> Tuple.t Seq.t -> func -> Value.t

(** [over relation ?where f] computes [f] over the (optionally filtered)
    relation. Numeric attributes take one serial pass over their cached
    column; others fall back to the interpreted row scan. *)
val over : ?where:Expr.t -> Relation.t -> func -> Value.t

(** [float_result v] coerces an aggregate result to float, mapping
    [Null] (empty input) to [0.] for COUNT/SUM and raising otherwise. *)
val sum_or_zero : Value.t -> float

val attr_of : func -> string option
val pp : Format.formatter -> func -> unit
