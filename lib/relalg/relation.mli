(** In-memory relations: a schema plus an array of rows.

    Relations are immutable once built; builders accumulate rows and
    seal them. Row indices (0-based) are stable and are used as tuple
    identifiers throughout the package-query engine. *)

type t

(** {1 Construction} *)

val of_rows : Schema.t -> Tuple.t list -> t
val of_array : Schema.t -> Tuple.t array -> t

(** [of_array_columns schema rows cols] builds a relation whose column
    cache is pre-seeded with the given [(attribute position, column)]
    pairs — the binary segment loader's path, which already holds the
    unboxed arrays and skips re-extraction from rows. Every column must
    have one cell per row and belong to a numeric attribute.
    @raise Invalid_argument otherwise. *)
val of_array_columns : Schema.t -> Tuple.t array -> (int * Column.t) list -> t

(** Incremental builder. *)
type builder

val builder : Schema.t -> builder
val add : builder -> Tuple.t -> unit
val seal : builder -> t

(** {1 Access} *)

val schema : t -> Schema.t
val cardinality : t -> int

(** [row r i] is the [i]-th tuple. @raise Invalid_argument out of range. *)
val row : t -> int -> Tuple.t

val iter : (int -> Tuple.t -> unit) -> t -> unit
val fold : ('a -> int -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Tuple.t list

(** {1 Operators} *)

(** [select_mask r pred] evaluates [pred] over every row in one serial
    pass: byte [i] is ['\001'] iff row [i] satisfies it (NULL counts as
    false). Also returns the number of matches. *)
val select_mask : t -> Expr.t -> Bytes.t * int

(** [select r pred] keeps rows satisfying the predicate. *)
val select : t -> Expr.t -> t

(** [select_indices r pred] returns the original indices of matching rows. *)
val select_indices : t -> Expr.t -> int array

(** [project r names] column projection. *)
val project : t -> string list -> t

(** [take r ids] builds a relation from the given row ids, preserving
    order and multiplicity. *)
val take : t -> int array -> t

(** [append a b] is [a]'s rows followed by [b]'s. Every numeric column
    [a] has already materialized is carried over, extended by [b]'s, so
    the result never re-reads boxed rows for it; the carried columns
    are bit-identical to the ones the result would materialize. [a]
    itself when [b] is empty.
    @raise Invalid_argument when the schemas differ. *)
val append : t -> t -> t

(** [compact r ~dead] keeps the rows whose [dead] flag is false, in
    order, carrying over [r]'s materialized columns the same way as
    {!append}. [r] itself when no row is dead.
    @raise Invalid_argument unless [dead] has one flag per row. *)
val compact : t -> dead:bool array -> t

(** [prefix r n] keeps the first [n] rows (used for scaled-down runs). *)
val prefix : t -> int -> t

(** {1 Columnar access}

    Numeric columns are materialized once per relation and memoized;
    repeated access returns the same shared arrays (see {!Column}). *)

(** [column r name] is the cached column for a numeric attribute;
    [None] for unknown or non-numeric attributes. *)
val column : t -> string -> Column.t option

(** [column_at r i] — same, by attribute position. *)
val column_at : t -> int -> Column.t option

(** @raise Invalid_argument when the attribute is not numeric. *)
val column_exn : t -> string -> Column.t

(** [column_float r name] extracts a numeric column as a {e fresh}
    float array; NULLs become [nan]. Prefer {!column} for shared,
    cache-backed access. *)
val column_float : t -> string -> float array

(** [compile_pred r pred] lowers [pred] onto the relation's cached
    columns (see {!Expr.compile}); [None] when not vectorizable. *)
val compile_pred : t -> Expr.t -> (int -> int) option

(** [compile_num r e] lowers a numeric expression similarly. *)
val compile_num : t -> Expr.t -> (int -> float) option

(** [append_column r attr values] adds a column (e.g. the partitioner's
    gid). [values] must have one entry per row. *)
val append_column : t -> Schema.attr -> Value.t array -> t

val pp : Format.formatter -> t -> unit
