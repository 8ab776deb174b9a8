(** Unboxed columnar storage for numeric attributes.

    A column is the float image of one numeric (int or float) attribute
    of a relation: an unboxed [float array] with NULLs encoded as [nan],
    plus an explicit null bitmap so three-valued logic does not depend
    on NaN propagation alone. Columns are built once per relation and
    memoized in a {!cache} attached to the relation, so repeated
    [column_float]/[numeric_columns]-style consumers stop
    re-materializing boxed tuples.

    Columns are logically immutable after construction: consumers
    receive {e shared} arrays and must not write to them. *)

type t

(** [of_rows rows i] extracts attribute position [i] of every row as a
    column. Cells that are not [Int]/[Float] (NULLs, and ill-typed
    cells) become [nan] with the null bit set. *)
val of_rows : Tuple.t array -> int -> t

(** [of_raw ~data ~nulls] wraps pre-materialized storage (the binary
    segment loader's path, bypassing row extraction). [nulls] holds one
    byte per cell, ['\001'] marking NULL; NULL cells of [data] are
    normalized to [nan]. The arrays are taken over by the column — the
    caller must not mutate them afterwards.
    @raise Invalid_argument when lengths differ. *)
val of_raw : data:float array -> nulls:Bytes.t -> t

(** [append a b] is [a]'s cells followed by [b]'s: the column
    {!of_rows} would build over the concatenated rows. *)
val append : t -> t -> t

(** [gather c ids] is the column of the rows [ids] of [c], in that
    order: the column {!of_rows} would build over those rows.
    @raise Invalid_argument on an out-of-range id. *)
val gather : t -> int array -> t

val length : t -> int

(** Shared backing array; NULL cells hold [nan]. Do not mutate. *)
val data : t -> float array

(** Shared backing array with NULL cells replaced by [0.] (the form the
    partitioners consume). Built lazily, memoized. Do not mutate. *)
val zeroed : t -> float array

(** [is_null c i] — whether row [i] is NULL in this column. *)
val is_null : t -> int -> bool

(** Number of NULL cells; [has_nulls] is [n_nulls c > 0]. *)
val n_nulls : t -> int

val has_nulls : t -> bool

(** {1 Per-relation cache}

    One slot per schema attribute. Slots materialize on first access;
    non-numeric attributes are remembered as such. The cache is guarded
    by a mutex so concurrent domains may share a relation, but the
    intended pattern is to materialize on the main domain before
    spawning scan workers. *)

type cache

val cache_create : int -> cache

(** [cached cache rows ~numeric i] returns the memoized column for
    attribute position [i], materializing it on first use. [numeric]
    says whether the schema types the attribute as [TInt]/[TFloat];
    non-numeric attributes yield [None]. *)
val cached : cache -> Tuple.t array -> numeric:bool -> int -> t option

(** [cache_peek cache i] is slot [i]'s column when it is already
    materialized, without materializing it. *)
val cache_peek : cache -> int -> t option

(** [cache_seed cache i c] pre-populates slot [i] with an
    already-materialized column (the segment loader's warm path).
    @raise Invalid_argument when the slot is already materialized. *)
val cache_seed : cache -> int -> t -> unit
