(** Chunked (optionally parallel) scans over a relation.

    The row space is cut into fixed-size chunks; workers stripe over
    chunks ({!stripe}, which the parallel refiner's Phase 1 shares) and
    per-chunk results are merged in chunk order, so the result is
    bitwise identical for {e any} worker count — including the
    sequential [workers = 1] path. Chunk size is a constant (overridable
    via [PKGQ_SCAN_CHUNK]) and deliberately independent of the worker
    count.

    Predicates and columns are materialized on the calling domain
    before any worker spawns; workers only read immutable arrays. *)

(** Default worker count: [PKGQ_SCAN_WORKERS] if set, otherwise
    [Domain.recommended_domain_count ()]. *)
val default_workers : unit -> int

(** Chunk size in rows ([PKGQ_SCAN_CHUNK], default 16384). *)
val chunk_size : unit -> int

(** [stripe ~workers n f] evaluates [f w i] for every [i] in
    [\[0, n)] and returns the results in index order. Item [i] runs on
    worker [w = i mod k], [k = max 1 (min workers n)]: one domain per
    worker, or the calling domain alone when [k = 1]. Every domain is
    joined before the first exception a worker raised is re-raised. *)
val stripe : workers:int -> int -> (int -> int -> 'a) -> 'a array

(** [run_chunks ~workers n f] evaluates [f ci lo hi] for every chunk
    [ci] covering [\[lo, hi)] of [\[0, n)] and returns the per-chunk
    results in chunk order. Chunks are striped across at most [workers]
    domains; [f] must only read data materialized before the call. *)
val run_chunks : workers:int -> int -> (int -> int -> int -> 'a) -> 'a array

(** [mask r pred] evaluates [pred] over every row: byte [i] is [1] iff
    row [i] satisfies it (NULL counts as false). Also returns the
    number of matches. *)
val mask : ?workers:int -> Relation.t -> Expr.t -> Bytes.t * int

(** Parallel [Relation.select_indices]: indices ascending. *)
val select_indices : ?workers:int -> Relation.t -> Expr.t -> int array

(** Parallel [Relation.select]. *)
val select : ?workers:int -> Relation.t -> Expr.t -> Relation.t

(** [count r pred] — number of rows matching [pred]. *)
val count : ?workers:int -> Relation.t -> Expr.t -> int

(** Streaming statistics over the non-NULL values of a numeric column,
    optionally restricted by a predicate. [n] is the number of non-NULL
    values seen; [rows] the number of rows scanned (post-predicate). *)
type stats = { sum : float; n : int; rows : int; mn : float; mx : float }

(** [float_stats ?where r name] — [None] when [name] is not a numeric
    attribute of [r]. *)
val float_stats :
  ?workers:int -> ?where:Expr.t -> Relation.t -> string -> stats option
