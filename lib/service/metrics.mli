(** Live metrics for the package-query service: named counters, gauges
    and per-stage latency histograms, cheap enough to update on every
    request and rendered on demand for the [STATS] protocol verb and
    the periodic server log line.

    All operations are thread-safe. Counter/gauge/stage names are free
    strings; the server uses (counters) [requests], [ok], [failed],
    [shed], [connections], [net_errors], [appends], [solves],
    [plan_hits], [plan_misses], [result_hits], [result_misses],
    [result_invalidated], (gauge) [queue_depth], and (stages) [parse],
    [plan], [partition], [sketch], [hybrid], [refine], [solve],
    [queue_wait], [total], and per write [wal_append], [maintain]. *)

type t

val create : unit -> t

(** {1 Counters and gauges} *)

val incr : ?by:int -> t -> string -> unit

(** Current value of a counter ([0] when never incremented). *)
val get : t -> string -> int

val set_gauge : t -> string -> int -> unit

(** [add_gauge t name v] adds [v] to the gauge, as one update. *)
val add_gauge : t -> string -> int -> unit

val get_gauge : t -> string -> int

(** {1 Latency histograms}

    Log-scale buckets from 1 microsecond up; quantiles are resolved to
    a bucket upper bound (≤ 2x relative error), exact count/sum/max. *)

val observe : t -> string -> float -> unit

(** [time t stage f] runs [f ()] and records its wall-clock seconds
    under [stage] (also on exception). *)
val time : t -> string -> (unit -> 'a) -> 'a

val stage_count : t -> string -> int

(** [quantile t stage q] for [q] in [0,1]; [None] when the stage has no
    observations. *)
val quantile : t -> string -> float -> float option

val mean : t -> string -> float option

(** {1 Rendering}

    One [key value] pair per line: every counter, [gauge <name>
    <value>], and per stage a
    [stage <name> count <n> mean_ms <m> p50_ms <m> p99_ms <m> max_ms
    <m>] line. Deterministically ordered (sorted by name). *)

val render : t -> string

(** Compact single-line summary for the periodic server log. *)
val summary_line : t -> string
