(** The front-end shell shared by {!Server} and {!Coordinator}: the
    listening socket, the accept loop, one thread per connection with
    its read/respond loop, the idempotent stop, and the query front end
    around them (parse/analyze/compile, report rendering, request
    accounting).

    An owner supplies only its verb dispatch. The shell answers [PING]
    and [QUIT] itself and passes every other request to the dispatch;
    the [net=accept] / [net=read] fault directives fire here, so they
    apply to whichever front end runs in the process. *)

(** Force every numeric column of [rel] into its per-attribute slot, so
    concurrent requests never race to materialize the same column. *)
val prewarm : Relalg.Relation.t -> unit

(** The answer every front end gives an evaluation report: the
    rendered package for [Optimal]/[Feasible]; [infeasible]/[degraded]
    with the status line (["<status>, obj=<o>"]); a failure as
    [deadline], [rejected], [fenced] or [failed] with the rendered
    failure. A degraded report is an error, not an answer: no fresh
    package rides on it. [paql_cli] maps an error to
    {!Protocol.exit_code} of its code (8 for [degraded]) whether it
    evaluated locally or over [--connect]. *)
val response_of_report : Pkg.Eval.report -> Protocol.response

(** Per-level progressive descent telemetry for [STATS]: per level a
    [progressive_level<l>] latency histogram and the
    [progressive_level<l>_groups] / [_active] gauges, plus a
    [progressive_widened] count of levels solved widened. *)
val record_level_stats : Metrics.t -> Pkg.Progressive.level_stat list -> unit

(** Parse, analyze and compile one PaQL query against [schema]. Timed
    under the [plan] stage, with the parse alone under [parse]; errors
    are typed [parse_error] / [analysis_error] responses. Caching the
    result is the caller's business. *)
val compile :
  Metrics.t ->
  Relalg.Schema.t ->
  string ->
  (Paql.Ast.query * Paql.Translate.spec, Protocol.response) result

(** [answer ?run metrics eval] — the accounting of one [QUERY]: counts
    [requests], runs [eval] through [run] (default: on the calling
    thread; the server's runs it on the worker pool and may answer
    without running it, e.g. a shed request), times it under [total]
    with any exception answered as a typed [internal] error, and counts
    the answer as [ok] or [failed]. *)
val answer :
  ?run:((unit -> Protocol.response) -> Protocol.response) ->
  Metrics.t ->
  (unit -> Protocol.response) ->
  Protocol.response

type t

(** [listen ~metrics ~host ~port] binds and listens (port 0 picks an
    ephemeral one) without accepting yet. Ignores SIGPIPE for the
    process: a peer that hangs up mid-answer is a [net_errors] count,
    not a crash.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when [host] does not resolve. *)
val listen : metrics:Metrics.t -> host:string -> port:int -> t

(** [serve t dispatch] starts the accept thread. Each connection gets a
    thread that answers its requests in order until the peer hangs up
    or sends [QUIT]; [connections] and [net_errors] are counted in the
    metrics given to {!listen}. A failed [accept] (e.g. EMFILE) is
    counted and retried after a short back-off; only {!stop} ends the
    loop. *)
val serve : t -> (Protocol.request -> Protocol.response) -> unit

(** The bound port (the actual one when {!listen} asked for 0). *)
val port : t -> int

(** Whether {!stop} has begun: owners' background loops poll it. *)
val stopped : t -> bool

(** [stop t ~teardown] stops accepting and closes the listening
    socket, shuts down every live connection and joins its thread, then
    runs [teardown] (the owner's own threads and resources).
    Idempotent: only the first call does anything. *)
val stop : t -> teardown:(unit -> unit) -> unit
