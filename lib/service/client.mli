(** Blocking client for the {!Protocol} wire format — the engine behind
    [paql --connect], the REPL's remote mode, the service tests, the
    chaos harness and the serve benchmark. One {!t} is one logical
    connection; requests on it are serial (run one client per
    concurrent stream).

    With [~retries:n] (off by default) the client survives a server
    restart window: connection establishment and {e idempotent}
    requests (QUERY, PING, STATS, FPRINT) are retried up to [n] times
    with capped exponential backoff and +/-25% jitter (50ms, 100ms,
    200ms, ... capped at 800ms), transparently reconnecting. APPEND and
    DELETE are {e never} resent — an ack lost in flight may cover rows
    the server already made durable, and resending would double them;
    the caller sees the connection error and decides. Once the budget
    is spent, {!Gave_up} carries the attempt count and last error. *)

type t

(** The retry budget is exhausted. [attempts] counts tries made; [last]
    is the final connection error. *)
exception Gave_up of { attempts : int; last : exn }

(** A configured timeout expired — distinct from {!Gave_up}: the peer
    may be perfectly healthy but slow (or SIGSTOPped), and the caller
    promised itself an answer within [seconds]. Timeouts are never
    retried internally: the budget is a latency contract, and a silent
    retry loop would multiply it. Raised from [connect] ([`Connect],
    via [connect_timeout]) and from {!roundtrip} ([`Read], via
    [timeout] / {!set_timeout}). *)
exception Timed_out of { phase : [ `Connect | `Read ]; seconds : float }

(** ["HOST:PORT"] → [(host, port)]. *)
val parse_endpoint : string -> (string * int, string) result

(** A dotted address or a host name → its (first) IPv4 address.
    @raise Failure when the name does not resolve. *)
val resolve : string -> Unix.inet_addr

(** [connect ?retries ?connect_timeout ?timeout ~host ~port] — with
    [retries = 0] (the default) raises [Unix.Unix_error] when the
    server is unreachable; with a budget, retries with backoff and
    raises {!Gave_up} when it is spent. [connect_timeout] bounds each
    TCP connection attempt; [timeout] bounds every response read
    (SO_RCVTIMEO); both raise {!Timed_out} on expiry. Without them the
    calls block indefinitely (the pre-existing behaviour). *)
val connect :
  ?retries:int -> ?connect_timeout:float -> ?timeout:float ->
  host:string -> port:int -> unit -> t

(** Replace the read timeout for subsequent requests (and the live
    socket): the coordinator re-carves per-shard budgets per query.
    [None] restores unbounded reads. *)
val set_timeout : t -> float option -> unit

(** One request, one response. Retries idempotent requests per the
    client's budget.
    @raise Protocol.Protocol_error on a malformed or truncated reply.
    @raise Gave_up when the retry budget is exhausted. *)
val roundtrip : t -> Protocol.request -> Protocol.response

val query : t -> string -> Protocol.response

(** [append ?epoch t ~csv] — [epoch] stamps the write with the caller's
    membership epoch; a fenced server refuses stale stamps with
    [ERR fenced]. Unstamped appends preserve the standalone contract. *)
val append : ?epoch:int -> t -> csv:string -> Protocol.response

(** [delete ?epoch t ids] — the DELETE verb (0-based row ids). *)
val delete : ?epoch:int -> t -> int list -> Protocol.response

(** [lease t ~epoch ~ttl_ms] — the LEASE verb: install [epoch] on the
    server and grant it the right to ack writes for [ttl_ms]. *)
val lease : t -> epoch:int -> ttl_ms:int -> Protocol.response

(** [fingerprint t] — the FPRINT verb; the [OK] body is
    ["<fingerprint> <rows>"]. *)
val fingerprint : t -> Protocol.response

val stats : t -> Protocol.response

val ping : t -> Protocol.response

(** Send [QUIT] (best-effort) and close the socket. Idempotent. *)
val close : t -> unit

(** Abortive close: SO_LINGER 0 + close, so the peer sees a TCP RST
    instead of an orderly FIN. The peer's {e kernel} processes the RST
    even while the process is SIGSTOPped, discarding any bytes it had
    buffered but not yet read. The coordinator aborts failed LEASE
    grants this way, so a stale grant can never be consumed by a
    resumed zombie primary. Idempotent; never raises. *)
val abort : t -> unit
