(** The service wire protocol: line-framed verbs with length-prefixed
    bodies, shared verbatim by server and client (and by the
    [--connect] modes of the CLI and REPL).

    {2 Requests}

    {v
    QUERY <len>\n<len bytes>\n    evaluate a PaQL query
    APPEND <len> [epoch]\n<len bytes>\n   append CSV rows (with header)
    DELETE <len> [epoch]\n<len bytes>\n   delete rows (space-separated ids)
    LEASE <epoch> <ttl_ms>\n      grant/renew a write lease at an epoch
    ASSIGN <len>\n<len bytes>\n   install a shard group assignment
    SKETCH <len>\n<len bytes>\n   per-group candidate counts for a query
    REFINE <len>\n<len bytes>\n   solve one group's refine ILP
    FPRINT\n                      table content fingerprint + row count
    STATS\n                       metrics snapshot
    PING\n                        liveness probe
    QUIT\n                       close the connection
    v}

    The three shard verbs are the scatter/gather substrate of
    [pkgq_shard]: the coordinator installs each shard's partition
    groups once (ASSIGN, local row ids; the OK body is the
    representative tuples as CSV, one row per group in request order),
    asks for each group's WHERE-filtered candidate count per query
    (SKETCH, so the coordinator can derive the sketch ILP's caps), and
    dispatches per-group refine ILPs with the partial package's
    constraint offsets (REFINE). Floats in shard bodies travel as hex
    float literals, so both sides compute on bit-identical values.

    {2 Responses}

    {v
    OK <len>\n<len bytes>\n
    ERR <code> <len>\n<len bytes>\n
    v}

    A [QUERY]'s [OK] body is three parts: a [status ...] line (the
    report's status and objective), a [wall ...] line, then the
    package as CSV — byte-identical to what a single-shot [paql --out]
    run writes, which is what the service tests diff against.

    Error codes mirror the CLI's exit-code taxonomy so a remote failure
    degrades into the same scripting contract as a local one (see
    {!exit_code}). *)

type request =
  | Query of string
  | Append of { csv : string; epoch : int option }
      (** [epoch] is the membership epoch the writer holds, when the
          table is served by a fenced fleet; [None] preserves the
          pre-membership wire format (standalone servers accept it) *)
  | Delete of { ids : int list; epoch : int option }
  | Lease of { epoch : int; ttl_ms : int }
      (** the coordinator's fencing verb: install [epoch] (monotone per
          shard) and grant the right to ack writes for [ttl_ms]. A
          server refuses a LEASE below its installed epoch with
          {!Fenced}; a lease that expires un-renewed demotes the server
          to read-only until the next grant *)
  | Assign of string
  | Sketch of string
  | Refine of string
  | Fingerprint
  | Stats
  | Ping
  | Quit

type error_code =
  | Rejected           (** admission control shed the request *)
  | Deadline           (** the per-request budget expired *)
  | Infeasible
  | Degraded
      (** a sharded answer with reduced fidelity: some groups stale or
          omitted (shard and replica unreachable) — typed, never a
          silently wrong package *)
  | Failed             (** solver gave up: no package *)
  | Fenced
      (** the node is not (or no longer) the shard's primary: its write
          lease expired or the request's epoch predates the node's
          promotion epoch. The write was {e not} applied; retry against
          the current primary *)
  | Parse_error
  | Analysis_error
  | Data_error
  | Internal

type response = Resp_ok of string | Resp_err of error_code * string

(** Raised by the readers on a malformed frame. *)
exception Protocol_error of string

val code_name : error_code -> string

val code_of_name : string -> error_code option

(** The paql CLI exit code for a remote failure: 1 infeasible, 2
    failed/deadline/internal, 3 data, 4 parse, 5 analysis, 7
    rejected, 8 degraded, 9 fenced. *)
val exit_code : error_code -> int

(** {1 Framing} *)

val write_request : out_channel -> request -> unit

(** [None] on a clean EOF before any byte of a frame.
    @raise Protocol_error on a malformed frame. *)
val read_request : in_channel -> request option

val write_response : out_channel -> response -> unit

(** @raise Protocol_error on a malformed frame or EOF mid-response. *)
val read_response : in_channel -> response

(** {1 Query result bodies} *)

(** [render_result ~status_line ~wall body] / its inverse
    {!parse_result}: the [OK] body of a [QUERY]. [csv] is [""] when the
    evaluation produced no package (pure status answers are still
    cacheable). *)
val render_result : status_line:string -> wall:float -> csv:string -> string

val parse_result : string -> (string * float * string, string) result

(** {1 Shard verb bodies}

    Structured codecs for the ASSIGN/SKETCH/REFINE bodies, shared by
    the coordinator and the server so neither reimplements the format.
    The [parse_*] functions raise {!Protocol_error} on malformed input
    (they sit behind the framing layer, which already promises a
    complete body). *)

(** ASSIGN body: one line per group, ["<gid> <id> <id> ..."] with
    shard-local row ids. *)
val render_assign : (int * int array) list -> string

val parse_assign : string -> (int * int array) list

(** SKETCH response body: one line per group, ["<gid> <count>"]. *)
val render_counts : (int * int) list -> string

val parse_counts : string -> (int * int) list

(** REFINE body: line 1 is ["<gid> <budget_ms>"], line 2 the
    per-constraint offsets as hex floats, the rest the query text. *)
val render_refine : gid:int -> budget_ms:int -> offsets:float array ->
  query:string -> string

(** [parse_refine body] is [(gid, budget_ms, offsets, query)].
    @raise Protocol_error on a malformed body, a budget that is not
    positive or an offset that is not finite ([nan], [inf]). *)
val parse_refine : string -> int * int * float array * string

(** REFINE response body: line 1 is [feasible] / [infeasible] /
    [failed <msg>]; for [feasible], line 2 holds the chosen
    [(row, count)] entries as space-separated [row:count] pairs, in
    candidate order (coordinator and shard share the table, so row ids
    are a complete answer). *)
type refine_result =
  | Refine_feasible of (int * int) list
  | Refine_infeasible
  | Refine_failed of string

val render_refine_result : refine_result -> string

val parse_refine_result : string -> refine_result
