exception Gave_up of { attempts : int; last : exn }

exception Timed_out of { phase : [ `Connect | `Read ]; seconds : float }

let () =
  Printexc.register_printer (function
    | Gave_up { attempts; last } ->
      Some
        (Printf.sprintf "gave up after %d attempts (last: %s)" attempts
           (Printexc.to_string last))
    | Timed_out { phase; seconds } ->
      Some
        (Printf.sprintf "timed out after %.3fs (%s)" seconds
           (match phase with `Connect -> "connect" | `Read -> "read"))
    | _ -> None)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type t = {
  host : string;
  port : int;
  retries : int;
  connect_timeout : float option;
  mutable timeout : float option;
  jitter : Random.State.t;
  mutable conn : conn option;
  mutable closed : bool;
}

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      Ok ((if host = "" then "127.0.0.1" else host), p)
    | _ -> Error (Printf.sprintf "bad port %S in %S" port s))

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      failwith (Printf.sprintf "cannot resolve host %S" host)
    | h -> h.Unix.h_addr_list.(0))

(* SO_RCVTIMEO bounds every read(2) under the input channel; an expiry
   surfaces as EAGAIN (wrapped in [Sys_error] by the channel layer) and
   is reclassified as {!Timed_out} in [roundtrip]. *)
let apply_read_timeout fd = function
  | None -> ()
  | Some seconds ->
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
     with Unix.Unix_error _ -> ())

let raw_connect ?connect_timeout ?timeout ~host ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr = Unix.ADDR_INET (resolve host, port) in
     (match connect_timeout with
     | None -> Unix.connect fd addr
     | Some seconds -> (
       (* non-blocking connect + select: a black-holed or SIGSTOPped
          endpoint yields a typed timeout instead of a hung caller *)
       Unix.set_nonblock fd;
       (try Unix.connect fd addr with
       | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
         let _, writable, _ = Unix.select [] [ fd ] [] seconds in
         if writable = [] then raise (Timed_out { phase = `Connect; seconds });
         match Unix.getsockopt_error fd with
         | None -> ()
         | Some err -> raise (Unix.Unix_error (err, "connect", ""))));
       Unix.clear_nonblock fd));
     apply_read_timeout fd timeout
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
  }

(* Capped exponential backoff with +/-25% jitter: 50ms, 100ms, 200ms,
   ... capped at 800ms — a retry budget of 5 rides out roughly a
   two-second restart window without hammering the listen queue. *)
let backoff_delay jitter attempt =
  let base = Float.min 0.8 (0.05 *. (2. ** float_of_int attempt)) in
  base *. (0.75 +. (0.5 *. Random.State.float jitter 1.))

let connection_error = function
  | Unix.Unix_error _ | Sys_error _ | End_of_file | Failure _ -> true
  | Protocol.Protocol_error msg -> msg = "connection closed"
  | _ -> false

(* Establish with the client's retry budget; raises [Gave_up] once it
   is spent (or the original error when retries are off). A connect
   {!Timed_out} is never retried: the timeout is a latency promise to
   the caller, and a retry loop would multiply it. *)
let establish t =
  let rec go attempt =
    match
      raw_connect ?connect_timeout:t.connect_timeout ?timeout:t.timeout
        ~host:t.host ~port:t.port ()
    with
    | conn -> conn
    | exception (Timed_out _ as e) -> raise e
    | exception e when connection_error e ->
      if t.retries = 0 then raise e
      else if attempt >= t.retries then
        raise (Gave_up { attempts = attempt + 1; last = e })
      else begin
        Thread.delay (backoff_delay t.jitter attempt);
        go (attempt + 1)
      end
  in
  go 0

let connect ?(retries = 0) ?connect_timeout ?timeout ~host ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    {
      host;
      port;
      retries;
      connect_timeout;
      timeout;
      jitter = Random.State.make_self_init ();
      conn = None;
      closed = false;
    }
  in
  t.conn <- Some (establish t);
  t

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
    t.conn <- None;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())

(* SO_LINGER 0 turns close into a TCP RST, and the peer's kernel
   processes an RST even while the process is SIGSTOPped: a connection
   still sitting in the accept backlog is purged outright, and a
   half-sent request stream is torn down rather than half-delivered
   over an orderly FIN. The RST is best-effort, not a purge guarantee:
   Linux delivers data the peer's kernel has already received before it
   reports the reset, so a request fully buffered at a stalled peer CAN
   still be consumed after it resumes. Timed-out requests are dropped
   abortively anyway — it shrinks the window — but anything whose
   late consumption would confer authority (LEASE grants) must also be
   safe temporally: the server judges lease expiry at arrival and
   refuses same-epoch re-grants once expired, and the coordinator's
   lease RPC waits out most of the lease before abandoning a grant
   (see Coordinator.lease_node). *)
let abort_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
    t.conn <- None;
    (try Unix.setsockopt_optint c.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ())

let conn_of t =
  match t.conn with
  | Some c -> c
  | None ->
    let c = establish t in
    t.conn <- Some c;
    c

let set_timeout t timeout =
  t.timeout <- timeout;
  match t.conn with
  | None -> ()
  | Some c ->
    apply_read_timeout c.fd
      (match timeout with None -> Some 0. (* 0 disables SO_RCVTIMEO *)
                        | some -> some)

(* Only requests whose replay cannot change state twice are resent on a
   dropped connection: an APPEND/DELETE whose ack was lost may already
   be applied (and with a WAL, durable), so resending could double it. *)
let idempotent = function
  | Protocol.Query _ | Protocol.Ping | Protocol.Stats | Protocol.Fingerprint
  | Protocol.Assign _ | Protocol.Sketch _ | Protocol.Refine _
  | Protocol.Lease _ ->
    (* the shard verbs are pure reads / idempotent installs: replaying
       an ASSIGN re-derives the same state, SKETCH and REFINE compute
       without mutating; re-granting a LEASE at the same epoch merely
       extends the same lease *)
    true
  | Protocol.Append _ | Protocol.Delete _ | Protocol.Quit -> false

let roundtrip t req =
  if t.closed then raise (Protocol.Protocol_error "client is closed");
  let once () =
    let c = conn_of t in
    let started = Unix.gettimeofday () in
    try
      Protocol.write_request c.oc req;
      Protocol.read_response c.ic
    with
    | (Sys_error _ | Sys_blocked_io | Unix.Unix_error _ | End_of_file) as e
    -> (
      (* With a read timeout armed, an expired SO_RCVTIMEO surfaces as a
         channel error (EAGAIN reaches the channel layer as
         [Sys_blocked_io]) indistinguishable from a peer reset by type
         alone; the elapsed clock tells them apart. Either way the
         stream is desynchronized, so the connection is dropped. *)
      match t.timeout with
      | Some seconds when Unix.gettimeofday () -. started >= seconds *. 0.9 ->
        (* abortive: the unanswered request may be buffered at a
           stalled peer, and it must die with the connection *)
        abort_conn t;
        raise (Timed_out { phase = `Read; seconds })
      | _ -> raise e)
  in
  let rec go attempt =
    match once () with
    | resp -> resp
    | exception ((Gave_up _ | Timed_out _) as e) -> raise e
    | exception e when connection_error e ->
      drop_conn t;
      if t.retries = 0 || not (idempotent req) then raise e
      else if attempt >= t.retries then
        raise (Gave_up { attempts = attempt + 1; last = e })
      else begin
        Thread.delay (backoff_delay t.jitter attempt);
        go (attempt + 1)
      end
  in
  go 0

let query t q = roundtrip t (Protocol.Query q)
let append ?epoch t ~csv = roundtrip t (Protocol.Append { csv; epoch })
let delete ?epoch t ids = roundtrip t (Protocol.Delete { ids; epoch })
let lease t ~epoch ~ttl_ms = roundtrip t (Protocol.Lease { epoch; ttl_ms })
let fingerprint t = roundtrip t Protocol.Fingerprint
let stats t = roundtrip t Protocol.Stats
let ping t = roundtrip t Protocol.Ping

let abort t =
  t.closed <- true;
  abort_conn t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.conn with
    | None -> ()
    | Some c -> (
      (try Protocol.write_request c.oc Protocol.Quit with _ -> ());
      t.conn <- None;
      try Unix.close c.fd with Unix.Unix_error _ -> ()))
  end
