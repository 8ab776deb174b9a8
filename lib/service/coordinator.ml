let src = Logs.Src.create "pkgq.coordinator" ~doc:"sharded package-query coordinator"

module Log = (val Logs.src_log src : Logs.LOG)

type endpoint = { ep_host : string; ep_port : int }

type shard_spec = {
  primary : endpoint;
  replica : endpoint option;
  wal : string option;
}

type config = {
  host : string;
  port : int;
  method_ : [ `Sketch_refine | `Progressive ];
  attrs : string list;
  tau : int option;
  epsilon : float option;
  limits : Ilp.Branch_bound.limits;
  request_seconds : float;
  connect_timeout : float;
  rpc_seconds : float;
  retries : int;
  hedge_ms : int;
  breaker_trips : int;
  breaker_probe_seconds : float;
  probe_timeout : float;
  ship_every : float;
  lease_ms : int option;
  epoch_dir : string option;
  levels : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    method_ = `Sketch_refine;
    attrs = [];
    tau = None;
    epsilon = None;
    limits = Ilp.Branch_bound.default_limits;
    request_seconds = 60.;
    connect_timeout = 1.;
    rpc_seconds = 2.;
    retries = 2;
    hedge_ms = 50;
    breaker_trips = 3;
    breaker_probe_seconds = 0.25;
    probe_timeout = 0.25;
    ship_every = 0.05;
    lease_ms = None;
    epoch_dir = None;
    levels = Pkg.Hierarchy.default_levels;
  }

(* ------------------------------------------------------------------ *)
(* Connection pools                                                   *)
(* ------------------------------------------------------------------ *)

(* One pool per endpoint: concurrent queries (and a hedge racing its
   primary) each borrow their own connection; broken ones are discarded
   rather than returned, so a pool never caches a desynchronized
   stream. *)
type node = {
  ep : endpoint;
  mutable idle : Client.t list;
  pool_mu : Mutex.t;
}

let node_of ep = { ep; idle = []; pool_mu = Mutex.create () }

let borrow ~connect_timeout node =
  match
    Mutex.protect node.pool_mu (fun () ->
        match node.idle with
        | c :: rest ->
          node.idle <- rest;
          Some c
        | [] -> None)
  with
  | Some c -> c
  | None ->
    Client.connect ~connect_timeout ~host:node.ep.ep_host ~port:node.ep.ep_port
      ()

let give_back node c =
  let kept =
    Mutex.protect node.pool_mu (fun () ->
        if List.length node.idle < 4 then begin
          node.idle <- c :: node.idle;
          true
        end
        else false)
  in
  if not kept then try Client.close c with _ -> ()

let discard c = try Client.close c with _ -> ()

(* Sever every pooled connection (the shard=K:drop fault): the next
   exchange reconnects from scratch. *)
let sever node =
  let dropped =
    Mutex.protect node.pool_mu (fun () ->
        let cs = node.idle in
        node.idle <- [];
        cs)
  in
  List.iter discard dropped

(* ------------------------------------------------------------------ *)
(* Shard runtime state                                                *)
(* ------------------------------------------------------------------ *)

type breaker_state = Closed | Open of float | Probing

type shard = {
  s_idx : int;
  s_spec : shard_spec;
  s_primary : node;
  s_replica : node option;
  (* Replication bookkeeping: [s_cursor] is the *acknowledged* ship
     position (drives the lag gauge and stale marking); [s_shipped]
     what was actually sent. They diverge when acks are withheld
     (repl=lag faults model lost acks: data flows, certainty does
     not). Promotion resumes from [s_shipped] — re-shipping an APPEND
     would double its rows. *)
  s_cursor : Store.Ship.cursor option;
  mutable s_shipped : int;
  (* Highest primary WAL sequence whose write THIS coordinator has
     acknowledged (seeded with the log's tail at startup). Shipping
     never runs past it: a record beyond it is a write whose ack never
     left the primary — its client saw a timeout, and the failover path
     will re-apply it at the new primary, so shipping it too would
     double it. The fence installed at promotion then drops it for
     good. *)
  mutable s_acked_seq : int;
  (* which node currently holds the shard's write lease: [`Primary]
     until a fencing promotion installs the replica. Writes and reads
     follow the active node; the deposed primary is never consulted
     again (it may be a zombie serving a pre-promotion table). *)
  mutable s_active : [ `Primary | `Replica ];
  (* Lease-grant vs promotion interlock. A renewal in flight at a
     stalled primary can be consumed — and granted — whenever that
     process resumes, so the fencing handshake must not bump the epoch
     while one is outstanding. [s_fencing] stops new renewals for the
     shard; [s_lease_inflight] is set (atomically with the [s_fencing]
     check) around each grant RPC so the handshake can wait the current
     one out: it either completes (note_grant pushes the quarantine
     accordingly) or its read timeout aborts the connection with an
     RST, which the stalled peer's kernel processes immediately —
     purging the un-consumed grant before the epoch moves past it. *)
  mutable s_fencing : bool;
  mutable s_lease_inflight : bool;
  mutable s_breaker : breaker_state;
  mutable s_failures : int;
  mutable s_primary_layout : string option;
  mutable s_replica_layout : string option;
  s_mu : Mutex.t;
}

(* The group assignment for one table state: gids dealt round-robin
   across shards, with the expected ASSIGN reply (each shard's
   representative tuples) precomputed for the divergence check. *)
type layout = {
  l_key : string;
  l_part : Pkg.Partition.t;
  (* progressive only: the DLV hierarchy whose leaf is [l_part]; the
     coarse levels drive the local shading descent *)
  l_hier : Pkg.Hierarchy.t option;
  l_owner : int array;
  l_groups : (int * int array) list array;
  l_reps_csv : string array;
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  membership : Membership.t;
  shards : shard array;
  plan_cache : (string, Paql.Ast.query * Paql.Translate.spec) Cache.t;
  mutable rel : Relalg.Relation.t;
  mutable fp : string;
  layouts : (string, layout) Hashtbl.t;
  state_mu : Mutex.t;
  front : Front.t;
  mutable ship_thread : Thread.t option;
}

let port t = Front.port t.front
let metrics t = t.metrics

let shard_epoch t i = Membership.epoch t.membership i

(* The node currently holding the write lease, with the role to book
   its layout under; and the node a failed exchange may fall back to.
   Once the replica is active there is no standby — the deposed primary
   may be a resumed zombie whose table predates the promotion, and an
   answer from it would be silently stale, not merely lagging. *)
let active_node shard =
  match shard.s_active with
  | `Primary -> (shard.s_primary, `Primary)
  | `Replica -> (
    match shard.s_replica with
    | Some r -> (r, `Replica)
    | None -> (shard.s_primary, `Primary))

let has_standby shard =
  shard.s_active = `Primary && shard.s_replica <> None

(* Both the owning shard and its replica are out of reach: the group
   degrades to [omitted] rather than failing the whole query. *)
exception Shard_down of int * string

let replica_lag shard =
  match (shard.s_cursor, shard.s_spec.wal) with
  | Some c, Some path ->
    max 0 (Store.Ship.last_seq path - Store.Ship.position c)
  | _ -> 0

let publish_lag t shard =
  Metrics.set_gauge t.metrics
    (Printf.sprintf "shard%d_repl_lag" shard.s_idx)
    (replica_lag shard)

let refresh_shard_gauges t shard =
  let name k = Printf.sprintf "shard%d_%s" shard.s_idx k in
  let breaker, failures =
    Mutex.protect shard.s_mu (fun () -> (shard.s_breaker, shard.s_failures))
  in
  Metrics.set_gauge t.metrics (name "breaker")
    (match breaker with Closed -> 0 | Open _ -> 1 | Probing -> 2);
  Metrics.set_gauge t.metrics (name "failures") failures;
  Metrics.set_gauge t.metrics (name "epoch")
    (Membership.epoch t.membership shard.s_idx);
  Metrics.set_gauge t.metrics (name "active")
    (match shard.s_active with `Primary -> 0 | `Replica -> 1);
  if shard.s_replica <> None then publish_lag t shard

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                    *)
(* ------------------------------------------------------------------ *)

let breaker_gate t shard =
  let gate =
    Mutex.protect shard.s_mu (fun () ->
        match shard.s_breaker with
        | Closed -> `Allow
        | Probing -> `Deny
        | Open since ->
          if Unix.gettimeofday () -. since >= t.cfg.breaker_probe_seconds
          then begin
            shard.s_breaker <- Probing;
            `Probe
          end
          else `Deny)
  in
  refresh_shard_gauges t shard;
  gate

let record_primary_failure t shard =
  Mutex.protect shard.s_mu (fun () ->
      shard.s_failures <- shard.s_failures + 1;
      match shard.s_breaker with
      | Probing ->
        (* the probe itself failed: back to fully open *)
        shard.s_breaker <- Open (Unix.gettimeofday ())
      | Closed when shard.s_failures >= t.cfg.breaker_trips ->
        Metrics.incr t.metrics "shard_breaker_trips";
        Log.warn (fun k ->
            k "shard %d breaker tripped after %d consecutive failures"
              shard.s_idx shard.s_failures);
        shard.s_breaker <- Open (Unix.gettimeofday ())
      | Closed | Open _ -> ());
  refresh_shard_gauges t shard

let record_primary_success t shard =
  Mutex.protect shard.s_mu (fun () ->
      (match shard.s_breaker with
      | Open _ | Probing ->
        Metrics.incr t.metrics "shard_breaker_closes";
        Log.info (fun k -> k "shard %d breaker closed" shard.s_idx)
      | Closed -> ());
      shard.s_breaker <- Closed;
      shard.s_failures <- 0);
  refresh_shard_gauges t shard

(* A breaker probe is a fresh PING on a fresh connection — pooled
   streams of a sick shard are not to be trusted. The probe carries its
   own (short) connect/read deadline, [probe_timeout], independent of
   the general RPC budget: a half-open probe against a stalled node
   must answer "still sick" in bounded time, not hang for the full
   [rpc_seconds]. The outcome is typed so a timeout is distinguishable
   from a refused/unreachable node in metrics. *)
let probe t shard =
  Metrics.incr t.metrics "shard_probes";
  let node, _ = active_node shard in
  let timed_out () =
    Metrics.incr t.metrics "shard_probe_timeouts";
    `Timeout
  in
  match
    Client.connect ~connect_timeout:t.cfg.probe_timeout
      ~timeout:t.cfg.probe_timeout ~host:node.ep.ep_host
      ~port:node.ep.ep_port ()
  with
  | exception Client.Timed_out _ -> timed_out ()
  | exception _ -> `Down
  | c ->
    let outcome =
      match Client.ping c with
      | Protocol.Resp_ok _ -> `Ok
      | Protocol.Resp_err _ -> `Down
      | exception Client.Timed_out _ -> timed_out ()
      | exception _ -> `Down
    in
    discard c;
    outcome

(* ------------------------------------------------------------------ *)
(* Exchanges                                                          *)
(* ------------------------------------------------------------------ *)

let role_name = function `Primary -> "primary" | `Replica -> "replica"

(* Install the layout on [shard]'s [role] node over connection [c]
   (once per layout key), and diff the returned representative tuples
   against the locally computed ones: a shard serving different bytes
   must fail typed here, before it can contribute to a package. *)
let ensure_assigned t shard ~role ~(layout : layout) c =
  let installed =
    Mutex.protect shard.s_mu (fun () ->
        match role with
        | `Primary -> shard.s_primary_layout
        | `Replica -> shard.s_replica_layout)
  in
  if installed <> Some layout.l_key then begin
    Metrics.incr t.metrics "shard_assigns";
    let body = Protocol.render_assign layout.l_groups.(shard.s_idx) in
    match Client.roundtrip c (Protocol.Assign body) with
    | Protocol.Resp_ok reps ->
      if String.trim reps <> String.trim layout.l_reps_csv.(shard.s_idx) then
        failwith
          (Printf.sprintf
             "shard %d %s: partition divergence (representative tuples \
              differ)"
             shard.s_idx (role_name role));
      Mutex.protect shard.s_mu (fun () ->
          match role with
          | `Primary -> shard.s_primary_layout <- Some layout.l_key
          | `Replica -> shard.s_replica_layout <- Some layout.l_key)
    | Protocol.Resp_err (code, msg) ->
      failwith
        (Printf.sprintf "shard %d %s: assign refused (%s): %s" shard.s_idx
           (role_name role) (Protocol.code_name code) msg)
  end

(* One request/response through the pool, assignment included. Any
   error reply is a node failure: the shard verbs only refuse a
   request for node-local reasons (divergence, missing assignment),
   which the failover path may cure on the sibling. *)
let node_exchange t shard node ~role ~layout ~timeout req =
  let c = borrow ~connect_timeout:t.cfg.connect_timeout node in
  match
    Client.set_timeout c (Some timeout);
    ensure_assigned t shard ~role ~layout c;
    Client.roundtrip c req
  with
  | Protocol.Resp_ok body ->
    give_back node c;
    body
  | Protocol.Resp_err (code, msg) ->
    give_back node c;
    failwith
      (Printf.sprintf "shard %d %s: %s: %s" shard.s_idx (role_name role)
         (Protocol.code_name code) msg)
  | exception e ->
    discard c;
    raise e

(* Consume a one-shot shard=K fault before touching the wire: crash
   fails the exchange outright, stall delays it (letting hedges and
   timeouts fire deterministically), drop severs the pooled
   connections so the exchange reconnects. *)
let apply_shard_fault t shard =
  match Pkg.Faults.take_shard_fault shard.s_idx with
  | None -> ()
  | Some Pkg.Faults.Shard_crash ->
    Metrics.incr t.metrics "shard_injected";
    failwith (Printf.sprintf "injected crash for shard %d" shard.s_idx)
  | Some (Pkg.Faults.Shard_stall ms) ->
    Metrics.incr t.metrics "shard_injected";
    Thread.delay (float_of_int ms /. 1000.)
  | Some Pkg.Faults.Shard_drop ->
    Metrics.incr t.metrics "shard_injected";
    sever shard.s_primary

(* Primary exchange behind the breaker, with capped-backoff retries.
   Timeouts are never retried (the latency contract already spent);
   the breaker denies outright when open, sending the caller straight
   to the replica. *)
let call_primary t shard ~layout ~timeout req =
  (match breaker_gate t shard with
  | `Allow -> ()
  | `Deny -> failwith (Printf.sprintf "shard %d breaker open" shard.s_idx)
  | `Probe -> (
    match probe t shard with
    | `Ok -> record_primary_success t shard
    | (`Timeout | `Down) as bad ->
      record_primary_failure t shard;
      failwith
        (Printf.sprintf "shard %d probe %s" shard.s_idx
           (match bad with `Timeout -> "timed out" | `Down -> "failed"))));
  let node, role = active_node shard in
  let rec go attempt =
    match
      apply_shard_fault t shard;
      node_exchange t shard node ~role ~layout ~timeout req
    with
    | body ->
      record_primary_success t shard;
      body
    | exception (Client.Timed_out _ as e) ->
      record_primary_failure t shard;
      raise e
    | exception e ->
      record_primary_failure t shard;
      let open_now =
        Mutex.protect shard.s_mu (fun () -> shard.s_breaker <> Closed)
      in
      if attempt >= t.cfg.retries || open_now then raise e
      else begin
        Metrics.incr t.metrics "shard_retries";
        Thread.delay (Float.min 0.2 (0.025 *. (2. ** float_of_int attempt)));
        go (attempt + 1)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* WAL shipping and promotion                                         *)
(* ------------------------------------------------------------------ *)

(* Ship everything past [s_shipped] — up to the acknowledged prefix —
   from the primary's on-disk log to the replica, advancing the ack
   cursor except for the newest [repl_lag] records (the injected
   lost-ack window). Reading the file directly is the point: promotion
   must work when the primary is dead. Caller holds [s_mu]. *)
let ship_locked t shard =
  match (shard.s_spec.wal, shard.s_replica, shard.s_cursor) with
  | Some path, Some replica, Some cursor -> (
    match Store.Ship.pending cursor with
    | exception Sys_error _ -> ()
    | [] -> ()
    | records ->
      (* Never ship past [s_acked_seq]. A record beyond it is durable at
         the primary but its ack never came back here — the classic
         torn write at the instant a primary stalls: the coordinator
         timed it out and (after promoting) re-applies it at the new
         primary, so shipping it as well would apply it twice. Held
         records are either acked next cycle (the RPC was merely slow)
         or fenced for good once a promotion moves the epoch past
         them. *)
      let records =
        List.filter
          (fun (r : Store.Wal.record) ->
            r.Store.Wal.seq <= shard.s_acked_seq)
          records
      in
      let tail = Store.Ship.last_seq path in
      let hold = Pkg.Faults.repl_lag () in
      List.iter
        (fun (r : Store.Wal.record) ->
          let shipped =
            r.Store.Wal.seq > shard.s_shipped
            &&
            let c = borrow ~connect_timeout:t.cfg.connect_timeout replica in
            let resp =
              match
                Client.set_timeout c (Some t.cfg.rpc_seconds);
                (* forward the record's own epoch stamp: the replica's
                   log then carries the provenance a restart recovers
                   its fence from *)
                match r.Store.Wal.op with
                | Store.Wal.Append rows ->
                  Client.append ~epoch:r.Store.Wal.epoch c
                    ~csv:(Relalg.Csv.to_string rows)
                | Store.Wal.Delete ids ->
                  Client.delete ~epoch:r.Store.Wal.epoch c ids
              with
              | resp ->
                give_back replica c;
                resp
              | exception e ->
                discard c;
                raise e
            in
            match resp with
            | Protocol.Resp_ok _ ->
              shard.s_shipped <- r.Store.Wal.seq;
              (* shipping invalidates the replica's installed layout:
                 its table fingerprint moved *)
              shard.s_replica_layout <- None;
              true
            | Protocol.Resp_err (_, msg) ->
              failwith (Printf.sprintf "ship refused: %s" msg)
          in
          if r.Store.Wal.seq <= tail - hold then
            Store.Ship.advance cursor r.Store.Wal.seq;
          if shipped then begin
            (* the lag first: whoever sees the record counted as shipped
               sees the lag it left *)
            publish_lag t shard;
            Metrics.incr t.metrics "shard_shipped"
          end)
        records)
  | _ -> ()

(* Read-path promotion: catch the replica up from the (possibly dead)
   primary's log. Best-effort — an unreachable log or replica leaves
   the lag standing, and the caller marks the served groups stale. *)
let promote t shard =
  Mutex.protect shard.s_mu (fun () ->
      try ship_locked t shard with _ -> ());
  refresh_shard_gauges t shard

(* Grant (or renew) a write lease at [epoch] to [node]. *)
(* Lease grants ride their own dedicated connection, never the pool,
   and a grant that is not acknowledged within the RPC deadline is
   closed {e abortively} ({!Client.abort} — SO_LINGER 0). A LEASE
   written to a SIGSTOPped primary sits unread in its kernel receive
   buffer until the process resumes, and Linux delivers already-queued
   bytes {e before} reporting a reset — so the abort alone cannot
   guarantee the zombie never reads the grant. The safety argument is
   temporal instead: this RPC waits at least 90% of the lease (the
   holder's self-demotion horizon) before abandoning a grant, and any
   grant is sent no earlier than the last {e acknowledged} one. An
   abandoned grant therefore cannot be consumed until after the
   holder's previous lease has lapsed — and a server whose lease
   expired refuses same-epoch grants (see [Server.handle_lease]), so
   the stale grant confers nothing. Acknowledged grants are covered by
   [Membership.note_grant] + the quarantine wait in [fence_promote]. *)
let lease_rpc_seconds t =
  Float.max t.cfg.rpc_seconds
    (0.9 *. (float_of_int (Membership.lease_ms t.membership) /. 1000.))

let lease_node t node ~epoch =
  match
    Client.connect ~connect_timeout:t.cfg.connect_timeout
      ~timeout:(lease_rpc_seconds t) ~host:node.ep.ep_host
      ~port:node.ep.ep_port ()
  with
  | exception e -> Error (Printexc.to_string e)
  | c -> (
    match Client.lease c ~epoch ~ttl_ms:(Membership.lease_ms t.membership) with
    | Protocol.Resp_ok _ ->
      Client.close c;
      Ok ()
    | Protocol.Resp_err (code, msg) ->
      Client.close c;
      Error (Printf.sprintf "%s: %s" (Protocol.code_name code) msg)
    | exception e ->
      Client.abort c;
      Error (Printexc.to_string e))

(* The fencing handshake — the write path's failover. Ordering is the
   whole point:

   1. catch-up ship while the fence is still down: records the old
      primary acked {e before} losing its lease are legitimate and must
      reach the replica, or an acked write is lost. If catch-up fails
      the promotion aborts — correctness over availability.
   2. wait out the deposed primary's lease ([quarantine_remaining]): it
      self-demotes at 90% of its ttl, the coordinator waits the full
      ttl since its last successful grant, so by the time the new epoch
      exists the zombie is already read-only.
   3. durably bump the epoch ({!Membership.bump} persists before
      revealing) and raise the ship fence: anything still dribbling out
      of the old log below the new epoch is a zombie write, dropped.
   4. install the replica: grant it the new epoch's lease, then flip
      [s_active] so reads and writes follow it.

   Step 2 also waits out any lease renewal still {e in flight} at the
   shard ([s_fencing] stops new ones first): a grant buffered at a
   stalled primary would otherwise be consumed whenever it resumes —
   minting a fresh lease for a node the fleet has moved past. The
   renewal either completes before the epoch bumps (its note_grant
   extends the quarantine, covering it) or its read timeout aborts the
   connection with an RST, which the stalled peer's kernel processes
   immediately, destroying the un-consumed grant.

   A crash between 3 and 4 is safe — the epoch is spent, the replica is
   simply leased by the restarted coordinator at a yet-higher epoch. *)
let fence_promote t shard =
  match shard.s_replica with
  | None -> Error "no replica to promote"
  | Some replica ->
    if Mutex.protect shard.s_mu (fun () -> shard.s_active = `Replica) then
      Ok () (* already promoted by a concurrent write *)
    else begin
      Mutex.protect shard.s_mu (fun () -> shard.s_fencing <- true);
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect shard.s_mu (fun () -> shard.s_fencing <- false))
      @@ fun () ->
      match Mutex.protect shard.s_mu (fun () -> ship_locked t shard) with
      | exception e ->
        Error
          (Printf.sprintf "promotion aborted: catch-up ship failed: %s"
             (Printexc.to_string e))
      | () -> (
        (* wait out the in-flight renewal, if any: bounded by its own
           connect + read deadlines, after which it has self-aborted *)
        let inflight_deadline =
          Unix.gettimeofday () +. t.cfg.connect_timeout +. lease_rpc_seconds t
          +. 1.
        in
        while
          Mutex.protect shard.s_mu (fun () -> shard.s_lease_inflight)
          && Unix.gettimeofday () < inflight_deadline
        do
          Thread.delay 0.01
        done;
        let wait = Membership.quarantine_remaining t.membership shard.s_idx in
        if wait > 0. then Thread.delay wait;
        let epoch = Membership.bump t.membership shard.s_idx in
        Metrics.incr t.metrics "epoch_bumps";
        Option.iter
          (fun c -> Mutex.protect shard.s_mu (fun () ->
               Store.Ship.set_fence c epoch))
          shard.s_cursor;
        match lease_node t replica ~epoch with
        | Error msg ->
          Error (Printf.sprintf "replica refused lease at epoch %d: %s" epoch msg)
        | Ok () ->
          Membership.note_grant t.membership shard.s_idx;
          Mutex.protect shard.s_mu (fun () ->
              shard.s_active <- `Replica;
              (* the breaker guarded the deposed node; the new active
                 starts with a clean slate *)
              shard.s_breaker <- Closed;
              shard.s_failures <- 0);
          Metrics.incr t.metrics "shard_promotions";
          Log.info (fun k ->
              k "shard %d: replica promoted at epoch %d" shard.s_idx epoch);
          refresh_shard_gauges t shard;
          Ok ())
    end

(* Renew the active node's lease over the shipping thread's cadence;
   only replica-bearing shards live under the lease regime (standalone
   servers keep the always-writable contract). Failures are left to the
   write path: fencing out a primary is a write-availability decision,
   not a background one. *)
let renew_leases t =
  Array.iter
    (fun shard ->
      (* the in-flight flag is taken atomically with the fencing check,
         so once a promotion has raised [s_fencing] no new grant can
         slip out toward a node it is about to fence *)
      let proceed =
        Mutex.protect shard.s_mu (fun () ->
            if shard.s_replica = None || shard.s_fencing then false
            else begin
              shard.s_lease_inflight <- true;
              true
            end)
      in
      if proceed then begin
        let node, _ = active_node shard in
        let epoch = Membership.epoch t.membership shard.s_idx in
        let r = lease_node t node ~epoch in
        Mutex.protect shard.s_mu (fun () -> shard.s_lease_inflight <- false);
        match r with
        | Ok () ->
          Membership.note_grant t.membership shard.s_idx;
          Metrics.incr t.metrics "lease_renewals"
        | Error msg ->
          Metrics.incr t.metrics "lease_renew_failures";
          Log.debug (fun k ->
              k "shard %d: lease renewal failed: %s" shard.s_idx msg)
      end)
    t.shards

let ship_loop t =
  let renew_every =
    Float.max t.cfg.ship_every (Membership.lease_seconds t.membership /. 3.)
  in
  let last_renew = ref 0. in
  let rec loop () =
    if Front.stopped t.front then ()
    else begin
      Thread.delay t.cfg.ship_every;
      Array.iter
        (fun shard ->
          if shard.s_replica <> None then begin
            Mutex.protect shard.s_mu (fun () ->
                try ship_locked t shard with _ -> ());
            refresh_shard_gauges t shard
          end)
        t.shards;
      let now = Unix.gettimeofday () in
      if now -. !last_renew >= renew_every then begin
        last_renew := now;
        renew_leases t
      end;
      loop ()
    end
  in
  loop ()

let call_replica t shard ~layout ~timeout req =
  match shard.s_replica with
  | None -> failwith (Printf.sprintf "shard %d has no replica" shard.s_idx)
  | Some replica ->
    node_exchange t shard replica ~role:`Replica ~layout ~timeout req

(* Scatter-phase exchange (ASSIGN/SKETCH): primary with retries, then
   promote-and-failover. Returns the reply body and whether a lagging
   replica served it. *)
let shard_exchange t ~layout ~timeout shard req =
  match call_primary t shard ~layout ~timeout req with
  | body -> (body, false)
  | exception e when not (has_standby shard) ->
    (* no fallback: either no replica, or the replica already IS the
       active node — the deposed primary is never consulted again *)
    raise (Shard_down (shard.s_idx, Printexc.to_string e))
  | exception _ -> (
    Metrics.incr t.metrics "shard_failovers";
    let t0 = Unix.gettimeofday () in
    promote t shard;
    match call_replica t shard ~layout ~timeout req with
    | body ->
      Metrics.observe t.metrics "failover" (Unix.gettimeofday () -. t0);
      (body, replica_lag shard > 0)
    | exception e -> raise (Shard_down (shard.s_idx, Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Hedged refine dispatch                                             *)
(* ------------------------------------------------------------------ *)

(* REFINE races the primary against a hedge fired after [hedge_ms]; a
   primary that fails fast converts the hedge into an immediate
   failover (with promotion). First answer wins; the loser is
   abandoned and its connection dies with it. Cold shard solves make
   either answer byte-identical when the replica is caught up. *)
let hedged_refine t ~layout ~timeout shard req =
  if (not (has_standby shard)) || t.cfg.hedge_ms <= 0 then
    shard_exchange t ~layout ~timeout shard req
  else begin
    let mu = Mutex.create () in
    let cond = Condition.create () in
    let winner = ref None in
    let failures = ref [] in
    let launched = ref 1 in
    let timer_done = ref false in
    let hedged = ref false in
    let spawn_replica ~promote:do_promote =
      ignore
        (Thread.create
           (fun () ->
             let t0 = Unix.gettimeofday () in
             if do_promote then begin
               Metrics.incr t.metrics "shard_failovers";
               promote t shard
             end;
             let r =
               try Ok (call_replica t shard ~layout ~timeout req)
               with e -> Error e
             in
             Mutex.protect mu (fun () ->
                 (match r with
                 | Ok body ->
                   if !winner = None then begin
                     if do_promote then
                       Metrics.observe t.metrics "failover"
                         (Unix.gettimeofday () -. t0);
                     winner := Some (`Replica, body)
                   end
                 | Error e -> failures := e :: !failures);
                 Condition.broadcast cond))
           ())
    in
    ignore
      (Thread.create
         (fun () ->
           let r =
             try Ok (call_primary t shard ~layout ~timeout req)
             with e -> Error e
           in
           Mutex.protect mu (fun () ->
               (match r with
               | Ok body -> if !winner = None then winner := Some (`Primary, body)
               | Error e ->
                 failures := e :: !failures;
                 (* primary lost with nothing else in flight: the
                    hedge becomes an immediate failover *)
                 if !winner = None && !launched = 1 then begin
                   launched := 2;
                   spawn_replica ~promote:true
                 end);
               Condition.broadcast cond))
         ());
    ignore
      (Thread.create
         (fun () ->
           Thread.delay (float_of_int t.cfg.hedge_ms /. 1000.);
           Mutex.protect mu (fun () ->
               timer_done := true;
               if !winner = None && !failures = [] && !launched = 1 then begin
                 launched := 2;
                 hedged := true;
                 Metrics.incr t.metrics "shard_hedges";
                 spawn_replica ~promote:false
               end;
               Condition.broadcast cond))
         ());
    let outcome =
      Mutex.protect mu (fun () ->
          let finished () =
            !winner <> None
            || (!timer_done && List.length !failures >= !launched)
          in
          while not (finished ()) do
            Condition.wait cond mu
          done;
          match !winner with
          | Some (who, body) ->
            if who = `Replica && !hedged then
              Metrics.incr t.metrics "shard_hedge_wins";
            Ok (who, body)
          | None ->
            Error (match !failures with e :: _ -> e | [] -> assert false))
    in
    match outcome with
    | Ok (`Primary, body) -> (body, false)
    | Ok (`Replica, body) -> (body, replica_lag shard > 0)
    | Error e -> raise (Shard_down (shard.s_idx, Printexc.to_string e))
  end

(* ------------------------------------------------------------------ *)
(* Planning and layout                                                *)
(* ------------------------------------------------------------------ *)

let plan t rel qfp query =
  match Cache.find_opt t.plan_cache qfp with
  | Some p ->
    Metrics.incr t.metrics "plan_hits";
    Ok p
  | None -> (
    Metrics.incr t.metrics "plan_misses";
    match Front.compile t.metrics (Relalg.Relation.schema rel) query with
    | Ok (_, spec) when Paql.Translate.is_stochastic spec ->
      (* Scatter/gather distributes deterministic sketch/refine work;
         SummarySearch's scenario matrices and validation rounds are not
         shard-decomposable (yet). A typed rejection beats a wrong or
         hanging scatter. *)
      Error
        (Protocol.Resp_err
           ( Protocol.Rejected,
             "stochastic queries (WITH PROBABILITY / EXPECTED) are not \
              supported by the shard coordinator; use pkgq_server or paql \
              --method stochastic" ))
    | Ok p ->
      Cache.add t.plan_cache qfp p;
      Ok p
    | Error _ as e -> e)

(* The partitioning parameters come from [Engine.derive], as on every
   server (tau default, Theorem-3 radius from epsilon and the objective
   sense): every shard re-derives the identical partition from its own
   copy of the same config and data, which is what the ASSIGN
   divergence check enforces. *)
let layout_for t rel fp spec =
  let progressive = t.cfg.method_ = `Progressive in
  let l =
    Engine.derive ~hierarchy:progressive ?tau:t.cfg.tau ?epsilon:t.cfg.epsilon
      ~attrs:t.cfg.attrs (Paql.Translate.objective_sense spec) rel
  in
  let key =
    Printf.sprintf "%s|%s|%d|%s@%s"
      (if progressive then "prog" else "flat")
      (String.concat "," l.attrs) l.tau
      (Store.Catalog.radius_string l.radius)
      fp
  in
  Mutex.protect t.state_mu (fun () ->
      match Hashtbl.find_opt t.layouts key with
      | Some l -> l
      | None ->
        (* the shards derive the identical partitioning from their own
           config ([--method progressive] must match), so the leaf of
           the hierarchy — not some coordinator-private grouping — is
           what gets dealt out *)
        let hier =
          if progressive then
            Some
              (Metrics.time t.metrics "partition" (fun () ->
                   fst (Engine.hierarchy ~levels:t.cfg.levels l rel)))
          else None
        in
        let part =
          match hier with
          | Some h -> Pkg.Hierarchy.leaf h
          | None ->
            Metrics.time t.metrics "partition" (fun () ->
                fst (Engine.partition l rel))
        in
        let m = Pkg.Partition.num_groups part in
        let nshards = Array.length t.shards in
        let owner = Array.init m (fun gid -> gid mod nshards) in
        let groups = Array.make nshards [] in
        for gid = m - 1 downto 0 do
          groups.(owner.(gid)) <-
            (gid, part.Pkg.Partition.groups.(gid).Pkg.Partition.members)
            :: groups.(owner.(gid))
        done;
        let schema = Relalg.Relation.schema rel in
        let reps_csv =
          Array.map
            (fun gs ->
              String.trim
                (Relalg.Csv.to_string
                   (Relalg.Relation.of_rows schema
                      (List.map
                         (fun (_, members) ->
                           Pkg.Partition.rep_row rel members)
                         gs))))
            groups
        in
        let l =
          { l_key = key; l_part = part; l_hier = hier; l_owner = owner;
            l_groups = groups; l_reps_csv = reps_csv }
        in
        Hashtbl.replace t.layouts key l;
        l)

(* ------------------------------------------------------------------ *)
(* Remote refine                                                      *)
(* ------------------------------------------------------------------ *)

(* The coordinator's [Pkg.Refine.solver]: group [j]'s refine query is
   solved on its owning shard (hedged, with failover to the replica),
   given the offsets [Pkg.Refine.run] computed. A group whose shard and
   replica are both unreachable goes to [omit] and is answered
   [`Unreachable]: the search starts over without it. *)
let rpc_refine t ~layout ~deadline ~stale ~omit query counters j offsets =
  let remaining = deadline -. Unix.gettimeofday () in
  let budget_ms = max 1 (int_of_float (remaining *. 1000.)) in
  let body = Protocol.render_refine ~gid:j ~budget_ms ~offsets ~query in
  let shard = t.shards.(layout.l_owner.(j)) in
  let timeout = Float.max 0.05 remaining in
  match hedged_refine t ~layout ~timeout shard (Protocol.Refine body) with
  | exception Shard_down (k, msg) ->
    Metrics.incr t.metrics "shard_omitted_groups";
    omit [ j ]
      (Printf.sprintf "group %d: shard %d and replica unreachable (%s)" j k
         msg);
    `Unreachable
  | reply, was_stale -> (
    if was_stale && not (List.mem j !stale) then stale := j :: !stale;
    counters.Pkg.Eval.ilp_calls <- counters.Pkg.Eval.ilp_calls + 1;
    match Protocol.parse_refine_result reply with
    | Protocol.Refine_feasible entries -> `Feasible entries
    | Protocol.Refine_infeasible -> `Infeasible
    | Protocol.Refine_failed msg ->
      `Failed
        (Pkg.Eval.failure ~stage:Pkg.Eval.Refine ~group:j
           (Pkg.Eval.Solver_error msg)))

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* A query is [Pkg.Sketch_refine.drive] seeded by the SKETCH scatter,
   its group queries answered by [rpc_refine]. *)
let eval_query t ~deadline query =
  let rel, fp = Mutex.protect t.state_mu (fun () -> (t.rel, t.fp)) in
  let qfp = Paql.Fingerprint.of_query query in
  match plan t rel qfp query with
  | Error resp -> resp
  | Ok (_ast, spec) ->
    let layout = layout_for t rel fp spec in
    let part = layout.l_part in
    let m = Pkg.Partition.num_groups part in
    let stale = ref [] in
    let omitted = ref [] in
    let details = ref [] in
    let omit gids detail =
      Log.warn (fun k -> k "%s" detail);
      Mutex.protect t.state_mu (fun () ->
          omitted := gids @ !omitted;
          details := detail :: !details)
    in
    let scatter_timeout () =
      Float.max 0.05
        (Float.min t.cfg.rpc_seconds (deadline -. Unix.gettimeofday ()))
    in
    (* SKETCH scatter: per-group candidate counts from every owning
       shard, in parallel. An unreachable shard (and replica) zeroes
       its groups' caps: they are omitted from the package rather than
       sinking the query. *)
    let scatter caps =
      let sketch_one shard =
        match
          shard_exchange t ~layout ~timeout:(scatter_timeout ()) shard
            (Protocol.Sketch query)
        with
        | body, was_stale ->
          let counts = Protocol.parse_counts body in
          Mutex.protect t.state_mu (fun () ->
              List.iter
                (fun (gid, n) ->
                  caps.(gid) <-
                    (if n = 0 then 0.
                     else float_of_int n *. spec.Paql.Translate.max_count);
                  if was_stale && not (List.mem gid !stale) then
                    stale := gid :: !stale)
                counts)
        | exception e ->
          omit
            (List.map fst layout.l_groups.(shard.s_idx))
            (Printf.sprintf "shard %d unreachable at sketch (%s)" shard.s_idx
               (Printexc.to_string e))
      in
      Array.to_list t.shards
      |> List.filter (fun s -> layout.l_groups.(s.s_idx) <> [])
      |> List.map (fun s -> Thread.create sketch_one s)
      |> List.iter Thread.join
    in
    let seed ~deadline counters =
      let caps = Array.make m 0. in
      scatter caps;
      (* The light context: no candidate rows (refines run on the
         shards), but the caps, representative relation and
         row-coefficient accessors feed the local sketch ILP and the
         offset aggregation — identical inputs to a single node's. *)
      let ctx = Pkg.Sketch.light_ctx spec rel part ~caps in
      (* The hybrid sketch reads candidate rows from the coordinator's
         own copy of the table; the scatter's caps keep omitted groups
         at 0. Built only if the ladder gets that far. *)
      let tuples =
        lazy { (Pkg.Sketch.make_ctx spec rel part) with Pkg.Sketch.caps }
      in
      match layout.l_hier with
      | None -> Pkg.Sketch_refine.seed ~tuples (Lazy.from_val ctx)
      | Some hier ->
        (* A progressive fleet runs the same descent as a progressive
           server, over light contexts: the leaf caps come from the
           scatter, and a coarse group's cap is the sum of the caps of
           the leaf groups inside it (so shard omissions propagate up;
           the caps are whole multiples of [max_count], so the sum is
           exact in any order). The descent shades a copy of the leaf
           caps, so [ctx] stays full width. *)
        let level_ctx l =
          if l = Pkg.Hierarchy.num_levels hier - 1 then
            { ctx with Pkg.Sketch.caps = Array.copy caps }
          else
            let coarse = Pkg.Hierarchy.level hier l in
            let caps_l = Array.make (Pkg.Partition.num_groups coarse) 0. in
            let up = coarse.Pkg.Partition.gid_of_row in
            Array.iteri
              (fun g (leaf : Pkg.Partition.group) ->
                let p = up.(leaf.Pkg.Partition.members.(0)) in
                caps_l.(p) <- caps_l.(p) +. caps.(g))
              part.Pkg.Partition.groups;
            Pkg.Sketch.light_ctx spec rel coarse ~caps:caps_l
        in
        let d =
          Pkg.Progressive.descend ~limits:t.cfg.limits ~deadline ~level_ctx
            hier counters
        in
        Front.record_level_stats t.metrics d.Pkg.Progressive.levels;
        Pkg.Progressive.seed ~tuples d ~full:(Lazy.from_val ctx)
    in
    let options =
      {
        Pkg.Sketch_refine.default_options with
        limits = t.cfg.limits;
        max_seconds = deadline -. Unix.gettimeofday ();
      }
    in
    let report =
      Pkg.Sketch_refine.drive ~options
        ~refine:(fun ~stage:_ ~bases:_ _ctx counters ->
          rpc_refine t ~layout ~deadline ~stale ~omit query counters)
        seed
    in
    (* A stale or omitted group degrades any answer but a failure, an
       infeasible one included: the missing groups may be what sank
       it. *)
    let omitted = List.sort_uniq compare !omitted in
    let stale =
      List.sort_uniq compare !stale
      |> List.filter (fun g -> not (List.mem g omitted))
    in
    let status =
      match report.Pkg.Eval.status with
      | Pkg.Eval.Failed _ as s -> s
      | s when stale = [] && omitted = [] -> s
      | s ->
        let cause =
          match s with
          | Pkg.Eval.Degraded d -> [ d.Pkg.Eval.detail ]
          | Pkg.Eval.Infeasible -> [ "infeasible over the remaining groups" ]
          | _ -> []
        in
        Pkg.Eval.Degraded
          {
            Pkg.Eval.stale_groups = stale;
            omitted_groups = omitted;
            detail = String.concat "; " (List.rev !details @ cause);
          }
    in
    Front.response_of_report { report with Pkg.Eval.status }

(* ------------------------------------------------------------------ *)
(* Writes                                                             *)
(* ------------------------------------------------------------------ *)

(* One write attempt against [shard]'s current active node, stamped
   with the shard's current epoch when it lives under the lease regime
   (a replica exists). A [`Fenced] outcome is the active node telling
   us it lost its lease (or the stamp went stale mid-flight) — the
   typed signal that a fencing promotion, not a retry, is the cure. *)
(* The write ack names the durable record ("...; seq N"); when the
   write landed on the node whose log we ship from, that seq extends
   the acknowledged prefix shipping is allowed to cover. *)
let acked_seq_of_body body =
  match String.rindex_opt body ' ' with
  | None -> None
  | Some i -> (
    let tag_start = String.length "; seq " in
    match
      int_of_string_opt (String.sub body (i + 1) (String.length body - i - 1))
    with
    | Some seq
      when i >= tag_start - 1
           && String.sub body (i - tag_start + 1) tag_start = "; seq " ->
      Some seq
    | _ -> None)

let write_shard_once t shard op =
  let node, side = active_node shard in
  let epoch =
    if shard.s_replica <> None then
      Some (Membership.epoch t.membership shard.s_idx)
    else None
  in
  match borrow ~connect_timeout:t.cfg.connect_timeout node with
  | exception e -> Error (`Conn, Printexc.to_string e)
  | c -> (
    match
      Client.set_timeout c (Some t.cfg.rpc_seconds);
      Client.roundtrip c
        (match op with
        | Store.Wal.Append rows ->
          Protocol.Append { csv = Relalg.Csv.to_string rows; epoch }
        | Store.Wal.Delete ids -> Protocol.Delete { ids; epoch })
    with
    | Protocol.Resp_ok body ->
      give_back node c;
      (if side = `Primary then
         match acked_seq_of_body body with
         | Some seq ->
           Mutex.protect shard.s_mu (fun () ->
               if seq > shard.s_acked_seq then shard.s_acked_seq <- seq)
         | None -> ());
      Ok ()
    | Protocol.Resp_err (Protocol.Fenced, msg) ->
      give_back node c;
      Metrics.incr t.metrics "fence_rejections";
      Error (`Fenced, msg)
    | Protocol.Resp_err (_, msg) ->
      give_back node c;
      Error (`Refused, msg)
    | exception e ->
      discard c;
      Error (`Conn, Printexc.to_string e))

(* A write goes to every shard's active node (its replica gets it via
   WAL shipping) and then applies locally with the exact recovery
   semantics, keeping the coordinator's partitioning authority aligned
   with the fleet. An unreachable or fenced active triggers the fencing
   handshake — epoch bump, quarantine, replica install — and one retry
   against the new primary; an aborted promotion (catch-up failed)
   fails the write instead of risking an acked-write loss. A
   mid-broadcast failure leaves the fleet divergent until the failed
   shard is restored — subsequent ASSIGNs report it typed, so a
   partial write can degrade queries but never corrupt them. *)
let broadcast_write t op ~render_ok =
  Mutex.protect t.state_mu (fun () ->
      let failed = ref [] in
      Array.iter
        (fun shard ->
          let fail fmt =
            Printf.ksprintf (fun m ->
                failed := Printf.sprintf "shard %d %s" shard.s_idx m :: !failed)
              fmt
          in
          match write_shard_once t shard op with
          | Ok () -> ()
          | Error (`Refused, msg) -> fail "refused: %s" msg
          | Error ((`Conn | `Fenced), why) when has_standby shard -> (
            match fence_promote t shard with
            | Error pmsg -> fail "%s; %s" why pmsg
            | Ok () -> (
              Metrics.incr t.metrics "write_failovers";
              match write_shard_once t shard op with
              | Ok () -> ()
              | Error (_, msg) -> fail "after promotion: %s" msg))
          | Error (`Fenced, msg) -> fail "fenced: %s" msg
          | Error (`Conn, msg) -> fail ": %s" msg)
        t.shards;
      match !failed with
      | _ :: _ ->
        Protocol.Resp_err
          ( Protocol.Internal,
            "write not applied fleet-wide: " ^ String.concat "; " !failed )
      | [] ->
        t.rel <- Store.Recovery.apply t.rel op;
        t.fp <- Store.Segment.fingerprint t.rel;
        Hashtbl.reset t.layouts;
        Array.iter
          (fun shard ->
            Mutex.protect shard.s_mu (fun () ->
                shard.s_primary_layout <- None;
                shard.s_replica_layout <- None))
          t.shards;
        (match op with
        | Store.Wal.Append _ -> Metrics.incr t.metrics "appends"
        | Store.Wal.Delete _ -> Metrics.incr t.metrics "deletes");
        Protocol.Resp_ok (render_ok ()))

let handle_append t csv =
  match Relalg.Csv.of_string csv with
  | exception Relalg.Csv.Error (line, msg) ->
    Protocol.Resp_err
      (Protocol.Data_error, Printf.sprintf "csv error at line %d: %s" line msg)
  | extra ->
    if
      not
        (Relalg.Schema.equal
           (Relalg.Relation.schema t.rel)
           (Relalg.Relation.schema extra))
    then Protocol.Resp_err (Protocol.Data_error, "append: schemas differ")
    else
      broadcast_write t (Store.Wal.Append extra) ~render_ok:(fun () ->
          Printf.sprintf "appended %d rows; table now %d rows, fingerprint %s"
            (Relalg.Relation.cardinality extra)
            (Relalg.Relation.cardinality t.rel)
            t.fp)

let handle_delete t ids =
  let n = Relalg.Relation.cardinality t.rel in
  match
    List.iter
      (fun id ->
        if id < 0 || id >= n then
          invalid_arg
            (Printf.sprintf "delete: row id %d out of range (%d rows)" id n))
      ids
  with
  | exception Invalid_argument msg ->
    Protocol.Resp_err (Protocol.Data_error, msg)
  | () ->
    broadcast_write t (Store.Wal.Delete ids) ~render_ok:(fun () ->
        Printf.sprintf "deleted %d rows; table now %d rows, fingerprint %s"
          (List.length ids)
          (Relalg.Relation.cardinality t.rel)
          t.fp)

(* ------------------------------------------------------------------ *)
(* Front end                                                          *)
(* ------------------------------------------------------------------ *)

let handle_query t query =
  let deadline = Unix.gettimeofday () +. t.cfg.request_seconds in
  Front.answer t.metrics (fun () -> eval_query t ~deadline query)

let eval t query = handle_query t query

(* The verbs beyond the shell's PING/QUIT. *)
let dispatch t = function
  | Protocol.Stats ->
    Array.iter (fun s -> refresh_shard_gauges t s) t.shards;
    Protocol.Resp_ok (Metrics.render t.metrics)
  | Protocol.Fingerprint ->
    let fp, rows =
      Mutex.protect t.state_mu (fun () ->
          (t.fp, Relalg.Relation.cardinality t.rel))
    in
    Protocol.Resp_ok (Printf.sprintf "%s %d" fp rows)
  | Protocol.Append { csv; epoch = _ } -> handle_append t csv
  | Protocol.Delete { ids; epoch = _ } -> handle_delete t ids
  | Protocol.Query q -> handle_query t q
  | Protocol.Assign _ | Protocol.Sketch _ | Protocol.Refine _
  | Protocol.Lease _ ->
    (* the coordinator fronts a fleet; it is not itself a shard *)
    Protocol.Resp_err (Protocol.Data_error, "shard verbs are not served here")
  | Protocol.Ping | Protocol.Quit -> assert false (* answered by the shell *)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let start cfg specs rel =
  if cfg.attrs = [] then
    failwith "coordinator: partitioning attributes are required (--attrs)";
  if specs = [] then failwith "coordinator: at least one shard is required";
  let metrics = Metrics.create () in
  let shards =
    Array.of_list
      (List.mapi
         (fun i spec ->
           {
             s_idx = i;
             s_spec = spec;
             s_primary = node_of spec.primary;
             s_replica = Option.map node_of spec.replica;
             s_cursor = Option.map (fun p -> Store.Ship.make p) spec.wal;
             s_shipped = 0;
             (* everything already in the log predates this coordinator:
                treat it as acknowledged, or shipping could never start *)
             s_acked_seq =
               (match spec.wal with
               | Some p -> (try Store.Ship.last_seq p with _ -> 0)
               | None -> 0);
             s_active = `Primary;
             s_fencing = false;
             s_lease_inflight = false;
             s_breaker = Closed;
             s_failures = 0;
             s_primary_layout = None;
             s_replica_layout = None;
             s_mu = Mutex.create ();
           })
         specs)
  in
  Front.prewarm rel;
  let front = Front.listen ~metrics ~host:cfg.host ~port:cfg.port in
  let t =
    {
      cfg;
      metrics;
      membership =
        Membership.create ?dir:cfg.epoch_dir ?lease_ms:cfg.lease_ms
          ~shards:(List.length specs) ();
      shards;
      plan_cache = Cache.create ~capacity:64;
      rel;
      fp = Store.Segment.fingerprint rel;
      layouts = Hashtbl.create 4;
      state_mu = Mutex.create ();
      front;
      ship_thread = None;
    }
  in
  Pkg.Eval.set_observer
    (Some
       (fun stage dt ->
         Metrics.observe metrics (Pkg.Eval.stage_name stage) dt));
  (* Replica-bearing shards enter the lease regime now: grant the
     primary its first lease at the current (possibly restart-recovered)
     epoch. Best-effort — a node that is not up yet is simply leased by
     the first renewal that reaches it. *)
  Array.iter
    (fun shard ->
      if shard.s_replica <> None then
        match
          lease_node t shard.s_primary
            ~epoch:(Membership.epoch t.membership shard.s_idx)
        with
        | Ok () -> Membership.note_grant t.membership shard.s_idx
        | Error msg ->
          Log.warn (fun k ->
              k "shard %d: initial lease grant failed: %s" shard.s_idx msg))
    shards;
  Array.iter (fun s -> refresh_shard_gauges t s) shards;
  Front.serve front (dispatch t);
  if Array.exists (fun s -> s.s_replica <> None) shards then
    t.ship_thread <- Some (Thread.create ship_loop t);
  Log.info (fun k ->
      k "coordinating %d shards (%d with replicas) on %s:%d"
        (Array.length shards)
        (Array.fold_left
           (fun a s -> if s.s_replica <> None then a + 1 else a)
           0 shards)
        cfg.host (Front.port front));
  t

let stop t =
  Front.stop t.front ~teardown:(fun () ->
      Option.iter Thread.join t.ship_thread;
      Array.iter
        (fun shard ->
          sever shard.s_primary;
          Option.iter sever shard.s_replica)
        t.shards;
      Pkg.Eval.set_observer None)
