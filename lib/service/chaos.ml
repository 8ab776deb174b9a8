(* Kill/restart harness for the durability tests and benches.

   One experiment = one scratch directory holding the seed segment, the
   WAL directory, and the child server's captured stdout. We spawn a
   real [pkgq_server] child (crashes must kill a *process*, not a
   thread — fsync-durability is only observable across a process
   boundary), drive appends over TCP counting acknowledgements, let the
   injected fault SIGKILL it (or deliver the SIGKILL ourselves),
   restart it on the same WAL directory, and compare the recovered
   fingerprint against the locally-computed prefix fingerprints. *)

type crash_point =
  | Torn of int
  | Crash of int
  | Kill_after of int

let pp_point ppf = function
  | Torn k -> Format.fprintf ppf "torn:%d" k
  | Crash k -> Format.fprintf ppf "crash:%d" k
  | Kill_after n -> Format.fprintf ppf "kill_after:%d" n

let point_name p = Format.asprintf "%a" pp_point p

type result = {
  point : crash_point;
  acked : int;
  died : bool;
  recovered_fp : string;
  recovered_rows : int;
  recovery_seconds : float;
  refs : (string * int) array;
}

(* ---- reference prefixes ------------------------------------------- *)

(* refs.(i) = (fingerprint, rows) after the first [i] batches, computed
   with the exact apply semantics recovery uses — byte-equivalence is
   the whole point. *)
let reference_prefixes base batches =
  let n = List.length batches in
  let refs = Array.make (n + 1) ("", 0) in
  let rel = ref base in
  refs.(0) <- (Store.Segment.fingerprint base, Relalg.Relation.cardinality base);
  List.iteri
    (fun i batch ->
      rel := Store.Recovery.apply !rel (Store.Wal.Append batch);
      refs.(i + 1) <-
        (Store.Segment.fingerprint !rel, Relalg.Relation.cardinality !rel))
    batches;
  refs

(* ---- child server ------------------------------------------------- *)

type server = { pid : int; port : int; out_file : string }

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  if not (Sys.file_exists path) then ""
  else In_channel.with_open_bin path In_channel.input_all

(* The boot banner ends "... on HOST:PORT"; with --port 0 it is the only
   way to learn the bound port. *)
let parse_port out =
  let rx_prefix = "pkgq_server: serving " in
  String.split_on_char '\n' out
  |> List.find_map (fun line ->
         if String.length line > String.length rx_prefix
            && String.sub line 0 (String.length rx_prefix) = rx_prefix
         then
           match String.rindex_opt line ':' with
           | None -> None
           | Some i ->
             int_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
         else None)

exception Harness_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Harness_error s)) fmt

(* Every spawned child pid, so an aborting run (uncaught exception,
   failed assertion, harness bug) cannot leak server processes: an
   [at_exit] hook SIGKILLs whatever is still registered. SIGKILL also
   collects SIGSTOPped children, which the shard chaos matrix leaves
   behind on a failed test. *)
let registry : (int, unit) Hashtbl.t = Hashtbl.create 8
let registry_mu = Mutex.create ()
let registry_hook = ref false

let register pid =
  Mutex.protect registry_mu (fun () ->
      if not !registry_hook then begin
        registry_hook := true;
        at_exit (fun () ->
            let pids =
              Mutex.protect registry_mu (fun () ->
                  Hashtbl.fold (fun pid () acc -> pid :: acc) registry [])
            in
            List.iter
              (fun pid ->
                (* SIGCONT first: a SIGKILL does collect a stopped
                   child, but the wake keeps the exit path uniform with
                   [kill_and_reap] and lets the child's own teardown
                   (atexit WAL flush) run if SIGKILL loses the race *)
                (try Unix.kill pid Sys.sigcont
                 with Unix.Unix_error (_, _, _) -> ());
                (try Unix.kill pid Sys.sigkill
                 with Unix.Unix_error (_, _, _) -> ());
                try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
                with Unix.Unix_error (_, _, _) -> ())
              pids)
      end;
      Hashtbl.replace registry pid ())

let unregister pid =
  Mutex.protect registry_mu (fun () -> Hashtbl.remove registry pid)

let child_alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
    unregister pid;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    unregister pid;
    false

(* Collect the child, whatever state it is in. *)
let reap pid =
  unregister pid;
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* A SIGSTOPped child never delivers a pending SIGTERM — the signal
   stays queued until a SIGCONT, so the blocking [waitpid] in [reap]
   would hang the whole test run on a paused server. Always SIGCONT
   first; it is a no-op on a running child. *)
let kill_and_reap pid signal =
  (try Unix.kill pid Sys.sigcont with Unix.Unix_error (_, _, _) -> ());
  (try Unix.kill pid signal with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  reap pid

let start_server ~exe ~data ~wal ?faults ?checkpoint ?sync ?(extra_args = [])
    ~out_file () =
  let args =
    [ exe; "--data"; data; "--wal"; wal; "--port"; "0"; "--log-every"; "0";
      "--workers"; "2"; "--queue"; "16"; "--no-store" ]
    @ (match faults with Some s -> [ "--faults"; s ] | None -> [])
    @ (match checkpoint with
      | Some n -> [ "--wal-checkpoint"; string_of_int n ]
      | None -> [])
    @ extra_args
  in
  let env =
    let keep =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not (String.length kv >= 14 && String.sub kv 0 14 = "PKGQ_WAL_SYNC="))
    in
    let extra =
      match sync with Some s -> [ "PKGQ_WAL_SYNC=" ^ s ] | None -> []
    in
    Array.of_list (keep @ extra)
  in
  let out_fd =
    Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out_fd)
      (fun () ->
        Unix.create_process_env exe (Array.of_list args) env Unix.stdin out_fd
          Unix.stderr)
  in
  register pid;
  (* Poll the captured stdout for the banner; the child prints it only
     after recovery finished and the accept loop is live. *)
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_port () =
    match parse_port (read_file out_file) with
    | Some port -> { pid; port; out_file }
    | None ->
      if not (child_alive pid) then
        fail "server %s died before binding; stdout: %s" exe
          (read_file out_file)
      else if Unix.gettimeofday () > deadline then begin
        kill_and_reap pid Sys.sigkill;
        fail "server %s did not bind within 30s" exe
      end
      else begin
        Thread.delay 0.01;
        wait_port ()
      end
  in
  wait_port ()

(* ---- driving the workload ----------------------------------------- *)

(* Append batches serially, counting acks, until the child dies under
   us (injected faults SIGKILL it mid-WAL-write) or the list is done.
   [kill_after n] delivers our own SIGKILL once [n] acks are in. *)
let drive_appends server ~kill_after batches =
  let client =
    Client.connect ~host:"127.0.0.1" ~port:server.port ()
  in
  let acked = ref 0 in
  let died = ref false in
  (try
     List.iter
       (fun batch ->
         (match kill_after with
         | Some n when !acked >= n ->
           kill_and_reap server.pid Sys.sigkill;
           raise Exit
         | _ -> ());
         match
           Client.append client ~csv:(Relalg.Csv.to_string batch)
         with
         | Protocol.Resp_ok _ -> incr acked
         | Protocol.Resp_err (_, msg) -> fail "append refused: %s" msg)
       batches;
     match kill_after with
     | Some n when !acked >= n ->
       kill_and_reap server.pid Sys.sigkill;
       died := true
     | _ -> ()
   with
  | Exit -> died := true
  | End_of_file | Sys_error _
  | Unix.Unix_error (_, _, _)
  | Protocol.Protocol_error _ ->
    died := true);
  (try Client.close client with _ -> ());
  (!acked, !died)

let fprint client =
  match Client.fingerprint client with
  | Protocol.Resp_ok body -> (
    match String.split_on_char ' ' (String.trim body) with
    | [ fp; rows ] -> (fp, int_of_string rows)
    | _ -> fail "malformed FPRINT body %S" body)
  | Protocol.Resp_err (_, msg) -> fail "FPRINT refused: %s" msg

(* ---- the experiment ----------------------------------------------- *)

let faults_of_point = function
  | Torn k -> Some (Printf.sprintf "wal=torn:%d" k)
  | Crash k -> Some (Printf.sprintf "wal=crash:%d" k)
  | Kill_after _ -> None

let kill_after_of_point = function Kill_after n -> Some n | _ -> None

let fresh_dir dir =
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  mkdir_p dir

let run_crash ~exe ~dir ~base ~batches ~point ?checkpoint ?sync () =
  fresh_dir dir;
  let data = Filename.concat dir "base.seg" in
  Store.Segment.write data base;
  let wal = Filename.concat dir "wal" in
  let refs = reference_prefixes base batches in
  (* phase 1: run into the crash *)
  let s1 =
    start_server ~exe ~data ~wal
      ?faults:(faults_of_point point)
      ?checkpoint ?sync
      ~out_file:(Filename.concat dir "server1.out")
      ()
  in
  let acked, died =
    match
      drive_appends s1 ~kill_after:(kill_after_of_point point) batches
    with
    | r -> r
    | exception e ->
      kill_and_reap s1.pid Sys.sigkill;
      raise e
  in
  if died then reap s1.pid else kill_and_reap s1.pid Sys.sigkill;
  (* phase 2: restart on the same WAL dir, time recovery to first
     answered request *)
  let t0 = Unix.gettimeofday () in
  let s2 =
    start_server ~exe ~data ~wal ?checkpoint ?sync
      ~out_file:(Filename.concat dir "server2.out")
      ()
  in
  Fun.protect
    ~finally:(fun () -> kill_and_reap s2.pid Sys.sigterm)
    (fun () ->
      let client =
        Client.connect ~retries:4 ~host:"127.0.0.1" ~port:s2.port ()
      in
      Fun.protect
        ~finally:(fun () -> try Client.close client with _ -> ())
        (fun () ->
          let recovered_fp, recovered_rows = fprint client in
          let recovery_seconds = Unix.gettimeofday () -. t0 in
          { point; acked; died; recovered_fp; recovered_rows;
            recovery_seconds; refs }))

(* ---- the verdict --------------------------------------------------- *)

(* Zero acknowledged-write loss: the recovered state covers at least
   the acked prefix. Zero phantoms: at most one unacknowledged write
   (the in-doubt one durable at the instant of death) beyond it, and
   only for crash points that die *after* the WAL frame is complete.
   Everything else — a state matching no prefix at all — is
   corruption. *)
let check r =
  let matching =
    let found = ref None in
    Array.iteri
      (fun i (fp, _) -> if fp = r.recovered_fp then found := Some i)
      r.refs;
    !found
  in
  match matching with
  | None ->
    Error
      (Printf.sprintf
         "%s: recovered state (%d rows) matches no acknowledged prefix"
         (point_name r.point) r.recovered_rows)
  | Some i ->
    let in_doubt_ok =
      match r.point with Crash _ -> 1 | Torn _ | Kill_after _ -> 0
    in
    if i < r.acked then
      Error
        (Printf.sprintf "%s: lost %d acknowledged write(s) (recovered %d/%d)"
           (point_name r.point) (r.acked - i) i r.acked)
    else if i > r.acked + in_doubt_ok then
      Error
        (Printf.sprintf "%s: phantom write(s): recovered %d, acked %d"
           (point_name r.point) i r.acked)
    else Ok i

(* A never-crashed run: start once, append everything, read the live
   fingerprint, shut down cleanly. Its result must equal refs.(n) —
   proving the harness's locally-computed references describe the same
   bytes a real server reaches. *)
let run_reference ~exe ~dir ~base ~batches ?checkpoint ?sync () =
  fresh_dir dir;
  let data = Filename.concat dir "base.seg" in
  Store.Segment.write data base;
  let wal = Filename.concat dir "wal" in
  let refs = reference_prefixes base batches in
  let s =
    start_server ~exe ~data ~wal ?checkpoint ?sync
      ~out_file:(Filename.concat dir "server.out")
      ()
  in
  Fun.protect
    ~finally:(fun () -> kill_and_reap s.pid Sys.sigterm)
    (fun () ->
      let client =
        Client.connect ~host:"127.0.0.1" ~port:s.port ()
      in
      Fun.protect
        ~finally:(fun () -> try Client.close client with _ -> ())
        (fun () ->
          let acked, died = (List.length batches, false) in
          List.iter
            (fun batch ->
              match
                Client.append client
                  ~csv:(Relalg.Csv.to_string batch)
              with
              | Protocol.Resp_ok _ -> ()
              | Protocol.Resp_err (_, msg) ->
                fail "append refused: %s" msg)
            batches;
          let recovered_fp, recovered_rows = fprint client in
          { point = Kill_after acked; acked; died; recovered_fp;
            recovered_rows; recovery_seconds = 0.; refs }))

(* ---- shard fleets --------------------------------------------------- *)

(* Signal-level chaos for whole shards: SIGSTOP models a stalled-but-
   alive process (connections stay open, nothing answers — only
   timeouts can detect it), SIGKILL a dead one. *)
let pause s =
  try Unix.kill s.pid Sys.sigstop with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let resume s =
  try Unix.kill s.pid Sys.sigcont with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let kill_server s = kill_and_reap s.pid Sys.sigkill
let stop_server s = kill_and_reap s.pid Sys.sigterm

type fleet_member = {
  fm_primary : server;
  fm_replica : server option;
  fm_wal : string;
}

(* Shared-storage fleet: every node boots from the same base segment;
   primaries keep their full WAL (checkpointing folds records away,
   which would starve the coordinator's shipper) in per-node
   subdirectories of [dir]. [extra_args] must carry the partitioning
   config (--attrs/--tau/--epsilon) identical to the coordinator's, or
   ASSIGN reports divergence by design. *)
let start_fleet ~exe ~dir ~base ~shards ~replicas ?(extra_args = []) () =
  if shards < 1 then fail "start_fleet: need at least one shard";
  fresh_dir dir;
  let data = Filename.concat dir "base.seg" in
  Store.Segment.write data base;
  let spawn name =
    let sub = Filename.concat dir name in
    mkdir_p sub;
    let wal = Filename.concat sub "wal" in
    let srv =
      start_server ~exe ~data ~wal ~checkpoint:0 ~extra_args
        ~out_file:(Filename.concat sub "server.out")
        ()
    in
    (srv, wal)
  in
  List.init shards (fun i ->
      let primary, pwal = spawn (Printf.sprintf "shard%d" i) in
      let replica =
        if replicas > 0 then begin
          match spawn (Printf.sprintf "shard%d-replica" i) with
          | srv, _ -> Some srv
          | exception e ->
            kill_server primary;
            raise e
        end
        else None
      in
      { fm_primary = primary; fm_replica = replica;
        fm_wal = Store.Recovery.wal_path pwal })

let fleet_specs fleet =
  List.map
    (fun m ->
      {
        Coordinator.primary =
          { Coordinator.ep_host = "127.0.0.1"; ep_port = m.fm_primary.port };
        replica =
          Option.map
            (fun (r : server) ->
              { Coordinator.ep_host = "127.0.0.1"; ep_port = r.port })
            m.fm_replica;
        wal = Some m.fm_wal;
      })
    fleet

let stop_fleet fleet =
  List.iter
    (fun m ->
      kill_server m.fm_primary;
      Option.iter kill_server m.fm_replica)
    fleet

(* ---- zombie split-brain --------------------------------------------- *)

(* The classic split-brain experiment: SIGSTOP the primary (it holds a
   lease and believes itself writable), let the coordinator fence it
   out and promote the replica, then SIGCONT the zombie and drive the
   same writes at BOTH sides. The fleet is correct iff the zombie acks
   nothing (it self-demoted when its lease expired and answers the
   typed fence), every write acked through the coordinator survives on
   the active node, and a stale epoch stamp at the new primary is
   refused the same way. *)
type zombie_result = {
  z_acked : int;
  z_failover_acks : int;
  z_dual_acks : int;
  z_zombie_fenced : int;
  z_zombie_other : int;
  z_stale_fenced : bool;
  z_epoch : int;
  z_promotions : int;
  z_lost_acks : int;
  z_recovered_fp : string;
  z_recovered_rows : int;
}

let run_zombie ~exe ~dir ~base ~pre ~during ~post ?(lease_ms = 400) ~attrs
    ?tau () =
  if during = [] then fail "run_zombie: need at least one failover batch";
  if post = [] then fail "run_zombie: need at least one post-resume batch";
  let extra_args =
    (match attrs with [] -> [] | l -> [ "--attrs"; String.concat "," l ])
    @ match tau with Some n -> [ "--tau"; string_of_int n ] | None -> []
  in
  let fleet =
    start_fleet ~exe ~dir ~base ~shards:1 ~replicas:1 ~extra_args ()
  in
  Fun.protect ~finally:(fun () -> stop_fleet fleet) @@ fun () ->
  let member = List.hd fleet in
  let zombie = member.fm_primary in
  let standby =
    match member.fm_replica with
    | Some r -> r
    | None -> fail "run_zombie: fleet came up without a replica"
  in
  let cfg =
    {
      Coordinator.default_config with
      Coordinator.attrs;
      tau;
      request_seconds = 20.;
      connect_timeout = 0.5;
      rpc_seconds = 0.5;
      retries = 0;
      hedge_ms = 0;
      ship_every = 0.02;
      lease_ms = Some lease_ms;
      epoch_dir = None;
    }
  in
  let t = Coordinator.start cfg (fleet_specs fleet) base in
  Fun.protect ~finally:(fun () -> Coordinator.stop t) @@ fun () ->
  let coord = Client.connect ~host:"127.0.0.1" ~port:(Coordinator.port t) () in
  Fun.protect ~finally:(fun () -> try Client.close coord with _ -> ())
  @@ fun () ->
  let acked = ref [] in
  let ack_phase what batches =
    List.iter
      (fun batch ->
        match Client.append coord ~csv:(Relalg.Csv.to_string batch) with
        | Protocol.Resp_ok _ -> acked := batch :: !acked
        | Protocol.Resp_err (_, msg) ->
          fail "run_zombie: %s append refused by the coordinator: %s" what msg)
      batches;
    List.length batches
  in
  let old_epoch = Coordinator.shard_epoch t 0 in
  let _pre_acks = ack_phase "pre-pause" pre in
  pause zombie;
  (* every write now times out at the paused primary, forcing the
     fencing promotion; the quarantine inside it waits out the zombie's
     lease before the epoch bumps *)
  let z_failover_acks = ack_phase "failover" during in
  resume zombie;
  (* the zombie runs again with open sockets and a warm table — but its
     lease expired mid-pause, so it must have self-demoted read-only;
     give its threads a beat to wake *)
  Thread.delay 0.05;
  let z_dual = ref 0 and z_fenced = ref 0 and z_other = ref 0 in
  let zc =
    try
      Some
        (Client.connect ~connect_timeout:2. ~timeout:2. ~host:"127.0.0.1"
           ~port:zombie.port ())
    with _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun c -> try Client.close c with _ -> ()) zc)
  @@ fun () ->
  (* drive the same batches at BOTH sides: the zombie first (a Resp_ok
     there is a dual-primary ack — a write the fleet loses), then the
     fleet through the coordinator, which must ack *)
  List.iter
    (fun batch ->
      (match zc with
      | None -> incr z_other
      | Some zc -> (
        match Client.append zc ~csv:(Relalg.Csv.to_string batch) with
        | Protocol.Resp_ok _ -> incr z_dual
        | Protocol.Resp_err (Protocol.Fenced, _) -> incr z_fenced
        | Protocol.Resp_err (_, _) -> incr z_other
        | exception _ -> incr z_other));
      match Client.append coord ~csv:(Relalg.Csv.to_string batch) with
      | Protocol.Resp_ok _ -> acked := batch :: !acked
      | Protocol.Resp_err (_, msg) ->
        fail "run_zombie: post-resume append refused by the coordinator: %s"
          msg)
    post;
  (* a stale stamp at the NEW primary must answer the typed fence too *)
  let z_stale_fenced =
    match
      let c =
        Client.connect ~connect_timeout:2. ~timeout:2. ~host:"127.0.0.1"
          ~port:standby.port ()
      in
      Fun.protect ~finally:(fun () -> try Client.close c with _ -> ())
      @@ fun () ->
      Client.append ~epoch:old_epoch c
        ~csv:(Relalg.Csv.to_string (List.hd post))
    with
    | Protocol.Resp_err (Protocol.Fenced, _) -> true
    | Protocol.Resp_ok _ | Protocol.Resp_err (_, _) -> false
    | exception _ -> false
  in
  let batches = List.rev !acked in
  let n_acked = List.length batches in
  let refs = reference_prefixes base batches in
  let recovered_fp, recovered_rows =
    let c =
      Client.connect ~connect_timeout:2. ~timeout:5. ~host:"127.0.0.1"
        ~port:standby.port ()
    in
    Fun.protect ~finally:(fun () -> try Client.close c with _ -> ())
    @@ fun () -> fprint c
  in
  let matched =
    let found = ref None in
    Array.iteri
      (fun i (fp, _) -> if fp = recovered_fp then found := Some i)
      refs;
    !found
  in
  let z_lost_acks =
    match matched with Some i -> n_acked - i | None -> n_acked
  in
  {
    z_acked = n_acked;
    z_failover_acks;
    z_dual_acks = !z_dual;
    z_zombie_fenced = !z_fenced;
    z_zombie_other = !z_other;
    z_stale_fenced;
    z_epoch = Coordinator.shard_epoch t 0;
    z_promotions = Metrics.get (Coordinator.metrics t) "shard_promotions";
    z_lost_acks;
    z_recovered_fp = recovered_fp;
    z_recovered_rows = recovered_rows;
  }
