(* pkgq_shard: coordinate package queries across a pkgq_server fleet.

   Examples:
     # spawn a local fleet of 4 shards, each with a replica
     pkgq_shard --data galaxy.csv --attrs a,b --spawn 4 --replicas 1

     # front an already-running fleet (shared storage: same table!)
     pkgq_shard --data galaxy.csv --attrs a,b \
       --shard 127.0.0.1:7071+127.0.0.1:7072@/var/pkgq/s0/wal/wal.log \
       --shard 127.0.0.1:7081+127.0.0.1:7082@/var/pkgq/s1/wal/wal.log *)

open Cmdliner

let exit_data_error = 3
let exit_usage_error = 6

let die code msg =
  prerr_endline ("pkgq_shard: " ^ msg);
  exit code

(* HOST:PORT[+HOST:PORT][@WALPATH] — primary, optional replica,
   optional path to the primary's on-disk WAL log. *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> failwith (Printf.sprintf "--shard: %S is not HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p > 0 && host <> "" ->
      { Service.Coordinator.ep_host = host; ep_port = p }
    | _ -> failwith (Printf.sprintf "--shard: %S is not HOST:PORT" s))

let parse_shard_spec s =
  let nodes, wal =
    match String.index_opt s '@' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let primary, replica =
    match String.index_opt nodes '+' with
    | None -> (parse_endpoint nodes, None)
    | Some i ->
      ( parse_endpoint (String.sub nodes 0 i),
        Some
          (parse_endpoint
             (String.sub nodes (i + 1) (String.length nodes - i - 1))) )
  in
  { Service.Coordinator.primary; replica; wal }

let run_inner data host port shards spawn replicas fleet_dir server_exe
    method_ attrs tau epsilon max_seconds max_nodes request_seconds
    connect_timeout rpc_seconds retries hedge_ms breaker_trips lease_ms
    epoch_dir faults levels verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.App));
  (match faults with
  | None -> ()
  | Some s -> (
    match Pkg.Faults.parse s with
    | Ok spec -> Pkg.Faults.install spec
    | Error msg -> die exit_usage_error ("--faults: " ^ msg)));
  if attrs = [] then
    die exit_usage_error "--attrs is required (fleet partitioning config)";
  let rel =
    if Filename.check_suffix data ".seg" then Store.Segment.read data
    else Relalg.Csv.read data
  in
  let cfg =
    {
      Service.Coordinator.default_config with
      host;
      port;
      method_;
      attrs;
      tau;
      epsilon;
      limits = { Ilp.Branch_bound.default_limits with max_nodes; max_seconds };
      request_seconds;
      connect_timeout;
      rpc_seconds;
      retries;
      hedge_ms;
      breaker_trips = max 1 breaker_trips;
      lease_ms = Option.map (max 1) lease_ms;
      epoch_dir;
      levels;
    }
  in
  (* either front an existing fleet (--shard ...) or spawn a local one
     (--spawn; the fleet inherits the identical partitioning config) *)
  let fleet, specs =
    match shards with
    | _ :: _ ->
      if spawn <> None then
        die exit_usage_error "--shard and --spawn are mutually exclusive";
      ([], List.map parse_shard_spec shards)
    | [] ->
      let n = Option.value spawn ~default:2 in
      if n < 1 then die exit_usage_error "--spawn: need at least one shard";
      let exe =
        match server_exe with
        | Some e -> e
        | None ->
          (* dune installs the binary bare, but builds it as .exe *)
          let dir = Filename.dirname Sys.executable_name in
          let bare = Filename.concat dir "pkgq_server" in
          if Sys.file_exists bare then bare else bare ^ ".exe"
      in
      let dir =
        match fleet_dir with
        | Some d -> d
        | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "pkgq_fleet_%d" (Unix.getpid ()))
      in
      let extra_args =
        [ "--attrs"; String.concat "," attrs ]
        @ (match method_ with
          | `Progressive -> [ "--method"; "progressive" ]
          | `Sketch_refine -> [])
        @ (match tau with
          | Some t -> [ "--tau"; string_of_int t ]
          | None -> [])
        @
        match epsilon with
        | Some e -> [ "--epsilon"; Printf.sprintf "%h" e ]
        | None -> []
      in
      let fleet =
        Service.Chaos.start_fleet ~exe ~dir ~base:rel ~shards:n ~replicas
          ~extra_args ()
      in
      Printf.printf "pkgq_shard: spawned %d shard(s) (%d replica(s)) in %s\n%!"
        n (replicas * n) dir;
      (fleet, Service.Chaos.fleet_specs fleet)
  in
  let t =
    try Service.Coordinator.start cfg specs rel
    with e ->
      Service.Chaos.stop_fleet fleet;
      raise e
  in
  Printf.printf "pkgq_shard: coordinating %d shard(s) over %d rows on %s:%d\n%!"
    (List.length specs) (Relalg.Relation.cardinality rel) host
    (Service.Coordinator.port t);
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    Thread.delay 0.1
  done;
  prerr_endline "pkgq_shard: shutting down";
  Service.Coordinator.stop t;
  Service.Chaos.stop_fleet fleet;
  print_endline (Service.Metrics.summary_line (Service.Coordinator.metrics t))

let run data host port shards spawn replicas fleet_dir server_exe method_
    attrs tau epsilon max_seconds max_nodes request_seconds connect_timeout
    rpc_seconds retries hedge_ms breaker_trips lease_ms epoch_dir faults
    levels verbose =
  match
    run_inner data host port shards spawn replicas fleet_dir server_exe
      method_ attrs tau epsilon max_seconds max_nodes request_seconds
      connect_timeout rpc_seconds retries hedge_ms breaker_trips lease_ms
      epoch_dir faults levels verbose
  with
  | () -> ()
  | exception Relalg.Csv.Error (line, msg) ->
    die exit_data_error (Printf.sprintf "csv error at line %d: %s" line msg)
  | exception Store.Segment.Error msg -> die exit_data_error ("store: " ^ msg)
  | exception Service.Chaos.Harness_error msg ->
    die exit_data_error ("fleet: " ^ msg)
  | exception Sys_error msg -> die exit_data_error msg
  | exception Unix.Unix_error (e, fn, _) ->
    die exit_data_error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure msg -> die exit_usage_error msg

let data =
  Arg.(
    required
    & opt (some file) None
    & info [ "data"; "d" ] ~docv:"FILE"
        ~doc:
          "The fleet's shared table: CSV with a name:type header, or a .seg \
           segment. Every shard must serve the same bytes.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")

let port =
  Arg.(
    value & opt int 0
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"Port to bind (default 0: pick an ephemeral port and print it).")

let shards =
  Arg.(
    value & opt_all string []
    & info [ "shard" ] ~docv:"SPEC"
        ~doc:
          "One shard: $(b,HOST:PORT)[$(b,+HOST:PORT)][$(b,@WALPATH)] — \
           primary, optional read replica, optional path to the primary's \
           on-disk WAL log (enables shipping and failover promotion). \
           Repeatable; mutually exclusive with $(b,--spawn).")

let spawn =
  Arg.(
    value
    & opt (some int) None
    & info [ "spawn" ] ~docv:"N" ~env:(Cmd.Env.info "PKGQ_SHARDS")
        ~doc:
          "Spawn a local fleet of N $(b,pkgq_server) shards instead of \
           fronting an existing one (2 when no $(b,--shard) is given).")

let replicas =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"R" ~env:(Cmd.Env.info "PKGQ_REPLICAS")
        ~doc:
          "With a spawned fleet: pair each primary with R replicas (0 or \
           1).")

let fleet_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "fleet-dir" ] ~docv:"DIR"
        ~doc:
          "Scratch directory for a spawned fleet (recreated; default under \
           the system temp directory).")

let server_exe =
  Arg.(
    value
    & opt (some string) None
    & info [ "server-exe" ] ~docv:"PATH"
        ~doc:
          "The $(b,pkgq_server) binary for spawned fleets (default: next to \
           this executable).")

let method_ =
  let method_conv =
    Arg.enum [ ("sketchrefine", `Sketch_refine); ("progressive", `Progressive) ]
  in
  Arg.(
    value & opt method_conv `Sketch_refine
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Distributed evaluation method: $(b,sketchrefine) (flat \
           scatter/gather) or $(b,progressive) (DLV hierarchy leaf layout \
           with a local coarse-to-fine shading descent before the \
           distributed refine). A fronted fleet must be launched with the \
           identical method; spawned fleets inherit it.")

let attrs =
  Arg.(
    value
    & opt (list string) []
    & info [ "attrs" ] ~docv:"A,B,..."
        ~doc:
          "Partitioning attributes — required, and the fleet must be \
           launched with the identical value or ASSIGN reports divergence.")

let tau =
  Arg.(
    value
    & opt (some int) None
    & info [ "tau" ] ~docv:"N"
        ~doc:"Partition size threshold (default: 10% of the table).")

let epsilon =
  Arg.(
    value
    & opt (some float) None
    & info [ "epsilon" ] ~docv:"E" ~doc:"Theorem 3 radius limit parameter.")

let max_seconds =
  Arg.(
    value & opt float 3600.
    & info [ "max-seconds" ] ~docv:"S" ~doc:"Wall-clock budget per ILP solve.")

let max_nodes =
  Arg.(
    value & opt int 200_000
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Branch-and-bound node budget.")

let request_seconds =
  Arg.(
    value & opt float 60.
    & info [ "request-seconds" ] ~docv:"S"
        ~doc:
          "Per-query wall budget; every shard RPC deadline is carved from \
           it, so a query answers (possibly $(b,degraded)) instead of \
           hanging.")

let connect_timeout =
  Arg.(
    value & opt float 1.
    & info [ "connect-timeout" ] ~docv:"S"
        ~doc:"TCP connect timeout for shard connections.")

let rpc_seconds =
  Arg.(
    value & opt float 2.
    & info [ "rpc-seconds" ] ~docv:"S"
        ~doc:
          "Cap on scatter-phase (ASSIGN/SKETCH) read timeouts: a stalled \
           shard is detected this fast, not at the query deadline.")

let retries =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Primary attempts per exchange (capped backoff) before failing \
           over to the replica. Timeouts are never retried.")

let defaults = Service.Coordinator.default_config

let hedge_ms =
  Arg.(
    value
    & opt int defaults.hedge_ms
    & info [ "hedge-ms" ] ~docv:"MS" ~env:(Cmd.Env.info "PKGQ_HEDGE_MS")
        ~doc:
          "Hedge refine RPCs against the replica after MS without a primary \
           answer; first answer wins. 0 disables.")

let breaker_trips =
  Arg.(
    value
    & opt int defaults.breaker_trips
    & info [ "breaker-trips" ] ~docv:"N"
        ~env:(Cmd.Env.info "PKGQ_BREAKER_TRIPS")
        ~doc:
          "Consecutive primary failures that trip a shard's circuit breaker.")

let lease_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "lease-ms" ] ~docv:"MS" ~env:(Cmd.Env.info "PKGQ_LEASE_MS")
        ~doc:
          "Write-lease duration for replica-bearing shards. The primary \
           self-demotes read-only at 90% of this after its last renewal; a \
           fencing promotion waits out the full duration before bumping the \
           epoch (default 1500).")

let epoch_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "epoch-dir" ] ~docv:"DIR" ~env:(Cmd.Env.info "PKGQ_EPOCH_DIR")
        ~doc:
          "Persist per-shard fencing epochs under DIR ($(b,epochs.bin)) so \
           they survive coordinator restarts (default: coordinator-local).")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC" ~env:(Cmd.Env.info Knobs.faults_var)
        ~doc:
          "Deterministic fault-injection directives, e.g. \
           $(b,'shard=1:crash') or $(b,'repl=lag:2').")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Chatty logging.")

let cmd =
  let doc = "coordinate PaQL package queries across a pkgq_server fleet" in
  let term =
    Term.(
      const run $ data $ host $ port $ shards $ spawn $ replicas $ fleet_dir
      $ server_exe $ method_ $ attrs $ tau $ epsilon $ max_seconds
      $ max_nodes $ request_seconds $ connect_timeout $ rpc_seconds $ retries
      $ hedge_ms $ breaker_trips $ lease_ms $ epoch_dir $ faults
      $ Knobs.term Knobs.levels $ verbose)
  in
  Cmd.v (Cmd.info "pkgq_shard" ~doc ~envs:Knobs.levels.envs) term

let () = match Cmd.eval_value cmd with Ok _ -> () | Error _ -> exit 124
