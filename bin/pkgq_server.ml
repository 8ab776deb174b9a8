(* pkgq_server: serve package queries over TCP.

   Examples:
     pkgq_server --data galaxy.csv
     pkgq_server --data galaxy.csv --port 7070 --method sketchrefine \
       --workers 8 --queue 64 --store .pkgq-store
     paql --connect 127.0.0.1:7070 --query "SELECT PACKAGE(G) ..." *)

open Cmdliner

let exit_data_error = 3
let exit_usage_error = 6

let die code msg =
  prerr_endline ("pkgq_server: " ^ msg);
  exit code

let run_inner data host port workers queue result_cache method_ tau attrs
    epsilon max_seconds max_nodes request_seconds log_every faults store_dir
    no_store wal_dir wal_checkpoint wal_sync levels stochastic verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end
  else begin
    (* the periodic metrics line logs at App level *)
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.App)
  end;
  (match faults with
  | None -> ()
  | Some s -> (
    match Pkg.Faults.parse s with
    | Ok spec -> Pkg.Faults.install spec
    | Error msg -> die exit_usage_error ("--faults: " ^ msg)));
  let catalog =
    if no_store then None else Option.map Store.Catalog.open_dir store_dir
  in
  let rel =
    match catalog with
    | Some cat -> fst (Store.Catalog.load_table cat data)
    | None ->
      if Filename.check_suffix data ".seg" then Store.Segment.read data
      else Relalg.Csv.read data
  in
  let cfg =
    {
      Service.Server.default_config with
      host;
      port;
      workers = max 1 workers;
      queue = max 1 queue;
      result_cache;
      method_;
      tau;
      attrs;
      epsilon;
      limits = { Ilp.Branch_bound.default_limits with max_nodes; max_seconds };
      request_seconds;
      log_every;
      wal_dir;
      wal_checkpoint;
      wal_sync;
      levels;
      stochastic;
    }
  in
  let t = Service.Server.start ?catalog cfg rel in
  (match Service.Server.last_recovery t with
  | None -> ()
  | Some stats ->
    Printf.printf "pkgq_server: recovered %s\n%!"
      (Format.asprintf "%a" Store.Recovery.pp_stats stats));
  Printf.printf "pkgq_server: serving %d rows from %s on %s:%d\n%!"
    (Service.Server.table_rows t) data host (Service.Server.port t);
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  (* poll rather than joining in the signal handler: handlers must not
     block on the locks stop takes *)
  while not (Atomic.get stop_requested) do
    Thread.delay 0.1
  done;
  prerr_endline "pkgq_server: shutting down";
  Service.Server.stop t;
  print_endline (Service.Metrics.summary_line (Service.Server.metrics t))

let run data host port workers queue result_cache method_ tau attrs epsilon
    max_seconds max_nodes request_seconds log_every faults store_dir no_store
    wal_dir wal_checkpoint wal_sync levels stochastic verbose =
  match
    run_inner data host port workers queue result_cache method_ tau attrs
      epsilon max_seconds max_nodes request_seconds log_every faults store_dir
      no_store wal_dir wal_checkpoint wal_sync levels stochastic verbose
  with
  | () -> ()
  | exception Relalg.Csv.Error (line, msg) ->
    die exit_data_error (Printf.sprintf "csv error at line %d: %s" line msg)
  | exception Store.Segment.Error msg -> die exit_data_error ("store: " ^ msg)
  | exception Store.Wire.Error msg -> die exit_data_error ("wal: " ^ msg)
  | exception Sys_error msg -> die exit_data_error msg
  | exception Unix.Unix_error (e, fn, _) ->
    die exit_data_error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure msg -> die exit_usage_error msg

let data =
  Arg.(
    required
    & opt (some file) None
    & info [ "data"; "d" ] ~docv:"FILE"
        ~doc:"Table to serve: CSV with a name:type header, or a .seg segment.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")

let port =
  Arg.(
    value & opt int 0
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"Port to bind (default 0: pick an ephemeral port and print it).")

let defaults = Service.Server.default_config

(* A capacity or count where 0 (also spelled [off]) disables. *)
let capacity =
  Arg.conv'
    ( (fun s ->
        match String.lowercase_ascii (String.trim s) with
        | "off" | "none" -> Ok 0
        | t -> (
          match int_of_string_opt t with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "%S is not a count or off" s))),
      Format.pp_print_int )

let workers =
  Arg.(
    value
    & opt int defaults.workers
    & info [ "workers" ] ~docv:"N"
        ~env:(Cmd.Env.info "PKGQ_SERVE_WORKERS")
        ~doc:"Worker pool size.")

let queue =
  Arg.(
    value
    & opt int defaults.queue
    & info [ "queue" ] ~docv:"N"
        ~env:(Cmd.Env.info "PKGQ_SERVE_QUEUE")
        ~doc:
          "Admission queue capacity; requests beyond it are shed with a \
           typed $(b,rejected) failure.")

let result_cache =
  Arg.(
    value
    & opt capacity defaults.result_cache
    & info [ "result-cache" ] ~docv:"N"
        ~env:(Cmd.Env.info "PKGQ_RESULT_CACHE")
        ~doc:"Result cache capacity; 0 or $(b,off) disables.")

let method_ =
  Arg.(
    value
    & opt (enum Service.Engine.methods) Service.Engine.Direct
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Evaluation method: $(b,direct), $(b,sketchrefine), \
           $(b,parallel) (sketchrefine with parallel refinement), \
           $(b,progressive) (coarse-to-fine DLV hierarchy shading; \
           $(b,--tau) sets the leaf threshold, $(b,PKGQ_HIER_LEVELS) \
           the level count) or $(b,stochastic) (SummarySearch over \
           Monte-Carlo scenarios; see $(b,PKGQ_SCENARIOS), \
           $(b,PKGQ_VALIDATE), $(b,PKGQ_SUMMARIES)). Queries using \
           WITH PROBABILITY or EXPECTED always take the stochastic \
           path, whatever the configured method.")

let tau =
  Arg.(
    value
    & opt (some int) None
    & info [ "tau" ] ~docv:"N"
        ~doc:"Partition size threshold (default: 10% of the table).")

let attrs =
  Arg.(
    value
    & opt (list string) []
    & info [ "attrs" ] ~docv:"A,B,..."
        ~doc:
          "Partitioning attributes (default: each query's numeric \
           attributes).")

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
          "Per-request wall budget, queue wait included; an expired request \
           answers $(b,deadline) instead of running over.")

let log_every =
  Arg.(
    value & opt float 10.
    & info [ "log-every" ] ~docv:"S"
        ~doc:"Seconds between metrics summary log lines (0 disables).")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~env:(Cmd.Env.info Knobs.faults_var)
        ~doc:
          "Deterministic fault-injection directives, e.g. \
           $(b,'queue=full') or $(b,'net=accept:fail').")

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~env:(Cmd.Env.info Knobs.store_var)
        ~doc:
          "Store directory for the table segment cache and partition \
           catalog.")

let no_store =
  Arg.(
    value & flag
    & info [ "no-store" ] ~doc:"Ignore the store ($(b,--store)).")

let wal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Durability directory (write-ahead log + checkpoint). On boot the \
           served state is recovered from it — checkpoint plus replayed log, \
           torn tails truncated — and $(b,--data) only seeds a directory \
           that has never checkpointed. Every APPEND/DELETE is logged \
           durably before it is acknowledged ($(b,PKGQ_WAL_SYNC) controls \
           the fsync).")

let wal_checkpoint =
  Arg.(
    value
    & opt capacity defaults.wal_checkpoint
    & info [ "wal-checkpoint" ] ~docv:"N"
        ~env:(Cmd.Env.info "PKGQ_WAL_CHECKPOINT")
        ~doc:
          "Fold the log into a fresh checkpoint every N records; 0 or \
           $(b,off) never checkpoints.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Chatty logging.")

let cmd =
  let doc = "serve PaQL package queries over TCP" in
  let term =
    Term.(
      const run $ data $ host $ port $ workers $ queue $ result_cache
      $ method_ $ tau $ attrs $ epsilon $ max_seconds $ max_nodes
      $ request_seconds $ log_every $ faults $ store_dir $ no_store $ wal_dir
      $ wal_checkpoint $ Knobs.term Knobs.wal_sync $ Knobs.term Knobs.levels
      $ Knobs.term Knobs.stochastic $ verbose)
  in
  let envs = Knobs.(wal_sync.envs @ levels.envs @ stochastic.envs) in
  Cmd.v (Cmd.info "pkgq_server" ~doc ~envs) term

let () = match Cmd.eval_value cmd with Ok _ -> () | Error _ -> exit 124
