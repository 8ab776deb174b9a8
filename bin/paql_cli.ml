(* paql: run PaQL package queries against CSV data from the command
   line, locally or against a pkgq_server (--connect).

   Examples:
     paql --data recipes.csv --query-file q.paql
     paql --data recipes.csv --query "SELECT PACKAGE(R) ..." \
          --method sketchrefine --tau 1000 --attrs kcal,fat
     paql --data big.csv --query-file q.paql --method sketchrefine \
          --epsilon 0.5 --out package.csv *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit codes: a failure that has a wire code exits with
   [Service.Protocol.exit_code] (1 infeasible, 2 no package, 3 data/IO,
   4 parse, 5 analysis, ...), locally as with --connect; 6 is a usage
   error, 124 a command-line error. *)
let die code msg =
  prerr_endline ("paql: " ^ msg);
  exit code

let fail code msg = die (Service.Protocol.exit_code code) msg
let usage msg = die 6 msg
let data_error msg = fail Service.Protocol.Data_error msg

(* Remote mode: ship the query to a pkgq_server and relay its answer.
   The OK body carries the package as CSV, so --out writes exactly the
   bytes a local run would; a remote failure exits with the same code
   taxonomy (plus 7 for an admission-control rejection). *)
let run_remote endpoint retries connect_timeout query out =
  let host, port =
    match Service.Client.parse_endpoint endpoint with
    | Ok hp -> hp
    | Error msg -> usage ("--connect: " ^ msg)
  in
  let client =
    try Service.Client.connect ~retries ?connect_timeout ~host ~port () with
    | Unix.Unix_error (e, _, _) ->
      data_error
        (Printf.sprintf "connect %s: %s" endpoint (Unix.error_message e))
    | Service.Client.Gave_up { attempts; last } ->
      data_error
        (Printf.sprintf "connect %s: gave up after %d attempts (%s)" endpoint
           attempts (Printexc.to_string last))
    | Service.Client.Timed_out { seconds; _ } ->
      data_error
        (Printf.sprintf "connect %s: timed out after %.3fs" endpoint seconds)
    | Failure msg -> data_error msg
  in
  Fun.protect
    ~finally:(fun () -> Service.Client.close client)
    (fun () ->
      match Service.Client.query client query with
      | exception Service.Protocol.Protocol_error msg ->
        data_error ("remote: " ^ msg)
      | exception Service.Client.Gave_up { attempts; last } ->
        data_error
          (Printf.sprintf "remote: gave up after %d attempts (%s)" attempts
             (Printexc.to_string last))
      | Service.Protocol.Resp_err (code, msg) -> fail code ("remote: " ^ msg)
      | Service.Protocol.Resp_ok body -> (
        match Service.Protocol.parse_result body with
        | Error msg -> data_error ("remote: " ^ msg)
        | Ok (status, wall, csv) -> (
          Format.printf "%s, %.3fs (remote)@." status wall;
          match out with
          | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc csv);
            Format.printf "package written to %s@." path
          | None -> print_string csv)))

let fail_with = function
  | Service.Protocol.Resp_err (code, msg) -> fail code msg
  | Service.Protocol.Resp_ok _ -> assert false

let run_inner connect retries connect_timeout data query_text query_file
    method_ tau attrs epsilon max_seconds max_nodes faults out verbose explain
    mps_out partition_file save_partition store_dir no_store levels stochastic
    =
  let query =
    match query_text, query_file with
    | Some q, None -> q
    | None, Some f -> read_file f
    | Some _, Some _ -> usage "pass either --query or --query-file, not both"
    | None, None -> usage "a query is required (--query or --query-file)"
  in
  match connect with
  | Some endpoint -> run_remote endpoint retries connect_timeout query out
  | None ->
  let data =
    match data with
    | Some d -> d
    | None -> usage "--data is required (unless --connect)"
  in
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  (match faults with
  | None -> ()
  | Some s -> (
    match Pkg.Faults.parse s with
    | Ok spec -> Pkg.Faults.install spec
    | Error msg -> usage ("--faults: " ^ msg)));
  (* the store, with the loaded table's fingerprint *)
  let rel, catalog =
    match
      if no_store then None else Option.map Store.Catalog.open_dir store_dir
    with
    | Some cat ->
      let rel, fp = Store.Catalog.load_table cat data in
      (rel, Some (cat, fp))
    | None ->
      if Filename.check_suffix data ".seg" then (Store.Segment.read data, None)
      else (Relalg.Csv.read data, None)
  in
  let ((ast, spec) as planned) =
    match
      Service.Front.compile (Service.Metrics.create ())
        (Relalg.Relation.schema rel) query
    with
    | Ok planned -> planned
    | Error resp -> fail_with resp
  in
  if verbose then
    Format.printf "Parsed query:@.%a@.@." Paql.Pretty.pp_query ast;
  if explain then begin
    print_string (Paql.Translate.describe spec rel);
    exit 0
  end;
  (match mps_out with
  | Some path ->
    let candidates = Paql.Translate.base_candidates spec rel in
    let problem = Paql.Translate.to_problem spec rel ~candidates in
    let names = Array.of_list spec.Paql.Translate.constraints in
    Lp.Mps.write
      ~col_name:(fun k -> Printf.sprintf "x%d" candidates.(k))
      ~row_name:(fun i -> names.(i).Paql.Translate.cname)
      path problem;
    Format.printf "ILP written to %s (%d vars, %d rows)@." path
      (Lp.Problem.nvars problem) (Lp.Problem.nrows problem)
  | None -> ());
  let groups p = Pkg.Partition.num_groups p in
  (* a flat partitioning comes from --partition-file, else the store
     or a fresh build; --save-partition keeps it *)
  let flat l =
    let t0 = Unix.gettimeofday () in
    let part =
      match partition_file with
      | Some path ->
        let p = Pkg.Partition.load path rel in
        if verbose then
          Format.printf "Loaded partitioning: %d groups@." (groups p);
        p
      | None ->
        let p, status = Service.Engine.partition ?catalog l rel in
        if verbose then begin
          match catalog with
          | Some (_, fp) ->
            Format.printf "Partition catalog %s (%s): %d groups in %.3fs@."
              (match status with `Hit -> "hit" | `Built -> "miss, built")
              (Store.Catalog.key_id (Service.Engine.catalog_key fp l))
              (groups p)
              (Unix.gettimeofday () -. t0)
          | None ->
            Format.printf "Partitioned %d tuples into %d groups in %.3fs@."
              (Relalg.Relation.cardinality rel)
              (groups p)
              (Unix.gettimeofday () -. t0)
        end;
        p
    in
    Option.iter
      (fun path ->
        Pkg.Partition.save path part;
        if verbose then Format.printf "Partitioning saved to %s@." path)
      save_partition;
    part
  in
  let hier l =
    let t0 = Unix.gettimeofday () in
    let h, status = Service.Engine.hierarchy ?catalog ~levels l rel in
    if verbose then
      Format.printf "Hierarchy %s: %d levels (%s groups) in %.3fs@."
        (match status with `Hit -> "catalog hit" | `Built -> "built")
        (Pkg.Hierarchy.num_levels h)
        (String.concat "/"
           (Array.to_list
              (Array.map
                 (fun p -> string_of_int (groups p))
                 h.Pkg.Hierarchy.levels)))
        (Unix.gettimeofday () -. t0);
    h
  in
  let limits =
    { Ilp.Branch_bound.default_limits with max_nodes; max_seconds }
  in
  let { Service.Engine.report; levels; scenarios } =
    match
      Service.Engine.run ~limits ~seconds:max_seconds
        { Service.Engine.method_; attrs; tau; epsilon; stochastic }
        { Service.Engine.flat; hier } rel planned
    with
    | Ok outcome -> outcome
    | Error resp -> fail_with resp
  in
  if verbose then begin
    Option.iter
      (fun (st : Pkg.Stochastic.stats) ->
        if st.st_scenarios > 0 then
          Format.printf
            "stochastic: %d scenario(s) (+%d held out), %d summarie(s), %d \
             round(s), validated probability %.3f@."
            st.st_scenarios st.st_validation st.st_summaries st.st_rounds
            st.st_validated)
      scenarios;
    List.iter
      (fun (s : Pkg.Progressive.level_stat) ->
        Format.printf "level %d: %d groups with variables, %d active, %.3fs%s@."
          s.ls_level s.ls_groups s.ls_active s.ls_seconds
          (if s.ls_widened then " (widened)" else ""))
      levels
  end;
  Format.printf "%a@." Pkg.Eval.pp_report report;
  (* the answer a server gives this report: a degraded or failed run
     exits with its code and writes no package, as with --connect *)
  match Service.Front.response_of_report report with
  | Service.Protocol.Resp_err _ as resp -> fail_with resp
  | Service.Protocol.Resp_ok _ ->
    Option.iter
      (fun p ->
        let materialized = Pkg.Package.materialize p in
        match out with
        | Some path ->
          Relalg.Csv.write path materialized;
          Format.printf "package written to %s (%d rows)@." path
            (Relalg.Relation.cardinality materialized)
        | None -> Format.printf "@.%a@." Relalg.Relation.pp materialized)
      report.Pkg.Eval.package

(* Cmdliner traps exceptions escaping the term (reporting them as an
   internal error, exit 124), so failure-mode exit codes must be
   assigned here, inside the term body. *)
let run connect retries connect_timeout data query_text query_file method_
    tau attrs epsilon max_seconds max_nodes faults out verbose explain mps_out
    partition_file save_partition store_dir no_store levels stochastic =
  match
    run_inner connect retries connect_timeout data query_text query_file
      method_ tau attrs epsilon max_seconds max_nodes faults out verbose
      explain mps_out partition_file save_partition store_dir no_store levels
      stochastic
  with
  | () -> ()
  | exception Relalg.Csv.Error (line, msg) ->
    data_error (Printf.sprintf "csv error at line %d: %s" line msg)
  | exception Store.Segment.Error msg -> data_error ("store: " ^ msg)
  | exception Sys_error msg -> data_error msg
  | exception Failure msg -> usage msg

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect"; "c" ] ~docv:"HOST:PORT"
        ~doc:
          "Evaluate against a running $(b,pkgq_server) instead of local \
           data: the query is shipped over the wire and the package comes \
           back as CSV (so $(b,--out) is byte-identical to a local run). \
           Local-evaluation flags are ignored; a rejected (shed) request \
           exits 7.")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "With $(b,--connect): retry connection establishment and \
           idempotent requests up to N times with capped exponential \
           backoff and jitter, riding out a server restart window. \
           APPENDs are never resent.")

let connect_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "connect-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--connect): bound each TCP connection attempt; a hung \
           or stopped server yields a typed timeout error instead of an \
           indefinitely blocked client. Unset = block (legacy behaviour).")

let data =
  Arg.(
    value
    & opt (some file) None
    & info [ "data"; "d" ] ~docv:"CSV"
        ~doc:
          "Input relation as CSV with a name:type header (required unless \
           $(b,--connect)).")

let query_text =
  Arg.(
    value
    & opt (some string) None
    & info [ "query"; "q" ] ~docv:"PAQL" ~doc:"PaQL query text.")

let query_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "query-file"; "f" ] ~docv:"FILE" ~doc:"File holding the PaQL query.")

let method_ =
  Arg.(
    value
    & opt (enum Service.Engine.methods) Service.Engine.Direct
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Evaluation method: $(b,direct), $(b,sketchrefine), \
           $(b,parallel) (sketchrefine with parallel refinement), \
           $(b,progressive) (coarse-to-fine shading over a DLV hierarchy; \
           $(b,--tau) sets the leaf threshold, levels come from \
           $(b,PKGQ_HIER_LEVELS)), or $(b,stochastic) (SummarySearch over \
           Monte-Carlo scenarios; see $(b,PKGQ_SCENARIOS), \
           $(b,PKGQ_SUMMARIES), $(b,PKGQ_VALIDATE)). Queries with \
           $(b,WITH PROBABILITY) or $(b,EXPECTED) always use the \
           stochastic driver, whatever this flag says.")

let tau =
  Arg.(
    value
    & opt (some int) None
    & info [ "tau" ] ~docv:"N"
        ~doc:"Partition size threshold (default: 10% of the input).")

let attrs =
  Arg.(
    value
    & opt (list string) []
    & info [ "attrs" ] ~docv:"A,B,..."
        ~doc:"Partitioning attributes (default: the query's numeric attributes).")

let epsilon =
  Arg.(
    value
    & opt (some float) None
    & info [ "epsilon" ] ~docv:"E"
        ~doc:
          "Approximation parameter: partition with the Theorem 3 radius \
           limit for a (1+/-E)^6 objective guarantee.")

let max_seconds =
  Arg.(
    value & opt float 3600.
    & info [ "max-seconds" ] ~docv:"S" ~doc:"Wall-clock budget per solve.")

let max_nodes =
  Arg.(
    value & opt int 200_000
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Branch-and-bound node budget.")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~env:(Cmd.Env.info Knobs.faults_var)
        ~doc:
          "Install deterministic fault-injection directives, e.g. \
           $(b,'ilp=3:limit; stage=sketch:infeasible; worker=0:crash').")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"CSV" ~doc:"Write the package to a CSV file.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Chatty output.")

let explain =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print the ILP translation summary instead of solving.")

let mps_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "mps-out" ] ~docv:"FILE"
        ~doc:"Also dump the translated ILP in MPS format.")

let partition_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "partition-file" ] ~docv:"FILE"
        ~doc:
          "Reuse a partitioning saved with $(b,--save-partition) instead of \
           partitioning at query time (sketchrefine and parallel).")

let save_partition =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-partition" ] ~docv:"FILE"
        ~doc:"Persist the partitioning for reuse (sketchrefine and parallel).")

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~env:(Cmd.Env.info Knobs.store_var)
        ~doc:
          "Store directory: imported tables are cached as binary segments \
           and sketchrefine partitionings are persisted and reused across \
           runs.")

let no_store =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:"Ignore the store ($(b,--store)) for this run.")

let cmd =
  let doc = "evaluate PaQL package queries over CSV data" in
  let term =
    Term.(
      const run $ connect $ retries $ connect_timeout $ data $ query_text
      $ query_file
      $ method_ $ tau
      $ attrs $ epsilon $ max_seconds $ max_nodes $ faults $ out $ verbose
      $ explain $ mps_out $ partition_file $ save_partition $ store_dir
      $ no_store $ Knobs.term Knobs.levels $ Knobs.term Knobs.stochastic)
  in
  let envs = Knobs.(levels.envs @ stochastic.envs) in
  Cmd.v (Cmd.info "paql" ~doc ~envs) term

let () =
  match Cmd.eval_value cmd with Ok _ -> () | Error _ -> exit 124
