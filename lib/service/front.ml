let src = Logs.Src.create "pkgq.front" ~doc:"front-end connection shell"

module Log = (val Logs.src_log src : Logs.LOG)

(* Numeric columns are materialized lazily into a per-attribute slot;
   forcing them before any worker runs keeps the hot path free of
   same-column races and duplicate extraction work. *)
let prewarm rel =
  List.iter
    (fun (a : Relalg.Schema.attr) ->
      match a.ty with
      | Relalg.Value.TInt | Relalg.Value.TFloat ->
        ignore (Relalg.Relation.column rel a.name)
      | Relalg.Value.TStr | Relalg.Value.TBool -> ())
    (Relalg.Schema.attrs (Relalg.Relation.schema rel))

let status_line (r : Pkg.Eval.report) =
  Format.asprintf "%a%s" Pkg.Eval.pp_status r.status
    (match r.objective with
    | Some o -> Format.asprintf ", obj=%g" o
    | None -> "")

let response_of_report (r : Pkg.Eval.report) =
  match r.status with
  | Pkg.Eval.Infeasible -> Protocol.Resp_err (Protocol.Infeasible, status_line r)
  | Pkg.Eval.Degraded _ -> Protocol.Resp_err (Protocol.Degraded, status_line r)
  | Pkg.Eval.Failed f ->
    let code =
      match f.kind with
      | Pkg.Eval.Deadline_exceeded -> Protocol.Deadline
      | Pkg.Eval.Rejected _ -> Protocol.Rejected
      | Pkg.Eval.Fenced _ -> Protocol.Fenced
      | _ -> Protocol.Failed
    in
    Protocol.Resp_err (code, Format.asprintf "%a" Pkg.Eval.pp_failure f)
  | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ -> (
    match r.package with
    | None -> Protocol.Resp_err (Protocol.Failed, "no package produced")
    | Some p ->
      let csv = Relalg.Csv.to_string (Pkg.Package.materialize p) in
      Protocol.Resp_ok
        (Protocol.render_result ~status_line:(status_line r) ~wall:r.wall_time
           ~csv))

let record_level_stats metrics stats =
  List.iter
    (fun (s : Pkg.Progressive.level_stat) ->
      let l = string_of_int s.ls_level in
      Metrics.observe metrics ("progressive_level" ^ l) s.ls_seconds;
      Metrics.set_gauge metrics ("progressive_level" ^ l ^ "_groups")
        s.ls_groups;
      Metrics.set_gauge metrics ("progressive_level" ^ l ^ "_active")
        s.ls_active;
      if s.ls_widened then Metrics.incr metrics "progressive_widened")
    stats

let compile metrics schema query =
  let fail code msg = Error (Protocol.Resp_err (code, msg)) in
  Metrics.time metrics "plan" @@ fun () ->
  match Metrics.time metrics "parse" (fun () -> Paql.Parser.parse query) with
  | exception Paql.Lexer.Lex_error (msg, pos) ->
    fail Protocol.Parse_error (Printf.sprintf "lex error at offset %d: %s" pos msg)
  | exception Paql.Parser.Parse_error (msg, pos) ->
    fail Protocol.Parse_error
      (Printf.sprintf "parse error at offset %d: %s" pos msg)
  | Error msg -> fail Protocol.Parse_error msg
  | Ok ast -> (
    match Paql.Analyze.check schema ast with
    | Error errs -> fail Protocol.Analysis_error (String.concat "\n" errs)
    | Ok () -> (
      match Paql.Translate.compile_exn schema ast with
      | exception Failure msg -> fail Protocol.Analysis_error msg
      | spec -> Ok (ast, spec)))

let answer ?(run = fun eval -> eval ()) metrics eval =
  Metrics.incr metrics "requests";
  let resp =
    run (fun () ->
        Metrics.time metrics "total" (fun () ->
            try eval ()
            with e -> Protocol.Resp_err (Protocol.Internal, Printexc.to_string e)))
  in
  Metrics.incr metrics
    (match resp with Protocol.Resp_ok _ -> "ok" | Protocol.Resp_err _ -> "failed");
  resp

type t = {
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stopped : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  (* live connections by thread id. An entry leaves the table before
     its fd is closed, so every fd [stop] finds here is still open. *)
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  conns_mu : Mutex.t;
}

let port t = t.bound_port
let stopped t = Atomic.get t.stopped
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen ~metrics ~host ~port =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let bound_port =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (Client.resolve host, port));
      Unix.listen listen_fd 64;
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    with e ->
      close_quietly listen_fd;
      raise e
  in
  {
    metrics;
    listen_fd;
    bound_port;
    stopped = Atomic.make false;
    accept_thread = None;
    conns = Hashtbl.create 16;
    conns_mu = Mutex.create ();
  }

let serve_conn t dispatch fd =
  Fun.protect ~finally:(fun () ->
      Mutex.protect t.conns_mu (fun () ->
          Hashtbl.remove t.conns (Thread.id (Thread.self ())));
      close_quietly fd)
  @@ fun () ->
  Metrics.incr t.metrics "connections";
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond r = Protocol.write_response oc r in
  let rec loop () =
    if Pkg.Faults.take_net_fault Pkg.Faults.Net_read then begin
      Metrics.incr t.metrics "net_errors";
      Log.warn (fun k -> k "injected net=read fault: dropping connection");
      try respond (Protocol.Resp_err (Protocol.Internal, "injected read fault"))
      with _ -> ()
    end
    else
      match Protocol.read_request ic with
      | None -> ()
      | Some Protocol.Quit -> ( try respond (Protocol.Resp_ok "bye") with _ -> ())
      | Some Protocol.Ping ->
        respond (Protocol.Resp_ok "pong");
        loop ()
      | Some req ->
        respond (dispatch req);
        loop ()
  in
  try loop () with
  | End_of_file -> ()
  | Protocol.Protocol_error msg ->
    Metrics.incr t.metrics "net_errors";
    Log.warn (fun k -> k "protocol error: %s" msg);
    (try respond (Protocol.Resp_err (Protocol.Internal, msg)) with _ -> ())
  | Sys_error _ | Unix.Unix_error _ -> Metrics.incr t.metrics "net_errors"

(* A failed accept before [stop] is transient (EMFILE, ENFILE,
   ECONNABORTED, ...): count it, log the first of a run, and retry after
   a fixed back-off so a descriptor shortage does not spin. The pending
   connection stays queued and is accepted once descriptors free up. *)
let accept_loop t dispatch =
  let rec loop ~failing =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (err, _, _) ->
      if not (stopped t) then begin
        Metrics.incr t.metrics "net_errors";
        if not failing then
          Log.warn (fun k ->
              k "accept failed (%s); retrying" (Unix.error_message err));
        Thread.delay 0.05;
        loop ~failing:true
      end
    | fd, _ ->
      if stopped t then close_quietly fd
      else begin
        if Pkg.Faults.take_net_fault Pkg.Faults.Net_accept then begin
          Metrics.incr t.metrics "net_errors";
          Log.warn (fun k -> k "injected net=accept fault: closing connection");
          close_quietly fd
        end
        else
          Mutex.protect t.conns_mu (fun () ->
              let th = Thread.create (serve_conn t dispatch) fd in
              Hashtbl.replace t.conns (Thread.id th) (fd, th));
        loop ~failing:false
      end
  in
  loop ~failing:false

let serve t dispatch =
  t.accept_thread <- Some (Thread.create (accept_loop t) dispatch)

let stop t ~teardown =
  if not (Atomic.exchange t.stopped true) then begin
    (* shutdown (not close) wakes the blocked accept; close only after
       the accept thread is joined, so the fd cannot be recycled under
       it. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    close_quietly t.listen_fd;
    let threads =
      Mutex.protect t.conns_mu (fun () ->
          Hashtbl.fold
            (fun _ (fd, th) acc ->
              (try Unix.shutdown fd Unix.SHUTDOWN_ALL
               with Unix.Unix_error _ -> ());
              th :: acc)
            t.conns [])
    in
    List.iter Thread.join threads;
    teardown ()
  end
