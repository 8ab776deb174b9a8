(* perfbench harness: runs one benchmark workload and prints its raw
   measurements as a single JSON object on the last line of stdout.

     harness.exe WORKLOAD --seed N --seconds S --dir RUNDIR --bin BINDIR
     harness.exe gen --seed N --dir DIR

   WORKLOAD is paper-suite, serve-hot or serve-rw. RUNDIR is a working
   directory for generated tables and the WAL; BINDIR holds
   pkgq_server.exe. `gen` writes every input the seed draws to DIR, so
   two seeds can be compared byte for byte.

   The harness measures and checks; perfbench/run.py turns the raw
   numbers into metrics. Per-layer numbers come only from
   [Pkg.Eval.report], the servers' STATS verb and /proc. *)

(* ------------------------------------------------------------------ *)
(* JSON output                                                        *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Sample of float  (** a raw sample, printed to a microsecond of a ms *)
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec emit buf = function
  | Num f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | Sample f -> Buffer.add_string buf (Printf.sprintf "%.4f" f)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (Str k);
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let nums xs = Arr (List.map (fun x -> Num x) xs)
let samples xs = Arr (List.map (fun x -> Sample x) xs)
let strs xs = Arr (List.map (fun x -> Str x) xs)
let flat kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs)

(* ------------------------------------------------------------------ *)
(* Small utilities                                                    *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday
let ms dt = 1000. *. dt

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec tree_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + tree_bytes (Filename.concat path f))
      0
      (try Sys.readdir path with Sys_error _ -> [||])
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

(* Errors worth printing: the first few, so a failing run explains
   itself without flooding the log. *)
let errors = ref []
let n_errors = ref 0

let note_error msg =
  incr n_errors;
  if !n_errors <= 20 then errors := msg :: !errors

(* A growable float buffer for per-request samples, one per thread. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_list t = Array.to_list (Array.sub t.a 0 t.n)
end

(* ------------------------------------------------------------------ *)
(* /proc of the system under test                                     *)
(* ------------------------------------------------------------------ *)

(* Fields after the parenthesised command name of /proc/PID/stat:
   index 0 is the state (field 3), so field k is at index k - 3. *)
let stat_fields pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt s ')' with
  | None -> [||]
  | Some i when i + 2 < String.length s ->
    String.sub s (i + 2) (String.length s - i - 2)
    |> String.split_on_char ' ' |> Array.of_list
  | Some _ -> [||]

let field_int a k =
  if Array.length a > k - 3 then
    Option.value ~default:0 (int_of_string_opt a.(k - 3))
  else 0

let cpu_ticks pid =
  let a = stat_fields pid in
  field_int a 14 + field_int a 15

let keyed_kb path key =
  String.split_on_char '\n' (read_file path)
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ k; v ] when k = key -> (
           match
             String.split_on_char ' ' (String.trim v)
             |> List.filter (( <> ) "")
           with
           | n :: _ -> int_of_string_opt n
           | [] -> None)
         | _ -> None)
  |> Option.value ~default:0

let vm_hwm_kb pid = keyed_kb (Printf.sprintf "/proc/%d/status" pid) "VmHWM"
let write_bytes pid = keyed_kb (Printf.sprintf "/proc/%d/io" pid) "write_bytes"

(* ------------------------------------------------------------------ *)
(* Child processes                                                    *)
(* ------------------------------------------------------------------ *)

type child = { pid : int; port : int; out : string }

let live_children : int list ref = ref []

let reap pid =
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live_children := List.filter (( <> ) pid) !live_children

(* SIGTERM is a clean stop; SIGKILL is the crash. *)
let stop ?(signal = Sys.sigterm) c =
  (try Unix.kill c.pid signal with Unix.Unix_error _ -> ());
  reap c.pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live_children)

(* The port is the tail of the first stdout line starting with
   [banner]: servers bind port 0 and print what they got. *)
let banner_port out banner =
  String.split_on_char '\n' (read_file out)
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:banner line then
           match String.rindex_opt line ':' with
           | Some i ->
             int_of_string_opt
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> None
         else None)

let spawn ~exe ~args ~out ~banner =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
  in
  live_children := pid :: !live_children;
  let deadline = now () +. 120. in
  let rec wait () =
    match banner_port out banner with
    | Some port -> { pid; port; out }
    | None ->
      let dead =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _ -> true
        | exception Unix.Unix_error _ -> true
      in
      if dead then begin
        live_children := List.filter (( <> ) pid) !live_children;
        failwith
          (Printf.sprintf "%s exited before serving: %s" exe (read_file out))
      end
      else if now () > deadline then begin
        stop ~signal:Sys.sigkill { pid; port = 0; out };
        failwith (Printf.sprintf "%s did not serve within 120s" exe)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Client side                                                        *)
(* ------------------------------------------------------------------ *)

module Cl = Service.Client
module Pr = Service.Protocol

let connect port = Cl.connect ~host:"127.0.0.1" ~port ()

let with_conn port f =
  let c = connect port in
  Fun.protect ~finally:(fun () -> try Cl.close c with _ -> ()) (fun () -> f c)

(* STATS flattened: counters by name, gauges as [gauge.NAME], stage
   histograms as [stage.NAME.count] and [stage.NAME.sum_ms]. A key the
   server does not print is simply absent. *)
let parse_stats body =
  String.split_on_char '\n' body
  |> List.concat_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] -> (
           match float_of_string_opt v with Some v -> [ (k, v) ] | None -> [])
         | [ "gauge"; k; v ] -> (
           match float_of_string_opt v with
           | Some v -> [ ("gauge." ^ k, v) ]
           | None -> [])
         | "stage" :: k :: "count" :: c :: "mean_ms" :: m :: _ -> (
           match float_of_string_opt c, float_of_string_opt m with
           | Some c, Some m ->
             [ ("stage." ^ k ^ ".count", c); ("stage." ^ k ^ ".sum_ms", c *. m) ]
           | _ -> [])
         | _ -> [])

let stats port =
  match with_conn port Cl.stats with
  | Pr.Resp_ok body -> parse_stats body
  | Pr.Resp_err _ -> []
  | exception e ->
    note_error ("STATS: " ^ Printexc.to_string e);
    []

(* Response modulo the wall-time line, the one byte range that is not
   deterministic. *)
type essence = Answer of string * string | Error_code of string * string

let essence = function
  | Pr.Resp_ok body -> (
    match Pr.parse_result body with
    | Ok (status, _wall, csv) -> Answer (status, csv)
    | Error e -> Error_code ("malformed", e))
  | Pr.Resp_err (code, msg) -> Error_code (Pr.code_name code, msg)


let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* An answer stopped by a wall clock rather than by fixed work. *)
let wall_stopped = function
  | Error_code (code, msg) -> code = "deadline" || contains msg "deadline"
  | Answer (status, _) -> contains status "deadline"

(* The objective a status line claims: its trailing ", obj=%g". *)
let status_objective status =
  match String.rindex_opt status '=' with
  | Some i when i >= 3 && String.sub status (i - 3) 3 = "obj" ->
    float_of_string_opt
      (String.trim (String.sub status (i + 1) (String.length status - i - 1)))
  | _ -> None

let close_enough a b =
  Float.abs (a -. b)
  <= 1e-4 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Recheck a served package against its query without the server's
   help: the WHERE predicate, the repetition cap and every global
   constraint over the materialized rows, and the objective the status
   line claims. *)
let recheck schema query (status, csv) =
  match Paql.Parser.parse query with
  | Error _ -> false
  | Ok ast -> (
    match Paql.Translate.compile schema ast with
    | Error _ -> false
    | Ok spec -> (
      match Relalg.Csv.of_string csv with
      | exception _ -> false
      | prel ->
        let n = Relalg.Relation.cardinality prel in
        let p = Pkg.Package.make prel (List.init n (fun i -> (i, 1))) in
        let copies = Hashtbl.create 16 in
        (match String.split_on_char '\n' csv with
        | _header :: rows ->
          List.iter
            (fun r ->
              if r <> "" then
                Hashtbl.replace copies r
                  (1 + Option.value ~default:0 (Hashtbl.find_opt copies r)))
            rows
        | [] -> ());
        let repeat_ok =
          Hashtbl.fold
            (fun _ c ok -> ok && float_of_int c <= spec.Paql.Translate.max_count)
            copies true
        in
        let objective_ok =
          match status_objective status with
          | Some o -> close_enough o (Pkg.Package.objective spec p)
          | None -> true
        in
        repeat_ok && objective_ok && Pkg.Package.feasible spec p))

(* Tallies shared by the client threads of one timed phase. *)
type tally = {
  mu : Mutex.t;
  mutable answered : int;
  mutable failed : int;
  mutable infeasible : int;
  mutable checked : int;
  mutable check_failures : int;
  mutable wall_stops : int;
}

let tally () =
  {
    mu = Mutex.create ();
    answered = 0;
    failed = 0;
    infeasible = 0;
    checked = 0;
    check_failures = 0;
    wall_stops = 0;
  }

let tally_json t =
  [
    ("answered", Int t.answered);
    ("failed", Int t.failed);
    ("infeasible", Int t.infeasible);
    ("checked", Int t.checked);
    ("check_failures", Int t.check_failures);
    ("wall_stops", Int t.wall_stops);
  ]

(* Score one answer: failures and wall-clock stops are counted, and a
   package is rechecked unless [known] says this exact answer was
   rechecked already. *)
let score t schema ?(known = fun _ -> false) query e =
  let stopped = wall_stopped e in
  let verdict =
    match e with
    | Answer (status, csv) ->
      if known e then `Known else `Recheck (recheck schema query (status, csv))
    | Error_code ("infeasible", _) -> `Infeasible
    | Error_code (code, msg) -> `Failed (code ^ ": " ^ msg)
  in
  Mutex.protect t.mu (fun () ->
      if stopped then t.wall_stops <- t.wall_stops + 1;
      match verdict with
      | `Known -> t.answered <- t.answered + 1
      | `Recheck ok ->
        t.answered <- t.answered + 1;
        t.checked <- t.checked + 1;
        if not ok then begin
          t.check_failures <- t.check_failures + 1;
          note_error ("recheck failed: " ^ query)
        end
      | `Infeasible -> t.infeasible <- t.infeasible + 1
      | `Failed msg ->
        t.failed <- t.failed + 1;
        note_error msg)

(* The machine the benchmark shares speeds up and slows down by a third
   for seconds at a time. Every timing is therefore taken next to one of
   this fixed reference task, the benchmark's own code rather than the
   program's, and run.py scales it by the reference's nominal time over
   its time at that moment. *)
let reference_task () =
  let h = Hashtbl.create 2048 in
  for i = 0 to 10_000 do
    Hashtbl.replace h ((i * 7919) land 2047) (float_of_int i)
  done;
  let a = Array.init 10_000 (fun i -> float_of_int ((i * 7919) mod 10_007)) in
  Array.sort Float.compare a;
  let s = ref (float_of_int (Hashtbl.length h)) in
  Array.iter (fun x -> s := !s +. sqrt x) a;
  ignore (Sys.opaque_identity !s)

(* The best of three CPU times of the reference task, in ms. *)
let reference_ms () =
  let once () =
    let c0 = self_cpu () in
    reference_task ();
    ms (self_cpu () -. c0)
  in
  List.fold_left Float.min infinity [ once (); once (); once () ]

(* When the current timed phase started. *)
let phase_start = ref 0.

(* Served workloads time the reference task too, once a second with the
   system under test idle: the clients hold back their next request,
   the requests in flight complete, and only this process runs the
   task while its other threads wait. *)
module Pause = struct
  let mu = Mutex.create ()
  let cond = Condition.create ()
  let paused = ref false
  let in_flight = ref 0

  (* A client about to send a request. *)
  let enter () =
    Mutex.protect mu (fun () ->
        while !paused do
          Condition.wait cond mu
        done;
        incr in_flight)

  (* The answer is in. *)
  let leave () =
    Mutex.protect mu (fun () ->
        decr in_flight;
        if !in_flight = 0 then Condition.broadcast cond)

  (* [quiesce f] runs [f] once no request is in flight, and holds new
     ones back until it returns. *)
  let quiesce f =
    Mutex.protect mu (fun () ->
        paused := true;
        while !in_flight > 0 do
          Condition.wait cond mu
        done);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect mu (fun () ->
            paused := false;
            Condition.broadcast cond))
end

(* [closed_loop ~port ~conns ~seconds ~next ~on_answer] runs [conns]
   closed-loop clients until [seconds] have passed: client [i] sends
   [next i k] as its [k]-th query as soon as its previous answer is in.
   Returns the latencies (ms), when each answer arrived (ms into the
   phase) and the generator's own gaps between an answer and the next
   send (ms). *)
let closed_loop ~port ~conns ~seconds ~next ~on_answer =
  let t_end = now () +. seconds in
  let lat = Array.init conns (fun _ -> Samples.create ()) in
  let gaps = Array.init conns (fun _ -> Samples.create ()) in
  let done_at = Array.init conns (fun _ -> Samples.create ()) in
  let client i () =
    let c = ref (connect port) in
    let last = ref (now ()) in
    let k = ref 0 in
    while now () < t_end do
      let q = next i !k in
      incr k;
      Samples.add gaps.(i) (ms (now () -. !last));
      Pause.enter ();
      let t0 = now () in
      let e =
        match Cl.query !c q with
        | resp -> essence resp
        | exception ex ->
          (try Cl.close !c with _ -> ());
          (c := try connect port with _ -> !c);
          Error_code ("transport", Printexc.to_string ex)
      in
      let t1 = now () in
      Pause.leave ();
      Samples.add lat.(i) (ms (t1 -. t0));
      Samples.add done_at.(i) (ms (t1 -. !phase_start));
      last := t1;
      on_answer q e
    done;
    try Cl.close !c with _ -> ()
  in
  let threads = List.init conns (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let all xs = samples (List.concat_map Samples.to_list (Array.to_list xs)) in
  [ ("latencies_ms", all lat); ("done_ms", all done_at); ("gaps_ms", all gaps) ]

(* The attributes a server partitions a query on by default: its
   numeric attributes, in order of appearance. *)
let numeric_attrs schema ast =
  List.filter
    (fun at ->
      match Relalg.Schema.index_of_opt schema at with
      | Some i -> (
        match (Relalg.Schema.attr_at schema i).Relalg.Schema.ty with
        | Relalg.Value.TInt | Relalg.Value.TFloat -> true
        | Relalg.Value.TStr | Relalg.Value.TBool -> false)
      | None -> false)
    (Paql.Ast.all_attrs ast)

(* The in-process single-shot evaluation a sketchrefine server promises
   to match byte for byte: the query's numeric attributes partitioned
   at tau = 10% of the table, then SketchRefine under the same budget. *)
let single_shot rel query =
  let schema = Relalg.Relation.schema rel in
  let ast = Paql.Parser.parse_exn query in
  let spec = Paql.Translate.compile_exn schema ast in
  let attrs = numeric_attrs schema ast in
  let tau = max 1 (Relalg.Relation.cardinality rel / 10) in
  let part = Pkg.Partition.create ~tau ~attrs rel in
  let limits =
    { Ilp.Branch_bound.default_limits with max_nodes = 200_000; max_seconds = 3600. }
  in
  let r =
    Pkg.Sketch_refine.run
      ~options:{ Pkg.Sketch_refine.default_options with limits; max_seconds = 600. }
      spec rel part
  in
  Option.map
    (fun p -> Relalg.Csv.to_string (Pkg.Package.materialize p))
    r.Pkg.Eval.package

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

(* A fresh-query stream: [n] distinct queries over [rel], drawn from the
   workload generator with no verbatim repeats. *)
let fresh_queries ~seed ~n rel =
  let seen = Hashtbl.create n in
  Datagen.Workload.mixed ~seed ~repeat_rate:0. ~dataset:`Galaxy ~n:(4 * n) rel
  |> List.filter_map (fun (d : Datagen.Workload.def) ->
         if Hashtbl.mem seen d.paql then None
         else begin
           Hashtbl.replace seen d.paql ();
           Some d.paql
         end)
  |> List.filteri (fun i _ -> i < n)
  |> Array.of_list

(* The served workloads' table: Galaxy rows of a fixed seed, written as
   CSV for the server to load. Its partitioning alone moves the cost of
   a query by half, so it is the same for every workload seed; the seed
   draws the query streams and the written rows. *)
let galaxy_table ~rows dir =
  let rel = Datagen.Galaxy.generate ~seed:1 rows in
  let path = Filename.concat dir (Printf.sprintf "galaxy%d.csv" rows) in
  Relalg.Csv.write path rel;
  (path, Relalg.Csv.read path)

let append_rows = 50

let append_batch ~seed k =
  Datagen.Workload.append_batch ~dataset:`Galaxy ~rows:append_rows
    ~seed:((seed * 1000) + k)

(* The inputs of each workload, drawn from the workload seed. *)

(* paper-suite is the fixed suite of Figs. 5-6, on the datasets of the
   repository's fig5/fig6 experiments; the seed does not change it. *)
let suite_datasets () =
  let g = Datagen.Galaxy.generate ~seed:1 2000 in
  let t = Datagen.Tpch.generate ~seed:2 3000 in
  [ ("galaxy", `Galaxy, g, Datagen.Workload.galaxy_queries g);
    ("tpch", `Tpch, t, Datagen.Workload.tpch_queries t) ]

let hot_rows = 20_000
let hot_queries ~seed table = fresh_queries ~seed:(seed + 1) ~n:64 table

let rw_rows = 5000

(* serve-rw reads a fresh stream; its warm-up builds every partitioning
   that stream will ask for, one query per distinct attribute list, so
   the timed phase sees a fixed set of cached partitionings, each
   maintained on every write. *)
let rw_queries ~seed table =
  let schema = Relalg.Relation.schema table in
  let seen = Hashtbl.create 128 in
  let warmup =
    Array.to_list (fresh_queries ~seed:(seed + 2) ~n:2000 table)
    |> List.filter (fun q ->
           let key = numeric_attrs schema (Paql.Parser.parse_exn q) in
           if Hashtbl.mem seen key then false
           else begin
             Hashtbl.replace seen key ();
             true
           end)
    |> Array.of_list
  in
  (fresh_queries ~seed:(seed + 1) ~n:20_000 table, warmup)

(* ------------------------------------------------------------------ *)
(* Arguments                                                          *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  dir : string;
  bin : string;
}

let parse_args () =
  let argv = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name default = Option.value ~default (opt name argv) in
  match argv with
  | _ :: workload :: _ ->
    {
      workload;
      seed = int_of_string (get "--seed" "1");
      seconds = float_of_string (get "--seconds" "10");
      dir = get "--dir" ".";
      bin = get "--bin" ".";
    }
  | _ -> failwith "usage: harness.exe WORKLOAD --seed N --seconds S ..."

let server_exe a = Filename.concat a.bin "pkgq_server.exe"

(* Every wall budget of the system under test sits far above what a
   request uses, so answers stop on fixed work (nodes), never on time. *)
let server_budget =
  [ "--max-nodes"; "200000"; "--max-seconds"; "3600"; "--request-seconds";
    "600"; "--log-every"; "0" ]

let server_banner = "pkgq_server: serving "

(* Set up [reps] times, timing each from spawn to the end of [warm];
   every instance but the last is stopped. *)
let repeated_setup ~reps ~start ~warm =
  let rec go k acc =
    Gc.compact ();
    let t0 = now () in
    let c = start k in
    let w = warm c in
    let acc = (now () -. t0, reference_ms ()) :: acc in
    if k + 1 < reps then begin
      stop c;
      go (k + 1) acc
    end
    else (c, w, List.rev acc)
  in
  go 0 []

(* Each set-up's seconds and the reference task's time right after it. *)
let setup_json setups =
  [ ("setup_s", nums (List.map fst setups));
    ("setup_reference_ms", nums (List.map snd setups)) ]

let sut_snapshot pids =
  ( List.fold_left (fun acc p -> acc + cpu_ticks p) 0 pids,
    List.fold_left (fun acc p -> acc + write_bytes p) 0 pids )

let rss_kb pids = List.fold_left (fun acc p -> acc + vm_hwm_kb p) 0 pids

(* ------------------------------------------------------------------ *)
(* paper-suite: Figs. 5-6 in process                                  *)
(* ------------------------------------------------------------------ *)

(* A 1,000-node branch-and-bound budget per ILP and wall budgets far
   above any run: every cell does the same work on any machine. *)
let suite_limits =
  { Ilp.Branch_bound.default_limits with max_nodes = 1000; max_seconds = 3600. }

type prepared = {
  dataset : string;
  def : Datagen.Workload.def;
  qrel : Relalg.Relation.t;
  part : Pkg.Partition.t;
  hier : Pkg.Hierarchy.t;
}

(* Offline work of the paper's setup: per query, its relation, the
   tau = 10% partitioning over the workload attributes (Fig. 4) and the
   progressive hierarchy over the same attributes. Returns the prepared
   queries and the seconds spent in partitioning alone. *)
let prepare datasets =
  let part_s = ref 0. in
  let prepared =
    List.concat_map
      (fun (dataset, kind, rel, defs) ->
        let wattrs = Datagen.Workload.workload_attrs defs in
        List.map
          (fun (def : Datagen.Workload.def) ->
            let qrel = Datagen.Workload.query_relation ~dataset:kind rel def in
            let tau = max 1 (Relalg.Relation.cardinality qrel / 10) in
            let t0 = now () in
            let part = Pkg.Partition.create ~tau ~attrs:wattrs qrel in
            part_s := !part_s +. (now () -. t0);
            let hier = Pkg.Hierarchy.build ~attrs:wattrs qrel in
            { dataset; def; qrel; part; hier })
          defs)
      datasets
  in
  (prepared, !part_s)

let methods =
  [
    ("direct", fun spec p -> Pkg.Direct.run ~limits:suite_limits spec p.qrel);
    ( "sketchrefine",
      fun spec p ->
        Pkg.Sketch_refine.run
          ~options:
            { Pkg.Sketch_refine.default_options with
              limits = suite_limits; max_seconds = 3600. }
          spec p.qrel p.part );
    ( "progressive",
      fun spec p ->
        fst
          (Pkg.Progressive.run
             ~options:
               { Pkg.Progressive.default_options with
                 limits = suite_limits; max_seconds = 3600. }
             spec p.qrel p.hier) );
  ]

let status_name (s : Pkg.Eval.status) =
  match s with
  | Pkg.Eval.Optimal -> "optimal"
  | Feasible _ -> "feasible"
  | Infeasible -> "infeasible"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

let cell_wall_stopped (r : Pkg.Eval.report) =
  match r.status with
  | Pkg.Eval.Failed { kind = Pkg.Eval.Deadline_exceeded; _ } -> true
  | _ -> r.wall_time >= suite_limits.max_seconds

type cell = {
  name : string;
  maximize : bool;
  mutable times : float list;  (** ms, one per pass *)
  mutable cpu : float list;  (** CPU ms, one per pass *)
  mutable reference : float list;  (** {!reference_ms} before each run *)
  mutable objective : float option;
  mutable status : string;
  mutable counters : Pkg.Eval.counters;
  mutable feasible : bool;
  mutable stable : bool;  (** same status and objective on every pass *)
  mutable wall_stop : bool;
}

let paper_suite a =
  let datasets = suite_datasets () in
  let pid = Unix.getpid () in
  let setups = ref [] and partition_s = ref [] in
  let prepared = ref [] in
  for _ = 1 to 3 do
    prepared := [];
    Gc.compact ();
    let t0 = now () in
    let p, ps = prepare datasets in
    setups := (now () -. t0, reference_ms ()) :: !setups;
    partition_s := ps :: !partition_s;
    prepared := p
  done;
  let cells =
    List.concat_map
      (fun p ->
        List.map
          (fun (m, run) ->
            ( p,
              run,
              {
                name = Printf.sprintf "%s/%s/%s" p.dataset p.def.name m;
                maximize = p.def.maximize;
                times = [];
                cpu = [];
                reference = [];
                objective = None;
                status = "";
                counters = Pkg.Eval.fresh_counters ();
                feasible = false;
                stable = true;
                wall_stop = false;
              } ))
          methods)
      !prepared
  in
  let compile_ms = ref [] in
  (* one pass: every query compiled, then every method run on it, each
     cell after an untimed heap compaction *)
  let cells = Array.of_list cells in
  let pass_rss = ref [] in
  let pass () =
    (try write_file (Printf.sprintf "/proc/%d/clear_refs" pid) "5"
     with Sys_error _ -> ());
    let specs = Hashtbl.create 16 in
    let t_compile = ref 0. in
    List.iter
      (fun p ->
        let key = p.dataset ^ p.def.name in
        let t0 = now () in
        Hashtbl.replace specs key (Datagen.Workload.compile p.qrel p.def);
        t_compile := !t_compile +. (now () -. t0))
      !prepared;
    compile_ms := ms !t_compile :: !compile_ms;
    let busy = ref 0. in
    Array.iter
      (fun (p, run, c) ->
        let spec = Hashtbl.find specs (p.dataset ^ p.def.name) in
        Gc.compact ();
        c.reference <- c.reference @ [ reference_ms () ];
        let c0 = self_cpu () in
        let t0 = now () in
        let (r : Pkg.Eval.report) = run spec p in
        let dt = now () -. t0 in
        let dc = self_cpu () -. c0 in
        busy := !busy +. dt;
        let first = c.times = [] in
        c.times <- c.times @ [ ms dt ];
        c.cpu <- c.cpu @ [ ms dc ];
        let status = status_name r.status in
        if first then begin
          c.objective <- r.objective;
          c.status <- status;
          c.counters <- r.counters;
          c.feasible <-
            (match r.package with
            | Some pkg -> Pkg.Package.feasible spec pkg
            | None -> false)
        end
        else if status <> c.status || r.objective <> c.objective then
          c.stable <- false;
        if cell_wall_stopped r then c.wall_stop <- true)
      cells;
    pass_rss := vm_hwm_kb pid :: !pass_rss;
    !busy
  in
  let cpu0 = self_cpu () in
  let t0 = now () in
  let pass_ms = ref [] in
  let k = ref 0 in
  while !k < 3 || now () -. t0 < a.seconds do
    pass_ms := ms (pass ()) :: !pass_ms;
    incr k
  done;
  let elapsed = now () -. t0 in
  let cpu = self_cpu () -. cpu0 in
  let cell_json c =
    Obj
      [
        ("name", Str c.name);
        ("maximize", Bool c.maximize);
        ("ms", nums c.times);
        ("cpu_ms", nums c.cpu);
        ("reference_ms", nums c.reference);
        ("objective", match c.objective with Some o -> Num o | None -> Str "none");
        ("status", Str c.status);
        ("feasible", Bool c.feasible);
        ("stable", Bool c.stable);
        ("wall_stop", Bool c.wall_stop);
        ("nodes", Int c.counters.nodes);
        ("pivots", Int c.counters.simplex_iterations);
        ("ilp_calls", Int c.counters.ilp_calls);
      ]
  in
  [
    ("setups", Obj (setup_json (List.rev !setups)));
    ("partition_s", nums (List.rev !partition_s));
    ("compile_ms", nums !compile_ms);
    ("elapsed_s", Num elapsed);
    ("passes", Int !k);
    ("pass_ms", nums (List.rev !pass_ms));
    ("sut_cpu_s", Num cpu);
    ("pass_rss_kb", Arr (List.rev_map (fun k -> Int k) !pass_rss));
    ("cells", Arr (Array.to_list (Array.map (fun (_, _, c) -> cell_json c) cells)));
  ]

(* Package quality of served answers: the first [n] warm answers next
   to DIRECT over the same table under the suite's node budget. *)
let quality ?(n = 64) table queries warm =
  let schema = Relalg.Relation.schema table in
  List.init (min n (Array.length queries)) (fun i ->
      let spec =
        Paql.Translate.compile_exn schema (Paql.Parser.parse_exn queries.(i))
      in
      let maximize =
        Paql.Translate.objective_sense spec = Lp.Problem.Maximize
      in
      let served =
        match warm.(i) with
        | Answer (status, _) -> status_objective status
        | Error_code _ -> None
      in
      let direct = (Pkg.Direct.run ~limits:suite_limits spec table).Pkg.Eval.objective in
      Obj
        [
          ("maximize", Bool maximize);
          ( "objectives",
            nums (List.filter_map Fun.id [ served; direct ]) );
          ("served", Bool (served <> None));
        ])

(* ------------------------------------------------------------------ *)
(* Served workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* The timed phase of a served workload: [run seconds] drives load for
   that long and returns its own JSON fields. The system's STATS (from
   [stats_ports]) are read before and after it, outside the timed
   window, and the time that took is reported; /proc counters of [pids]
   are read at its ends and in the once-a-second pauses. *)
let timed_phase a ~pids ~stats_ports ~run =
  let trace_s = ref 0. in
  let snap () =
    let t0 = now () in
    let s = List.map (fun p -> stats p) (stats_ports ()) in
    trace_s := !trace_s +. (now () -. t0);
    s
  in
  let before = snap () in
  let ticks0, wb0 = sut_snapshot (pids ()) in
  let cpu0 = self_cpu () in
  let t0 = now () in
  phase_start := t0;
  (* Once a second, with the system idle: its CPU ticks and the
     reference task. The windows between these pauses are the
     slices run.py takes its timings in. *)
  let pause () =
    Pause.quiesce (fun () ->
        let quiet = ms (now () -. t0) in
        let ticks = fst (sut_snapshot (pids ())) in
        let r = reference_ms () in
        Arr [ Sample quiet; Sample (ms (now () -. t0)); Int (ticks - ticks0);
              Num r ])
  in
  let series = ref [ pause () ] and running = ref true in
  let monitor =
    Thread.create
      (fun () ->
        let k = ref 1 in
        while !running do
          let wait = t0 +. float_of_int !k -. now () in
          if wait > 0. then Thread.delay wait;
          if !running then series := pause () :: !series;
          incr k
        done)
      ()
  in
  let fields = run a.seconds in
  let elapsed = now () -. t0 in
  running := false;
  Thread.join monitor;
  let loadgen_cpu = self_cpu () -. cpu0 in
  let ticks1, wb1 = sut_snapshot (pids ()) in
  let after = snap () in
  Obj
    ([
       ("trace_s", Num !trace_s);
       ("elapsed_s", Num elapsed);
       ("loadgen_cpu_s", Num loadgen_cpu);
       ("sut_cpu_ticks", Int (ticks1 - ticks0));
       ("sut_write_bytes", Int (wb1 - wb0));
       ("pauses", Arr (List.rev !series));
       ("stats_before", Arr (List.map flat before));
       ("stats_after", Arr (List.map flat after));
     ]
    @ fields)

let warm_queries port queries =
  with_conn port (fun c ->
      Array.map (fun q -> essence (Cl.query c q)) queries)

(* serve-hot: a working set of 64 distinct queries that fits the result
   cache, replayed by two closed-loop connections. *)
let serve_hot a =
  let csv, table = galaxy_table ~rows:hot_rows a.dir in
  let schema = Relalg.Relation.schema table in
  let queries = hot_queries ~seed:a.seed table in
  let nq = Array.length queries in
  let args =
    [ "--data"; csv; "--port"; "0"; "--method"; "sketchrefine"; "--no-store" ]
    @ server_budget
  in
  let server, warm, setups =
    repeated_setup ~reps:3
      ~start:(fun k ->
        spawn ~exe:(server_exe a) ~args
          ~out:(Filename.concat a.dir (Printf.sprintf "server%d.out" k))
          ~banner:server_banner)
      ~warm:(fun c -> warm_queries c.port queries)
  in
  let t = tally () in
  Array.iteri (fun i e -> score t schema queries.(i) e) warm;
  (* answers identical to the rechecked warm answer need no recheck *)
  let known_index = Hashtbl.create nq in
  Array.iteri (fun i q -> Hashtbl.replace known_index q i) queries;
  let timed = tally () in
  let phase =
    timed_phase a
      ~pids:(fun () -> [ server.pid ])
      ~stats_ports:(fun () -> [ server.port ])
      ~run:(fun seconds ->
        closed_loop ~port:server.port ~conns:2 ~seconds
          ~next:(fun i k -> queries.(((i * nq / 2) + k) mod nq))
          ~on_answer:(fun q e ->
            score timed schema
              ~known:(fun e -> e = warm.(Hashtbl.find known_index q))
              q e))
  in
  (* a sample of answers against an in-process single-shot evaluation
     over the table the server loaded *)
  let compared = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i q ->
      if i mod 8 = 0 then begin
        incr compared;
        let mine = single_shot table q in
        match warm.(i), mine with
        | Answer (_, csv), Some csv' when csv = csv' -> ()
        | Error_code ("infeasible", _), None -> ()
        | _ ->
          incr mismatches;
          note_error ("single-shot mismatch: " ^ q)
      end)
    queries;
  let rss = rss_kb [ server.pid ] in
  stop server;
  let quality = quality table queries warm in
  [
    ("quality", Arr quality);
    ("setups", Obj (setup_json setups));
    ("phase", phase);
    ("sut_rss_kb", Int rss);
    ("compared", Int !compared);
    ("mismatches", Int !mismatches);
    ("warm", Obj (tally_json t));
    ("timed", Obj (tally_json timed));
  ]

(* A fresh-query reader over [queries], rechecking every answer. *)
let fresh_reader ~port ~conns ~seconds ~schema ~tally queries =
  let nq = Array.length queries in
  closed_loop ~port ~conns ~seconds
    ~next:(fun i k -> queries.(((i * nq / conns) + k) mod nq))
    ~on_answer:(fun q e -> score tally schema q e)

let fprint_rows port =
  match with_conn port Cl.fingerprint with
  | Pr.Resp_ok body -> (
    match String.split_on_char ' ' (String.trim body) with
    | [ _; rows ] -> int_of_string_opt rows
    | _ -> None)
  | Pr.Resp_err _ -> None

(* serve-rw: one closed-loop reader over fresh queries (a working set far
   larger than the result cache) while one open-loop writer appends a
   batch of rows and then deletes it again, at a fixed rate. The server
   logs every write durably (fsync on). Each write maintains every
   cached partitioning, 150-200 ms on this table, so the server takes
   about five writes a second: the writer keeps under a third of that,
   and a checkpoint every 8 records (not the default 64) completes
   several checkpoint cycles within a run. *)
let write_rate = 1.5
let checkpoint_every = 8

let serve_rw a =
  let base_rows = rw_rows in
  let csv, table = galaxy_table ~rows:base_rows a.dir in
  let schema = Relalg.Relation.schema table in
  let queries, warmup = rw_queries ~seed:a.seed table in
  let wal = Filename.concat a.dir "wal" in
  let args =
    [ "--data"; csv; "--port"; "0"; "--method"; "sketchrefine"; "--no-store";
      "--tau"; string_of_int (base_rows / 10);
      "--wal"; wal; "--wal-checkpoint"; string_of_int checkpoint_every ]
    @ server_budget
  in
  let start k =
    spawn ~exe:(server_exe a) ~args
      ~out:(Filename.concat a.dir (Printf.sprintf "server%d.out" k))
      ~banner:server_banner
  in
  let server, warm, setups =
    repeated_setup ~reps:3
      ~start:(fun k ->
        remove_tree wal;
        start k)
      ~warm:(fun c -> warm_queries c.port warmup)
  in
  let t = tally () in
  Array.iteri (fun i e -> score t schema warmup.(i) e) warm;
  let timed = tally () in
  let appends = ref 0 and deletes = ref 0 and user_bytes = ref 0 in
  let k = ref 0 in
  let writer ~seconds w_lat w_late =
    let c = connect server.port in
    let t0 = now () in
    let period = 1. /. write_rate in
    let j = ref 0 in
    while float_of_int !j *. period < seconds do
      let due = t0 +. (float_of_int !j *. period) in
      incr j;
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      Pause.enter ();
      let sent = now () in
      let send () =
        if !appends = !deletes then begin
          let body = Relalg.Csv.to_string (append_batch ~seed:a.seed !k) in
          user_bytes := !user_bytes + String.length body;
          (Cl.append c ~csv:body, `Append)
        end
        else begin
          let ids = List.init append_rows (fun i -> base_rows + i) in
          user_bytes :=
            !user_bytes + String.length (String.concat " " (List.map string_of_int ids));
          (Cl.delete c ids, `Delete)
        end
      in
      let resp =
        try send ()
        with e -> (Pr.Resp_err (Pr.Internal, Printexc.to_string e), `Append)
      in
      let acked = now () in
      Pause.leave ();
      Samples.add w_lat (ms (acked -. due));
      Samples.add w_late (ms (sent -. due));
      (match resp with
      | Pr.Resp_ok _, `Append -> incr appends
      | Pr.Resp_ok _, `Delete -> incr deletes
      | Pr.Resp_err (code, msg), _ ->
        Mutex.protect timed.mu (fun () -> timed.failed <- timed.failed + 1);
        note_error ("write: " ^ Pr.code_name code ^ " " ^ msg));
      incr k
    done;
    Cl.close c
  in
  let phase =
    timed_phase a
      ~pids:(fun () -> [ server.pid ])
      ~stats_ports:(fun () -> [ server.port ])
      ~run:(fun seconds ->
        let w_lat = Samples.create () and w_late = Samples.create () in
        let wt = Thread.create (fun () -> writer ~seconds w_lat w_late) () in
        let fields =
          fresh_reader ~port:server.port ~conns:1 ~seconds ~schema ~tally:timed
            queries
        in
        Thread.join wt;
        fields
        @ [
            ("write_ms", samples (Samples.to_list w_lat));
            ("write_late_ms", samples (Samples.to_list w_late));
          ])
  in
  (* durability: the live table is the base plus any unmatched append *)
  let expected_rows = base_rows + ((!appends - !deletes) * append_rows) in
  let live_rows = fprint_rows server.port in
  let live_csv_bytes =
    String.length (Relalg.Csv.to_string table)
    + (if !appends > !deletes then
         let b = Relalg.Csv.to_string (append_batch ~seed:a.seed (!k - 1)) in
         String.length b - (String.index b '\n' + 1)
       else 0)
  in
  let wal_bytes = tree_bytes wal in
  let rss = rss_kb [ server.pid ] in
  stop ~signal:Sys.sigkill server;
  let quality = quality table warmup warm in
  let recoveries =
    List.init 3 (fun r ->
        let t0 = now () in
        let c = start (10 + r) in
        let rows = fprint_rows c.port in
        let dt = now () -. t0 in
        stop ~signal:Sys.sigkill c;
        (dt, rows))
  in
  [
    ("quality", Arr quality);
    ("setups", Obj (setup_json setups));
    ("phase", phase);
    ("sut_rss_kb", Int rss);
    ("appends", Int !appends);
    ("deletes", Int !deletes);
    ("append_rows", Int append_rows);
    ("write_rate", Num write_rate);
    ("user_write_bytes", Int !user_bytes);
    ("expected_rows", Int expected_rows);
    ("live_rows", Int (Option.value ~default:(-1) live_rows));
    ("recovered_rows",
     Arr (List.map (fun (_, r) -> Int (Option.value ~default:(-1) r)) recoveries));
    ("recovery_s", nums (List.map fst recoveries));
    ("wal_bytes", Int wal_bytes);
    ("live_csv_bytes", Int live_csv_bytes);
    ("warm", Obj (tally_json t));
    ("timed", Obj (tally_json timed));
  ]

(* Every input the workload seed draws, written to [a.dir]: the query
   streams and the written rows (the tables and the paper suite do not
   depend on the seed). *)
let gen a =
  let file name = Filename.concat a.dir name in
  let lines name xs =
    write_file (file name) (String.concat "\n" (Array.to_list xs))
  in
  let hot = Datagen.Galaxy.generate ~seed:1 hot_rows in
  let rw = Datagen.Galaxy.generate ~seed:1 rw_rows in
  lines "serve-hot.txt" (hot_queries ~seed:a.seed hot);
  let reads, warm = rw_queries ~seed:a.seed rw in
  lines "serve-rw.txt" reads;
  lines "serve-rw-warm.txt" warm;
  write_file (file "serve-rw-appends.csv")
    (String.concat ""
       (List.init 4 (fun k -> Relalg.Csv.to_string (append_batch ~seed:a.seed k))));
  []

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  let fields =
    match a.workload with
    | "gen" -> gen a
    | "paper-suite" -> paper_suite a
    | "serve-hot" -> serve_hot a
    | "serve-rw" -> serve_rw a
    | w -> failwith ("unknown workload " ^ w)
  in
  let buf = Buffer.create 65536 in
  emit buf
    (Obj
       (fields
       @ [ ("errors", strs (List.rev !errors)); ("n_errors", Int !n_errors) ]));
  print_endline (Buffer.contents buf)
