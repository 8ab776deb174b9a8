(* Service-layer tests: the TCP server end to end (concurrent clients
   agree byte-for-byte with cold single-shot evaluation), the plan and
   result caches (hits skip the solver, appends invalidate), admission
   control (typed rejected, never a hang), deadline expiry, the
   queue/net fault directives, query fingerprints, and the scheduler /
   LRU / metrics building blocks. *)

module W = Datagen.Workload
module Srv = Service.Server
module Co = Service.Coordinator
module Cl = Service.Client
module Pr = Service.Protocol

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let galaxy = Datagen.Galaxy.generate ~seed:3 400

(* repeat-heavy stream exercising both caches *)
let defs = W.mixed ~seed:7 ~repeat_rate:0.5 ~dataset:`Galaxy ~n:12 galaxy
let queries = List.map (fun (d : W.def) -> d.paql) defs

let distinct_queries =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun q ->
      if Hashtbl.mem seen q then false
      else begin
        Hashtbl.replace seen q ();
        true
      end)
    queries

let base_cfg () =
  (* explicit capacities so the suite ignores PKGQ_SERVE_* env *)
  {
    Srv.default_config with
    Srv.workers = 4;
    queue = 32;
    result_cache = 256;
    plan_cache = 64;
    request_seconds = 60.;
    log_every = 0.;
  }

let with_server cfg rel f =
  let t = Srv.start cfg rel in
  Fun.protect ~finally:(fun () -> Srv.stop t) (fun () -> f t)

let with_port_client port f =
  let c = Cl.connect ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Cl.close c) (fun () -> f c)

let with_client t f = with_port_client (Srv.port t) f

(* Both owners of the front-end shell, as the shell tests see them: the
   listening port, the metrics, and an idempotent stop. The coordinator
   runs over one in-process sketchrefine server shard. *)
type front = { port : int; metrics : Service.Metrics.t; stop : unit -> unit }

let start_front = function
  | `Server ->
    let t = Srv.start (base_cfg ()) galaxy in
    { port = Srv.port t; metrics = Srv.metrics t; stop = (fun () -> Srv.stop t) }
  | `Coordinator ->
    let attrs = [ "redshift" ] in
    let shard =
      Srv.start
        { (base_cfg ()) with Srv.method_ = Service.Engine.Sketch_refine; attrs }
        galaxy
    in
    let spec =
      { Co.primary = { Co.ep_host = "127.0.0.1"; ep_port = Srv.port shard };
        replica = None; wal = None }
    in
    let co = Co.start { Co.default_config with Co.attrs } [ spec ] galaxy in
    { port = Co.port co; metrics = Co.metrics co;
      stop = (fun () -> Co.stop co; Srv.stop shard) }

let with_front kind f =
  let fe = start_front kind in
  Fun.protect ~finally:fe.stop (fun () -> f fe)

(* Response modulo the wall-time line (the only nondeterministic
   byte): status, package CSV, or the typed error. *)
let essence = function
  | Pr.Resp_ok body -> (
    match Pr.parse_result body with
    | Ok (status, _wall, csv) -> `Ok (status, csv)
    | Error e -> `Bad e)
  | Pr.Resp_err (code, msg) -> `Err (Pr.code_name code, msg)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* End-to-end: concurrency, caches, appends                           *)
(* ------------------------------------------------------------------ *)

let test_concurrent_matches_cold () =
  (* cold reference: caches off, one client, each distinct query once *)
  let reference = Hashtbl.create 16 in
  with_server
    { (base_cfg ()) with Srv.result_cache = 0; plan_cache = 0 }
    galaxy
    (fun t ->
      with_client t (fun c ->
          List.iter
            (fun q -> Hashtbl.replace reference q (essence (Cl.query c q)))
            distinct_queries));
  (* 8 concurrent clients, caches on, repeats included *)
  with_server (base_cfg ()) galaxy (fun t ->
      let clients = 8 in
      let results = Array.make clients [] in
      let threads =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                with_client t (fun c ->
                    results.(i) <-
                      List.map (fun q -> essence (Cl.query c q)) queries))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i rs ->
          List.iter2
            (fun q r ->
              checkb
                (Printf.sprintf "client %d agrees with cold single-shot" i)
                true
                (r = Hashtbl.find reference q))
            queries rs)
        results;
      checkb "every distinct query got an OK answer" true
        (List.for_all
           (fun q ->
             match Hashtbl.find reference q with `Ok _ -> true | _ -> false)
           distinct_queries))

let test_cache_hits_skip_solver () =
  with_server (base_cfg ()) galaxy (fun t ->
      with_client t (fun c ->
          List.iter (fun q -> ignore (Cl.query c q)) queries;
          let distinct = List.length distinct_queries in
          checki "one solve per distinct query" distinct (Srv.solve_count t);
          (* a full second pass is all result-cache hits *)
          List.iter (fun q -> ignore (Cl.query c q)) queries;
          checki "replay solves nothing" distinct (Srv.solve_count t);
          checkb "result hits recorded" true
            (Service.Metrics.get (Srv.metrics t) "result_hits"
             >= List.length queries)))

(* One Direct query whose numeric bound moves with [i]: every member
   shares one structure fingerprint. *)
let direct_stream n =
  let mu =
    Relalg.Value.to_float
      (Relalg.Aggregate.over galaxy (Relalg.Aggregate.Avg "redshift"))
  in
  List.init n (fun i ->
      Printf.sprintf
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) \
         = 8 AND SUM(P.redshift) <= %.6f MAXIMIZE SUM(P.petro_rad)"
        (8. *. mu *. (1.2 +. (0.02 *. float_of_int i))))

let direct_cfg () =
  { (base_cfg ()) with
    Srv.workers = 1; result_cache = 0; method_ = Service.Engine.Direct }

let gauge body name =
  let prefix = "gauge " ^ name ^ " " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body)
  with
  | Some line ->
    let k = String.length prefix in
    int_of_string (String.sub line k (String.length line - k))
  | None -> Alcotest.failf "no gauge %s in STATS" name

(* The basis cache: with the result cache off every request reaches the
   solver, and a stream of one Direct query with a tweaked numeric bound
   shares one structure fingerprint, so every request after the first
   finds the previous optimal root basis and warm-starts from it. *)
let test_basis_cache_stream () =
  let n = 12 in
  with_server (direct_cfg ()) galaxy (fun t ->
      with_client t (fun c ->
          List.iteri
            (fun i q ->
              checkb (Printf.sprintf "query %d answered" i) true
                (match essence (Cl.query c q) with `Ok _ -> true | _ -> false))
            (direct_stream n));
      let m = Srv.metrics t in
      checki "every request solved" n (Srv.solve_count t);
      checkb "basis hits >= N - 1" true
        (Service.Metrics.get m "basis_hits" >= n - 1);
      let attempts = Service.Metrics.get_gauge m "solver_warm_attempts" in
      let hits = Service.Metrics.get_gauge m "solver_warm_hits" in
      checkb
        (Printf.sprintf "warm hits/attempts > 0.8 (%d/%d)" hits attempts)
        true
        (attempts > 0 && float_of_int hits > 0.8 *. float_of_int attempts))

(* Solver gauges belong to one server: of two in-process servers, A
   answers a stream of Direct queries and B one, and B's STATS count
   exactly the simplex work of B's own evaluation. *)
let test_solver_gauges_per_server () =
  let cfg = direct_cfg () in
  let stream = direct_stream 6 in
  (* branches, so its nodes warm-start *)
  let q =
    "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 8 \
     AND SUM(P.redshift) <= 1.0 AND SUM(P.u) >= 150 MAXIMIZE \
     SUM(P.petro_rad)"
  in
  let spec =
    Paql.Translate.compile_exn
      (Relalg.Relation.schema galaxy)
      (Paql.Parser.parse_exn q)
  in
  let own =
    (Pkg.Direct.run ~limits:cfg.Srv.limits spec galaxy).Pkg.Eval.counters
      .Pkg.Eval.lp
  in
  checkb "the query pivots and warm-starts" true
    (own.Lp.Simplex.pivots > 0 && own.Lp.Simplex.warm_attempts > 0);
  let stats t =
    with_client t (fun c ->
        match Cl.stats c with
        | Pr.Resp_ok body -> body
        | _ -> Alcotest.fail "STATS failed")
  in
  with_server cfg galaxy (fun a ->
      with_server cfg galaxy (fun b ->
          with_client a (fun c ->
              List.iter (fun q -> ignore (Cl.query c q)) stream);
          with_client b (fun c ->
              checkb "B answered" true
                (match essence (Cl.query c q) with `Ok _ -> true | _ -> false));
          checkb "A pivoted" true (gauge (stats a) "solver_pivots" > 0);
          let body = stats b in
          checki "B's solver_pivots" own.Lp.Simplex.pivots
            (gauge body "solver_pivots");
          checki "B's solver_warm_attempts" own.Lp.Simplex.warm_attempts
            (gauge body "solver_warm_attempts")))

(* A progressive server serves exactly what [Pkg.Progressive.run]
   answers on the hierarchy the server builds (same attrs, leaf tau and
   Theorem-3 radius), and its STATS carry the per-level descent
   telemetry. 400 rows at tau 8 give a 3-level hierarchy. *)
let test_progressive_matches_run () =
  let attrs = [ "redshift"; "petro_rad" ] and tau = 8 in
  let cfg =
    {
      (base_cfg ()) with
      Srv.method_ = Service.Engine.Progressive;
      attrs;
      tau = Some tau;
      result_cache = 0;
      plan_cache = 0;
    }
  in
  let schema = Relalg.Relation.schema galaxy in
  let levels = ref 0 in
  let expected q =
    let spec = Paql.Translate.compile_exn schema (Paql.Parser.parse_exn q) in
    let radius =
      Pkg.Partition.theorem_radius (Paql.Translate.objective_sense spec)
    in
    let hier = Pkg.Hierarchy.build ~radius ~leaf_tau:tau ~attrs galaxy in
    levels := max !levels (Pkg.Hierarchy.num_levels hier);
    essence
      (Service.Front.response_of_report
         (fst (Pkg.Progressive.run spec galaxy hier)))
  in
  let qs =
    "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 2 AND \
     SUM(P.redshift) <= 1.5 MINIMIZE SUM(P.petro_rad)"
    :: List.filteri (fun i _ -> i < 4) distinct_queries
  in
  with_server cfg galaxy (fun t ->
      with_client t (fun c ->
          List.iteri
            (fun i q ->
              let served = essence (Cl.query c q) in
              checkb (Printf.sprintf "query %d served as run" i) true
                (served = expected q);
              if i = 0 then
                checkb "the first query is a package" true
                  (match served with `Ok _ -> true | _ -> false))
            qs;
          checkb "at least two levels" true (!levels >= 2);
          match Cl.stats c with
          | Pr.Resp_ok body ->
            for l = 0 to !levels - 1 do
              List.iter
                (fun entry ->
                  checkb (entry ^ " in STATS") true (contains ~sub:entry body))
                [
                  Printf.sprintf "stage progressive_level%d count" l;
                  Printf.sprintf "gauge progressive_level%d_groups" l;
                  Printf.sprintf "gauge progressive_level%d_active" l;
                ]
            done
          | Pr.Resp_err (_, msg) -> Alcotest.fail msg))

(* The result cache keeps a gap-stopped answer: a gap within
   [Eval.rel_gap] is what every search is asked to prove, so the answer
   is a function of the query and the table. A node-limited answer with
   a wider gap depends on the budget and is solved again. Under a
   5-node budget, Galaxy Q5 (2,000 rows, seed 1) gap-stops after 3
   nodes and Galaxy Q1 stops at the node limit with a gap near 0.7%. *)
let test_cache_keeps_gap_stops () =
  let rel = Datagen.Galaxy.generate ~seed:1 2000 in
  let query name =
    (List.find (fun (d : W.def) -> d.name = name) (W.galaxy_queries rel)).paql
  in
  let cfg =
    {
      (base_cfg ()) with
      Srv.method_ = Service.Engine.Direct;
      limits = { Ilp.Branch_bound.default_limits with max_nodes = 5 };
    }
  in
  let feasible q c =
    match essence (Cl.query c q) with
    | `Ok (status, _) as r when String.starts_with ~prefix:"feasible" status
      ->
      r
    | `Ok (status, _) -> Alcotest.failf "expected feasible, got %s" status
    | `Err (code, msg) -> Alcotest.failf "error %s: %s" code msg
    | `Bad e -> Alcotest.fail e
  in
  with_server cfg rel (fun t ->
      with_client t (fun c ->
          let gap_stop = query "Q5" and node_limit = query "Q1" in
          let first = feasible gap_stop c in
          checki "gap stop solved once" 1 (Srv.solve_count t);
          checkb "repeat is the cached answer" true
            (feasible gap_stop c = first);
          checki "repeat solves nothing" 1 (Srv.solve_count t);
          ignore (feasible node_limit c);
          ignore (feasible node_limit c);
          checki "a node-limit gap is solved every time" 3 (Srv.solve_count t)))

let test_append_invalidates_results () =
  with_server (base_cfg ()) galaxy (fun t ->
      with_client t (fun c ->
          let q = List.hd distinct_queries in
          let r1 = essence (Cl.query c q) in
          checkb "first answer is OK" true
            (match r1 with `Ok _ -> true | _ -> false);
          ignore (Cl.query c q);
          checki "repeat served from cache" 1 (Srv.solve_count t);
          let fp0 = Srv.table_fingerprint t in
          let extra = Datagen.Galaxy.generate ~seed:99 20 in
          (match Cl.append c ~csv:(Relalg.Csv.to_string extra) with
          | Pr.Resp_ok _ -> ()
          | Pr.Resp_err (_, msg) -> Alcotest.fail ("append failed: " ^ msg));
          checkb "fingerprint changed" true (Srv.table_fingerprint t <> fp0);
          checkb "stale results invalidated" true
            (Service.Metrics.get (Srv.metrics t) "result_invalidated" >= 1);
          ignore (Cl.query c q);
          checki "same query re-solves on the new table" 2 (Srv.solve_count t)))

let test_append_bad_schema () =
  with_server (base_cfg ()) galaxy (fun t ->
      with_client t (fun c ->
          match Cl.append c ~csv:"x:int\n1\n" with
          | Pr.Resp_err (Pr.Data_error, _) -> ()
          | r ->
            Alcotest.fail
              (Printf.sprintf "expected data error, got %s"
                 (match essence r with
                 | `Ok _ -> "OK"
                 | `Err (c, _) -> c
                 | `Bad e -> e))))

(* ------------------------------------------------------------------ *)
(* The write path: acks, no-op writes, maintained partitionings       *)
(* ------------------------------------------------------------------ *)

let tmp_root = lazy (Tmp_root.make "service")
let tmp_dir name = Filename.concat (Lazy.force tmp_root) name

let ok_body what = function
  | Pr.Resp_ok body -> body
  | Pr.Resp_err (code, msg) ->
    Alcotest.failf "%s: %s %s" what (Pr.code_name code) msg

(* Both write acks, byte for byte up to the fingerprint. *)
let test_write_ack_prefixes () =
  with_server (base_cfg ()) galaxy (fun t ->
      with_client t (fun c ->
          let extra = Datagen.Galaxy.generate ~seed:99 3 in
          let body =
            ok_body "append" (Cl.append c ~csv:(Relalg.Csv.to_string extra))
          in
          checkb ("append ack: " ^ body) true
            (String.starts_with
               ~prefix:"appended 3 rows; table now 403 rows, fingerprint "
               body);
          let body = ok_body "delete" (Cl.delete c [ 0; 1 ]) in
          checkb ("delete ack: " ^ body) true
            (String.starts_with
               ~prefix:"deleted 2 rows; table now 401 rows, fingerprint "
               body)))

(* A header-only APPEND and an empty DELETE change no rows: they are
   acked without a WAL record (so without a "; seq"), without a new
   snapshot, and without dropping a cached result. *)
let test_noop_writes () =
  let cfg = { (base_cfg ()) with Srv.wal_dir = Some (tmp_dir "noop-wal") } in
  with_server cfg galaxy (fun t ->
      with_client t (fun c ->
          let q = List.hd distinct_queries in
          ignore (Cl.query c q);
          let fp0 = Srv.table_fingerprint t in
          let header_only =
            Relalg.Csv.to_string
              (Relalg.Relation.of_rows (Relalg.Relation.schema galaxy) [])
          in
          let append_ack =
            ok_body "empty append" (Cl.append c ~csv:header_only)
          in
          let delete_ack = ok_body "empty delete" (Cl.delete c []) in
          List.iter2
            (fun prefix body ->
              checkb ("no-op ack: " ^ body) true
                (String.starts_with ~prefix body
                && not (contains ~sub:"; seq" body)))
            [ "appended 0 rows; table now 400 rows, fingerprint " ^ fp0;
              "deleted 0 rows; table now 400 rows, fingerprint " ^ fp0 ]
            [ append_ack; delete_ack ];
          let m = Srv.metrics t in
          checks "fingerprint unchanged" fp0 (Srv.table_fingerprint t);
          checki "no WAL record" 0 (Service.Metrics.get m "wal_records");
          checki "no write counted" 0
            (Service.Metrics.get m "appends" + Service.Metrics.get m "deletes");
          checki "nothing invalidated" 0
            (Service.Metrics.get m "result_invalidated");
          ignore (Cl.query c q);
          checki "the repeat is a cache hit" 1 (Srv.solve_count t)))

(* Golden digest of the write path, pinned from eager maintenance as it
   stood before writes built one table per write: three cached
   partitionings are maintained through appends (one overflowing a
   group into a local re-split, one carrying NULL cells) and deletes
   (one with a duplicate id). After every write the table fingerprint
   and every maintained partitioning the catalog holds for it —
   members, centroid and radius bits, [gid_of_row], the reps segment —
   feed one running digest. *)
let write_path_golden = "cc9b1311e91d5fd464bf534ee8c3ca61"

let test_write_path_golden () =
  let module P = Pkg.Partition in
  let module V = Relalg.Value in
  let dir = tmp_dir "golden-catalog" in
  let catalog = Store.Catalog.open_dir dir in
  let cfg =
    { (base_cfg ()) with
      Srv.method_ = Service.Engine.Sketch_refine; attrs = []; tau = Some 40 }
  in
  let q body =
    "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 SUCH THAT " ^ body
  in
  let t = Srv.start ~catalog cfg galaxy in
  Fun.protect ~finally:(fun () -> Srv.stop t) @@ fun () ->
  with_client t (fun c ->
      List.iter
        (fun body -> ignore (Cl.query c (q body)))
        [
          "COUNT(P.*) = 3 MAXIMIZE SUM(P.petro_rad)";
          "COUNT(P.*) = 3 AND SUM(P.redshift) <= 1.0 MAXIMIZE SUM(P.r)";
          "COUNT(P.*) = 2 AND SUM(P.g) >= 10 MINIMIZE SUM(P.objid)";
        ]);
  let maintained fp =
    Store.Catalog.entries catalog
    |> List.filter_map (fun (e : Store.Catalog.entry) ->
           if e.entry_key.fingerprint = fp then Some (e.entry_key, e.rows)
           else None)
    |> List.sort_uniq (fun (a, _) (b, _) ->
           compare (Store.Catalog.key_string a) (Store.Catalog.key_string b))
    |> List.map (fun (key, rows) ->
           match Store.Catalog.find catalog key ~rows with
           | Some p -> (key, p)
           | None -> Alcotest.fail "listed entry not found")
  in
  let b = Buffer.create 65536 in
  let add_int i = Buffer.add_string b (string_of_int i ^ ",") in
  let add_float f =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float f) ^ ",")
  in
  let groups = ref [] in
  let record () =
    let fp = Srv.table_fingerprint t in
    let parts = maintained fp in
    checki "three partitionings maintained" 3 (List.length parts);
    Buffer.add_string b fp;
    List.iter
      (fun (key, (p : P.t)) ->
        Buffer.add_string b (Store.Catalog.key_string key);
        Array.iter
          (fun (g : P.group) ->
            Array.iter add_int g.P.members;
            Array.iter add_float g.P.centroid;
            add_float g.P.radius)
          p.P.groups;
        Array.iter add_int p.P.gid_of_row;
        Buffer.add_string b (Store.Segment.to_string p.P.reps))
      parts;
    groups := List.map (fun (_, p) -> P.num_groups p) parts :: !groups
  in
  record ();
  let append rel = ignore (Srv.append t rel) in
  let delete ids = ignore (Srv.delete t ids) in
  append (Datagen.Galaxy.generate ~seed:71 25);
  record ();
  (* 50 near-copies of row 0: more than tau land in one group *)
  let row0 = Relalg.Relation.row galaxy 0 in
  append
    (Relalg.Relation.of_rows (Relalg.Relation.schema galaxy)
       (List.init 50 (fun k ->
            Array.map
              (function
                | V.Float f -> V.Float (f *. (1. +. (1e-4 *. float_of_int k)))
                | V.Int x -> V.Int (x + k)
                | v -> v)
              row0)));
  record ();
  (match !groups with
  | after :: before :: _ ->
    checkb "the overflowing batch re-split a group" true
      (List.exists2 ( > ) after before)
  | _ -> assert false);
  (* NULL cells in an int and two float columns, the partitioning
     attrs among them *)
  let schema = (Relalg.Relation.schema galaxy) in
  let nulled = [ "objid"; "redshift"; "g" ] in
  append
    (Relalg.Relation.of_rows schema
       (List.mapi
          (fun k row ->
            Array.mapi
              (fun i v ->
                let a = Relalg.Schema.attr_at schema i in
                if k mod 2 = 0 && List.mem a.Relalg.Schema.name nulled then
                  V.Null
                else v)
              row)
          (Relalg.Relation.to_list (Datagen.Galaxy.generate ~seed:73 6))));
  record ();
  delete [ 5; 17; 17; 300; Srv.table_rows t - 1 ];
  record ();
  append (Datagen.Galaxy.generate ~seed:74 10);
  record ();
  delete [ 0; 1; 2; 480; 486 ];
  record ();
  checks "write-path digest" write_path_golden
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* Admission control and deadlines                                    *)
(* ------------------------------------------------------------------ *)

let test_queue_full_fault_rejects () =
  (match Pkg.Faults.parse "queue=full" with
  | Ok spec -> Pkg.Faults.install spec
  | Error msg -> Alcotest.fail ("queue=full should parse: " ^ msg));
  Fun.protect ~finally:Pkg.Faults.clear (fun () ->
      with_server (base_cfg ()) galaxy (fun t ->
          with_client t (fun c ->
              match Cl.query c (List.hd distinct_queries) with
              | Pr.Resp_err (Pr.Rejected, msg) ->
                checkb "names the queue" true
                  (String.length msg >= 5 (* "rejected: queue full ..." *));
                checki "rejected maps to exit code 7" 7
                  (Pr.exit_code Pr.Rejected);
                checkb "typed, not silent" true
                  (Service.Metrics.get (Srv.metrics t) "shed" >= 1)
              | r ->
                Alcotest.fail
                  (match essence r with
                  | `Ok _ -> "expected rejection, got OK"
                  | `Err (c, m) -> "expected rejected, got " ^ c ^ ": " ^ m
                  | `Bad e -> e))))

let test_overload_never_hangs () =
  (* 1 worker, queue of 1, 12 concurrent distinct queries: every
     request must complete — OK or typed rejected — and joining all
     clients is the no-hang proof *)
  let stream =
    W.mixed ~seed:21 ~repeat_rate:0. ~dataset:`Galaxy ~n:12 galaxy
  in
  with_server
    { (base_cfg ()) with Srv.workers = 1; queue = 1 }
    galaxy
    (fun t ->
      let outcomes = Array.make (List.length stream) `Pending in
      let threads =
        List.mapi
          (fun i (d : W.def) ->
            Thread.create
              (fun () ->
                with_client t (fun c ->
                    outcomes.(i) <- essence (Cl.query c d.paql)))
              ())
          stream
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i o ->
          match o with
          | `Ok _ | `Err ("rejected", _) -> ()
          | `Pending -> Alcotest.fail (Printf.sprintf "request %d hung" i)
          | `Err (c, m) ->
            Alcotest.fail (Printf.sprintf "request %d: %s: %s" i c m)
          | `Bad e -> Alcotest.fail e)
        outcomes;
      checki "shed counter matches rejected answers"
        (Array.to_list outcomes
        |> List.filter (function `Err ("rejected", _) -> true | _ -> false)
        |> List.length)
        (Service.Metrics.get (Srv.metrics t) "shed"))

let test_deadline_expired () =
  with_server
    { (base_cfg ()) with Srv.request_seconds = 0. }
    galaxy
    (fun t ->
      with_client t (fun c ->
          match Cl.query c (List.hd distinct_queries) with
          | Pr.Resp_err (Pr.Deadline, msg) ->
            checkb "says deadline" true
              (String.length msg > 0);
            checki "no solver work for an expired request" 0
              (Srv.solve_count t)
          | r ->
            Alcotest.fail
              (match essence r with
              | `Ok _ -> "expected deadline error, got OK"
              | `Err (c, m) -> "expected deadline, got " ^ c ^ ": " ^ m
              | `Bad e -> e)))

(* ------------------------------------------------------------------ *)
(* Net fault directives                                               *)
(* ------------------------------------------------------------------ *)

let test_net_accept_fault kind () =
  (match Pkg.Faults.parse "net=accept:fail" with
  | Ok spec -> Pkg.Faults.install spec
  | Error msg -> Alcotest.fail ("net=accept:fail should parse: " ^ msg));
  Fun.protect ~finally:Pkg.Faults.clear (fun () ->
      with_front kind (fun fe ->
          (* first connection is accepted then dropped by the fault *)
          let dropped =
            match
              with_port_client fe.port (fun c -> Cl.ping c)
            with
            | Pr.Resp_ok _ -> false
            | Pr.Resp_err _ -> true
            | exception Pr.Protocol_error _ -> true
            | exception Unix.Unix_error _ -> true
            | exception Sys_error _ -> true
          in
          checkb "first connection dropped" true dropped;
          checkb "net error counted" true
            (Service.Metrics.get fe.metrics "net_errors" >= 1);
          (* the fault is one-shot: the front end recovered *)
          with_port_client fe.port (fun c ->
              match Cl.ping c with
              | Pr.Resp_ok body -> checks "server recovered" "pong" body
              | Pr.Resp_err (_, m) -> Alcotest.fail m)))

let test_net_read_fault kind () =
  (match Pkg.Faults.parse "net=read:fail" with
  | Ok spec -> Pkg.Faults.install spec
  | Error msg -> Alcotest.fail ("net=read:fail should parse: " ^ msg));
  Fun.protect ~finally:Pkg.Faults.clear (fun () ->
      with_front kind (fun fe ->
          let dropped =
            match with_port_client fe.port (fun c -> Cl.ping c) with
            | Pr.Resp_ok _ -> false
            | Pr.Resp_err _ -> true
            | exception Pr.Protocol_error _ -> true
            | exception Unix.Unix_error _ -> true
            | exception Sys_error _ -> true
          in
          checkb "read faulted" true dropped;
          with_port_client fe.port (fun c ->
              match Cl.ping c with
              | Pr.Resp_ok body -> checks "server recovered" "pong" body
              | Pr.Resp_err (_, m) -> Alcotest.fail m)))

(* [stop] with an idle client connected returns promptly, hangs up on
   the client, closes the port, and is a no-op the second time. *)
let test_stop_lifecycle kind () =
  let fe = start_front kind in
  let c = Cl.connect ~host:"127.0.0.1" ~port:fe.port () in
  Fun.protect ~finally:(fun () -> try Cl.close c with _ -> ()) @@ fun () ->
  (match Cl.ping c with
  | Pr.Resp_ok body -> checks "client connected" "pong" body
  | Pr.Resp_err (_, m) -> Alcotest.fail m);
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  checkb "stop returns promptly" true (timed fe.stop < 2.);
  checkb "idle client was hung up on" true
    (match Cl.ping c with Pr.Resp_ok _ -> false | Pr.Resp_err _ | exception _ -> true);
  checkb "port refuses connections" true
    (match Cl.connect ~host:"127.0.0.1" ~port:fe.port () with
    | c ->
      Cl.close c;
      false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true);
  checkb "second stop is a no-op" true (timed fe.stop < 0.1)

let test_fault_grammar () =
  (match Pkg.Faults.parse "queue=full; net=accept:fail; net=read:fail" with
  | Ok spec -> checki "three directives" 3 (List.length spec)
  | Error msg -> Alcotest.fail msg);
  (match Pkg.Faults.parse "net=elsewhere:fail" with
  | Ok _ -> Alcotest.fail "net=elsewhere:fail should not parse"
  | Error _ -> ());
  match Pkg.Faults.parse "queue=almost" with
  | Ok _ -> Alcotest.fail "queue=almost should not parse"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Query fingerprints                                                 *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_normalizes () =
  let fp = Paql.Fingerprint.of_query in
  let q = List.hd distinct_queries in
  checks "whitespace-insensitive" (fp q)
    (fp (String.concat "  \n  " (String.split_on_char ' ' q)));
  (* keywords are case-insensitive in the lexer; identifiers are not *)
  checks "keyword-case-insensitive" (fp "SELECT PACKAGE(G) AS P FROM Galaxy G")
    (fp "select package(G) as P from Galaxy G");
  checkb "semantic changes change the fingerprint" true
    (fp "COUNT(P.*) = 3" <> fp "COUNT(P.*) = 4");
  checkb "malformed text still fingerprints" true
    (String.length (fp "SELECT \"unterminated") = 16)

(* ------------------------------------------------------------------ *)
(* Building blocks: LRU cache, scheduler, metrics, protocol           *)
(* ------------------------------------------------------------------ *)

let test_lru_cache () =
  let c = Service.Cache.create ~capacity:2 in
  Service.Cache.add c "a" 1;
  Service.Cache.add c "b" 2;
  ignore (Service.Cache.find_opt c "a");
  (* a is now most recent *)
  Service.Cache.add c "c" 3;
  (* b evicted *)
  checkb "lru evicted" true (Service.Cache.find_opt c "b" = None);
  checkb "recent kept" true (Service.Cache.find_opt c "a" = Some 1);
  checki "bounded" 2 (Service.Cache.length c);
  checki "remove_if drops matches" 1
    (Service.Cache.remove_if c (fun k -> k = "a"));
  let off = Service.Cache.create ~capacity:0 in
  Service.Cache.add off "x" 1;
  checkb "capacity 0 disables" true (Service.Cache.find_opt off "x" = None)

let test_scheduler_sheds_deterministically () =
  let metrics = Service.Metrics.create () in
  let s = Service.Scheduler.create ~workers:1 ~capacity:2 ~metrics in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let started = ref false in
  let release = ref false in
  let ran = Atomic.make 0 in
  let gate () =
    Mutex.protect mu (fun () ->
        started := true;
        Condition.signal cv;
        while not !release do
          Condition.wait cv mu
        done)
  in
  checkb "gate admitted" true (Service.Scheduler.submit s gate = `Accepted);
  Mutex.protect mu (fun () ->
      while not !started do
        Condition.wait cv mu
      done);
  (* worker busy, queue empty: capacity admits exactly two more *)
  let noop () = Atomic.incr ran in
  checkb "1st queued" true (Service.Scheduler.submit s noop = `Accepted);
  checkb "2nd queued" true (Service.Scheduler.submit s noop = `Accepted);
  checkb "3rd shed" true (Service.Scheduler.submit s noop = `Rejected);
  checki "shed counted" 1 (Service.Metrics.get metrics "shed");
  Mutex.protect mu (fun () ->
      release := true;
      Condition.broadcast cv);
  Service.Scheduler.shutdown s;
  checki "admitted jobs drained before shutdown" 2 (Atomic.get ran)

let test_metrics_render () =
  let m = Service.Metrics.create () in
  Service.Metrics.incr m "requests";
  Service.Metrics.incr ~by:3 m "requests";
  Service.Metrics.set_gauge m "queue_depth" 5;
  Service.Metrics.observe m "solve" 0.010;
  Service.Metrics.observe m "solve" 0.020;
  checki "counter" 4 (Service.Metrics.get m "requests");
  checki "gauge" 5 (Service.Metrics.get_gauge m "queue_depth");
  checki "stage count" 2 (Service.Metrics.stage_count m "solve");
  (match Service.Metrics.quantile m "solve" 0.5 with
  | Some q -> checkb "p50 in range" true (q >= 0.009 && q <= 0.025)
  | None -> Alcotest.fail "expected a quantile");
  let rendered = Service.Metrics.render m in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec scan i =
      i + nl <= hl && (String.sub rendered i nl = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun needle -> checkb (needle ^ " rendered") true (contains needle))
    [ "requests 4"; "gauge queue_depth 5"; "stage solve count 2" ]

let test_protocol_roundtrip () =
  let body =
    Pr.render_result ~status_line:"optimal, obj=42" ~wall:0.125
      ~csv:"a:int\n1\n2\n"
  in
  (match Pr.parse_result body with
  | Ok (status, wall, csv) ->
    checks "status" "optimal, obj=42" status;
    checkb "wall" true (Float.abs (wall -. 0.125) < 1e-9);
    checks "csv" "a:int\n1\n2\n" csv
  | Error e -> Alcotest.fail e);
  (match Cl.parse_endpoint "127.0.0.1:7070" with
  | Ok (h, p) ->
    checks "host" "127.0.0.1" h;
    checki "port" 7070 p
  | Error e -> Alcotest.fail e);
  match Cl.parse_endpoint "no-port" with
  | Ok _ -> Alcotest.fail "endpoint without port should not parse"
  | Error _ -> ()

(* REFINE frames carry offsets as hex floats: every finite value,
   subnormals and the sign of zero included, survives the trip bit for
   bit. *)
let refine_frame_roundtrip_prop =
  let finite =
    QCheck.Gen.(
      oneof
        [
          float;
          oneofl
            [ 0.; -0.; 5e-324; -5e-324; Float.min_float /. 3.; Float.max_float;
              -.Float.max_float; Float.epsilon ];
          map (fun m -> ldexp m (-1074)) (float_bound_inclusive 1e6);
        ])
  in
  let gen =
    QCheck.Gen.(
      quad (int_bound 10_000) (int_range 1 1_000_000)
        (array_size (int_range 0 6)
           (finite >|= fun v -> if Float.is_finite v then v else 1.))
        (oneofl queries))
  in
  QCheck.Test.make ~count:300 ~name:"REFINE frame round-trips bit for bit"
    (QCheck.make gen) (fun (gid, budget_ms, offsets, query) ->
      let gid', budget_ms', offsets', query' =
        Pr.parse_refine (Pr.render_refine ~gid ~budget_ms ~offsets ~query)
      in
      gid' = gid && budget_ms' = budget_ms && query' = query
      && Array.length offsets' = Array.length offsets
      && Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           offsets offsets')

(* Malformed REFINE frames — non-finite offsets, a budget that is not
   positive — are answered with a typed data error by a live server,
   raised by the frame parse itself (before the shard-assignment
   check, which would also answer a data error). *)
let test_refine_frame_rejected () =
  with_server (base_cfg ()) galaxy (fun t ->
      with_client t (fun c ->
          List.iter
            (fun (what, body) ->
              match Cl.roundtrip c (Pr.Refine body) with
              | Pr.Resp_err (Pr.Data_error, msg)
                when String.starts_with ~prefix:"REFINE" msg ->
                ()
              | r ->
                Alcotest.failf "%s: expected a REFINE data error, got %s" what
                  (match r with
                  | Pr.Resp_ok b -> "OK " ^ b
                  | Pr.Resp_err (code, msg) -> Pr.code_name code ^ " " ^ msg))
            [
              ("nan offset", "0 1000\nnan 0x1p+0\n" ^ List.hd queries);
              ("inf offset", "0 1000\n0x1p+0 inf\n" ^ List.hd queries);
              ("-infinity offset", "0 1000\n-infinity\n" ^ List.hd queries);
              ("zero budget", "0 0\n0x1p+0\n" ^ List.hd queries);
              ("negative budget", "0 -5\n0x1p+0\n" ^ List.hd queries);
            ];
          (* the connection survives every rejection *)
          match Cl.ping c with
          | Pr.Resp_ok _ -> ()
          | _ -> Alcotest.fail "connection lost after rejected frames"))

(* A peer that accepts (here: the kernel backlog) but never answers
   must surface as the typed read timeout, not as a raw channel
   exception. *)
let test_client_read_timeout () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 4;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let c = Cl.connect ~timeout:0.2 ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  match Cl.ping c with
  | exception Cl.Timed_out { phase = `Read; seconds } ->
    checkb "carries the configured budget" true (seconds = 0.2)
  | exception e -> Alcotest.fail ("untyped: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "a silent peer answered"

let () =
  Alcotest.run "service"
    [
      ( "server",
        [
          Alcotest.test_case "concurrent clients match cold single-shot"
            `Slow test_concurrent_matches_cold;
          Alcotest.test_case "result cache hits skip the solver" `Quick
            test_cache_hits_skip_solver;
          Alcotest.test_case "basis cache warm-starts a stream" `Quick
            test_basis_cache_stream;
          Alcotest.test_case "solver gauges count one server" `Quick
            test_solver_gauges_per_server;
          Alcotest.test_case "progressive server equals Progressive.run" `Quick
            test_progressive_matches_run;
          Alcotest.test_case "result cache keeps gap stops only" `Quick
            test_cache_keeps_gap_stops;
          Alcotest.test_case "append invalidates cached results" `Quick
            test_append_invalidates_results;
          Alcotest.test_case "write acks name the verb" `Quick
            test_write_ack_prefixes;
          Alcotest.test_case "writes of no rows change nothing" `Quick
            test_noop_writes;
          Alcotest.test_case "write path golden digest" `Quick
            test_write_path_golden;
          Alcotest.test_case "append with a foreign schema is a data error"
            `Quick test_append_bad_schema;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue=full fault sheds with typed rejected"
            `Quick test_queue_full_fault_rejects;
          Alcotest.test_case "overload completes every request" `Slow
            test_overload_never_hangs;
          Alcotest.test_case "expired deadline answers without solving" `Quick
            test_deadline_expired;
        ] );
      ( "faults",
        [
          Alcotest.test_case "net=accept:fail drops one connection" `Quick
            (test_net_accept_fault `Server);
          Alcotest.test_case "coordinator net=accept:fail drops one" `Quick
            (test_net_accept_fault `Coordinator);
          Alcotest.test_case "net=read:fail drops one read" `Quick
            (test_net_read_fault `Server);
          Alcotest.test_case "coordinator net=read:fail drops one read" `Quick
            (test_net_read_fault `Coordinator);
          Alcotest.test_case "grammar accepts/rejects the new directives"
            `Quick test_fault_grammar;
        ] );
      ( "front",
        [
          Alcotest.test_case "server stop is prompt, closes, idempotent" `Quick
            (test_stop_lifecycle `Server);
          Alcotest.test_case "coordinator stop is prompt, closes, idempotent"
            `Quick (test_stop_lifecycle `Coordinator);
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "token-normalized, semantics-sensitive" `Quick
            test_fingerprint_normalizes;
        ] );
      ( "components",
        [
          Alcotest.test_case "bounded LRU cache" `Quick test_lru_cache;
          Alcotest.test_case "scheduler sheds past capacity" `Quick
            test_scheduler_sheds_deterministically;
          Alcotest.test_case "metrics counters and histograms" `Quick
            test_metrics_render;
          Alcotest.test_case "protocol bodies and endpoints round-trip" `Quick
            test_protocol_roundtrip;
          QCheck_alcotest.to_alcotest refine_frame_roundtrip_prop;
          Alcotest.test_case "malformed REFINE frames are data errors" `Quick
            test_refine_frame_rejected;
          Alcotest.test_case "client read timeout is typed" `Quick
            test_client_read_timeout;
        ] );
    ]
