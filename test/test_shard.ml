(* Sharded-serving tests: the coordinator's scatter/gather agrees
   byte-for-byte with a single-node sketchrefine server, failover to a
   caught-up replica returns the identical package, hedged refines are
   deterministic whichever side wins, the per-shard circuit breaker
   trips/probes/closes, and a query over dead groups degrades into the
   typed [degraded] error instead of hanging or lying.

   The "smoke" group is the bounded (<10s) end-to-end proof and runs
   under the @shard-smoke alias; the "shard" group adds the slower
   scenarios (stalls, stale replicas, the kill/stall matrix); the
   "fence" group (@fence-smoke, also <10s) proves the membership
   fencing: lease installs/expiry/self-demotion, the fence fault
   directives, and the zombie split-brain experiment. *)

module R = Relalg.Relation
module Srv = Service.Server
module Cl = Service.Client
module Pr = Service.Protocol
module Ch = Service.Chaos
module Co = Service.Coordinator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp_dir = Tmp_root.make "shard"

let server_exe =
  let p =
    match Sys.getenv_opt "PKGQ_SERVER_EXE" with
    | Some p -> p
    | None -> Filename.concat ".." "bin/pkgq_server.exe"
  in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let galaxy = Datagen.Galaxy.generate ~seed:5 64
let attrs = [ "redshift" ]
let tau = 12

let q_max =
  "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 3 MAXIMIZE \
   SUM(P.redshift)"

let q_min =
  "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 2 AND \
   SUM(P.redshift) <= 1.5 MINIMIZE SUM(P.petro_rad)"

let queries = [ q_max; q_min ]

(* Response modulo the wall-time line (the only nondeterministic
   byte): status, package CSV, or the typed error. *)
let essence = function
  | Pr.Resp_ok body -> (
    match Pr.parse_result body with
    | Ok (status, _wall, csv) -> `Ok (status, csv)
    | Error e -> `Bad e)
  | Pr.Resp_err (code, msg) -> `Err (Pr.code_name code, msg)

(* ------------------------------------------------------------------ *)
(* Single-node reference                                              *)
(* ------------------------------------------------------------------ *)

(* The ground truth: an in-process sketchrefine server over the same
   table and partitioning config. Caches off so every answer is a real
   solve. *)
let reference_essences =
  lazy
    (let cfg =
       {
         Srv.default_config with
         Srv.method_ = Service.Engine.Sketch_refine;
         attrs;
         tau = Some tau;
         workers = 2;
         queue = 16;
         result_cache = 0;
         plan_cache = 0;
         log_every = 0.;
       }
     in
     let t = Srv.start cfg galaxy in
     Fun.protect
       ~finally:(fun () -> Srv.stop t)
       (fun () ->
         let c = Cl.connect ~host:"127.0.0.1" ~port:(Srv.port t) () in
         Fun.protect
           ~finally:(fun () -> try Cl.close c with _ -> ())
           (fun () ->
             List.map (fun q -> (q, essence (Cl.query c q))) queries)))

let reference q = List.assoc q (Lazy.force reference_essences)

let check_ok_reference name q e =
  checkb (name ^ ": matches single-node sketchrefine") true
    (e = reference q);
  checkb (name ^ ": reference is a package") true
    (match e with `Ok _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fleet scaffolding                                                  *)
(* ------------------------------------------------------------------ *)

let fleet_args =
  [ "--attrs"; String.concat "," attrs; "--tau"; string_of_int tau ]

let coord_cfg () =
  {
    Co.default_config with
    Co.attrs;
    tau = Some tau;
    request_seconds = 20.;
    connect_timeout = 0.5;
    rpc_seconds = 0.5;
    retries = 1;
    hedge_ms = 40;
    breaker_probe_seconds = 0.2;
    ship_every = 0.02;
  }

let with_fleet name ~shards ~replicas ?(cfg = coord_cfg ()) ?(base = galaxy)
    ?(extra_args = fleet_args) f =
  let fleet =
    Ch.start_fleet ~exe:server_exe
      ~dir:(Filename.concat tmp_dir name)
      ~base ~shards ~replicas ~extra_args ()
  in
  Fun.protect
    ~finally:(fun () -> Ch.stop_fleet fleet)
    (fun () ->
      let t = Co.start cfg (Ch.fleet_specs fleet) base in
      Fun.protect ~finally:(fun () -> Co.stop t) (fun () -> f fleet t))

let with_faults spec f =
  (match Pkg.Faults.parse spec with
  | Ok s -> Pkg.Faults.install s
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Pkg.Faults.clear f

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let counter t k = Service.Metrics.get (Co.metrics t) k
let gauge t k = Service.Metrics.get_gauge (Co.metrics t) k

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else String.sub haystack i n = needle || go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* smoke: equivalence, failover, breaker, injected faults             *)
(* ------------------------------------------------------------------ *)

let test_equivalence () =
  with_fleet "equiv" ~shards:2 ~replicas:0 (fun _fleet t ->
      (* in-process path *)
      List.iter
        (fun q -> check_ok_reference "eval" q (essence (Co.eval t q)))
        queries;
      (* and through the TCP front end *)
      let c = Cl.connect ~host:"127.0.0.1" ~port:(Co.port t) () in
      Fun.protect
        ~finally:(fun () -> try Cl.close c with _ -> ())
        (fun () ->
          List.iter
            (fun q -> check_ok_reference "front-end" q (essence (Cl.query c q)))
            queries);
      checkb "no failovers on a healthy fleet" true
        (counter t "shard_failovers" = 0))

let test_failover_equivalence () =
  with_fleet "failover" ~shards:2 ~replicas:1 (fun fleet t ->
      (* warm run, then kill shard 0's primary outright *)
      check_ok_reference "healthy" q_max (essence (Co.eval t q_max));
      Ch.kill_server (List.nth fleet 0).Ch.fm_primary;
      (* the replica is byte-identical (no writes ever happened), so
         failover must return the exact single-node package, not a
         degraded one *)
      check_ok_reference "after primary kill" q_max (essence (Co.eval t q_max));
      checkb "failover counted" true (counter t "shard_failovers" >= 1);
      check_ok_reference "again (routed around the corpse)" q_min
        (essence (Co.eval t q_min)))

(* A progressive fleet runs [Pkg.Progressive]'s descent over its
   scatter-derived caps, so it answers what a progressive server
   answers: the same runners-up, per-level widening and warm leaf
   sketch. 200 rows at tau 10 give a 3-level hierarchy. *)
let test_progressive_equivalence () =
  let base = Datagen.Galaxy.generate ~seed:5 200 in
  let attrs = [ "redshift"; "petro_rad" ] and tau = 10 in
  let server_cfg =
    {
      Srv.default_config with
      Srv.method_ = Service.Engine.Progressive;
      attrs;
      tau = Some tau;
      workers = 2;
      queue = 16;
      result_cache = 0;
      plan_cache = 0;
      log_every = 0.;
    }
  in
  let single =
    let t = Srv.start server_cfg base in
    Fun.protect
      ~finally:(fun () -> Srv.stop t)
      (fun () ->
        let c = Cl.connect ~host:"127.0.0.1" ~port:(Srv.port t) () in
        Fun.protect
          ~finally:(fun () -> try Cl.close c with _ -> ())
          (fun () -> List.map (fun q -> essence (Cl.query c q)) queries))
  in
  let cfg =
    { (coord_cfg ()) with Co.method_ = `Progressive; attrs; tau = Some tau }
  in
  with_fleet "progressive" ~shards:2 ~replicas:0 ~cfg ~base
    ~extra_args:
      [ "--attrs"; String.concat "," attrs; "--tau"; string_of_int tau;
        "--method"; "progressive" ]
    (fun _fleet t ->
      List.iter2
        (fun q reference ->
          let e = essence (Co.eval t q) in
          checkb "matches single-node progressive" true (e = reference);
          checkb "reference is a package" true
            (match e with `Ok _ -> true | _ -> false))
        queries single;
      checkb "descended at least two levels" true
        (gauge t "progressive_level1_groups" > 0))

(* The razor-thin window of test_pkg's "hybrid sketch rescues": no
   combination of centroids hits it, so the plain sketch is infeasible
   and only the Section 4.4 ladder's hybrid sketch finds the package. A
   fleet climbs the ladder a single node climbs: flat, and progressive
   over a one-level hierarchy, it answers what [pkgq_server] answers. *)
let test_fleet_ladder () =
  let schema =
    Relalg.Schema.make
      [
        { Relalg.Schema.name = "a"; ty = Relalg.Value.TFloat };
        { Relalg.Schema.name = "b"; ty = Relalg.Value.TFloat };
      ]
  in
  let base =
    R.of_rows schema
      (List.map
         (fun (a, b) -> [| Relalg.Value.Float a; Relalg.Value.Float b |])
         [ (0.0, 1.); (0.2, 2.); (0.4, 3.); (0.6, 4.);
           (100.0, 1.); (100.2, 2.); (100.4, 3.); (100.6, 4.) ])
  in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 1 AND \
     SUM(P.a) BETWEEN 100.55 AND 100.65 MAXIMIZE SUM(P.b)"
  in
  let attrs = [ "a" ] and tau = 4 in
  (* one-level hierarchies: passed to the in-process server and
     coordinator, and to the spawned shards through the environment
     knob their binary reads *)
  let levels = 1 in
  let var = "PKGQ_HIER_LEVELS" in
  let saved = Sys.getenv_opt var in
  Unix.putenv var (string_of_int levels);
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value saved ~default:""))
  @@ fun () ->
  List.iter
    (fun (name, server_method, method_) ->
      let single =
        let t =
          Srv.start
            {
              Srv.default_config with
              Srv.method_ = server_method;
              attrs;
              tau = Some tau;
              levels;
              workers = 1;
              queue = 4;
              result_cache = 0;
              plan_cache = 0;
              log_every = 0.;
            }
            base
        in
        Fun.protect
          ~finally:(fun () -> Srv.stop t)
          (fun () ->
            let c = Cl.connect ~host:"127.0.0.1" ~port:(Srv.port t) () in
            Fun.protect
              ~finally:(fun () -> try Cl.close c with _ -> ())
              (fun () -> essence (Cl.query c q)))
      in
      checkb (name ^ ": the server's ladder finds the package") true
        (match single with
        | `Ok (status, _) -> contains status "optimal, obj=4"
        | _ -> false);
      let cfg =
        { (coord_cfg ()) with Co.method_; attrs; tau = Some tau; levels }
      in
      with_fleet ("ladder-" ^ name) ~shards:2 ~replicas:0 ~cfg ~base
        ~extra_args:
          [ "--attrs"; "a"; "--tau"; string_of_int tau; "--method"; name ]
        (fun _fleet t ->
          checkb (name ^ ": fleet equals pkgq_server") true
            (essence (Co.eval t q) = single)))
    [
      ("sketchrefine", Service.Engine.Sketch_refine, `Sketch_refine);
      ("progressive", Service.Engine.Progressive, `Progressive);
    ]

let test_breaker_trip_probe_close () =
  let port = free_port () in
  let spec =
    {
      Co.primary = { Co.ep_host = "127.0.0.1"; ep_port = port };
      replica = None;
      wal = None;
    }
  in
  let cfg = { (coord_cfg ()) with Co.retries = 0; breaker_trips = 3 } in
  let t = Co.start cfg [ spec ] galaxy in
  Fun.protect
    ~finally:(fun () -> Co.stop t)
    (fun () ->
      (* nobody listens on the port: every eval burns one primary
         failure; the third trips the breaker *)
      for _ = 1 to 3 do
        match Co.eval t q_max with
        | Pr.Resp_err _ -> ()
        | Pr.Resp_ok _ -> Alcotest.fail "eval against a dead fleet succeeded"
      done;
      checki "breaker open" 1 (gauge t "shard0_breaker");
      checki "one trip counted" 1 (counter t "shard_breaker_trips");
      (* denied while open: no connection attempts, still a typed error *)
      (match Co.eval t q_max with
      | Pr.Resp_err _ -> ()
      | Pr.Resp_ok _ -> Alcotest.fail "open breaker must not answer ok");
      (* resurrect the shard on the very same port, wait out the probe
         window: the next eval probes, closes, and answers *)
      let scfg =
        {
          Srv.default_config with
          Srv.port;
          attrs;
          tau = Some tau;
          workers = 2;
          queue = 16;
          log_every = 0.;
        }
      in
      let srv = Srv.start scfg galaxy in
      Fun.protect
        ~finally:(fun () -> Srv.stop srv)
        (fun () ->
          Thread.delay (cfg.Co.breaker_probe_seconds +. 0.05);
          check_ok_reference "after probe readmission" q_max
            (essence (Co.eval t q_max));
          checki "breaker closed" 0 (gauge t "shard0_breaker");
          checkb "probe counted" true (counter t "shard_probes" >= 1);
          checkb "close counted" true (counter t "shard_breaker_closes" >= 1)))

let test_injected_crash_retries () =
  with_fleet "inj-crash" ~shards:1 ~replicas:0 (fun _fleet t ->
      with_faults "shard=0:crash" (fun () ->
          (* the one-shot injected crash fails the first attempt; the
             retry must recover to the exact answer *)
          check_ok_reference "after injected crash" q_max
            (essence (Co.eval t q_max));
          checkb "retry counted" true (counter t "shard_retries" >= 1)))

let test_injected_drop_reconnects () =
  with_fleet "inj-drop" ~shards:1 ~replicas:0 (fun _fleet t ->
      check_ok_reference "warm" q_max (essence (Co.eval t q_max));
      with_faults "shard=0:drop" (fun () ->
          check_ok_reference "after connection drop" q_max
            (essence (Co.eval t q_max))))

let test_stochastic_rejected_typed () =
  with_fleet "stoch-reject" ~shards:1 ~replicas:0 (fun _fleet t ->
      (* the coordinator cannot scatter scenario matrices: stochastic
         queries must be refused with a typed rejection that points at
         the single-node surfaces, never a crash or a wrong answer *)
      let q =
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 2 SUCH THAT COUNT(P.*) \
         = 2 AND SUM(P.redshift) >= 0.5 WITH PROBABILITY 0.9 MAXIMIZE \
         EXPECTED SUM(P.redshift)"
      in
      (match essence (Co.eval t q) with
      | `Err ("rejected", msg) ->
        checkb "rejection names the alternative" true
          (contains msg "stochastic" && contains msg "pkgq_server")
      | `Err (c, m) ->
        Alcotest.failf "expected rejected, got %s: %s" c m
      | `Ok _ -> Alcotest.fail "coordinator answered a stochastic query"
      | `Bad m -> Alcotest.failf "bad result: %s" m);
      (* and the same coordinator keeps answering deterministic queries *)
      check_ok_reference "after rejection" q_max (essence (Co.eval t q_max)))

(* ------------------------------------------------------------------ *)
(* shard: degradation, hedging, stale replicas, the kill matrix       *)
(* ------------------------------------------------------------------ *)

let test_degraded_omitted () =
  with_fleet "omit" ~shards:2 ~replicas:0 (fun fleet t ->
      check_ok_reference "healthy" q_max (essence (Co.eval t q_max));
      (* no replica to fail over to: shard 1's groups must be omitted
         and the answer typed degraded, never silently partial *)
      Ch.kill_server (List.nth fleet 1).Ch.fm_primary;
      (match Co.eval t q_max with
      | Pr.Resp_err (Pr.Degraded, msg) ->
        checkb "names omitted groups" true (contains msg "omitted")
      | Pr.Resp_err (c, m) ->
        Alcotest.failf "expected degraded, got %s: %s" (Pr.code_name c) m
      | Pr.Resp_ok _ ->
        Alcotest.fail "half-dead fleet answered ok without degradation");
      checkb "omissions counted" true
        (counter t "shard_failovers" >= 1 || counter t "shard_retries" >= 0))

let test_hedging_deterministic () =
  with_fleet "hedge" ~shards:1 ~replicas:1 (fun fleet t ->
      (* healthy: the primary wins the race *)
      check_ok_reference "primary wins" q_max (essence (Co.eval t q_max));
      (* SIGSTOP the primary: connections open, nothing answers — the
         sketch times out to the replica and every refine hedge fires;
         the replica's cold solves must produce the identical bytes *)
      let primary = (List.nth fleet 0).Ch.fm_primary in
      Ch.pause primary;
      Fun.protect
        ~finally:(fun () -> Ch.resume primary)
        (fun () ->
          check_ok_reference "replica wins under SIGSTOP" q_max
            (essence (Co.eval t q_max)));
      checkb "hedges fired or failover took over" true
        (counter t "shard_hedges" >= 1 || counter t "shard_failovers" >= 1);
      (* back to life: the same bytes once more *)
      Thread.delay 0.05;
      check_ok_reference "after resume" q_max (essence (Co.eval t q_max)))

let test_stale_replica_degrades () =
  with_fleet "stale" ~shards:1 ~replicas:1 (fun fleet t ->
      with_faults "repl=lag:1" (fun () ->
          (* write through the coordinator: the shipper forwards the
             record to the replica but withholds the newest ack, so the
             lag gauge shows 1 while the data is actually identical *)
          let extra =
            Datagen.Workload.append_batch ~dataset:`Galaxy ~rows:3 ~seed:77
          in
          let c = Cl.connect ~host:"127.0.0.1" ~port:(Co.port t) () in
          Fun.protect
            ~finally:(fun () -> try Cl.close c with _ -> ())
            (fun () ->
              match Cl.append c ~csv:(Relalg.Csv.to_string extra) with
              | Pr.Resp_ok _ -> ()
              | Pr.Resp_err (_, m) -> Alcotest.failf "append refused: %s" m);
          (* wait for the shipper to forward the record *)
          let deadline = Unix.gettimeofday () +. 5. in
          while
            counter t "shard_shipped" < 1 && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.02
          done;
          checkb "record shipped" true (counter t "shard_shipped" >= 1);
          checki "lag gauge holds at one" 1 (gauge t "shard0_repl_lag");
          (* kill the primary: the replica serves, but its unacked tail
             means the answer is typed stale, not silently fresh *)
          Ch.kill_server (List.nth fleet 0).Ch.fm_primary;
          match Co.eval t q_max with
          | Pr.Resp_err (Pr.Degraded, msg) ->
            checkb "names stale groups" true (contains msg "stale")
          | Pr.Resp_err (code, m) ->
            Alcotest.failf "expected degraded, got %s: %s"
              (Pr.code_name code) m
          | Pr.Resp_ok _ ->
            Alcotest.fail "lagging replica must not answer as fresh"))

let test_injected_stall_hedges () =
  with_fleet "inj-stall" ~shards:1 ~replicas:1 (fun _fleet t ->
      check_ok_reference "warm" q_max (essence (Co.eval t q_max));
      with_faults "shard=0:stall:300" (fun () ->
          (* one exchange is held 300ms — far past the hedge delay; the
             answer must be byte-identical whichever side produced it *)
          check_ok_reference "under stall" q_max (essence (Co.eval t q_max))))

(* One matrix point: query [q] and require a sanctioned outcome — the
   exact reference package, or a typed degraded/failed/deadline answer
   ([fenced] too where a promotion window may be open) — within twice
   the query budget. Never a hang, never an unexplained wrong answer. *)
let matrix_point ?(fenced = false) t label q =
  let t0 = Unix.gettimeofday () in
  let e = essence (Co.eval t q) in
  let wall = Unix.gettimeofday () -. t0 in
  checkb (label ^ ": answers within 2x budget") true
    (wall <= 2. *. (coord_cfg ()).Co.request_seconds);
  match e with
  | `Ok _ ->
    checkb (label ^ ": package is the reference") true (e = reference q)
  | `Err (("degraded" | "failed" | "deadline"), _) -> ()
  | `Err ("fenced", _) when fenced -> ()
  | `Err (c, m) -> Alcotest.failf "%s: unsanctioned outcome %s: %s" label c m
  | `Bad m -> Alcotest.failf "%s: bad result: %s" label m

(* A bounded kill/stall matrix: one fault per two-shard fleet, then one
   four-shard fleet taking a cumulative sequence — injected crash, drop
   and stall; SIGSTOPs and SIGKILLs of primaries; shards going dark —
   with a query after every step. *)
let test_kill_stall_matrix () =
  let scenarios =
    [ `Kill_primary 0; `Kill_primary 1; `Pause_primary 0; `Pause_primary 1 ]
  in
  List.iteri
    (fun i scenario ->
      with_fleet
        (Printf.sprintf "matrix-%d" i)
        ~shards:2 ~replicas:1
        (fun fleet t ->
          check_ok_reference "healthy point" q_max (essence (Co.eval t q_max));
          let target k = (List.nth fleet k).Ch.fm_primary in
          let cleanup =
            match scenario with
            | `Kill_primary k ->
              Ch.kill_server (target k);
              fun () -> ()
            | `Pause_primary k ->
              Ch.pause (target k);
              fun () -> Ch.resume (target k)
          in
          Fun.protect ~finally:cleanup (fun () ->
              matrix_point t (Printf.sprintf "point %d" i) q_max)))
    scenarios;
  with_fleet "matrix-cumulative" ~shards:4 ~replicas:1 (fun fleet t ->
      let prim k = (List.nth fleet k).Ch.fm_primary in
      let repl k = Option.get (List.nth fleet k).Ch.fm_replica in
      let step = ref 0 in
      (* [wrap] sets the step's fault up around the query; kills stay *)
      let point label wrap =
        let q = List.nth queries (!step mod List.length queries) in
        incr step;
        wrap (fun () -> matrix_point ~fenced:true t label q)
      in
      let stopped s query =
        Ch.pause s;
        Fun.protect ~finally:(fun () -> Ch.resume s) query
      in
      let killed ss query =
        List.iter Ch.kill_server ss;
        query ()
      in
      point "healthy" (fun query -> query ());
      point "inject crash shard0" (with_faults "shard=0:crash");
      point "inject drop shard1" (with_faults "shard=1:drop");
      point "inject stall shard2" (with_faults "shard=2:stall:100");
      point "SIGSTOP primary3" (stopped (prim 3));
      point "SIGKILL primary0" (killed [ prim 0 ]);
      point "SIGKILL primary1" (killed [ prim 1 ]);
      point "SIGSTOP primary2" (stopped (prim 2));
      point "SIGKILL replica0 (shard0 dark)" (killed [ repl 0 ]);
      point "SIGKILL primary2 for good" (killed [ prim 2 ]);
      point "SIGKILL primary3+replica3 (shard3 dark)"
        (killed [ prim 3; repl 3 ]);
      point "aftermath" (fun query -> query ()))

(* ------------------------------------------------------------------ *)
(* fence: leases, epochs, self-demotion, the zombie                   *)
(* ------------------------------------------------------------------ *)

let with_server f =
  let cfg =
    {
      Srv.default_config with
      Srv.attrs;
      tau = Some tau;
      workers = 2;
      queue = 16;
      result_cache = 0;
      plan_cache = 0;
      log_every = 0.;
    }
  in
  let t = Srv.start cfg galaxy in
  Fun.protect ~finally:(fun () -> Srv.stop t) @@ fun () ->
  let c = Cl.connect ~host:"127.0.0.1" ~port:(Srv.port t) () in
  Fun.protect ~finally:(fun () -> try Cl.close c with _ -> ()) @@ fun () ->
  f t c

let batch seed = Datagen.Workload.append_batch ~dataset:`Galaxy ~rows:3 ~seed

let scount t k = Service.Metrics.get (Srv.metrics t) k

let expect_fenced what = function
  | Pr.Resp_err (Pr.Fenced, _) -> ()
  | Pr.Resp_err (cd, m) ->
    Alcotest.failf "%s: expected fenced, got %s: %s" what (Pr.code_name cd) m
  | Pr.Resp_ok _ -> Alcotest.failf "%s: acked instead of fenced" what

let expect_ok what = function
  | Pr.Resp_ok _ -> ()
  | Pr.Resp_err (_, m) -> Alcotest.failf "%s: refused: %s" what m

let test_lease_protocol () =
  with_server (fun t c ->
      checki "fresh server at epoch 0" 0 (Srv.current_epoch t);
      expect_ok "grant" (Cl.lease c ~epoch:5 ~ttl_ms:60_000);
      checki "epoch installed" 5 (Srv.current_epoch t);
      (* regressing grants are refused typed, and change nothing *)
      expect_fenced "stale grant" (Cl.lease c ~epoch:3 ~ttl_ms:60_000);
      checki "epoch unchanged" 5 (Srv.current_epoch t);
      (* stale-stamped writes are refused typed; fresh stamps ack *)
      expect_fenced "stale stamp"
        (Cl.append ~epoch:3 c ~csv:(Relalg.Csv.to_string (batch 11)));
      expect_ok "fresh stamp"
        (Cl.append ~epoch:5 c ~csv:(Relalg.Csv.to_string (batch 12)));
      checkb "fence rejections counted" true (scount t "fence_rejections" >= 2))

let test_lease_expiry_demotes () =
  with_server (fun t c ->
      expect_ok "short grant" (Cl.lease c ~epoch:1 ~ttl_ms:1);
      Thread.delay 0.05;
      (* the lease ran out: the server self-demoted read-only *)
      (match Cl.append c ~csv:(Relalg.Csv.to_string (batch 21)) with
      | Pr.Resp_err (Pr.Fenced, msg) ->
        checkb "refusal names the lease" true (contains msg "lease")
      | Pr.Resp_err (cd, m) ->
        Alcotest.failf "expected fenced, got %s: %s" (Pr.code_name cd) m
      | Pr.Resp_ok _ -> Alcotest.fail "expired lease still acks");
      checkb "demotion counted" true (scount t "demotions" >= 1);
      (* a fresh grant restores writability *)
      expect_ok "regrant" (Cl.lease c ~epoch:2 ~ttl_ms:60_000);
      expect_ok "append after regrant"
        (Cl.append c ~csv:(Relalg.Csv.to_string (batch 22))))

let test_fence_fault_directives () =
  with_server (fun _t c ->
      with_faults "fence=lease:expire" (fun () ->
          expect_fenced "under fence=lease:expire"
            (Cl.append c ~csv:(Relalg.Csv.to_string (batch 31))));
      with_faults "fence=epoch:stale" (fun () ->
          expect_fenced "under fence=epoch:stale"
            (Cl.append c ~csv:(Relalg.Csv.to_string (batch 32))));
      (* cleared: the same write acks *)
      expect_ok "after clearing faults"
        (Cl.append c ~csv:(Relalg.Csv.to_string (batch 33))))

let test_lease_regime_renewals () =
  let cfg = { (coord_cfg ()) with Co.lease_ms = Some 300 } in
  with_fleet "lease-renew" ~shards:1 ~replicas:1 ~cfg (fun _fleet t ->
      (* renewals ride the shipper thread at lease/3 *)
      let deadline = Unix.gettimeofday () +. 5. in
      while counter t "lease_renewals" < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      checkb "leases renewed" true (counter t "lease_renewals" >= 1);
      checkb "epoch gauge exported" true (gauge t "shard0_epoch" >= 1);
      checki "primary still active" 0 (gauge t "shard0_active");
      (* writes ack normally under the lease regime *)
      let c = Cl.connect ~host:"127.0.0.1" ~port:(Co.port t) () in
      Fun.protect ~finally:(fun () -> try Cl.close c with _ -> ()) @@ fun () ->
      expect_ok "append under lease regime"
        (Cl.append c ~csv:(Relalg.Csv.to_string (batch 41))))

(* Two rounds, at lease TTLs of 300 ms and 500 ms, so the invariants
   are checked at more than one lease length. *)
let test_zombie_split_brain () =
  List.iter
    (fun (lease_ms, seed0) ->
      let label what = Printf.sprintf "lease %d ms: %s" lease_ms what in
      let pre = [ batch seed0; batch (seed0 + 1) ] in
      let during = [ batch (seed0 + 2); batch (seed0 + 3) ] in
      let post = [ batch (seed0 + 4); batch (seed0 + 5) ] in
      let r =
        Ch.run_zombie ~exe:server_exe
          ~dir:(Filename.concat tmp_dir (Printf.sprintf "zombie-%d" lease_ms))
          ~base:galaxy ~pre ~during ~post ~lease_ms ~attrs ~tau ()
      in
      checki (label "no dual-primary acks") 0 r.Ch.z_dual_acks;
      checki (label "no acked-write loss") 0 r.Ch.z_lost_acks;
      checki
        (label "every zombie write answered the typed fence")
        (List.length post) r.Ch.z_zombie_fenced;
      checki (label "no untyped zombie refusals") 0 r.Ch.z_zombie_other;
      checkb (label "stale stamp fenced at the new primary") true
        r.Ch.z_stale_fenced;
      checkb (label "promotion happened") true (r.Ch.z_promotions >= 1);
      checkb (label "epoch advanced") true (r.Ch.z_epoch >= 2);
      checki (label "failover acks") (List.length during) r.Ch.z_failover_acks;
      checki (label "all phases acked")
        (List.length (pre @ during @ post))
        r.Ch.z_acked)
    [ (300, 51); (500, 61) ]

(* ------------------------------------------------------------------ *)
(* Front-end shell                                                    *)
(* ------------------------------------------------------------------ *)

(* A descriptor shortage must not kill the accept loop. Under
   [ulimit -n 24], a flood of 40 connections makes [accept] fail with
   EMFILE; once the flood hangs up, a new client must be answered. *)
let test_accept_survives_emfile () =
  let dir = Filename.concat tmp_dir "emfile" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let wrapper = Filename.concat dir "server-nofile-24.sh" in
  Out_channel.with_open_bin wrapper (fun oc ->
      Printf.fprintf oc "#!/bin/sh\nulimit -n 24\nexec %s \"$@\"\n"
        (Filename.quote server_exe));
  Unix.chmod wrapper 0o755;
  let data = Filename.concat dir "base.seg" in
  Store.Segment.write data galaxy;
  let srv =
    Ch.start_server ~exe:wrapper ~data ~wal:(Filename.concat dir "wal")
      ~out_file:(Filename.concat dir "out") ()
  in
  Fun.protect ~finally:(fun () -> Ch.stop_server srv) @@ fun () ->
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, srv.Ch.port) in
  let flood =
    List.init 40 (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        fd)
  in
  (* give the server time to accept until it runs out of descriptors *)
  Thread.delay 0.3;
  List.iter Unix.close flood;
  let c =
    Cl.connect ~connect_timeout:2. ~timeout:2. ~host:"127.0.0.1"
      ~port:srv.Ch.port ()
  in
  Fun.protect ~finally:(fun () -> try Cl.close c with _ -> ()) @@ fun () ->
  (match Cl.ping c with
  | Pr.Resp_ok body -> Alcotest.(check string) "answered after the flood" "pong" body
  | Pr.Resp_err (_, msg) -> Alcotest.fail msg
  | exception Cl.Timed_out _ ->
    Alcotest.fail "PING timed out: the accept loop is gone");
  match Cl.stats c with
  | Pr.Resp_ok body ->
    let net_errors =
      String.split_on_char '\n' body
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "net_errors %d" Fun.id)
    in
    checkb "the flood did hit failed accepts" true
      (match net_errors with Some n -> n >= 1 | None -> false)
  | Pr.Resp_err (_, msg) -> Alcotest.fail msg

(* One query path: [paql_cli] evaluating locally and [paql_cli
   --connect] against a [pkgq_server] started with the same [--method]
   must write byte-identical packages and exit alike, errors included.
   A query with no numeric attribute to partition on is a typed
   analysis error (exit 5) on both sides for every partitioning
   method, and a degraded report is the typed [degraded] error (exit
   8, no package). *)
let cli_exe =
  Filename.concat (Filename.dirname server_exe) "paql_cli.exe"

let run_cli args =
  let out = Filename.concat tmp_dir "cli.out" in
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () ->
        Unix.create_process cli_exe (Array.of_list (cli_exe :: args))
          Unix.stdin fd null)
  in
  let code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
  in
  (code, In_channel.with_open_bin out In_channel.input_all)

let test_cli_local_equals_remote () =
  let dir = Filename.concat tmp_dir "cli" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let rel = Datagen.Galaxy.generate ~seed:1 2000 in
  let data = Filename.concat dir "galaxy.csv" in
  Relalg.Csv.write data rel;
  let q body =
    "SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 SUCH THAT " ^ body
  in
  (* method, Q1's objective, exit code of the no-numeric query *)
  let methods =
    [ ("direct", "193.18", 0); ("sketchrefine", "179.859", 5);
      ("parallel", "178", 5); ("progressive", "128.515", 5);
      ("stochastic", "193.18", 0) ]
  in
  let q1 = (List.hd (Datagen.Workload.galaxy_queries rel)).paql in
  (* one server per method (and fault set), each query run locally and
     through it *)
  let against ?(faults = []) m queries check_q1 =
    let flags = if faults = [] then [] else "--faults" :: faults in
    let srv =
      Ch.start_server ~exe:server_exe ~data
        ~wal:(Filename.concat dir ("wal-" ^ m ^ String.concat "" faults))
        ~extra_args:([ "--method"; m ] @ flags)
        ~out_file:(Filename.concat dir (m ^ ".out")) ()
    in
    Fun.protect ~finally:(fun () -> Ch.stop_server srv) @@ fun () ->
    List.iter
      (fun (name, query, expect) ->
        let what = m ^ ", " ^ name in
        let csv side = Filename.concat dir (side ^ ".csv") in
        List.iter
          (fun side -> try Sys.remove (csv side) with Sys_error _ -> ())
          [ "local"; "remote" ];
        let local, out =
          run_cli
            ([ "--no-store"; "--data"; data; "--query"; query; "-m"; m; "-o";
               csv "local" ]
            @ flags)
        in
        let remote, _ =
          run_cli
            [ "--connect"; Printf.sprintf "127.0.0.1:%d" srv.Ch.port;
              "--query"; query; "-o"; csv "remote" ]
        in
        checki (what ^ ": local exit") expect local;
        checki (what ^ ": --connect exit") local remote;
        if name = "Q1" then check_q1 what out;
        if local = 0 then
          Alcotest.(check string)
            (what ^ ": package bytes")
            (In_channel.with_open_bin (csv "local") In_channel.input_all)
            (In_channel.with_open_bin (csv "remote") In_channel.input_all)
        else
          checkb (what ^ ": no package written") false
            (Sys.file_exists (csv "local") || Sys.file_exists (csv "remote")))
      queries
  in
  List.iter
    (fun (m, obj, no_numeric) ->
      against m
        [ ("Q1", q1, 0);
          ("parse error", "SELECT PACKAGE(", 4);
          ("infeasible", q "COUNT(P.*) = 2001 MAXIMIZE SUM(P.r)", 1);
          ("no numeric attribute", q "COUNT(P.*) = 3", no_numeric) ]
        (fun what out ->
          checkb (what ^ ": obj=" ^ obj) true
            (String.starts_with ~prefix:("optimal, obj=" ^ obj ^ ",") out)))
    methods;
  (* a degraded run (the progressive descent's level 1 fails once and is
     solved widened) is no answer on either side: exit 8, no package *)
  against ~faults:[ "partition=level:1" ] "progressive" [ ("Q1", q1, 8) ]
    (fun what out ->
      checkb (what ^ ": degraded") true
        (String.starts_with ~prefix:"degraded: " out))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "smoke",
        [
          Alcotest.test_case "scatter/gather equals single-node" `Quick
            test_equivalence;
          Alcotest.test_case "progressive scatter/gather equals single-node"
            `Quick test_progressive_equivalence;
          Alcotest.test_case "fleet climbs the fallback ladder" `Quick
            test_fleet_ladder;
          Alcotest.test_case "failover to replica is byte-identical" `Quick
            test_failover_equivalence;
          Alcotest.test_case "breaker trips, probes, closes" `Quick
            test_breaker_trip_probe_close;
          Alcotest.test_case "injected crash is retried" `Quick
            test_injected_crash_retries;
          Alcotest.test_case "injected drop reconnects" `Quick
            test_injected_drop_reconnects;
          Alcotest.test_case "stochastic queries rejected typed" `Quick
            test_stochastic_rejected_typed;
        ] );
      ( "shard",
        [
          Alcotest.test_case "dead groups degrade typed" `Quick
            test_degraded_omitted;
          Alcotest.test_case "hedged refines are deterministic" `Quick
            test_hedging_deterministic;
          Alcotest.test_case "stale replica answers degraded" `Quick
            test_stale_replica_degrades;
          Alcotest.test_case "injected stall rides the hedge" `Quick
            test_injected_stall_hedges;
          Alcotest.test_case "kill/stall matrix" `Quick test_kill_stall_matrix;
        ] );
      ( "fence",
        [
          Alcotest.test_case "lease protocol installs and fences epochs"
            `Quick test_lease_protocol;
          Alcotest.test_case "expired lease self-demotes read-only" `Quick
            test_lease_expiry_demotes;
          Alcotest.test_case "fence fault directives fire typed" `Quick
            test_fence_fault_directives;
          Alcotest.test_case "lease regime renews and stays writable" `Quick
            test_lease_regime_renewals;
          Alcotest.test_case "zombie primary cannot split the brain" `Quick
            test_zombie_split_brain;
        ] );
      ( "front",
        [
          Alcotest.test_case "accept loop survives EMFILE" `Quick
            test_accept_survives_emfile;
          Alcotest.test_case "paql_cli local equals --connect per method"
            `Quick test_cli_local_equals_remote;
        ] );
    ]
