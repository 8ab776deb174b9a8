(* Stochastic package queries: the WITH PROBABILITY / EXPECTED grammar
   layer, the Monte-Carlo scenario generator (round-trips, per-index
   determinism), the SummarySearch driver (validated probability,
   typed unsatisfiable-p outcome, run-to-run determinism, agreement
   with DIRECT on deterministic queries, the naive scenario-expanded
   baseline), and the server surface (auto-routing, STATS gauges, the
   result cache).

   The "smoke" group is the bounded (<10s) proof and runs under the
   @stoch-smoke alias; the "stoch" group adds the slower scenarios. *)

module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation
module E = Pkg.Eval
module Sc = Datagen.Scenario
module St = Pkg.Stochastic
module T = Paql.Translate
module W = Datagen.Workload
module Srv = Service.Server
module Cl = Service.Client
module Pr = Service.Protocol

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let galaxy = Datagen.Galaxy.generate ~seed:3 300

let compile rel q =
  T.compile_exn (R.schema rel) (Paql.Parser.parse_exn q)

let package_rows p = List.sort compare (Pkg.Package.entries p)

(* fast, deterministic solver options: small scenario sets, a bounded
   wall budget *)
let opts ?(scenarios = 24) ?(validation = 100) ?(summaries = 2) ?(seed = 42)
    ?noise () =
  {
    St.default_options with
    St.scenarios;
    validation;
    summaries;
    max_summaries = 16;
    seed;
    noise;
    max_seconds = 20.;
  }

let q_feasible =
  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 3 SUCH THAT COUNT(P.*) = 3 \
   AND SUM(P.u) >= 45 WITH PROBABILITY 0.9 MAXIMIZE SUM(P.r)"

let q_expected =
  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 3 SUCH THAT COUNT(P.*) = 3 \
   AND SUM(P.u) >= 45 WITH PROBABILITY 0.9 MAXIMIZE EXPECTED SUM(P.r)"

let q_unsat =
  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 3 SUCH THAT COUNT(P.*) = 3 \
   AND SUM(P.u) >= 1000 WITH PROBABILITY 0.95 MAXIMIZE SUM(P.r)"

let q_deterministic =
  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 4 \
   AND SUM(P.redshift) <= 1.5 MAXIMIZE SUM(P.petro_rad)"

(* ------------------------------------------------------------------ *)
(* Grammar / translate layer                                          *)
(* ------------------------------------------------------------------ *)

let test_grammar_compiles () =
  let spec = compile galaxy q_feasible in
  checkb "is_stochastic" true (T.is_stochastic spec);
  checki "one stochastic constraint" 1 (List.length spec.T.stochastic);
  let c = List.hd spec.T.stochastic in
  checkb "probability carried" true (c.T.sprob = 0.9);
  checkb "lower bound carried" true (c.T.slo = 45.);
  checkb "upper side open" true (c.T.shi = infinity);
  checks "attr recorded" "u" (String.concat "," c.T.sattrs);
  (* the deterministic constraint set is untouched: COUNT only *)
  checki "count constraint stays deterministic" 1
    (List.length spec.T.constraints);
  checkb "plain objective" true (not spec.T.expected_objective);
  let spec2 = compile galaxy q_expected in
  checkb "EXPECTED objective flagged" true spec2.T.expected_objective;
  let det = compile galaxy q_deterministic in
  checkb "deterministic query is not stochastic" false (T.is_stochastic det)

let test_grammar_pretty_roundtrip () =
  List.iter
    (fun q ->
      let ast = Paql.Parser.parse_exn q in
      let printed = Paql.Pretty.to_string ast in
      let ast' = Paql.Parser.parse_exn printed in
      checks
        ("pretty round-trip: " ^ q)
        (Paql.Pretty.to_string ast)
        (Paql.Pretty.to_string ast');
      checks "fingerprint stable under pretty"
        (Paql.Fingerprint.of_query q)
        (Paql.Fingerprint.of_query printed))
    [ q_feasible; q_expected; q_unsat ]

let test_grammar_analyze_rejects () =
  let errors q =
    match Paql.Analyze.check (R.schema galaxy) (Paql.Parser.parse_exn q) with
    | Ok () -> []
    | Error errs -> errs
  in
  let rejects q = errors q <> [] in
  checkb "p > 1 rejected" true
    (rejects
       "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 3 AND \
        SUM(P.u) >= 45 WITH PROBABILITY 1.5 MAXIMIZE SUM(P.r)");
  checkb "p = 0 rejected" true
    (rejects
       "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 3 AND \
        SUM(P.u) >= 45 WITH PROBABILITY 0 MAXIMIZE SUM(P.r)");
  checkb "equality with probability rejected" true
    (rejects
       "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 3 AND \
        SUM(P.u) = 45 WITH PROBABILITY 0.9 MAXIMIZE SUM(P.r)");
  checkb "valid stochastic query accepted" false (rejects q_feasible);
  checkb "p = 1 accepted" false
    (rejects
       "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 3 AND \
        SUM(P.u) >= 45 WITH PROBABILITY 1 MAXIMIZE SUM(P.r)")

(* ------------------------------------------------------------------ *)
(* Scenario generator                                                 *)
(* ------------------------------------------------------------------ *)

let test_scenario_parse_render () =
  (match Sc.parse_specs "u:0.3,r:0.1@0.8" with
  | Error e -> Alcotest.fail e
  | Ok specs ->
    checki "two specs" 2 (List.length specs);
    let u = List.hd specs and r = List.nth specs 1 in
    checks "first attr" "u" u.Sc.attr;
    checkb "default corr" true (u.Sc.corr = Sc.default_corr);
    checkb "explicit corr" true (r.Sc.corr = 0.8);
    checks "render round-trip" "u:0.3,r:0.1@0.8" (Sc.render_specs specs));
  let bad s =
    match Sc.parse_specs s with Ok _ -> false | Error _ -> true
  in
  checkb "empty rejected" true (bad "");
  checkb "missing sigma rejected" true (bad "u");
  checkb "negative sigma rejected" true (bad "u:-1");
  checkb "corr > 1 rejected" true (bad "u:0.3@1.5");
  checkb "duplicate attr rejected" true (bad "u:0.3,u:0.2")

let scenario_spec_arb =
  (* valid spec lists over distinct galaxy float attrs *)
  let attr_pool = [ "u"; "g"; "r"; "i"; "z"; "redshift" ] in
  QCheck.make
    ~print:(fun specs -> Sc.render_specs specs)
    QCheck.Gen.(
      let* n = int_range 1 (List.length attr_pool) in
      let* sigmas = list_size (return n) (float_bound_exclusive 2.0) in
      let* corrs = list_size (return n) (float_bound_inclusive 1.0) in
      return
        (List.mapi
           (fun i (sigma, corr) ->
             {
               Sc.attr = List.nth attr_pool i;
               sigma = Float.abs sigma;
               corr;
             })
           (List.combine sigmas corrs)))

let scenario_roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"scenario spec render/parse round-trip"
    scenario_spec_arb (fun specs ->
      (* rendering truncates to %g precision, so the property is
         idempotence after one normalization pass: parse(render(-))
         is the identity on anything that already went through it *)
      match Sc.parse_specs (Sc.render_specs specs) with
      | Error _ -> false
      | Ok normal -> (
        match Sc.parse_specs (Sc.render_specs normal) with
        | Error _ -> false
        | Ok normal' -> normal = normal'))

let test_scenario_determinism () =
  let specs =
    match Sc.parse_specs "u:0.3,r:0.1@0.8" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let small = Sc.generate_exn ~seed:7 ~scenarios:4 specs galaxy in
  let large = Sc.generate_exn ~seed:7 ~scenarios:16 specs galaxy in
  List.iter
    (fun attr ->
      let ds = Option.get (Sc.deltas small attr) in
      let dl = Option.get (Sc.deltas large attr) in
      for s = 0 to 3 do
        checkb
          (Printf.sprintf "%s scenario %d bitwise identical" attr s)
          true
          (ds.(s) = dl.(s))
      done)
    [ "u"; "r" ];
  (* a different seed moves every matrix *)
  let other = Sc.generate_exn ~seed:8 ~scenarios:4 specs galaxy in
  checkb "seed changes the stream" false
    (Option.get (Sc.deltas small "u")
    = Option.get (Sc.deltas other "u"))

let test_scenario_realize () =
  let specs =
    match Sc.parse_specs "u:0.5" with Ok s -> s | Error e -> Alcotest.fail e
  in
  let t = Sc.generate_exn ~seed:7 ~scenarios:2 specs galaxy in
  let real = Sc.realize t 0 in
  checkb "schema preserved" true (S.equal (R.schema real) (R.schema galaxy));
  checki "cardinality preserved" (R.cardinality galaxy) (R.cardinality real);
  let col rel a = R.column rel a in
  checkb "noisy column perturbed" false (col real "u" = col galaxy "u");
  checkb "other columns untouched" true (col real "r" = col galaxy "r");
  (* non-float noise attrs are a typed error, not a crash *)
  checkb "int column rejected" true
    (match Sc.generate ~seed:1 ~scenarios:2 [ { Sc.attr = "objid"; sigma = 1.; corr = 0.5 } ] galaxy with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* SummarySearch driver                                               *)
(* ------------------------------------------------------------------ *)

let test_summary_meets_probability () =
  let spec = compile galaxy q_feasible in
  let report, stats = St.run ~options:(opts ()) spec galaxy in
  checkb "solved" true
    (match report.E.status with
    | E.Optimal | E.Feasible _ -> true
    | _ -> false);
  let pkg = Option.get report.E.package in
  checki "package count" 3
    (List.fold_left (fun a (_, c) -> a + c) 0 (Pkg.Package.entries pkg));
  checkb "validated out of sample >= p" true (stats.St.st_validated >= 0.9);
  checkb "scenario stats populated" true
    (stats.St.st_scenarios = 24 && stats.St.st_validation = 100);
  checkb "at least one round" true (stats.St.st_rounds >= 1)

let test_expected_objective_solves () =
  let spec = compile galaxy q_expected in
  let report, stats = St.run ~options:(opts ()) spec galaxy in
  checkb "solved with EXPECTED objective" true
    (match report.E.status with
    | E.Optimal | E.Feasible _ -> true
    | _ -> false);
  checkb "validated >= p" true (stats.St.st_validated >= 0.9)

let test_unsatisfiable_p_is_typed () =
  let spec = compile galaxy q_unsat in
  let t0 = Unix.gettimeofday () in
  let report, _ = St.run ~options:(opts ()) spec galaxy in
  let dt = Unix.gettimeofday () -. t0 in
  checkb "typed infeasible (never a hang)" true
    (match report.E.status with
    | E.Infeasible | E.Failed _ -> true
    | _ -> false);
  checkb "well within deadline" true (dt < 20.)

let test_deterministic_query_delegates () =
  let spec = compile galaxy q_deterministic in
  let direct = Pkg.Direct.run spec galaxy in
  let report, stats = St.run ~options:(opts ()) spec galaxy in
  checkb "same status" true (direct.E.status = report.E.status);
  checkb "same package" true
    (match (direct.E.package, report.E.package) with
    | Some a, Some b -> package_rows a = package_rows b
    | _ -> false);
  checki "no scenarios drawn" 0 stats.St.st_scenarios

let test_naive_baseline_agrees () =
  let spec = compile galaxy q_feasible in
  let options = opts ~scenarios:12 ~validation:100 () in
  let naive, nstats = St.run_naive ~options spec galaxy in
  checkb "naive solved" true
    (match naive.E.status with
    | E.Optimal | E.Feasible _ -> true
    | _ -> false);
  checkb "naive validated >= p (generous bound)" true
    (nstats.St.st_validated >= 0.9);
  let summary, sstats = St.run ~options spec galaxy in
  checkb "summary solved too" true
    (match summary.E.status with
    | E.Optimal | E.Feasible _ -> true
    | _ -> false);
  (* the summary answer is conservative: never better than the exact
     scenario-expanded optimum (maximization, small tolerance) *)
  (match (naive.E.objective, summary.E.objective) with
  | Some n, Some s -> checkb "summary is conservative" true (s <= n +. 1e-6)
  | _ -> Alcotest.fail "missing objective");
  checkb "summary stats populated" true (sstats.St.st_summaries >= 1)

let test_naive_needs_finite_repeat () =
  let q =
    "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = 3 AND \
     SUM(P.u) >= 45 WITH PROBABILITY 0.9 MAXIMIZE SUM(P.r)"
  in
  let spec = compile galaxy q in
  let report, _ = St.run_naive ~options:(opts ()) spec galaxy in
  checkb "typed data error without REPEAT" true
    (match report.E.status with
    | E.Failed { E.kind = E.Data_error _; _ } -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Determinism across runs                                            *)
(* ------------------------------------------------------------------ *)

(* Scenario generation and the SummarySearch loop run twice give the
   same scenario matrix, package and bits. *)
let test_determinism_across_runs () =
  let spec = compile galaxy q_feasible in
  let specs =
    match Sc.parse_specs "u:0.4" with Ok s -> s | Error e -> Alcotest.fail e
  in
  let run () =
    let matrix =
      Option.get
        (Sc.deltas (Sc.generate_exn ~seed:42 ~scenarios:8 specs galaxy) "u")
    in
    let report, stats = St.run ~options:(opts ()) spec galaxy in
    match (report.E.package, report.E.objective) with
    | Some p, Some obj ->
      (matrix, package_rows p, Int64.bits_of_float obj,
       Int64.bits_of_float stats.St.st_validated)
    | _ -> Alcotest.fail "no package"
  in
  checkb "second run bitwise identical" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Workload round-trip                                                *)
(* ------------------------------------------------------------------ *)

let test_workload_stochastic_roundtrip () =
  let defs =
    W.mixed ~seed:11 ~repeat_rate:0.3 ~stochastic_rate:0.6 ~dataset:`Galaxy
      ~n:20 galaxy
  in
  let stochastic =
    List.filter
      (fun (d : W.def) -> T.is_stochastic (compile galaxy d.W.paql))
      defs
  in
  checkb "stream contains stochastic queries" true (stochastic <> []);
  checkb "stream still contains deterministic queries" true
    (List.length stochastic < List.length defs);
  (* every entry parses, analyzes, and survives the file format *)
  let parsed = W.parse_workload (W.render_workload defs) in
  checki "render/parse preserves count" (List.length defs)
    (List.length parsed);
  List.iter2
    (fun (d : W.def) (name, paql) ->
      checks "name preserved" d.W.name name;
      checks "text preserved" d.W.paql paql;
      match Paql.Analyze.check (R.schema galaxy) (Paql.Parser.parse_exn paql) with
      | Ok () -> ()
      | Error errs -> Alcotest.failf "%s: %s" name (String.concat "; " errs))
    defs parsed;
  (* rate 0 reproduces the historical stream byte-for-byte *)
  let plain = W.mixed ~seed:11 ~repeat_rate:0.3 ~dataset:`Galaxy ~n:20 galaxy in
  let plain' =
    W.mixed ~seed:11 ~repeat_rate:0.3 ~stochastic_rate:0. ~dataset:`Galaxy
      ~n:20 galaxy
  in
  checkb "rate 0 is the historical stream" true
    (W.render_workload plain = W.render_workload plain')

let workload_stochastic_prop =
  QCheck.Test.make ~count:20
    ~name:"stochastic workload entries always parse and analyze"
    QCheck.(pair (int_range 1 1000) (int_range 1 15))
    (fun (seed, n) ->
      let defs =
        W.mixed ~seed ~repeat_rate:0.4 ~stochastic_rate:0.5 ~dataset:`Galaxy
          ~n galaxy
      in
      let rendered = W.render_workload defs in
      let parsed = W.parse_workload rendered in
      List.length parsed = List.length defs
      && List.for_all
           (fun (_, paql) ->
             match Paql.Parser.parse paql with
             | Error _ -> false
             | Ok ast -> (
               match Paql.Analyze.check (R.schema galaxy) ast with
               | Ok () -> true
               | Error _ -> false))
           parsed)

(* ------------------------------------------------------------------ *)
(* Server surface: auto-routing, gauges, result cache                  *)
(* ------------------------------------------------------------------ *)

let base_cfg () =
  {
    Srv.default_config with
    Srv.workers = 2;
    queue = 16;
    result_cache = 64;
    plan_cache = 16;
    request_seconds = 30.;
    log_every = 0.;
  }

let with_server cfg rel f =
  let t = Srv.start cfg rel in
  Fun.protect ~finally:(fun () -> Srv.stop t) (fun () -> f t)

let with_client t f =
  let c = Cl.connect ~host:"127.0.0.1" ~port:(Srv.port t) () in
  Fun.protect ~finally:(fun () -> Cl.close c) (fun () -> f c)

let test_server_routes_and_caches () =
  (* default method is DIRECT: the stochastic query must auto-route,
     with the scenario counts of the server's config *)
  let cfg =
    { (base_cfg ()) with
      Srv.stochastic =
        { St.default_options with St.scenarios = 16; validation = 80 } }
  in
  with_server cfg galaxy (fun t ->
      with_client t (fun c ->
          (match Cl.query c q_feasible with
          | Pr.Resp_ok _ -> ()
          | Pr.Resp_err (code, msg) ->
            Alcotest.failf "stochastic query failed: %s %s"
              (Pr.code_name code) msg);
          checki "one solve" 1 (Srv.solve_count t);
          let m = Srv.metrics t in
          checki "scenario gauge" 16
            (Service.Metrics.get_gauge m "stoch_scenarios");
          checki "validation gauge" 80
            (Service.Metrics.get_gauge m "stoch_validation");
          checkb "rounds gauge set" true
            (Service.Metrics.get_gauge m "stoch_rounds" >= 1);
          checkb "validated gauge sane" true
            (let pm = Service.Metrics.get_gauge m "stoch_validated_pm" in
             pm >= 900 && pm <= 1000);
          (* a repeat is served from the result cache *)
          ignore (Cl.query c q_feasible);
          checki "cache hit (no second solve)" 1 (Srv.solve_count t);
          ignore (Cl.query c q_deterministic);
          ignore (Cl.query c q_deterministic);
          checki "deterministic query cached" 2 (Srv.solve_count t)))

let test_server_stochastic_method () =
  (* --method stochastic also accepts deterministic queries *)
  let cfg = { (base_cfg ()) with Srv.method_ = Service.Engine.Stochastic } in
  with_server cfg galaxy (fun t ->
      with_client t (fun c ->
          match Cl.query c q_deterministic with
          | Pr.Resp_ok _ -> ()
          | Pr.Resp_err (code, msg) ->
            Alcotest.failf "deterministic under stochastic method: %s %s"
              (Pr.code_name code) msg))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stochastic"
    [
      ( "smoke",
        [
          Alcotest.test_case "grammar compiles" `Quick test_grammar_compiles;
          Alcotest.test_case "pretty round-trip" `Quick
            test_grammar_pretty_roundtrip;
          Alcotest.test_case "analyze rejects bad probabilities" `Quick
            test_grammar_analyze_rejects;
          Alcotest.test_case "scenario parse/render" `Quick
            test_scenario_parse_render;
          Alcotest.test_case "scenario per-index determinism" `Quick
            test_scenario_determinism;
          Alcotest.test_case "scenario realize" `Quick test_scenario_realize;
          Alcotest.test_case "summary meets probability" `Quick
            test_summary_meets_probability;
          Alcotest.test_case "unsatisfiable p is typed" `Quick
            test_unsatisfiable_p_is_typed;
          Alcotest.test_case "deterministic query delegates" `Quick
            test_deterministic_query_delegates;
        ] );
      ( "stoch",
        [
          Alcotest.test_case "EXPECTED objective solves" `Quick
            test_expected_objective_solves;
          Alcotest.test_case "naive baseline agrees" `Quick
            test_naive_baseline_agrees;
          Alcotest.test_case "naive needs finite REPEAT" `Quick
            test_naive_needs_finite_repeat;
          Alcotest.test_case "deterministic across runs" `Quick
            test_determinism_across_runs;
          Alcotest.test_case "workload stochastic round-trip" `Quick
            test_workload_stochastic_roundtrip;
          Alcotest.test_case "server routes, gauges, cache" `Quick
            test_server_routes_and_caches;
          Alcotest.test_case "server stochastic method" `Quick
            test_server_stochastic_method;
          QCheck_alcotest.to_alcotest scenario_roundtrip_prop;
          QCheck_alcotest.to_alcotest workload_stochastic_prop;
        ] );
    ]
