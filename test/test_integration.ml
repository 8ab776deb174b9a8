(* End-to-end integration tests: PaQL text in, packages out, across the
   whole stack (parser -> analyzer -> translation -> solver -> package
   validation), plus CSV persistence and the full SketchRefine
   pipeline on the synthetic datasets. *)

module V = Relalg.Value
module R = Relalg.Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-6)

let compile rel q =
  Paql.Translate.compile_exn (R.schema rel) (Paql.Parser.parse_exn q)

(* The paper's running example, end to end, checked against the known
   optimum for a hand-built table. *)
let test_meal_planner_end_to_end () =
  let schema =
    Relalg.Schema.make
      [
        { Relalg.Schema.name = "gluten"; ty = V.TStr };
        { Relalg.Schema.name = "kcal"; ty = V.TFloat };
        { Relalg.Schema.name = "saturated_fat"; ty = V.TFloat };
      ]
  in
  let rel =
    R.of_rows schema
      [
        [| V.Str "free"; V.Float 0.7; V.Float 1.8 |];
        [| V.Str "full"; V.Float 0.6; V.Float 0.1 |];
        [| V.Str "free"; V.Float 0.9; V.Float 1.5 |];
        [| V.Str "free"; V.Float 0.4; V.Float 0.3 |];
        [| V.Str "free"; V.Float 1.2; V.Float 9.0 |];
        [| V.Str "free"; V.Float 0.3; V.Float 0.2 |];
      ]
  in
  let q =
    {|SELECT PACKAGE(R) AS P
      FROM Recipes R REPEAT 0
      WHERE R.gluten = 'free'
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
      MINIMIZE SUM(P.saturated_fat)|}
  in
  let spec = compile rel q in
  let r = Pkg.Direct.run spec rel in
  let p = Option.get r.Pkg.Eval.package in
  (* feasible triples (gluten-free, kcal in [2, 2.5]):
     {0,2,3} kcal 2.0 fat 3.6 | {0,2,5} kcal 1.9 no | {0,4,5} 2.2 fat 11 |
     {2,4,5} 2.4 fat 10.7 | {0,2,3} ... optimum is {0,2,3} with 3.6 *)
  checkf "optimal fat" 3.6 (Option.get r.Pkg.Eval.objective);
  Alcotest.(check (list (pair int int))) "chosen meals" [ (0, 1); (2, 1); (3, 1) ]
    (Pkg.Package.entries p)

(* Example 1 variant exercising every PaQL feature at once. *)
let test_full_feature_query () =
  let rng = Datagen.Prng.create 31 in
  let schema =
    Relalg.Schema.make
      [
        { Relalg.Schema.name = "kcal"; ty = V.TFloat };
        { Relalg.Schema.name = "protein"; ty = V.TFloat };
        { Relalg.Schema.name = "carbs"; ty = V.TFloat };
      ]
  in
  let rel =
    R.of_rows schema
      (List.init 400 (fun _ ->
           [|
             V.Float (Datagen.Prng.uniform rng 0.2 1.2);
             V.Float (Datagen.Prng.uniform rng 0. 40.);
             V.Float (Datagen.Prng.uniform rng 0. 80.);
           |]))
  in
  let q =
    {|SELECT PACKAGE(R) AS P FROM Meals R REPEAT 1
      WHERE R.kcal <= 1.0
      SUCH THAT COUNT(P.*) = 6 AND
                SUM(P.kcal) BETWEEN 3.0 AND 4.5 AND
                AVG(P.carbs) <= 45 AND
                (SELECT COUNT(*) FROM P WHERE protein > 20) >=
                (SELECT COUNT(*) FROM P WHERE protein <= 20)
      MINIMIZE SUM(P.carbs)|}
  in
  let spec = compile rel q in
  let d = Pkg.Direct.run spec rel in
  let p = Option.get d.Pkg.Eval.package in
  checkb "feasible" true (Pkg.Package.feasible spec p);
  checki "cardinality six" 6 (Pkg.Package.cardinality p);
  (* validate the conditional-count constraint on the materialized
     package with independent aggregate machinery *)
  let m = Pkg.Package.materialize p in
  let hi =
    match
      Relalg.Aggregate.over
        ~where:(Relalg.Expr.Cmp (Relalg.Expr.Gt, Relalg.Expr.Attr "protein",
                                 Relalg.Expr.Const (V.Float 20.)))
        m Relalg.Aggregate.Count_star
    with
    | V.Int i -> i
    | _ -> -1
  in
  checkb "conditional count holds" true (hi >= 6 - hi)

(* CSV persistence: write the dataset out, read it back, get the same
   package. *)
let test_csv_query_roundtrip () =
  let rel = Datagen.Galaxy.generate ~seed:21 300 in
  let q =
    "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 4 \
     AND SUM(P.redshift) <= 1.0 MAXIMIZE SUM(P.petro_rad)"
  in
  let spec = compile rel q in
  let r1 = Pkg.Direct.run spec rel in
  let path = Filename.temp_file "pkgq" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Relalg.Csv.write path rel;
      let rel2 = Relalg.Csv.read path in
      let spec2 = compile rel2 q in
      let r2 = Pkg.Direct.run spec2 rel2 in
      checkf "same objective after csv round-trip"
        (Option.get r1.Pkg.Eval.objective)
        (Option.get r2.Pkg.Eval.objective))

(* Full pipeline on both synthetic datasets: Direct vs SketchRefine on
   one workload query each, checking feasibility and ratio sanity. *)
let run_pipeline ~dataset rel (d : Datagen.Workload.def) =
  let qrel = Datagen.Workload.query_relation ~dataset rel d in
  let spec = Datagen.Workload.compile qrel d in
  let limits = { Ilp.Branch_bound.default_limits with max_nodes = 30_000; max_seconds = 15. } in
  let direct = Pkg.Direct.run ~limits spec qrel in
  let tau = max 1 (R.cardinality qrel / 10) in
  let part = Pkg.Partition.create ~tau ~attrs:d.attrs qrel in
  let sr =
    Pkg.Sketch_refine.run
      ~options:{ Pkg.Sketch_refine.default_options with limits }
      spec qrel part
  in
  (match sr.Pkg.Eval.package with
  | Some p -> checkb (d.name ^ " sr feasible") true (Pkg.Package.feasible spec p)
  | None -> Alcotest.fail (d.name ^ ": SketchRefine produced no package"));
  match direct.Pkg.Eval.objective, sr.Pkg.Eval.objective with
  | Some od, Some os ->
    let ratio = if d.maximize then od /. os else os /. od in
    checkb (d.name ^ " ratio >= ~1") true (ratio > 0.99)
  | _ -> ()

let test_galaxy_pipeline () =
  let rel = Datagen.Galaxy.generate ~seed:1 3000 in
  let qs = Datagen.Workload.galaxy_queries rel in
  run_pipeline ~dataset:`Galaxy rel (List.nth qs 0);
  run_pipeline ~dataset:`Galaxy rel (List.nth qs 4)

let test_tpch_pipeline () =
  let rel = Datagen.Tpch.generate ~seed:2 4000 in
  let qs = Datagen.Workload.tpch_queries rel in
  run_pipeline ~dataset:`Tpch rel (List.nth qs 0);
  run_pipeline ~dataset:`Tpch rel (List.nth qs 4)

(* The Theorem 3 radius machinery end to end: an epsilon-radius
   partitioning yields a near-perfect ratio on a minimization query
   that is noticeably approximate without it. *)
let test_radius_improves_minimization () =
  let rng = Datagen.Prng.create 77 in
  let schema =
    Relalg.Schema.make
      [
        { Relalg.Schema.name = "cost"; ty = V.TFloat };
        { Relalg.Schema.name = "weight"; ty = V.TFloat };
      ]
  in
  let rel =
    R.of_rows schema
      (List.init 400 (fun _ ->
           [|
             V.Float (Datagen.Prng.uniform rng 10. 100.);
             V.Float (Datagen.Prng.uniform rng 10. 100.);
           |]))
  in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 6 AND \
     SUM(P.weight) >= 300 MINIMIZE SUM(P.cost)"
  in
  let spec = compile rel q in
  let d = Pkg.Direct.run spec rel in
  let od = Option.get d.Pkg.Eval.objective in
  let epsilon = 0.2 in
  let part =
    Pkg.Partition.create
      ~radius:(Pkg.Partition.Theorem { epsilon; maximize = false })
      ~tau:50 ~attrs:[ "cost"; "weight" ] rel
  in
  let s = Pkg.Sketch_refine.run spec rel part in
  match s.Pkg.Eval.objective with
  | Some os ->
    (* Theorem 3, minimization: os <= (1 + eps)^6 od *)
    checkb "within (1+eps)^6" true (os <= (((1. +. epsilon) ** 6.) *. od) +. 1e-6)
  | None -> Alcotest.fail "radius-limited SketchRefine found nothing"

(* PaQL error surface: a malformed query must fail cleanly, not crash. *)
let test_error_paths () =
  let rel = Datagen.Galaxy.generate ~seed:1 50 in
  checkb "parse error surfaces" true
    (Result.is_error (Paql.Parser.parse "SELECT PACKAGE FROM"));
  let bad_attr =
    "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT SUM(P.nonexistent) <= 1"
  in
  checkb "analysis error surfaces" true
    (match Paql.Parser.parse bad_attr with
    | Ok ast -> Result.is_error (Paql.Analyze.check (R.schema rel) ast)
    | Error _ -> false)

(* [paql_cli --mps-out] end to end on a five-row CSV whose WHERE drops
   row 1: the columns are named after the candidate row ids (x0, x2,
   x3, x4) and the rows after the constraints (g0, g1). The bytes were
   recorded from the writer that read names stored in the problem. *)
let mps_cli_golden =
  String.concat "\n"
    [
      "NAME          PKGQ";
      "OBJSENSE";
      "    MIN";
      "ROWS";
      " N  OBJ";
      " E  g0";
      " L  g1";
      "COLUMNS";
      "    MARKER                 'MARKER'                 'INTORG'";
      "    x0  OBJ  2";
      "    x0  g0  1";
      "    x0  g1  0.5";
      "    x2  OBJ  3.5";
      "    x2  g0  1";
      "    x2  g1  0.80000000000000004";
      "    x3  OBJ  0.5";
      "    x3  g0  1";
      "    x3  g1  0.20000000000000001";
      "    x4  OBJ  1.25";
      "    x4  g0  1";
      "    x4  g1  0.59999999999999998";
      "    MARKER                 'MARKER'                 'INTEND'";
      "RHS";
      "    RHS  g0  2";
      "    RHS  g1  1.6000000000000001";
      "RANGES";
      "    RNG  g1  0.60000000000000009";
      "BOUNDS";
      " LO BND  x0  0";
      " UP BND  x0  2";
      " LO BND  x2  0";
      " UP BND  x2  2";
      " LO BND  x3  0";
      " UP BND  x3  2";
      " LO BND  x4  0";
      " UP BND  x4  2";
      "ENDATA";
      "";
    ]

let test_cli_mps_out () =
  let dir = Tmp_root.make "integration" in
  let data = Filename.concat dir "r.csv" and mps = Filename.concat dir "r.mps" in
  Out_channel.with_open_bin data (fun oc ->
      output_string oc
        "name:str,kcal:float,fat:float\na,0.5,2.0\nb,0.05,1.0\nc,0.8,3.5\n\
         d,0.2,0.5\ne,0.6,1.25\n");
  let cli = Filename.concat (Sys.getcwd ()) "../bin/paql_cli.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process cli
          [| cli; "--no-store"; "--data"; data; "--method"; "direct";
             "--mps-out"; mps; "--query";
             "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 1 WHERE R.kcal > \
              0.1 SUCH THAT COUNT(P.*) = 2 AND SUM(P.kcal) BETWEEN 1.0 AND \
              1.6 MINIMIZE SUM(P.fat)" |]
          Unix.stdin null null)
  in
  checkb "exit 0" true (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
  Alcotest.(check string)
    "mps bytes" mps_cli_golden
    (In_channel.with_open_bin mps In_channel.input_all)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "meal planner optimum" `Quick
            test_meal_planner_end_to_end;
          Alcotest.test_case "all PaQL features" `Quick
            test_full_feature_query;
          Alcotest.test_case "csv round-trip query" `Quick
            test_csv_query_roundtrip;
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "paql_cli --mps-out golden bytes" `Quick
            test_cli_mps_out;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "galaxy" `Slow test_galaxy_pipeline;
          Alcotest.test_case "tpch" `Slow test_tpch_pipeline;
          Alcotest.test_case "radius bound (minimize)" `Slow
            test_radius_improves_minimization;
        ] );
    ]
