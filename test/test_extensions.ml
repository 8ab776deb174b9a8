(* Tests for the extension modules: the Section 4.4 false-infeasibility
   fallback strategies, parallel refine, and odds and ends. *)

module P = Lp.Problem
module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-6)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let qt_schema =
  S.make [ { S.name = "a"; ty = V.TFloat }; { S.name = "b"; ty = V.TFloat } ]

let qt_rel n seed =
  let rng = Datagen.Prng.create seed in
  R.of_rows qt_schema
    (List.init n (fun _ ->
         [|
           V.Float (Datagen.Prng.uniform rng 0. 100.);
           V.Float (Datagen.Prng.uniform rng 0. 100.);
         |]))

(* ------------------------------------------------------------------ *)
(* Section 4.4 fallback strategies                                    *)
(* ------------------------------------------------------------------ *)

(* A dataset engineered so that the plain sketch and the hybrid sketch
   both fail, but merging groups (eventually down to one group, i.e.
   the original problem) succeeds: the window needs one tuple from
   each of two groups whose centroids are far off. *)
let tricky_rel =
  R.of_rows qt_schema
    [
      [| V.Float 0.0; V.Float 1. |];
      [| V.Float 10.0; V.Float 2. |];
      [| V.Float 100.0; V.Float 3. |];
      [| V.Float 110.0; V.Float 4. |];
    ]

let tricky_query =
  (* needs exactly rows 1 (a=10) and 2 (a=100): sum in [109.9, 110.1];
     centroids are 5 and 105 -> rep sum 110 is hit by 1+1? 5+105=110!
     shift the window to exclude centroid combinations: [109.5,
     109.95] cannot be made from centroids or within-group pairs *)
  "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 AND \
   SUM(P.a) BETWEEN 109.5 AND 110.5 MAXIMIZE SUM(P.b)"

let test_merge_groups_fallback () =
  let spec = Paql.Translate.compile_exn qt_schema (Paql.Parser.parse_exn tricky_query) in
  let part = Pkg.Partition.create ~tau:2 ~attrs:[ "a" ] tricky_rel in
  checki "two groups" 2 (Pkg.Partition.num_groups part);
  (* no fallbacks: whatever the sketch says, we take it; this query is
     satisfiable only by mixing groups, which the merge ladder finds *)
  let with_merge =
    Pkg.Sketch_refine.run
      ~options:
        { Pkg.Sketch_refine.default_options with
          fallbacks = [ Pkg.Sketch_refine.Merge_groups ] }
      spec tricky_rel part
  in
  match with_merge.Pkg.Eval.package with
  | Some p ->
    checkb "merge fallback feasible" true (Pkg.Package.feasible spec p);
    checkf "finds the mixed pair" 5. (Pkg.Package.objective spec p)
  | None -> Alcotest.fail "merge ladder should reach the original problem"

let test_drop_attributes_fallback () =
  (* partition on two attributes, one of which drives infeasibility of
     the sketch; dropping it merges groups enough to succeed *)
  let rng = Datagen.Prng.create 13 in
  let rel =
    R.of_rows qt_schema
      (List.init 200 (fun i ->
           [|
             V.Float (if i mod 2 = 0 then 0. else 1000.);
             V.Float (Datagen.Prng.uniform rng 0. 10.);
           |]))
  in
  let q =
    (* needs a mix of low and high 'a' values; partitioning on 'a'
       separates them *)
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 AND \
     SUM(P.a) BETWEEN 999.9 AND 1000.1 MAXIMIZE SUM(P.b)"
  in
  let spec = Paql.Translate.compile_exn qt_schema (Paql.Parser.parse_exn q) in
  let part = Pkg.Partition.create ~tau:100 ~attrs:[ "a"; "b" ] rel in
  let r =
    Pkg.Sketch_refine.run
      ~options:
        { Pkg.Sketch_refine.default_options with
          fallbacks =
            [ Pkg.Sketch_refine.Drop_attributes; Pkg.Sketch_refine.Merge_groups ] }
      spec rel part
  in
  match r.Pkg.Eval.package with
  | Some p -> checkb "feasible after fallback" true (Pkg.Package.feasible spec p)
  | None -> Alcotest.fail "fallback ladder should find the package"

let test_no_fallbacks_reports_infeasible () =
  let spec = Paql.Translate.compile_exn qt_schema (Paql.Parser.parse_exn tricky_query) in
  let part = Pkg.Partition.create ~tau:2 ~attrs:[ "a" ] tricky_rel in
  let bare =
    Pkg.Sketch_refine.run
      ~options:{ Pkg.Sketch_refine.default_options with fallbacks = [] }
      spec tricky_rel part
  in
  (* this is exactly a (known) false infeasibility *)
  checkb "false infeasibility without fallbacks" true
    (bare.Pkg.Eval.status = Pkg.Eval.Infeasible)

(* ------------------------------------------------------------------ *)
(* Parallel SketchRefine                                              *)
(* ------------------------------------------------------------------ *)

(* With an infeasible plain sketch Parallel has nothing to refine in
   parallel: on one domain or two it climbs the ladder flat
   SketchRefine climbs, with the same ILPs and the same answer. Checks
   that when the plain sketch is infeasible, and says whether it
   was. *)
let parallel_matches_flat spec rel part =
  match
    Pkg.Sketch.run (Pkg.Sketch.make_ctx spec rel part)
      (Pkg.Eval.fresh_counters ())
  with
  | Pkg.Sketch.Sketched _ | Pkg.Sketch.Sketch_failed _ -> false
  | Pkg.Sketch.Sketch_infeasible ->
    let flat = Pkg.Sketch_refine.run spec rel part in
    let entries (r : Pkg.Eval.report) =
      Option.map Pkg.Package.entries r.Pkg.Eval.package
    in
    List.iter
      (fun domains ->
        let par = Pkg.Parallel.run ~domains spec rel part in
        checki
          (Printf.sprintf "ILP calls on %d domain(s)" domains)
          flat.Pkg.Eval.counters.Pkg.Eval.ilp_calls
          par.Pkg.Eval.counters.Pkg.Eval.ilp_calls;
        checkb
          (Printf.sprintf "same package on %d domain(s)" domains)
          true
          (entries flat = entries par))
      [ 1; 2 ];
    true

let parallel_rel =
  let rng = Datagen.Prng.create 55 in
  R.of_rows qt_schema
    (List.init 500 (fun _ ->
         [|
           V.Float (Datagen.Prng.uniform rng 0. 50.);
           V.Float (Datagen.Prng.uniform rng 0. 100.);
         |]))

let test_parallel_feasible () =
  let rel = parallel_rel in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 8 AND \
     SUM(P.a) <= 150 MAXIMIZE SUM(P.b)"
  in
  let spec = Paql.Translate.compile_exn qt_schema (Paql.Parser.parse_exn q) in
  let part = Pkg.Partition.create ~tau:50 ~attrs:[ "a"; "b" ] rel in
  let seq = Pkg.Sketch_refine.run spec rel part in
  let par = Pkg.Parallel.run spec rel part in
  (match par.Pkg.Eval.package with
  | Some p -> checkb "parallel result feasible" true (Pkg.Package.feasible spec p)
  | None -> Alcotest.fail "parallel SketchRefine found nothing");
  (* both must agree on feasibility *)
  checkb "same feasibility verdict" true
    (Option.is_some seq.Pkg.Eval.package = Option.is_some par.Pkg.Eval.package)

let test_parallel_repair_path () =
  (* the tricky two-group instance forces every optimistic answer to be
     rejected; parallel must still deliver via repair + fallback *)
  let spec =
    Paql.Translate.compile_exn qt_schema (Paql.Parser.parse_exn tricky_query)
  in
  let part = Pkg.Partition.create ~tau:2 ~attrs:[ "a" ] tricky_rel in
  let options =
    { Pkg.Sketch_refine.default_options with
      fallbacks = [ Pkg.Sketch_refine.Merge_groups ] }
  in
  let par = Pkg.Parallel.run ~options spec tricky_rel part in
  match par.Pkg.Eval.package with
  | Some p -> checkb "repair path feasible" true (Pkg.Package.feasible spec p)
  | None -> Alcotest.fail "parallel repair should reach the answer"

(* The razor-thin window of test_pkg's "hybrid sketch rescues": no
   combination of centroids hits it, so the plain sketch is infeasible
   and the hybrid sketch finds the package. *)
let test_parallel_hybrid_rescue () =
  let rel =
    R.of_rows qt_schema
      (List.map
         (fun (a, b) -> [| V.Float a; V.Float b |])
         [ (0.0, 1.); (0.2, 2.); (0.4, 3.); (0.6, 4.);
           (100.0, 1.); (100.2, 2.); (100.4, 3.); (100.6, 4.) ])
  in
  let spec =
    Paql.Translate.compile_exn qt_schema
      (Paql.Parser.parse_exn
         "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 1 \
          AND SUM(P.a) BETWEEN 100.55 AND 100.65 MAXIMIZE SUM(P.b)")
  in
  let part = Pkg.Partition.create ~tau:4 ~attrs:[ "a" ] rel in
  checkb "plain sketch infeasible" true (parallel_matches_flat spec rel part);
  match (Pkg.Parallel.run ~domains:2 spec rel part).Pkg.Eval.package with
  | Some p -> checkb "hybrid package feasible" true (Pkg.Package.feasible spec p)
  | None -> Alcotest.fail "the hybrid sketch should rescue parallel"

let test_parallel_infeasible () =
  let spec =
    Paql.Translate.compile_exn qt_schema
      (Paql.Parser.parse_exn
         "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 \
          AND SUM(P.a) >= 100000")
  in
  let part = Pkg.Partition.create ~tau:2 ~attrs:[ "a" ] tricky_rel in
  checkb "plain sketch infeasible" true
    (parallel_matches_flat spec tricky_rel part);
  checkb "infeasible detected" true
    ((Pkg.Parallel.run spec tricky_rel part).Pkg.Eval.status
    = Pkg.Eval.Infeasible);
  (* the same on 500 rows in ten groups: every hybrid sketch is tried *)
  let part = Pkg.Partition.create ~tau:50 ~attrs:[ "a"; "b" ] parallel_rel in
  checkb "plain sketch infeasible on 500 rows" true
    (parallel_matches_flat spec parallel_rel part)

(* ------------------------------------------------------------------ *)
(* Odds and ends                                                      *)
(* ------------------------------------------------------------------ *)

let test_theorem_radius_cut () =
  (* a Theorem-radius partitioning's groups all satisfy the epsilon
     condition (away-from-zero data so the bound is real); only the
     minimizing bound, gamma = 0.4 / 1.4, is tight enough to split
     this table *)
  let rng = Datagen.Prng.create 21 in
  let rel =
    R.of_rows qt_schema
      (List.init 400 (fun _ ->
           [|
             V.Float (Datagen.Prng.uniform rng 50. 100.);
             V.Float (Datagen.Prng.uniform rng 50. 100.);
           |]))
  in
  List.iter
    (fun maximize ->
      let spec = Pkg.Partition.Theorem { epsilon = 0.4; maximize } in
      let part =
        Pkg.Partition.create ~radius:spec ~tau:400 ~attrs:[ "a"; "b" ] rel
      in
      (match Pkg.Partition.check ~radius:spec part rel with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      checkb "split where the radius binds" (not maximize)
        (Pkg.Partition.num_groups part > 1))
    [ true; false ]

let test_csv_bad_arity () =
  checkb "row arity mismatch rejected" true
    (try
       ignore (Relalg.Csv.of_string "a:int,b:int\n1,2\n3\n");
       false
     with Relalg.Csv.Error (3, _) -> true);
  checkb "empty input rejected" true
    (try
       ignore (Relalg.Csv.of_string "");
       false
     with Relalg.Csv.Error (1, _) -> true)

let test_refine_deadline () =
  (* an already-expired deadline must surface as a clean failure *)
  let rel = qt_rel 200 31 in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 5 \
     MAXIMIZE SUM(P.b)"
  in
  let spec = Paql.Translate.compile_exn qt_schema (Paql.Parser.parse_exn q) in
  let part = Pkg.Partition.create ~tau:20 ~attrs:[ "a" ] rel in
  let r =
    Pkg.Sketch_refine.run
      ~options:{ Pkg.Sketch_refine.default_options with max_seconds = -1. }
      spec rel part
  in
  checkb "clean failure" true
    (match r.Pkg.Eval.status with
    | Pkg.Eval.Failed _ -> true
    | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ ->
      (* the sketch may finish before the first deadline check; any
         terminal status without a crash is acceptable *)
      true
    | Pkg.Eval.Infeasible | Pkg.Eval.Degraded _ -> false)

let test_eval_pretty_printers () =
  let to_s pp v = Format.asprintf "%a" pp v in
  checkb "optimal" true (to_s Pkg.Eval.pp_status Pkg.Eval.Optimal = "optimal");
  checkb "gap" true
    (to_s Pkg.Eval.pp_status (Pkg.Eval.Feasible 0.125) = "feasible (gap 12.50%)");
  (* a gap below 0.01% keeps its digits instead of printing as zero *)
  Alcotest.(check string) "small gap" "feasible (gap 0.0015%)"
    (to_s Pkg.Eval.pp_status (Pkg.Eval.Feasible 1.5e-5));
  Alcotest.(check string) "tiny gap" "7e-05%"
    (to_s Ilp.Branch_bound.pp_gap 7e-7);
  Alcotest.(check string) "zero gap" "0.00%" (to_s Ilp.Branch_bound.pp_gap 0.);
  Alcotest.(check string) "solver result"
    "feasible obj=2 gap=0.0015% (nodes=3, columns=4, first=1, 0.000s)"
    (to_s Ilp.Branch_bound.pp_result
       (Ilp.Branch_bound.Feasible
          ( { Ilp.Branch_bound.x = [||]; obj = 2. },
            { Ilp.Branch_bound.nodes = 3; lp = Lp.Simplex.new_work ();
              elapsed = 0.; stopped = Some Ilp.Branch_bound.Stop_gap;
              columns = 4; first_incumbent = Some 1 },
            1.5e-5 )));
  checkb "failed" true
    (to_s Pkg.Eval.pp_status
       (Pkg.Eval.Failed (Pkg.Eval.failure (Pkg.Eval.Solver_error "x")))
    = "failed: solver error: x");
  checkb "failed with context" true
    (to_s Pkg.Eval.pp_status
       (Pkg.Eval.Failed
          (Pkg.Eval.failure ~stage:Pkg.Eval.Refine ~group:3
             Pkg.Eval.Deadline_exceeded))
    = "failed: deadline exceeded [stage=refine, group=3]")

let () =
  Alcotest.run "extensions"
    [
      ( "parallel",
        [
          Alcotest.test_case "feasible results" `Quick test_parallel_feasible;
          Alcotest.test_case "repair path" `Quick test_parallel_repair_path;
          Alcotest.test_case "hybrid sketch rescues" `Quick
            test_parallel_hybrid_rescue;
          Alcotest.test_case "infeasible query" `Quick
            test_parallel_infeasible;
        ] );
      ( "odds-and-ends",
        [
          Alcotest.test_case "eval printers" `Quick test_eval_pretty_printers;
          Alcotest.test_case "theorem radius cut" `Quick test_theorem_radius_cut;
          Alcotest.test_case "csv bad arity" `Quick test_csv_bad_arity;
          Alcotest.test_case "refine deadline" `Quick test_refine_deadline;
        ] );
      ( "fallbacks",
        [
          Alcotest.test_case "merge groups ladder" `Quick
            test_merge_groups_fallback;
          Alcotest.test_case "drop attributes" `Quick
            test_drop_attributes_fallback;
          Alcotest.test_case "bare infeasibility" `Quick
            test_no_fallbacks_reports_infeasible;
        ] );
    ]
