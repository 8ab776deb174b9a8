(* Tests for the package-query engine: packages, partitioning, DIRECT,
   SKETCH/REFINE/SKETCHREFINE and the naive SQL baseline. *)

module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-6)

let schema =
  S.make
    [
      { S.name = "a"; ty = V.TFloat };
      { S.name = "b"; ty = V.TFloat };
      { S.name = "tag"; ty = V.TStr };
    ]

let mkrel rows =
  R.of_rows schema
    (List.map (fun (a, b, t) -> [| V.Float a; V.Float b; V.Str t |]) rows)

let rel6 =
  mkrel
    [
      (1., 10., "x"); (2., 20., "y"); (3., 30., "x");
      (4., 40., "y"); (5., 50., "x"); (6., 60., "y");
    ]

let compile rel q =
  Paql.Translate.compile_exn (R.schema rel) (Paql.Parser.parse_exn q)

(* ------------------------------------------------------------------ *)
(* Package                                                            *)
(* ------------------------------------------------------------------ *)

let test_package_basics () =
  let p = Pkg.Package.make rel6 [ (0, 2); (3, 1); (0, 1) ] in
  Alcotest.(check (list (pair int int))) "entries merge" [ (0, 3); (3, 1) ]
    (Pkg.Package.entries p);
  checki "cardinality" 4 (Pkg.Package.cardinality p);
  checkb "not empty" false (Pkg.Package.is_empty p);
  checki "materialized rows" 4 (R.cardinality (Pkg.Package.materialize p));
  checki "tuple stream" 4 (Seq.length (Pkg.Package.tuples p));
  Alcotest.check_raises "bad id"
    (Invalid_argument "Package.make: row id 77 out of range") (fun () ->
      ignore (Pkg.Package.make rel6 [ (77, 1) ]));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Package.make: negative multiplicity") (fun () ->
      ignore (Pkg.Package.make rel6 [ (0, -1) ]))

let test_package_of_solution () =
  let p =
    Pkg.Package.of_solution rel6 ~candidates:[| 1; 3; 5 |] [| 0.; 2.0001; 1. |]
  in
  Alcotest.(check (list (pair int int))) "rounded entries" [ (3, 2); (5, 1) ]
    (Pkg.Package.entries p)

let test_package_objective_feasible () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 WHERE R.tag = 'x' SUCH THAT \
     COUNT(P.*) = 2 AND SUM(P.b) <= 45 MINIMIZE SUM(P.a)"
  in
  let spec = compile rel6 q in
  let good = Pkg.Package.make rel6 [ (0, 1); (2, 1) ] in
  checkb "feasible" true (Pkg.Package.feasible spec good);
  checkf "objective" 4. (Pkg.Package.objective spec good);
  Alcotest.(check (array (float 1e-9))) "constraint values" [| 2.; 40. |]
    (Pkg.Package.constraint_values spec good);
  checkb "base violation" false
    (Pkg.Package.feasible spec (Pkg.Package.make rel6 [ (0, 1); (1, 1) ]));
  checkb "count violation" false
    (Pkg.Package.feasible spec (Pkg.Package.make rel6 [ (0, 1) ]));
  checkb "repeat violation" false
    (Pkg.Package.feasible spec (Pkg.Package.make rel6 [ (0, 2) ]));
  checkb "sum violation" false
    (Pkg.Package.feasible spec (Pkg.Package.make rel6 [ (2, 1); (4, 1) ]))

(* ------------------------------------------------------------------ *)
(* Partition                                                          *)
(* ------------------------------------------------------------------ *)

let grid_rel n =
  (* n^2 points on an n x n grid *)
  R.of_rows schema
    (List.concat_map
       (fun i ->
         List.init n (fun j ->
             [| V.Float (float_of_int i); V.Float (float_of_int j); V.Str "g" |]))
       (List.init n Fun.id))

let test_partition_invariants () =
  let rel = grid_rel 10 in
  let part = Pkg.Partition.create ~tau:20 ~attrs:[ "a"; "b" ] rel in
  (match Pkg.Partition.check ~tau:20 part rel with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  checkb "several groups" true (Pkg.Partition.num_groups part >= 5);
  checkb "tau respected" true (Pkg.Partition.max_group_size part <= 20);
  checkb "reps schema" true
    (S.equal (R.schema part.Pkg.Partition.reps) (R.schema rel));
  checkb "rep string is null" true
    (V.is_null
       (Relalg.Tuple.field (R.schema rel)
          (R.row part.Pkg.Partition.reps 0)
          "tag"))

let test_partition_radius_absolute () =
  let rel = grid_rel 8 in
  let part =
    Pkg.Partition.create ~radius:(Pkg.Partition.Absolute 1.5) ~tau:64
      ~attrs:[ "a"; "b" ] rel
  in
  match Pkg.Partition.check ~radius:(Pkg.Partition.Absolute 1.5) part rel with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_partition_identical_points () =
  (* 100 identical tuples cannot be split spatially: chunking must
     still enforce tau *)
  let rel = mkrel (List.init 100 (fun _ -> (1., 1., "s"))) in
  let part = Pkg.Partition.create ~tau:7 ~attrs:[ "a"; "b" ] rel in
  (match Pkg.Partition.check ~tau:7 part rel with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  checkb "chunked" true (Pkg.Partition.num_groups part >= 15)

let test_partition_restrict_prefix () =
  let rel = grid_rel 10 in
  let part = Pkg.Partition.create ~tau:20 ~attrs:[ "a"; "b" ] rel in
  let sub = R.prefix rel 37 in
  let restricted = Pkg.Partition.restrict_prefix part sub 37 in
  (match Pkg.Partition.check restricted sub with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  checkb "fewer or equal groups" true
    (Pkg.Partition.num_groups restricted <= Pkg.Partition.num_groups part)

let test_partition_gamma () =
  checkf "gamma max" 0.5 (Pkg.Partition.gamma ~maximize:true ~epsilon:0.5);
  checkf "gamma min" (1. /. 3.)
    (Pkg.Partition.gamma ~maximize:false ~epsilon:0.5)

let test_partition_errors () =
  let rel = grid_rel 3 in
  checkb "bad tau" true
    (try
       ignore (Pkg.Partition.create ~tau:0 ~attrs:[ "a" ] rel);
       false
     with Invalid_argument _ -> true);
  checkb "no attrs" true
    (try
       ignore (Pkg.Partition.create ~tau:5 ~attrs:[] rel);
       false
     with Invalid_argument _ -> true);
  checkb "string attr" true
    (try
       ignore (Pkg.Partition.create ~tau:5 ~attrs:[ "tag" ] rel);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Direct                                                             *)
(* ------------------------------------------------------------------ *)

let test_direct_small () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 AND \
     SUM(P.a) <= 8 MAXIMIZE SUM(P.b)"
  in
  let spec = compile rel6 q in
  let r = Pkg.Direct.run spec rel6 in
  (match r.Pkg.Eval.status with
  | Pkg.Eval.Optimal -> ()
  | s -> Alcotest.failf "expected optimal, got %a" Pkg.Eval.pp_status s);
  (* best pair: rows 5 (a=6, b=60) and 1 (a=2, b=20) *)
  checkf "objective" 80. (Option.get r.Pkg.Eval.objective);
  checkb "package feasible" true
    (Pkg.Package.feasible spec (Option.get r.Pkg.Eval.package))

let test_direct_infeasible () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 10"
  in
  let spec = compile rel6 q in
  checkb "infeasible" true
    ((Pkg.Direct.run spec rel6).Pkg.Eval.status = Pkg.Eval.Infeasible)

let test_direct_repeat () =
  (* with REPEAT 2 the best tuple can be taken three times *)
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 2 SUCH THAT COUNT(P.*) = 3 \
     MAXIMIZE SUM(P.b)"
  in
  let spec = compile rel6 q in
  let r = Pkg.Direct.run spec rel6 in
  checkf "objective" 180. (Option.get r.Pkg.Eval.objective);
  Alcotest.(check (list (pair int int))) "entries" [ (5, 3) ]
    (Pkg.Package.entries (Option.get r.Pkg.Eval.package))

(* ------------------------------------------------------------------ *)
(* Naive SQL vs Direct                                                *)
(* ------------------------------------------------------------------ *)

let test_naive_sql_matches_direct () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 3 AND \
     SUM(P.a) BETWEEN 6 AND 12 MINIMIZE SUM(P.b)"
  in
  let spec = compile rel6 q in
  let d = Pkg.Direct.run spec rel6 in
  let s = Pkg.Naive_sql.run spec rel6 ~cardinality:3 in
  checkf "same optimum"
    (Option.get d.Pkg.Eval.objective)
    (Option.get s.Pkg.Eval.objective)

let test_naive_sql_limit () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 3"
  in
  let spec = compile rel6 q in
  match
    (Pkg.Naive_sql.run ~max_combinations:5 spec rel6 ~cardinality:3)
      .Pkg.Eval.status
  with
  | Pkg.Eval.Failed _ -> ()
  | s -> Alcotest.failf "expected failure, got %a" Pkg.Eval.pp_status s

(* ------------------------------------------------------------------ *)
(* SketchRefine                                                       *)
(* ------------------------------------------------------------------ *)

let bigger_rel =
  let rng = Datagen.Prng.create 17 in
  R.of_rows schema
    (List.init 600 (fun _ ->
         [|
           V.Float (Datagen.Prng.uniform rng 0. 10.);
           V.Float (Datagen.Prng.uniform rng 0. 100.);
           V.Str (if Datagen.Prng.bool rng ~p:0.5 then "x" else "y");
         |]))

let test_sketch_refine_feasible_and_close () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 8 AND \
     SUM(P.a) <= 30 MAXIMIZE SUM(P.b)"
  in
  let spec = compile bigger_rel q in
  let part = Pkg.Partition.create ~tau:60 ~attrs:[ "a"; "b" ] bigger_rel in
  let d = Pkg.Direct.run spec bigger_rel in
  let s = Pkg.Sketch_refine.run spec bigger_rel part in
  let pd = Option.get d.Pkg.Eval.package in
  let ps = Option.get s.Pkg.Eval.package in
  checkb "direct feasible" true (Pkg.Package.feasible spec pd);
  checkb "sr feasible" true (Pkg.Package.feasible spec ps);
  let ratio =
    Option.get d.Pkg.Eval.objective /. Option.get s.Pkg.Eval.objective
  in
  checkb "ratio sane" true (ratio >= 0.999 && ratio < 3.)

let test_sketch_refine_base_predicate () =
  (* string base predicate: representatives are NULL on tag, so the
     filtering must happen via per-group candidate caps *)
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 WHERE R.tag = 'x' SUCH THAT \
     COUNT(P.*) = 5 MAXIMIZE SUM(P.b)"
  in
  let spec = compile bigger_rel q in
  let part = Pkg.Partition.create ~tau:60 ~attrs:[ "a"; "b" ] bigger_rel in
  let s = Pkg.Sketch_refine.run spec bigger_rel part in
  let ps = Option.get s.Pkg.Eval.package in
  checkb "respects base predicate" true (Pkg.Package.feasible spec ps)

let test_sketch_refine_infeasible_query () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 AND \
     SUM(P.a) >= 1000"
  in
  let spec = compile bigger_rel q in
  let part = Pkg.Partition.create ~tau:60 ~attrs:[ "a"; "b" ] bigger_rel in
  checkb "infeasible detected" true
    ((Pkg.Sketch_refine.run spec bigger_rel part).Pkg.Eval.status
    = Pkg.Eval.Infeasible)

let test_hybrid_sketch_rescues () =
  (* A razor-thin SUM window: centroid combinations cannot hit it, so
     the plain sketch is infeasible, but the hybrid sketch (original
     tuples for one group) can. *)
  let rows =
    [ (0.0, 1., "x"); (0.2, 2., "x"); (0.4, 3., "x"); (0.6, 4., "x");
      (100.0, 1., "y"); (100.2, 2., "y"); (100.4, 3., "y"); (100.6, 4., "y") ]
  in
  let rel = mkrel rows in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 1 AND \
     SUM(P.a) BETWEEN 100.55 AND 100.65 MAXIMIZE SUM(P.b)"
  in
  let spec = compile rel q in
  let part = Pkg.Partition.create ~tau:4 ~attrs:[ "a" ] rel in
  let no_hybrid =
    Pkg.Sketch_refine.run
      ~options:{ Pkg.Sketch_refine.default_options with fallbacks = [] }
      spec rel part
  in
  checkb "plain sketch infeasible" true
    (no_hybrid.Pkg.Eval.status = Pkg.Eval.Infeasible);
  let with_hybrid = Pkg.Sketch_refine.run spec rel part in
  checkb "hybrid rescues" true
    (match with_hybrid.Pkg.Eval.status with
    | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ -> true
    | _ -> false);
  checkb "hybrid package feasible" true
    (Pkg.Package.feasible spec (Option.get with_hybrid.Pkg.Eval.package))

let test_sketch_caps_zero_groups () =
  (* groups whose candidates are all filtered out must get cap 0 *)
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 WHERE R.tag = 'x' SUCH THAT \
     COUNT(P.*) = 1 MAXIMIZE SUM(P.b)"
  in
  let rel =
    mkrel [ (0., 1., "x"); (0.1, 2., "x"); (100., 99., "y"); (100.1, 98., "y") ]
  in
  let spec = compile rel q in
  let part = Pkg.Partition.create ~tau:2 ~attrs:[ "a" ] rel in
  let ctx = Pkg.Sketch.make_ctx spec rel part in
  checkb "some cap is zero" true
    (Array.exists (fun c -> c = 0.) ctx.Pkg.Sketch.caps);
  let s = Pkg.Sketch_refine.run spec rel part in
  checkf "objective avoids filtered groups" 2.
    (Option.get s.Pkg.Eval.objective)

let test_direct_vacuous_objective () =
  (* no objective clause: any feasible package is acceptable *)
  let q = "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 3" in
  let spec = compile rel6 q in
  let r = Pkg.Direct.run spec rel6 in
  let p = Option.get r.Pkg.Eval.package in
  checkb "feasible" true (Pkg.Package.feasible spec p);
  checki "cardinality" 3 (Pkg.Package.cardinality p);
  checkf "objective is zero" 0. (Option.get r.Pkg.Eval.objective)

let test_where_eliminates_everything () =
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 WHERE R.a > 1000 SUCH THAT \
     COUNT(P.*) = 1"
  in
  let spec = compile rel6 q in
  checkb "direct infeasible" true
    ((Pkg.Direct.run spec rel6).Pkg.Eval.status = Pkg.Eval.Infeasible);
  let part = Pkg.Partition.create ~tau:3 ~attrs:[ "a" ] rel6 in
  checkb "sketchrefine infeasible" true
    ((Pkg.Sketch_refine.run spec rel6 part).Pkg.Eval.status
    = Pkg.Eval.Infeasible)

let test_package_pp () =
  let p = Pkg.Package.make rel6 [ (0, 1); (2, 3) ] in
  Alcotest.(check string) "pp" "{0, 2x3}" (Format.asprintf "%a" Pkg.Package.pp p)

let test_sketch_caps_repeat () =
  (* REPEAT 1 doubles the per-group sketch caps *)
  let rel = mkrel [ (0., 1., "x"); (0.1, 2., "x"); (10., 3., "x"); (10.1, 4., "x") ] in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 1 SUCH THAT COUNT(P.*) = 3 \
     MAXIMIZE SUM(P.b)"
  in
  let spec = compile rel q in
  let part = Pkg.Partition.create ~tau:2 ~attrs:[ "a" ] rel in
  let ctx = Pkg.Sketch.make_ctx spec rel part in
  Array.iter (fun c -> checkf "cap = |G|*(K+1)" 4. c) ctx.Pkg.Sketch.caps;
  (* and the final package may repeat a tuple *)
  let r = Pkg.Sketch_refine.run spec rel part in
  checkf "repeated best tuple" 11. (Option.get r.Pkg.Eval.objective)

let test_refine_totals_helpers () =
  let rel = mkrel [ (1., 10., "x"); (2., 20., "x"); (3., 30., "x") ] in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 AND \
     SUM(P.a) BETWEEN 3 AND 5 MINIMIZE SUM(P.b)"
  in
  let spec = compile rel q in
  let part = Pkg.Partition.create ~tau:3 ~attrs:[ "a" ] rel in
  let ctx = Pkg.Sketch.make_ctx spec rel part in
  let m = Pkg.Partition.num_groups part in
  let totals =
    Pkg.Refine.totals ctx ~rep_counts:(Array.make m 0.)
      ~refined:
        (Array.init m (fun g -> if g = 0 then Some [ (0, 1); (2, 1) ] else None))
  in
  checkf "count total" 2. totals.(0);
  checkf "sum total" 4. totals.(1);
  checkb "within bounds" true (Pkg.Refine.within_bounds ctx totals)

(* Algorithm 2 driven by a scripted group solver: four singleton
   groups over rows a = 1..4, so a group's representative is its one
   row and every offset is a small exact sum. Groups 0..2 carry
   representatives (1, 3 and 2 copies); group 3 carries none. *)
let refine_fixture () =
  let rel =
    mkrel [ (1., 10., "x"); (2., 20., "x"); (3., 30., "x"); (4., 40., "x") ]
  in
  let q =
    "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 3 SUCH THAT COUNT(P.*) <= 10 AND \
     SUM(P.a) <= 100 MAXIMIZE SUM(P.b)"
  in
  let spec = compile rel q in
  let part =
    Pkg.Partition.of_groups ~attrs:[ "a" ] rel
      [ [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |] ]
  in
  let ctx = Pkg.Sketch.make_ctx spec rel part in
  (ctx, [| 1.; 3.; 2.; 0. |], Array.make 4 None)

exception Unreachable of int

(* [script j ~refined] answers group [j]'s refine query; every call is
   logged as (group, offsets). *)
let scripted script refined =
  let calls = ref [] in
  let solve j offsets =
    calls := (j, Array.to_list offsets) :: !calls;
    script j ~refined
  in
  (solve, fun () -> List.rev !calls)

let visits calls = List.map fst (calls ())

let test_refine_scripted_search () =
  let ctx, rep_counts, refined = refine_fixture () in
  (* group 2 is infeasible while group 1 is refined (to 2 copies) *)
  let script j ~refined =
    match j with
    | 0 -> `Feasible [ (0, 1) ]
    | 1 -> `Feasible [ (1, 2) ]
    | 2 when refined.(1) <> None -> `Infeasible
    | 2 -> `Feasible [ (2, 2) ]
    | _ -> Alcotest.failf "group %d has no representatives" j
  in
  let solve, calls = scripted script refined in
  let counters = Pkg.Eval.fresh_counters () in
  let r = Pkg.Refine.run ~solve ctx counters ~rep_counts ~refined in
  (* largest multiplicity first (1, 2, 0); group 2 fails below group 1,
     so the root retries with group 2 first, then 1 and 0 below it *)
  Alcotest.(check (list int)) "visit order" [ 1; 2; 2; 1; 0 ] (visits calls);
  (* offsets = (COUNT, SUM(a)) over every other group: a represented
     group g adds rep_counts(g) * (1, a_g), a refined one its entries *)
  Alcotest.(check (list (list (float 0.)))) "offsets per call"
    [
      [ 1. +. 2.; (1. *. 1.) +. (2. *. 3.) ];
      [ 1. +. 2.; (1. *. 1.) +. (2. *. 2.) ];
      [ 1. +. 3.; (1. *. 1.) +. (3. *. 2.) ];
      [ 1. +. 2.; (1. *. 1.) +. (2. *. 3.) ];
      [ 2. +. 2.; (2. *. 2.) +. (2. *. 3.) ];
    ]
    (List.map snd (calls ()));
  checki "backtracks" 1 counters.Pkg.Eval.backtracks;
  match r with
  | Pkg.Refine.Refined p ->
    Alcotest.(check (list (pair int int)))
      "package" [ (0, 1); (1, 2); (2, 2) ] (Pkg.Package.entries p)
  | _ -> Alcotest.fail "expected a refined package"

let test_refine_scripted_budget () =
  let ctx, rep_counts, refined = refine_fixture () in
  let solve, calls = scripted (fun _ ~refined:_ -> `Infeasible) refined in
  let counters = Pkg.Eval.fresh_counters () in
  let r =
    Pkg.Refine.run ~max_backtracks:1 ~solve ctx counters ~rep_counts ~refined
  in
  checkb "budget exhausted is infeasible" true
    (r = Pkg.Refine.Refine_infeasible);
  Alcotest.(check (list int)) "stops past the budget" [ 1; 2 ] (visits calls);
  checki "backtracks" 2 counters.Pkg.Eval.backtracks

let test_refine_scripted_failure () =
  let ctx, rep_counts, refined = refine_fixture () in
  let script j ~refined:_ =
    if j = 2 then
      `Failed
        (Pkg.Eval.failure ~stage:Pkg.Eval.Repair ~group:2 Pkg.Eval.Node_limit)
    else `Feasible [ (j, 1) ]
  in
  let solve, calls = scripted script refined in
  (match
     Pkg.Refine.run ~stage:Pkg.Eval.Repair ~solve ctx
       (Pkg.Eval.fresh_counters ()) ~rep_counts ~refined
   with
  | Pkg.Refine.Refine_failed f ->
    checkb "stage" true (f.Pkg.Eval.stage = Some Pkg.Eval.Repair);
    Alcotest.(check (option int)) "group" (Some 2) f.Pkg.Eval.group;
    checkb "kind" true (f.Pkg.Eval.kind = Pkg.Eval.Node_limit)
  | _ -> Alcotest.fail "expected Refine_failed");
  Alcotest.(check (list int)) "no call after the failure" [ 1; 2 ]
    (visits calls);
  (* a deadline already past fails before the first call *)
  let ctx, rep_counts, refined = refine_fixture () in
  let solve, calls = scripted script refined in
  (match
     Pkg.Refine.run ~deadline:0. ~solve ctx (Pkg.Eval.fresh_counters ())
       ~rep_counts ~refined
   with
  | Pkg.Refine.Refine_failed f ->
    checkb "deadline kind" true (f.Pkg.Eval.kind = Pkg.Eval.Deadline_exceeded);
    checkb "deadline stage" true (f.Pkg.Eval.stage = Some Pkg.Eval.Refine)
  | _ -> Alcotest.fail "expected a deadline failure");
  checki "no solver call" 0 (List.length (calls ()))

let test_refine_scripted_exception () =
  let ctx, rep_counts, refined = refine_fixture () in
  let script j ~refined:_ =
    if j = 2 then raise (Unreachable 2) else `Feasible [ (j, 1) ]
  in
  let solve, calls = scripted script refined in
  Alcotest.check_raises "solver exception propagates" (Unreachable 2)
    (fun () ->
      ignore
        (Pkg.Refine.run ~solve ctx (Pkg.Eval.fresh_counters ()) ~rep_counts
           ~refined));
  Alcotest.(check (list int)) "visits" [ 1; 2 ] (visits calls)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let approx_bound_prop =
  (* Theorem 3: with a radius-limited partitioning, SketchRefine's
     result is within (1-eps)^6 of Direct's for maximization. *)
  let gen = QCheck.Gen.(int_range 0 10_000) in
  QCheck.Test.make ~count:25 ~name:"Theorem 3: (1-eps)^6 bound (maximize)"
    (QCheck.make gen)
    (fun seed ->
      let rng = Datagen.Prng.create (seed + 1) in
      let rel =
        R.of_rows schema
          (List.init 200 (fun _ ->
               [|
                 V.Float (Datagen.Prng.uniform rng 10. 20.);
                 V.Float (Datagen.Prng.uniform rng 10. 20.);
                 V.Str "t";
               |]))
      in
      let q =
        "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 5 \
         AND SUM(P.a) <= 80 MAXIMIZE SUM(P.b)"
      in
      let spec = compile rel q in
      let epsilon = 0.25 in
      let part =
        Pkg.Partition.create
          ~radius:(Pkg.Partition.Theorem { epsilon; maximize = true })
          ~tau:40 ~attrs:[ "a"; "b" ] rel
      in
      let d = Pkg.Direct.run spec rel in
      let s = Pkg.Sketch_refine.run spec rel part in
      match d.Pkg.Eval.objective, s.Pkg.Eval.objective with
      | Some od, Some os ->
        let bound = ((1. -. epsilon) ** 6.) *. od in
        os >= bound -. 1e-6
        && Pkg.Package.feasible spec (Option.get s.Pkg.Eval.package)
      | Some _, None -> false
      | None, _ -> QCheck.assume_fail ())

let sr_always_feasible_prop =
  QCheck.Test.make ~count:25 ~name:"SketchRefine results are always feasible"
    (QCheck.make QCheck.Gen.(pair (int_range 0 1000) (int_range 3 10)))
    (fun (seed, count) ->
      let rng = Datagen.Prng.create (seed + 7) in
      let rel =
        R.of_rows schema
          (List.init 300 (fun _ ->
               [|
                 V.Float (Datagen.Prng.uniform rng 0. 50.);
                 V.Float (Datagen.Prng.uniform rng (-10.) 10.);
                 V.Str "t";
               |]))
      in
      let q =
        Printf.sprintf
          "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = \
           %d AND SUM(P.a) <= %d MINIMIZE SUM(P.b)"
          count (count * 30)
      in
      let spec = compile rel q in
      let part = Pkg.Partition.create ~tau:50 ~attrs:[ "a"; "b" ] rel in
      match (Pkg.Sketch_refine.run spec rel part).Pkg.Eval.package with
      | Some p -> Pkg.Package.feasible spec p
      | None -> true)

let direct_matches_enumeration_prop =
  (* exercised over three query templates: SUM window, AVG constraint,
     and conditional counts — all features of the ILP translation *)
  let templates =
    [|
      "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 4 \
       AND SUM(P.a) BETWEEN 10 AND 25 MAXIMIZE SUM(P.b)";
      "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 4 \
       AND AVG(P.a) <= 6 MINIMIZE SUM(P.b)";
      "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 4 \
       AND (SELECT COUNT(*) FROM P WHERE a > 5) >= 2 MAXIMIZE SUM(P.b)";
    |]
  in
  QCheck.Test.make ~count:60 ~name:"Direct matches exhaustive enumeration"
    (QCheck.make QCheck.Gen.(pair (int_range 0 5000) (int_range 0 2)))
    (fun (seed, which) ->
      let rng = Datagen.Prng.create (seed + 3) in
      let rel =
        R.of_rows schema
          (List.init 12 (fun _ ->
               [|
                 V.Float (float_of_int (Datagen.Prng.int rng 10));
                 V.Float (float_of_int (Datagen.Prng.int rng 10));
                 V.Str "t";
               |]))
      in
      let spec = compile rel templates.(which) in
      let d = Pkg.Direct.run spec rel in
      let e = Pkg.Naive_sql.run spec rel ~cardinality:4 in
      match d.Pkg.Eval.objective, e.Pkg.Eval.objective with
      | Some od, Some oe -> Float.abs (od -. oe) < 1e-6
      | None, None -> true
      | _ -> false)

let test_partition_save_load () =
  let rel = grid_rel 9 in
  let part = Pkg.Partition.create ~tau:15 ~attrs:[ "a"; "b" ] rel in
  let path = Filename.temp_file "pkgq" ".part" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pkg.Partition.save path part;
      let loaded = Pkg.Partition.load path rel in
      checki "same group count" (Pkg.Partition.num_groups part)
        (Pkg.Partition.num_groups loaded);
      (match Pkg.Partition.check ~tau:15 loaded rel with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (* identical assignment *)
      checkb "same gid map" true
        (loaded.Pkg.Partition.gid_of_row = part.Pkg.Partition.gid_of_row);
      (* loading against a smaller relation must fail cleanly *)
      checkb "bad ids rejected" true
        (try
           ignore (Pkg.Partition.load path (R.prefix rel 5));
           false
         with Invalid_argument _ -> true))

(* Partition invariants hold for random datasets and thresholds. *)
let partition_invariants_prop =
  QCheck.Test.make ~count:50 ~name:"partition invariants on random data"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 400) (int_range 1 50) (int_range 0 999)))
    (fun (n, tau, seed) ->
      let rng = Datagen.Prng.create (seed + 101) in
      let rel =
        R.of_rows schema
          (List.init n (fun _ ->
               [|
                 V.Float (Datagen.Prng.uniform rng (-100.) 100.);
                 V.Float (Datagen.Prng.uniform rng 0. 1.);
                 V.Str "t";
               |]))
      in
      let part = Pkg.Partition.create ~tau ~attrs:[ "a"; "b" ] rel in
      Pkg.Partition.check ~tau part rel = Ok ())

(* ------------------------------------------------------------------ *)
(* The paper suite under the gap stop                                 *)
(* ------------------------------------------------------------------ *)

(* Q1-Q7 of Galaxy (2,000 rows, seed 1) and TPC-H (3,000 rows, seed 2),
   each ILP under a 1,000-node budget: the suite of Figs. 5-6. Every
   package ILP stops at [Eval.rel_gap], so a DIRECT search either
   proves its optimum or proves a gap within it, and each bounds what
   any method may find. DIRECT's own ILP is solved a second time
   through [Faults.solve], the choke point every method goes through,
   for the typed stop reason the report does not carry. *)
let test_suite_direct_bounds () =
  let module B = Ilp.Branch_bound in
  let limits = { B.default_limits with B.max_nodes = 1000 } in
  let gap_stops = ref [] in
  let datasets =
    [ ("galaxy", `Galaxy, Datagen.Galaxy.generate ~seed:1 2000,
       Datagen.Workload.galaxy_queries);
      ("tpch", `Tpch, Datagen.Tpch.generate ~seed:2 3000,
       Datagen.Workload.tpch_queries) ]
  in
  List.iter
    (fun (dataset, kind, rel, queries) ->
      let defs = queries rel in
      let wattrs = Datagen.Workload.workload_attrs defs in
      List.iter
        (fun (def : Datagen.Workload.def) ->
          let cell = dataset ^ "/" ^ def.Datagen.Workload.name in
          let qrel = Datagen.Workload.query_relation ~dataset:kind rel def in
          let spec = Datagen.Workload.compile qrel def in
          let candidates = Paql.Translate.base_candidates spec qrel in
          let problem = Paql.Translate.to_problem spec qrel ~candidates in
          let typed =
            Pkg.Faults.solve ~limits ~stage:Pkg.Eval.Direct problem
          in
          let direct = Pkg.Direct.run ~limits spec qrel in
          let tau = max 1 (R.cardinality qrel / 10) in
          let part = Pkg.Partition.create ~tau ~attrs:wattrs qrel in
          let hier = Pkg.Hierarchy.build ~attrs:wattrs qrel in
          let others =
            [ ( "sketchrefine",
                Pkg.Sketch_refine.run
                  ~options:{ Pkg.Sketch_refine.default_options with limits }
                  spec qrel part );
              ( "progressive",
                fst
                  (Pkg.Progressive.run
                     ~options:{ Pkg.Progressive.default_options with limits }
                     spec qrel hier) ) ]
          in
          (* [slack] is how far another method may beat DIRECT's
             objective, relative to its magnitude *)
          let no_method_beats obj slack =
            List.iter
              (fun (m, (r : Pkg.Eval.report)) ->
                match r.Pkg.Eval.objective with
                | None -> ()
                | Some o ->
                  let beats =
                    if def.Datagen.Workload.maximize then o -. obj
                    else obj -. o
                  in
                  let tol =
                    (slack *. Float.abs obj)
                    +. (1e-6 *. Float.max 1. (Float.abs obj))
                  in
                  if beats > tol then
                    Alcotest.failf "%s: %s %.17g beats DIRECT %.17g" cell m o
                      obj)
              others
          in
          match typed, direct.Pkg.Eval.status, direct.Pkg.Eval.objective with
          | B.Optimal (_, st), Pkg.Eval.Optimal, Some obj ->
            checkb (cell ^ ": no gap stop behind an optimum") true
              (st.B.stopped <> Some B.Stop_gap);
            no_method_beats obj 0.
          | B.Feasible (_, st, g), Pkg.Eval.Feasible g', Some obj ->
            checkb (cell ^ ": DIRECT reports the solver's gap") true (g = g');
            if st.B.stopped = Some B.Stop_gap then begin
              gap_stops := cell :: !gap_stops;
              checkb (cell ^ ": gap within Eval.rel_gap") true
                (g > 0. && g <= Pkg.Eval.rel_gap);
              no_method_beats obj g
            end
          | _, s, _ ->
            Alcotest.failf "%s: solver %a, DIRECT %a" cell B.pp_result typed
              Pkg.Eval.pp_status s)
        defs)
    datasets;
  checkb "the gap stops some DIRECT search" true (!gap_stops <> [])

(* Q1-Q7 of Galaxy (600 rows, seed 1) and TPC-H (600 rows, seed 2)
   through every SketchRefine driver: flat, parallel on one and on two
   domains, and progressive, each ILP under the suite's 1,000-node
   budget. The digest covers each answer's status, objective bits and
   package rows, so a change to any driver's search, seed or ladder
   that moves one answer shows here; the failure message lists every
   answer for the diff. *)
let family_golden = "9357ca4dcdff86fdcb3ed15157a70ccf"

let test_suite_family_golden () =
  let limits = { Ilp.Branch_bound.default_limits with max_nodes = 1000 } in
  let sr_options = { Pkg.Sketch_refine.default_options with limits } in
  let lines = Buffer.create 8192 in
  let record cell (r : Pkg.Eval.report) =
    Buffer.add_string lines
      (Format.asprintf "%s %a %s" cell Pkg.Eval.pp_status r.Pkg.Eval.status
         (match r.Pkg.Eval.objective with
         | Some o -> Printf.sprintf "%h" o
         | None -> "-"));
    Option.iter
      (fun p ->
        List.iter
          (fun (row, c) -> Buffer.add_string lines (Printf.sprintf " %d:%d" row c))
          (Pkg.Package.entries p))
      r.Pkg.Eval.package;
    Buffer.add_char lines '\n'
  in
  List.iter
    (fun (dataset, kind, rel, queries) ->
      let defs = queries rel in
      let wattrs = Datagen.Workload.workload_attrs defs in
      List.iter
        (fun (def : Datagen.Workload.def) ->
          let cell = dataset ^ "/" ^ def.Datagen.Workload.name in
          let qrel = Datagen.Workload.query_relation ~dataset:kind rel def in
          let spec = Datagen.Workload.compile qrel def in
          let tau = max 1 (R.cardinality qrel / 10) in
          let part = Pkg.Partition.create ~tau ~attrs:wattrs qrel in
          let hier = Pkg.Hierarchy.build ~attrs:wattrs qrel in
          record (cell ^ "/sketchrefine")
            (Pkg.Sketch_refine.run ~options:sr_options spec qrel part);
          List.iter
            (fun domains ->
              record
                (Printf.sprintf "%s/parallel%d" cell domains)
                (Pkg.Parallel.run ~options:sr_options ~domains spec qrel part))
            [ 1; 2 ];
          record (cell ^ "/progressive")
            (fst
               (Pkg.Progressive.run
                  ~options:{ Pkg.Progressive.default_options with limits }
                  spec qrel hier)))
        defs)
    [ ("galaxy", `Galaxy, Datagen.Galaxy.generate ~seed:1 600,
       Datagen.Workload.galaxy_queries);
      ("tpch", `Tpch, Datagen.Tpch.generate ~seed:2 600,
       Datagen.Workload.tpch_queries) ];
  let digest = Digest.to_hex (Digest.string (Buffer.contents lines)) in
  if digest <> family_golden then
    Alcotest.failf "family digest %s, expected %s; answers:\n%s" digest
      family_golden (Buffer.contents lines)

let () =
  Alcotest.run "pkg"
    [
      ( "package",
        [
          Alcotest.test_case "basics" `Quick test_package_basics;
          Alcotest.test_case "of_solution" `Quick test_package_of_solution;
          Alcotest.test_case "objective/feasible" `Quick
            test_package_objective_feasible;
        ] );
      ( "partition",
        [
          Alcotest.test_case "invariants" `Quick test_partition_invariants;
          Alcotest.test_case "absolute radius" `Quick
            test_partition_radius_absolute;
          Alcotest.test_case "identical points" `Quick
            test_partition_identical_points;
          Alcotest.test_case "restrict_prefix" `Quick
            test_partition_restrict_prefix;
          Alcotest.test_case "gamma" `Quick test_partition_gamma;
          Alcotest.test_case "errors" `Quick test_partition_errors;
          Alcotest.test_case "save/load" `Quick test_partition_save_load;
        ] );
      ( "direct",
        [
          Alcotest.test_case "small optimum" `Quick test_direct_small;
          Alcotest.test_case "infeasible" `Quick test_direct_infeasible;
          Alcotest.test_case "repetition" `Quick test_direct_repeat;
          Alcotest.test_case "vacuous objective" `Quick
            test_direct_vacuous_objective;
          Alcotest.test_case "empty candidates" `Quick
            test_where_eliminates_everything;
          Alcotest.test_case "package pp" `Quick test_package_pp;
        ] );
      ( "paper_suite",
        [
          Alcotest.test_case "no method beats DIRECT's bound" `Quick
            test_suite_direct_bounds;
          Alcotest.test_case "SketchRefine family golden digest" `Quick
            test_suite_family_golden;
        ] );
      ( "naive_sql",
        [
          Alcotest.test_case "matches direct" `Quick
            test_naive_sql_matches_direct;
          Alcotest.test_case "combination limit" `Quick test_naive_sql_limit;
        ] );
      ( "sketch_refine",
        [
          Alcotest.test_case "feasible and close" `Quick
            test_sketch_refine_feasible_and_close;
          Alcotest.test_case "base predicate" `Quick
            test_sketch_refine_base_predicate;
          Alcotest.test_case "infeasible query" `Quick
            test_sketch_refine_infeasible_query;
          Alcotest.test_case "hybrid sketch rescues" `Quick
            test_hybrid_sketch_rescues;
          Alcotest.test_case "zero-cap groups" `Quick
            test_sketch_caps_zero_groups;
          Alcotest.test_case "repeat caps" `Quick test_sketch_caps_repeat;
          Alcotest.test_case "refine totals helpers" `Quick
            test_refine_totals_helpers;
          Alcotest.test_case "refine scripted search" `Quick
            test_refine_scripted_search;
          Alcotest.test_case "refine scripted budget" `Quick
            test_refine_scripted_budget;
          Alcotest.test_case "refine scripted failure" `Quick
            test_refine_scripted_failure;
          Alcotest.test_case "refine scripted exception" `Quick
            test_refine_scripted_exception;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest approx_bound_prop;
          QCheck_alcotest.to_alcotest sr_always_feasible_prop;
          QCheck_alcotest.to_alcotest direct_matches_enumeration_prop;
          QCheck_alcotest.to_alcotest partition_invariants_prop;
        ] );
    ]
