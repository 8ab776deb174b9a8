(* Tests for the bounded-variable two-phase revised simplex. *)

module P = Lp.Problem
module Sx = Lp.Simplex

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-6)

let solve_optimal p =
  match Sx.solve p with
  | Sx.Optimal s -> s
  | r -> Alcotest.failf "expected optimal, got %a" Sx.pp_result r

(* Classic textbook maximization. *)
let test_textbook_max () =
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var 3.; P.var 5. ]
      ~rows:
        [
          P.row [ (0, 1.) ] ~lo:neg_infinity ~hi:4.;
          P.row [ (1, 2.) ] ~lo:neg_infinity ~hi:12.;
          P.row [ (0, 3.); (1, 2.) ] ~lo:neg_infinity ~hi:18.;
        ]
  in
  let s = solve_optimal p in
  checkf "objective" 36. s.Sx.obj;
  checkf "x" 2. s.Sx.x.(0);
  checkf "y" 6. s.Sx.x.(1)

let test_minimization_with_phase1 () =
  (* min x + y, x + y = 10, 2 <= x - y <= 4: optimum 10 at (6,4) *)
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var 1.; P.var 1. ]
      ~rows:
        [
          P.row [ (0, 1.); (1, 1.) ] ~lo:10. ~hi:10.;
          P.row [ (0, 1.); (1, -1.) ] ~lo:2. ~hi:4.;
        ]
  in
  let s = solve_optimal p in
  checkf "objective" 10. s.Sx.obj;
  checkf "x" 6. s.Sx.x.(0)

let test_infeasible () =
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var 1. ]
      ~rows:
        [
          P.row [ (0, 1.) ] ~lo:5. ~hi:infinity;
          P.row [ (0, 1.) ] ~lo:neg_infinity ~hi:3.;
        ]
  in
  checkb "infeasible" true (Sx.solve p = Sx.Infeasible)

let test_unbounded () =
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var 1. ]
      ~rows:[ P.row [ (0, 1.) ] ~lo:1. ~hi:infinity ]
  in
  checkb "unbounded" true (Sx.solve p = Sx.Unbounded)

let test_bounded_variables () =
  (* fractional knapsack via upper-bounded variables *)
  let vals = [| 6.; 5.; 4.; 3. |] and wts = [| 5.; 4.; 3.; 2. |] in
  let vars = Array.to_list (Array.map (fun v -> P.var ~hi:1. v) vals) in
  let coeffs = Array.to_list (Array.mapi (fun i w -> (i, w)) wts) in
  let p =
    P.make ~sense:P.Maximize ~vars
      ~rows:[ P.row coeffs ~lo:neg_infinity ~hi:10. ]
  in
  let s = solve_optimal p in
  checkf "objective" 13.2 s.Sx.obj;
  checkf "fractional item" 0.2 s.Sx.x.(0)

let test_fixed_and_free_variables () =
  (* y is fixed at 2; z is free (appears with negative cost) *)
  let p =
    P.make ~sense:P.Minimize
      ~vars:
        [
          P.var 1.;
          P.var ~lo:2. ~hi:2. 5.;
          P.var ~lo:neg_infinity ~hi:infinity 1.;
        ]
      ~rows:
        [
          P.row [ (0, 1.); (1, 1.); (2, 1.) ] ~lo:5. ~hi:5.;
          P.row [ (2, 1.) ] ~lo:(-3.) ~hi:infinity;
        ]
  in
  let s = solve_optimal p in
  checkf "fixed var" 2. s.Sx.x.(1);
  (* x and z share a cost, so any split of x + z = 3 with z >= -3 is
     optimal; only the objective is pinned *)
  checkf "objective" 13. s.Sx.obj;
  checkb "free var within row bound" true (s.Sx.x.(2) >= -3. -. 1e-9)

let test_equality_row () =
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var 2.; P.var 1. ]
      ~rows:[ P.row [ (0, 1.); (1, 1.) ] ~lo:7. ~hi:7. ]
  in
  let s = solve_optimal p in
  checkf "obj" 14. s.Sx.obj;
  checkf "x takes all" 7. s.Sx.x.(0)

let test_empty_row_feasibility () =
  (* a row with no coefficients is feasible iff 0 lies in its range *)
  let feasible_p =
    P.make ~sense:P.Minimize ~vars:[ P.var 1. ]
      ~rows:[ P.row [] ~lo:(-1.) ~hi:1. ]
  in
  (match Sx.solve feasible_p with
  | Sx.Optimal _ -> ()
  | r -> Alcotest.failf "expected optimal, got %a" Sx.pp_result r);
  let infeasible_p =
    P.make ~sense:P.Minimize ~vars:[ P.var 1. ]
      ~rows:[ P.row [] ~lo:3. ~hi:4. ]
  in
  checkb "empty row infeasible" true (Sx.solve infeasible_p = Sx.Infeasible)

let test_degenerate () =
  (* many redundant constraints through the optimum *)
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var 1.; P.var 1. ]
      ~rows:
        [
          P.row [ (0, 1.); (1, 1.) ] ~lo:neg_infinity ~hi:10.;
          P.row [ (0, 2.); (1, 2.) ] ~lo:neg_infinity ~hi:20.;
          P.row [ (0, 1.) ] ~lo:neg_infinity ~hi:10.;
          P.row [ (1, 1.) ] ~lo:neg_infinity ~hi:10.;
          P.row [ (0, 3.); (1, 3.) ] ~lo:neg_infinity ~hi:30.;
        ]
  in
  let s = solve_optimal p in
  checkf "objective" 10. s.Sx.obj

let test_negative_bounds () =
  (* min x with x in [-5, -1] and x >= -3 via a row *)
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var ~lo:(-5.) ~hi:(-1.) 1. ]
      ~rows:[ P.row [ (0, 1.) ] ~lo:(-3.) ~hi:infinity ]
  in
  let s = solve_optimal p in
  checkf "objective" (-3.) s.Sx.obj

let test_no_rows () =
  (* pure bound problem: min -x with x <= 9 *)
  let p = P.make ~sense:P.Maximize ~vars:[ P.var ~hi:9. 1. ] ~rows:[] in
  let s = solve_optimal p in
  checkf "objective" 9. s.Sx.obj

(* A problem is validated once, by the constructor that builds it, so
   no malformed problem reaches a solver. *)
let test_validate () =
  let rejects name msg build =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (build ()))
  in
  rejects "lo>hi var" "Problem.make: variable 0 has lo > hi" (fun () ->
      P.make ~sense:P.Minimize ~vars:[ P.var ~lo:2. ~hi:1. 0. ] ~rows:[]);
  rejects "lo>hi row" "Problem.make: row 0 has lo > hi" (fun () ->
      P.make ~sense:P.Minimize ~vars:[ P.var 0. ]
        ~rows:[ P.row [ (0, 1.) ] ~lo:1. ~hi:0. ]);
  rejects "bad index" "Problem.make: row 0 references variable 5" (fun () ->
      P.make ~sense:P.Minimize ~vars:[ P.var 0. ]
        ~rows:[ P.row [ (5, 1.) ] ~lo:0. ~hi:1. ]);
  rejects "columns lo>hi var" "Problem.columns: variable 1 has lo > hi"
    (fun () ->
      P.columns ~sense:P.Minimize ~obj:(fun _ -> 0.)
        ~hi:(fun k -> if k = 1 then -1. else 1.)
        ~rows:[] 2);
  rejects "columns lo>hi row" "Problem.columns: row 0 has lo > hi" (fun () ->
      P.columns ~sense:P.Minimize ~obj:(fun _ -> 0.) ~hi:(fun _ -> 1.)
        ~rows:[ ((fun _ -> 1.), 2., 1.) ]
        2)

let test_feasible_predicate () =
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var ~integer:true ~hi:5. 1. ]
      ~rows:[ P.row [ (0, 2.) ] ~lo:2. ~hi:6. ]
  in
  checkb "feasible point" true (P.feasible p [| 2. |]);
  checkb "violates row" false (P.feasible p [| 5. |]);
  checkb "violates integrality" false (P.feasible p [| 1.5 |]);
  checkf "objective eval" 2. (P.objective p [| 2. |])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Generate random LPs with box-bounded variables (always feasible by
   construction of bounds) and random <=-rows made loose enough to stay
   feasible; check optimality against random feasible sampling. *)
let random_lp_gen =
  QCheck.Gen.(
    let small_float = map (fun i -> float_of_int i /. 4.) (int_range (-20) 20) in
    let nvars = int_range 1 6 in
    nvars >>= fun n ->
    list_size (return n) small_float >>= fun costs ->
    list_size (int_range 0 3)
      (list_size (return n) small_float)
    >>= fun row_coeffs ->
    return (n, costs, row_coeffs))

let lp_of (n, costs, row_coeffs) =
  let vars = List.map (fun c -> P.var ~lo:0. ~hi:1. c) costs in
  let rows =
    List.map
      (fun coeffs ->
        let indexed = List.mapi (fun i c -> (i, c)) coeffs in
        (* loose bound: sum of positive coefficients, so x = 0 is
           always feasible and the row can still bind *)
        let hi =
          List.fold_left (fun acc c -> acc +. Float.max 0. c) 0. coeffs /. 2.
        in
        P.row indexed ~lo:neg_infinity ~hi)
      row_coeffs
  in
  ignore n;
  P.make ~sense:P.Maximize ~vars ~rows

let prop_simplex_feasible_and_dominant =
  QCheck.Test.make ~count:300
    ~name:"simplex result is feasible and dominates random feasible points"
    (QCheck.make random_lp_gen)
    (fun input ->
      let p = lp_of input in
      match Sx.solve p with
      | Sx.Optimal s ->
        if not (P.feasible ~tol:1e-5 p s.Sx.x) then false
        else begin
          (* sample random points; keep feasible ones *)
          let n = P.nvars p in
          let rng = Random.State.make [| Hashtbl.hash input |] in
          let dominated = ref true in
          for _ = 1 to 50 do
            let x =
              Array.init n (fun _ -> Random.State.float rng 1.0)
            in
            if P.feasible ~tol:0. p x then
              if P.objective p x > s.Sx.obj +. 1e-5 then dominated := false
          done;
          !dominated
        end
      | Sx.Infeasible -> false (* x = 0 is always feasible here *)
      | Sx.Unbounded -> false (* variables are boxed *)
      | Sx.Iter_limit -> false)

(* Scaling invariance: multiplying the objective by a positive constant
   scales the optimum. *)
let prop_objective_scaling =
  QCheck.Test.make ~count:100 ~name:"objective scaling"
    (QCheck.make random_lp_gen)
    (fun input ->
      let p = lp_of input in
      let scaled = { p with P.obj = Array.map (fun c -> 3. *. c) p.P.obj } in
      match Sx.solve p, Sx.solve scaled with
      | Sx.Optimal a, Sx.Optimal b -> Float.abs ((3. *. a.Sx.obj) -. b.Sx.obj) < 1e-5
      | _ -> false)

let test_iteration_limit () =
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var 1.; P.var 1. ]
      ~rows:
        [
          P.row [ (0, 1.); (1, 1.) ] ~lo:10. ~hi:10.;
          P.row [ (0, 1.); (1, -1.) ] ~lo:2. ~hi:4.;
        ]
  in
  checkb "iteration limit surfaces" true
    (Sx.solve ~max_iters:1 p = Sx.Iter_limit)

(* max c.x equals -min (-c).x *)
let prop_sense_symmetry =
  QCheck.Test.make ~count:100 ~name:"maximize/minimize symmetry"
    (QCheck.make random_lp_gen)
    (fun input ->
      let p = lp_of input in
      let negated =
        { p with P.sense = P.Minimize; obj = Array.map Float.neg p.P.obj }
      in
      match Sx.solve p, Sx.solve negated with
      | Sx.Optimal a, Sx.Optimal b -> Float.abs (a.Sx.obj +. b.Sx.obj) < 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* MPS writer                                                         *)
(* ------------------------------------------------------------------ *)

(* Every row kind (L, G, ranged, E), the integrality markers, and every
   bound shape (LO/UP, FR, FX) in one problem. *)
let mps_problem =
  P.make ~sense:P.Maximize
    ~vars:
      [
        P.var ~integer:true ~hi:3. 5.;
        P.var ~lo:(-2.) ~hi:2. (-1.);
        P.var ~lo:neg_infinity ~hi:infinity 0.5;
        P.var ~lo:1. ~hi:1. 2.;
      ]
    ~rows:
      [
        P.row [ (0, 2.); (1, 1.) ] ~lo:neg_infinity ~hi:7.;
        P.row [ (1, 1.); (2, 1.) ] ~lo:(-4.) ~hi:infinity;
        P.row [ (0, 1.); (2, 2.) ] ~lo:1. ~hi:5.;
        P.row [ (3, 1.); (0, 1.) ] ~lo:2. ~hi:2.;
      ]

(* The problem carries no names: the writer is handed them, and an
   empty one falls back to [x<j>]. *)
let mps_col_name = Array.get [| "buy"; "hold"; ""; "" |]
let mps_row_name = Array.get [| "cap"; "floor"; "win"; "exact" |]

let mps_golden =
  String.concat "\n"
    [
      "NAME          PKGQ";
      "OBJSENSE";
      "    MAX";
      "ROWS";
      " N  OBJ";
      " L  cap";
      " G  floor";
      " L  win";
      " E  exact";
      "COLUMNS";
      "    MARKER                 'MARKER'                 'INTORG'";
      "    buy  OBJ  5";
      "    buy  cap  2";
      "    buy  win  1";
      "    buy  exact  1";
      "    MARKER                 'MARKER'                 'INTEND'";
      "    hold  OBJ  -1";
      "    hold  cap  1";
      "    hold  floor  1";
      "    x2  OBJ  0.5";
      "    x2  floor  1";
      "    x2  win  2";
      "    x3  OBJ  2";
      "    x3  exact  1";
      "RHS";
      "    RHS  cap  7";
      "    RHS  floor  -4";
      "    RHS  win  5";
      "    RHS  exact  2";
      "RANGES";
      "    RNG  win  4";
      "BOUNDS";
      " LO BND  buy  0";
      " UP BND  buy  3";
      " LO BND  hold  -2";
      " UP BND  hold  2";
      " FR BND  x2";
      " FX BND  x3  1";
      "ENDATA";
      "";
    ]

let test_mps_golden_bytes () =
  Alcotest.(check string) "to_string" mps_golden (Lp.Mps.to_string ~col_name:mps_col_name ~row_name:mps_row_name mps_problem)

let test_mps_file_io () =
  let path = Filename.temp_file "pkgq" ".mps" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lp.Mps.write ~col_name:mps_col_name ~row_name:mps_row_name path
        mps_problem;
      Alcotest.(check string)
        "write puts to_string's bytes" mps_golden
        (In_channel.with_open_bin path In_channel.input_all))

(* Problem's arithmetic against the left folds it is defined as, bit for
   bit: objective over the columns in order, each row activity over its
   coefficients in column order (a stable sort of the row's list, so a
   repeated column keeps its list order; the zero coefficients the
   column layout drops add a signed zero, which leaves a fold that
   starts at [0.] unchanged), and feasibility as the conjunction of the
   bound, integrality and row checks. Values come from a pool rich in
   signed zeros, halves, tiny and huge magnitudes; bounds may be
   infinite and rows may repeat a variable. Each bound pair is put in
   order first: a crossed pair is rejected when the problem is built
   (see "validate"). *)
let ref_objective vars x =
  let acc = ref 0. in
  List.iteri (fun j (o, _, _, _) -> acc := !acc +. (o *. x.(j))) vars;
  !acc

let ref_row_value coeffs x =
  List.fold_left
    (fun acc (j, a) -> acc +. (a *. x.(j)))
    0.
    (List.stable_sort (fun (i, _) (j, _) -> compare i j) coeffs)

let ref_feasible ~tol vars rows x =
  Array.length x = List.length vars
  && List.for_all2
       (fun (_, lo, hi, integer) xj ->
         xj >= lo -. tol && xj <= hi +. tol
         && ((not integer) || Float.abs (xj -. Float.round xj) <= tol))
       vars (Array.to_list x)
  && List.for_all
       (fun (c, lo, hi) ->
         let v = ref_row_value c x in
         v >= lo -. tol && v <= hi +. tol)
       rows

let arith_gen =
  QCheck.Gen.(
    let value =
      oneof
        [
          oneofl
            [ 0.; -0.; 0.5; -0.5; 1.; -1.; 2.5; 1e-7; -1e-7; 1e300; -1e300;
              3.0000001; 0.1 ];
          map (fun i -> float_of_int i /. 4.) (int_range (-12) 12);
          float_range (-10.) 10.;
        ]
    in
    let bound = oneof [ value; oneofl [ infinity; neg_infinity ] ] in
    let bounds =
      map (fun (a, b) -> (Float.min a b, Float.max a b)) (pair bound bound)
    in
    int_range 1 6 >>= fun n ->
    list_repeat n
      (map (fun (o, (lo, hi), i) -> (o, lo, hi, i)) (triple value bounds bool))
    >>= fun vars ->
    list_size (int_range 0 4)
      (pair (list_size (int_range 0 8) (pair (int_range 0 (n - 1)) value)) bounds)
    >>= fun rows ->
    let rows = List.map (fun (c, (lo, hi)) -> (c, lo, hi)) rows in
    list_repeat n value >>= fun x ->
    return (vars, rows, Array.of_list x))

let arith_print (vars, rows, x) =
  Printf.sprintf "vars=[%s] rows=[%s] x=[%s]"
    (String.concat "; "
       (List.map
          (fun (o, lo, hi, i) -> Printf.sprintf "(%h,%h,%h,%b)" o lo hi i)
          vars))
    (String.concat "; "
       (List.map
          (fun (c, lo, hi) ->
            Printf.sprintf "(%s | %h,%h)"
              (String.concat " "
                 (List.map (fun (j, a) -> Printf.sprintf "%d:%h" j a) c))
              lo hi)
          rows))
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") x)))

let prop_problem_arithmetic =
  QCheck.Test.make ~count:1000
    ~name:"objective/activities/feasible match left folds bit for bit"
    (QCheck.make ~print:arith_print arith_gen)
    (fun (vars, rows, x) ->
      let p =
        P.make ~sense:P.Maximize
          ~vars:
            (List.map
               (fun (o, lo, hi, integer) -> P.var ~integer ~lo ~hi o)
               vars)
          ~rows:(List.map (fun (c, lo, hi) -> P.row c ~lo ~hi) rows)
      in
      let bits = Int64.bits_of_float in
      let short = Array.sub x 0 (Array.length x - 1) in
      bits (P.objective p x) = bits (ref_objective vars x)
      && List.equal
           (fun a b -> bits a = bits b)
           (Array.to_list (P.activities p x))
           (List.map (fun (c, _, _) -> ref_row_value c x) rows)
      && List.for_all
           (fun tol ->
             P.feasible ~tol p x = ref_feasible ~tol vars rows x
             && P.feasible ~tol p short = ref_feasible ~tol vars rows short)
           [ 0.; 1e-6; 0.5 ]
      && P.feasible p x = ref_feasible ~tol:1e-6 vars rows x)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "phase-1 minimization" `Quick
            test_minimization_with_phase1;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "bounded variables" `Quick test_bounded_variables;
          Alcotest.test_case "fixed and free variables" `Quick
            test_fixed_and_free_variables;
          Alcotest.test_case "equality row" `Quick test_equality_row;
          Alcotest.test_case "empty rows" `Quick test_empty_row_feasibility;
          Alcotest.test_case "degenerate constraints" `Quick test_degenerate;
          Alcotest.test_case "negative bounds" `Quick test_negative_bounds;
          Alcotest.test_case "no rows" `Quick test_no_rows;
          Alcotest.test_case "iteration limit" `Quick test_iteration_limit;
        ] );
      ( "problem",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "feasible/objective" `Quick
            test_feasible_predicate;
        ] );
      ( "mps",
        [
          Alcotest.test_case "to_string golden bytes" `Quick
            test_mps_golden_bytes;
          Alcotest.test_case "file io" `Quick test_mps_file_io;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_simplex_feasible_and_dominant;
          QCheck_alcotest.to_alcotest prop_objective_scaling;
          QCheck_alcotest.to_alcotest prop_sense_symmetry;
          QCheck_alcotest.to_alcotest prop_problem_arithmetic;
        ] );
    ]
