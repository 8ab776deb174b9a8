(* Tests for branch-and-bound integer programming and IIS extraction. *)

module P = Lp.Problem
module B = Ilp.Branch_bound

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-6)

let solve_optimal p =
  match B.solve p with
  | B.Optimal (s, _) -> s
  | r -> Alcotest.failf "expected optimal, got %a" B.pp_result r

let knapsack ~vals ~wts ~cap =
  let vars = Array.to_list (Array.map (fun v -> P.var ~integer:true ~hi:1. v) vals) in
  let coeffs = Array.to_list (Array.mapi (fun i w -> (i, w)) wts) in
  P.make ~sense:P.Maximize ~vars
    ~rows:[ P.row coeffs ~lo:neg_infinity ~hi:cap ]

let test_knapsack () =
  let s =
    solve_optimal
      (knapsack ~vals:[| 6.; 5.; 4.; 3. |] ~wts:[| 5.; 4.; 3.; 2. |] ~cap:10.)
  in
  checkf "objective" 13. s.B.obj;
  checkf "item 0" 1. s.B.x.(0);
  checkf "item 1" 0. s.B.x.(1)

let test_equality_cardinality () =
  (* pick exactly 3 of 6 with a sum window — a mini package query *)
  let costs = [| 9.; 1.; 8.; 2.; 7.; 3. |] and w = [| 5.; 4.; 3.; 6.; 2.; 4. |] in
  let vars = Array.to_list (Array.map (fun c -> P.var ~integer:true ~hi:1. c) costs) in
  let p =
    P.make ~sense:P.Minimize ~vars
      ~rows:
        [
          P.row (List.init 6 (fun i -> (i, 1.))) ~lo:3. ~hi:3.;
          P.row (Array.to_list (Array.mapi (fun i wi -> (i, wi)) w)) ~lo:10.
            ~hi:12.;
        ]
  in
  let s = solve_optimal p in
  checkf "objective" 10. s.B.obj

let test_integer_rounding_matters () =
  (* LP relaxation is fractional; ILP optimum differs from rounded LP *)
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var ~integer:true ~hi:10. 1.; P.var ~integer:true ~hi:10. 1. ]
      ~rows:[ P.row [ (0, 2.); (1, 2.) ] ~lo:neg_infinity ~hi:7. ]
  in
  let s = solve_optimal p in
  checkf "objective" 3. s.B.obj;
  checkb "integral" true
    (Array.for_all (fun x -> Float.abs (x -. Float.round x) < 1e-9) s.B.x)

let test_infeasible_ilp () =
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var ~integer:true ~hi:10. 1. ]
      ~rows:
        [
          P.row [ (0, 1.) ] ~lo:5. ~hi:infinity;
          P.row [ (0, 1.) ] ~lo:neg_infinity ~hi:3.;
        ]
  in
  checkb "infeasible" true
    (match B.solve p with B.Infeasible _ -> true | _ -> false)

let test_integer_gap_infeasible () =
  (* LP relaxation feasible (x = 2.5) but no integer point: 2x in [4.6, 5.4] *)
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var ~integer:true ~hi:10. 1. ]
      ~rows:[ P.row [ (0, 2.) ] ~lo:4.6 ~hi:5.4 ]
  in
  checkb "integer-infeasible" true
    (match B.solve p with B.Infeasible _ -> true | _ -> false)

let test_unbounded_ilp () =
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var ~integer:true 1. ]
      ~rows:[ P.row [ (0, 1.) ] ~lo:0. ~hi:infinity ]
  in
  checkb "unbounded" true
    (match B.solve p with B.Unbounded _ -> true | _ -> false)

let test_mixed_integer () =
  (* one integer, one continuous variable *)
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var ~integer:true ~hi:10. 3.; P.var ~hi:10. 1. ]
      ~rows:[ P.row [ (0, 2.); (1, 1.) ] ~lo:neg_infinity ~hi:7.5 ]
  in
  let s = solve_optimal p in
  checkf "objective" 10.5 s.B.obj;
  checkf "integer part" 3. s.B.x.(0);
  checkf "continuous part" 1.5 s.B.x.(1)

let test_repetition_bounds () =
  (* variables bounded above by K+1, the REPEAT translation *)
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var ~integer:true ~hi:3. 5.; P.var ~integer:true ~hi:3. 4. ]
      ~rows:[ P.row [ (0, 1.); (1, 1.) ] ~lo:4. ~hi:4. ]
  in
  let s = solve_optimal p in
  checkf "objective" 19. s.B.obj;
  checkf "repeated tuple" 3. s.B.x.(0)

let test_node_limit () =
  (* a subset-sum-ish instance with a tiny node budget: must terminate
     with a definite status, never loop *)
  let n = 30 in
  let rng = Random.State.make [| 5 |] in
  let vals = Array.init n (fun _ -> 1. +. Random.State.float rng 10.) in
  let wts = Array.init n (fun _ -> 1. +. Random.State.float rng 10.) in
  let vars = Array.to_list (Array.map (fun v -> P.var ~integer:true ~hi:1. v) vals) in
  let coeffs = Array.to_list (Array.mapi (fun i w -> (i, w)) wts) in
  let p =
    P.make ~sense:P.Maximize ~vars ~rows:[ P.row coeffs ~lo:49.9 ~hi:50.1 ]
  in
  match B.solve ~limits:{ B.default_limits with max_nodes = 3; max_seconds = 10. } p with
  | B.Optimal _ | B.Feasible _ | B.Limit _ | B.Infeasible _ -> ()
  | B.Unbounded _ -> Alcotest.fail "unexpected unbounded"

let test_stats_and_accessors () =
  let p = knapsack ~vals:[| 2.; 3. |] ~wts:[| 1.; 1. |] ~cap:1. in
  let r = B.solve p in
  let st = B.stats_of r in
  checkb "nodes counted" true (st.B.nodes >= 0);
  checkb "solution_of" true
    (match B.solution_of r with Some s -> s.B.obj = 3. | None -> false)

(* ------------------------------------------------------------------ *)
(* IIS                                                                *)
(* ------------------------------------------------------------------ *)

let test_iis_feasible () =
  let p = knapsack ~vals:[| 1. |] ~wts:[| 1. |] ~cap:1. in
  checkb "feasible -> None" true (Ilp.Iis.rows p = None)

let test_iis_minimal () =
  (* rows 0 and 1 conflict; row 2 is irrelevant *)
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var ~hi:10. 1. ]
      ~rows:
        [
          P.row [ (0, 1.) ] ~lo:5. ~hi:infinity;
          P.row [ (0, 1.) ] ~lo:neg_infinity ~hi:3.;
          P.row [ (0, 2.) ] ~lo:0. ~hi:100.;
        ]
  in
  match Ilp.Iis.rows p with
  | Some rows ->
    Alcotest.(check (list int)) "conflicting rows" [ 0; 1 ] rows;
    List.iter
      (fun drop ->
        let remaining = List.filter (( <> ) drop) [ 0; 1; 2 ] in
        let p' = P.sub p ~cols:[| 0 |] ~rows:(Array.of_list remaining) in
        checkb "subset feasible" true (Ilp.Iis.rows p' = None))
      rows
  | None -> Alcotest.fail "expected infeasible"

let test_iis_bound_conflict () =
  (* infeasibility caused by variable bounds vs a single row *)
  let p =
    P.make ~sense:P.Minimize
      ~vars:[ P.var ~lo:0. ~hi:1. 1. ]
      ~rows:[ P.row [ (0, 1.) ] ~lo:5. ~hi:infinity ]
  in
  match Ilp.Iis.rows p with
  | Some [ 0 ] -> ()
  | Some other ->
    Alcotest.failf "unexpected IIS %s"
      (String.concat "," (List.map string_of_int other))
  | None -> Alcotest.fail "expected infeasible"

(* ------------------------------------------------------------------ *)
(* Properties: B&B vs exhaustive enumeration                           *)
(* ------------------------------------------------------------------ *)

let random_ilp_gen =
  QCheck.Gen.(
    let coeff = map (fun i -> float_of_int i) (int_range (-5) 9) in
    int_range 2 9 >>= fun n ->
    list_size (return n) coeff >>= fun costs ->
    list_size (int_range 1 3) (list_size (return n) coeff) >>= fun rows ->
    list_size (return (List.length rows)) (int_range 2 25) >>= fun caps ->
    return (costs, rows, List.map float_of_int caps))

let ilp_of (costs, row_coeffs, caps) =
  let vars = List.map (fun c -> P.var ~integer:true ~lo:0. ~hi:1. c) costs in
  let rows =
    List.map2
      (fun coeffs cap ->
        P.row (List.mapi (fun i c -> (i, c)) coeffs) ~lo:neg_infinity ~hi:cap)
      row_coeffs caps
  in
  P.make ~sense:P.Maximize ~vars ~rows

(* exhaustive optimum over binary assignments *)
let brute_force p =
  let n = P.nvars p in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> if mask land (1 lsl i) <> 0 then 1. else 0.) in
    if P.feasible p x then begin
      let obj = P.objective p x in
      match !best with
      | Some b when b >= obj -> ()
      | _ -> best := Some obj
    end
  done;
  !best

let prop_bb_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"branch&bound matches exhaustive search"
    (QCheck.make random_ilp_gen)
    (fun input ->
      let p = ilp_of input in
      match brute_force p, B.solve p with
      | Some opt, B.Optimal (s, _) -> Float.abs (opt -. s.B.obj) < 1e-6
      | None, B.Infeasible _ -> true
      | Some _, B.Infeasible _ | None, B.Optimal _ -> false
      | _, (B.Feasible _ | B.Limit _ | B.Unbounded _) -> false)

let prop_bb_rel_gap_within_tolerance =
  QCheck.Test.make ~count:200 ~name:"rel_gap solutions are within the gap"
    (QCheck.make random_ilp_gen)
    (fun input ->
      let p = ilp_of input in
      let gap = 0.05 in
      (* maximization: the gap-stopped incumbent may be below the exact
         optimum by at most [bound] * |approx| (plus epsilon) *)
      let within exact approx bound =
        exact.B.obj -. approx.B.obj
        <= (bound *. Float.max 1e-9 (Float.abs approx.B.obj)) +. 1e-6
      in
      match B.solve p, B.solve ~rel_gap:gap p with
      | B.Optimal (exact, _), B.Optimal (approx, st) ->
        st.B.stopped = None && within exact approx gap
      | B.Optimal (exact, _), (B.Feasible (approx, st, g) as r) ->
        (* a gap stop reports the gap it proved, which bounds the
           distance to the exact optimum *)
        (st.B.stopped = Some B.Stop_gap
        && g > 0. && g <= gap
        && within exact approx gap
        && within exact approx g)
        || QCheck.Test.fail_reportf "exact obj=%g, gap %a" exact.B.obj
             B.pp_result r
      | B.Infeasible _, B.Infeasible _ -> true
      | a, b ->
        QCheck.Test.fail_reportf "exact %a, gap %a" B.pp_result a B.pp_result b)

(* With no gap the slack is zero, so no node is ever dropped by it:
   the search, its stats and its answer are those of a solve without
   the argument. *)
let prop_bb_zero_gap_is_exact =
  QCheck.Test.make ~count:200 ~name:"rel_gap 0 is the exact search"
    (QCheck.make random_ilp_gen)
    (fun input ->
      let p = ilp_of input in
      let a = B.solve p and b = B.solve ~rel_gap:0. p in
      let same_stats (x : B.stats) (y : B.stats) =
        x.B.nodes = y.B.nodes
        && x.B.lp = y.B.lp
        && x.B.stopped = y.B.stopped
      in
      let same_sol (x : B.sol) (y : B.sol) =
        Int64.bits_of_float x.B.obj = Int64.bits_of_float y.B.obj
        && Array.for_all2
             (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
             x.B.x y.B.x
      in
      (B.stats_of b).B.stopped <> Some B.Stop_gap
      &&
      match a, b with
      | B.Optimal (x, sx), B.Optimal (y, sy) -> same_sol x y && same_stats sx sy
      | B.Feasible (x, sx, gx), B.Feasible (y, sy, gy) ->
        same_sol x y && same_stats sx sy
        && Int64.bits_of_float gx = Int64.bits_of_float gy
      | B.Infeasible sx, B.Infeasible sy
      | B.Unbounded sx, B.Unbounded sy
      | B.Limit sx, B.Limit sy ->
        same_stats sx sy
      | _ -> false)

let prop_bb_solution_feasible =
  QCheck.Test.make ~count:200 ~name:"branch&bound solutions are feasible"
    (QCheck.make random_ilp_gen)
    (fun input ->
      let p = ilp_of input in
      match B.solve p with
      | B.Optimal (s, _) | B.Feasible (s, _, _) -> P.feasible p s.B.x
      | B.Infeasible _ | B.Limit _ -> true
      | B.Unbounded _ -> false)

(* Reduced-cost fixing and compaction against enumeration. Each
   column is an integer in [0, 2] or [0, 3] (REPEAT 1 or 2) with a cost
   of either sign in units, tens or hundreds, so the root LP rests
   columns on both bounds and an incumbent lets the search fix many of
   them. The rows are a weighted cardinality equality and one or two
   ranged rows with one-decimal coefficients, equalities when their
   width is 0; all hold at a planted integer point, so most cases are
   feasible, and a ranged row's bounds sit off the lattice of
   activities, so a root pressed against one is fractional. Both
   senses are drawn. *)
let fixing_ilp_gen =
  QCheck.Gen.(
    int_range 6 12 >>= fun n ->
    bool >>= fun maximize ->
    list_size (return n)
      (int_range 2 3 >>= fun hi ->
       int_range 0 hi >>= fun planted ->
       int_range 1 2 >>= fun weight ->
       map2 ( * ) (int_range (-9) 9) (oneofl [ 1; 10; 100 ])
       >>= fun cost -> return (hi, planted, weight, cost))
    >>= fun cols ->
    list_size
      (frequency [ (3, return 1); (1, return 2) ])
      (triple (list_size (return n) (int_range (-30) 60)) (int_range 0 60)
         (frequency
            [
              (1, return 0); (3, return 60); (3, return 120); (2, return 240);
            ]))
    >>= fun ranged -> return (maximize, cols, ranged))

let fixing_ilp (maximize, cols, ranged) =
  let vars =
    List.map
      (fun (hi, _, _, c) ->
        P.var ~integer:true ~lo:0. ~hi:(float_of_int hi) (float_of_int c))
      cols
  in
  let planted = List.map (fun (_, x, _, _) -> x) cols in
  (* coefficients and bounds in units of [1 / scale]; [shave] widens
     the range by a fraction of a unit on each side *)
  let row ~scale ~shave coeffs ~below ~above =
    let act = List.fold_left2 (fun acc a x -> acc + (a * x)) 0 coeffs planted in
    let f k = float_of_int k /. scale in
    P.row
      (List.mapi (fun j a -> (j, f a)) coeffs)
      ~lo:(f (act - below) -. (shave /. scale))
      ~hi:(f (act + above) +. (shave /. scale))
  in
  let rows =
    row ~scale:1. ~shave:0.
      (List.map (fun (_, _, w, _) -> w) cols)
      ~below:0 ~above:0
    :: List.map
         (fun (coeffs, below, width) ->
           let below = min below width in
           row ~scale:10.
             ~shave:(if width = 0 then 0. else 0.37)
             coeffs ~below ~above:(width - below))
         ranged
  in
  P.make ~sense:(if maximize then P.Maximize else P.Minimize) ~vars ~rows

(* The exact optimum by depth-first enumeration of every integer point,
   cutting a branch only when some row can no longer reach its range or
   no completion can match the best point found so far. *)
let enumerate p =
  let n = P.nvars p in
  let coeff = Array.map (fun _ -> Array.make n 0.) p.P.rlo in
  for j = 0 to n - 1 do
    for k = p.P.cstart.(j) to p.P.cstart.(j + 1) - 1 do
      coeff.(p.P.crow.(k)).(j) <- p.P.cval.(k)
    done
  done;
  (* least and greatest activity of each row over the columns [j, n) *)
  let reach f =
    Array.map
      (fun a ->
        let s = Array.make (n + 1) 0. in
        for j = n - 1 downto 0 do
          s.(j) <- s.(j + 1) +. f (a.(j) *. p.P.lo.(j)) (a.(j) *. p.P.hi.(j))
        done;
        s)
      coeff
  in
  let least = reach Float.min and most = reach Float.max in
  let sign = match p.P.sense with P.Maximize -> 1. | P.Minimize -> -1. in
  (* the most each suffix of columns can add to [sign * objective] *)
  let gain = Array.make (n + 1) 0. in
  for j = n - 1 downto 0 do
    let c = sign *. p.P.obj.(j) in
    gain.(j) <- gain.(j + 1) +. Float.max (c *. p.P.lo.(j)) (c *. p.P.hi.(j))
  done;
  let x = Array.make n 0. and act = Array.make (P.nrows p) 0. in
  let best = ref None and partial = ref 0. in
  let rec go j =
    let alive =
      ref
        (match !best with
        | Some b -> !partial +. gain.(j) >= (sign *. b) -. 1e-6
        | None -> true)
    in
    for i = 0 to P.nrows p - 1 do
      if
        act.(i) +. least.(i).(j) > p.P.rhi.(i) +. 1e-9
        || act.(i) +. most.(i).(j) < p.P.rlo.(i) -. 1e-9
      then alive := false
    done;
    if !alive then
      if j = n then begin
        let obj = P.objective p x in
        match !best with
        | Some b when sign *. b >= sign *. obj -> ()
        | _ -> best := Some obj
      end
      else begin
        let c = sign *. p.P.obj.(j) in
        for k = int_of_float p.P.lo.(j) to int_of_float p.P.hi.(j) do
          x.(j) <- float_of_int k;
          Array.iteri (fun i a -> act.(i) <- act.(i) +. (a.(j) *. x.(j))) coeff;
          partial := !partial +. (c *. x.(j));
          go (j + 1);
          partial := !partial -. (c *. x.(j));
          Array.iteri (fun i a -> act.(i) <- act.(i) -. (a.(j) *. x.(j))) coeff
        done;
        x.(j) <- 0.
      end
  in
  go 0;
  !best

(* Fixing runs only in a search, so the ILPs whose root LP is already
   integral are checked for exactness but not counted towards
   compaction. [root_shape p] is whether the root LP point is
   fractional, and whether it rests a column on an upper bound above
   1 (a REPEAT bound). *)
let root_shape p =
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal s ->
    let x = s.Lp.Simplex.x in
    ( Array.exists (fun v -> Float.abs (v -. Float.round v) > 1e-6) x,
      Array.exists2 (fun v hi -> hi >= 2. && v = hi) x p.P.hi )
  | _ -> (false, false)

(* One case is a batch of 100 ILPs: every one must match enumeration,
   some root must rest a column on its REPEAT bound, and at least a
   third of the ILPs whose root LP is fractional must end on a
   compacted ILP. *)
let prop_fixing_matches_enumeration =
  QCheck.Test.make ~count:6
    ~name:"fixing and compaction match exhaustive enumeration"
    (QCheck.make QCheck.Gen.(list_size (return 100) fixing_ilp_gen))
    (fun batch ->
      let searched = ref 0 and compacted = ref 0 and at_upper = ref 0 in
      List.iter
        (fun input ->
          let p = fixing_ilp input in
          let r = B.solve p in
          (match (enumerate p, r) with
          | Some opt, B.Optimal (s, _)
            when Float.abs (opt -. s.B.obj) < 1e-6 && P.feasible p s.B.x ->
            ()
          | None, B.Infeasible _ -> ()
          | opt, r ->
            QCheck.Test.fail_reportf "enumeration %s, search %a@.%a"
              (match opt with Some o -> string_of_float o | None -> "none")
              B.pp_result r P.pp p);
          let fractional, upper = root_shape p in
          if upper then incr at_upper;
          if fractional then begin
            incr searched;
            if (B.stats_of r).B.columns < P.nvars p then incr compacted
          end)
        batch;
      (!at_upper > 0 || QCheck.Test.fail_report "no root at a REPEAT bound")
      && (3 * !compacted >= !searched
         || QCheck.Test.fail_reportf "%d of %d searches compacted" !compacted
              !searched))

(* The root restricted ILP against enumeration. Each ILP has 56 to 72
   binary or REPEAT 1 columns with costs of either sign, an equality
   on the number of tuples (2 or 3, the count of a planted package) and
   one or two ranged rows with one-decimal coefficients around the
   planted package's activity, shaved off the lattice as in
   [fixing_ilp]. The root LP's support is a handful of columns, so the
   restricted ILP keeps it and the 50 at-bound columns of least reduced
   cost and holds the rest at zero: a strict subset. The count row
   keeps enumeration to a few thousand points. *)
let restricted_ilp_gen =
  QCheck.Gen.(
    int_range 54 64 >>= fun n ->
    bool >>= fun maximize ->
    list_size (return n)
      (pair (frequency [ (3, return 1); (1, return 2) ]) (int_range (-99) 99))
    >>= fun cols ->
    list_size (int_range 2 3) (int_range 0 (n - 1)) >>= fun picks ->
    list_size
      (frequency [ (3, return 1); (1, return 2) ])
      (pair (list_size (return n) (int_range (-30) 60)) (int_range 1 40))
    >>= fun ranged -> return (maximize, cols, picks, ranged))

let restricted_ilp (maximize, cols, picks, ranged) =
  let cols = Array.of_list cols in
  let planted = Array.make (Array.length cols) 0 in
  List.iter
    (fun j -> planted.(j) <- min (fst cols.(j)) (planted.(j) + 1))
    picks;
  let count = Array.fold_left ( + ) 0 planted in
  let vars =
    Array.to_list
      (Array.map
         (fun (hi, c) ->
           P.var ~integer:true ~lo:0. ~hi:(float_of_int hi) (float_of_int c))
         cols)
  in
  let rows =
    P.row
      (List.init (Array.length cols) (fun j -> (j, 1.)))
      ~lo:(float_of_int count) ~hi:(float_of_int count)
    :: List.map
         (fun (coeffs, width) ->
           let act =
             List.fold_left ( + ) 0 (List.mapi (fun j a -> a * planted.(j)) coeffs)
           in
           let below = width / 2 in
           P.row
             (List.mapi (fun j a -> (j, float_of_int a /. 10.)) coeffs)
             ~lo:((float_of_int (act - below) -. 0.37) /. 10.)
             ~hi:((float_of_int (act + width - below) +. 0.37) /. 10.))
         ranged
  in
  P.make ~sense:(if maximize then P.Maximize else P.Minimize) ~vars ~rows

(* [restricted_runs p] is whether the root LP is fractional, and
   whether the search must run the root restricted ILP on it: the
   root's nearest rounding (the search's first heuristic) is infeasible,
   and more than the restricted ILP's 50 extra columns rest at a bound
   they could leave, so it keeps a strict subset. (It also runs when
   the rounding's incumbent fixes too few columns to compact.) *)
let restricted_runs p =
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal s -> (
    let x = s.Lp.Simplex.x in
    let fractional =
      Array.exists (fun v -> Float.abs (v -. Float.round v) > 1e-6) x
    in
    let rounded =
      Array.mapi
        (fun j v -> Float.min p.P.hi.(j) (Float.max p.P.lo.(j) (Float.round v)))
        x
    in
    match s.Lp.Simplex.basis with
    | Some b when fractional && not (P.feasible ~tol:1e-6 p rounded) ->
      let movable = ref 0 in
      Array.iteri
        (fun j lo ->
          if
            Lp.Simplex.Basis.resting b j <> `Basic
            && x.(j) = lo
            && lo < p.P.hi.(j)
          then incr movable)
        p.P.lo;
      (true, !movable > 50)
    | _ -> (fractional, false))
  | _ -> (false, false)

(* One case is a batch of 30 ILPs: every one must match enumeration,
   and at least a third of those whose root LP is fractional must run
   the restricted ILP. *)
let prop_restricted_matches_enumeration =
  QCheck.Test.make ~count:4
    ~name:"root restricted ILP matches exhaustive enumeration"
    (QCheck.make QCheck.Gen.(list_size (return 25) restricted_ilp_gen))
    (fun batch ->
      let searched = ref 0 and ran = ref 0 in
      List.iter
        (fun input ->
          let p = restricted_ilp input in
          let r = B.solve p in
          (match (enumerate p, r) with
          | Some opt, B.Optimal (s, _)
            when Float.abs (opt -. s.B.obj) < 1e-6 && P.feasible p s.B.x ->
            ()
          | None, B.Infeasible _ -> ()
          | opt, r ->
            QCheck.Test.fail_reportf "enumeration %s, search %a@.%a"
              (match opt with Some o -> string_of_float o | None -> "none")
              B.pp_result r P.pp p);
          let fractional, runs = restricted_runs p in
          if fractional then incr searched;
          if runs then incr ran)
        batch;
      3 * !ran >= !searched
      || QCheck.Test.fail_reportf "%d of %d searches ran the restricted ILP"
           !ran !searched)

(* Galaxy Q2-like: choose 5 of 120 tuples whose weights must land in a
   window 0.001 wide. Best-bound search without the restricted ILP
   spends 186 nodes before its first incumbent, so 150 nodes found
   none; the restricted ILP finds a package within them. *)
let test_restricted_finds_package () =
  let n = 120 in
  let rng = Datagen.Prng.create 28 in
  let c = Array.init n (fun _ -> Datagen.Prng.uniform rng 1. 10.) in
  let a = Array.init n (fun _ -> Datagen.Prng.uniform rng 0. 1.) in
  let target = ref 0. in
  for j = 0 to 4 do
    target := !target +. a.(j * 7 mod n)
  done;
  let p =
    P.make ~sense:P.Maximize
      ~vars:(List.init n (fun j -> P.var ~integer:true ~hi:1. c.(j)))
      ~rows:
        [
          P.row (List.init n (fun j -> (j, 1.))) ~lo:5. ~hi:5.;
          P.row
            (List.init n (fun j -> (j, a.(j))))
            ~lo:(!target -. 0.0005) ~hi:(!target +. 0.0005);
        ]
  in
  let limits = { B.default_limits with max_nodes = 150 } in
  match B.solve ~limits p with
  | B.Feasible (s, st, _) ->
    checkb "package feasible" true (P.feasible p s.B.x);
    Alcotest.(check (option int)) "found at the root" (Some 0)
      st.B.first_incumbent;
    Alcotest.(check int) "nodes within the budget" 150 st.B.nodes
  | r -> Alcotest.failf "expected a package, got %a" B.pp_result r

let () =
  Alcotest.run "ilp"
    [
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "equality cardinality" `Quick
            test_equality_cardinality;
          Alcotest.test_case "fractional LP, integral ILP" `Quick
            test_integer_rounding_matters;
          Alcotest.test_case "infeasible" `Quick test_infeasible_ilp;
          Alcotest.test_case "integer gap infeasible" `Quick
            test_integer_gap_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded_ilp;
          Alcotest.test_case "mixed integer" `Quick test_mixed_integer;
          Alcotest.test_case "repetition bounds" `Quick test_repetition_bounds;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "stats and accessors" `Quick
            test_stats_and_accessors;
          Alcotest.test_case "restricted ILP finds a package" `Quick
            test_restricted_finds_package;
        ] );
      ( "iis",
        [
          Alcotest.test_case "feasible" `Quick test_iis_feasible;
          Alcotest.test_case "minimal conflict" `Quick test_iis_minimal;
          Alcotest.test_case "bound conflict" `Quick test_iis_bound_conflict;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bb_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_bb_rel_gap_within_tolerance;
          QCheck_alcotest.to_alcotest prop_bb_zero_gap_is_exact;
          QCheck_alcotest.to_alcotest prop_bb_solution_feasible;
          QCheck_alcotest.to_alcotest prop_fixing_matches_enumeration;
          QCheck_alcotest.to_alcotest prop_restricted_matches_enumeration;
        ] );
    ]
