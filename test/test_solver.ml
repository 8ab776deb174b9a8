(* Solver warm-start tests: the correctness contract of the dual
   simplex is that a warm re-solve agrees with a cold solve on every
   problem — a stale, corrupt, or merely unhelpful basis may cost time
   but never change an answer. Exercised here with qcheck-random LPs
   under random bound perturbations, branch-and-bound searches with and
   without basis reuse, and a deliberately corrupted basis. Work counts
   are read from the record each call is handed. *)

module P = Lp.Problem
module S = Lp.Simplex
module B = Ilp.Branch_bound

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Every variable is boxed in [0, hi] with hi finite, so no random
   problem is unbounded: statuses can only be Optimal or Infeasible,
   which both paths must agree on. *)
let gen_lp =
  QCheck.Gen.(
    int_range 2 10 >>= fun n ->
    int_range 1 4 >>= fun m ->
    list_repeat n (float_range (-5.) 5.) >>= fun objs ->
    list_repeat n (float_range 0.5 5.) >>= fun his ->
    list_repeat m
      (pair
         (list_repeat n (float_range (-3.) 3.))
         (pair (float_range 1. 10.) bool))
    >>= fun rows ->
    return
      (P.make ~sense:P.Maximize
         ~vars:(List.map2 (fun o h -> P.var ~lo:0. ~hi:h o) objs his)
         ~rows:
           (List.map
              (fun (coeffs, (rhs, ranged)) ->
                P.row
                  (List.filteri (fun _ _ -> true) coeffs
                  |> List.mapi (fun j a -> (j, a)))
                  ~lo:(if ranged then -.rhs else neg_infinity)
                  ~hi:rhs)
              rows)))

(* A bound perturbation of the kind refine rungs and B&B children
   apply: pick a variable, pin it to zero or relax its cap. *)
let gen_perturb =
  QCheck.Gen.(
    pair (int_range 0 1000) (oneofl [ `Pin; `Relax; `Tighten_row ]))

let perturb p (jseed, kind) =
  let n = Array.length p.P.vars in
  let j = jseed mod n in
  match kind with
  | `Pin ->
    let vars' = Array.copy p.P.vars in
    vars'.(j) <- { vars'.(j) with P.hi = 0. };
    { p with P.vars = vars' }
  | `Relax ->
    let vars' = Array.copy p.P.vars in
    vars'.(j) <- { vars'.(j) with P.hi = vars'.(j).P.hi *. 2. };
    { p with P.vars = vars' }
  | `Tighten_row ->
    let m = Array.length p.P.rows in
    if m = 0 then p
    else begin
      let rows' = Array.copy p.P.rows in
      let r = jseed mod m in
      rows'.(r) <- { rows'.(r) with P.rhi = rows'.(r).P.rhi *. 0.5 };
      { p with P.rows = rows' }
    end

let agree name cold warm =
  match (cold, warm) with
  | S.Optimal c, S.Optimal w ->
    if
      Float.abs (c.S.obj -. w.S.obj)
      > 1e-5 *. Float.max 1. (Float.abs c.S.obj)
    then
      QCheck.Test.fail_reportf "%s: warm obj %.9g <> cold obj %.9g" name
        w.S.obj c.S.obj
    else true
  | S.Infeasible, S.Infeasible -> true
  | c, w ->
    QCheck.Test.fail_reportf "%s: cold %a, warm %a" name S.pp_result c
      S.pp_result w

(* warm resolve from the parent's basis == cold solve, over random LPs
   and random bound flips *)
let warm_cold_agreement_prop =
  QCheck.Test.make ~count:300 ~name:"warm resolve agrees with cold solve"
    (QCheck.make (QCheck.Gen.pair gen_lp gen_perturb))
    (fun (p0, pr) ->
      match S.solve p0 with
      | S.Optimal sol ->
        let p1 = perturb p0 pr in
        let cold = S.solve p1 in
        let warm = S.resolve ?basis:sol.S.basis p1 in
        agree "perturbed" cold warm
      | _ -> QCheck.assume_fail ())

(* branch-and-bound whose root starts warm from the LP's own optimal
   basis finds the same answer as one handed no basis, whose root
   solves cold *)
let bb_warm_agreement_prop =
  QCheck.Test.make ~count:60 ~name:"B&B agrees with warm starts off"
    (QCheck.make gen_lp) (fun p ->
      let integerize p =
        {
          p with
          P.vars =
            Array.map
              (fun v -> { v with P.integer = true; P.hi = Float.round v.P.hi })
              p.P.vars;
        }
      in
      let p = integerize p in
      let cold = B.solve p in
      let basis =
        match S.solve p with S.Optimal s -> s.S.basis | _ -> None
      in
      let warm = B.solve ?warm_start:basis p in
      match (cold, warm) with
      | B.Optimal (c, _), B.Optimal (w, _) ->
        if Float.abs (c.B.obj -. w.B.obj) > 1e-5 *. Float.max 1. (Float.abs c.B.obj)
        then
          QCheck.Test.fail_reportf "B&B warm obj %.9g <> cold obj %.9g" w.B.obj
            c.B.obj
        else true
      | B.Infeasible _, B.Infeasible _ -> true
      | c, w ->
        QCheck.Test.fail_reportf "B&B: cold %a, warm %a" B.pp_result c
          B.pp_result w)

(* re-solving with the saved root basis (the server's basis-cache path)
   agrees with the cold search and registers as a warm attempt *)
let test_bb_basis_roundtrip () =
  let rng = Datagen.Prng.create 7 in
  let n = 60 in
  let vars =
    List.init n (fun _ ->
        P.var ~integer:true ~hi:1. (Datagen.Prng.uniform rng 1. 10.))
  in
  let coeffs = List.init n (fun j -> (j, Datagen.Prng.uniform rng 1. 5.)) in
  let p =
    P.make ~sense:P.Maximize ~vars
      ~rows:[ P.row coeffs ~lo:neg_infinity ~hi:40. ]
  in
  let basis_out = ref None in
  let r1 = B.solve ~basis_out p in
  checkb "first search saved a root basis" true (!basis_out <> None);
  let r2 = B.solve ?warm_start:!basis_out p in
  checkb "warm attempts counted" true
    ((B.stats_of r2).B.lp.S.warm_attempts > 0);
  match (r1, r2) with
  | B.Optimal (s1, _), B.Optimal (s2, _) ->
    Alcotest.check (Alcotest.float 1e-6) "objectives equal" s1.B.obj s2.B.obj
  | _ -> Alcotest.fail "both searches should be optimal"

(* a corrupted (singular) basis must fall back to a cold solve with the
   right answer, and must not count as a warm hit *)
let test_corrupt_basis_falls_cold () =
  let rng = Datagen.Prng.create 3 in
  let n = 40 in
  let vars =
    List.init n (fun _ -> P.var ~hi:1. (Datagen.Prng.uniform rng 1. 10.))
  in
  (* two rows: [corrupt] duplicates a basis row, which is only a real
     corruption when the basis has more than one *)
  let coeffs = List.init n (fun j -> (j, 1.)) in
  let weights =
    List.init n (fun j -> (j, Datagen.Prng.uniform rng 0.5 2.))
  in
  let p =
    P.make ~sense:P.Maximize ~vars
      ~rows:
        [
          P.row coeffs ~lo:5. ~hi:5.;
          P.row weights ~lo:neg_infinity ~hi:8.;
        ]
  in
  match S.solve p with
  | S.Optimal sol -> (
    let b =
      match sol.S.basis with
      | Some b -> S.Basis.corrupt b
      | None -> Alcotest.fail "no basis exported"
    in
    let work = S.new_work () in
    match S.resolve ~basis:b ~work p with
    | S.Optimal sol' ->
      Alcotest.check (Alcotest.float 1e-6) "objective preserved" sol.S.obj
        sol'.S.obj;
      checki "counted as an attempt" 1 work.S.warm_attempts;
      checki "not counted as a hit" 0 work.S.warm_hits;
      checki "fell back to a cold solve" 1 work.S.cold_solves
    | r -> Alcotest.failf "corrupt-basis resolve: %a" S.pp_result r)
  | r -> Alcotest.failf "seed solve: %a" S.pp_result r

(* a re-solve handed no basis never touches the warm path *)
let test_warm_disabled_is_cold () =
  let p =
    P.make ~sense:P.Maximize
      ~vars:[ P.var ~hi:1. 1.; P.var ~hi:1. 2. ]
      ~rows:[ P.row [ (0, 1.); (1, 1.) ] ~lo:neg_infinity ~hi:1. ]
  in
  match S.solve p with
  | S.Optimal sol ->
    let work = S.new_work () in
    let r = S.resolve ~work p in
    checki "no warm attempt" 0 work.S.warm_attempts;
    (match r with
    | S.Optimal sol' ->
      Alcotest.check (Alcotest.float 1e-9) "same objective" sol.S.obj
        sol'.S.obj
    | r -> Alcotest.failf "disabled resolve: %a" S.pp_result r)
  | r -> Alcotest.failf "seed solve: %a" S.pp_result r

(* [p] with the column [x] selects most pinned to 0 — the bound change
   a B&B branch or a refine rung makes. *)
let pin_most_selected p x =
  let j = ref 0 in
  Array.iteri (fun i v -> if v > x.(!j) then j := i) x;
  let vars = Array.copy p.P.vars in
  vars.(!j) <- { vars.(!j) with P.hi = 0. };
  { p with P.vars }

(* A chained re-solve ladder, the shape of B&B children and refine
   rungs: each rung pins the variable the previous optimum selects most
   (its upper bound drops to 0) and re-solves warm from the previous
   rung's basis. Every rung's objective must equal a cold solve of the
   same problem, and the chain must really run warm. *)
let test_warm_ladder () =
  let n = 400 and rungs = 20 in
  let rng = Datagen.Prng.create 42 in
  let obj = Array.init n (fun _ -> Datagen.Prng.uniform rng 1. 10.) in
  let res =
    List.init 3 (fun _ ->
        Array.init n (fun _ -> Datagen.Prng.uniform rng 0. 5.))
  in
  let k = 10. in
  let root =
    P.make ~sense:P.Maximize
      ~vars:(List.init n (fun j -> P.var ~hi:1. obj.(j)))
      ~rows:
        (P.row (List.init n (fun j -> (j, 1.))) ~lo:k ~hi:k
        :: List.map
             (fun a ->
               P.row
                 (List.init n (fun j -> (j, a.(j))))
                 ~lo:neg_infinity
                 ~hi:(Array.fold_left ( +. ) 0. a /. float_of_int n *. k *. 2.))
             res)
  in
  let optimal what = function
    | S.Optimal sol -> sol
    | r -> Alcotest.failf "%s: %a" what S.pp_result r
  in
  let work = S.new_work () in
  ignore
    (List.fold_left
      (fun (p, (sol : S.solution)) i ->
        let p = pin_most_selected p sol.S.x in
        let warm =
          optimal (Printf.sprintf "warm rung %d" i)
            (S.resolve ?basis:sol.S.basis ~work p)
        in
        let cold = optimal (Printf.sprintf "cold rung %d" i) (S.solve p) in
        checkb
          (Printf.sprintf "rung %d: warm objective = cold within 1e-9" i)
          true
          (Float.abs (warm.S.obj -. cold.S.obj)
           <= 1e-9 *. Float.max 1. (Float.abs cold.S.obj));
        (p, warm))
      (root, optimal "root" (S.solve root))
      (List.init rungs Fun.id));
  checki "every rung re-solved warm" rungs work.S.warm_hits

(* ------------------------------------------------------------------ *)
(* Workspace reuse                                                    *)
(* ------------------------------------------------------------------ *)

(* One step of a reuse sequence: a bound change on one variable, then
   the basis handed to the re-solve — the previous step's, the root's,
   none, a singular corruption of the previous one, or one of the wrong
   shape (the last two force the cold fallback). *)
let gen_step =
  QCheck.Gen.(
    triple (int_range 0 1000)
      (oneofl [ `Pin_up; `Pin_down; `Halve; `Restore ])
      (oneofl [ `Prev; `Prev; `Root; `None; `Corrupt; `Foreign ]))

let bits x = Array.map Int64.bits_of_float x

let same_result name (a, (wa : S.work)) (b, (wb : S.work)) =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) name in
  if S.iterations wa <> S.iterations wb then
    fail "iterations %d (workspace) <> %d (fresh)" (S.iterations wa)
      (S.iterations wb)
  else if wa <> wb then fail "work counts differ"
  else
    match (a, b) with
    | S.Optimal x, S.Optimal y ->
      if bits x.S.x <> bits y.S.x then fail "x differs"
      else if Int64.bits_of_float x.S.obj <> Int64.bits_of_float y.S.obj then
        fail "obj %h <> %h" x.S.obj y.S.obj
      else if x.S.iterations <> y.S.iterations then fail "pivot counts differ"
      else if x.S.basis <> y.S.basis then fail "exported bases differ"
      else true
    | S.Infeasible, S.Infeasible
    | S.Unbounded, S.Unbounded
    | S.Iter_limit, S.Iter_limit -> true
    | a, b -> fail "workspace %a, fresh %a" S.pp_result a S.pp_result b

(* one workspace driven through bound tightenings and basis hand-offs
   returns, at every step, exactly what a fresh [resolve] of the same
   problem returns: nothing leaks from one re-solve into the next *)
let workspace_reuse_prop =
  QCheck.Test.make ~count:150 ~name:"workspace reuse is bit-identical to fresh"
    (QCheck.make
       QCheck.Gen.(
         triple gen_lp (list_size (int_range 2 10) gen_step) gen_step))
    (fun (p, steps, forced) ->
      let n = Array.length p.P.vars in
      let lo0 = Array.map (fun v -> v.P.lo) p.P.vars in
      let hi0 = Array.map (fun v -> v.P.hi) p.P.vars in
      let lo = Array.copy lo0 and hi = Array.copy hi0 in
      let foreign =
        match S.solve { p with P.rows = [||] } with
        | S.Optimal s -> s.S.basis
        | _ -> None
      in
      let ws = S.Workspace.create p in
      let root = ref None and prev = ref None in
      let fj, fchange, _ = forced in
      let steps = ((0, `Restore, `None) :: steps) @ [ (fj, fchange, `Foreign) ] in
      List.for_all
        (fun (jseed, change, handoff) ->
          let j = jseed mod n in
          (match change with
          | `Pin_up -> lo.(j) <- hi.(j)
          | `Pin_down -> hi.(j) <- lo.(j)
          | `Halve -> hi.(j) <- lo.(j) +. ((hi.(j) -. lo.(j)) /. 2.)
          | `Restore ->
            lo.(j) <- lo0.(j);
            hi.(j) <- hi0.(j));
          let basis =
            match handoff with
            | `Prev -> !prev
            | `Root -> !root
            | `None -> None
            | `Corrupt -> Option.map S.Basis.corrupt !prev
            | `Foreign -> foreign
          in
          let iw = S.new_work () and ifr = S.new_work () in
          let w = S.Workspace.resolve ?basis ~work:iw ~lo ~hi ws in
          let vars =
            Array.mapi (fun j v -> { v with P.lo = lo.(j); hi = hi.(j) }) p.P.vars
          in
          let f = S.resolve ?basis ~work:ifr { p with P.vars } in
          (match w with
          | S.Optimal s ->
            prev := s.S.basis;
            if !root = None then root := s.S.basis
          | _ -> ());
          same_result "reuse step" (w, iw) (f, ifr))
        steps)

(* ------------------------------------------------------------------ *)
(* Pinned branch-and-bound trajectory                                 *)
(* ------------------------------------------------------------------ *)

(* The Direct ILP of one paper-suite query: the query's candidate rows,
   translated as the benchmark translates them. *)
let direct_problem ~dataset rel defs name =
  let def = List.find (fun d -> d.Datagen.Workload.name = name) defs in
  let qrel = Datagen.Workload.query_relation ~dataset rel def in
  let spec = Datagen.Workload.compile qrel def in
  let candidates = Paql.Translate.base_candidates spec qrel in
  Paql.Translate.to_problem spec qrel ~candidates

(* Galaxy Q7 (2,000 rows, seed 1) and TPC-H Q1 (3,000 rows, seed 2, the
   widest ILP of the paper suite: 3,000 columns over 2 rows). *)
let galaxy_q7 () =
  let g = Datagen.Galaxy.generate ~seed:1 2000 in
  direct_problem ~dataset:`Galaxy g (Datagen.Workload.galaxy_queries g) "Q7"

let tpch_q1 () =
  let t = Datagen.Tpch.generate ~seed:2 3000 in
  direct_problem ~dataset:`Tpch t (Datagen.Workload.tpch_queries t) "Q1"

let node_budget = { B.default_limits with max_nodes = 200; max_seconds = 3600. }

(* Solve [p] under the 200-node budget and check the search against
   recorded constants; a change that alters any pivot choice, however
   slightly, moves them. *)
let check_trajectory p ~iterations ~primal ~dual ~cold ~warm ~obj_bits =
  let r = B.solve ~limits:node_budget p in
  let st = B.stats_of r in
  let lp = st.B.lp in
  Format.printf
    "%a: %d iterations, %d primal, %d dual, %d cold, %d warm, obj bits %LdL@."
    B.pp_result r (S.iterations lp) lp.S.pivots lp.S.dual_pivots
    lp.S.cold_solves lp.S.warm_hits
    (match B.solution_of r with
    | Some s -> Int64.bits_of_float s.B.obj
    | None -> 0L);
  checki "nodes" 200 st.B.nodes;
  checki "simplex iterations" iterations (S.iterations lp);
  checki "primal pivots" primal lp.S.pivots;
  checki "dual pivots" dual lp.S.dual_pivots;
  checki "cold solves" cold lp.S.cold_solves;
  checki "warm hits" warm lp.S.warm_hits;
  match r with
  | B.Feasible (s, _, _) ->
    Alcotest.(check int64)
      "objective bits" obj_bits (Int64.bits_of_float s.B.obj)
  | r -> Alcotest.failf "expected a node-limited incumbent, got %a" B.pp_result r

(* Recorded when the root restricted ILP came in (its nodes and pivots
   count); the search ends on 51 of 2,000 columns. [--verbose] prints
   the counts. *)
let test_golden_trajectory () =
  check_trajectory (galaxy_q7 ()) ~iterations:693 ~primal:272 ~dual:421
    ~cold:2 ~warm:200 ~obj_bits:4643813136073241003L

(* Recorded when the root restricted ILP came in: the root rounding's
   incumbent does not compact this ILP, so the restricted ILP (71
   columns) runs and carries the search. *)
let test_wide_trajectory () =
  let p = tpch_q1 () in
  checki "columns" 3000 (P.nvars p);
  checki "rows" 2 (P.nrows p);
  check_trajectory p ~iterations:636 ~primal:293 ~dual:343 ~cold:1 ~warm:201
    ~obj_bits:4682041704611480996L

(* The 14 Direct ILPs of the paper suite at its budget (1,000 nodes,
   the 1e-4 relative gap) keep the objective bits the search found
   before reduced-cost fixing and compaction, and the two that run to
   the node budget end on a few columns. *)
let suite_objective_bits =
  [
    ("galaxy", "Q1", 4641000943822911798L);
    ("galaxy", "Q2", 4602324215083085666L);
    ("galaxy", "Q3", 4642998456862560109L);
    ("galaxy", "Q4", 4603773781639212165L);
    ("galaxy", "Q5", 4637978749548554667L);
    ("galaxy", "Q6", 4641826504413673860L);
    ("galaxy", "Q7", 4643813136073241003L);
    ("tpch", "Q1", 4682041704611480996L);
    ("tpch", "Q2", 4633210606594937499L);
    ("tpch", "Q3", 4684123632757082442L);
    ("tpch", "Q4", 4705822823900214731L);
    ("tpch", "Q5", 4677050841001957519L);
    ("tpch", "Q6", 4686057113249513299L);
    ("tpch", "Q7", 4622945017495814144L);
  ]

let test_suite_direct_pinned () =
  let g = Datagen.Galaxy.generate ~seed:1 2000 in
  let t = Datagen.Tpch.generate ~seed:2 3000 in
  let limits =
    { B.default_limits with max_nodes = 1000; max_seconds = 3600. }
  in
  List.iter
    (fun (ds, name, bits) ->
      let p =
        if ds = "galaxy" then
          direct_problem ~dataset:`Galaxy g (Datagen.Workload.galaxy_queries g)
            name
        else
          direct_problem ~dataset:`Tpch t (Datagen.Workload.tpch_queries t) name
      in
      let r = B.solve ~limits ~rel_gap:Pkg.Eval.rel_gap p in
      let what = ds ^ " " ^ name in
      Format.printf "%s: %a@." what B.pp_result r;
      (match B.solution_of r with
      | Some s ->
        Alcotest.(check int64) (what ^ " objective bits") bits
          (Int64.bits_of_float s.B.obj)
      | None -> Alcotest.failf "%s: %a" what B.pp_result r);
      if ds = "galaxy" && (name = "Q7" || name = "Q2") then begin
        let st = B.stats_of r in
        checki (what ^ " nodes") 1000 st.B.nodes;
        if st.B.columns > 100 then
          Alcotest.failf "%s ends on %d columns (at most 100)" what
            st.B.columns
      end)
    suite_objective_bits

(* A node's warm re-solve allocates its solution vector and its basis
   snapshot (one byte per column) and nothing else per column: no boxed
   statuses, reduced costs or accumulators, no per-node copies. The
   budget counts every word the search allocates, its one-off workspace
   build included. *)
let test_node_allocation_budget () =
  let p = galaxy_q7 () in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = allocated () in
  let r = B.solve ~limits:node_budget p in
  let w1 = allocated () in
  let nodes = (B.stats_of r).B.nodes in
  checki "nodes" 200 nodes;
  let per = (w1 -. w0) /. float nodes /. float (P.nvars p) in
  Printf.printf "%.2f words per column per node\n" per;
  if per > 3. then
    Alcotest.failf "%.2f words per column per node (budget 3)" per

let () =
  Alcotest.run "solver"
    [
      ( "warm vs cold",
        [
          QCheck_alcotest.to_alcotest warm_cold_agreement_prop;
          QCheck_alcotest.to_alcotest bb_warm_agreement_prop;
          Alcotest.test_case "B&B basis roundtrip" `Quick
            test_bb_basis_roundtrip;
          Alcotest.test_case "corrupt basis falls cold" `Quick
            test_corrupt_basis_falls_cold;
          Alcotest.test_case "warm disabled is cold" `Quick
            test_warm_disabled_is_cold;
          Alcotest.test_case "chained warm ladder equals cold" `Quick
            test_warm_ladder;
        ] );
      ( "workspace",
        [
          QCheck_alcotest.to_alcotest workspace_reuse_prop;
          Alcotest.test_case "pinned B&B trajectory" `Quick
            test_golden_trajectory;
          Alcotest.test_case "pinned wide B&B trajectory" `Quick
            test_wide_trajectory;
          Alcotest.test_case "node allocation budget" `Quick
            test_node_allocation_budget;
          Alcotest.test_case "paper-suite Direct objectives pinned" `Quick
            test_suite_direct_pinned;
        ] );
    ]
