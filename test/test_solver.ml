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

(* [a] with entry [i] replaced by [f a.(i)]. *)
let update a i f =
  let a = Array.copy a in
  a.(i) <- f a.(i);
  a

let perturb p (jseed, kind) =
  let j = jseed mod P.nvars p in
  match kind with
  | `Pin -> { p with P.hi = update p.P.hi j (fun _ -> 0.) }
  | `Relax -> { p with P.hi = update p.P.hi j (fun h -> h *. 2.) }
  | `Tighten_row ->
    let m = P.nrows p in
    if m = 0 then p
    else { p with P.rhi = update p.P.rhi (jseed mod m) (fun h -> h *. 0.5) }

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
          P.integer = Array.map (fun _ -> true) p.P.integer;
          hi = Array.map Float.round p.P.hi;
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
  { p with P.hi = update p.P.hi !j (fun _ -> 0.) }

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
      let n = P.nvars p in
      let lo0 = p.P.lo and hi0 = p.P.hi in
      let lo = Array.copy lo0 and hi = Array.copy hi0 in
      let foreign =
        match S.solve (P.sub p ~cols:(Array.init n Fun.id) ~rows:[||]) with
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
          let f =
            S.resolve ?basis ~work:ifr
              { p with P.lo = Array.copy lo; hi = Array.copy hi }
          in
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

(* ------------------------------------------------------------------ *)
(* Numerics stress: near-degenerate ties                              *)
(* ------------------------------------------------------------------ *)

(* A small ILP given by its data: integral columns in [0, u_j], rows
   [rlo_i <= a_i . x <= rhi_i], maximized. The checks below read this
   data, never the problem built from it. *)
type stress = {
  c : float array;
  u : float array;
  a : float array array;
  rlo : float array;
  rhi : float array;
}

let stress_problem t =
  P.make ~sense:P.Maximize
    ~vars:(Array.to_list (Array.mapi (fun j c -> P.var ~integer:true ~hi:t.u.(j) c) t.c))
    ~rows:
      (Array.to_list
         (Array.mapi
            (fun i row ->
              P.row
                (List.filter (fun (_, v) -> v <> 0.)
                   (Array.to_list (Array.mapi (fun j v -> (j, v)) row)))
                ~lo:t.rlo.(i) ~hi:t.rhi.(i))
            t.a))

let activity row x =
  let acc = ref 0. in
  Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
  !acc

(* The LP optimum by vertex enumeration: with slacks [s = A x] bounded
   by the row ranges, a vertex has [m] basic columns among the [n + m]
   and every other column at a finite bound; solve for the basic ones
   (Gaussian elimination, partial pivoting) and keep the best vertex
   within a 1e-9 relative tolerance. *)
let lp_by_vertices t =
  let n = Array.length t.c and m = Array.length t.a in
  let total = n + m in
  let lo k = if k < n then 0. else t.rlo.(k - n) in
  let hi k = if k < n then t.u.(k) else t.rhi.(k - n) in
  (* column k of [A | -I] *)
  let col k i = if k < n then t.a.(i).(k) else if k - n = i then -1. else 0. in
  let best = ref None in
  let z = Array.make total 0. in
  let rec choose start basis =
    if List.length basis = m then place 0 (Array.of_list (List.rev basis))
    else
      for k = start to total - 1 do
        choose (k + 1) (k :: basis)
      done
  and place k basis =
    if k = total then solve basis
    else if Array.mem k basis then place (k + 1) basis
    else
      List.iter
        (fun b ->
          if Float.is_finite b then begin
            z.(k) <- b;
            place (k + 1) basis
          end)
        [ lo k; hi k ]
  and solve basis =
    (* M zb = -(N zn) *)
    let mat =
      Array.init m (fun i ->
          let rhs = ref 0. in
          for k = 0 to total - 1 do
            if not (Array.mem k basis) then rhs := !rhs -. (col k i *. z.(k))
          done;
          Array.append (Array.map (fun k -> col k i) basis) [| !rhs |])
    in
    let singular = ref false in
    for p = 0 to m - 1 do
      let piv = ref p in
      for r = p + 1 to m - 1 do
        if Float.abs mat.(r).(p) > Float.abs mat.(!piv).(p) then piv := r
      done;
      if Float.abs mat.(!piv).(p) < 1e-300 then singular := true
      else begin
        let tmp = mat.(p) in
        mat.(p) <- mat.(!piv);
        mat.(!piv) <- tmp;
        for r = 0 to m - 1 do
          if r <> p then begin
            let f = mat.(r).(p) /. mat.(p).(p) in
            for q = p to m do
              mat.(r).(q) <- mat.(r).(q) -. (f *. mat.(p).(q))
            done
          end
        done
      end
    done;
    if not !singular then begin
      Array.iteri (fun i k -> z.(k) <- mat.(i).(m) /. mat.(i).(i)) basis;
      let within k =
        let mag b = if Float.is_finite b then Float.abs b else 0. in
        let slack = 1e-9 *. (1. +. mag (lo k) +. mag (hi k)) in
        z.(k) >= lo k -. slack && z.(k) <= hi k +. slack
      in
      let rows_hold =
        (* the basic slacks must equal the activity they stand for *)
        Array.for_all
          (fun i ->
            let act = activity t.a.(i) (Array.sub z 0 n) in
            Float.abs (act -. z.(n + i))
            <= 1e-9 *. (1. +. Array.fold_left (fun s v -> s +. Float.abs v) 0. t.a.(i)))
          (Array.init m Fun.id)
      in
      if Array.for_all within basis && rows_hold then begin
        let obj = activity t.c (Array.sub z 0 n) in
        match !best with
        | Some b when b >= obj -> ()
        | _ -> best := Some obj
      end
    end
  in
  choose 0 [];
  !best

(* The ILP optimum over every integer point of the box, twice: rows
   held exactly, and rows held within 1e-6 of their magnitude. An exact
   search answer must lie between the two. *)
let ilp_by_enumeration t =
  let n = Array.length t.c in
  let x = Array.make n 0. in
  let strict = ref None and loose = ref None in
  let better r obj =
    match !r with Some b when b >= obj -> () | _ -> r := Some obj
  in
  let rec go j =
    if j = n then begin
      let obj = activity t.c x in
      let holds tol =
        Array.for_all
          (fun i ->
            let act = activity t.a.(i) x in
            let slack =
              tol *. (1. +. activity (Array.map Float.abs t.a.(i)) x)
            in
            act >= t.rlo.(i) -. slack && act <= t.rhi.(i) +. slack)
          (Array.init (Array.length t.a) Fun.id)
      in
      if holds 0. then better strict obj;
      if holds 1e-6 then better loose obj
    end
    else
      for k = 0 to int_of_float t.u.(j) do
        x.(j) <- float_of_int k;
        go (j + 1)
      done
  in
  go 0;
  (!strict, !loose)

let check_stress name t =
  let p = stress_problem t in
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b) in
  (match (S.solve p, lp_by_vertices t) with
  | S.Optimal s, Some opt when close s.S.obj opt -> ()
  | r, opt ->
    Alcotest.failf "%s: simplex %a, vertex enumeration %s" name S.pp_result r
      (match opt with Some o -> Printf.sprintf "%.17g" o | None -> "none"));
  match (B.solve p, ilp_by_enumeration t) with
  | B.Optimal (s, _), (Some strict, Some loose)
    when s.B.obj >= strict -. (1e-6 *. Float.max 1. (Float.abs strict))
         && s.B.obj <= loose +. (1e-6 *. Float.max 1. (Float.abs loose)) ->
    ()
  | r, (strict, loose) ->
    let pp_opt = function
      | Some o -> Printf.sprintf "%.17g" o
      | None -> "none"
    in
    Alcotest.failf "%s: search %a, enumeration %s (rows within 1e-6: %s)" name
      B.pp_result r (pp_opt strict) (pp_opt loose)

(* Eight 0/1 columns whose objective-to-weight ratios are equal or nearly
   so (the Galaxy Q2 regime): weights from {2, 3, 5}, objective 1.7 *
   weight * (1 + d) with d = 0 for most columns and otherwise one of
   +-1e-15, +-1e-12, +-1e-9; exactly k of them (2 to 4) under a weight
   budget half a unit above a random k-subset's weight. *)
let near_ties seed =
  let rng = Random.State.make [| seed; 0x71e5 |] in
  let n = 8 in
  let w = Array.init n (fun _ -> [| 2.; 3.; 5. |].(Random.State.int rng 3)) in
  let d () =
    if Random.State.int rng 10 < 6 then 0.
    else
      (if Random.State.bool rng then 1. else -1.)
      *. [| 1e-15; 1e-12; 1e-9 |].(Random.State.int rng 3)
  in
  let k = 2 + Random.State.int rng 3 in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let budget = ref 0.5 in
  for i = 0 to k - 1 do
    budget := !budget +. w.(order.(i))
  done;
  {
    c = Array.map (fun wj -> 1.7 *. wj *. (1. +. d ())) w;
    u = Array.make n 1.;
    a = [| Array.make n 1.; w |];
    rlo = [| float_of_int k; neg_infinity |];
    rhi = [| float_of_int k; !budget |];
  }

let test_near_ties () =
  for seed = 1 to 60 do
    check_stress (Printf.sprintf "near ties seed %d" seed) (near_ties seed)
  done

(* ------------------------------------------------------------------ *)
(* The package ILPs handed to the solver, pinned                      *)
(* ------------------------------------------------------------------ *)

(* Every field of a problem, floats by their bits, in the compressed
   column layout the solver reads. *)
let ilp_bytes (p : P.t) =
  let b = Buffer.create 4096 in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  let i x = Buffer.add_string b (Printf.sprintf "%d," x) in
  let sep () = Buffer.add_char b ';' in
  Buffer.add_string b (match p.P.sense with P.Minimize -> "min" | P.Maximize -> "max");
  List.iter
    (fun a -> sep (); Array.iter f a)
    [ p.P.obj; p.P.lo; p.P.hi ];
  sep ();
  Array.iter (fun v -> i (if v then 1 else 0)) p.P.integer;
  List.iter (fun a -> sep (); Array.iter f a) [ p.P.rlo; p.P.rhi ];
  List.iter (fun a -> sep (); Array.iter i a) [ p.P.cstart; p.P.crow ];
  sep ();
  Array.iter f p.P.cval;
  Buffer.contents b

(* Q1-Q7 of Galaxy (600 rows, seed 1) and TPC-H (600 rows, seed 2): the
   Direct ILP ([Translate.to_problem]), the sketch ILP over a tau = 10%
   partitioning, a refine-shaped ILP (group 0's candidates, bounds
   shifted by offsets), and the first SummarySearch ILP of seven
   stochastic workload queries per dataset. The digest was recorded
   from the row-list representation these ILPs had before the column
   layout, transposed as its simplex transposed them, so it pins that
   the solver is handed the same columns, coefficients and bounds; the
   failure message lists one digest per ILP for the diff. *)
let package_ilps_golden = "ed5a5e32d3ef2e21ffb457edafb0bb94"

let test_package_ilps_pinned () =
  let lines = Buffer.create 4096 in
  let record cell p =
    Buffer.add_string lines
      (Printf.sprintf "%s %dx%d %s\n" cell (P.nvars p) (P.nrows p)
         (Digest.to_hex (Digest.string (ilp_bytes p))))
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
          record (cell ^ "/direct")
            (Paql.Translate.to_problem spec qrel ~candidates);
          let tau = max 1 (Relalg.Relation.cardinality qrel / 10) in
          let part = Pkg.Partition.create ~tau ~attrs:wattrs qrel in
          let ctx = Pkg.Sketch.make_ctx spec qrel part in
          record (cell ^ "/sketch") (snd (Pkg.Sketch.problem ctx));
          let offsets =
            Array.of_list
              (List.mapi
                 (fun ci _ -> 0.5 *. float_of_int (ci + 1))
                 spec.Paql.Translate.constraints)
          in
          record (cell ^ "/refine")
            (Paql.Translate.to_problem ~offsets
               { spec with Paql.Translate.where = None }
               qrel ~candidates:ctx.Pkg.Sketch.cand.(0)))
        defs;
      List.iter
        (fun (def : Datagen.Workload.def) ->
          match
            Pkg.Stochastic.summary_ilp (Datagen.Workload.compile rel def) rel
          with
          | Ok p -> record (dataset ^ "/" ^ def.Datagen.Workload.name ^ "/summary") p
          | Error msg -> Alcotest.failf "%s: %s" def.Datagen.Workload.name msg)
        (Datagen.Workload.mixed ~repeat_rate:0. ~stochastic_rate:1.
           ~dataset:kind ~n:7 rel))
    [ ("galaxy", `Galaxy, Datagen.Galaxy.generate ~seed:1 600,
       Datagen.Workload.galaxy_queries);
      ("tpch", `Tpch, Datagen.Tpch.generate ~seed:2 600,
       Datagen.Workload.tpch_queries) ];
  let digest = Digest.to_hex (Digest.string (Buffer.contents lines)) in
  if digest <> package_ilps_golden then
    Alcotest.failf "package ILPs digest %s, expected %s; per ILP:\n%s" digest
      package_ilps_golden (Buffer.contents lines)

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
      ( "numerics",
        [
          Alcotest.test_case "near-degenerate ties match enumeration" `Quick
            test_near_ties;
        ] );
      ( "identity",
        [
          Alcotest.test_case "package ILPs pinned" `Quick
            test_package_ilps_pinned;
        ] );
    ]
