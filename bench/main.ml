(* Table printers for the paper's evaluation (Section 5) and its
   follow-ups, at laptop scale.

     fig1   naive SQL self-join formulation vs ILP (Figure 1)
     fig3   per-query non-NULL TPC-H table sizes (Figure 3)
     fig4   offline partitioning time (Figure 4)
     fig5   scalability on Galaxy: Direct vs SketchRefine (Figure 5)
     fig6   scalability on TPC-H (Figure 6)
     fig7   partition size threshold sweep, Galaxy (Figure 7)
     fig8   partition size threshold sweep, TPC-H (Figure 8)
     fig9   partitioning coverage sweep (Figure 9)
     radius radius-limited partitioning repairs TPC-H Q2 (Section 5.2.1)
     ablation partitioner / parallel refine / fan-out design choices
     progressive tight-constraint matrix: coarse-to-fine vs flat sketch
     stoch  SummarySearch vs the scenario-expanded ILP

   Dataset sizes are scaled down from the paper's 5.5M/17.5M tuples;
   `--scale` multiplies the defaults. Shapes (who wins, by what factor,
   where the sweet spots fall), not absolute seconds, are the
   reproduction target — see EXPERIMENTS.md. Measured numbers that a
   later change must reproduce come from perfbench/, and correctness
   checks live in test/. *)

(* Laptop-scale stand-ins for the paper's 5.5M / 17.5M tuples; chosen
   so the full suite finishes in well under an hour on one core.
   PKGQ_SCALE or --scale multiplies both. *)
let galaxy_base = 20_000
let tpch_base = 30_000

(* Solver budget per ILP call: the analogue of the paper's CPLEX
   configuration (1-hour cap, killed on memory exhaustion). A Direct
   run that exhausts this budget without an incumbent is reported as a
   failure, like the missing data points in Figures 5-8. *)
let bench_limits =
  { Ilp.Branch_bound.default_limits with max_nodes = 40_000; max_seconds = 20. }

let sr_options =
  { Pkg.Sketch_refine.default_options with limits = bench_limits;
    max_seconds = 60. }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ratio ~maximize ~direct ~sr =
  match direct, sr with
  | Some od, Some os when Float.abs (if maximize then os else od) > 1e-12 ->
    Some (if maximize then od /. os else os /. od)
  | _ -> None

let mean_median xs =
  match xs with
  | [] -> None
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let mean = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
    in
    Some (mean, median)

let pp_time ppf = function
  | Some t -> Format.fprintf ppf "%8.3f" t
  | None -> Format.fprintf ppf "%8s" "fail"

let status_cell (r : Pkg.Eval.report) t =
  match r.Pkg.Eval.status with
  | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ -> Some t
  | Pkg.Eval.Infeasible | Pkg.Eval.Failed _ | Pkg.Eval.Degraded _ -> None

(* A Direct run only counts as successful when the solver effectively
   finished: the paper's CPLEX either proves (near-)optimality within
   its budget or dies on memory. A run that burnt the whole budget and
   still has a >2% optimality gap is the budget-death analogue. *)
let direct_cell (r : Pkg.Eval.report) t =
  match r.Pkg.Eval.status with
  | Pkg.Eval.Optimal -> Some t
  | Pkg.Eval.Feasible gap when gap <= 0.02 -> Some t
  | Pkg.Eval.Feasible _ | Pkg.Eval.Infeasible | Pkg.Eval.Failed _
  | Pkg.Eval.Degraded _ ->
    None

(* ------------------------------------------------------------------ *)
(* Figure 1                                                           *)
(* ------------------------------------------------------------------ *)

let fig1 ~scale () =
  let n = max 10 (int_of_float (40. *. scale)) in
  Format.printf
    "@.== Figure 1: SQL formulation vs ILP formulation (n=%d tuples) ==@." n;
  Format.printf
    "  (paper: 100 SDSS tuples, SQL hits ~24h at cardinality 7)@.";
  let rel = Datagen.Galaxy.generate ~seed:7 n in
  let schema = Relalg.Relation.schema rel in
  let mu =
    Relalg.Value.to_float
      (Relalg.Aggregate.over rel (Relalg.Aggregate.Avg "redshift"))
  in
  Format.printf "  card   sql(s)      ilp(s)@.";
  for k = 1 to 7 do
    let text =
      Printf.sprintf
        "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) \
         = %d AND SUM(P.redshift) <= %g MAXIMIZE SUM(P.petro_rad)"
        k
        (float_of_int k *. mu *. 1.5)
    in
    let spec = Paql.Translate.compile_exn schema (Paql.Parser.parse_exn text) in
    let sql_report, sql_t =
      time (fun () -> Pkg.Naive_sql.run spec rel ~cardinality:k)
    in
    let ilp_report, ilp_t =
      time (fun () -> Pkg.Direct.run ~limits:bench_limits spec rel)
    in
    Format.printf "  %4d %a    %a@." k pp_time
      (status_cell sql_report sql_t)
      pp_time
      (status_cell ilp_report ilp_t)
  done

(* ------------------------------------------------------------------ *)
(* Figure 3                                                           *)
(* ------------------------------------------------------------------ *)

let fig3 ~scale () =
  let n = int_of_float (float_of_int tpch_base *. scale) in
  Format.printf
    "@.== Figure 3: TPC-H per-query non-NULL table sizes (pre-joined n=%d) \
     ==@."
    n;
  let rel = Datagen.Tpch.generate ~seed:2 n in
  let queries = Datagen.Workload.tpch_queries rel in
  Format.printf "  query   tuples    (share of pre-joined table)@.";
  List.iter
    (fun (d : Datagen.Workload.def) ->
      let sub = Datagen.Workload.query_relation ~dataset:`Tpch rel d in
      let c = Relalg.Relation.cardinality sub in
      Format.printf "  %-6s %8d    (%.1f%%)@." d.name c
        (100. *. float_of_int c /. float_of_int n))
    queries

(* ------------------------------------------------------------------ *)
(* Figure 4                                                           *)
(* ------------------------------------------------------------------ *)

let fig4 ~scale () =
  Format.printf
    "@.== Figure 4: offline partitioning time (workload attributes, tau=10%%, \
     no radius) ==@.";
  let one name rel attrs =
    let n = Relalg.Relation.cardinality rel in
    let tau = max 1 (n / 10) in
    let part, t = time (fun () -> Pkg.Partition.create ~tau ~attrs rel) in
    Format.printf "  %-8s %8d tuples  tau=%-7d %4d groups  %7.3f s@." name n
      tau
      (Pkg.Partition.num_groups part)
      t
  in
  let g =
    Datagen.Galaxy.generate ~seed:1
      (int_of_float (float_of_int galaxy_base *. scale))
  in
  one "Galaxy" g
    (Datagen.Workload.workload_attrs (Datagen.Workload.galaxy_queries g));
  let t =
    Datagen.Tpch.generate ~seed:2
      (int_of_float (float_of_int tpch_base *. scale))
  in
  one "TPC-H" t
    (Datagen.Workload.workload_attrs (Datagen.Workload.tpch_queries t))

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: scalability                                       *)
(* ------------------------------------------------------------------ *)

let scalability ~label ~dataset rel queries =
  Format.printf
    "@.== %s: Direct vs SketchRefine, dataset size sweep (tau=10%%, workload \
     attrs, no radius) ==@."
    label;
  let wattrs = Datagen.Workload.workload_attrs queries in
  List.iter
    (fun (d : Datagen.Workload.def) ->
      let qrel = Datagen.Workload.query_relation ~dataset rel d in
      let nq = Relalg.Relation.cardinality qrel in
      let tau = max 1 (nq / 10) in
      let part = Pkg.Partition.create ~tau ~attrs:wattrs qrel in
      Format.printf "@.%s (table: %d tuples):@." d.name nq;
      Format.printf "   size     n      direct(s)  sketchref(s)  ratio@.";
      let ratios = ref [] in
      List.iter
        (fun pct ->
          let n = max 1 (nq * pct / 100) in
          let sub = Relalg.Relation.prefix qrel n in
          let subpart = Pkg.Partition.restrict_prefix part sub n in
          let spec = Datagen.Workload.compile sub d in
          let rd, td =
            time (fun () -> Pkg.Direct.run ~limits:bench_limits spec sub)
          in
          let rs, ts =
            time (fun () ->
                Pkg.Sketch_refine.run ~options:sr_options spec sub subpart)
          in
          let r =
            ratio ~maximize:d.maximize
              ~direct:(direct_cell rd rd.Pkg.Eval.objective |> Option.join)
              ~sr:(status_cell rs rs.Pkg.Eval.objective |> Option.join)
          in
          Option.iter (fun r -> ratios := r :: !ratios) r;
          Format.printf "   %3d%%  %7d  %a   %a    %s@." pct n pp_time
            (direct_cell rd td) pp_time (status_cell rs ts)
            (match r with Some r -> Printf.sprintf "%.2f" r | None -> "-"))
        [ 10; 40; 70; 100 ];
      match mean_median !ratios with
      | Some (mean, median) ->
        Format.printf "   approximation ratio: mean %.2f, median %.2f@." mean
          median
      | None -> Format.printf "   approximation ratio: - (Direct failed)@.")
    queries

let fig5 ~scale () =
  let n = int_of_float (float_of_int galaxy_base *. scale) in
  let rel = Datagen.Galaxy.generate ~seed:1 n in
  scalability ~label:"Figure 5 (Galaxy)" ~dataset:`Galaxy rel
    (Datagen.Workload.galaxy_queries rel)

let fig6 ~scale () =
  let n = int_of_float (float_of_int tpch_base *. scale) in
  let rel = Datagen.Tpch.generate ~seed:2 n in
  scalability ~label:"Figure 6 (TPC-H)" ~dataset:`Tpch rel
    (Datagen.Workload.tpch_queries rel)

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: partition size threshold sweep                    *)
(* ------------------------------------------------------------------ *)

let tau_sweep ~label ~dataset ~fraction rel queries =
  Format.printf
    "@.== %s: partition size threshold sweep (%d%% of data, workload attrs, \
     no radius) ==@."
    label
    (int_of_float (fraction *. 100.));
  let wattrs = Datagen.Workload.workload_attrs queries in
  List.iter
    (fun (d : Datagen.Workload.def) ->
      let qrel = Datagen.Workload.query_relation ~dataset rel d in
      let n =
        max 1 (int_of_float (float_of_int (Relalg.Relation.cardinality qrel)
                             *. fraction))
      in
      let sub = Relalg.Relation.prefix qrel n in
      let spec = Datagen.Workload.compile sub d in
      let rd, td =
        time (fun () -> Pkg.Direct.run ~limits:bench_limits spec sub)
      in
      Format.printf "@.%s (n=%d, direct: %a s):@." d.name n pp_time
        (direct_cell rd td);
      Format.printf "   tau      groups  sketchref(s)  ratio@.";
      let ratios = ref [] in
      let tau = ref (max 1 (n / 2)) in
      while !tau >= 25 do
        let part = Pkg.Partition.create ~tau:!tau ~attrs:wattrs sub in
        let rs, ts =
          time (fun () ->
              Pkg.Sketch_refine.run ~options:sr_options spec sub part)
        in
        let r =
          ratio ~maximize:d.maximize
            ~direct:(direct_cell rd rd.Pkg.Eval.objective |> Option.join)
            ~sr:(status_cell rs rs.Pkg.Eval.objective |> Option.join)
        in
        Option.iter (fun r -> ratios := r :: !ratios) r;
        Format.printf "   %-8d %5d   %a    %s@." !tau
          (Pkg.Partition.num_groups part)
          pp_time (status_cell rs ts)
          (match r with Some r -> Printf.sprintf "%.2f" r | None -> "-");
        tau := !tau / 4
      done;
      match mean_median !ratios with
      | Some (mean, median) ->
        Format.printf "   approximation ratio: mean %.2f, median %.2f@." mean
          median
      | None -> Format.printf "   approximation ratio: - (Direct failed)@.")
    queries

let fig7 ~scale () =
  let n = int_of_float (float_of_int galaxy_base *. scale) in
  let rel = Datagen.Galaxy.generate ~seed:1 n in
  tau_sweep ~label:"Figure 7 (Galaxy)" ~dataset:`Galaxy ~fraction:0.3 rel
    (Datagen.Workload.galaxy_queries rel)

let fig8 ~scale () =
  let n = int_of_float (float_of_int tpch_base *. scale) in
  let rel = Datagen.Tpch.generate ~seed:2 n in
  tau_sweep ~label:"Figure 8 (TPC-H)" ~dataset:`Tpch ~fraction:1.0 rel
    (Datagen.Workload.tpch_queries rel)

(* ------------------------------------------------------------------ *)
(* Figure 9: partitioning coverage                                    *)
(* ------------------------------------------------------------------ *)

let coverage_sweep ~label ~dataset ~numeric_attrs rel queries =
  Format.printf
    "@.== %s: partitioning coverage sweep (tau=10%%, no radius) ==@." label;
  Format.printf
    "   coverage = |partitioning attrs| / |query attrs|; time ratio is \
     relative to coverage 1@.";
  (* bucket -> (time ratio list, absolute time list) *)
  let buckets : (float, float list ref * float list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let record cov tr abs_t =
    let trs, ats =
      match Hashtbl.find_opt buckets cov with
      | Some x -> x
      | None ->
        let x = (ref [], ref []) in
        Hashtbl.add buckets cov x;
        x
    in
    Option.iter (fun t -> trs := t :: !trs) tr;
    ats := abs_t :: !ats
  in
  List.iter
    (fun (d : Datagen.Workload.def) ->
      let qrel = Datagen.Workload.query_relation ~dataset rel d in
      let n = Relalg.Relation.cardinality qrel in
      let tau = max 1 (n / 10) in
      let spec = Datagen.Workload.compile qrel d in
      let k = List.length d.attrs in
      let extras =
        List.filter (fun a -> not (List.mem a d.attrs)) numeric_attrs
      in
      let attr_sets =
        (* proper subsets, the exact set, and growing supersets *)
        List.init (k - 1) (fun i ->
            (List.filteri (fun j _ -> j <= i) d.attrs,
             float_of_int (i + 1) /. float_of_int k))
        @ [ (d.attrs, 1.) ]
        @ List.init (List.length extras) (fun i ->
              ( d.attrs @ List.filteri (fun j _ -> j <= i) extras,
                float_of_int (k + i + 1) /. float_of_int k ))
      in
      let base_time = ref None in
      List.iter
        (fun (attrs, cov) ->
          let part = Pkg.Partition.create ~tau ~attrs qrel in
          let rs, ts =
            time (fun () ->
                Pkg.Sketch_refine.run ~options:sr_options spec qrel part)
          in
          (match rs.Pkg.Eval.status with
          | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ ->
            if cov = 1. then base_time := Some ts
          | _ -> ());
          match !base_time, rs.Pkg.Eval.status with
          | Some bt, (Pkg.Eval.Optimal | Pkg.Eval.Feasible _) ->
            (* ratios over millisecond baselines are noise; keep the
               absolute time in any case *)
            let ratio = if bt >= 0.02 then Some (ts /. bt) else None in
            record cov ratio ts
          | _ -> ())
        (* evaluate coverage 1 first so the base time exists *)
        (List.stable_sort
           (fun (_, c1) (_, c2) ->
             compare (Float.abs (c1 -. 1.)) (Float.abs (c2 -. 1.)))
           attr_sets))
    queries;
  let rows =
    Hashtbl.fold (fun cov (trs, ats) acc -> (cov, !trs, !ats) :: acc) buckets []
    |> List.sort compare
  in
  Format.printf "   coverage   mean time ratio   mean time(s)   runs@.";
  List.iter
    (fun (cov, trs, ats) ->
      let tr_text =
        match mean_median trs with
        | Some (mean, _) -> Printf.sprintf "%10.2f" mean
        | None -> Printf.sprintf "%10s" "-"
      in
      match mean_median ats with
      | Some (mean_t, _) ->
        Format.printf "   %6.2f     %s   %10.3f     %d@." cov tr_text mean_t
          (List.length ats)
      | None -> ())
    rows

let fig9 ~scale () =
  let gn = int_of_float (float_of_int galaxy_base *. scale *. 0.5) in
  let g = Datagen.Galaxy.generate ~seed:1 gn in
  coverage_sweep ~label:"Figure 9 (Galaxy)" ~dataset:`Galaxy
    ~numeric_attrs:Datagen.Galaxy.numeric_attrs g
    (Datagen.Workload.galaxy_queries g);
  let tn = int_of_float (float_of_int tpch_base *. scale *. 0.5) in
  let t = Datagen.Tpch.generate ~seed:2 tn in
  coverage_sweep ~label:"Figure 9 (TPC-H)" ~dataset:`Tpch
    ~numeric_attrs:Datagen.Tpch.numeric_attrs t
    (Datagen.Workload.tpch_queries t)

(* ------------------------------------------------------------------ *)
(* Radius-limited partitioning (Section 5.2.1's Q2 note)              *)
(* ------------------------------------------------------------------ *)

let radius ~scale () =
  Format.printf
    "@.== Radius-limited partitioning: TPC-H Q2 with epsilon = 1.0 (Section \
     5.2.1) ==@.";
  let n = int_of_float (float_of_int tpch_base *. scale *. 0.4) in
  let rel = Datagen.Tpch.generate ~seed:2 n in
  let queries = Datagen.Workload.tpch_queries rel in
  let d = List.nth queries 1 (* Q2, the minimization query *) in
  let qrel = Datagen.Workload.query_relation ~dataset:`Tpch rel d in
  let nq = Relalg.Relation.cardinality qrel in
  let spec = Datagen.Workload.compile qrel d in
  let rd, td = time (fun () -> Pkg.Direct.run ~limits:bench_limits spec qrel) in
  Format.printf "  direct: %a (%.3fs)@." Pkg.Eval.pp_status rd.Pkg.Eval.status
    td;
  let run_with name radius_spec =
    let part, pt =
      time (fun () ->
          Pkg.Partition.create ?radius:radius_spec ~tau:(max 1 (nq / 10))
            ~attrs:d.attrs qrel)
    in
    let rs, ts =
      time (fun () -> Pkg.Sketch_refine.run ~options:sr_options spec qrel part)
    in
    let r =
      ratio ~maximize:d.maximize
        ~direct:(direct_cell rd rd.Pkg.Eval.objective |> Option.join)
        ~sr:(status_cell rs rs.Pkg.Eval.objective |> Option.join)
    in
    Format.printf
      "  %-22s %5d groups (partitioned in %.2fs)  time %a  ratio %s@." name
      (Pkg.Partition.num_groups part)
      pt pp_time (status_cell rs ts)
      (match r with Some r -> Printf.sprintf "%.3f" r | None -> "-")
  in
  run_with "no radius" None;
  run_with "theorem radius (e=1)"
    (Some (Pkg.Partition.Theorem { epsilon = 1.0; maximize = false }))

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                  *)
(* ------------------------------------------------------------------ *)

let ablation ~scale () =
  Format.printf "@.== Ablations ==@.";
  let n = max 2000 (int_of_float (float_of_int galaxy_base *. scale *. 0.5)) in
  let rel = Datagen.Galaxy.generate ~seed:1 n in
  let queries = Datagen.Workload.galaxy_queries rel in
  let d = List.hd queries (* Q1 *) in
  let spec = Datagen.Workload.compile rel d in
  let tau = max 1 (n / 10) in
  let attrs = d.Datagen.Workload.attrs in
  let rd = Pkg.Direct.run ~limits:bench_limits spec rel in
  let sr_with part =
    time (fun () -> Pkg.Sketch_refine.run ~options:sr_options spec rel part)
  in
  let report name build =
    let part, pt = time build in
    let rs, ts = sr_with part in
    let r =
      ratio ~maximize:d.Datagen.Workload.maximize
        ~direct:(direct_cell rd rd.Pkg.Eval.objective |> Option.join)
        ~sr:(status_cell rs rs.Pkg.Eval.objective |> Option.join)
    in
    Format.printf "  %-28s %4d groups  partition %6.3fs  sr %a  ratio %s@."
      name
      (Pkg.Partition.num_groups part)
      pt pp_time (status_cell rs ts)
      (match r with Some r -> Printf.sprintf "%.2f" r | None -> "-")
  in
  Format.printf "@.-- parallel refine (Section 4.5, optimistic + repair) --@.";
  let part = Pkg.Partition.create ~tau ~attrs rel in
  let rs_seq, ts_seq = sr_with part in
  let rs_par, ts_par =
    time (fun () -> Pkg.Parallel.run ~options:sr_options spec rel part)
  in
  Format.printf "  sequential: %a s (%a)@." pp_time (status_cell rs_seq ts_seq)
    Pkg.Eval.pp_status rs_seq.Pkg.Eval.status;
  Format.printf "  parallel:   %a s (%a)@." pp_time (status_cell rs_par ts_par)
    Pkg.Eval.pp_status rs_par.Pkg.Eval.status;
  Format.printf
    "@.-- split fan-out (2^d sub-quadrants per violating group; Galaxy Q1, \
     n=%d, tau=%d) --@."
    n tau;
  List.iter
    (fun dims ->
      report
        (Printf.sprintf "max_fanout_dims = %d" dims)
        (fun () -> Pkg.Partition.create ~max_fanout_dims:dims ~tau ~attrs rel))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Progressive shading: tight constraints, coarse-to-fine vs flat     *)
(* ------------------------------------------------------------------ *)

(* The claim progressive shading reproduces (arXiv:2307.02860 §5):
   tight constraints defeat a flat sketch because coarse group means
   smooth away the tail tuples the query needs, while the hierarchy
   buys fine leaves only where the solution lives. The matrix crosses
   three tightness classes with two dataset scales (1x / 10x) on
   heavily concentrated Galaxy data; class budgets are derived from the
   partitionings themselves: [tight] sits between the finest and the
   coarsest representative floor, so the flat sketch is infeasible by
   construction and has to survive on its fallback ladder, while the
   progressive leaf expresses it directly. *)
let progressive_bench ~scale () =
  let attrs = [ "redshift"; "petro_rad" ] in
  let k = 10 in
  let deadline_s = Float.max 5. (30. *. scale) in
  let run_size size_label n =
    let rel = Datagen.Galaxy.generate ~seed:3 ~skew:1.5 n in
    Format.printf
      "@.== Progressive shading: tight-constraint matrix (Galaxy n=%d, \
       skew 1.5, %s) ==@."
      n size_label;
    let flat_tau = max 1 (n / 10) in
    let leaf_tau = max 1 (n / 100) in
    let part, t_flat =
      time (fun () -> Pkg.Partition.create ~tau:flat_tau ~attrs rel)
    in
    let hier, t_hier =
      time (fun () ->
          Pkg.Hierarchy.build ~levels:3 ~leaf_tau ~attrs rel)
    in
    Format.printf
      "   partitioning: flat tau=%d (%d groups, %.3fs)  hierarchy \
       leaf_tau=%d (%s groups, %.3fs)@."
      flat_tau
      (Pkg.Partition.num_groups part)
      t_flat leaf_tau
      (String.concat "/"
         (List.init (Pkg.Hierarchy.num_levels hier) (fun l ->
              string_of_int
                (Pkg.Partition.num_groups (Pkg.Hierarchy.level hier l)))))
      t_hier;
    (* the lowest representative mean at each granularity bounds what a
       sketch ILP can promise for SUM(redshift) over k tuples *)
    let min_rep p =
      let reps = p.Pkg.Partition.reps in
      Array.fold_left Float.min infinity
        (Relalg.Relation.column_float reps "redshift")
    in
    let mn_flat = min_rep part in
    let mn_leaf = min_rep (Pkg.Hierarchy.leaf hier) in
    let classes =
      [
        ("loose", float_of_int k *. mn_flat *. 2.);
        ("medium", float_of_int k *. mn_flat *. 1.05);
        ("tight", float_of_int k *. (mn_leaf +. mn_flat) /. 2.);
      ]
    in
    Format.printf
      "   class     budget    sketchrefine              progressive@.";
    List.iter
      (fun (cname, budget) ->
        let spec =
          Paql.Translate.compile_exn
            (Relalg.Relation.schema rel)
            (Paql.Parser.parse_exn
               (Printf.sprintf
                  "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT \
                   COUNT(P.*) = %d AND SUM(P.redshift) <= %.6f MAXIMIZE \
                   SUM(P.petro_rad)"
                  k budget))
        in
        let sr_opts =
          {
            Pkg.Sketch_refine.default_options with
            limits = bench_limits;
            max_seconds = deadline_s;
          }
        in
        let rs, ts =
          time (fun () -> Pkg.Sketch_refine.run ~options:sr_opts spec rel part)
        in
        let p_opts =
          {
            Pkg.Progressive.default_options with
            limits = bench_limits;
            max_seconds = deadline_s;
          }
        in
        let (rp, _), tp =
          time (fun () -> Pkg.Progressive.run ~options:p_opts spec rel hier)
        in
        let solved (r : Pkg.Eval.report) =
          match r.Pkg.Eval.status with
          | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ | Pkg.Eval.Degraded _ ->
            r.Pkg.Eval.package <> None
          | Pkg.Eval.Infeasible | Pkg.Eval.Failed _ -> false
        in
        let cell (r : Pkg.Eval.report) =
          Format.asprintf "%a" Pkg.Eval.pp_status r.Pkg.Eval.status
        in
        (* a rescue: flat SketchRefine fails or blows its deadline, the
           progressive descent answers *)
        let rescues =
          ((not (solved rs)) || ts > deadline_s *. 1.2) && solved rp
        in
        Format.printf "   %-8s %8.4f  %-16s %6.2fs  %-16s %6.2fs%s@." cname
          budget (cell rs) ts (cell rp) tp
          (if rescues then "  (progressive rescues)" else ""))
      classes
  in
  let n1 = max 1_000 (int_of_float (float_of_int galaxy_base *. scale)) in
  run_size "x1" n1;
  run_size "x10" (10 * n1)

(* ------------------------------------------------------------------ *)
(* Stochastic package queries: SummarySearch vs the naive expansion   *)
(* ------------------------------------------------------------------ *)

(* The SummarySearch claim (arXiv:2103.06784): the scenario-expanded
   ILP carries one big-M indicator per (constraint, scenario) and its
   solve time dies with the scenario count, while conservative
   summaries compress the covered scenarios into a handful of rows —
   the same validated probability at a near-constant cost. The sweep
   crosses scenario counts S = 24..192 on a fixed relation; both
   solvers draw the identical scenario realizations (per-index derived
   seeds) and both are validated out-of-sample on a fresh 200-scenario
   holdout, so the only difference measured is the formulation. The
   third point is the typed unsatisfiable-p outcome: a probability no
   package can meet must come back Infeasible within the deadline,
   never a hang. *)
let stoch_bench ~scale () =
  let n = max 300 (int_of_float (float_of_int galaxy_base *. scale *. 0.1)) in
  let rel = Datagen.Galaxy.generate ~seed:3 n in
  let deadline_s = Float.max 10. (60. *. scale) in
  let opts scenarios =
    {
      Pkg.Stochastic.default_options with
      Pkg.Stochastic.limits = bench_limits;
      max_seconds = deadline_s;
      scenarios;
      validation = 200;
      summaries = 2;
      seed = 42;
    }
  in
  let compile q =
    Paql.Translate.compile_exn
      (Relalg.Relation.schema rel)
      (Paql.Parser.parse_exn q)
  in
  let spec =
    compile
      "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 3 SUCH THAT COUNT(P.*) = \
       3 AND SUM(P.u) >= 45 WITH PROBABILITY 0.9 MAXIMIZE SUM(P.r)"
  in
  Format.printf
    "@.== Stochastic: SummarySearch vs scenario expansion (Galaxy n=%d, \
     validation=200, p=0.9) ==@."
    n;
  Format.printf
    "   S      summary                                 naive@.";
  let status_str (r : Pkg.Eval.report) =
    Format.asprintf "%a" Pkg.Eval.pp_status r.Pkg.Eval.status
  in
  let obj_str (r : Pkg.Eval.report) =
    match r.Pkg.Eval.objective with
    | Some v -> Printf.sprintf "%.4f" v
    | None -> "-"
  in
  List.iter
    (fun s ->
      let o = opts s in
      let (rs, ss), ts =
        time (fun () -> Pkg.Stochastic.run ~options:o spec rel)
      in
      let (rn, sn), tn =
        time (fun () -> Pkg.Stochastic.run_naive ~options:o spec rel)
      in
      Format.printf
        "   %-5d  %-10s obj=%-9s val=%.3f %6.3fs   %-10s obj=%-9s val=%.3f \
         %6.3fs  (%.1fx)@."
        s (status_str rs) (obj_str rs) ss.Pkg.Stochastic.st_validated ts
        (status_str rn) (obj_str rn) sn.Pkg.Stochastic.st_validated tn
        (tn /. Float.max 1e-9 ts))
    [ 24; 48; 96; 192 ];
  (* unsatisfiable probability: typed, within the deadline *)
  let unsat_spec =
    compile
      "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 3 SUCH THAT COUNT(P.*) = \
       3 AND SUM(P.u) >= 1000 WITH PROBABILITY 0.95 MAXIMIZE SUM(P.r)"
  in
  let (ru, _), tu =
    time (fun () -> Pkg.Stochastic.run ~options:(opts 48) unsat_spec rel)
  in
  Format.printf "   unsat-p: %-12s within deadline: %b  %6.3fs@."
    (status_str ru)
    (tu <= deadline_s *. 1.2)
    tu

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("fig1", fig1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("radius", radius);
    ("ablation", ablation);
    ("progressive", progressive_bench);
    ("stoch", stoch_bench);
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "%s\nusage: main.exe [--scale S] [experiment ...]\n  S: a positive \
         number (also PKGQ_SCALE)\n  experiments: %s\n"
        msg
        (String.concat ", " (List.map fst all_experiments));
      exit 2)
    fmt

let parse_scale what v =
  match float_of_string_opt v with
  | Some s when Float.is_finite s && s > 0. -> s
  | _ -> usage_error "invalid %s %S" what v

let () =
  let scale =
    match Sys.getenv_opt "PKGQ_SCALE" with
    | Some s -> parse_scale "PKGQ_SCALE" s
    | None -> 1.0
  in
  let rec go scale sel = function
    | [] -> (scale, List.rev sel)
    | [ "--scale" ] -> usage_error "--scale needs a value"
    | "--scale" :: v :: rest -> go (parse_scale "--scale" v) sel rest
    | x :: rest -> (
      match List.assoc_opt x all_experiments with
      | Some f -> go scale ((x, f) :: sel) rest
      | None -> usage_error "unknown experiment %S" x)
  in
  let scale, selected = go scale [] (List.tl (Array.to_list Sys.argv)) in
  let to_run = if selected = [] then all_experiments else selected in
  Format.printf "package-query benchmarks (scale %g)@." scale;
  List.iter (fun (_, f) -> f ~scale ()) to_run;
  Format.printf "@.done.@."
