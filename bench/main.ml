(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) at laptop scale.

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
     scan   row path vs vectorized columnar scans
     robust deadline propagation overshoot
     store  binary segments, partition catalog, incremental maintenance
     serve  service layer: cached throughput, latency, admission control
     solver warm-started dual simplex vs cold primal; basis-cache stream
     progressive tight-constraint matrix: coarse-to-fine vs flat sketch
     micro  bechamel micro-benchmarks of the solver substrate

   Dataset sizes are scaled down from the paper's 5.5M/17.5M tuples;
   `--scale` multiplies the defaults. Shapes (who wins, by what factor,
   where the sweet spots fall), not absolute seconds, are the
   reproduction target — see EXPERIMENTS.md. *)

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
  Format.printf "@.-- partitioner choice (Galaxy Q1, n=%d, tau=%d) --@." n tau;
  report "quad-tree (static)" (fun () ->
      Pkg.Partition.create ~tau ~attrs rel);
  report "k-means (+ tau chunking)" (fun () ->
      Pkg.Kmeans.create ~k:(max 2 (n / tau)) ~tau ~attrs rel);
  let tree = ref None in
  report "dynamic quad-tree cut" (fun () ->
      let t = Pkg.Quad_tree.build ~leaf_size:(max 1 (tau / 4)) ~attrs rel in
      tree := Some t;
      Pkg.Quad_tree.cut ~tau t rel);
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
  Format.printf "@.-- split fan-out (2^d sub-quadrants per violating group) --@.";
  List.iter
    (fun dims ->
      report
        (Printf.sprintf "max_fanout_dims = %d" dims)
        (fun () -> Pkg.Partition.create ~max_fanout_dims:dims ~tau ~attrs rel))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Columnar scan layer microbenchmarks                                *)
(* ------------------------------------------------------------------ *)

(* Best-of-k wall time: small enough workloads that min beats mean as a
   noise filter. *)
let best_of k f =
  let best = ref infinity in
  for _ = 1 to k do
    let _, t = time f in
    if t < !best then best := t
  done;
  !best

(* The seed's row-path selection: interpret the predicate AST against a
   boxed tuple per row. Kept here verbatim as the baseline the
   vectorized path is measured against. *)
let interp_select_indices rel pred =
  let schema = Relalg.Relation.schema rel in
  let out = ref [] in
  for i = Relalg.Relation.cardinality rel - 1 downto 0 do
    if Relalg.Expr.eval_bool schema (Relalg.Relation.row rel i) pred then
      out := i :: !out
  done;
  Array.of_list !out

(* The seed's partitioner column extraction: one fresh boxed-value
   traversal per attribute, then a NaN-to-zero map. *)
let boxed_numeric_columns rel attrs =
  let schema = Relalg.Relation.schema rel in
  let n = Relalg.Relation.cardinality rel in
  List.map
    (fun a ->
      let i = Relalg.Schema.index_of schema a in
      Array.init n (fun row ->
          match Relalg.Value.to_float_opt
                  (Relalg.Tuple.get (Relalg.Relation.row rel row) i)
          with
          | Some v -> v
          | None -> 0.))
    attrs
  |> Array.of_list

let scan_json : (string * string) list ref = ref []

let scan ~scale () =
  let n = max 2_000 (int_of_float (60_000. *. scale)) in
  let seed = 1 in
  Format.printf
    "@.== Columnar scan layer: row path vs vectorized (Galaxy n=%d, seed %d) \
     ==@."
    n seed;
  let rel = Datagen.Galaxy.generate ~seed n in
  let v f = Relalg.Expr.Const (Relalg.Value.Float f) in
  let pred =
    Relalg.Expr.(
      And
        ( Between (Attr "redshift", v 0.02, v 0.35),
          Or (Cmp (Gt, Attr "petro_rad", v 1.2), Cmp (Le, Attr "u", v 18.)) ))
  in
  let reps = 7 in
  (* selection *)
  let matches = Array.length (interp_select_indices rel pred) in
  let t_interp = best_of reps (fun () -> interp_select_indices rel pred) in
  let t_vec =
    best_of reps (fun () -> Relalg.Scan.select_indices ~workers:1 rel pred)
  in
  assert (Array.length (Relalg.Scan.select_indices rel pred) = matches);
  let sel_speedup = t_interp /. t_vec in
  Format.printf
    "  selection (%d/%d rows):      interpreted %8.4fs   vectorized %8.4fs   \
     speedup %.1fx@."
    matches n t_interp t_vec sel_speedup;
  (* aggregation *)
  let agg = Relalg.Aggregate.Sum "petro_rad" in
  let all_rows () =
    Array.to_seq (Array.init n (Relalg.Relation.row rel))
  in
  let t_agg_interp =
    best_of reps (fun () ->
        Relalg.Aggregate.over_rows (Relalg.Relation.schema rel) (all_rows ())
          agg)
  in
  let t_agg_vec =
    best_of reps (fun () -> Relalg.Aggregate.over ~workers:1 rel agg)
  in
  let agg_speedup = t_agg_interp /. t_agg_vec in
  Format.printf
    "  aggregate SUM(petro_rad):    interpreted %8.4fs   vectorized %8.4fs   \
     speedup %.1fx@."
    t_agg_interp t_agg_vec agg_speedup;
  (* partitioner column extraction *)
  let attrs = [ "ra"; "dec"; "redshift" ] in
  let t_boxed = best_of reps (fun () -> boxed_numeric_columns rel attrs) in
  (* cache hits are far below timer resolution: time an inner loop *)
  let cached_iters = 1000 in
  let t_cached =
    best_of reps (fun () ->
        for _ = 1 to cached_iters do
          ignore (Pkg.Partition.numeric_columns rel attrs)
        done)
    /. float_of_int cached_iters
  in
  let ext_speedup = t_boxed /. t_cached in
  Format.printf
    "  column extraction (3 attrs): boxed       %8.4fs   cached     %8.4fs   \
     speedup %.1fx@."
    t_boxed t_cached ext_speedup;
  let tau = max 1 (n / 10) in
  let _, t_part = time (fun () -> Pkg.Partition.create ~tau ~attrs rel) in
  Format.printf "  Partition.create (tau=%d):  %8.4fs@." tau t_part;
  (* end-to-end SketchRefine on Galaxy Q1 *)
  let d = List.hd (Datagen.Workload.galaxy_queries rel) in
  let spec = Datagen.Workload.compile rel d in
  let wattrs = d.Datagen.Workload.attrs in
  let part = Pkg.Partition.create ~tau ~attrs:wattrs rel in
  let rs, t_sr =
    time (fun () -> Pkg.Sketch_refine.run ~options:sr_options spec rel part)
  in
  Format.printf "  SketchRefine %s end-to-end: %8.4fs (%a)@."
    d.Datagen.Workload.name t_sr Pkg.Eval.pp_status rs.Pkg.Eval.status;
  let num v = Printf.sprintf "%.6f" v in
  scan_json :=
    [
      ("scale", Printf.sprintf "%g" scale);
      ("seed", string_of_int seed);
      ("rows", string_of_int n);
      ("selection_matches", string_of_int matches);
      ("selection_interpreted_s", num t_interp);
      ("selection_vectorized_s", num t_vec);
      ("selection_speedup", Printf.sprintf "%.2f" sel_speedup);
      ("aggregate_interpreted_s", num t_agg_interp);
      ("aggregate_vectorized_s", num t_agg_vec);
      ("aggregate_speedup", Printf.sprintf "%.2f" agg_speedup);
      ("extract_boxed_s", num t_boxed);
      ("extract_cached_s", num t_cached);
      ("extract_speedup", Printf.sprintf "%.2f" ext_speedup);
      ("partition_create_s", num t_part);
      ("sketchrefine_query", Printf.sprintf "%S" d.Datagen.Workload.name);
      ("sketchrefine_wall_s", num t_sr);
      ( "sketchrefine_status",
        Printf.sprintf "%S"
          (Format.asprintf "%a" Pkg.Eval.pp_status rs.Pkg.Eval.status) );
    ]

let write_json path kvs =
  let oc = open_out path in
  output_string oc "{\n";
  let rec emit = function
    | [] -> ()
    | (k, v) :: rest ->
      Printf.fprintf oc "  %S: %s%s\n" k v (if rest = [] then "" else ",");
      emit rest
  in
  emit kvs;
  output_string oc "}\n";
  close_out oc;
  Format.printf "  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Resilience: wall-time overshoot vs the global budget               *)
(* ------------------------------------------------------------------ *)

let robust_json : (string * string) list ref = ref []

(* How far past its wall-clock budget an evaluation runs: every ILP
   call (the Phase-1 workers' included) clamps its time limit to the
   remaining global budget, so the overshoot stays within scheduling
   noise of the budget even under a generous static per-ILP cap. *)
let robust ~scale () =
  let budget = 0.5 in
  let n = max 4_000 (int_of_float (float_of_int galaxy_base *. scale)) in
  Format.printf
    "@.== Resilience: deadline propagation, budget %.2fs (Galaxy Q7, n=%d) \
     ==@."
    budget n;
  let rel = Datagen.Galaxy.generate ~seed:1 n in
  let queries = Datagen.Workload.galaxy_queries rel in
  let d = List.nth queries 6 (* Q7: the hardest Galaxy query *) in
  let qrel = Datagen.Workload.query_relation ~dataset:`Galaxy rel d in
  let spec = Datagen.Workload.compile qrel d in
  let part =
    Pkg.Partition.create ~tau:(Pkg.Partition.default_tau qrel)
      ~attrs:d.Datagen.Workload.attrs qrel
  in
  let options =
    {
      Pkg.Sketch_refine.default_options with
      (* generous static per-ILP cap: only the clamp keeps a single ILP
         from burning all of it *)
      limits = { Ilp.Branch_bound.default_limits with max_seconds = 10. };
      max_seconds = budget;
    }
  in
  Format.printf "   driver        wall(s)  overshoot  status@.";
  let one name run =
    let r, t = time (fun () -> run options) in
    let overshoot = t /. budget in
    Format.printf "   %-12s  %8.3f   %6.2fx   %a@." name t overshoot
      Pkg.Eval.pp_status r.Pkg.Eval.status;
    let key suffix = Printf.sprintf "%s_propagated_%s" name suffix in
    robust_json :=
      !robust_json
      @ [
          (key "wall_s", Printf.sprintf "%.6f" t);
          (key "overshoot", Printf.sprintf "%.3f" overshoot);
          ( key "status",
            Printf.sprintf "%S"
              (Format.asprintf "%a" Pkg.Eval.pp_status r.Pkg.Eval.status) );
        ]
  in
  robust_json :=
    [
      ("budget_s", Printf.sprintf "%.3f" budget);
      ("rows", string_of_int (Relalg.Relation.cardinality qrel));
      ("query", Printf.sprintf "%S" d.Datagen.Workload.name);
    ];
  one "sketchrefine" (fun o -> Pkg.Sketch_refine.run ~options:o spec qrel part);
  one "parallel" (fun o -> Pkg.Parallel.run ~options:o spec qrel part)

(* ------------------------------------------------------------------ *)
(* Store: binary segments, partition catalog, incremental maintenance *)
(* ------------------------------------------------------------------ *)

let store_json : (string * string) list ref = ref []

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The three store claims, measured: (1) a binary segment loads far
   faster than re-parsing the CSV it was built from; (2) a warm run —
   segment + catalog hit — beats the cold run end to end; (3) an
   append that overflows one group re-splits only that group's
   subtree, far cheaper than repartitioning from scratch. *)
let store_bench ~scale () =
  let n = max 5_000 (int_of_float (float_of_int galaxy_base *. scale)) in
  Format.printf
    "@.== Store: binary segments & partition catalog (Galaxy n=%d) ==@." n;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pkgq-bench-store-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then remove_tree dir;
  let cat = Store.Catalog.open_dir dir in
  let rel = Datagen.Galaxy.generate ~seed:1 n in
  let csv_path = Filename.concat dir "galaxy.csv" in
  Relalg.Csv.write csv_path rel;
  let d = List.hd (Datagen.Workload.galaxy_queries rel) in
  let attrs = d.Datagen.Workload.attrs in
  let tau = max 1 (n / 10) in
  (* -- cold end to end: parse CSV, partition, query -- *)
  let (report_cold, part_cold), t_cold =
    time (fun () ->
        let rel = Relalg.Csv.read csv_path in
        let part = Pkg.Partition.create ~tau ~attrs rel in
        let spec = Datagen.Workload.compile rel d in
        (Pkg.Sketch_refine.run ~options:sr_options spec rel part, part))
  in
  (* populate the store like a first --store run would *)
  let _, fp = Store.Catalog.load_table cat csv_path in
  let key = { Store.Catalog.fingerprint = fp; attrs; tau;
              radius = Pkg.Partition.No_radius; level = None } in
  Store.Catalog.store cat key part_cold;
  (* -- load path: CSV parse vs binary segment -- *)
  let reps = 5 in
  let seg_path =
    Filename.concat (Filename.concat dir "tables") (fp ^ ".seg")
  in
  let t_csv = best_of reps (fun () -> Relalg.Csv.read csv_path) in
  let t_seg = best_of reps (fun () -> Store.Segment.read seg_path) in
  let load_speedup = t_csv /. t_seg in
  Format.printf
    "  table load:     csv %8.4fs   segment %8.4fs   speedup %.1fx@." t_csv
    t_seg load_speedup;
  (* -- warm end to end: segment load, catalog hit, query -- *)
  let report_warm, t_warm =
    time (fun () ->
        let rel, fp = Store.Catalog.load_table cat csv_path in
        let key = { key with Store.Catalog.fingerprint = fp } in
        let part, status =
          Store.Catalog.lookup_or_build cat key ~build:(fun () ->
              Pkg.Partition.create ~tau ~attrs rel)
        in
        assert (status = `Hit);
        let spec = Datagen.Workload.compile rel d in
        Pkg.Sketch_refine.run ~options:sr_options spec rel part)
  in
  Format.printf
    "  %s end-to-end:  cold %8.4fs (%a)   warm %8.4fs (%a)   warm/cold %.2f@."
    d.Datagen.Workload.name t_cold Pkg.Eval.pp_status
    report_cold.Pkg.Eval.status t_warm Pkg.Eval.pp_status
    report_warm.Pkg.Eval.status (t_warm /. t_cold);
  (* -- incremental maintenance: overflow one group -- *)
  let p = part_cold in
  let gid = ref 0 in
  Array.iteri
    (fun i (g : Pkg.Partition.group) ->
      if
        Array.length g.Pkg.Partition.members
        > Array.length p.Pkg.Partition.groups.(!gid).Pkg.Partition.members
      then gid := i)
    p.Pkg.Partition.groups;
  let g = p.Pkg.Partition.groups.(!gid) in
  let size = Array.length g.Pkg.Partition.members in
  let copies = (tau / max 1 size) + 1 in
  let extra_ids =
    Array.concat (List.init copies (fun _ -> g.Pkg.Partition.members))
  in
  let extra = Relalg.Relation.take rel extra_ids in
  let (_, stats), t_append =
    time (fun () ->
        Store.Maintain.append ~tau ~radius:Pkg.Partition.No_radius p
          (Store.Recovery.apply rel (Store.Wal.Append extra)))
  in
  let _, t_scratch =
    time (fun () ->
        let rows =
          Array.init
            (n + Array.length extra_ids)
            (fun i ->
              if i < n then Relalg.Relation.row rel i
              else Relalg.Relation.row extra (i - n))
        in
        let combined =
          Relalg.Relation.of_array (Relalg.Relation.schema rel) rows
        in
        Pkg.Partition.create ~tau ~attrs combined)
  in
  Format.printf
    "  append %d rows: incremental %8.4fs (%a)   from-scratch %8.4fs@."
    (Array.length extra_ids) t_append Store.Maintain.pp_stats stats t_scratch;
  remove_tree dir;
  let num v = Printf.sprintf "%.6f" v in
  store_json :=
    [
      ("scale", Printf.sprintf "%g" scale);
      ("rows", string_of_int n);
      ("csv_load_s", num t_csv);
      ("segment_load_s", num t_seg);
      ("load_speedup", Printf.sprintf "%.2f" load_speedup);
      ("cold_e2e_s", num t_cold);
      ("warm_e2e_s", num t_warm);
      ("warm_over_cold", Printf.sprintf "%.3f" (t_warm /. t_cold));
      ("append_rows", string_of_int (Array.length extra_ids));
      ("append_incremental_s", num t_append);
      ("append_from_scratch_s", num t_scratch);
      ("groups_before", string_of_int stats.Store.Maintain.groups_before);
      ("groups_after", string_of_int stats.Store.Maintain.groups_after);
      ("groups_touched", string_of_int stats.Store.Maintain.groups_touched);
      ("groups_resplit", string_of_int stats.Store.Maintain.groups_resplit);
    ]

(* ------------------------------------------------------------------ *)
(* Service layer: throughput, latency, caches, admission control      *)
(* ------------------------------------------------------------------ *)

let serve_json : (string * string) list ref = ref []

let percentile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

(* Play [stream] against the server on [port] from [clients] concurrent
   connections (round-robin split), one request at a time per
   connection. Returns (per-request latencies, total wall, errors). *)
let play_stream ~port ~clients stream =
  let stream = Array.of_list stream in
  let lats = Array.make (Array.length stream) 0. in
  let errors = Atomic.make 0 in
  let run ci =
    let c = Service.Client.connect ~host:"127.0.0.1" ~port () in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        Array.iteri
          (fun i q ->
            if i mod clients = ci then begin
              let t0 = Unix.gettimeofday () in
              (match Service.Client.query c q with
              | Service.Protocol.Resp_ok _ -> ()
              | Service.Protocol.Resp_err _ -> Atomic.incr errors);
              lats.(i) <- Unix.gettimeofday () -. t0
            end)
          stream)
  in
  let t0 = Unix.gettimeofday () in
  let ths = List.init clients (fun ci -> Thread.create run ci) in
  List.iter Thread.join ths;
  (Array.to_list lats, Unix.gettimeofday () -. t0, Atomic.get errors)

(* The service-layer claims, measured end to end over TCP: a repeated
   query answered from the result cache beats re-solving by >=3x, and
   under overload admission control sheds with a typed [rejected]
   answer instead of queueing without bound. Both phases play the same
   repeat stream, so cache-off vs cache-on is the only variable. *)
let serve ~scale () =
  let n = max 1_500 (int_of_float (4_000. *. scale)) in
  let clients = 8 in
  let distinct = 6 in
  let repeats = max 12 (int_of_float (48. *. scale)) in
  Format.printf
    "@.== Service layer: repeated-query throughput & admission control \
     (Galaxy n=%d, %d clients) ==@."
    n clients;
  let rel = Datagen.Galaxy.generate ~seed:5 n in
  let defs =
    Datagen.Workload.mixed ~seed:11 ~repeat_rate:0. ~dataset:`Galaxy
      ~n:distinct rel
  in
  let qarr =
    Array.of_list (List.map (fun (d : Datagen.Workload.def) -> d.paql) defs)
  in
  let warm = Array.to_list qarr in
  let repeat_stream =
    List.init repeats (fun i -> qarr.(i mod Array.length qarr))
  in
  let cfg ~result_cache ~workers ~queue =
    {
      (Service.Server.default_config ()) with
      Service.Server.workers;
      queue;
      result_cache;
      plan_cache = 64;
      method_ = Service.Server.Direct;
      limits = bench_limits;
      request_seconds = 300.;
      log_every = 0.;
    }
  in
  let with_server cfg f =
    let srv = Service.Server.start cfg rel in
    Fun.protect ~finally:(fun () -> Service.Server.stop srv) (fun () -> f srv)
  in
  (* -- repeated-query throughput: result cache off vs on -- *)
  let phase label result_cache =
    with_server (cfg ~result_cache ~workers:4 ~queue:64) (fun srv ->
        let port = Service.Server.port srv in
        (* untimed warm-up: populates the plan cache on both servers and
           the result cache on the cache-on one, so the timed stream
           compares pure re-solve against pure cache hit *)
        ignore (play_stream ~port ~clients:1 warm);
        let lats, wall, errs = play_stream ~port ~clients repeat_stream in
        let qps = float_of_int repeats /. wall in
        let p50 = percentile lats 0.5 and p99 = percentile lats 0.99 in
        let hits =
          Service.Metrics.get (Service.Server.metrics srv) "result_hits"
        in
        Format.printf
          "  %-16s %3d req  wall %7.3fs  %8.1f q/s  p50 %7.2fms  p99 \
           %7.2fms  solves %d  hits %d%s@."
          label repeats wall qps (p50 *. 1e3) (p99 *. 1e3)
          (Service.Server.solve_count srv)
          hits
          (if errs > 0 then Printf.sprintf "  (%d errors)" errs else "");
        (wall, qps, p50, p99, errs))
  in
  let off_wall, off_qps, off_p50, off_p99, off_errs =
    phase "cache off" 0
  in
  let on_wall, on_qps, on_p50, on_p99, on_errs = phase "cache on" 256 in
  let speedup = on_qps /. off_qps in
  Format.printf "  cached repeated-query throughput: %.1fx cache-off%s@."
    speedup
    (if speedup >= 3. then "" else "  (below the 3x target)");
  (* -- overload: more simultaneous requests than workers + queue -- *)
  let overload_clients = 16 in
  let shed, rejected, answered =
    with_server (cfg ~result_cache:0 ~workers:1 ~queue:2) (fun srv ->
        let port = Service.Server.port srv in
        let ready = Atomic.make 0 in
        let go = Atomic.make false in
        let rejected = Atomic.make 0 in
        let answered = Atomic.make 0 in
        let one i =
          let c = Service.Client.connect ~host:"127.0.0.1" ~port () in
          Fun.protect
            ~finally:(fun () -> Service.Client.close c)
            (fun () ->
              Atomic.incr ready;
              while not (Atomic.get go) do
                Thread.yield ()
              done;
              (match
                 Service.Client.query c qarr.(i mod Array.length qarr)
               with
              | Service.Protocol.Resp_err (Service.Protocol.Rejected, _) ->
                Atomic.incr rejected
              | _ -> ());
              Atomic.incr answered)
        in
        let ths = List.init overload_clients (fun i -> Thread.create one i) in
        while Atomic.get ready < overload_clients do
          Thread.yield ()
        done;
        Atomic.set go true;
        List.iter Thread.join ths;
        ( Service.Metrics.get (Service.Server.metrics srv) "shed",
          Atomic.get rejected,
          Atomic.get answered ))
  in
  Format.printf
    "  overload (%d simultaneous, workers=1 queue=2): shed %d, rejected \
     replies %d, answered %d/%d@."
    overload_clients shed rejected answered overload_clients;
  let num v = Printf.sprintf "%.6f" v in
  serve_json :=
    [
      ("scale", Printf.sprintf "%g" scale);
      ("rows", string_of_int n);
      ("clients", string_of_int clients);
      ("distinct_queries", string_of_int distinct);
      ("repeat_requests", string_of_int repeats);
      ("cacheoff_wall_s", num off_wall);
      ("cacheoff_qps", Printf.sprintf "%.2f" off_qps);
      ("cacheoff_p50_ms", Printf.sprintf "%.3f" (off_p50 *. 1e3));
      ("cacheoff_p99_ms", Printf.sprintf "%.3f" (off_p99 *. 1e3));
      ("cacheoff_errors", string_of_int off_errs);
      ("cacheon_wall_s", num on_wall);
      ("cacheon_qps", Printf.sprintf "%.2f" on_qps);
      ("cacheon_p50_ms", Printf.sprintf "%.3f" (on_p50 *. 1e3));
      ("cacheon_p99_ms", Printf.sprintf "%.3f" (on_p99 *. 1e3));
      ("cacheon_errors", string_of_int on_errs);
      ("cached_speedup", Printf.sprintf "%.2f" speedup);
      ("overload_clients", string_of_int overload_clients);
      ("overload_shed", string_of_int shed);
      ("overload_rejected_replies", string_of_int rejected);
      ("overload_answered", string_of_int answered);
    ]

(* ------------------------------------------------------------------ *)
(* Durability: chaos crash matrix + recovery time + WAL sync overhead *)
(* ------------------------------------------------------------------ *)

let durability_json : (string * string) list ref = ref []

(* The crash matrix kills a real [pkgq_server] child at every injected
   point — mid-frame (torn tail), post-fsync/pre-ack (in-doubt), and
   post-ack (external SIGKILL), with and without checkpoints in the
   window — restarts it, and verifies the recovered table is
   byte-identical to a reference prefix: zero acknowledged-write loss,
   zero phantoms. Then the WAL's fsync cost is measured directly,
   Always vs Never, records/sec. *)
let durability ~scale () =
  let module Ch = Service.Chaos in
  let exe =
    let p =
      match Sys.getenv_opt "PKGQ_SERVER_EXE" with
      | Some p -> p
      | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/pkgq_server.exe"
    in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  if not (Sys.file_exists exe) then begin
    Format.printf
      "@.== Durability: skipped (no server binary at %s; set \
       PKGQ_SERVER_EXE) ==@."
      exe;
    durability_json := [ ("skipped", "true") ]
  end
  else begin
    let n = max 500 (int_of_float (float_of_int galaxy_base *. scale *. 0.2)) in
    let batches_n = 10 in
    let batch_rows = max 5 (int_of_float (40. *. scale)) in
    Format.printf
      "@.== Durability: chaos crash matrix (Galaxy n=%d, %d append batches \
       of %d rows) ==@."
      n batches_n batch_rows;
    let base = Datagen.Galaxy.generate ~seed:21 n in
    let batches =
      List.init batches_n (fun k ->
          Datagen.Workload.append_batch ~dataset:`Galaxy ~rows:batch_rows
            ~seed:(3000 + k))
    in
    let scratch =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pkgq-bench-dur-%d" (Unix.getpid ()))
    in
    (* the matrix: torn mid-frame, durable-but-unacked, and post-ack
       kills; a second block replays a slice of it with checkpointing
       active so recovery also exercises checkpoint + partial log *)
    let points =
      List.map (fun k -> (Printf.sprintf "torn%d" k, Ch.Torn k, None))
        [ 1; 2; 3; 4; 5; 6; 7 ]
      @ List.map (fun k -> (Printf.sprintf "crash%d" k, Ch.Crash k, None))
          [ 1; 2; 3; 4; 5; 6; 7 ]
      @ List.map
          (fun k -> (Printf.sprintf "kill%d" k, Ch.Kill_after k, None))
          [ 1; 4; 7; 10 ]
      @ [
          ("torn5-ckpt", Ch.Torn 5, Some 3);
          ("crash5-ckpt", Ch.Crash 5, Some 3);
          ("kill10-ckpt", Ch.Kill_after 10, Some 3);
        ]
    in
    (* never-crashed control: the live server's bytes equal the local
       reference fold *)
    let ref_run =
      Ch.run_reference ~exe ~dir:(Filename.concat scratch "ref") ~base
        ~batches ()
    in
    let ref_fp, _ = ref_run.Ch.refs.(Array.length ref_run.Ch.refs - 1) in
    let reference_equal = ref_run.Ch.recovered_fp = ref_fp in
    Format.printf "  reference run: %d appends, live state %s reference@."
      ref_run.Ch.acked
      (if reference_equal then "==" else "<> (VIOLATION)");
    let violations = ref 0 in
    let recovery_times = ref [] in
    let total, t_matrix =
      time (fun () ->
          List.iter
            (fun (name, point, checkpoint) ->
              let r =
                Ch.run_crash ~exe
                  ~dir:(Filename.concat scratch name)
                  ~base ~batches ~point ?checkpoint ()
              in
              recovery_times := r.Ch.recovery_seconds :: !recovery_times;
              match Ch.check r with
              | Ok i ->
                Format.printf
                  "  %-12s acked %2d, recovered prefix %2d (%d rows) in \
                   %.3fs  ok@."
                  name r.Ch.acked i r.Ch.recovered_rows r.Ch.recovery_seconds
              | Error msg ->
                incr violations;
                Format.printf "  %-12s VIOLATION: %s@." name msg)
            points;
          List.length points)
    in
    let rec_mean =
      List.fold_left ( +. ) 0. !recovery_times
      /. float_of_int (List.length !recovery_times)
    in
    let rec_max = List.fold_left Float.max 0. !recovery_times in
    Format.printf
      "  %d crash points in %.1fs: %d violation(s); recovery mean %.3fs, \
       max %.3fs@."
      total t_matrix !violations rec_mean rec_max;
    (* WAL sync overhead: seconds per record, fsync-per-commit vs
       leaving flushing to the kernel (PKGQ_WAL_SYNC=off) *)
    let sync_records = max 40 (int_of_float (150. *. scale)) in
    let small = Datagen.Galaxy.generate ~seed:33 8 in
    let time_wal sync =
      let path = Filename.concat scratch "sync-probe.log" in
      if Sys.file_exists path then Sys.remove path;
      let wal, _ = Store.Wal.open_log ~sync path in
      let (), t =
        time (fun () ->
            for _ = 1 to sync_records do
              ignore (Store.Wal.append wal (Store.Wal.Append small))
            done)
      in
      Store.Wal.close wal;
      t /. float_of_int sync_records
    in
    let per_rec_on = time_wal Store.Wal.Always in
    let per_rec_off = time_wal Store.Wal.Never in
    let overhead = per_rec_on /. Float.max 1e-9 per_rec_off in
    Format.printf
      "  wal append: %.0f us/record fsync-on vs %.0f us/record off \
       (overhead %.1fx over %d records)@."
      (per_rec_on *. 1e6) (per_rec_off *. 1e6) overhead sync_records;
    durability_json :=
      [
        ("table_rows", string_of_int n);
        ("append_batches", string_of_int batches_n);
        ("batch_rows", string_of_int batch_rows);
        ("crash_points", string_of_int total);
        ("violations", string_of_int !violations);
        ("reference_equal", if reference_equal then "true" else "false");
        ("recovery_mean_s", Printf.sprintf "%.6f" rec_mean);
        ("recovery_max_s", Printf.sprintf "%.6f" rec_max);
        ("matrix_wall_s", Printf.sprintf "%.3f" t_matrix);
        ("wal_sync_records", string_of_int sync_records);
        ("wal_sync_on_s_per_record", Printf.sprintf "%.6f" per_rec_on);
        ("wal_sync_off_s_per_record", Printf.sprintf "%.6f" per_rec_off);
        ("wal_sync_overhead_x", Printf.sprintf "%.2f" overhead);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Progressive shading: tight constraints, coarse-to-fine vs flat     *)
(* ------------------------------------------------------------------ *)

let progressive_json : (string * string) list ref = ref []

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
          | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ -> r.Pkg.Eval.package <> None
          | Pkg.Eval.Degraded _ -> r.Pkg.Eval.package <> None
          | Pkg.Eval.Infeasible | Pkg.Eval.Failed _ -> false
        in
        let cell (r : Pkg.Eval.report) =
          Format.asprintf "%a" Pkg.Eval.pp_status r.Pkg.Eval.status
        in
        Format.printf "   %-8s %8.4f  %-16s %6.2fs  %-16s %6.2fs@." cname
          budget (cell rs) ts (cell rp) tp;
        let key s = Printf.sprintf "%s_%s_%s" size_label cname s in
        progressive_json :=
          !progressive_json
          @ [
              (key "budget", Printf.sprintf "%.6f" budget);
              ( key "sketchrefine_status",
                Printf.sprintf "%S"
                  (Format.asprintf "%a" Pkg.Eval.pp_status rs.Pkg.Eval.status)
              );
              (key "sketchrefine_wall_s", Printf.sprintf "%.6f" ts);
              ( key "sketchrefine_overshoot",
                Printf.sprintf "%.3f" (ts /. deadline_s) );
              (key "sketchrefine_solved", string_of_bool (solved rs));
              ( key "progressive_status",
                Printf.sprintf "%S"
                  (Format.asprintf "%a" Pkg.Eval.pp_status rp.Pkg.Eval.status)
              );
              (key "progressive_wall_s", Printf.sprintf "%.6f" tp);
              ( key "progressive_overshoot",
                Printf.sprintf "%.3f" (tp /. deadline_s) );
              (key "progressive_solved", string_of_bool (solved rp));
              ( key "progressive_rescues",
                string_of_bool
                  ((not (solved rs) || ts > deadline_s *. 1.2) && solved rp)
              );
            ])
      classes
  in
  let n1 = max 1_000 (int_of_float (float_of_int galaxy_base *. scale)) in
  progressive_json :=
    [
      ("k", string_of_int k);
      ("deadline_s", Printf.sprintf "%.3f" deadline_s);
      ("skew", "1.5");
    ];
  run_size "x1" n1;
  run_size "x10" (10 * n1)

(* ------------------------------------------------------------------ *)
(* Sharded serving: QPS scaling, failover recovery, chaos matrix      *)
(* ------------------------------------------------------------------ *)

let shard_json : (string * string) list ref = ref []

(* Scatter/gather over real [pkgq_server] fleets: (1) overload QPS at
   1/2/4 shards — the shards carry the refine ILPs, so process-level
   parallelism should show up directly; (2) failover recovery time,
   primary SIGKILLed mid-stream; (3) a kill/stall/fault matrix where
   every point must end in the exact single-node reference package or a
   typed degraded/failed answer within the budget — never a hang, never
   a silently wrong answer. *)
let shard_bench ~scale () =
  let module Ch = Service.Chaos in
  let module Co = Service.Coordinator in
  let exe =
    let p =
      match Sys.getenv_opt "PKGQ_SERVER_EXE" with
      | Some p -> p
      | None ->
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/pkgq_server.exe"
    in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  if not (Sys.file_exists exe) then begin
    Format.printf
      "@.== Sharding: skipped (no server binary at %s; set PKGQ_SERVER_EXE) \
       ==@."
      exe;
    shard_json := [ ("skipped", "true") ]
  end
  else begin
    let n = max 600 (int_of_float (float_of_int galaxy_base *. scale *. 0.3)) in
    (* partition spatially, objective over brightness: the top-objective
       rows scatter across groups, so refines spread across shards; the
       large tau keeps each per-group refine ILP big enough that solver
       work (not RPC latency) dominates a request *)
    let attrs = [ "ra"; "dec" ] in
    let tau = max 48 (n / 12) in
    let base = Datagen.Galaxy.generate ~seed:9 n in
    Format.printf
      "@.== Sharded serving: scatter/gather over pkgq_server fleets (Galaxy \
       n=%d, tau=%d) ==@."
      n tau;
    let scratch =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pkgq-bench-shard-%d" (Unix.getpid ()))
    in
    let fleet_args =
      [ "--attrs"; String.concat "," attrs; "--tau"; string_of_int tau ]
    in
    let coord_cfg () =
      {
        (Co.default_config ()) with
        Co.attrs;
        tau = Some tau;
        limits = bench_limits;
        request_seconds = 30.;
        connect_timeout = 1.;
        rpc_seconds = 1.;
        retries = 1;
        hedge_ms = 30;
        breaker_probe_seconds = 0.25;
        ship_every = 0.02;
      }
    in
    let with_fleet name ~shards ~replicas f =
      let fleet =
        Ch.start_fleet ~exe
          ~dir:(Filename.concat scratch name)
          ~base ~shards ~replicas ~extra_args:fleet_args ()
      in
      Fun.protect
        ~finally:(fun () -> Ch.stop_fleet fleet)
        (fun () ->
          let t = Co.start (coord_cfg ()) (Ch.fleet_specs fleet) base in
          Fun.protect ~finally:(fun () -> Co.stop t) (fun () -> f fleet t))
    in
    let mu_r =
      let col = Relalg.Relation.column_float base "r" in
      Array.fold_left ( +. ) 0. col /. float_of_int (Array.length col)
    in
    let queries =
      (* calibrate binding side constraints from the data (same idiom as
         Datagen.Workload): a thin window on total r-band brightness
         makes the refine LPs fractional, so the shards spend real
         branch-and-bound time on every request instead of answering
         from one integral LP relaxation *)
      List.init 4 (fun i ->
          let k = 10 + (2 * i) in
          let kf = float_of_int k in
          Printf.sprintf
            "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = %d \
             AND SUM(P.r) BETWEEN %g AND %g MAXIMIZE SUM(P.petro_rad)"
            k
            (0.99 *. kf *. mu_r)
            (1.01 *. kf *. mu_r))
    in
    let nth_query i = List.nth queries (i mod List.length queries) in
    let essence = function
      | Service.Protocol.Resp_ok body -> (
        match Service.Protocol.parse_result body with
        | Ok (status, _wall, csv) -> `Ok (status, csv)
        | Error e -> `Bad e)
      | Service.Protocol.Resp_err (code, msg) ->
        `Err (Service.Protocol.code_name code, msg)
    in
    (* ground truth: one in-process sketchrefine server, same config *)
    let reference =
      let cfg =
        {
          (Service.Server.default_config ()) with
          Service.Server.method_ = Service.Server.Sketch_refine;
          attrs;
          tau = Some tau;
          workers = 2;
          queue = 32;
          result_cache = 0;
          limits = bench_limits;
          request_seconds = 30.;
          log_every = 0.;
        }
      in
      let srv = Service.Server.start cfg base in
      Fun.protect
        ~finally:(fun () -> Service.Server.stop srv)
        (fun () ->
          let c =
            Service.Client.connect ~host:"127.0.0.1"
              ~port:(Service.Server.port srv) ()
          in
          Fun.protect
            ~finally:(fun () -> try Service.Client.close c with _ -> ())
            (fun () ->
              List.map (fun q -> (q, essence (Service.Client.query c q)))
                queries))
    in
    (* -- QPS scaling at overload client counts -- *)
    let requests = max 16 (int_of_float (64. *. scale)) in
    let clients = 8 in
    (* every request is a semantically distinct query (perturbed size and
       window, as in Workload.mixed) so the stream measures sustained
       sketch/refine work, not plan- and warm-start-cache hits *)
    let stream =
      List.init requests (fun j ->
          let k = 8 + (j mod 7) in
          let kf = float_of_int k in
          let center = kf *. mu_r *. (1. +. (0.003 *. float_of_int (j mod 13))) in
          Printf.sprintf
            "SELECT PACKAGE(G) AS P FROM Galaxy G SUCH THAT COUNT(P.*) = %d \
             AND SUM(P.r) BETWEEN %g AND %g MAXIMIZE SUM(P.petro_rad)"
            k (0.99 *. center) (1.01 *. center))
    in
    let qps_for shards =
      with_fleet (Printf.sprintf "qps%d" shards) ~shards ~replicas:0
        (fun _fleet t ->
          let port = Co.port t in
          (* untimed warm-up: plan cache, layouts, shard assignments *)
          ignore (play_stream ~port ~clients:1 queries);
          let _, wall, errs = play_stream ~port ~clients stream in
          let qps = float_of_int requests /. wall in
          Format.printf
            "  %d shard(s): %3d req from %d clients  wall %7.3fs  %7.2f q/s%s@."
            shards requests clients wall qps
            (if errs > 0 then Printf.sprintf "  (%d errors)" errs else "");
          (qps, errs))
    in
    let qps1, err1 = qps_for 1 in
    let qps2, err2 = qps_for 2 in
    let qps4, err4 = qps_for 4 in
    let scaling = qps4 /. Float.max 1e-9 qps1 in
    let cores =
      (* shard processes are the unit of parallelism, so QPS scaling is
         bounded by the machine's core count; record it so the scaling
         figure is interpretable *)
      try
        let ic = open_in "/proc/cpuinfo" in
        let n = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.length line >= 9 && String.sub line 0 9 = "processor"
             then incr n
           done
         with End_of_file -> ());
        close_in ic;
        max 1 !n
      with _ -> 1
    in
    Format.printf "  scaling 4 shards vs 1: %.2fx on %d core(s)%s@." scaling
      cores
      (if scaling >= 3. then ""
       else if cores < 4 then
         Printf.sprintf
           "  (CPU-bound: %d core(s) cap process-parallel scaling at %d.0x)"
           cores cores
       else "  (below the 3x target)");
    (* -- failover recovery: primary SIGKILLed between queries -- *)
    let failover_mean_ms, failovers =
      with_fleet "failover" ~shards:2 ~replicas:1 (fun fleet t ->
          ignore (Co.eval t (nth_query 0));
          Ch.kill_server (List.nth fleet 0).Ch.fm_primary;
          ignore (Co.eval t (nth_query 0));
          ignore (Co.eval t (nth_query 1));
          let m = Co.metrics t in
          ( (match Service.Metrics.mean m "failover" with
            | Some s -> s *. 1000.
            | None -> 0.),
            Service.Metrics.get m "shard_failovers" ))
    in
    Format.printf "  failover recovery: %d failover(s), mean %.1fms%s@."
      failovers failover_mean_ms
      (if failover_mean_ms < 500. then "" else "  (above the 500ms target)");
    (* -- the chaos matrix -- *)
    let points = ref 0 in
    let exact = ref 0 in
    let typed_degraded = ref 0 in
    let wrong = ref 0 in
    let over_budget = ref 0 in
    let install spec =
      match Pkg.Faults.parse spec with
      | Ok s -> Pkg.Faults.install s
      | Error msg -> failwith ("bad bench fault spec: " ^ msg)
    in
    let t_matrix_0 = Unix.gettimeofday () in
    let run_round round =
      with_fleet
        (Printf.sprintf "matrix%d" round)
        ~shards:4 ~replicas:1
        (fun fleet t ->
          let prim k = (List.nth fleet k).Ch.fm_primary in
          let repl k = Option.get (List.nth fleet k).Ch.fm_replica in
          let point label prep cleanup qi =
            prep ();
            let q = nth_query qi in
            let t0 = Unix.gettimeofday () in
            let e = essence (Co.eval t q) in
            let wall = Unix.gettimeofday () -. t0 in
            cleanup ();
            incr points;
            if wall > 2. *. (coord_cfg ()).Co.request_seconds then
              incr over_budget;
            match e with
            | `Ok _ when e = List.assoc q reference -> incr exact
            | `Ok _ ->
              incr wrong;
              Format.printf "  WRONG ANSWER at point %S@." label
            | `Err ("degraded", _) | `Err ("failed", _)
            | `Err ("deadline", _)
            (* a query landing in a fencing promotion window answers the
               typed fence, never a hang or a wrong package *)
            | `Err ("fenced", _) ->
              incr typed_degraded
            | `Err (c, m) ->
              incr wrong;
              Format.printf "  unsanctioned outcome at %S: %s: %s@." label c m
            | `Bad m ->
              incr wrong;
              Format.printf "  malformed reply at %S: %s@." label m
          in
          let nop () = () in
          point "healthy" nop nop round;
          point "inject crash shard0"
            (fun () -> install "shard=0:crash")
            Pkg.Faults.clear (round + 1);
          point "inject drop shard1"
            (fun () -> install "shard=1:drop")
            Pkg.Faults.clear (round + 2);
          point "inject stall shard2"
            (fun () -> install "shard=2:stall:100")
            Pkg.Faults.clear (round + 3);
          point "SIGSTOP primary3"
            (fun () -> Ch.pause (prim 3))
            (fun () -> Ch.resume (prim 3))
            round;
          point "SIGKILL primary0"
            (fun () -> Ch.kill_server (prim 0))
            nop (round + 1);
          point "SIGKILL primary1"
            (fun () -> Ch.kill_server (prim 1))
            nop (round + 2);
          point "SIGSTOP primary2"
            (fun () -> Ch.pause (prim 2))
            (fun () -> Ch.resume (prim 2))
            (round + 3);
          point "SIGKILL replica0 (shard0 dark)"
            (fun () -> Ch.kill_server (repl 0))
            nop round;
          point "SIGKILL primary2 for good"
            (fun () -> Ch.kill_server (prim 2))
            nop (round + 1);
          point "SIGKILL primary3+replica3 (shard3 dark)"
            (fun () ->
              Ch.kill_server (prim 3);
              Ch.kill_server (repl 3))
            nop (round + 2);
          point "aftermath" nop nop (round + 3))
    in
    run_round 0;
    run_round 1;
    let t_matrix = Unix.gettimeofday () -. t_matrix_0 in
    Format.printf
      "  chaos matrix: %d points, %d exact-reference, %d typed-degraded, %d \
       wrong, %d over budget (%.1fs)%s@."
      !points !exact !typed_degraded !wrong !over_budget t_matrix
      (if !wrong = 0 && !over_budget = 0 then "" else "  (VIOLATIONS)");
    (* -- the zombie split-brain matrix -- *)
    (* A SIGSTOPped primary is deposed and promoted past while it still
       holds open sockets and a warm table; on SIGCONT it is driven with
       writes at both the zombie and the fleet. The membership
       invariants under test: the resumed zombie acks nothing (0
       dual-primary acks), every write it refuses is the typed fenced
       error, the fleet loses no acknowledged write across the
       promotion, and a stale epoch stamp is refused at the new
       primary. *)
    let z_rounds = ref 0 in
    let z_dual = ref 0 in
    let z_lost = ref 0 in
    let z_fenced = ref 0 in
    let z_fenced_expected = ref 0 in
    let z_untyped = ref 0 in
    let z_harness = ref 0 in
    let t_zombie_0 = Unix.gettimeofday () in
    let zombie_round round ~lease_ms =
      let batch seed =
        Datagen.Workload.append_batch ~dataset:`Galaxy ~rows:3 ~seed
      in
      let seed0 = 100 * (round + 1) in
      let pre = [ batch seed0; batch (seed0 + 1) ] in
      let during = [ batch (seed0 + 2); batch (seed0 + 3) ] in
      let post = [ batch (seed0 + 4); batch (seed0 + 5) ] in
      incr z_rounds;
      z_fenced_expected := !z_fenced_expected + List.length post;
      match
        Ch.run_zombie ~exe
          ~dir:(Filename.concat scratch (Printf.sprintf "zombie%d" round))
          ~base ~pre ~during ~post ~lease_ms ~attrs ~tau ()
      with
      | r ->
        z_dual := !z_dual + r.Ch.z_dual_acks;
        z_lost := !z_lost + r.Ch.z_lost_acks;
        z_fenced := !z_fenced + r.Ch.z_zombie_fenced;
        z_untyped :=
          !z_untyped + r.Ch.z_zombie_other
          + (if r.Ch.z_stale_fenced then 0 else 1);
        if r.Ch.z_dual_acks > 0 then
          Format.printf "  SPLIT BRAIN at zombie round %d: %d dual ack(s)@."
            round r.Ch.z_dual_acks;
        if r.Ch.z_lost_acks > 0 then
          Format.printf
            "  ACKED-WRITE LOSS at zombie round %d: %d batch(es) (%d acked, \
             standby at %d rows)@."
            round r.Ch.z_lost_acks r.Ch.z_acked r.Ch.z_recovered_rows
      | exception Ch.Harness_error msg ->
        incr z_harness;
        Format.printf "  zombie round %d harness error: %s@." round msg
    in
    zombie_round 0 ~lease_ms:300;
    zombie_round 1 ~lease_ms:500;
    let t_zombie = Unix.gettimeofday () -. t_zombie_0 in
    Format.printf
      "  zombie matrix: %d round(s), %d dual-primary ack(s), %d acked-write \
       loss(es), %d/%d typed-fenced, %d untyped (%.1fs)%s@."
      !z_rounds !z_dual !z_lost !z_fenced !z_fenced_expected !z_untyped
      t_zombie
      (if
         !z_dual = 0 && !z_lost = 0 && !z_untyped = 0 && !z_harness = 0
         && !z_fenced = !z_fenced_expected
       then ""
       else "  (VIOLATIONS)");
    shard_json :=
      [
        ("scale", Printf.sprintf "%g" scale);
        ("rows", string_of_int n);
        ("tau", string_of_int tau);
        ("clients", string_of_int clients);
        ("requests", string_of_int requests);
        ("cores", string_of_int cores);
        ("qps_1shard", Printf.sprintf "%.2f" qps1);
        ("qps_2shard", Printf.sprintf "%.2f" qps2);
        ("qps_4shard", Printf.sprintf "%.2f" qps4);
        ("qps_scaling_4v1", Printf.sprintf "%.2f" scaling);
        ("qps_errors", string_of_int (err1 + err2 + err4));
        ("failovers", string_of_int failovers);
        ("failover_mean_ms", Printf.sprintf "%.1f" failover_mean_ms);
        ("matrix_points", string_of_int !points);
        ("matrix_exact_reference", string_of_int !exact);
        ("matrix_typed_degraded", string_of_int !typed_degraded);
        ("matrix_wrong", string_of_int !wrong);
        ("matrix_over_budget", string_of_int !over_budget);
        ("matrix_wall_s", Printf.sprintf "%.3f" t_matrix);
        ("zombie_rounds", string_of_int !z_rounds);
        ("zombie_dual_primary_acks", string_of_int !z_dual);
        ("zombie_acked_write_losses", string_of_int !z_lost);
        ("zombie_fenced_typed", string_of_int !z_fenced);
        ("zombie_fenced_expected", string_of_int !z_fenced_expected);
        ("zombie_untyped", string_of_int !z_untyped);
        ("zombie_harness_errors", string_of_int !z_harness);
        ("zombie_wall_s", Printf.sprintf "%.3f" t_zombie);
      ]
  end

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                        *)
(* ------------------------------------------------------------------ *)

let micro () =
  Format.printf "@.== Micro-benchmarks (bechamel): solver substrate ==@.";
  let open Bechamel in
  let rng = Datagen.Prng.create 99 in
  let knapsack n =
    let vars =
      List.init n (fun _ ->
          Lp.Problem.var ~integer:true ~hi:1. (Datagen.Prng.uniform rng 1. 10.))
    in
    let coeffs = List.init n (fun i -> (i, Datagen.Prng.uniform rng 1. 10.)) in
    Lp.Problem.make ~sense:Lp.Problem.Maximize ~vars
      ~rows:[ Lp.Problem.row coeffs ~lo:neg_infinity ~hi:(float_of_int n) ]
  in
  let lp_200 = knapsack 200 in
  let lp_2000 = knapsack 2000 in
  let galaxy_5k = Datagen.Galaxy.generate ~seed:3 5000 in
  let tests =
    [
      Test.make ~name:"simplex n=200"
        (Staged.stage (fun () -> ignore (Lp.Simplex.solve lp_200)));
      Test.make ~name:"simplex n=2000"
        (Staged.stage (fun () -> ignore (Lp.Simplex.solve lp_2000)));
      Test.make ~name:"branch&bound knapsack n=200"
        (Staged.stage (fun () ->
             ignore (Ilp.Branch_bound.solve lp_200)));
      Test.make ~name:"quad-tree partition 5k x 3attrs"
        (Staged.stage (fun () ->
             ignore
               (Pkg.Partition.create ~tau:500
                  ~attrs:[ "ra"; "dec"; "redshift" ] galaxy_5k)));
      Test.make ~name:"paql parse+compile"
        (Staged.stage (fun () ->
             let q =
               "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT \
                COUNT(P.*) = 5 AND SUM(P.redshift) <= 1.0 MAXIMIZE SUM(P.u)"
             in
             ignore
               (Paql.Translate.compile_exn
                  (Relalg.Relation.schema galaxy_5k)
                  (Paql.Parser.parse_exn q))));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ()
    in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all ols instance raw
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Format.printf "  %-32s %12.1f ns/run@." name est
          | _ -> Format.printf "  %-32s (no estimate)@." name)
        results)
    tests;
  (* The per-node cost of a node-limited Direct search, the quantity
     the repo benchmark reports as ilp.us_per_node: Galaxy Q7 over
     2,000 rows (seed 1, as in the paper suite), best of 3 runs. *)
  let g = Datagen.Galaxy.generate ~seed:1 2000 in
  let def = List.nth (Datagen.Workload.galaxy_queries g) 6 in
  let qrel = Datagen.Workload.query_relation ~dataset:`Galaxy g def in
  let spec = Datagen.Workload.compile qrel def in
  let candidates = Paql.Translate.base_candidates spec qrel in
  let problem = Paql.Translate.to_problem spec qrel ~candidates in
  let limits =
    { Ilp.Branch_bound.default_limits with max_nodes = 1000; max_seconds = 3600. }
  in
  let stats = ref None in
  let t =
    best_of 3 (fun () ->
        stats :=
          Some (Ilp.Branch_bound.stats_of (Ilp.Branch_bound.solve ~limits problem)))
  in
  match !stats with
  | Some st ->
    let nodes = st.Ilp.Branch_bound.nodes in
    Format.printf "  %-32s %12.1f us/node (%d nodes, %d pivots, %d columns)@."
      "Direct B&B galaxy 2k Q7 1k nodes"
      (t *. 1e6 /. float_of_int (max 1 nodes))
      nodes st.Ilp.Branch_bound.simplex_iterations
      (Lp.Problem.nvars problem)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Solver: warm-started dual simplex vs cold primal                   *)
(* ------------------------------------------------------------------ *)

let solver_json : (string * string) list ref = ref []

(* The three warm-start claims, measured: (1) a refine-style re-solve
   ladder — the same LP re-solved after one bound tightening per rung,
   exactly the shape of B&B children and refine rungs — runs >=5x
   faster warm (dual simplex from the saved basis) than cold from
   scratch, with identical objectives; (2) the speedup survives end to
   end in a SketchRefine run (PKGQ_WARM off vs on); (3) a
   parameter-tweaked query stream through the server finds its saved
   basis (structure-fingerprint cache) and the warm attempts succeed
   >80% of the time. *)
let solver_bench ~scale () =
  Lp.Simplex.set_warm_enabled true;
  let n = max 400 (int_of_float (4_000. *. scale)) in
  let rungs = max 20 (int_of_float (120. *. scale)) in
  Format.printf
    "@.== Solver: warm-started dual simplex (ladder n=%d vars, %d rungs) ==@."
    n rungs;
  (* -- (1) the re-solve ladder -- *)
  let rng = Datagen.Prng.create 42 in
  let obj = Array.init n (fun _ -> Datagen.Prng.uniform rng 1. 10.) in
  let res = Array.init 3 (fun _ ->
      Array.init n (fun _ -> Datagen.Prng.uniform rng 0. 5.)) in
  (* a large package cardinality: the cold solve pays ~k primal pivots
     per rung, the warm re-solve only the one or two dual pivots the
     pinned variable forces *)
  let k = Float.of_int (max 10 (n / 50)) in
  let base_problem () =
    let vars = List.init n (fun j -> Lp.Problem.var ~lo:0. ~hi:1. obj.(j)) in
    let count_row =
      Lp.Problem.row (List.init n (fun j -> (j, 1.))) ~lo:k ~hi:k
    in
    let res_rows =
      List.map
        (fun a ->
          Lp.Problem.row
            (List.init n (fun j -> (j, a.(j))))
            ~lo:neg_infinity
            ~hi:(Array.fold_left ( +. ) 0. a /. float_of_int n *. k *. 2.))
        (Array.to_list res)
    in
    Lp.Problem.make ~sense:Lp.Problem.Maximize ~vars
      ~rows:(count_row :: res_rows)
  in
  let pin p j =
    let vars' = Array.copy p.Lp.Problem.vars in
    vars'.(j) <- { vars'.(j) with Lp.Problem.hi = 0. };
    { p with Lp.Problem.vars = vars' }
  in
  let argmax x =
    let best = ref 0 in
    Array.iteri (fun j v -> if v > x.(!best) then best := j) x;
    !best
  in
  (* Warm chain: each rung pins the currently most-selected variable
     (what a B&B branch or refine rung does) and re-solves from the
     previous optimal basis. The pin sequence is recorded so the cold
     chain replays the exact same problems. *)
  let sol0 =
    match Lp.Simplex.solve (base_problem ()) with
    | Lp.Simplex.Optimal s -> s
    | r ->
      Format.printf "  ladder root not optimal: %a@." Lp.Simplex.pp_result r;
      exit 2
  in
  let problems = Array.make rungs (base_problem ()) in
  let warm_objs = Array.make rungs 0. in
  let (), warm_t =
    time (fun () ->
        let p = ref (base_problem ())
        and b = ref sol0.Lp.Simplex.basis
        and x = ref sol0.Lp.Simplex.x in
        for i = 0 to rungs - 1 do
          p := pin !p (argmax !x);
          problems.(i) <- !p;
          match Lp.Simplex.resolve ?basis:!b !p with
          | Lp.Simplex.Optimal s ->
            warm_objs.(i) <- s.Lp.Simplex.obj;
            b := s.Lp.Simplex.basis;
            x := s.Lp.Simplex.x
          | r ->
            Format.printf "  warm rung %d not optimal: %a@." i
              Lp.Simplex.pp_result r;
            exit 2
        done)
  in
  let cold_objs = Array.make rungs 0. in
  let (), cold_t =
    time (fun () ->
        Array.iteri
          (fun i p ->
            match Lp.Simplex.solve p with
            | Lp.Simplex.Optimal s -> cold_objs.(i) <- s.Lp.Simplex.obj
            | r ->
              Format.printf "  cold rung %d not optimal: %a@." i
                Lp.Simplex.pp_result r;
              exit 2)
          problems)
  in
  let max_diff = ref 0. in
  for i = 0 to rungs - 1 do
    let d =
      Float.abs (warm_objs.(i) -. cold_objs.(i))
      /. Float.max 1. (Float.abs cold_objs.(i))
    in
    if d > !max_diff then max_diff := d
  done;
  let ladder_speedup = cold_t /. Float.max 1e-9 warm_t in
  Format.printf
    "  ladder: cold %7.3fs  warm %7.3fs  speedup %6.1fx  max obj diff %g%s@."
    cold_t warm_t ladder_speedup !max_diff
    (if ladder_speedup >= 5. then "" else "  (below the 5x target)");
  (* -- (2) end to end: SketchRefine with warm starts off vs on -- *)
  let e2e_n = max 2_000 (int_of_float (float_of_int galaxy_base *. scale)) in
  let rel = Datagen.Galaxy.generate ~seed:1 e2e_n in
  let d = List.nth (Datagen.Workload.galaxy_queries rel) 6 in
  let qrel = Datagen.Workload.query_relation ~dataset:`Galaxy rel d in
  let spec = Datagen.Workload.compile qrel d in
  let part =
    Pkg.Partition.create ~tau:(max 1 (Relalg.Relation.cardinality qrel / 10))
      ~attrs:d.Datagen.Workload.attrs qrel
  in
  let sr warm =
    Lp.Simplex.set_warm_enabled warm;
    let r, t =
      time (fun () -> Pkg.Sketch_refine.run ~options:sr_options spec qrel part)
    in
    Lp.Simplex.set_warm_enabled true;
    Format.printf "  sketchrefine warm=%-5b wall %7.3fs  %a@." warm t
      Pkg.Eval.pp_status r.Pkg.Eval.status;
    (r, t)
  in
  let _r_cold, sr_cold_t = sr false in
  let _r_warm, sr_warm_t = sr true in
  (* -- (3) parameter-tweaked stream through the server basis cache -- *)
  let stream_len = 30 in
  let srel = Datagen.Galaxy.generate ~seed:5 (max 800 (e2e_n / 4)) in
  let mu =
    Relalg.Value.to_float
      (Relalg.Aggregate.over srel (Relalg.Aggregate.Avg "redshift"))
  in
  let queries =
    List.init stream_len (fun i ->
        Printf.sprintf
          "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) \
           = 8 AND SUM(P.redshift) <= %.6f MAXIMIZE SUM(P.petro_rad)"
          (8. *. mu *. (1.2 +. (0.02 *. float_of_int i))))
  in
  let cfg =
    {
      (Service.Server.default_config ()) with
      Service.Server.workers = 1;
      (* result cache off: every request must reach the solver, so the
         basis cache is the only reuse in play *)
      result_cache = 0;
      method_ = Service.Server.Direct;
      limits = bench_limits;
      request_seconds = 300.;
      log_every = 0.;
    }
  in
  let srv = Service.Server.start cfg srel in
  let c0 = Lp.Simplex.counters () in
  let bhits, bmisses, stream_t =
    Fun.protect
      ~finally:(fun () -> Service.Server.stop srv)
      (fun () ->
        let port = Service.Server.port srv in
        let _, wall, errs = play_stream ~port ~clients:1 queries in
        if errs > 0 then Format.printf "  stream: %d errors@." errs;
        let m = Service.Server.metrics srv in
        (Service.Metrics.get m "basis_hits",
         Service.Metrics.get m "basis_misses",
         wall))
  in
  let c1 = Lp.Simplex.counters () in
  let attempts = c1.Lp.Simplex.warm_attempts - c0.Lp.Simplex.warm_attempts in
  let hits = c1.Lp.Simplex.warm_hits - c0.Lp.Simplex.warm_hits in
  let warm_rate =
    if attempts = 0 then 0. else float_of_int hits /. float_of_int attempts
  in
  let basis_rate = float_of_int bhits /. float_of_int (max 1 (bhits + bmisses)) in
  Format.printf
    "  server stream: %d tweaked queries in %.3fs; basis cache %d/%d hits \
     (%.0f%%), warm attempts %d, warm hits %d (%.0f%%)%s@."
    stream_len stream_t bhits (bhits + bmisses) (basis_rate *. 100.) attempts
    hits (warm_rate *. 100.)
    (if warm_rate > 0.8 then "" else "  (below the 80% target)");
  let num v = Printf.sprintf "%.6f" v in
  solver_json :=
    [
      ("scale", Printf.sprintf "%g" scale);
      ("ladder_vars", string_of_int n);
      ("ladder_rungs", string_of_int rungs);
      ("ladder_cold_s", num cold_t);
      ("ladder_warm_s", num warm_t);
      ("refine_warm_speedup", Printf.sprintf "%.2f" ladder_speedup);
      ("ladder_max_obj_diff", Printf.sprintf "%g" !max_diff);
      ("sketchrefine_cold_wall_s", num sr_cold_t);
      ("sketchrefine_warm_wall_s", num sr_warm_t);
      ( "sketchrefine_warm_speedup",
        Printf.sprintf "%.2f" (sr_cold_t /. Float.max 1e-9 sr_warm_t) );
      ("server_stream_queries", string_of_int stream_len);
      ("server_stream_wall_s", num stream_t);
      ("server_basis_hits", string_of_int bhits);
      ("server_basis_misses", string_of_int bmisses);
      ("server_basis_hit_rate", Printf.sprintf "%.3f" basis_rate);
      ("server_warm_attempts", string_of_int attempts);
      ("server_warm_hits", string_of_int hits);
      ("server_warm_hit_rate", Printf.sprintf "%.3f" warm_rate);
    ]

(* ------------------------------------------------------------------ *)
(* Stochastic package queries: SummarySearch vs the naive expansion   *)
(* ------------------------------------------------------------------ *)

let stoch_json : (string * string) list ref = ref []

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
      (Pkg.Stochastic.default_options ()) with
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
  Format.printf "   S      summary                      naive@.";
  let status_str (r : Pkg.Eval.report) =
    Format.asprintf "%a" Pkg.Eval.pp_status r.Pkg.Eval.status
  in
  let obj_str (r : Pkg.Eval.report) =
    match r.Pkg.Eval.objective with
    | Some v -> Printf.sprintf "%.4f" v
    | None -> "-"
  in
  let sweep = [ 24; 48; 96; 192 ] in
  let num v = Printf.sprintf "%.6f" v in
  let headline = ref [] in
  List.iter
    (fun s ->
      let o = opts s in
      let (rs, ss), ts = time (fun () -> Pkg.Stochastic.run ~options:o spec rel) in
      let (rn, sn), tn =
        time (fun () -> Pkg.Stochastic.run_naive ~options:o spec rel)
      in
      let speedup = tn /. Float.max 1e-9 ts in
      Format.printf
        "   %-5d  %-10s val=%.3f %6.3fs   %-10s val=%.3f %6.3fs  (%.1fx)@." s
        (status_str rs) ss.Pkg.Stochastic.st_validated ts (status_str rn)
        sn.Pkg.Stochastic.st_validated tn speedup;
      let key k = Printf.sprintf "s%d_%s" s k in
      stoch_json :=
        !stoch_json
        @ [
            (key "summary_status", Printf.sprintf "%S" (status_str rs));
            (key "summary_wall_s", num ts);
            ( key "summary_validated",
              Printf.sprintf "%.4f" ss.Pkg.Stochastic.st_validated );
            (key "summary_obj", obj_str rs);
            (key "naive_status", Printf.sprintf "%S" (status_str rn));
            (key "naive_wall_s", num tn);
            ( key "naive_validated",
              Printf.sprintf "%.4f" sn.Pkg.Stochastic.st_validated );
            (key "naive_obj", obj_str rn);
            (key "speedup", Printf.sprintf "%.2f" speedup);
          ];
      (* the headline acceptance numbers come from the largest sweep
         point: validated probability met, and the summary speedup *)
      headline :=
        [
          ("summary_meets_p",
           string_of_bool (ss.Pkg.Stochastic.st_validated >= 0.9));
          ("summary_rounds", string_of_int ss.Pkg.Stochastic.st_rounds);
          ("summary_speedup", Printf.sprintf "%.2f" speedup);
          ("obj_agrees", string_of_bool (obj_str rs = obj_str rn));
        ])
    sweep;
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
    tu;
  stoch_json :=
    [
      ("n", string_of_int n);
      ("validation", "200");
      ("probability", "0.9");
      ("deadline_s", Printf.sprintf "%.3f" deadline_s);
    ]
    @ !stoch_json @ !headline
    @ [
        ("unsat_status", Printf.sprintf "%S" (status_str ru));
        ("unsat_wall_s", num tu);
        ("unsat_within_deadline", string_of_bool (tu <= deadline_s *. 1.2));
      ]

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("fig1", fun ~scale () -> fig1 ~scale ());
    ("fig3", fun ~scale () -> fig3 ~scale ());
    ("fig4", fun ~scale () -> fig4 ~scale ());
    ("fig5", fun ~scale () -> fig5 ~scale ());
    ("fig6", fun ~scale () -> fig6 ~scale ());
    ("fig7", fun ~scale () -> fig7 ~scale ());
    ("fig8", fun ~scale () -> fig8 ~scale ());
    ("fig9", fun ~scale () -> fig9 ~scale ());
    ("radius", fun ~scale () -> radius ~scale ());
    ("ablation", fun ~scale () -> ablation ~scale ());
    ("scan", fun ~scale () -> scan ~scale ());
    ("robust", fun ~scale () -> robust ~scale ());
    ("store", fun ~scale () -> store_bench ~scale ());
    ("serve", fun ~scale () -> serve ~scale ());
    ("durability", fun ~scale () -> durability ~scale ());
    ("solver", fun ~scale () -> solver_bench ~scale ());
    ("progressive", fun ~scale () -> progressive_bench ~scale ());
    ("shard", fun ~scale () -> shard_bench ~scale ());
    ("stoch", fun ~scale () -> stoch_bench ~scale ());
    ("micro", fun ~scale () -> ignore scale; micro ());
  ]

let () =
  let scale =
    match Sys.getenv_opt "PKGQ_SCALE" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  let args = Array.to_list Sys.argv |> List.tl in
  let json = ref false in
  let scale, selected =
    let rec go scale sel = function
      | [] -> (scale, List.rev sel)
      | "--scale" :: v :: rest -> go (float_of_string v) sel rest
      | "--json" :: rest ->
        json := true;
        go scale sel rest
      | x :: rest -> go scale (x :: sel) rest
    in
    go scale [] args
  in
  let to_run =
    match selected with
    | [] -> all_experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n" n
              (String.concat ", " (List.map fst all_experiments));
            exit 2)
        names
  in
  Format.printf "package-query benchmarks (scale %g)@." scale;
  List.iter (fun (_, f) -> f ~scale ()) to_run;
  if !json && !scan_json <> [] then write_json "BENCH_scan.json" !scan_json;
  if !json && !robust_json <> [] then
    write_json "BENCH_robust.json" !robust_json;
  if !json && !store_json <> [] then write_json "BENCH_store.json" !store_json;
  if !json && !serve_json <> [] then write_json "BENCH_serve.json" !serve_json;
  if !json && !durability_json <> [] then
    write_json "BENCH_durability.json" !durability_json;
  if !json && !solver_json <> [] then
    write_json "BENCH_solver.json" !solver_json;
  if !json && !shard_json <> [] then write_json "BENCH_shard.json" !shard_json;
  if !json && !progressive_json <> [] then
    write_json "BENCH_progressive.json" !progressive_json;
  if !json && !stoch_json <> [] then write_json "BENCH_stoch.json" !stoch_json;
  Format.printf "@.done.@."
