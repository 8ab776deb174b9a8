(* Progressive-shading tests: DLV / hierarchy structural properties
   (qcheck), coarse-to-fine vs flat SketchRefine agreement, bitwise
   determinism across worker counts, and the catalog's level-extended
   keys (attribute-order canonicalization + pre-v2 format compat).

   The "smoke" group is the bounded (<10s) end-to-end proof and runs
   under the @progressive-smoke alias; the qcheck property group rides
   only in the full @progressive / default-runtest pass. *)

module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation
module P = Pkg.Partition
module H = Pkg.Hierarchy
module E = Pkg.Eval

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp_dir = Tmp_root.make "progressive"

(* Concentrated data: the regime the DLV splits are built for. *)
let skewed ?(skew = 1.5) ~seed n = Datagen.Galaxy.generate ~seed ~skew n

let hier_attrs = [ "redshift"; "petro_rad" ]

let compile rel q =
  Paql.Translate.compile_exn (R.schema rel) (Paql.Parser.parse_exn q)

let galaxy_query rel budget =
  compile rel
    (Printf.sprintf
       "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = \
        5 AND SUM(P.redshift) <= %g MAXIMIZE SUM(P.petro_rad)"
       budget)

let package_rows p =
  List.sort compare (Pkg.Package.entries p)

(* ------------------------------------------------------------------ *)
(* qcheck structural properties                                       *)
(* ------------------------------------------------------------------ *)

(* Every tuple lands in exactly one group of every level, and each
   finer group refines exactly one parent — [H.check] verifies both
   per-level partition invariants and the refinement property. *)
let hierarchy_invariants_prop =
  QCheck.Test.make ~count:30 ~name:"hierarchy invariants on skewed data"
    (QCheck.make
       QCheck.Gen.(triple (int_range 30 400) (int_range 2 4) (int_range 0 999)))
    (fun (n, levels, seed) ->
      let rel = skewed ~seed n in
      let hier = H.build ~levels ~leaf_tau:8 ~attrs:hier_attrs rel in
      (match H.check hier rel with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "invariants: %s" msg);
      H.num_levels hier >= 1 && H.num_levels hier <= levels)

(* [children] and [parent_gid] are inverse views of the same refinement
   map, and the tau ladder is non-increasing down to the leaf. *)
let hierarchy_refinement_prop =
  QCheck.Test.make ~count:30 ~name:"children/parent agree; taus descend"
    (QCheck.make
       QCheck.Gen.(triple (int_range 30 400) (int_range 2 4) (int_range 0 999)))
    (fun (n, levels, seed) ->
      let rel = skewed ~seed:(seed + 1000) n in
      let leaf_tau = 8 in
      let hier = H.build ~levels ~leaf_tau ~attrs:hier_attrs rel in
      let nl = H.num_levels hier in
      for l = 0 to nl - 2 do
        let kids = H.children hier l in
        Array.iteri
          (fun g cs ->
            List.iter
              (fun c ->
                if H.parent_gid hier ~level:(l + 1) c <> g then
                  QCheck.Test.fail_reportf
                    "level %d group %d: child %d maps back to %d" l g c
                    (H.parent_gid hier ~level:(l + 1) c))
              cs)
          kids;
        (* every finer group is someone's child *)
        let covered = Array.make (P.num_groups (H.level hier (l + 1))) false in
        Array.iter (List.iter (fun c -> covered.(c) <- true)) kids;
        if not (Array.for_all Fun.id covered) then
          QCheck.Test.fail_reportf "level %d: uncovered child group" (l + 1)
      done;
      let taus = H.plan_taus ~n ~leaf_tau ~levels in
      Array.length taus = levels
      && taus.(levels - 1) = leaf_tau
      && Array.for_all2 (fun a b -> a >= b) (Array.sub taus 0 (levels - 1))
           (Array.sub taus 1 (levels - 1)))

(* DLV vs Partition.create's k-d split at equal group budget on the
   knob-concentrated attributes (rowc, exp_ab — a power map piles the
   mass near the low end). Per-instance dominance is false: the k-d
   split cuts at the centroid and so isolates tail outliers into small
   groups, while DLV's slices are equal-size, and over 10,300 random
   instances DLV's cost reached 1.59x the k-d split's (1.54x at
   [QCHECK_SEED=549687791], n = 736). The comparison is therefore
   batched over a small tau grid and asserted only in aggregate over
   fixed seeds (the deterministic case below); the qcheck property
   states the bound DLV does guarantee. *)
let concentrated_attrs = [ [ "rowc" ]; [ "exp_ab" ] ]
let budget_taus = [ 8; 16; 32 ]

(* Sum of variance costs over the (attrs, tau) grid for one relation,
   giving DLV the same group budget the k-d split spent. *)
let variance_batch rel =
  let n = R.cardinality rel in
  let sum_d = ref 0. and sum_k = ref 0. in
  List.iter
    (fun attrs ->
      let cols = P.numeric_columns rel attrs in
      List.iter
        (fun tau ->
          let kd = P.create ~tau ~attrs rel in
          let gk = P.num_groups kd in
          let budget_tau = max 1 ((n + gk - 1) / gk) in
          let dlv = Pkg.Dlv.create ~tau:budget_tau ~attrs rel in
          sum_k := !sum_k +. Pkg.Dlv.variance_cost cols kd;
          sum_d := !sum_d +. Pkg.Dlv.variance_cost cols dlv)
        budget_taus)
    concentrated_attrs;
  (!sum_d, !sum_k)

(* On one attribute DLV's groups are disjoint runs of the sorted
   values, of at most [g] members each. A run of range [r] has variance
   at most [r^2 / 4], and the runs' ranges sum to at most the
   attribute's range [R], so the member-weighted cost, normalized by
   [R^2], is at most [g / (4 n)] whatever the distribution. *)
let dlv_equal_slice_bound_prop =
  QCheck.Test.make ~count:25
    ~name:"DLV variance within the equal-slice bound on concentrated data"
    (QCheck.make QCheck.Gen.(pair (int_range 150 800) (int_range 0 999)))
    (fun (n, seed) ->
      let rel = skewed ~seed:(seed + 2000) n in
      List.iter
        (fun attrs ->
          let cols = P.numeric_columns rel attrs in
          List.iter
            (fun tau ->
              let dlv = Pkg.Dlv.create ~tau ~attrs rel in
              let g = P.max_group_size dlv in
              let cost = Pkg.Dlv.variance_cost cols dlv in
              let bound = float_of_int g /. (4. *. float_of_int n) in
              if cost > bound +. 1e-12 then
                QCheck.Test.fail_reportf
                  "%s tau=%d: DLV %.6f > %d / (4 * %d) = %.6f"
                  (String.concat "," attrs) tau cost g n bound)
            budget_taus)
        concentrated_attrs;
      true)

let test_dlv_variance_wins_aggregate () =
  let sum_d = ref 0. and sum_k = ref 0. in
  for seed = 0 to 19 do
    let rel = skewed ~seed:(seed + 100) (150 + (seed * 137)) in
    let vd, vk = variance_batch rel in
    sum_d := !sum_d +. vd;
    sum_k := !sum_k +. vk
  done;
  (* observed ratio ~0.72; assert a comfortable strict win *)
  checkb
    (Printf.sprintf "aggregate DLV %.6f < 0.9 * k-d split %.6f" !sum_d !sum_k)
    true
    (!sum_d < 0.9 *. !sum_k)

(* ------------------------------------------------------------------ *)
(* Progressive vs SketchRefine                                        *)
(* ------------------------------------------------------------------ *)

(* A one-level hierarchy collapses the descent to exactly flat
   SketchRefine: same partitioning, same status, same package, same
   ILPs. Three inputs: a Galaxy query whose sketch refines at once; the
   razor-thin window of test_pkg's "hybrid sketch rescues", whose plain
   sketch is infeasible, so only the Section 4.4 ladder finds its
   package; and test_extensions' two-group window, whose refine dead
   end the ladder cannot rescue either (its leaf sketch is the plain
   sketch, so the run must not solve and refine it twice). *)
let test_one_level_equals_sketchrefine () =
  let same ?(status = E.Optimal) name spec rel hier =
    checki (name ^ ": one level") 1 (H.num_levels hier);
    let prog, stats = Pkg.Progressive.run spec rel hier in
    let flat = Pkg.Sketch_refine.run spec rel (H.leaf hier) in
    if prog.E.status <> status || flat.E.status <> status then
      Alcotest.failf "%s: statuses: progressive %a, flat %a, expected %a" name
        E.pp_status prog.E.status E.pp_status flat.E.status E.pp_status status;
    checkb (name ^ ": identical package") true
      (Option.map package_rows prog.E.package
      = Option.map package_rows flat.E.package);
    checkb (name ^ ": a package iff optimal") true
      (Option.is_some prog.E.package = (status = E.Optimal));
    checki (name ^ ": same ILP calls") flat.E.counters.E.ilp_calls
      prog.E.counters.E.ilp_calls;
    checki (name ^ ": one stat entry") 1 (List.length stats)
  in
  let rel = skewed ~seed:5 600 in
  same "galaxy" (galaxy_query rel 1.2) rel
    (H.build ~levels:1 ~leaf_tau:40 ~attrs:hier_attrs rel);
  let schema =
    S.make [ { S.name = "a"; ty = V.TFloat }; { S.name = "b"; ty = V.TFloat } ]
  in
  let of_pairs pairs =
    R.of_rows schema (List.map (fun (a, b) -> [| V.Float a; V.Float b |]) pairs)
  in
  let rel =
    of_pairs
      [ (0.0, 1.); (0.2, 2.); (0.4, 3.); (0.6, 4.);
        (100.0, 1.); (100.2, 2.); (100.4, 3.); (100.6, 4.) ]
  in
  let part = P.create ~tau:4 ~attrs:[ "a" ] rel in
  same "hybrid rescue"
    (compile rel
       "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 1 \
        AND SUM(P.a) BETWEEN 100.55 AND 100.65 MAXIMIZE SUM(P.b)")
    rel
    { H.attrs = [ "a" ]; levels = [| part |] };
  let rel = of_pairs [ (0.0, 1.); (10.0, 2.); (100.0, 3.); (110.0, 4.) ] in
  let part = P.create ~tau:2 ~attrs:[ "a" ] rel in
  same ~status:E.Infeasible "refine dead end"
    (compile rel
       "SELECT PACKAGE(R) AS P FROM Rel R REPEAT 0 SUCH THAT COUNT(P.*) = 2 \
        AND SUM(P.a) BETWEEN 109.5 AND 110.5 MAXIMIZE SUM(P.b)")
    rel
    { H.attrs = [ "a" ]; levels = [| part |] }

(* Multi-level descent on a feasible query: a typed solved answer whose
   package satisfies every constraint, never worse than useless — and
   the per-level telemetry covers each level once when nothing widens.

   Two budgets: a loose one, and the tight class of the progressive
   table in the bench — k times the mean of the lowest leaf and the
   lowest flat (tau = n/10) representative redshift, so no package of
   flat representatives meets it. At 800 rows the descent answers that
   class optimal. Flat SketchRefine solves it too at this size, so no
   rescue is claimed here; the flat path falls behind only at the
   bench's 10x size. *)
let test_progressive_solves_feasible () =
  let rel = skewed ~seed:7 800 in
  let hier = H.build ~levels:3 ~leaf_tau:10 ~attrs:hier_attrs rel in
  let min_rep p =
    Array.fold_left Float.min infinity (R.column_float p.P.reps "redshift")
  in
  let flat_min = min_rep (P.create ~tau:80 ~attrs:hier_attrs rel) in
  let tight = 5. *. (min_rep (H.leaf hier) +. flat_min) /. 2. in
  checkb "tight budget is below every flat representative package" true
    (tight < 5. *. flat_min);
  List.iter
    (fun (cls, budget) ->
      let spec = galaxy_query rel budget in
      let r, stats = Pkg.Progressive.run spec rel hier in
      (match (cls, r.E.status) with
      | _, E.Optimal | `Loose, E.Degraded _ -> ()
      | _, other ->
        Alcotest.failf "budget %g: expected solved, got %a" budget E.pp_status
          other);
      (match r.E.package with
      | Some p ->
        checkb "package feasible" true (Pkg.Package.feasible spec p);
        checki "cardinality" 5 (Pkg.Package.cardinality p)
      | None -> Alcotest.fail "no package");
      List.iteri
        (fun i (s : Pkg.Progressive.level_stat) ->
          checki (Printf.sprintf "stat %d level" i) i s.Pkg.Progressive.ls_level;
          checkb
            (Printf.sprintf "stat %d groups > 0" i)
            true
            (s.Pkg.Progressive.ls_groups > 0))
        stats)
    [ (`Loose, 1.2); (`Tight, tight) ]

(* ------------------------------------------------------------------ *)
(* Determinism across runs                                            *)
(* ------------------------------------------------------------------ *)

(* Building the hierarchy and running the descent twice gives the same
   package and objective bits. *)
let test_determinism_across_runs () =
  let run () =
    let rel = skewed ~seed:9 700 in
    let spec = galaxy_query rel 1.2 in
    let hier = H.build ~levels:3 ~leaf_tau:10 ~attrs:hier_attrs rel in
    let r, _ = Pkg.Progressive.run spec rel hier in
    match (r.E.package, r.E.objective) with
    | Some p, Some obj -> (package_rows p, Int64.bits_of_float obj)
    | _ -> Alcotest.fail "progressive produced no package"
  in
  checkb "second run bitwise identical" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Catalog: canonical attrs order + pre-v2 format compatibility       *)
(* ------------------------------------------------------------------ *)

let test_catalog_attrs_order () =
  let dir = Filename.concat tmp_dir "cat-order" in
  let cat = Store.Catalog.open_dir dir in
  let rel = skewed ~seed:11 300 in
  let fp = Store.Segment.fingerprint rel in
  let builds = ref 0 in
  let key attrs =
    { Store.Catalog.fingerprint = fp; attrs; tau = 50;
      radius = P.No_radius; level = None }
  in
  let build attrs () =
    incr builds;
    P.create ~tau:50 ~attrs rel
  in
  let attrs = [ "redshift"; "exp_ab" ] in
  let permuted = [ "exp_ab"; "redshift" ] in
  Alcotest.check Alcotest.string "permutation has the same id"
    (Store.Catalog.key_id (key attrs))
    (Store.Catalog.key_id (key permuted));
  let _, o1 = Store.Catalog.lookup_or_build cat (key attrs)
      ~rows:(R.cardinality rel) ~build:(build attrs) in
  checkb "first is a build" true (o1 = `Built);
  (* the regression: a permuted attribute list used to produce a fresh
     key id and silently repartition the table *)
  let p2, o2 = Store.Catalog.lookup_or_build cat (key permuted)
      ~rows:(R.cardinality rel) ~build:(build permuted) in
  checkb "permuted order hits" true (o2 = `Hit);
  checki "exactly one build" 1 !builds;
  checkb "hit is a valid partition" true
    (P.check ~tau:50 p2 rel = Ok ())

(* Hand-write a v1 (pre-hierarchy, order-sensitive id, no level field)
   catalog entry with raw [Store.Wire] puts and prove today's [find]
   still loads it — under the canonicalized key, via the legacy-id
   fallback. *)
let test_catalog_v1_compat () =
  let dir = Filename.concat tmp_dir "cat-v1" in
  let cat = Store.Catalog.open_dir dir in
  let rel = skewed ~seed:13 200 in
  let fp = Store.Segment.fingerprint rel in
  (* deliberately NOT in canonical (sorted) order, so the v1 id differs
     from today's canonical id and the fallback path is what loads it *)
  let attrs = [ "redshift"; "exp_ab" ] in
  let tau = 40 in
  let p = P.create ~tau ~attrs rel in
  let b = Buffer.create 4096 in
  let module W = Store.Wire in
  W.put_str b fp;
  W.put_i32 b (List.length attrs);
  List.iter (W.put_str b) attrs;
  W.put_i64 b tau;
  W.put_u8 b 0 (* No_radius *);
  (* v1 ends the key here: no level byte *)
  W.put_i32 b (Array.length p.P.gid_of_row);
  W.put_i32 b (Array.length p.P.groups);
  Array.iter
    (fun (g : P.group) ->
      W.put_i32 b (Array.length g.P.members);
      Array.iter (W.put_i32 b) g.P.members;
      Array.iter (W.put_f64 b) g.P.centroid;
      W.put_f64 b g.P.radius)
    p.P.groups;
  W.put_str b (Store.Segment.to_string p.P.reps);
  let legacy_id =
    W.hex64
      (W.hash64
         (Printf.sprintf "%s|%s|tau=%d|radius=none" fp
            (String.concat "," attrs) tau))
  in
  let path =
    Filename.concat (Filename.concat dir "partitions") (legacy_id ^ ".part")
  in
  W.write_file path ~magic:"PKGQPART" ~version:1 b;
  let key =
    { Store.Catalog.fingerprint = fp; attrs; tau; radius = P.No_radius;
      level = None }
  in
  checkb "canonical id differs from v1 id" true
    (Store.Catalog.key_id key <> legacy_id);
  (match Store.Catalog.find cat key ~rows:(R.cardinality rel) with
  | Some q ->
    checki "groups survive" (P.num_groups p) (P.num_groups q);
    checkb "membership survives" true (q.P.gid_of_row = p.P.gid_of_row);
    checkb "loaded entry is valid" true (P.check ~tau q rel = Ok ())
  | None -> Alcotest.fail "v1 entry not found under canonicalized key");
  (* a hierarchy (level-carrying) key must NOT fall back to flat v1
     entries: levels are distinct partitionings *)
  checkb "level key does not alias v1" true
    (Store.Catalog.find cat { key with Store.Catalog.level = Some 0 }
       ~rows:(R.cardinality rel)
    = None)

(* Per-level persistence: second resolve does zero partitioning work,
   and coarser levels are shared across differing radii (only the leaf
   key carries the bound). *)
let test_catalog_hierarchy_roundtrip () =
  let dir = Filename.concat tmp_dir "cat-hier" in
  let cat = Store.Catalog.open_dir dir in
  let rel = skewed ~seed:17 300 in
  let fp = Store.Segment.fingerprint rel in
  let resolve radius =
    Store.Catalog.lookup_or_build_hierarchy cat ~fingerprint:fp ~radius
      ~levels:3 ~leaf_tau:10 ~attrs:hier_attrs rel
  in
  let h1, o1 = resolve P.No_radius in
  checkb "cold build" true (o1 = `Built);
  let h2, o2 = resolve P.No_radius in
  checkb "warm hit" true (o2 = `Hit);
  checki "same level count" (H.num_levels h1) (H.num_levels h2);
  for l = 0 to H.num_levels h1 - 1 do
    checkb
      (Printf.sprintf "level %d membership identical" l)
      true
      ((H.level h1 l).P.gid_of_row = (H.level h2 l).P.gid_of_row)
  done;
  checkb "hit hierarchy checks out" true (H.check h2 rel = Ok ());
  (* a different epsilon changes only the leaf key: 3 + 1 entries *)
  let _, o3 =
    resolve (P.Theorem { epsilon = 0.1; maximize = true })
  in
  checkb "new radius rebuilds (leaf differs)" true (o3 = `Built);
  let n_entries = List.length (Store.Catalog.entries cat) in
  checkb "coarse levels shared across radii" true (n_entries <= 7)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "progressive"
    [
      ( "smoke",
        [
          Alcotest.test_case "one-level equals sketchrefine" `Quick
            test_one_level_equals_sketchrefine;
          Alcotest.test_case "solves feasible multi-level" `Quick
            test_progressive_solves_feasible;
          Alcotest.test_case "deterministic across runs" `Quick
            test_determinism_across_runs;
          Alcotest.test_case "catalog canonical attrs order" `Quick
            test_catalog_attrs_order;
          Alcotest.test_case "catalog v1 format compat" `Quick
            test_catalog_v1_compat;
          Alcotest.test_case "catalog hierarchy roundtrip" `Quick
            test_catalog_hierarchy_roundtrip;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest hierarchy_invariants_prop;
          QCheck_alcotest.to_alcotest hierarchy_refinement_prop;
          QCheck_alcotest.to_alcotest dlv_equal_slice_bound_prop;
          Alcotest.test_case "DLV variance wins in aggregate" `Quick
            test_dlv_variance_wins_aggregate;
        ] );
    ]
