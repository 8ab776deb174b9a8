(* Course selection — the CourseRank-style scenario the paper cites
   [25]: a student assembles a semester schedule (a package of
   courses) under credit-hour bounds, a workload cap, a breadth
   requirement expressed with conditional counts, and REPEAT 0 (no
   course twice), maximizing predicted enjoyment. Each query is
   partitioned for its own objective sense: the Theorem 3 radius
   bounds how far SketchRefine's answer can trail Direct's. *)

let schema =
  Relalg.Schema.make
    [
      { Relalg.Schema.name = "course_id"; ty = Relalg.Value.TInt };
      { Relalg.Schema.name = "credits"; ty = Relalg.Value.TFloat };
      { Relalg.Schema.name = "weekly_hours"; ty = Relalg.Value.TFloat };
      { Relalg.Schema.name = "rating"; ty = Relalg.Value.TFloat };
      { Relalg.Schema.name = "is_stem"; ty = Relalg.Value.TFloat };
      { Relalg.Schema.name = "level"; ty = Relalg.Value.TFloat };
    ]

let catalogue n =
  let rng = Datagen.Prng.create 42 in
  let b = Relalg.Relation.builder schema in
  for course_id = 0 to n - 1 do
    let stem = if Datagen.Prng.bool rng ~p:0.45 then 1.0 else 0.0 in
    let credits = float_of_int (2 + Datagen.Prng.int rng 3) in
    let level = float_of_int (100 * (1 + Datagen.Prng.int rng 4)) in
    (* higher-level and STEM courses cost more hours *)
    let weekly_hours =
      (credits *. 2.)
      +. (level /. 100.) +. (stem *. 2.)
      +. Datagen.Prng.uniform rng 0. 4.
    in
    let rating =
      Float.min 5. (Float.max 1. (Datagen.Prng.normal rng ~mean:3.6 ~stddev:0.8))
    in
    Relalg.Relation.add b
      [|
        Relalg.Value.Int course_id;
        Relalg.Value.Float credits;
        Relalg.Value.Float weekly_hours;
        Relalg.Value.Float rating;
        Relalg.Value.Float stem;
        Relalg.Value.Float level;
      |]
  done;
  Relalg.Relation.seal b

let semester_query =
  {|SELECT PACKAGE(C) AS P FROM Courses C REPEAT 0
    SUCH THAT SUM(P.credits) BETWEEN 15 AND 18 AND
              SUM(P.weekly_hours) <= 55 AND
              (SELECT COUNT(*) FROM P WHERE is_stem = 1.0) >= 2 AND
              (SELECT COUNT(*) FROM P WHERE is_stem = 0.0) >= 1 AND
              AVG(P.level) <= 300
    MAXIMIZE SUM(P.rating)|}

let light_semester_query =
  {|SELECT PACKAGE(C) AS P FROM Courses C REPEAT 0
    SUCH THAT SUM(P.credits) BETWEEN 12 AND 14 AND
              SUM(P.weekly_hours) <= 38
    MAXIMIZE SUM(P.rating)|}

let () =
  let n = 8000 in
  let rel = catalogue n in
  Format.printf "Course catalogue: %d courses@.@." n;
  (* is_stem stays out: the radius bound scales with each attribute's
     centroid, and an all-non-STEM group's centroid of 0 would allow
     only identical courses in one group *)
  let attrs = [ "credits"; "weekly_hours"; "rating"; "level" ] in

  let limits = { Ilp.Branch_bound.default_limits with max_nodes = 30_000; max_seconds = 20. } in
  let run_query label text =
    Format.printf "== %s ==@." label;
    let spec = Paql.Translate.compile_exn schema (Paql.Parser.parse_exn text) in
    let maximize =
      Paql.Translate.objective_sense spec = Lp.Problem.Maximize
    in
    let t0 = Unix.gettimeofday () in
    let part =
      Pkg.Partition.create ~tau:(n / 10)
        ~radius:(Pkg.Partition.Theorem { epsilon = 0.5; maximize })
        ~attrs rel
    in
    Format.printf "  partition: %d groups in %.3fs@."
      (Pkg.Partition.num_groups part)
      (Unix.gettimeofday () -. t0);
    let direct = Pkg.Direct.run ~limits spec rel in
    Format.printf "  direct:       %a@." Pkg.Eval.pp_report direct;
    let sr =
      Pkg.Sketch_refine.run
        ~options:{ Pkg.Sketch_refine.default_options with limits }
        spec rel part
    in
    Format.printf "  sketchrefine: %a@." Pkg.Eval.pp_report sr;
    (match sr.Pkg.Eval.package with
    | Some p ->
      let m = Pkg.Package.materialize p in
      let agg a = Relalg.Value.to_float (Relalg.Aggregate.over m a) in
      Format.printf
        "  schedule: %d courses, %g credits, %.1f h/week, avg rating %.2f@."
        (Pkg.Package.cardinality p)
        (agg (Relalg.Aggregate.Sum "credits"))
        (agg (Relalg.Aggregate.Sum "weekly_hours"))
        (agg (Relalg.Aggregate.Avg "rating"))
    | None -> Format.printf "  no feasible schedule@.");
    Format.printf "@."
  in
  run_query "full semester (breadth + level constraints)" semester_query;
  run_query "light semester" light_semester_query
