(* pkgq_gen: emit the synthetic benchmark datasets (Galaxy / TPC-H
   pre-joined) as CSV, for use with the paql CLI or external tools.

   Examples:
     pkgq_gen galaxy -n 100000 -o galaxy.csv
     pkgq_gen tpch -n 200000 --seed 7 -o tpch.csv
     pkgq_gen queries galaxy -n 10000      # print the workload queries *)

open Cmdliner

type format = Csv | Bin

let write_or_print format out rel =
  match format, out with
  | Csv, Some path ->
    Relalg.Csv.write path rel;
    Printf.printf "wrote %d tuples to %s\n"
      (Relalg.Relation.cardinality rel)
      path
  | Csv, None -> print_string (Relalg.Csv.to_string rel)
  | Bin, Some path ->
    Store.Segment.write path rel;
    Printf.printf "wrote %d tuples to %s (binary segment)\n"
      (Relalg.Relation.cardinality rel)
      path
  | Bin, None ->
    prerr_endline "pkgq_gen: --format bin requires an output file (-o)";
    exit 6

(* --noise: emit Monte-Carlo realizations of the table instead of the
   base relation. One scenario goes wherever the base would have; K > 1
   scenarios fan out to FILE.s<i><ext> so each realization is a
   loadable table. Scenario i is bitwise-identical however many are
   emitted (per-scenario derived seeds). *)
let emit_with_noise noise scenarios noise_seed format out rel =
  match noise with
  | None -> write_or_print format out rel
  | Some spec_str -> (
    if scenarios < 1 then begin
      prerr_endline "pkgq_gen: --scenarios must be >= 1";
      exit 6
    end;
    match Datagen.Scenario.parse_specs spec_str with
    | Error msg ->
      prerr_endline ("pkgq_gen: --noise: " ^ msg);
      exit 6
    | Ok specs -> (
      match Datagen.Scenario.generate ~seed:noise_seed ~scenarios specs rel with
      | Error msg ->
        prerr_endline ("pkgq_gen: --noise: " ^ msg);
        exit 3
      | Ok t ->
        if scenarios = 1 then
          write_or_print format out (Datagen.Scenario.realize t 0)
        else (
          match out with
          | None ->
            prerr_endline
              "pkgq_gen: --scenarios > 1 requires an output file (-o); one \
               file per scenario is written";
            exit 6
          | Some path ->
            let ext = Filename.extension path in
            let base = Filename.remove_extension path in
            for s = 0 to scenarios - 1 do
              write_or_print format
                (Some (Printf.sprintf "%s.s%d%s" base s ext))
                (Datagen.Scenario.realize t s)
            done)))

let gen_galaxy n seed skew noise scenarios noise_seed format out =
  if skew < 0. then begin
    prerr_endline "pkgq_gen: --skew must be >= 0";
    exit 6
  end;
  emit_with_noise noise scenarios noise_seed format out
    (Datagen.Galaxy.generate ~seed ~skew n)

let gen_tpch n seed skew noise scenarios noise_seed format out =
  if skew < 0. then begin
    prerr_endline "pkgq_gen: --skew must be >= 0";
    exit 6
  end;
  emit_with_noise noise scenarios noise_seed format out
    (Datagen.Tpch.generate ~seed ~skew n)

let show_queries dataset n seed =
  let defs =
    match dataset with
    | "galaxy" ->
      Datagen.Workload.galaxy_queries (Datagen.Galaxy.generate ~seed n)
    | "tpch" -> Datagen.Workload.tpch_queries (Datagen.Tpch.generate ~seed n)
    | d ->
      prerr_endline ("pkgq_gen: unknown dataset " ^ d ^ " (galaxy or tpch)");
      exit 3
  in
  List.iter
    (fun (d : Datagen.Workload.def) ->
      Printf.printf "-- %s (attrs: %s)\n%s\n\n" d.name
        (String.concat ", " d.attrs)
        d.paql)
    defs

let gen_workload dataset count repeat stochastic appends n seed out =
  let rel, ds =
    match dataset with
    | "galaxy" -> (Datagen.Galaxy.generate ~seed n, `Galaxy)
    | "tpch" -> (Datagen.Tpch.generate ~seed n, `Tpch)
    | d ->
      prerr_endline ("pkgq_gen: unknown dataset " ^ d ^ " (galaxy or tpch)");
      exit 3
  in
  if not (repeat >= 0. && repeat <= 1.) then begin
    prerr_endline "pkgq_gen: --repeat must be in [0,1]";
    exit 6
  end;
  if appends < 0 then begin
    prerr_endline "pkgq_gen: --appends must be >= 0";
    exit 6
  end;
  if not (stochastic >= 0. && stochastic <= 1.) then begin
    prerr_endline "pkgq_gen: --stochastic must be in [0,1]";
    exit 6
  end;
  let text, entries =
    if appends = 0 then
      let defs =
        Datagen.Workload.mixed ~seed ~repeat_rate:repeat
          ~stochastic_rate:stochastic ~dataset:ds ~n:count rel
      in
      (Datagen.Workload.render_workload defs, List.length defs)
    else
      let ops =
        Datagen.Workload.mixed_ops ~seed ~repeat_rate:repeat
          ~stochastic_rate:stochastic ~appends ~dataset:ds ~n:count rel
      in
      (Datagen.Workload.render_ops ops, List.length ops)
  in
  match out with
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text);
    Printf.printf "wrote %d entries to %s\n" entries path
  | None -> print_string text

let n_arg =
  Arg.(
    value & opt int 10_000
    & info [ "n" ] ~docv:"N" ~doc:"Number of tuples to generate.")

let seed_arg =
  Arg.(
    value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Deterministic seed.")

let skew_arg =
  Arg.(
    value & opt float 0.
    & info [ "skew" ] ~docv:"K"
        ~doc:
          "Concentration knob (>= 0, default 0): larger values pile \
           attribute mass near the low end with heavy tails — the regime \
           where DLV variance-driven partitioning beats equal-width cells. \
           0 reproduces the historical distributions byte-for-byte.")

let noise_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "noise" ] ~docv:"SPEC"
        ~doc:
          "Emit Monte-Carlo realizations of the table instead of the base \
           relation: additive gaussian noise on the named float columns, \
           comma-separated $(b,attr:sigma) entries with an optional \
           $(b,@corr) correlated-component weight in [0,1] (default 0.5), \
           e.g. $(b,'u:0.3,r:0.1@0.8'). The stochastic solver derives the \
           same model internally; this surface materializes the scenarios \
           for external tools.")

let scenarios_arg =
  Arg.(
    value & opt int 1
    & info [ "scenarios" ] ~docv:"K"
        ~doc:
          "With $(b,--noise): number of scenario realizations. 1 (default) \
           writes the single realization to $(b,-o)/stdout; K > 1 writes \
           $(b,FILE.s<i><ext>) per scenario. Scenario i is identical \
           whatever K is.")

let noise_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "noise-seed" ] ~docv:"S"
        ~doc:
          "Seed for the scenario noise streams (independent of $(b,--seed), \
           which shapes the base relation).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")

let format_arg =
  let format_conv = Arg.enum [ ("csv", Csv); ("bin", Bin) ] in
  Arg.(
    value & opt format_conv Csv
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Output format: $(b,csv) (default) or $(b,bin), the store's binary \
           columnar segment ($(b,bin) requires $(b,-o)). Segments load \
           directly into the engine's column cache — no CSV parse.")

let galaxy_cmd =
  Cmd.v
    (Cmd.info "galaxy" ~doc:"generate the synthetic SDSS Galaxy stand-in")
    Term.(
      const gen_galaxy $ n_arg $ seed_arg $ skew_arg $ noise_arg
      $ scenarios_arg $ noise_seed_arg $ format_arg $ out_arg)

let tpch_cmd =
  Cmd.v
    (Cmd.info "tpch" ~doc:"generate the pre-joined TPC-H stand-in")
    Term.(
      const gen_tpch $ n_arg $ seed_arg $ skew_arg $ noise_arg $ scenarios_arg
      $ noise_seed_arg $ format_arg $ out_arg)

let queries_cmd =
  let dataset =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DATASET" ~doc:"galaxy or tpch")
  in
  Cmd.v
    (Cmd.info "queries"
       ~doc:"print the benchmark PaQL workload, instantiated on a sample")
    Term.(const show_queries $ dataset $ n_arg $ seed_arg)

let workload_cmd =
  let dataset =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DATASET" ~doc:"galaxy or tpch")
  in
  let count =
    Arg.(
      value & opt int 20
      & info [ "workload" ] ~docv:"N"
          ~doc:"Number of workload entries to emit.")
  in
  let repeat =
    Arg.(
      value & opt float 0.5
      & info [ "repeat" ] ~docv:"R"
          ~doc:
            "Expected fraction of entries that repeat an earlier query \
             verbatim (in [0,1]); repeats are what exercise a server's plan \
             and result caches.")
  in
  let stochastic =
    Arg.(
      value & opt float 0.
      & info [ "stochastic" ] ~docv:"R"
          ~doc:
            "Expected fraction of fresh entries synthesized as stochastic \
             queries (WITH PROBABILITY constraint + EXPECTED objective), in \
             [0,1]. 0 (the default) reproduces the historical streams \
             byte-for-byte.")
  in
  let appends =
    Arg.(
      value & opt int 0
      & info [ "appends" ] ~docv:"K"
          ~doc:
            "Interleave K append ops (NAME<TAB>@APPEND rows=R seed=S lines) \
             evenly through the query stream — the mutation mix the \
             durability benches replay. 0 (the default) emits a pure query \
             stream in the classic format.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "emit a reproducible mixed query stream (NAME<TAB>QUERY lines) for \
          the service layer, instantiated on a generated sample")
    Term.(const gen_workload $ dataset $ count $ repeat $ stochastic
          $ appends $ n_arg $ seed_arg $ out_arg)

let () =
  let doc = "generate the package-query benchmark datasets" in
  let group =
    Cmd.group
      (Cmd.info "pkgq_gen" ~doc)
      [ galaxy_cmd; tpch_cmd; queries_cmd; workload_cmd ]
  in
  let die msg =
    prerr_endline ("pkgq_gen: " ^ msg);
    exit 3
  in
  match Cmd.eval group with
  | code -> exit code
  | exception Sys_error msg -> die msg
  | exception Relalg.Csv.Error (line, msg) ->
    die (Printf.sprintf "csv error at line %d: %s" line msg)
  | exception Failure msg -> die msg
