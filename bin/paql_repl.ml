(* paql_repl: an interactive shell for package queries.

     $ dune exec bin/paql_repl.exe -- recipes.csv
     paql> \method sketchrefine
     paql> \partition kcal,saturated_fat tau=500
     paql> SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
        ->   SUCH THAT COUNT of P = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
        ->   MINIMIZE SUM(P.saturated_fat);

   Statements end with ';'. Meta commands start with '\'. The store
   directory, fault directives, hierarchy levels and scenario counts
   come from PKGQ_STORE_DIR, PKGQ_FAULTS, PKGQ_HIER_LEVELS and
   PKGQ_SCENARIOS / PKGQ_VALIDATE / PKGQ_SUMMARIES, read once at
   startup. *)

type state = {
  mutable rel : Relalg.Relation.t;
  mutable part : Pkg.Partition.t option;
  mutable hier : (Service.Engine.layout * Pkg.Hierarchy.t) option;
      (* progressive-shading hierarchy, cached per layout *)
  mutable method_ : Service.Engine.method_;
  mutable limits : Ilp.Branch_bound.limits;
  mutable show_package : bool;
  mutable store : Store.Catalog.t option;
  mutable fingerprint : string option;
  levels : int;
  stochastic : Pkg.Stochastic.options;
}

(* the store, with the table's fingerprint (computed on first use) *)
let catalog st =
  Option.map
    (fun cat ->
      match st.fingerprint with
      | Some fp -> (cat, fp)
      | None ->
        let fp = Store.Segment.fingerprint st.rel in
        st.fingerprint <- Some fp;
        (cat, fp))
    st.store

let help_text =
  {|Meta commands:
  \help                         this message
  \schema                       show the relation's schema and size
  \method direct|sketchrefine|parallel|progressive|stochastic
                                choose the evaluation method (queries with
                                WITH PROBABILITY / EXPECTED always use the
                                stochastic driver)
  \partition a,b,... [tau=N] [epsilon=E min|max]
                                build an offline partitioning; its
                                attributes are then every method's
                                partitioning attributes (without one, a
                                query's numeric attributes)
  \load FILE                    load a saved partitioning
  \save FILE                    save the current partitioning
  \limits nodes=N seconds=S     per-ILP solver budget
  \faults SPEC|off              install fault-injection directives
                                (PKGQ_FAULTS grammar, e.g. ilp=1:raise)
  \store [DIR|off]              show / set / disable the persistent store
                                (partitionings built with \partition are
                                cached there and reused across sessions)
  \partitions                   list the store's partition catalog
  \show on|off                  print packages after evaluation
  \quit                         exit
Any other input is PaQL; end statements with ';'.|}

let print_package st spec p =
  let m = Pkg.Package.materialize p in
  if st.show_package then Format.printf "%a@." Relalg.Relation.pp m;
  Format.printf "(%d tuple(s), objective %g)@."
    (Pkg.Package.cardinality p)
    (Pkg.Package.objective spec p)

let print_error = function
  | Service.Protocol.Resp_err (_, msg) ->
    List.iter (Format.printf "error: %s@.") (String.split_on_char '\n' msg)
  | Service.Protocol.Resp_ok _ -> assert false

let run_query st text =
  let flat l =
    match st.part with
    | Some part -> part
    | None ->
      Format.printf
        "note: no partitioning yet — building one on the query's \
         attributes (see \\partition)@.";
      let part =
        fst (Service.Engine.partition ?catalog:(catalog st) l st.rel)
      in
      st.part <- Some part;
      part
  in
  let hier l =
    match st.hier with
    | Some (cached, h) when cached = l -> h
    | _ ->
      let h =
        fst
          (Service.Engine.hierarchy ?catalog:(catalog st) ~levels:st.levels l
             st.rel)
      in
      st.hier <- Some (l, h);
      Format.printf "hierarchy: %s group(s) per level@."
        (String.concat "/"
           (Array.to_list
              (Array.map
                 (fun p -> string_of_int (Pkg.Partition.num_groups p))
                 h.Pkg.Hierarchy.levels)));
      h
  in
  let settings =
    { Service.Engine.method_ = st.method_;
      attrs =
        Option.fold ~none:[] ~some:(fun p -> p.Pkg.Partition.attrs) st.part;
      tau = None; epsilon = None; stochastic = st.stochastic }
  in
  match
    Service.Front.compile (Service.Metrics.create ())
      (Relalg.Relation.schema st.rel) text
  with
  | Error resp -> print_error resp
  | Ok ((_, spec) as planned) -> (
    match
      Service.Engine.run ~limits:st.limits
        ~seconds:st.limits.Ilp.Branch_bound.max_seconds settings
        { Service.Engine.flat; hier } st.rel planned
    with
    | Error resp -> print_error resp
    | Ok { Service.Engine.report; scenarios; _ } ->
      Option.iter
        (fun (s : Pkg.Stochastic.stats) ->
          if s.st_scenarios > 0 then
            Format.printf
              "stochastic: %d scenario(s) (+%d held out), %d summarie(s), %d \
               round(s), validated probability %.3f@."
              s.st_scenarios s.st_validation s.st_summaries s.st_rounds
              s.st_validated)
        scenarios;
      Format.printf "%a@." Pkg.Eval.pp_report report;
      Option.iter (print_package st spec) report.Pkg.Eval.package)

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_kv words =
  List.filter_map
    (fun w ->
      match String.index_opt w '=' with
      | Some i ->
        Some
          ( String.sub w 0 i,
            String.sub w (i + 1) (String.length w - i - 1) )
      | None -> None)
    words

let meta st line =
  match split_words line with
  | [ "\\help" ] -> print_endline help_text
  | [ "\\quit" ] | [ "\\q" ] -> raise Exit
  | [ "\\schema" ] ->
    Format.printf "%a — %d tuple(s)@." Relalg.Schema.pp
      (Relalg.Relation.schema st.rel)
      (Relalg.Relation.cardinality st.rel)
  | [ "\\method"; name ] when List.mem_assoc name Service.Engine.methods ->
    st.method_ <- List.assoc name Service.Engine.methods
  | "\\partition" :: attrs_word :: rest -> (
    let attrs = String.split_on_char ',' attrs_word in
    let kvs = parse_kv rest in
    let l =
      Service.Engine.derive ~hierarchy:false
        ?tau:(Option.map int_of_string (List.assoc_opt "tau" kvs))
        ?epsilon:(Option.map float_of_string (List.assoc_opt "epsilon" kvs))
        ~attrs
        (if List.mem "min" rest then Lp.Problem.Minimize
         else Lp.Problem.Maximize)
        st.rel
    in
    match Service.Engine.partition ?catalog:(catalog st) l st.rel with
    | part, status ->
      st.part <- Some part;
      Format.printf "%s: %d group(s)@."
        (match status with
        | `Hit -> "catalog hit"
        | `Built -> "partitioned")
        (Pkg.Partition.num_groups part)
    | exception Invalid_argument msg -> Format.printf "error: %s@." msg
    | exception Store.Segment.Error msg ->
      Format.printf "error: store: %s@." msg)
  | [ "\\load"; path ] -> (
    match Pkg.Partition.load path st.rel with
    | part ->
      st.part <- Some part;
      Format.printf "loaded %d group(s)@." (Pkg.Partition.num_groups part)
    | exception e -> Format.printf "error: %s@." (Printexc.to_string e))
  | [ "\\save"; path ] -> (
    match st.part with
    | Some part ->
      Pkg.Partition.save path part;
      Format.printf "saved to %s@." path
    | None -> Format.printf "error: nothing to save@.")
  | "\\limits" :: rest ->
    let kvs = parse_kv rest in
    let limits =
      {
        st.limits with
        Ilp.Branch_bound.max_nodes =
          (match List.assoc_opt "nodes" kvs with
          | Some v -> int_of_string v
          | None -> st.limits.Ilp.Branch_bound.max_nodes);
        max_seconds =
          (match List.assoc_opt "seconds" kvs with
          | Some v -> float_of_string v
          | None -> st.limits.Ilp.Branch_bound.max_seconds);
      }
    in
    st.limits <- limits
  | [ "\\faults"; "off" ] ->
    Pkg.Faults.clear ();
    print_endline "faults cleared."
  | "\\faults" :: rest -> (
    match Pkg.Faults.parse (String.concat " " rest) with
    | Ok spec ->
      Pkg.Faults.install spec;
      print_endline "faults installed (call counter reset)."
    | Error msg -> Format.printf "error: %s@." msg)
  | [ "\\store" ] -> (
    match st.store with
    | Some cat -> Format.printf "store: %s@." (Store.Catalog.dir cat)
    | None -> Format.printf "store: off@.")
  | [ "\\store"; "off" ] ->
    st.store <- None;
    print_endline "store disabled."
  | [ "\\store"; dir ] -> (
    match Store.Catalog.open_dir dir with
    | cat ->
      st.store <- Some cat;
      Format.printf "store: %s@." dir
    | exception Sys_error msg -> Format.printf "error: %s@." msg)
  | [ "\\partitions" ] -> (
    match st.store with
    | None -> Format.printf "store: off (use \\store DIR)@."
    | Some cat ->
      let es = Store.Catalog.entries cat in
      if es = [] then Format.printf "no stored partitionings.@."
      else
        List.iter
          (fun (e : Store.Catalog.entry) ->
            Format.printf
              "%s  attrs=%s tau=%d radius=%s  %d group(s) / %d row(s), %d \
               bytes, age %.0fs@."
              e.id
              (String.concat "," e.entry_key.Store.Catalog.attrs)
              e.entry_key.Store.Catalog.tau
              (Store.Catalog.radius_string e.entry_key.Store.Catalog.radius)
              e.groups e.rows e.bytes e.age)
          es)
  | [ "\\show"; "on" ] -> st.show_package <- true
  | [ "\\show"; "off" ] -> st.show_package <- false
  | _ -> Format.printf "unknown command; try \\help@."

(* ------------------------------------------------------------------ *)
(* Remote mode (--connect HOST:PORT)                                  *)
(* ------------------------------------------------------------------ *)

let remote_help_text =
  {|Meta commands (remote mode):
  \help            this message
  \ping            liveness probe
  \stats           server metrics snapshot
  \append FILE     append the CSV file's rows to the served table
  \show on|off     print packages after evaluation
  \quit            exit
Any other input is PaQL, evaluated by the server; end statements with ';'.|}

let remote_query client show text =
  match Service.Client.query client text with
  | Service.Protocol.Resp_err (code, msg) ->
    Format.printf "error (%s): %s@." (Service.Protocol.code_name code) msg
  | Service.Protocol.Resp_ok body -> (
    match Service.Protocol.parse_result body with
    | Error msg -> Format.printf "error: bad response: %s@." msg
    | Ok (status, wall, csv) ->
      if !show && csv <> "" then
        (match Relalg.Csv.of_string csv with
        | rel -> Format.printf "%a@." Relalg.Relation.pp rel
        | exception Relalg.Csv.Error _ -> print_string csv);
      Format.printf "%s, %.3fs (remote)@." status wall)

let remote_meta client show line =
  match split_words line with
  | [ "\\help" ] -> print_endline remote_help_text
  | [ "\\quit" ] | [ "\\q" ] -> raise Exit
  | [ "\\ping" ] -> (
    match Service.Client.ping client with
    | Service.Protocol.Resp_ok body -> Format.printf "%s@." body
    | Service.Protocol.Resp_err (_, msg) -> Format.printf "error: %s@." msg)
  | [ "\\stats" ] -> (
    match Service.Client.stats client with
    | Service.Protocol.Resp_ok body -> print_string body
    | Service.Protocol.Resp_err (_, msg) -> Format.printf "error: %s@." msg)
  | [ "\\append"; path ] -> (
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Format.printf "error: %s@." msg
    | csv -> (
      match Service.Client.append client ~csv with
      | Service.Protocol.Resp_ok body -> Format.printf "%s@." body
      | Service.Protocol.Resp_err (code, msg) ->
        Format.printf "error (%s): %s@." (Service.Protocol.code_name code) msg))
  | [ "\\show"; "on" ] -> show := true
  | [ "\\show"; "off" ] -> show := false
  | _ -> Format.printf "unknown command; try \\help@."

let remote_repl client =
  let show = ref true in
  let buffer = Buffer.create 256 in
  let prompt () =
    if Buffer.length buffer = 0 then print_string "paql@remote> "
    else print_string "         -> ";
    flush stdout
  in
  try
    while true do
      prompt ();
      match input_line stdin with
      | exception End_of_file -> raise Exit
      | line ->
        let trimmed = String.trim line in
        if Buffer.length buffer = 0 && String.length trimmed > 0
           && trimmed.[0] = '\\'
        then (
          try remote_meta client show trimmed with
          | Exit -> raise Exit
          | Service.Protocol.Protocol_error msg ->
            Format.printf "error: %s@." msg)
        else begin
          Buffer.add_string buffer line;
          Buffer.add_char buffer ' ';
          let text = String.trim (Buffer.contents buffer) in
          if String.length text > 0 && text.[String.length text - 1] = ';'
          then begin
            Buffer.clear buffer;
            match
              remote_query client show
                (String.sub text 0 (String.length text - 1))
            with
            | () -> ()
            | exception Service.Protocol.Protocol_error msg ->
              Format.printf "error: %s@." msg
          end
        end
    done
  with Exit ->
    Service.Client.close client;
    print_endline "bye."

let repl st =
  let buffer = Buffer.create 256 in
  let prompt () =
    if Buffer.length buffer = 0 then print_string "paql> "
    else print_string "   -> ";
    flush stdout
  in
  try
    while true do
      prompt ();
      match input_line stdin with
      | exception End_of_file -> raise Exit
      | line ->
        let trimmed = String.trim line in
        if Buffer.length buffer = 0 && String.length trimmed > 0
           && trimmed.[0] = '\\'
        then (try meta st trimmed with
          | Exit -> raise Exit
          | Failure msg -> Format.printf "error: %s@." msg)
        else begin
          Buffer.add_string buffer line;
          Buffer.add_char buffer ' ';
          let text = String.trim (Buffer.contents buffer) in
          if String.length text > 0 && text.[String.length text - 1] = ';'
          then begin
            Buffer.clear buffer;
            run_query st (String.sub text 0 (String.length text - 1))
          end
        end
    done
  with Exit -> print_endline "bye."

let () =
  match Sys.argv with
  | [| _; "--connect"; endpoint |] | [| _; "-c"; endpoint |] -> (
    match Service.Client.parse_endpoint endpoint with
    | Error msg ->
      Printf.eprintf "paql_repl: --connect: %s\n" msg;
      exit 2
    | Ok (host, port) -> (
      match Service.Client.connect ~host ~port () with
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "paql_repl: connect %s: %s\n" endpoint
          (Unix.error_message e);
        exit 3
      | exception Failure msg ->
        Printf.eprintf "paql_repl: %s\n" msg;
        exit 3
      | client ->
        Format.printf "connected to %s. \\help for commands.@." endpoint;
        remote_repl client))
  | [| _; path |] ->
    let knob k =
      match k.Knobs.read () with
      | Ok v -> v
      | Error msg ->
        Printf.eprintf "paql_repl: %s\n" msg;
        exit 2
    in
    let var name =
      knob (Knobs.env Cmdliner.Arg.(some string) name ~default:None)
    in
    let levels = knob Knobs.levels and stochastic = knob Knobs.stochastic in
    Option.iter
      (fun s ->
        match Pkg.Faults.parse s with
        | Ok spec -> Pkg.Faults.install spec
        | Error msg ->
          Printf.eprintf "paql_repl: %s: %s\n" Knobs.faults_var msg;
          exit 2)
      (var Knobs.faults_var);
    let store = Option.map Store.Catalog.open_dir (var Knobs.store_var) in
    let rel, fingerprint =
      match
        match store with
        | Some cat ->
          let rel, fp = Store.Catalog.load_table cat path in
          (rel, Some fp)
        | None ->
          if Filename.check_suffix path ".seg" then
            (Store.Segment.read path, Some (Store.Segment.fingerprint_file path))
          else (Relalg.Csv.read path, None)
      with
      | v -> v
      | exception Relalg.Csv.Error (line, msg) ->
        Printf.eprintf "paql_repl: csv error at line %d: %s\n" line msg;
        exit 3
      | exception Store.Segment.Error msg ->
        Printf.eprintf "paql_repl: store: %s\n" msg;
        exit 3
      | exception Sys_error msg ->
        Printf.eprintf "paql_repl: %s\n" msg;
        exit 3
    in
    Format.printf "loaded %s: %d tuple(s). \\help for commands.@." path
      (Relalg.Relation.cardinality rel);
    Option.iter
      (fun cat -> Format.printf "store: %s@." (Store.Catalog.dir cat))
      store;
    repl
      {
        rel;
        part = None;
        hier = None;
        method_ = Service.Engine.Direct;
        limits = Ilp.Branch_bound.default_limits;
        show_package = true;
        store;
        fingerprint;
        levels;
        stochastic;
      }
  | _ ->
    prerr_endline "usage: paql_repl DATA.csv | paql_repl --connect HOST:PORT";
    exit 2
