type method_ = Direct | Sketch_refine | Parallel | Progressive | Stochastic

let methods =
  [ ("direct", Direct); ("sketchrefine", Sketch_refine);
    ("parallel", Parallel); ("progressive", Progressive);
    ("stochastic", Stochastic) ]

let method_name m = fst (List.find (fun (_, m') -> m' = m) methods)

type settings = {
  method_ : method_;
  attrs : string list;
  tau : int option;
  epsilon : float option;
  stochastic : Pkg.Stochastic.options;
}

type layout = {
  attrs : string list;
  tau : int;
  radius : Pkg.Partition.radius_spec;
}

let derive ~hierarchy ?tau ?epsilon ~attrs sense rel =
  {
    attrs;
    tau =
      (match tau with
      | Some tau -> tau
      | None ->
        if hierarchy then Pkg.Hierarchy.default_leaf_tau rel
        else Pkg.Partition.default_tau rel);
    radius = Pkg.Partition.theorem_radius ?epsilon sense;
  }

let numeric_attrs schema ast =
  List.filter
    (fun a ->
      match Relalg.Schema.index_of_opt schema a with
      | Some i -> (
        match (Relalg.Schema.attr_at schema i).Relalg.Schema.ty with
        | Relalg.Value.TInt | Relalg.Value.TFloat -> true
        | Relalg.Value.TStr | Relalg.Value.TBool -> false)
      | None -> false)
    (Paql.Ast.all_attrs ast)

let layout ~hierarchy (s : settings) rel (ast, spec) =
  match
    match s.attrs with
    | [] -> numeric_attrs (Relalg.Relation.schema rel) ast
    | attrs -> attrs
  with
  | [] ->
    Error
      (Protocol.Resp_err
         ( Protocol.Analysis_error,
           method_name s.method_ ^ " needs numeric partitioning attributes" ))
  | attrs ->
    Ok
      (derive ~hierarchy ?tau:s.tau ?epsilon:s.epsilon ~attrs
         (Paql.Translate.objective_sense spec) rel)

let catalog_key fingerprint l =
  { Store.Catalog.fingerprint; attrs = l.attrs; tau = l.tau; radius = l.radius;
    level = None }

let partition ?catalog l rel =
  let build () =
    Pkg.Partition.create ~radius:l.radius ~tau:l.tau ~attrs:l.attrs rel
  in
  match catalog with
  | Some (cat, fp) ->
    Store.Catalog.lookup_or_build cat (catalog_key fp l)
      ~rows:(Relalg.Relation.cardinality rel) ~build
  | None -> (build (), `Built)

let hierarchy ?catalog ~levels l rel =
  match catalog with
  | Some (cat, fingerprint) ->
    Store.Catalog.lookup_or_build_hierarchy cat ~fingerprint ~radius:l.radius
      ~levels ~leaf_tau:l.tau ~attrs:l.attrs rel
  | None ->
    ( Pkg.Hierarchy.build ~radius:l.radius ~levels ~leaf_tau:l.tau
        ~attrs:l.attrs rel,
      `Built )

type source = {
  flat : layout -> Pkg.Partition.t;
  hier : layout -> Pkg.Hierarchy.t;
}

type warm = {
  find : unit -> Lp.Simplex.Basis.t option;
  keep : Lp.Simplex.Basis.t -> unit;
}

type outcome = {
  report : Pkg.Eval.report;
  levels : Pkg.Progressive.level_stat list;
  scenarios : Pkg.Stochastic.stats option;
}

let run ?warm ~limits ~seconds (s : settings) source rel (ast, spec) =
  let plain report = { report; levels = []; scenarios = None } in
  if Paql.Translate.is_stochastic spec || s.method_ = Stochastic then
    let options = { s.stochastic with limits; max_seconds = seconds } in
    let report, stats = Pkg.Stochastic.run ~options spec rel in
    Ok { report; levels = []; scenarios = Some stats }
  else
    match s.method_ with
    | Stochastic -> assert false (* routed above *)
    | Direct ->
      let basis_out = ref None in
      let warm_basis = Option.bind warm (fun w -> w.find ()) in
      let report = Pkg.Direct.run ~limits ?warm_basis ~basis_out spec rel in
      Option.iter (fun w -> Option.iter w.keep !basis_out) warm;
      Ok (plain report)
    | Progressive ->
      Result.map
        (fun l ->
          let t0 = Unix.gettimeofday () in
          match source.hier l with
          | exception Pkg.Faults.Injected msg ->
            plain
              (Pkg.Eval.report
                 ~status:
                   (Pkg.Eval.failed ~stage:Pkg.Eval.Progressive
                      (Pkg.Eval.Solver_error msg))
                 ~package:None ~objective:None
                 ~wall_time:(Unix.gettimeofday () -. t0)
                 ~counters:(Pkg.Eval.fresh_counters ()))
          | hier ->
            let options =
              { Pkg.Progressive.default_options with
                limits; max_seconds = seconds }
            in
            let report, levels = Pkg.Progressive.run ~options spec rel hier in
            { report; levels; scenarios = None })
        (layout ~hierarchy:true s rel (ast, spec))
    | Sketch_refine | Parallel ->
      Result.map
        (fun l ->
          let part = source.flat l in
          let options =
            { Pkg.Sketch_refine.default_options with
              limits; max_seconds = seconds }
          in
          plain
            (if s.method_ = Parallel then
               Pkg.Parallel.run ~options spec rel part
             else Pkg.Sketch_refine.run ~options spec rel part))
        (layout ~hierarchy:false s rel (ast, spec))
