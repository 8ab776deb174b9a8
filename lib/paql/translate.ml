type compiled_constraint = {
  coeff : Relalg.Tuple.t -> float;
  coeff_rows : Relalg.Relation.t -> int -> float;
      (* row-indexed variant over cached columns; bind the relation
         once, then apply per row id *)
  clo : float;
  chi : float;
  cname : string;
  cattrs : string list;
}

type stochastic_constraint = {
  sterms : Linform.term list;
      (* normalized linear form of the comparison; the stochastic
         driver re-derives scenario-dependent coefficients from the
         terms, so they are kept rather than pre-closed like
         [compiled_constraint] *)
  scoeff_rows : Relalg.Relation.t -> int -> float;
      (* base-realization coefficients (same contract as [coeff_rows]) *)
  slo : float;
  shi : float;
  sprob : float;
  sname : string;
  sattrs : string list;
}

type spec = {
  query : Ast.query;
  schema : Relalg.Schema.t;
  where : Relalg.Expr.t option;
  constraints : compiled_constraint list;
  stochastic : stochastic_constraint list;
  expected_objective : bool;
  objective : (Lp.Problem.sense * (Relalg.Tuple.t -> float) * float) option;
  objective_rows : Relalg.Relation.t -> int -> float;
      (* row-indexed objective coefficients; constantly 0. when the
         query has no objective *)
  max_count : float;
}

let is_stochastic spec = spec.stochastic <> [] || spec.expected_objective

let ( let* ) = Result.bind

let compile schema (q : Ast.query) =
  let* () = Result.map_error (String.concat "; ") (Analyze.check schema q) in
  (* Split the conjunction: deterministic leaves compile exactly as
     before (so the deterministic drivers see an unchanged spec), while
     WITH PROBABILITY leaves land in [stochastic] for the scenario
     solver. Names are indexed within each class. *)
  let det_leaves, stoch_leaves =
    match q.such_that with
    | None -> [], []
    | Some gp ->
      List.partition
        (function Ast.Gprob _ -> false | _ -> true)
        (Ast.conjuncts gp)
  in
  let* constraints =
    let* cs =
      List.fold_left
        (fun acc leaf ->
          let* acc = acc in
          let* cs = Linform.of_conjunct leaf in
          Ok (acc @ cs))
        (Ok []) det_leaves
    in
    Ok
      (List.mapi
         (fun i (c : Linform.constr) ->
           {
             coeff = Linform.coeff_fn schema c.Linform.cterms;
             coeff_rows =
               (fun rel -> Linform.coeff_rows schema rel c.Linform.cterms);
             clo = c.Linform.lo;
             chi = c.Linform.hi;
             cname = Printf.sprintf "g%d" i;
             cattrs = Linform.term_attrs c.Linform.cterms;
           })
         cs)
  in
  let* stochastic =
    let* scs =
      List.fold_left
        (fun acc leaf ->
          let* acc = acc in
          match leaf with
          | Ast.Gprob (_, _, _, p) ->
            let* cs = Linform.of_conjunct leaf in
            (match cs with
            | [ c ] -> Ok ((c, p) :: acc)
            | _ -> assert false (* a comparison lowers to one constr *))
          | _ -> assert false)
        (Ok [])
        stoch_leaves
    in
    Ok
      (List.mapi
         (fun i ((c : Linform.constr), p) ->
           {
             sterms = c.Linform.cterms;
             scoeff_rows =
               (fun rel -> Linform.coeff_rows schema rel c.Linform.cterms);
             slo = c.Linform.lo;
             shi = c.Linform.hi;
             sprob = p;
             sname = Printf.sprintf "s%d" i;
             sattrs = Linform.term_attrs c.Linform.cterms;
           })
         (List.rev scs))
  in
  let* objective, objective_rows =
    match q.objective with
    | None -> Ok (None, fun _ _ -> 0.)
    | Some o ->
      let* sense, terms, const = Linform.of_objective o in
      Ok
        ( Some (sense, Linform.coeff_fn schema terms, const),
          fun rel -> Linform.coeff_rows schema rel terms )
  in
  let max_count =
    match q.repeat with
    | None -> infinity
    | Some k -> float_of_int (k + 1)
  in
  let expected_objective =
    match q.objective with
    | Some (Ast.Minimize e) | Some (Ast.Maximize e) -> Ast.has_expected e
    | None -> false
  in
  Ok
    {
      query = q;
      schema;
      where = q.where;
      constraints;
      stochastic;
      expected_objective;
      objective;
      objective_rows;
      max_count;
    }

let compile_exn schema q =
  match compile schema q with
  | Ok spec -> spec
  | Error msg -> invalid_arg ("Translate.compile: " ^ msg)

let base_candidates spec r =
  match spec.where with
  | None -> Array.init (Relalg.Relation.cardinality r) Fun.id
  | Some pred -> Relalg.Relation.select_indices r pred

let objective_sense spec =
  match spec.objective with
  | Some (sense, _, _) -> sense
  | None -> Lp.Problem.Minimize

let constraint_rows ?offsets spec r ~candidates =
  (match offsets with
  | Some o when Array.length o <> List.length spec.constraints ->
    invalid_arg "Translate.to_problem: offsets arity mismatch"
  | _ -> ());
  List.mapi
    (fun ci c ->
      let crow = c.coeff_rows r in
      let off = match offsets with Some o -> o.(ci) | None -> 0. in
      ((fun k -> crow candidates.(k)), c.clo -. off, c.chi -. off))
    spec.constraints

let to_problem ?var_hi ?offsets spec r ~candidates =
  let rows = constraint_rows ?offsets spec r ~candidates in
  let obj_row = spec.objective_rows r in
  Lp.Problem.columns ~sense:(objective_sense spec)
    ~obj:(fun k -> obj_row candidates.(k))
    ~hi:(match var_hi with Some f -> f | None -> fun _ -> spec.max_count)
    ~rows (Array.length candidates)

let describe spec rel =
  let n = Relalg.Relation.cardinality rel in
  let candidates = base_candidates spec rel in
  let kept = Array.length candidates in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>package query over %d tuple(s)@," n;
  Format.fprintf ppf
    "base predicate keeps %d candidate(s) (%d variable(s) eliminated, \
     rule 2)@,"
    kept (n - kept);
  Format.fprintf ppf "ILP: %d integer variable(s), bounds [0, %a] \
                      (repetition rule 1), %d constraint row(s)@,"
    kept Lp.Problem.pp_bound spec.max_count
    (List.length spec.constraints);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s: %a <= sum <= %a  (attrs: %s)@," c.cname
        Lp.Problem.pp_bound c.clo Lp.Problem.pp_bound c.chi
        (match c.cattrs with
        | [] -> "cardinality only"
        | attrs -> String.concat ", " attrs))
    spec.constraints;
  if spec.stochastic <> [] then begin
    Format.fprintf ppf "stochastic constraint row(s): %d@,"
      (List.length spec.stochastic);
    List.iter
      (fun s ->
        Format.fprintf ppf
          "  %s: %a <= sum <= %a WITH PROBABILITY %g  (attrs: %s)@," s.sname
          Lp.Problem.pp_bound s.slo Lp.Problem.pp_bound s.shi s.sprob
          (match s.sattrs with
          | [] -> "cardinality only"
          | attrs -> String.concat ", " attrs))
      spec.stochastic
  end;
  if spec.expected_objective then
    Format.fprintf ppf "objective is an expectation (EXPECTED)@,";
  (match spec.objective with
  | None -> Format.fprintf ppf "objective: none (vacuous, rule 4)@,"
  | Some (sense, _, const) ->
    Format.fprintf ppf "objective: %s linear form%s@,"
      (match sense with
      | Lp.Problem.Minimize -> "minimize"
      | Lp.Problem.Maximize -> "maximize")
      (if const <> 0. then Printf.sprintf " (+ constant %g)" const else ""));
  Format.pp_print_flush ppf ();
  Buffer.contents buf
