(* Tests for the PaQL language pipeline: lexer, parser, pretty-printer,
   analyzer, linear-form normalization and ILP translation. *)

module L = Paql.Lexer
module A = Paql.Ast
module E = Relalg.Expr
module V = Relalg.Value

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checks = Alcotest.check Alcotest.string

let paper_query =
  {|SELECT PACKAGE(R) AS P
    FROM Recipes R REPEAT 0
    WHERE R.gluten = 'free'
    SUCH THAT COUNT(P.*) = 3 AND
              SUM(P.kcal) BETWEEN 2.0 AND 2.5
    MINIMIZE SUM(P.saturated_fat)|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let toks s = Array.to_list (Array.map (fun t -> t.L.tok) (L.tokenize s))

let test_lexer_basics () =
  checkb "keywords case-insensitive" true
    (toks "select PaCkAgE" = [ L.KW "SELECT"; L.KW "PACKAGE"; L.EOF ]);
  checkb "idents keep case" true
    (toks "Recipes" = [ L.IDENT "Recipes"; L.EOF ]);
  checkb "numbers" true (toks "2.5 1e3 7" =
    [ L.NUMBER 2.5; L.NUMBER 1000.; L.NUMBER 7.; L.EOF ]);
  checkb "operators" true
    (toks "<= >= <> < > = + - * / ( ) , ."
    = [ L.LE; L.GE; L.NEQ; L.LT; L.GT; L.EQ; L.PLUS; L.MINUS; L.STAR;
        L.SLASH; L.LPAREN; L.RPAREN; L.COMMA; L.DOT; L.EOF ]);
  checkb "string literal" true (toks "'free'" = [ L.STRING "free"; L.EOF ]);
  checkb "string with escaped quote" true
    (toks "'it''s'" = [ L.STRING "it's"; L.EOF ]);
  checkb "comment skipped" true
    (toks "1 -- a comment\n2" = [ L.NUMBER 1.; L.NUMBER 2.; L.EOF ])

let test_lexer_errors () =
  checkb "unterminated string" true
    (match L.tokenize "'oops" with
    | exception L.Lex_error _ -> true
    | _ -> false);
  checkb "bad char" true
    (match L.tokenize "a # b" with
    | exception L.Lex_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Paql.Parser.parse s with
  | Ok q -> q
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_parse_paper_query () =
  let q = parse paper_query in
  checks "package name" "P" q.A.package_name;
  checks "rel name" "Recipes" q.A.rel_name;
  checks "alias" "R" q.A.rel_alias;
  checkb "repeat 0" true (q.A.repeat = Some 0);
  checkb "where present" true
    (q.A.where = Some (E.Cmp (E.Eq, E.Attr "gluten", E.Const (V.Str "free"))));
  (match q.A.such_that with
  | Some gp ->
    checki "two conjuncts" 2 (List.length (A.conjuncts gp));
    (match A.conjuncts gp with
    | [ A.Gcmp (A.Eq, A.Agg (A.Count_star, None), A.Num 3.); A.Gbetween _ ] ->
      ()
    | _ -> Alcotest.fail "unexpected such-that shape")
  | None -> Alcotest.fail "missing such that");
  match q.A.objective with
  | Some (A.Minimize (A.Agg (A.Sum "saturated_fat", None))) -> ()
  | _ -> Alcotest.fail "unexpected objective"

let test_parse_defaults () =
  let q = parse "SELECT PACKAGE(R) FROM Rel R" in
  checks "default package name" "P" q.A.package_name;
  checkb "no repeat" true (q.A.repeat = None);
  checkb "no where" true (q.A.where = None);
  checkb "no such that" true (q.A.such_that = None);
  checkb "no objective" true (q.A.objective = None);
  (* alias defaults to the relation name *)
  let q2 = parse "SELECT PACKAGE(Rel) FROM Rel" in
  checks "alias = rel" "Rel" q2.A.rel_alias

let test_parse_subquery () =
  let q =
    parse
      "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT (SELECT COUNT(*) FROM P \
       WHERE carbs > 0) >= (SELECT SUM(protein) FROM P WHERE protein <= 5)"
  in
  match q.A.such_that with
  | Some (A.Gcmp (A.Ge, A.Agg (A.Count_star, Some _), A.Agg (A.Sum "protein", Some _)))
    -> ()
  | _ -> Alcotest.fail "unexpected subquery parse"

let test_parse_arith_and_precedence () =
  let q =
    parse
      "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT SUM(P.a) + 2 * COUNT(P.*) \
       <= 10 MAXIMIZE 3 * SUM(P.b) - SUM(P.c) / 2"
  in
  (match q.A.such_that with
  | Some
      (A.Gcmp
        (A.Le, A.Add (A.Agg (A.Sum "a", None),
                      A.Mult (A.Num 2., A.Agg (A.Count_star, None))),
         A.Num 10.)) ->
    ()
  | _ -> Alcotest.fail "precedence: * binds tighter than +");
  match q.A.objective with
  | Some (A.Maximize (A.Subtract (A.Mult (A.Num 3., _), A.Divide (_, A.Num 2.))))
    -> ()
  | _ -> Alcotest.fail "objective arithmetic shape"

let test_parse_where_logic () =
  let q =
    parse
      "SELECT PACKAGE(R) AS P FROM Rel R WHERE NOT (a = 1 OR b < 2) AND c IS \
       NOT NULL"
  in
  match q.A.where with
  | Some (E.And (E.Not (E.Or _), E.IsNotNull (E.Attr "c"))) -> ()
  | _ -> Alcotest.fail "where logic shape"

let parse_err s =
  match Paql.Parser.parse s with
  | Ok _ -> Alcotest.failf "expected parse error for %s" s
  | Error _ -> ()

let test_parse_errors () =
  parse_err "SELECT PACKAGE(R) FROM Rel X";       (* alias mismatch *)
  parse_err "SELECT PACKAGE(R) FROM Rel R REPEAT -1";
  parse_err "SELECT PACKAGE(R) FROM Rel R REPEAT 1.5";
  parse_err "SELECT PACKAGE(R) FROM Rel R SUCH COUNT(P.*) = 1"; (* missing THAT *)
  parse_err "SELECT PACKAGE(R) FROM Rel R SUCH THAT COUNT(Q.*) = 1"; (* bad qualifier *)
  parse_err "SELECT PACKAGE(R) FROM Rel R WHERE Q.a = 1"; (* bad qualifier *)
  parse_err
    "SELECT PACKAGE(R) FROM Rel R SUCH THAT (SELECT COUNT(*) FROM Q) = 1";
  parse_err "SELECT PACKAGE(R) FROM Rel R SUCH THAT SUM() <= 1";
  parse_err "SELECT PACKAGE(R) FROM Rel R trailing";
  parse_err "SELEC PACKAGE(R) FROM Rel R"

(* ------------------------------------------------------------------ *)
(* Pretty-printer round-trip                                          *)
(* ------------------------------------------------------------------ *)

let test_pretty_roundtrip () =
  let cases =
    [
      paper_query;
      "SELECT PACKAGE(R) FROM Rel R";
      "SELECT PACKAGE(R) AS K FROM Rel R REPEAT 3 SUCH THAT AVG(K.x) <= 5 \
       MAXIMIZE SUM(K.y)";
      "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT (SELECT COUNT(*) FROM P \
       WHERE a > 1 AND b IS NULL) >= 2 AND SUM(P.c) BETWEEN 1 AND 2";
      "SELECT PACKAGE(R) AS P FROM Rel R WHERE a BETWEEN 1 AND 2 OR NOT b = \
       'x' MINIMIZE COUNT(P.*) + 2 * SUM(P.z)";
    ]
  in
  List.iter
    (fun text ->
      let q1 = parse text in
      let printed = Paql.Pretty.to_string q1 in
      let q2 = parse printed in
      checkb ("round-trip: " ^ text) true (q1 = q2))
    cases

(* ------------------------------------------------------------------ *)
(* Analyze                                                            *)
(* ------------------------------------------------------------------ *)

let schema =
  Relalg.Schema.make
    [
      { Relalg.Schema.name = "kcal"; ty = V.TFloat };
      { Relalg.Schema.name = "saturated_fat"; ty = V.TFloat };
      { Relalg.Schema.name = "gluten"; ty = V.TStr };
      { Relalg.Schema.name = "servings"; ty = V.TInt };
    ]

let analyze_ok s =
  match Paql.Analyze.check schema (parse s) with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "expected ok, got: %s" (String.concat "; " errs)

let analyze_err substring s =
  match Paql.Analyze.check schema (parse s) with
  | Ok () -> Alcotest.failf "expected analysis error for %s" s
  | Error errs ->
    let combined = String.concat "; " errs in
    checkb
      (Printf.sprintf "error mentions %S (got %S)" substring combined)
      true
      (let n = String.length combined and m = String.length substring in
       let rec go i =
         i + m <= n && (String.sub combined i m = substring || go (i + 1))
       in
       go 0)

let test_analyze () =
  analyze_ok paper_query;
  analyze_ok
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT AVG(P.kcal) <= 2 \
     MINIMIZE SUM(P.servings)";
  analyze_err "unknown attribute"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.nope) <= 1";
  analyze_err "not numeric"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.gluten) <= 1";
  analyze_err "WHERE clause"
    "SELECT PACKAGE(R) AS P FROM Recipes R WHERE missing = 1";
  analyze_err "MIN/MAX"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT MIN(P.kcal) <= 1";
  analyze_err "product of two aggregates"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.kcal) * \
     COUNT(P.*) <= 1";
  analyze_err "division by an aggregate"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT 1 / SUM(P.kcal) <= 1";
  analyze_err "AVG"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT AVG(P.kcal) + \
     SUM(P.kcal) <= 1";
  analyze_err "AVG"
    "SELECT PACKAGE(R) AS P FROM Recipes R MINIMIZE AVG(P.kcal)";
  analyze_err "BETWEEN bounds"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.kcal) BETWEEN \
     COUNT(P.*) AND 5";
  analyze_err "subquery filter"
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT (SELECT COUNT(*) FROM \
     P WHERE bogus > 1) <= 1"

(* ------------------------------------------------------------------ *)
(* Linform normalization                                              *)
(* ------------------------------------------------------------------ *)

let gexpr_of s =
  (* parse a full query to extract its objective expression *)
  let q = parse ("SELECT PACKAGE(R) AS P FROM Rel R MAXIMIZE " ^ s) in
  match q.A.objective with Some (A.Maximize e) -> e | _ -> assert false

let test_linform_normalization () =
  let f =
    Result.get_ok (Paql.Linform.of_gexpr (gexpr_of "2 * SUM(P.a) - 3 + COUNT(P.*) / 2"))
  in
  checkf "const" (-3.) f.Paql.Linform.const;
  checki "terms" 2 (List.length f.Paql.Linform.terms);
  (match f.Paql.Linform.terms with
  | [ t1; t2 ] ->
    checkf "sum coeff" 2. t1.Paql.Linform.coeff;
    checkf "count coeff" 0.5 t2.Paql.Linform.coeff
  | _ -> Alcotest.fail "term shape");
  (* nested negation and parentheses *)
  let g = Result.get_ok (Paql.Linform.of_gexpr (gexpr_of "-(SUM(P.a) - 1)")) in
  checkf "negated const" 1. g.Paql.Linform.const;
  (match g.Paql.Linform.terms with
  | [ t ] -> checkf "negated coeff" (-1.) t.Paql.Linform.coeff
  | _ -> Alcotest.fail "negation shape")

let constraints_of s =
  let q = parse ("SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT " ^ s) in
  match q.A.such_that with
  | Some gp -> Result.get_ok (Paql.Linform.of_gpred gp)
  | None -> assert false

let test_linform_constraints () =
  (* move-everything-left normalization: [SUM(a) + 1 <= COUNT - 2]
     becomes [SUM(a) - COUNT <= -3] *)
  (match constraints_of "SUM(P.a) + 1 <= COUNT(P.*) - 2" with
  | [ c ] ->
    checkf "hi" (-3.) c.Paql.Linform.hi;
    checkb "lo" true (c.Paql.Linform.lo = neg_infinity)
  | _ -> Alcotest.fail "single constraint expected");
  (* equality *)
  (match constraints_of "COUNT(P.*) = 3" with
  | [ c ] ->
    checkf "lo=hi" 3. c.Paql.Linform.lo;
    checkf "hi" 3. c.Paql.Linform.hi
  | _ -> Alcotest.fail "equality shape");
  (* between *)
  (match constraints_of "SUM(P.a) + 1 BETWEEN 2 AND 5" with
  | [ c ] ->
    checkf "lo" 1. c.Paql.Linform.lo;
    checkf "hi" 4. c.Paql.Linform.hi
  | _ -> Alcotest.fail "between shape");
  (* strict comparisons treated as non-strict *)
  (match constraints_of "COUNT(P.*) < 4" with
  | [ c ] -> checkf "strict hi" 4. c.Paql.Linform.hi
  | _ -> Alcotest.fail "strict shape");
  (* conjunctions flatten in order *)
  checki "three conjuncts" 3
    (List.length (constraints_of "COUNT(P.*) = 1 AND SUM(P.a) <= 2 AND SUM(P.b) >= 3"))

let test_linform_avg_rewrite () =
  (* AVG(a) <= v rewrites to SUM(a) - v*COUNT <= 0 *)
  match constraints_of "AVG(P.a) <= 5" with
  | [ c ] ->
    checkf "hi is zero" 0. c.Paql.Linform.hi;
    (match c.Paql.Linform.cterms with
    | [ t1; t2 ] ->
      checkb "sum term" true (t1.Paql.Linform.kind = Paql.Linform.Sum "a");
      checkf "sum coeff" 1. t1.Paql.Linform.coeff;
      checkb "count term" true (t2.Paql.Linform.kind = Paql.Linform.Count_star);
      checkf "count coeff" (-5.) t2.Paql.Linform.coeff
    | _ -> Alcotest.fail "avg rewrite terms")
  | _ -> Alcotest.fail "avg rewrite shape"

let test_linform_avg_between () =
  (* BETWEEN with AVG desugars into two rewritten inequalities *)
  match constraints_of "AVG(P.a) BETWEEN 2 AND 4" with
  | [ c1; c2 ] ->
    checkb "first is >=" true (c1.Paql.Linform.hi = infinity);
    checkb "second is <=" true (c2.Paql.Linform.lo = neg_infinity);
    checkf "both homogeneous lo" 0. c1.Paql.Linform.lo;
    checkf "both homogeneous hi" 0. c2.Paql.Linform.hi
  | _ -> Alcotest.fail "avg between shape"

(* ------------------------------------------------------------------ *)
(* Translate: PaQL -> ILP                                             *)
(* ------------------------------------------------------------------ *)

let recipes =
  Relalg.Relation.of_rows schema
    [
      [| V.Float 0.5; V.Float 2.0; V.Str "free"; V.Int 1 |];
      [| V.Float 1.0; V.Float 4.0; V.Str "full"; V.Int 2 |];
      [| V.Float 0.8; V.Float 1.0; V.Str "free"; V.Int 3 |];
      [| V.Float 0.2; V.Float 0.5; V.Str "free"; V.Int 1 |];
    ]

let compile s = Paql.Translate.compile_exn schema (parse s)

let test_translate_base_predicate () =
  let spec = compile paper_query in
  (* rule 2: tuples failing the base predicate get no variable *)
  Alcotest.(check (array int)) "candidates" [| 0; 2; 3 |]
    (Paql.Translate.base_candidates spec recipes)

(* Row [i] of [p] as (column, coefficient) pairs in column order, read
   off the compressed columns. *)
let row_coeffs (p : Lp.Problem.t) i =
  List.concat
    (List.init (Lp.Problem.nvars p) (fun j ->
         List.filter_map
           (fun k ->
             if p.crow.(k) = i then Some (j, p.cval.(k)) else None)
           (List.init (p.cstart.(j + 1) - p.cstart.(j)) (fun d -> p.cstart.(j) + d))))

let test_translate_repetition () =
  let spec = compile "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2" in
  checkf "REPEAT 2 -> cap 3" 3. spec.Paql.Translate.max_count;
  let unlimited = compile "SELECT PACKAGE(R) AS P FROM Recipes R" in
  checkb "no repeat -> unbounded" true
    (unlimited.Paql.Translate.max_count = infinity);
  let p =
    Paql.Translate.to_problem spec recipes ~candidates:[| 0; 1 |]
  in
  checkb "vars integer with hi=3" true
    (Array.for_all Fun.id p.Lp.Problem.integer
    && Array.for_all (fun hi -> hi = 3.) p.Lp.Problem.hi)

let test_translate_rows () =
  let spec = compile paper_query in
  let candidates = Paql.Translate.base_candidates spec recipes in
  let p = Paql.Translate.to_problem spec recipes ~candidates in
  checki "vars" 3 (Lp.Problem.nvars p);
  checki "rows" 2 (Lp.Problem.nrows p);
  (* cardinality row: all-ones coefficients, [3,3] *)
  checkf "count lo" 3. p.Lp.Problem.rlo.(0);
  checkb "count coeffs" true
    (row_coeffs p 0 = [ (0, 1.); (1, 1.); (2, 1.) ]);
  (* sum row: kcal coefficients of the surviving candidates *)
  checkb "sum coeffs" true (row_coeffs p 1 = [ (0, 0.5); (1, 0.8); (2, 0.2) ]);
  checkf "sum lo" 2.0 p.Lp.Problem.rlo.(1);
  checkf "sum hi" 2.5 p.Lp.Problem.rhi.(1);
  (* minimize objective: saturated fat coefficients *)
  checkb "sense" true (p.Lp.Problem.sense = Lp.Problem.Minimize);
  checkf "obj coeff" 2.0 p.Lp.Problem.obj.(0)

let test_translate_conditional_count () =
  let spec =
    compile
      "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT (SELECT COUNT(*) FROM \
       P WHERE kcal > 0.6) >= (SELECT COUNT(*) FROM P WHERE kcal <= 0.6)"
  in
  let p =
    Paql.Translate.to_problem spec recipes ~candidates:[| 0; 1; 2; 3 |]
  in
  (* indicator difference: +1 for kcal > 0.6, -1 otherwise *)
  checkb "indicator coeffs" true
    (row_coeffs p 0 = [ (0, -1.); (1, 1.); (2, 1.); (3, -1.) ]);
  checkf "lo" 0. p.Lp.Problem.rlo.(0)

let test_translate_offsets_and_caps () =
  let spec = compile paper_query in
  let p =
    Paql.Translate.to_problem ~offsets:[| 1.; 0.7 |]
      ~var_hi:(fun k -> float_of_int (k + 1))
      spec recipes ~candidates:[| 0; 2 |]
  in
  (* offsets shift the refine-query bounds by the partial package *)
  checkf "count lo shifted" 2. p.Lp.Problem.rlo.(0);
  checkf "sum lo shifted" 1.3 p.Lp.Problem.rlo.(1);
  checkf "sum hi shifted" 1.8 p.Lp.Problem.rhi.(1);
  checkf "per-var cap" 2. p.Lp.Problem.hi.(1)

let test_translate_vacuous_objective () =
  let spec = compile "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(P.*) = 1" in
  checkb "no objective" true (spec.Paql.Translate.objective = None);
  checkb "defaults to minimize" true
    (Paql.Translate.objective_sense spec = Lp.Problem.Minimize);
  let p = Paql.Translate.to_problem spec recipes ~candidates:[| 0 |] in
  checkf "zero cost" 0. p.Lp.Problem.obj.(0)

let test_translate_objective_constant () =
  let spec =
    compile "SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE SUM(P.kcal) + 10"
  in
  match spec.Paql.Translate.objective with
  | Some (Lp.Problem.Maximize, _, const) -> checkf "constant" 10. const
  | _ -> Alcotest.fail "objective shape"

(* Lexer robustness: random printable inputs either tokenize or raise
   Lex_error — never crash or loop. *)
let lexer_total_prop =
  QCheck.Test.make ~count:500 ~name:"lexer total on printable input"
    QCheck.(string_gen_of_size (Gen.int_range 0 40) Gen.printable)
    (fun s ->
      match L.tokenize s with
      | toks -> Array.length toks >= 1
      | exception L.Lex_error _ -> true)

(* Parser robustness: random keyword soup either parses or reports an
   error — never crashes. *)
let parser_total_prop =
  let word =
    QCheck.Gen.oneofl
      [ "SELECT"; "PACKAGE"; "FROM"; "WHERE"; "SUCH"; "THAT"; "AND";
        "MINIMIZE"; "SUM"; "COUNT"; "("; ")"; "*"; "="; "1"; "R"; "P";
        "x"; "BETWEEN"; "REPEAT"; "." ]
  in
  QCheck.Test.make ~count:500 ~name:"parser total on keyword soup"
    (QCheck.make
       QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 25) word)))
    (fun s ->
      match Paql.Parser.parse s with Ok _ | Error _ -> true)

let test_parse_more_shapes () =
  (* deep parentheses in global expressions *)
  let q =
    parse
      "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT ((SUM(P.a))) + ((2)) <= \
       (((10)))"
  in
  (match q.A.such_that with
  | Some (A.Gcmp (A.Le, A.Add (A.Agg (A.Sum "a", None), A.Num 2.), A.Num 10.))
    -> ()
  | _ -> Alcotest.fail "paren flattening");
  (* BETWEEN inside a subquery filter *)
  let q =
    parse
      "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT (SELECT COUNT(*) FROM P \
       WHERE a BETWEEN 1 AND 2) >= 1"
  in
  (match q.A.such_that with
  | Some (A.Gcmp (A.Ge, A.Agg (A.Count_star, Some (E.Between _)), A.Num 1.))
    -> ()
  | _ -> Alcotest.fail "between in filter");
  (* COUNT(attr) form and unqualified attrs in aggregates *)
  let q =
    parse "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT COUNT(P.a) >= 1 AND \
           SUM(b) <= 2"
  in
  checki "two conjuncts" 2
    (List.length (A.conjuncts (Option.get q.A.such_that)));
  (* chained boolean precedence in WHERE: OR binds loosest *)
  let q = parse "SELECT PACKAGE(R) AS P FROM Rel R WHERE a = 1 AND b = 2 OR c = 3" in
  (match q.A.where with
  | Some (E.Or (E.And _, E.Cmp (E.Eq, E.Attr "c", _))) -> ()
  | _ -> Alcotest.fail "AND binds tighter than OR")

let test_repeat_variants () =
  checkb "repeat 5" true ((parse "SELECT PACKAGE(R) FROM Rel R REPEAT 5").A.repeat = Some 5);
  parse_err "SELECT PACKAGE(R) FROM Rel R REPEAT";
  parse_err "SELECT PACKAGE(R) FROM Rel R REPEAT x"

let test_analyze_count_on_string () =
  (* COUNT over a non-numeric attribute is legal SQL and legal PaQL *)
  analyze_ok
    "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(P.gluten) >= 1"

let test_count_attr_null_coefficient () =
  (* COUNT(attr) contributes 0 for NULL attributes, 1 otherwise *)
  let schema2 =
    Relalg.Schema.make
      [ { Relalg.Schema.name = "v"; ty = V.TFloat } ]
  in
  let rel =
    Relalg.Relation.of_rows schema2 [ [| V.Float 1. |]; [| V.Null |] ]
  in
  let spec =
    Paql.Translate.compile_exn schema2
      (parse "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT COUNT(P.v) >= 1")
  in
  let c = List.hd spec.Paql.Translate.constraints in
  checkf "non-null coeff" 1.
    (c.Paql.Translate.coeff (Relalg.Relation.row rel 0));
  checkf "null coeff" 0.
    (c.Paql.Translate.coeff (Relalg.Relation.row rel 1))

let test_package_qualified_filter () =
  (* P.attr qualifiers are accepted inside subquery filters *)
  let q =
    parse
      "SELECT PACKAGE(R) AS P FROM Rel R SUCH THAT (SELECT COUNT(*) FROM P \
       WHERE P.carbs > 0) >= 1"
  in
  match q.A.such_that with
  | Some (A.Gcmp (_, A.Agg (_, Some (E.Cmp (_, E.Attr "carbs", _))), _)) -> ()
  | _ -> Alcotest.fail "qualified filter attr"

(* Random ASTs: pretty-printing then re-parsing is the identity.
   Numeric literals are small non-negative integers (as floats) so the
   comparison is exact and "-3" vs Negate(3) ambiguity never arises. *)
let pretty_parse_roundtrip_prop =
  let open QCheck.Gen in
  let attr = oneofl [ "a"; "b"; "c" ] in
  let lit = map float_of_int (int_range 0 50) in
  let agg_kind =
    oneof
      [
        return A.Count_star;
        map (fun a -> A.Count a) attr;
        map (fun a -> A.Sum a) attr;
        map (fun a -> A.Avg a) attr;
      ]
  in
  let filter =
    oneof
      [
        return None;
        map2
          (fun a k -> Some (E.Cmp (E.Le, E.Attr a, E.Const (V.Float k))))
          attr lit;
        map2
          (fun a (k1, k2) ->
            Some
              (E.And
                 ( E.Cmp (E.Gt, E.Attr a, E.Const (V.Float k1)),
                   E.Cmp (E.Lt, E.Attr a, E.Const (V.Float (k1 +. k2))) )))
          attr (pair lit lit);
      ]
  in
  let rec gexpr depth =
    if depth = 0 then
      oneof [ map (fun f -> A.Num f) lit;
              map2 (fun k f -> A.Agg (k, f)) agg_kind filter ]
    else
      frequency
        [
          (2, map (fun f -> A.Num f) lit);
          (3, map2 (fun k f -> A.Agg (k, f)) agg_kind filter);
          ( 2,
            map2 (fun a b -> A.Add (a, b))
              (gexpr (depth - 1)) (gexpr (depth - 1)) );
          ( 2,
            map2 (fun a b -> A.Subtract (a, b))
              (gexpr (depth - 1)) (gexpr (depth - 1)) );
          (1, map2 (fun k e -> A.Mult (A.Num k, e)) lit (gexpr (depth - 1)));
          ( 1,
            map2 (fun e k -> A.Divide (e, A.Num (k +. 1.)))
              (gexpr (depth - 1)) lit );
        ]
  in
  let gcmp = oneofl [ A.Le; A.Ge; A.Eq; A.Lt; A.Gt ] in
  let conjunct =
    oneof
      [
        map3 (fun c a b -> A.Gcmp (c, a, b)) gcmp (gexpr 2) (gexpr 2);
        map3
          (fun e lo hi -> A.Gbetween (e, A.Num lo, A.Num (lo +. hi)))
          (gexpr 2) lit lit;
      ]
  in
  let gpred =
    (* the parser right-nests AND chains; mirror that *)
    list_size (int_range 1 3) conjunct >>= fun cs ->
    let rec nest = function
      | [ c ] -> c
      | c :: rest -> A.Gand (c, nest rest)
      | [] -> assert false
    in
    return (nest cs)
  in
  let where =
    oneof
      [
        return None;
        map2
          (fun a k -> Some (E.Cmp (E.Ge, E.Attr a, E.Const (V.Float k))))
          attr lit;
        map
          (fun a -> Some (E.IsNotNull (E.Attr a)))
          attr;
      ]
  in
  let query =
    where >>= fun where ->
    opt gpred >>= fun such_that ->
    oneof
      [ return None;
        map (fun e -> Some (A.Minimize e)) (gexpr 2);
        map (fun e -> Some (A.Maximize e)) (gexpr 2) ]
    >>= fun objective ->
    oneofl [ None; Some 0; Some 2 ] >>= fun repeat ->
    return
      {
        A.package_name = "P";
        rel_name = "Rel";
        rel_alias = "R";
        repeat;
        where;
        such_that;
        objective;
      }
  in
  QCheck.Test.make ~count:500 ~name:"pretty . parse round-trip on random ASTs"
    (QCheck.make query)
    (fun q ->
      match Paql.Parser.parse (Paql.Pretty.to_string q) with
      | Ok q2 -> q = q2
      | Error _ -> false)

let test_describe () =
  let spec = compile paper_query in
  let text = Paql.Translate.describe spec recipes in
  let contains needle =
    let n = String.length text and m = String.length needle in
    let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions elimination" true (contains "1 variable(s) eliminated");
  checkb "mentions cardinality row" true (contains "3 <= sum <= 3");
  checkb "mentions objective" true (contains "minimize")

let () =
  Alcotest.run "paql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper query" `Quick test_parse_paper_query;
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "subqueries" `Quick test_parse_subquery;
          Alcotest.test_case "arithmetic precedence" `Quick
            test_parse_arith_and_precedence;
          Alcotest.test_case "where logic" `Quick test_parse_where_logic;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest lexer_total_prop;
          QCheck_alcotest.to_alcotest parser_total_prop;
          QCheck_alcotest.to_alcotest pretty_parse_roundtrip_prop;
          Alcotest.test_case "more shapes" `Quick test_parse_more_shapes;
          Alcotest.test_case "repeat variants" `Quick test_repeat_variants;
        ] );
      ( "pretty",
        [ Alcotest.test_case "round-trip" `Quick test_pretty_roundtrip ] );
      ("analyze", [ Alcotest.test_case "checks" `Quick test_analyze ]);
      ( "linform",
        [
          Alcotest.test_case "normalization" `Quick test_linform_normalization;
          Alcotest.test_case "constraints" `Quick test_linform_constraints;
          Alcotest.test_case "avg rewrite" `Quick test_linform_avg_rewrite;
          Alcotest.test_case "avg between" `Quick test_linform_avg_between;
        ] );
      ( "translate",
        [
          Alcotest.test_case "base predicate" `Quick
            test_translate_base_predicate;
          Alcotest.test_case "repetition" `Quick test_translate_repetition;
          Alcotest.test_case "rows and objective" `Quick test_translate_rows;
          Alcotest.test_case "conditional count" `Quick
            test_translate_conditional_count;
          Alcotest.test_case "offsets and caps" `Quick
            test_translate_offsets_and_caps;
          Alcotest.test_case "vacuous objective" `Quick
            test_translate_vacuous_objective;
          Alcotest.test_case "objective constant" `Quick
            test_translate_objective_constant;
          Alcotest.test_case "describe / explain" `Quick test_describe;
          Alcotest.test_case "count on string attr" `Quick
            test_analyze_count_on_string;
          Alcotest.test_case "count null coefficient" `Quick
            test_count_attr_null_coefficient;
          Alcotest.test_case "package-qualified filter" `Quick
            test_package_qualified_filter;
        ] );
    ]
