(* Unit and property tests for the relational engine substrate. *)

module V = Relalg.Value
module S = Relalg.Schema
module T = Relalg.Tuple
module E = Relalg.Expr
module R = Relalg.Relation
module A = Relalg.Aggregate

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_compare () =
  checkb "int eq" true (V.compare_sql (V.Int 3) (V.Int 3) = Some 0);
  checkb "int lt" true (V.compare_sql (V.Int 2) (V.Int 3) = Some (-1));
  checkb "mixed numeric" true (V.compare_sql (V.Int 3) (V.Float 3.0) = Some 0);
  checkb "float gt" true
    (match V.compare_sql (V.Float 3.5) (V.Int 3) with
    | Some c -> c > 0
    | None -> false);
  checkb "null left" true (V.compare_sql V.Null (V.Int 1) = None);
  checkb "null right" true (V.compare_sql (V.Str "a") V.Null = None);
  checkb "strings" true (V.compare_sql (V.Str "a") (V.Str "b") = Some (-1));
  checkb "bools" true (V.compare_sql (V.Bool false) (V.Bool true) = Some (-1));
  Alcotest.check_raises "str vs int" (Invalid_argument
    "Value.compare_sql: incompatible types") (fun () ->
      ignore (V.compare_sql (V.Str "a") (V.Int 1)))

let test_value_conversions () =
  checkf "int to float" 3. (V.to_float (V.Int 3));
  checkb "null to_float_opt" true (V.to_float_opt V.Null = None);
  checkb "of_string empty is null" true (V.of_string V.TFloat "" = V.Null);
  checkb "of_string int" true (V.of_string V.TInt "42" = V.Int 42);
  checkb "of_string float" true (V.of_string V.TFloat "1.5" = V.Float 1.5);
  checkb "of_string bool" true (V.of_string V.TBool "true" = V.Bool true);
  checks "to_string" "NULL" (V.to_string V.Null);
  checkb "type_of" true (V.type_of (V.Str "x") = Some V.TStr);
  checkb "type_of null" true (V.type_of V.Null = None)

(* ------------------------------------------------------------------ *)
(* Schema                                                             *)
(* ------------------------------------------------------------------ *)

let mk_schema () =
  S.make
    [
      { S.name = "a"; ty = V.TInt };
      { S.name = "b"; ty = V.TFloat };
      { S.name = "c"; ty = V.TStr };
    ]

let test_schema_basics () =
  let s = mk_schema () in
  checki "arity" 3 (S.arity s);
  checki "index_of b" 1 (S.index_of s "b");
  checkb "mem" true (S.mem s "c");
  checkb "not mem" false (S.mem s "z");
  checkb "ty_of" true (S.ty_of s "a" = V.TInt);
  checkb "index_of_opt none" true (S.index_of_opt s "z" = None);
  Alcotest.check_raises "duplicate" (Invalid_argument
    "Schema.make: duplicate attribute a") (fun () ->
      ignore (S.make [ { S.name = "a"; ty = V.TInt };
                       { S.name = "a"; ty = V.TStr } ]))

let test_schema_project_extend () =
  let s = mk_schema () in
  let p = S.project s [ "c"; "a" ] in
  checki "projected arity" 2 (S.arity p);
  checki "projected order" 0 (S.index_of p "c");
  let e = S.extend s { S.name = "gid"; ty = V.TInt } in
  checki "extended arity" 4 (S.arity e);
  checki "extended index" 3 (S.index_of e "gid");
  checkb "equal self" true (S.equal s (mk_schema ()));
  checkb "not equal" false (S.equal s p)

(* ------------------------------------------------------------------ *)
(* Expr                                                               *)
(* ------------------------------------------------------------------ *)

let expr_schema =
  S.make
    [
      { S.name = "x"; ty = V.TFloat };
      { S.name = "y"; ty = V.TFloat };
      { S.name = "s"; ty = V.TStr };
    ]

let tup x y s = [| V.Float x; V.Float y; V.Str s |]

let test_expr_arith () =
  let t = tup 3. 4. "hi" in
  let ev e = E.eval expr_schema t e in
  checkb "add" true (ev (E.Binop (E.Add, E.Attr "x", E.Attr "y")) = V.Float 7.);
  checkb "mul" true
    (ev (E.Binop (E.Mul, E.Attr "x", E.Const (V.Float 2.))) = V.Float 6.);
  checkb "div" true
    (ev (E.Binop (E.Div, E.Attr "y", E.Attr "x")) = V.Float (4. /. 3.));
  checkb "neg" true (ev (E.Neg (E.Attr "x")) = V.Float (-3.));
  checkb "null propagates" true
    (ev (E.Binop (E.Add, E.Attr "x", E.Const V.Null)) = V.Null);
  checkb "int division yields float" true
    (E.eval expr_schema [| V.Float 1.; V.Float 1.; V.Str "" |]
       (E.Binop (E.Div, E.Const (V.Int 1), E.Const (V.Int 2)))
    = V.Float 0.5)

let test_expr_three_valued_logic () =
  let t = tup 1. 2. "a" in
  let ev e = E.eval expr_schema t e in
  let null_cmp = E.Cmp (E.Eq, E.Attr "x", E.Const V.Null) in
  checkb "null cmp is null" true (ev null_cmp = V.Null);
  checkb "false AND null = false" true
    (ev (E.And (E.Cmp (E.Gt, E.Attr "x", E.Attr "y"), null_cmp)) = V.Bool false);
  checkb "true AND null = null" true
    (ev (E.And (E.Cmp (E.Lt, E.Attr "x", E.Attr "y"), null_cmp)) = V.Null);
  checkb "true OR null = true" true
    (ev (E.Or (E.Cmp (E.Lt, E.Attr "x", E.Attr "y"), null_cmp)) = V.Bool true);
  checkb "false OR null = null" true
    (ev (E.Or (E.Cmp (E.Gt, E.Attr "x", E.Attr "y"), null_cmp)) = V.Null);
  checkb "not null = null" true (ev (E.Not null_cmp) = V.Null);
  checkb "eval_bool treats null as false" false
    (E.eval_bool expr_schema t null_cmp);
  checkb "is null" true (ev (E.IsNull (E.Const V.Null)) = V.Bool true);
  checkb "is not null" true (ev (E.IsNotNull (E.Attr "x")) = V.Bool true)

let test_expr_between_and_strings () =
  let t = tup 5. 0. "free" in
  let ev e = E.eval expr_schema t e in
  checkb "between inside" true
    (ev (E.Between (E.Attr "x", E.Const (V.Float 1.), E.Const (V.Float 9.)))
    = V.Bool true);
  checkb "between boundary" true
    (ev (E.Between (E.Attr "x", E.Const (V.Float 5.), E.Const (V.Float 9.)))
    = V.Bool true);
  checkb "between outside" true
    (ev (E.Between (E.Attr "x", E.Const (V.Float 6.), E.Const (V.Float 9.)))
    = V.Bool false);
  checkb "string eq" true
    (ev (E.Cmp (E.Eq, E.Attr "s", E.Const (V.Str "free"))) = V.Bool true);
  checkb "string neq" true
    (ev (E.Cmp (E.Neq, E.Attr "s", E.Const (V.Str "full"))) = V.Bool true)

let test_expr_check () =
  let ok e = checkb "check ok" true (E.check expr_schema e = Ok ()) in
  ok (E.Cmp (E.Le, E.Attr "x", E.Const (V.Float 1.)));
  ok (E.And (E.Cmp (E.Eq, E.Attr "s", E.Const (V.Str "a")),
             E.Cmp (E.Gt, E.Attr "y", E.Attr "x")));
  let bad e = checkb "check err" true (Result.is_error (E.check expr_schema e)) in
  bad (E.Attr "nope");
  bad (E.Binop (E.Add, E.Attr "s", E.Attr "x"));
  bad (E.Cmp (E.Eq, E.Attr "s", E.Attr "x"));
  bad (E.And (E.Attr "x", E.Attr "y"));
  bad (E.Not (E.Attr "x"));
  bad (E.Between (E.Attr "s", E.Const (V.Float 0.), E.Const (V.Float 1.)))

let test_expr_attrs () =
  let e =
    E.And
      ( E.Cmp (E.Le, E.Attr "x", E.Attr "y"),
        E.Between (E.Attr "x", E.Const (V.Float 0.), E.Attr "y") )
  in
  Alcotest.(check (list string)) "attrs dedup ordered" [ "x"; "y" ] (E.attrs e)

(* ------------------------------------------------------------------ *)
(* Relation                                                           *)
(* ------------------------------------------------------------------ *)

let small_rel () =
  R.of_rows expr_schema
    [ tup 1. 10. "a"; tup 2. 20. "b"; tup 3. 30. "a"; tup 4. 40. "c" ]

let test_relation_basics () =
  let r = small_rel () in
  checki "cardinality" 4 (R.cardinality r);
  checkb "row access" true (T.equal (R.row r 2) (tup 3. 30. "a"));
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Relation.row: index 9 out of range") (fun () ->
      ignore (R.row r 9));
  let b = R.builder expr_schema in
  R.add b (tup 9. 9. "z");
  R.add b (tup 8. 8. "w");
  let r2 = R.seal b in
  checki "builder preserves order" 2 (R.cardinality r2);
  checkb "builder row 0" true (T.equal (R.row r2 0) (tup 9. 9. "z"))

let test_relation_select_project () =
  let r = small_rel () in
  let is_a = E.Cmp (E.Eq, E.Attr "s", E.Const (V.Str "a")) in
  checki "select" 2 (R.cardinality (R.select r is_a));
  Alcotest.(check (array int)) "select_indices" [| 0; 2 |]
    (R.select_indices r is_a);
  let p = R.project r [ "y" ] in
  checki "project arity" 1 (S.arity (R.schema p));
  checkf "project value" 30. (V.to_float (T.get (R.row p 2) 0));
  let t = R.take r [| 3; 1; 3 |] in
  checki "take multiplicity" 3 (R.cardinality t);
  checkb "take order" true (T.equal (R.row t 0) (tup 4. 40. "c"));
  checki "prefix" 2 (R.cardinality (R.prefix r 2));
  checki "prefix over" 4 (R.cardinality (R.prefix r 10))

let test_relation_columns () =
  let r = small_rel () in
  Alcotest.(check (array (float 1e-9))) "column_float" [| 10.; 20.; 30.; 40. |]
    (R.column_float r "y");
  let withnull =
    R.of_rows expr_schema [ tup 1. 1. "a"; [| V.Null; V.Float 2.; V.Str "b" |] ]
  in
  let col = R.column_float withnull "x" in
  checkb "null becomes nan" true (Float.is_nan col.(1));
  let extended =
    R.append_column r { S.name = "gid"; ty = V.TInt }
      [| V.Int 0; V.Int 0; V.Int 1; V.Int 1 |]
  in
  checki "appended arity" 4 (S.arity (R.schema extended));
  checkb "appended value" true (T.field (R.schema extended) (R.row extended 2) "gid" = V.Int 1);
  Alcotest.check_raises "append arity mismatch"
    (Invalid_argument "Relation.append_column: wrong number of values")
    (fun () ->
      ignore (R.append_column r { S.name = "g"; ty = V.TInt } [| V.Int 1 |]))

(* ------------------------------------------------------------------ *)
(* Aggregate                                                          *)
(* ------------------------------------------------------------------ *)

let test_aggregates () =
  let r = small_rel () in
  checkb "count star" true (A.over r A.Count_star = V.Int 4);
  checkf "sum" 100. (V.to_float (A.over r (A.Sum "y")));
  checkf "avg" 25. (V.to_float (A.over r (A.Avg "y")));
  checkf "min" 10. (V.to_float (A.over r (A.Min "y")));
  checkf "max" 40. (V.to_float (A.over r (A.Max "y")));
  let filt = E.Cmp (E.Eq, E.Attr "s", E.Const (V.Str "a")) in
  checkf "filtered sum" 40. (V.to_float (A.over ~where:filt r (A.Sum "y")));
  checkb "filtered count" true (A.over ~where:filt r A.Count_star = V.Int 2)

let test_aggregates_nulls () =
  let r =
    R.of_rows expr_schema
      [ tup 1. 1. "a"; [| V.Float 2.; V.Null; V.Str "b" |] ]
  in
  checkb "count attr skips null" true (A.over r (A.Count "y") = V.Int 1);
  checkf "sum skips null" 1. (V.to_float (A.over r (A.Sum "y")));
  checkf "avg skips null" 1. (V.to_float (A.over r (A.Avg "y")));
  let empty = R.of_rows expr_schema [] in
  checkb "sum of empty is null" true (A.over empty (A.Sum "y") = V.Null);
  checkb "count of empty" true (A.over empty A.Count_star = V.Int 0);
  checkf "sum_or_zero" 0. (A.sum_or_zero V.Null)

(* ------------------------------------------------------------------ *)
(* CSV                                                                *)
(* ------------------------------------------------------------------ *)

let test_csv_roundtrip () =
  let schema =
    S.make
      [
        { S.name = "i"; ty = V.TInt };
        { S.name = "f"; ty = V.TFloat };
        { S.name = "s"; ty = V.TStr };
        { S.name = "b"; ty = V.TBool };
      ]
  in
  let rows =
    [
      [| V.Int 1; V.Float 1.5; V.Str "plain"; V.Bool true |];
      [| V.Null; V.Null; V.Str "with,comma"; V.Bool false |];
      [| V.Int (-7); V.Float 0.25; V.Str "has \"quotes\""; V.Null |];
      [| V.Int 0; V.Float 1e10; V.Str "line\nbreak"; V.Bool true |];
    ]
  in
  let r = R.of_rows schema rows in
  let r2 = Relalg.Csv.of_string (Relalg.Csv.to_string r) in
  checkb "schema survives" true (S.equal (R.schema r) (R.schema r2));
  checki "rows survive" (R.cardinality r) (R.cardinality r2);
  List.iteri
    (fun i expected ->
      checkb (Printf.sprintf "row %d" i) true (T.equal expected (R.row r2 i)))
    rows

let test_csv_file_io () =
  let r = small_rel () in
  let path = Filename.temp_file "pkgq_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Relalg.Csv.write path r;
      let r2 = Relalg.Csv.read path in
      checki "rows" (R.cardinality r) (R.cardinality r2))

(* Property: random relations survive a CSV round-trip. *)
let csv_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      let int_value =
        oneof
          [ return V.Null; map (fun i -> V.Int i) (int_range (-1000) 1000) ]
      in
      let float_value =
        oneof
          [
            return V.Null;
            map (fun f -> V.Float f)
              (map (fun i -> float_of_int i /. 16.) (int_range (-10000) 10000));
          ]
      in
      let str_value =
        oneof
          [
            return V.Null;
            (* empty strings intentionally round-trip as NULL *)
            map (fun s -> V.Str s) (string_size ~gen:printable (int_range 1 12));
          ]
      in
      list_size (int_range 0 30)
        (map3 (fun a b c -> (a, b, c)) int_value float_value str_value))
  in
  QCheck.Test.make ~count:100 ~name:"csv round-trip (random relations)"
    (QCheck.make gen)
    (fun rows ->
      let schema =
        S.make
          [
            { S.name = "a"; ty = V.TInt };
            { S.name = "b"; ty = V.TFloat };
            { S.name = "c"; ty = V.TStr };
          ]
      in
      let r =
        R.of_rows schema (List.map (fun (a, b, c) -> [| a; b; c |]) rows)
      in
      let r2 = Relalg.Csv.of_string (Relalg.Csv.to_string r) in
      R.cardinality r = R.cardinality r2
      && List.for_all
           (fun i -> T.equal (R.row r i) (R.row r2 i))
           (List.init (R.cardinality r) Fun.id))

(* Property: select splits the relation (selected + complement = all). *)
let select_partition_prop =
  QCheck.Test.make ~count:100 ~name:"select + NOT select covers relation"
    QCheck.(make Gen.(list_size (int_range 0 50) (pair (float_bound_exclusive 100.) (float_bound_exclusive 100.))))
    (fun rows ->
      let schema =
        S.make [ { S.name = "x"; ty = V.TFloat }; { S.name = "y"; ty = V.TFloat } ]
      in
      let r =
        R.of_rows schema
          (List.map (fun (x, y) -> [| V.Float x; V.Float y |]) rows)
      in
      let pred = E.Cmp (E.Lt, E.Attr "x", E.Attr "y") in
      let a = R.cardinality (R.select r pred) in
      let b = R.cardinality (R.select r (E.Not pred)) in
      a + b = R.cardinality r)

let test_misc_errors () =
  let r = small_rel () in
  checkb "project unknown attr" true
    (try ignore (R.project r [ "zzz" ]); false with Not_found -> true);
  checkb "take out of range" true
    (try ignore (R.take r [| 99 |]); false with Invalid_argument _ -> true);
  checkb "float_field on string" true
    (try ignore (T.float_field expr_schema (R.row r 0) "s"); false
     with Invalid_argument _ -> true);
  (* float division by zero follows IEEE, not SQL NULL *)
  checkb "division by zero is inf" true
    (E.eval expr_schema (R.row r 0)
       (E.Binop (E.Div, E.Attr "x", E.Const (V.Float 0.)))
    = V.Float infinity);
  checkb "value of_string garbage" true
    (try ignore (V.of_string V.TInt "abc"); false with Failure _ -> true)

(* Random well-typed expressions: evaluation is total (no exceptions)
   and boolean-kinded nodes always produce Bool or Null. *)
let expr_total_prop =
  let open QCheck.Gen in
  let leaf_num =
    oneof
      [
        map (fun f -> E.Const (V.Float f)) (float_bound_exclusive 100.);
        return (E.Const V.Null);
        oneofl [ E.Attr "x"; E.Attr "y" ];
      ]
  in
  let rec num_expr depth =
    if depth = 0 then leaf_num
    else
      frequency
        [
          (2, leaf_num);
          ( 3,
            map2
              (fun op (a, b) -> E.Binop (op, a, b))
              (oneofl [ E.Add; E.Sub; E.Mul; E.Div ])
              (pair (num_expr (depth - 1)) (num_expr (depth - 1))) );
          (1, map (fun a -> E.Neg a) (num_expr (depth - 1)));
        ]
  in
  let rec bool_expr depth =
    if depth = 0 then
      map2
        (fun c (a, b) -> E.Cmp (c, a, b))
        (oneofl [ E.Eq; E.Neq; E.Lt; E.Le; E.Gt; E.Ge ])
        (pair leaf_num leaf_num)
    else
      frequency
        [
          ( 3,
            map2
              (fun c (a, b) -> E.Cmp (c, a, b))
              (oneofl [ E.Eq; E.Neq; E.Lt; E.Le; E.Gt; E.Ge ])
              (pair (num_expr (depth - 1)) (num_expr (depth - 1))) );
          ( 2,
            map2
              (fun c (a, b) -> c a b)
              (oneofl [ (fun a b -> E.And (a, b)); (fun a b -> E.Or (a, b)) ])
              (pair (bool_expr (depth - 1)) (bool_expr (depth - 1))) );
          (1, map (fun a -> E.Not a) (bool_expr (depth - 1)));
          ( 1,
            map3
              (fun e lo hi -> E.Between (e, lo, hi))
              (num_expr (depth - 1)) leaf_num leaf_num );
          (1, map (fun a -> E.IsNull a) (num_expr (depth - 1)));
        ]
  in
  QCheck.Test.make ~count:300 ~name:"well-typed expressions evaluate totally"
    (QCheck.make (pair (bool_expr 4) (pair (float_bound_exclusive 10.) (float_bound_exclusive 10.))))
    (fun (e, (x, y)) ->
      let t = [| V.Float x; V.Float y; V.Str "s" |] in
      match E.check expr_schema e with
      | Error _ -> false (* the generator only builds well-typed exprs *)
      | Ok () -> (
        match E.eval expr_schema t e with
        | V.Bool _ | V.Null -> true
        | V.Int _ | V.Float _ | V.Str _ -> false))

let () =
  Alcotest.run "relalg"
    [
      ( "value",
        [
          Alcotest.test_case "compare_sql" `Quick test_value_compare;
          Alcotest.test_case "conversions" `Quick test_value_conversions;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "project/extend" `Quick test_schema_project_extend;
        ] );
      ( "expr",
        [
          Alcotest.test_case "arithmetic" `Quick test_expr_arith;
          Alcotest.test_case "three-valued logic" `Quick
            test_expr_three_valued_logic;
          Alcotest.test_case "between and strings" `Quick
            test_expr_between_and_strings;
          Alcotest.test_case "type checking" `Quick test_expr_check;
          Alcotest.test_case "attrs" `Quick test_expr_attrs;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "select/project/take" `Quick
            test_relation_select_project;
          Alcotest.test_case "columns" `Quick test_relation_columns;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "plain and filtered" `Quick test_aggregates;
          Alcotest.test_case "null handling" `Quick test_aggregates_nulls;
        ] );
      ( "csv",
        [
          Alcotest.test_case "round-trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "file io" `Quick test_csv_file_io;
          QCheck_alcotest.to_alcotest csv_roundtrip_prop;
          QCheck_alcotest.to_alcotest select_partition_prop;
        ] );
      ( "misc",
        [ Alcotest.test_case "errors and edges" `Quick test_misc_errors ] );
      ( "expr-properties",
        [ QCheck_alcotest.to_alcotest expr_total_prop ] );
    ]
