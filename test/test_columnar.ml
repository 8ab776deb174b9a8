(* Equivalence tests for the columnar scan layer.

   The vectorized path (Expr.compile / Relation.select / Aggregate.over)
   must agree with the interpreted reference (Expr.eval /
   Aggregate.over_rows) on every input, including NULLs under SQL
   three-valued logic. Generators keep numeric magnitudes small and division
   denominators at nonzero constants so int and float arithmetic stay
   exact and no NaN arises from the arithmetic itself (NaN-as-NULL is
   the columnar encoding, not a value the interpreted path produces). *)

module V = Relalg.Value
module S = Relalg.Schema
module T = Relalg.Tuple
module E = Relalg.Expr
module R = Relalg.Relation
module A = Relalg.Aggregate
module C = Relalg.Column

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let schema =
  S.make
    [
      { S.name = "a"; ty = V.TInt };
      { S.name = "b"; ty = V.TFloat };
      { S.name = "c"; ty = V.TFloat };
      { S.name = "s"; ty = V.TStr };
    ]

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

let gen_cell_int =
  QCheck.Gen.(
    frequency
      [ (1, return V.Null); (6, map (fun k -> V.Int k) (int_range (-20) 20)) ])

(* floats on a quarter grid: exact in double precision through the
   bounded products the expression generator can build *)
let gen_cell_float =
  QCheck.Gen.(
    frequency
      [
        (1, return V.Null);
        (6, map (fun k -> V.Float (0.25 *. float_of_int k)) (int_range (-80) 80));
      ])

let gen_cell_str =
  QCheck.Gen.(
    frequency
      [ (1, return V.Null); (3, map (fun s -> V.Str s) (oneofl [ "x"; "y"; "z" ])) ])

let gen_row =
  QCheck.Gen.(
    gen_cell_int >>= fun a ->
    gen_cell_float >>= fun b ->
    gen_cell_float >>= fun c ->
    gen_cell_str >>= fun s -> return (T.make [ a; b; c; s ]))

let gen_rows = QCheck.Gen.(list_size (int_range 0 120) gen_row)

(* Nonzero constant denominators: the vectorized path reads 0/0 = nan
   as NULL while the interpreted path treats it as an ordinary float,
   so division by a value that could be zero is out of scope (see
   DESIGN.md). *)
let gen_denom =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> E.Const (V.Int k)) (oneofl [ 1; 2; 3; -2 ]);
        map (fun f -> E.Const (V.Float f)) (oneofl [ 0.5; 1.25; 2.; 4.; -3. ]);
      ])

let rec gen_num depth =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          (3, map (fun n -> E.Attr n) (oneofl [ "a"; "b"; "c" ]));
          (2, map (fun k -> E.Const (V.Int k)) (int_range (-20) 20));
          ( 2,
            map
              (fun k -> E.Const (V.Float (0.25 *. float_of_int k)))
              (int_range (-80) 80) );
          (1, return (E.Const V.Null));
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            oneofl [ E.Add; E.Sub; E.Mul ] >>= fun op ->
            gen_num (depth - 1) >>= fun x ->
            gen_num (depth - 1) >>= fun y -> return (E.Binop (op, x, y)) );
          ( 1,
            gen_num (depth - 1) >>= fun x ->
            gen_denom >>= fun d -> return (E.Binop (E.Div, x, d)) );
          (1, map (fun x -> E.Neg x) (gen_num (depth - 1)));
        ])

let gen_cmp = QCheck.Gen.oneofl [ E.Eq; E.Neq; E.Lt; E.Le; E.Gt; E.Ge ]

let rec gen_bool depth =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          ( 5,
            gen_cmp >>= fun c ->
            gen_num 2 >>= fun x ->
            gen_num 2 >>= fun y -> return (E.Cmp (c, x, y)) );
          ( 1,
            gen_num 2 >>= fun x ->
            gen_num 1 >>= fun lo ->
            gen_num 1 >>= fun hi -> return (E.Between (x, lo, hi)) );
          (1, map (fun x -> E.IsNull x) (gen_num 2));
          (1, map (fun x -> E.IsNotNull x) (gen_num 2));
          (1, map (fun b -> E.Const (V.Bool b)) bool);
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 2,
            gen_bool (depth - 1) >>= fun x ->
            gen_bool (depth - 1) >>= fun y -> return (E.And (x, y)) );
          ( 2,
            gen_bool (depth - 1) >>= fun x ->
            gen_bool (depth - 1) >>= fun y -> return (E.Or (x, y)) );
          (1, map (fun x -> E.Not x) (gen_bool (depth - 1)));
        ])

let gen_case =
  QCheck.Gen.(
    gen_rows >>= fun rows ->
    gen_bool 3 >>= fun pred -> return (rows, pred))

let print_case (rows, pred) =
  Format.asprintf "%d rows, pred = %a" (List.length rows) E.pp pred

let relation rows = R.of_rows schema rows

let tri_of_value = function
  | V.Bool true -> E.tri_true
  | V.Bool false -> E.tri_false
  | V.Null -> E.tri_null
  | v -> Alcotest.failf "predicate evaluated to %s" (V.to_string v)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

(* Expr.compile agrees with Expr.eval row by row, including the NULL
   tri-state — not just the WHERE-clause collapse of NULL to false. *)
let compile_matches_eval_prop =
  QCheck.Test.make ~count:500 ~name:"Expr.compile matches Expr.eval"
    (QCheck.make ~print:print_case gen_case)
    (fun (rows, pred) ->
      let r = relation rows in
      match R.compile_pred r pred with
      | None -> QCheck.Test.fail_report "numeric predicate did not compile"
      | Some f ->
        List.iteri
          (fun i t ->
            let expected = tri_of_value (E.eval schema t pred) in
            if f i <> expected then
              QCheck.Test.fail_reportf "row %d: compiled %d, eval %d" i (f i)
                expected)
          rows;
        true)

(* Vectorized selection (Relation.select / select_indices /
   select_mask) returns exactly the rows the interpreted predicate
   accepts, in order. *)
let select_matches_eval_prop =
  QCheck.Test.make ~count:300 ~name:"vectorized select matches eval filter"
    (QCheck.make ~print:print_case gen_case)
    (fun (rows, pred) ->
      let r = relation rows in
      let expected =
        List.filteri (fun _ t -> E.eval_bool schema t pred) rows
      in
      let expected_idx =
        List.concat
          (List.mapi (fun i t -> if E.eval_bool schema t pred then [ i ] else []) rows)
      in
      let via_select = R.to_list (R.select r pred) in
      let idx = R.select_indices r pred in
      let mask, kept = R.select_mask r pred in
      via_select = expected
      && Array.to_list idx = expected_idx
      && kept = List.length expected
      && List.for_all (fun i -> Bytes.get mask i = '\001') expected_idx)

(* Aggregate.over (the column-statistics pass) agrees with the interpreted
   Aggregate.over_rows reference, with and without a WHERE filter. *)
let aggregate_matches_interp_prop =
  QCheck.Test.make ~count:300 ~name:"vectorized aggregates match over_rows"
    (QCheck.make ~print:print_case gen_case)
    (fun (rows, pred) ->
      let r = relation rows in
      let filtered =
        List.to_seq (List.filter (fun t -> E.eval_bool schema t pred) rows)
      in
      let agree f =
        let reference = A.over_rows schema filtered f in
        let fast = A.over ~where:pred r f in
        match (reference, fast) with
        | V.Float x, V.Float y ->
          Float.abs (x -. y) <= 1e-9 *. (1. +. Float.abs x)
        | a, b -> a = b
      in
      List.for_all agree
        [
          A.Count_star;
          A.Count "a";
          A.Count "s";
          A.Sum "a";
          A.Sum "b";
          A.Avg "b";
          A.Min "c";
          A.Max "c";
        ])

(* ------------------------------------------------------------------ *)
(* Unit tests: 3VL corners, fallback paths, Column internals          *)
(* ------------------------------------------------------------------ *)

let null_rel () =
  relation
    [
      T.make [ V.Int 1; V.Float 2.; V.Null; V.Str "x" ];
      T.make [ V.Null; V.Float 0.5; V.Float 3.; V.Null ];
      T.make [ V.Int (-2); V.Null; V.Float 1.; V.Str "y" ];
    ]

let compiled r pred =
  match R.compile_pred r pred with
  | Some f -> f
  | None -> Alcotest.fail "expected predicate to compile"

let test_three_valued_corners () =
  let r = null_rel () in
  let tri pred row = compiled r pred row in
  (* NULL = NULL is NULL, not true *)
  checki "null = null" E.tri_null
    (tri (E.Cmp (E.Eq, E.Const V.Null, E.Const V.Null)) 0);
  (* a is NULL on row 1 *)
  checki "null attr cmp" E.tri_null
    (tri (E.Cmp (E.Gt, E.Attr "a", E.Const (V.Int 0))) 1);
  (* NULL AND false = false; NULL OR true = true; NOT NULL = NULL *)
  let null_cmp = E.Cmp (E.Eq, E.Attr "a", E.Const (V.Int 1)) in
  checki "null and false" E.tri_false
    (tri (E.And (null_cmp, E.Const (V.Bool false))) 1);
  checki "null or true" E.tri_true
    (tri (E.Or (null_cmp, E.Const (V.Bool true))) 1);
  checki "not null" E.tri_null (tri (E.Not null_cmp) 1);
  (* arithmetic with NULL is NULL; IS NULL sees through it *)
  checki "null arith" E.tri_true
    (tri (E.IsNull (E.Binop (E.Add, E.Attr "a", E.Attr "c"))) 0);
  checki "is not null" E.tri_false
    (tri (E.IsNotNull (E.Binop (E.Mul, E.Attr "b", E.Const (V.Int 2)))) 2);
  (* BETWEEN with a definite miss short-circuits NULL bounds to false *)
  checki "between false beats null" E.tri_false
    (tri (E.Between (E.Const (V.Int 5), E.Const (V.Int 7), E.Attr "c")) 0);
  checki "between null bound" E.tri_null
    (tri (E.Between (E.Const (V.Int 8), E.Const (V.Int 7), E.Attr "c")) 0)

let test_string_predicate_falls_back () =
  let r = null_rel () in
  let pred = E.Cmp (E.Eq, E.Attr "s", E.Const (V.Str "x")) in
  checkb "string pred does not compile" true (R.compile_pred r pred = None);
  (* interpreted fallback still drives select and the aggregates *)
  checki "select falls back" 1 (R.cardinality (R.select r pred));
  checkb "count falls back" true (A.over ~where:pred r A.Count_star = V.Int 1);
  let mixed = E.And (pred, E.Cmp (E.Gt, E.Attr "b", E.Const (V.Float 1.))) in
  checki "mixed pred" 1 (snd (R.select_mask r mixed))

let test_column_internals () =
  let r = null_rel () in
  let col = R.column_exn r "a" in
  checki "length" 3 (C.length col);
  checki "n_nulls" 1 (C.n_nulls col);
  checkb "null bit" true (C.is_null col 1);
  checkb "nan encoding" true (Float.is_nan (C.data col).(1));
  checkb "zeroed" true ((C.zeroed col).(1) = 0.);
  checkb "zeroed keeps values" true ((C.zeroed col).(2) = -2.);
  (* memoized: same array on repeated access *)
  checkb "cache hit" true (C.data (R.column_exn r "a") == C.data col);
  checkb "non-numeric" true (R.column r "s" = None);
  checkb "unknown" true (R.column r "zzz" = None)

let test_scan_stats () =
  let r = null_rel () in
  let checkv label expected f =
    checkb label true (A.over r f = expected)
  in
  checkv "non-null count" (V.Int 2) (A.Count "b");
  checkv "rows scanned" (V.Int 3) A.Count_star;
  checkv "sum" (V.Float 2.5) (A.Sum "b");
  checkv "min" (V.Float 0.5) (A.Min "b");
  checkv "max" (V.Float 2.) (A.Max "b");
  let where = E.Cmp (E.Gt, E.Attr "b", E.Const (V.Float 1.)) in
  checkb "filtered sum" true (A.over ~where r (A.Sum "b") = V.Float 2.)

let () =
  Alcotest.run "columnar"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest compile_matches_eval_prop;
          QCheck_alcotest.to_alcotest select_matches_eval_prop;
          QCheck_alcotest.to_alcotest aggregate_matches_interp_prop;
        ] );
      ( "corners",
        [
          Alcotest.test_case "three-valued logic" `Quick
            test_three_valued_corners;
          Alcotest.test_case "string fallback" `Quick
            test_string_predicate_falls_back;
          Alcotest.test_case "column internals" `Quick test_column_internals;
          Alcotest.test_case "scan stats" `Quick test_scan_stats;
        ] );
    ]
