type func = Count_star | Count of string | Sum of string | Avg of string
          | Min of string | Max of string

let over_rows schema rows f =
  match f with
  | Count_star ->
    Value.Int (Seq.fold_left (fun n _ -> n + 1) 0 rows)
  | Count a ->
    let i = Schema.index_of schema a in
    Value.Int
      (Seq.fold_left
         (fun n t -> if Value.is_null (Tuple.get t i) then n else n + 1)
         0 rows)
  | Sum a | Avg a | Min a | Max a ->
    let i = Schema.index_of schema a in
    let sum = ref 0. and n = ref 0 in
    let mn = ref infinity and mx = ref neg_infinity in
    Seq.iter
      (fun t ->
        match Value.to_float_opt (Tuple.get t i) with
        | None -> ()
        | Some v ->
          sum := !sum +. v;
          incr n;
          if v < !mn then mn := v;
          if v > !mx then mx := v)
      rows;
    if !n = 0 then Value.Null
    else begin
      match f with
      | Sum _ -> Value.Float !sum
      | Avg _ -> Value.Float (!sum /. float_of_int !n)
      | Min _ -> Value.Float !mn
      | Max _ -> Value.Float !mx
      | Count_star | Count _ -> assert false
    end

(* Row-path fallback, kept as the semantic reference for attributes
   that have no cached column (strings/booleans). *)
let over_interp ?where r f =
  let rows = Array.to_seq (Array.init (Relation.cardinality r) (Relation.row r)) in
  let rows =
    match where with
    | None -> rows
    | Some pred ->
      Seq.filter (fun t -> Expr.eval_bool (Relation.schema r) t pred) rows
  in
  over_rows (Relation.schema r) rows f

(* Sum, count, min and max of a numeric column's non-NULL values over
   the rows [where] keeps, in one serial pass over the cached column;
   [None] when [name] is not a numeric attribute. *)
type stats = { sum : float; n : int; mn : float; mx : float }

let float_stats ?where r name =
  match Relation.column r name with
  | None -> None
  | Some col ->
    let data = Column.data col in
    let keep =
      match where with
      | None -> fun _ -> true
      | Some pred -> (
        match Relation.compile_pred r pred with
        | Some f -> fun i -> f i = 1
        | None ->
          let schema = Relation.schema r in
          fun i -> Expr.eval_bool schema (Relation.row r i) pred)
    in
    let sum = ref 0. and n = ref 0 in
    let mn = ref infinity and mx = ref neg_infinity in
    for i = 0 to Array.length data - 1 do
      if keep i then begin
        let v = Array.unsafe_get data i in
        if not (Float.is_nan v) then begin
          sum := !sum +. v;
          incr n;
          if v < !mn then mn := v;
          if v > !mx then mx := v
        end
      end
    done;
    Some { sum = !sum; n = !n; mn = !mn; mx = !mx }

let over ?where r f =
  let stats a = float_stats ?where r a in
  match f with
  | Count_star -> (
    match where with
    | None -> Value.Int (Relation.cardinality r)
    | Some pred -> Value.Int (snd (Relation.select_mask r pred)))
  | Count a -> (
    match stats a with
    | Some s -> Value.Int s.n
    | None -> over_interp ?where r f)
  | Sum a | Avg a | Min a | Max a -> (
    match stats a with
    | None -> over_interp ?where r f
    | Some s ->
      if s.n = 0 then Value.Null
      else
        Value.Float
          (match f with
          | Sum _ -> s.sum
          | Avg _ -> s.sum /. float_of_int s.n
          | Min _ -> s.mn
          | Max _ -> s.mx
          | Count_star | Count _ -> assert false))

let sum_or_zero = function
  | Value.Null -> 0.
  | v -> Value.to_float v

let attr_of = function
  | Count_star -> None
  | Count a | Sum a | Avg a | Min a | Max a -> Some a

let pp ppf = function
  | Count_star -> Format.pp_print_string ppf "COUNT(*)"
  | Count a -> Format.fprintf ppf "COUNT(%s)" a
  | Sum a -> Format.fprintf ppf "SUM(%s)" a
  | Avg a -> Format.fprintf ppf "AVG(%s)" a
  | Min a -> Format.fprintf ppf "MIN(%s)" a
  | Max a -> Format.fprintf ppf "MAX(%s)" a
