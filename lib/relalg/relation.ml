type t = {
  schema : Schema.t;
  rows : Tuple.t array;
  cache : Column.cache; (* memoized numeric columns, one slot per attr *)
}

let make schema rows =
  { schema; rows; cache = Column.cache_create (Schema.arity schema) }

let check_arity schema tuple =
  if Tuple.arity tuple <> Schema.arity schema then
    invalid_arg "Relation: tuple arity does not match schema"

let of_array schema rows =
  Array.iter (check_arity schema) rows;
  make schema rows

let of_rows schema rows = of_array schema (Array.of_list rows)

let of_array_columns schema rows cols =
  let r = of_array schema rows in
  List.iter
    (fun (i, c) ->
      if i < 0 || i >= Schema.arity schema then
        invalid_arg "Relation.of_array_columns: attribute position out of range";
      (match (Schema.attr_at schema i).Schema.ty with
      | Value.TInt | Value.TFloat -> ()
      | Value.TStr | Value.TBool ->
        invalid_arg "Relation.of_array_columns: non-numeric attribute");
      if Column.length c <> Array.length rows then
        invalid_arg "Relation.of_array_columns: column length mismatch";
      Column.cache_seed r.cache i c)
    cols;
  r

type builder = { bschema : Schema.t; mutable acc : Tuple.t list; mutable n : int }

let builder bschema = { bschema; acc = []; n = 0 }

let add b tuple =
  check_arity b.bschema tuple;
  b.acc <- tuple :: b.acc;
  b.n <- b.n + 1

let seal b =
  let rows = Array.make b.n [||] in
  List.iteri (fun i t -> rows.(b.n - 1 - i) <- t) b.acc;
  make b.bschema rows

let schema r = r.schema
let cardinality r = Array.length r.rows

let row r i =
  if i < 0 || i >= Array.length r.rows then
    invalid_arg (Printf.sprintf "Relation.row: index %d out of range" i);
  r.rows.(i)

let iter f r = Array.iteri f r.rows

let fold f init r =
  let acc = ref init in
  Array.iteri (fun i t -> acc := f !acc i t) r.rows;
  !acc

let to_list r = Array.to_list r.rows

(* ------------------------------------------------------------------ *)
(* Columnar access                                                    *)
(* ------------------------------------------------------------------ *)

let column_at r i =
  let numeric =
    match (Schema.attr_at r.schema i).Schema.ty with
    | Value.TInt | Value.TFloat -> true
    | Value.TStr | Value.TBool -> false
  in
  Column.cached r.cache r.rows ~numeric i

let column r name =
  match Schema.index_of_opt r.schema name with
  | None -> None
  | Some i -> column_at r i

let column_exn r name =
  match column r name with
  | Some c -> c
  | None ->
    invalid_arg ("Relation.column_exn: no numeric column " ^ name)

let column_float r name =
  let i = Schema.index_of r.schema name in
  match column_at r i with
  | Some c -> Array.copy (Column.data c)
  | None ->
    (* non-numeric per schema: preserve the historical behaviour of
       mapping every cell through to_float_opt *)
    Array.map
      (fun t ->
        match Value.to_float_opt (Tuple.get t i) with
        | Some f -> f
        | None -> nan)
      r.rows

let compile_pred r pred = Expr.compile r.schema ~columns:(column_at r) pred

let compile_num r e = Expr.compile_num r.schema ~columns:(column_at r) e

(* ------------------------------------------------------------------ *)
(* Operators                                                          *)
(* ------------------------------------------------------------------ *)

(* Selection runs the vectorized path when the predicate lowers onto
   cached columns, and a single-pass mask + count-then-fill row path
   otherwise. Both avoid per-row Seq/list churn. *)
let select_mask r pred =
  let n = Array.length r.rows in
  let mask = Bytes.make n '\000' in
  let kept = ref 0 in
  (match compile_pred r pred with
  | Some f ->
    for i = 0 to n - 1 do
      if f i = 1 then begin
        Bytes.unsafe_set mask i '\001';
        incr kept
      end
    done
  | None ->
    for i = 0 to n - 1 do
      if Expr.eval_bool r.schema (Array.unsafe_get r.rows i) pred then begin
        Bytes.unsafe_set mask i '\001';
        incr kept
      end
    done);
  mask, !kept

let select r pred =
  let mask, kept = select_mask r pred in
  let rows = Array.make kept [||] in
  let k = ref 0 in
  for i = 0 to Array.length r.rows - 1 do
    if Bytes.unsafe_get mask i = '\001' then begin
      Array.unsafe_set rows !k (Array.unsafe_get r.rows i);
      incr k
    end
  done;
  make r.schema rows

let select_indices r pred =
  let mask, kept = select_mask r pred in
  let out = Array.make kept 0 in
  let k = ref 0 in
  for i = 0 to Bytes.length mask - 1 do
    if Bytes.unsafe_get mask i = '\001' then begin
      Array.unsafe_set out !k i;
      incr k
    end
  done;
  out

let project r names =
  let idxs = Array.of_list (List.map (Schema.index_of r.schema) names) in
  let schema = Schema.project r.schema names in
  let w = Array.length idxs in
  let rows =
    Array.map
      (fun t -> Array.init w (fun k -> Tuple.get t idxs.(k)))
      r.rows
  in
  make schema rows

let take r ids = make r.schema (Array.map (fun i -> row r i) ids)

(* A relation over [rows] whose cache holds [carry i c] for every
   column [r] has already materialized, so the new relation never
   re-reads boxed rows for those. *)
let derive r rows carry =
  let r' = make r.schema rows in
  for i = 0 to Schema.arity r.schema - 1 do
    Option.iter
      (fun c -> Column.cache_seed r'.cache i (carry i c))
      (Column.cache_peek r.cache i)
  done;
  r'

let append a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.append: schemas differ";
  if Array.length b.rows = 0 then a
  else
    derive a (Array.append a.rows b.rows) (fun i c ->
        Column.append c (Option.get (column_at b i)))

let compact r ~dead =
  let n = Array.length r.rows in
  if Array.length dead <> n then
    invalid_arg "Relation.compact: one dead flag per row expected";
  let kept = Array.fold_left (fun k d -> if d then k else k + 1) 0 dead in
  if kept = n then r
  else begin
    let keep = Array.make kept 0 and k = ref 0 in
    Array.iteri
      (fun i d ->
        if not d then begin
          keep.(!k) <- i;
          incr k
        end)
      dead;
    derive r (Array.map (Array.get r.rows) keep) (fun _ c ->
        Column.gather c keep)
  end

let prefix r n =
  let n = min n (Array.length r.rows) in
  make r.schema (Array.sub r.rows 0 n)

let append_column r attr values =
  if Array.length values <> Array.length r.rows then
    invalid_arg "Relation.append_column: wrong number of values";
  let schema = Schema.extend r.schema attr in
  let rows =
    Array.mapi
      (fun i t ->
        let w = Array.length t in
        let nt = Array.make (w + 1) values.(i) in
        Array.blit t 0 nt 0 w;
        nt)
      r.rows
  in
  make schema rows

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    (Format.pp_print_list Tuple.pp)
    (to_list r)
