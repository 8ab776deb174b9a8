module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation

exception Error = Wire.Error

let magic = "PKGQSEG1"
let version = 1

let ty_tag = function
  | V.TInt -> 0
  | V.TFloat -> 1
  | V.TStr -> 2
  | V.TBool -> 3

let tag_ty = function
  | 0 -> V.TInt
  | 1 -> V.TFloat
  | 2 -> V.TStr
  | 3 -> V.TBool
  | t -> Wire.error "unknown attribute type tag %d" t

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

(* Numeric columns carry a storage tag: 0 = i64 cells (every non-null
   cell is [Int]), 1 = f64 cells. Partition representatives store
   group means, so an int-typed attribute can legitimately hold floats;
   tag 1 preserves those exactly. A mixed Int/Float column is widened
   to floats (value-preserving; the Int constructor is not). *)
let encode_numeric b rel i n =
  let all_int = ref true in
  for row = 0 to n - 1 do
    match Relalg.Tuple.get (R.row rel row) i with
    | V.Int _ | V.Null -> ()
    | V.Float _ | V.Str _ | V.Bool _ -> all_int := false
  done;
  if !all_int then begin
    Wire.put_u8 b 0;
    for row = 0 to n - 1 do
      match Relalg.Tuple.get (R.row rel row) i with
      | V.Int x -> Wire.put_i64 b x
      | V.Null -> Wire.put_i64 b 0
      | _ -> assert false
    done
  end
  else begin
    Wire.put_u8 b 1;
    for row = 0 to n - 1 do
      match Relalg.Tuple.get (R.row rel row) i with
      | V.Int x -> Wire.put_f64 b (float_of_int x)
      | V.Float f -> Wire.put_f64 b f
      | V.Null -> Wire.put_f64 b 0.
      | V.Str _ | V.Bool _ ->
        invalid_arg "Segment: non-numeric cell in a numeric column"
    done
  end

let encode_strings b rel i n =
  let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let entries = ref [] in
  let count = ref 0 in
  let idx_of s =
    match Hashtbl.find_opt index s with
    | Some k -> k
    | None ->
      let k = !count in
      Hashtbl.add index s k;
      entries := s :: !entries;
      incr count;
      k
  in
  let cells =
    Array.init n (fun row ->
        match Relalg.Tuple.get (R.row rel row) i with
        | V.Str s -> idx_of s
        | V.Null -> -1
        | V.Int _ | V.Float _ | V.Bool _ ->
          invalid_arg "Segment: non-string cell in a string column")
  in
  Wire.put_i32 b !count;
  List.iter (Wire.put_str b) (List.rev !entries);
  Array.iter (Wire.put_i32 b) cells

let encode_column b rel i (a : S.attr) n =
  let nulls = Bytes.make n '\000' in
  let any_null = ref false in
  for row = 0 to n - 1 do
    if V.is_null (Relalg.Tuple.get (R.row rel row) i) then begin
      Bytes.set nulls row '\001';
      any_null := true
    end
  done;
  Wire.put_u8 b (if !any_null then 1 else 0);
  if !any_null then Buffer.add_bytes b nulls;
  match a.ty with
  | V.TInt | V.TFloat -> encode_numeric b rel i n
  | V.TStr -> encode_strings b rel i n
  | V.TBool ->
    for row = 0 to n - 1 do
      match Relalg.Tuple.get (R.row rel row) i with
      | V.Bool bo -> Wire.put_u8 b (if bo then 1 else 0)
      | V.Null -> Wire.put_u8 b 0
      | V.Int _ | V.Float _ | V.Str _ ->
        invalid_arg "Segment: non-bool cell in a bool column"
    done

let encode_body rel =
  let schema = R.schema rel in
  let attrs = S.attrs schema in
  let n = R.cardinality rel in
  let b = Buffer.create (1024 + (n * 8 * List.length attrs)) in
  Wire.put_i32 b (List.length attrs);
  Wire.put_i32 b n;
  List.iter
    (fun (a : S.attr) ->
      Wire.put_str b a.name;
      Wire.put_u8 b (ty_tag a.ty))
    attrs;
  List.iteri (fun i a -> encode_column b rel i a n) attrs;
  b

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

(* Counts come from the file, so each is checked against the bytes
   left before anything is allocated for it: an attribute takes at
   least 5 header bytes (name length and type tag), a row at least one
   byte in every column (a bool), and a dictionary entry at least its
   4-byte length. A body with no columns holds no rows. *)
let decode_body r =
  let n_attrs = Wire.get_i32 r in
  if n_attrs < 0 then Wire.error "negative attribute count %d" n_attrs;
  let n = Wire.get_i32 r in
  if n < 0 then Wire.error "negative row count %d" n;
  let left = Wire.remaining r in
  if n_attrs > left / 5 then
    Wire.error "attribute count %d exceeds the %d body bytes left" n_attrs left;
  if n > 0 && (n_attrs = 0 || n > left / n_attrs) then
    Wire.error "row count %d exceeds the %d body bytes left" n left;
  let attrs =
    List.init n_attrs (fun _ ->
        let name = Wire.get_str r in
        { S.name; ty = tag_ty (Wire.get_u8 r) })
  in
  let schema =
    try S.make attrs
    with Invalid_argument msg -> Wire.error "invalid schema: %s" msg
  in
  let rows = Array.init n (fun _ -> Array.make n_attrs V.Null) in
  let seeded = ref [] in
  List.iteri
    (fun i (a : S.attr) ->
      let nulls =
        match Wire.get_u8 r with
        | 0 -> Bytes.make n '\000'
        | 1 -> Bytes.of_string (Wire.get_raw r n)
        | f -> Wire.error "bad null-map flag %d" f
      in
      let is_null row = Bytes.get nulls row = '\001' in
      match a.ty with
      | V.TInt | V.TFloat -> (
        let data = Array.make n nan in
        (match Wire.get_u8 r with
        | 0 ->
          let xs = Wire.get_i64_array r n in
          for row = 0 to n - 1 do
            if not (is_null row) then begin
              let x = Array.unsafe_get xs row in
              rows.(row).(i) <- V.Int x;
              data.(row) <- float_of_int x
            end
          done
        | 1 ->
          Wire.get_f64_into r data;
          for row = 0 to n - 1 do
            if is_null row then data.(row) <- nan
            else rows.(row).(i) <- V.Float data.(row)
          done
        | t -> Wire.error "bad numeric storage tag %d" t);
        seeded := (i, Relalg.Column.of_raw ~data ~nulls) :: !seeded)
      | V.TBool ->
        let raw = Wire.get_raw r n in
        for row = 0 to n - 1 do
          if not (is_null row) then
            rows.(row).(i) <- V.Bool (String.unsafe_get raw row <> '\000')
        done
      | V.TStr ->
        let cnt = Wire.get_i32 r in
        if cnt < 0 then Wire.error "negative dictionary size %d" cnt;
        if cnt > Wire.remaining r / 4 then
          Wire.error "dictionary size %d exceeds the %d body bytes left" cnt
            (Wire.remaining r);
        let dict = Array.init cnt (fun _ -> Wire.get_str r) in
        let idxs = Wire.get_i32_array r n in
        for row = 0 to n - 1 do
          let idx = Array.unsafe_get idxs row in
          if not (is_null row) then
            if idx < 0 || idx >= cnt then
              Wire.error "dictionary index %d out of range (size %d)" idx cnt
            else rows.(row).(i) <- V.Str dict.(idx)
        done)
    attrs;
  R.of_array_columns schema rows !seeded

(* ------------------------------------------------------------------ *)
(* Public API                                                         *)
(* ------------------------------------------------------------------ *)

let to_string rel = Wire.seal ~magic ~version (encode_body rel)

let of_string s = decode_body (Wire.verify ~magic ~version s)

let write path rel = Wire.write_file path ~magic ~version (encode_body rel)

let read path = of_string (Wire.read_file path)

let fingerprint rel =
  Wire.hex64 (Wire.hash64 (Buffer.contents (encode_body rel)))

let fingerprint_file path = Wire.hex64 (Wire.hash64 (Wire.read_file path))
