type t = {
  data : float array; (* nan at NULL cells *)
  nulls : Bytes.t; (* 1 = NULL *)
  n_nulls : int;
  mutable zeroed : float array option; (* data with NULLs as 0., lazy *)
}

let of_rows rows i =
  let n = Array.length rows in
  let data = Array.make n 0. in
  let nulls = Bytes.make n '\000' in
  let n_nulls = ref 0 in
  for row = 0 to n - 1 do
    match Array.unsafe_get (Array.unsafe_get rows row) i with
    | Value.Int x -> Array.unsafe_set data row (float_of_int x)
    | Value.Float f -> Array.unsafe_set data row f
    | Value.Null | Value.Str _ | Value.Bool _ ->
      Array.unsafe_set data row nan;
      Bytes.unsafe_set nulls row '\001';
      incr n_nulls
  done;
  { data; nulls; n_nulls = !n_nulls; zeroed = None }

let of_raw ~data ~nulls =
  let n = Array.length data in
  if Bytes.length nulls <> n then
    invalid_arg "Column.of_raw: data and null map lengths differ";
  let n_nulls = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get nulls i = '\001' then begin
      Array.unsafe_set data i nan;
      incr n_nulls
    end
  done;
  { data; nulls; n_nulls = !n_nulls; zeroed = None }

let append a b =
  {
    data = Array.append a.data b.data;
    nulls = Bytes.cat a.nulls b.nulls;
    n_nulls = a.n_nulls + b.n_nulls;
    zeroed = None;
  }

let gather c ids =
  let k = Array.length ids in
  let data = Array.create_float k and nulls = Bytes.create k in
  let n_nulls = ref 0 in
  for j = 0 to k - 1 do
    let i = Array.unsafe_get ids j in
    let b = Bytes.get c.nulls i in
    Bytes.unsafe_set nulls j b;
    if b = '\001' then incr n_nulls;
    Array.unsafe_set data j (Array.unsafe_get c.data i)
  done;
  { data; nulls; n_nulls = !n_nulls; zeroed = None }

let length c = Array.length c.data
let data c = c.data

let zeroed c =
  match c.zeroed with
  | Some z -> z
  | None ->
    let z =
      if c.n_nulls = 0 then c.data
      else
        Array.map (fun v -> if Float.is_nan v then 0. else v) c.data
    in
    c.zeroed <- Some z;
    z

let is_null c i = Bytes.unsafe_get c.nulls i = '\001'
let n_nulls c = c.n_nulls
let has_nulls c = c.n_nulls > 0

type slot = Not_loaded | Numeric of t | Not_numeric

type cache = { mutable slots : slot array; lock : Mutex.t }

let cache_create arity = { slots = Array.make arity Not_loaded; lock = Mutex.create () }

let cache_seed cache i c =
  Mutex.lock cache.lock;
  let ok = cache.slots.(i) = Not_loaded in
  if ok then cache.slots.(i) <- Numeric c;
  Mutex.unlock cache.lock;
  if not ok then invalid_arg "Column.cache_seed: slot already materialized"

let cache_peek cache i =
  Mutex.protect cache.lock (fun () ->
      match cache.slots.(i) with
      | Numeric c -> Some c
      | Not_loaded | Not_numeric -> None)

let cached cache rows ~numeric i =
  Mutex.lock cache.lock;
  let r =
    match cache.slots.(i) with
    | Numeric c -> Some c
    | Not_numeric -> None
    | Not_loaded ->
      if not numeric then begin
        cache.slots.(i) <- Not_numeric;
        None
      end
      else begin
        let c = of_rows rows i in
        cache.slots.(i) <- Numeric c;
        Some c
      end
  in
  Mutex.unlock cache.lock;
  r
