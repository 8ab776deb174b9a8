let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)

let default_workers () =
  env_int "PKGQ_SCAN_WORKERS" (Domain.recommended_domain_count ())

let chunk_size () = env_int "PKGQ_SCAN_CHUNK" 16384

let stripe ~workers n f =
  let w = max 1 (min workers n) in
  if w = 1 then Array.init n (f 0)
  else begin
    let results = Array.make n None in
    let body k () =
      let i = ref k in
      while !i < n do
        results.(!i) <- Some (f k !i);
        i := !i + w
      done
    in
    let handles = List.init w (fun k -> Domain.spawn (body k)) in
    (* join every domain before re-raising, so none outlives the call
       still writing [results] *)
    let error = ref None in
    List.iter
      (fun h -> try Domain.join h with e -> if !error = None then error := Some e)
      handles;
    Option.iter raise !error;
    Array.map (function Some r -> r | None -> assert false) results
  end

let run_chunks ~workers n f =
  let csize = chunk_size () in
  let nchunks = (n + csize - 1) / csize in
  stripe ~workers nchunks (fun _ ci ->
      f ci (ci * csize) (min n ((ci + 1) * csize)))

(* Per-row predicate evaluator: vectorized when possible, interpreted
   otherwise. Forces column materialization on the calling domain. *)
let pred_fn r pred =
  match Relation.compile_pred r pred with
  | Some f -> fun i -> f i = 1
  | None ->
    let schema = Relation.schema r in
    fun i -> Expr.eval_bool schema (Relation.row r i) pred

let mask ?(workers = -1) r pred =
  let workers = if workers < 0 then default_workers () else workers in
  let n = Relation.cardinality r in
  let m = Bytes.make n '\000' in
  let f = pred_fn r pred in
  let counts =
    run_chunks ~workers n (fun _ lo hi ->
        let c = ref 0 in
        for i = lo to hi - 1 do
          if f i then begin
            Bytes.unsafe_set m i '\001';
            incr c
          end
        done;
        !c)
  in
  (m, Array.fold_left ( + ) 0 counts)

let select_indices ?workers r pred =
  let m, kept = mask ?workers r pred in
  let out = Array.make kept 0 in
  let k = ref 0 in
  for i = 0 to Bytes.length m - 1 do
    if Bytes.unsafe_get m i = '\001' then begin
      Array.unsafe_set out !k i;
      incr k
    end
  done;
  out

let select ?workers r pred = Relation.take r (select_indices ?workers r pred)

let count ?workers r pred = snd (mask ?workers r pred)

type stats = { sum : float; n : int; rows : int; mn : float; mx : float }

let empty_stats = { sum = 0.; n = 0; rows = 0; mn = infinity; mx = neg_infinity }

let merge_stats a b =
  {
    sum = a.sum +. b.sum;
    n = a.n + b.n;
    rows = a.rows + b.rows;
    mn = Float.min a.mn b.mn;
    mx = Float.max a.mx b.mx;
  }

let float_stats ?(workers = -1) ?where r name =
  let workers = if workers < 0 then default_workers () else workers in
  match Relation.column r name with
  | None -> None
  | Some col ->
    let data = Column.data col in
    let keep =
      match where with
      | None -> fun _ -> true
      | Some pred -> pred_fn r pred
    in
    let chunk _ lo hi =
      let sum = ref 0. and n = ref 0 and rows = ref 0 in
      let mn = ref infinity and mx = ref neg_infinity in
      for i = lo to hi - 1 do
        if keep i then begin
          incr rows;
          let v = Array.unsafe_get data i in
          if not (Float.is_nan v) then begin
            sum := !sum +. v;
            incr n;
            if v < !mn then mn := v;
            if v > !mx then mx := v
          end
        end
      done;
      { sum = !sum; n = !n; rows = !rows; mn = !mn; mx = !mx }
    in
    let parts = run_chunks ~workers (Relation.cardinality r) chunk in
    Some (Array.fold_left merge_stats empty_stats parts)
