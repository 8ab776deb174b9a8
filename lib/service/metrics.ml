(* Counters, gauges and log-bucketed latency histograms behind one
   mutex. Updates are a few arithmetic ops; rendering walks every
   table, so it stays off the per-request path (STATS verb / periodic
   log only). *)

(* Bucket [i] holds durations in [base * 2^i, base * 2^(i+1)); 34
   buckets span 1us .. ~2.4h, far past any request budget. *)
let base = 1e-6
let nbuckets = 34

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable max_v : float;
  buckets : int array;
}

type t = {
  mu : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  stages : (string, histogram) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    stages = Hashtbl.create 16;
  }

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add tbl name r;
    r

let incr ?(by = 1) t name =
  Mutex.protect t.mu (fun () ->
      let r = cell t.counters name in
      r := !r + by)

let get t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let set_gauge t name v =
  Mutex.protect t.mu (fun () -> cell t.gauges name := v)

let add_gauge t name v =
  Mutex.protect t.mu (fun () ->
      let r = cell t.gauges name in
      r := !r + v)

let get_gauge t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0)

let bucket_of dt =
  if dt <= base then 0
  else
    let i = int_of_float (Float.log2 (dt /. base)) in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

(* upper bound of bucket [i] *)
let bucket_hi i = base *. Float.pow 2. (float_of_int (i + 1))

let hist t name =
  match Hashtbl.find_opt t.stages name with
  | Some h -> h
  | None ->
    let h = { count = 0; sum = 0.; max_v = 0.; buckets = Array.make nbuckets 0 } in
    Hashtbl.add t.stages name h;
    h

let observe t name dt =
  let dt = if Float.is_nan dt || dt < 0. then 0. else dt in
  Mutex.protect t.mu (fun () ->
      let h = hist t name in
      h.count <- h.count + 1;
      h.sum <- h.sum +. dt;
      if dt > h.max_v then h.max_v <- dt;
      let b = bucket_of dt in
      h.buckets.(b) <- h.buckets.(b) + 1)

let time t name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe t name (Unix.gettimeofday () -. t0)) f

let stage_count t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.stages name with Some h -> h.count | None -> 0)

(* Resolve a quantile to its bucket's upper bound, clamped by the true
   max — exact for the extremes, <= 2x relative error in between. *)
let quantile_of h q =
  if h.count = 0 then None
  else begin
    let target =
      let r = int_of_float (Float.round (q *. float_of_int h.count)) in
      if r < 1 then 1 else if r > h.count then h.count else r
    in
    let acc = ref 0 and ans = ref h.max_v and found = ref false in
    Array.iteri
      (fun i n ->
        if not !found then begin
          acc := !acc + n;
          if !acc >= target then begin
            ans := Float.min (bucket_hi i) h.max_v;
            found := true
          end
        end)
      h.buckets;
    Some !ans
  end

let quantile t name q =
  Mutex.protect t.mu (fun () ->
      Option.bind (Hashtbl.find_opt t.stages name) (fun h -> quantile_of h q))

let mean t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.stages name with
      | Some h when h.count > 0 -> Some (h.sum /. float_of_int h.count)
      | _ -> None)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let ms v = 1000. *. v

let render t =
  Mutex.protect t.mu (fun () ->
      let buf = Buffer.create 512 in
      List.iter
        (fun (k, r) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" k !r))
        (sorted_bindings t.counters);
      List.iter
        (fun (k, r) ->
          Buffer.add_string buf (Printf.sprintf "gauge %s %d\n" k !r))
        (sorted_bindings t.gauges);
      List.iter
        (fun (k, h) ->
          if h.count > 0 then
            let q p = Option.value ~default:0. (quantile_of h p) in
            Buffer.add_string buf
              (Printf.sprintf
                 "stage %s count %d mean_ms %.3f p50_ms %.3f p99_ms %.3f \
                  max_ms %.3f\n"
                 k h.count
                 (ms (h.sum /. float_of_int h.count))
                 (ms (q 0.5)) (ms (q 0.99)) (ms h.max_v)))
        (sorted_bindings t.stages);
      Buffer.contents buf)

let summary_line t =
  Mutex.protect t.mu (fun () ->
      let c name =
        match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0
      in
      let g name =
        match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0
      in
      let total =
        match Hashtbl.find_opt t.stages "total" with
        | Some h when h.count > 0 ->
          Printf.sprintf "p50 %.1fms p99 %.1fms"
            (ms (Option.value ~default:0. (quantile_of h 0.5)))
            (ms (Option.value ~default:0. (quantile_of h 0.99)))
        | _ -> "p50 - p99 -"
      in
      Printf.sprintf
        "req %d ok %d failed %d shed %d depth %d plan %d/%d result %d/%d %s"
        (c "requests") (c "ok") (c "failed") (c "shed") (g "queue_depth")
        (c "plan_hits")
        (c "plan_hits" + c "plan_misses")
        (c "result_hits")
        (c "result_hits" + c "result_misses")
        total)
