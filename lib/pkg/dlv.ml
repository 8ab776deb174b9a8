(* Dynamic Low Variance partitioning (arXiv:2307.02860 §4).

   Where the quad tree splits a violating group geometrically around
   its centroid, DLV splits it *statistically*: pick the attribute with
   the highest range-normalized variance among the group's members and
   cut the members into equal-size contiguous slices of the sorted
   order along that attribute. Equal-size slices keep every group near
   the size target (no starved quadrants), and cutting the dimension
   that actually spreads drives within-group variance down fastest on
   both concentrated and heavy-tailed data.

   Determinism: member statistics are one serial pass in member
   order, and the sort key is [(value, row id)] — a total order. *)

let max_slices = 8

(* ------------------------------------------------------------------ *)
(* Per-dimension statistics                                           *)
(* ------------------------------------------------------------------ *)

type dim_stats = {
  sum : float array;
  sumsq : float array;
  mn : float array;
  mx : float array;
}

let member_stats cols members =
  let k = Array.length cols in
  let sum = Array.make k 0.
  and sumsq = Array.make k 0.
  and mn = Array.make k infinity
  and mx = Array.make k neg_infinity in
  Array.iter
    (fun row ->
      for d = 0 to k - 1 do
        let v = Array.unsafe_get (Array.unsafe_get cols d) row in
        sum.(d) <- sum.(d) +. v;
        sumsq.(d) <- sumsq.(d) +. (v *. v);
        if v < mn.(d) then mn.(d) <- v;
        if v > mx.(d) then mx.(d) <- v
      done)
    members;
  { sum; sumsq; mn; mx }

(* Range-normalized variance of each dimension: Var[v] / range^2 with
   [range] taken over the whole relation, so dimensions on different
   scales compete fairly (the DLV paper's normalization). *)
let normalized_variances ~ranges cols members =
  let n = float_of_int (Array.length members) in
  let st = member_stats cols members in
  Array.mapi
    (fun d _ ->
      let mean = st.sum.(d) /. n in
      let var = Float.max 0. ((st.sumsq.(d) /. n) -. (mean *. mean)) in
      let r = ranges.(d) in
      if r > 0. then var /. (r *. r) else 0.)
    cols

(* Global per-dimension ranges (max - min over all rows), or 1. for a
   constant column so normalization never divides by zero. *)
let global_ranges cols =
  let n = if Array.length cols = 0 then 0 else Array.length cols.(0) in
  let all = Array.init n Fun.id in
  let st = member_stats cols all in
  Array.mapi
    (fun d _ ->
      let r = st.mx.(d) -. st.mn.(d) in
      if r > 0. && Float.is_finite r then r else 1.)
    cols

(* ------------------------------------------------------------------ *)
(* Splitting                                                          *)
(* ------------------------------------------------------------------ *)

(* Equal-size contiguous slices of [members] sorted on dimension [d]
   (ties broken by row id: a total order, so the slicing is
   deterministic under any duplicate values). *)
let slice_on cols d ~slices members =
  let col = cols.(d) in
  let sorted = Array.copy members in
  Array.sort
    (fun a b ->
      let c = Float.compare col.(a) col.(b) in
      if c <> 0 then c else Int.compare a b)
    sorted;
  let n = Array.length sorted in
  let base = n / slices and extra = n mod slices in
  let out = ref [] in
  let pos = ref 0 in
  for s = 0 to slices - 1 do
    let len = base + if s < extra then 1 else 0 in
    if len > 0 then out := Array.sub sorted !pos len :: !out;
    pos := !pos + len
  done;
  List.rev !out

(* Coincident members (zero variance in every dimension): chunk by
   [tau] — radius is zero, so any grouping satisfies both conditions. *)
let chunk_by tau members =
  let n = Array.length members in
  let pieces = (n + tau - 1) / tau in
  List.init pieces (fun p ->
      Array.sub members (p * tau) (min tau (n - (p * tau))))

let rec split_set ~tau ~radius ~ranges cols members acc =
  let n = Array.length members in
  if n = 0 then acc
  else
    let centroid, rad = Partition.centroid_radius cols members in
    if n <= tau && Partition.radius_ok radius ~centroid ~radius:rad then
      members :: acc
    else begin
      let vars = normalized_variances ~ranges cols members in
      let best = ref 0 in
      Array.iteri (fun d v -> if v > vars.(!best) then best := d) vars;
      if vars.(!best) <= 0. then
        (* indistinguishable tuples: radius 0, only the size condition
           can be violated *)
        List.rev_append (chunk_by tau members) acc
      else
        let slices = min max_slices (max 2 ((n + tau - 1) / tau)) in
        let parts = slice_on cols !best ~slices members in
        (* A degenerate cut (everything in one slice) cannot happen with
           equal-size slicing and n >= 2, so the recursion terminates. *)
        List.fold_left
          (fun acc part -> split_set ~tau ~radius ~ranges cols part acc)
          acc parts
    end

let ranges = global_ranges

let split ?(radius = Partition.No_radius) ?ranges:rs ~tau cols members =
  if tau < 1 then invalid_arg "Dlv.split: tau < 1";
  let ranges = match rs with Some r -> r | None -> global_ranges cols in
  List.rev (split_set ~tau ~radius ~ranges cols members [])

let create ?(radius = Partition.No_radius) ~tau ~attrs rel =
  if tau < 1 then invalid_arg "Dlv.create: tau < 1";
  if attrs = [] then invalid_arg "Dlv.create: no attributes";
  let cols = Partition.numeric_columns rel attrs in
  let n = Relalg.Relation.cardinality rel in
  let members = Array.init n Fun.id in
  Partition.of_groups ~attrs rel (split ~radius ~tau cols members)

(* ------------------------------------------------------------------ *)
(* Quality metric                                                     *)
(* ------------------------------------------------------------------ *)

(* Mean per-tuple within-group normalized variance: the quantity DLV
   greedily minimizes, used by tests and benches to compare
   partitioners at equal tau. Lower is better. *)
let variance_cost cols (p : Partition.t) =
  let ranges = global_ranges cols in
  let total = ref 0. and rows = ref 0 in
  Array.iter
    (fun (g : Partition.group) ->
      let nv = normalized_variances ~ranges cols g.Partition.members in
      let s = Array.fold_left ( +. ) 0. nv in
      total := !total +. (s *. float_of_int (Array.length g.Partition.members));
      rows := !rows + Array.length g.Partition.members)
    p.Partition.groups;
  if !rows = 0 then 0. else !total /. float_of_int !rows
