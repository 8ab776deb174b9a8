type radius_spec =
  | No_radius
  | Absolute of float
  | Theorem of { epsilon : float; maximize : bool }

type group = {
  members : int array;
  centroid : float array;
  radius : float;
}

type t = {
  attrs : string list;
  groups : group array;
  gid_of_row : int array;
  reps : Relalg.Relation.t;
}

let num_groups p = Array.length p.groups

let gamma ~maximize ~epsilon =
  if maximize then epsilon else epsilon /. (1. +. epsilon)

let theorem_radius ?epsilon sense =
  match epsilon with
  | None -> No_radius
  | Some epsilon ->
    Theorem { epsilon; maximize = sense = Lp.Problem.Maximize }

let default_tau rel = max 1 (Relalg.Relation.cardinality rel / 10)

(* Per-group radius limit under the given spec. *)
let radius_ok spec ~centroid ~radius =
  match spec with
  | No_radius -> true
  | Absolute omega -> radius <= omega
  | Theorem { epsilon; maximize } ->
    let g = gamma ~maximize ~epsilon in
    let min_abs =
      Array.fold_left (fun acc c -> Float.min acc (Float.abs c)) infinity
        centroid
    in
    radius <= g *. min_abs

(* Shared, cache-backed columns: the relation materializes each numeric
   attribute once (NULLs as 0., the historical convention here) and
   every partitioner call reuses the same unboxed arrays. Callers must
   treat the result as read-only. *)
let numeric_columns rel attrs =
  let schema = Relalg.Relation.schema rel in
  List.iter
    (fun a ->
      match Relalg.Schema.index_of_opt schema a with
      | None -> invalid_arg ("Partition: unknown attribute " ^ a)
      | Some i -> (
        match (Relalg.Schema.attr_at schema i).ty with
        | Relalg.Value.TInt | Relalg.Value.TFloat -> ()
        | Relalg.Value.TStr | Relalg.Value.TBool ->
          invalid_arg ("Partition: non-numeric attribute " ^ a)))
    attrs;
  Array.of_list
    (List.map
       (fun a -> Relalg.Column.zeroed (Relalg.Relation.column_exn rel a))
       attrs)

let centroid_radius cols members =
  let k = Array.length cols in
  let m = Array.length members in
  let centroid = Array.make k 0. in
  let n = float_of_int m in
  for d = 0 to k - 1 do
    let col = Array.unsafe_get cols d in
    let s = ref 0. in
    for i = 0 to m - 1 do
      s := !s +. Array.unsafe_get col (Array.unsafe_get members i)
    done;
    Array.unsafe_set centroid d (!s /. n)
  done;
  let radius = ref 0. in
  for d = 0 to k - 1 do
    let col = Array.unsafe_get cols d in
    let c = Array.unsafe_get centroid d in
    for i = 0 to m - 1 do
      let dist =
        Float.abs (Array.unsafe_get col (Array.unsafe_get members i) -. c)
      in
      if dist > !radius then radius := dist
    done
  done;
  centroid, !radius

(* Representative tuple of one member set: means over cached columns
   (non-numeric slots are None per schema and become NULL). A plain
   loop keeps the accumulator unboxed. *)
let rep_row rel members =
  let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
  Array.init arity (fun col ->
      match Relalg.Relation.column_at rel col with
      | None -> Relalg.Value.Null
      | Some c ->
        let data = Relalg.Column.data c in
        let sum = ref 0. and cnt = ref 0 in
        for i = 0 to Array.length members - 1 do
          let v = Array.unsafe_get data (Array.unsafe_get members i) in
          if not (Float.is_nan v) then begin
            sum := !sum +. v;
            incr cnt
          end
        done;
        if !cnt = 0 then Relalg.Value.Null
        else Relalg.Value.Float (!sum /. float_of_int !cnt))

(* Build the final structure (groups, reverse map, representative
   relation) from explicit member sets. *)
let finalize ~attrs rel member_sets =
  let schema = Relalg.Relation.schema rel in
  let cols = numeric_columns rel attrs in
  let member_sets =
    List.filter (fun ms -> Array.length ms > 0) member_sets
  in
  let groups =
    Array.of_list
      (List.map
         (fun members ->
           let centroid, radius = centroid_radius cols members in
           { members; centroid; radius })
         member_sets)
  in
  let n = Relalg.Relation.cardinality rel in
  let gid_of_row = Array.make n (-1) in
  Array.iteri
    (fun gid g -> Array.iter (fun row -> gid_of_row.(row) <- gid) g.members)
    groups;
  let rep_rows = Array.map (fun g -> rep_row rel g.members) groups in
  let reps = Relalg.Relation.of_array schema rep_rows in
  { attrs; groups; gid_of_row; reps }

let of_groups ~attrs rel member_sets = finalize ~attrs rel member_sets

(* Per-dimension global ranges, used to make split-dimension selection
   scale-invariant (an attribute spanning [0, 2048] must not hijack
   every split from one spanning [0, 1]). *)
let global_ranges cols =
  Array.map
    (fun col ->
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iter
        (fun v ->
          if v < !lo then lo := v;
          if v > !hi then hi := v)
        col;
      let r = !hi -. !lo in
      if r > 0. then r else 1.)
    cols

(* Split members into sub-quadrants around the centroid. To keep the
   fan-out bounded (a 2^k split over many attributes shatters small
   datasets into unusably tiny groups), only the [max_dims] dimensions
   with the largest range-normalized spread around the centroid
   participate in the split — the k-d-tree flavour of the same
   recursion, which the paper cites as an equally valid
   space-partitioning choice. *)
let split_quadrants ~max_dims ~ranges cols centroid members =
  let k = Array.length cols in
  let m = Array.length members in
  let spread = Array.make k 0. in
  for d = 0 to k - 1 do
    let col = Array.unsafe_get cols d in
    let c = Array.unsafe_get centroid d in
    let rg = Array.unsafe_get ranges d in
    let worst = ref 0. in
    for i = 0 to m - 1 do
      let dist =
        Float.abs (Array.unsafe_get col (Array.unsafe_get members i) -. c)
        /. rg
      in
      if dist > !worst then worst := dist
    done;
    Array.unsafe_set spread d !worst
  done;
  let order = Array.init k Fun.id in
  Array.sort (fun a b -> compare spread.(b) spread.(a)) order;
  let ndims = min max_dims k in
  (* quadrant mask per member, then a counting sort by mask: no per-row
     hashing or list allocation, and the sub-quadrant order (ascending
     mask) is deterministic *)
  let masks = Array.make m 0 in
  for bit = 0 to ndims - 1 do
    let d = order.(bit) in
    let col = Array.unsafe_get cols d in
    let c = Array.unsafe_get centroid d in
    let b = 1 lsl bit in
    for i = 0 to m - 1 do
      if Array.unsafe_get col (Array.unsafe_get members i) >= c then
        Array.unsafe_set masks i (Array.unsafe_get masks i lor b)
    done
  done;
  let nb = 1 lsl ndims in
  let counts = Array.make nb 0 in
  for i = 0 to m - 1 do
    let b = masks.(i) in
    counts.(b) <- counts.(b) + 1
  done;
  let out = Array.init nb (fun b -> Array.make counts.(b) 0) in
  let fill = Array.make nb 0 in
  for i = 0 to m - 1 do
    let b = Array.unsafe_get masks i in
    out.(b).(fill.(b)) <- Array.unsafe_get members i;
    fill.(b) <- fill.(b) + 1
  done;
  Array.to_list out |> List.filter (fun a -> Array.length a > 0)

(* Chunk an unsplittable group (all points coincide on the partitioning
   attributes) into tau-sized pieces. *)
let chunk tau members =
  let n = Array.length members in
  let pieces = (n + tau - 1) / tau in
  List.init pieces (fun i ->
      let start = i * tau in
      Array.sub members start (min tau (n - start)))

(* The quad-tree recursion on one member set: split until every piece
   satisfies tau and the radius spec. Shared by [create] (seeded with
   all rows) and the incremental-maintenance layer (re-splitting just
   an overflowing group). *)
let split ?(max_fanout_dims = 2) ~tau ~radius cols members =
  if tau < 1 then invalid_arg "Partition.split: tau must be >= 1";
  if max_fanout_dims < 1 then
    invalid_arg "Partition.split: max_fanout_dims must be >= 1";
  let ranges = global_ranges cols in
  let finished = ref [] in
  let rec process members =
    let centroid, radius_val = centroid_radius cols members in
    if
      Array.length members <= tau
      && radius_ok radius ~centroid ~radius:radius_val
    then finished := members :: !finished
    else begin
      let subs =
        split_quadrants ~max_dims:max_fanout_dims ~ranges cols centroid
          members
      in
      match subs with
      | [ single ] when Array.length single = Array.length members ->
        (* indistinguishable points: radius is zero, split by size *)
        List.iter (fun piece -> finished := piece :: !finished)
          (chunk tau members)
      | subs -> List.iter process subs
    end
  in
  if Array.length members > 0 then process members;
  List.rev !finished

let create ?(radius = No_radius) ?max_fanout_dims ~tau ~attrs rel =
  if tau < 1 then invalid_arg "Partition.create: tau must be >= 1";
  if attrs = [] then invalid_arg "Partition.create: no partitioning attributes";
  let cols = numeric_columns rel attrs in
  let n = Relalg.Relation.cardinality rel in
  let sets = split ?max_fanout_dims ~tau ~radius cols (Array.init n Fun.id) in
  finalize ~attrs rel sets

let restrict_prefix p rel n =
  let keep row = row < n in
  let kept =
    Array.to_list p.groups
    |> List.mapi (fun gid g ->
           ( gid,
             Array.of_list (List.filter keep (Array.to_list g.members)) ))
    |> List.filter (fun (_, members) -> Array.length members > 0)
  in
  let groups =
    Array.of_list
      (List.map (fun (gid, members) -> { p.groups.(gid) with members }) kept)
  in
  let rep_rows =
    Array.of_list
      (List.map (fun (gid, _) -> Relalg.Relation.row p.reps gid) kept)
  in
  let gid_of_row = Array.make n (-1) in
  Array.iteri
    (fun gid g -> Array.iter (fun row -> gid_of_row.(row) <- gid) g.members)
    groups;
  {
    attrs = p.attrs;
    groups;
    gid_of_row;
    reps = Relalg.Relation.of_array (Relalg.Relation.schema rel) rep_rows;
  }

let max_group_size p =
  Array.fold_left (fun acc g -> max acc (Array.length g.members)) 0 p.groups

let check ?tau ?radius p rel =
  let n = Relalg.Relation.cardinality rel in
  let seen = Array.make n false in
  let problem = ref None in
  Array.iteri
    (fun gid g ->
      Array.iter
        (fun row ->
          if !problem = None then begin
            if row < 0 || row >= n then
              problem := Some (Printf.sprintf "group %d: bad row %d" gid row)
            else if seen.(row) then
              problem := Some (Printf.sprintf "row %d in two groups" row)
            else begin
              seen.(row) <- true;
              if p.gid_of_row.(row) <> gid then
                problem :=
                  Some (Printf.sprintf "gid_of_row mismatch for row %d" row)
            end
          end)
        g.members;
      (match tau with
      | Some t when Array.length g.members > t && !problem = None ->
        problem := Some (Printf.sprintf "group %d exceeds tau" gid)
      | _ -> ());
      match radius with
      | Some spec when !problem = None ->
        if not (radius_ok spec ~centroid:g.centroid ~radius:g.radius) then
          problem := Some (Printf.sprintf "group %d violates radius" gid)
      | _ -> ())
    p.groups;
  if !problem = None then
    Array.iteri
      (fun row covered ->
        if (not covered) && !problem = None then
          problem := Some (Printf.sprintf "row %d not covered" row))
      seen;
  match !problem with None -> Ok () | Some msg -> Error msg

let save path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "pkgq-partition v1\n";
      output_string oc ("attrs: " ^ String.concat "," p.attrs ^ "\n");
      Printf.fprintf oc "groups: %d\n" (Array.length p.groups);
      Array.iter
        (fun g ->
          let ids =
            String.concat " "
              (List.map string_of_int (Array.to_list g.members))
          in
          output_string oc (ids ^ "\n"))
        p.groups)

let load path rel =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line () =
        match input_line ic with
        | l -> l
        | exception End_of_file ->
          invalid_arg "Partition.load: truncated file"
      in
      if not (String.equal (line ()) "pkgq-partition v1") then
        invalid_arg "Partition.load: bad header";
      let attrs_line = line () in
      let attrs =
        match String.index_opt attrs_line ':' with
        | Some i ->
          String.sub attrs_line (i + 1) (String.length attrs_line - i - 1)
          |> String.trim
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun a -> a <> "")
        | None -> invalid_arg "Partition.load: missing attrs line"
      in
      let m =
        let l = line () in
        match String.index_opt l ':' with
        | Some i -> (
          match
            int_of_string_opt
              (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          with
          | Some m when m >= 0 -> m
          | _ -> invalid_arg "Partition.load: bad group count"
        )
        | None -> invalid_arg "Partition.load: missing groups line"
      in
      let n = Relalg.Relation.cardinality rel in
      let member_sets =
        List.init m (fun _ ->
            line ()
            |> String.split_on_char ' '
            |> List.filter (fun s -> s <> "")
            |> List.map (fun s ->
                   match int_of_string_opt s with
                   | Some id when id >= 0 && id < n -> id
                   | Some id ->
                     invalid_arg
                       (Printf.sprintf
                          "Partition.load: row id %d out of range" id)
                   | None -> invalid_arg "Partition.load: bad row id")
            |> Array.of_list)
      in
      let p = of_groups ~attrs rel member_sets in
      match check p rel with
      | Ok () -> p
      | Error msg -> invalid_arg ("Partition.load: " ^ msg))
