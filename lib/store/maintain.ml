module P = Pkg.Partition
module R = Relalg.Relation

type stats = {
  rows_appended : int;
  rows_deleted : int;
  groups_touched : int;
  groups_resplit : int;
  groups_before : int;
  groups_after : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "+%d rows, -%d rows: %d/%d groups touched, %d re-split, %d -> %d groups"
    s.rows_appended s.rows_deleted s.groups_touched s.groups_before
    s.groups_resplit s.groups_before s.groups_after

let rebuild_gid_of_row n (groups : P.group array) =
  let gid_of_row = Array.make n (-1) in
  Array.iteri
    (fun gid (g : P.group) ->
      Array.iter (fun row -> gid_of_row.(row) <- gid) g.P.members)
    groups;
  gid_of_row

(* Chebyshev distance to a centroid — the same metric as the group
   radius (Definition 2), so nearest-centroid assignment keeps the
   radius growth of the receiving group minimal. *)
let chebyshev cols centroid row =
  let d = ref 0. in
  Array.iteri
    (fun dim col ->
      let dx = Float.abs (col.(row) -. centroid.(dim)) in
      if dx > !d then d := dx)
    cols;
  !d

let nearest_gid (groups : P.group array) cols row =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun gid (g : P.group) ->
      let d = chebyshev cols g.P.centroid row in
      if d < !best_d then begin
        best_d := d;
        best := gid
      end)
    groups;
  !best

let no_change (p : P.t) =
  let g = Array.length p.P.groups in
  { rows_appended = 0; rows_deleted = 0; groups_touched = 0;
    groups_resplit = 0; groups_before = g; groups_after = g }

let append ?max_fanout_dims ~tau ~radius (p : P.t) rel =
  let n = Array.length p.P.gid_of_row and total = R.cardinality rel in
  if total < n then
    invalid_arg
      (Printf.sprintf
         "Maintain.append: partition covers %d rows but the table has %d" n
         total);
  let m = total - n in
  let groups_before = Array.length p.P.groups in
  if m = 0 then (p, no_change p)
  else if groups_before = 0 then begin
    (* Nothing to maintain locally — the partitioning is empty, so
       this is the initial build. *)
    let p' = P.create ~radius ?max_fanout_dims ~tau ~attrs:p.P.attrs rel in
    ( p',
      { (no_change p) with rows_appended = m; groups_after = P.num_groups p' } )
  end
  else begin
    let cols = P.numeric_columns rel p.P.attrs in
    (* Route each new row to the nearest existing centroid. *)
    let incoming = Array.make groups_before [] in
    for row = total - 1 downto n do
      let gid = nearest_gid p.P.groups cols row in
      incoming.(gid) <- row :: incoming.(gid)
    done;
    let groups_touched = ref 0 and groups_resplit = ref 0 in
    let out_groups = ref [] and out_reps = ref [] in
    Array.iteri
      (fun gid (g : P.group) ->
        match incoming.(gid) with
        | [] ->
          (* Untouched: group and representative row carried over. *)
          out_groups := g :: !out_groups;
          out_reps := R.row p.P.reps gid :: !out_reps
        | fresh ->
          incr groups_touched;
          (* New ids all exceed the old ones, so appending keeps the
             member list increasing. *)
          let members = Array.append g.P.members (Array.of_list fresh) in
          let centroid, r = P.centroid_radius cols members in
          if
            Array.length members <= tau
            && P.radius_ok radius ~centroid ~radius:r
          then begin
            out_groups := { P.members; centroid; radius = r } :: !out_groups;
            out_reps := P.rep_row rel members :: !out_reps
          end
          else begin
            (* Overflow: re-split only this group's subtree. *)
            incr groups_resplit;
            List.iter
              (fun members ->
                let centroid, r = P.centroid_radius cols members in
                out_groups :=
                  { P.members; centroid; radius = r } :: !out_groups;
                out_reps := P.rep_row rel members :: !out_reps)
              (P.split ?max_fanout_dims ~tau ~radius cols members)
          end)
      p.P.groups;
    let groups = Array.of_list (List.rev !out_groups) in
    let reps = R.of_array (R.schema rel) (Array.of_list (List.rev !out_reps)) in
    ( { P.attrs = p.P.attrs; groups;
        gid_of_row = rebuild_gid_of_row total groups; reps },
      {
        rows_appended = m;
        rows_deleted = 0;
        groups_touched = !groups_touched;
        groups_resplit = !groups_resplit;
        groups_before;
        groups_after = Array.length groups;
      } )
  end

let delete (p : P.t) rel dead =
  let n = Array.length p.P.gid_of_row in
  (* old -> new id map of the in-order compaction; -1 for a dead row *)
  let remap = Array.make n 0 in
  Array.iter
    (fun id ->
      if id < 0 || id >= n then
        invalid_arg
          (Printf.sprintf "Maintain.delete: row id %d out of range (%d rows)"
             id n);
      remap.(id) <- -1)
    dead;
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if remap.(i) = 0 then begin
      remap.(i) <- !kept;
      incr kept
    end
  done;
  if R.cardinality rel <> !kept then
    invalid_arg
      (Printf.sprintf
         "Maintain.delete: %d rows survive but the table has %d" !kept
         (R.cardinality rel));
  let groups_before = Array.length p.P.groups in
  let cols = lazy (P.numeric_columns rel p.P.attrs) in
  let groups_touched = ref 0 in
  let out_groups = ref [] and out_reps = ref [] in
  Array.iteri
    (fun gid (g : P.group) ->
      let live =
        Array.fold_left (fun k id -> if remap.(id) >= 0 then k + 1 else k) 0
          g.P.members
      in
      let members = Array.make live 0 and k = ref 0 in
      Array.iter
        (fun id ->
          if remap.(id) >= 0 then begin
            members.(!k) <- remap.(id);
            incr k
          end)
        g.P.members;
      let lost = live < Array.length g.P.members in
      if lost then incr groups_touched;
      if live > 0 then
        if lost then begin
          (* Shrinking only reduces size and radius — recompute, never
             re-split. *)
          let centroid, r = P.centroid_radius (Lazy.force cols) members in
          out_groups := { P.members; centroid; radius = r } :: !out_groups;
          out_reps := P.rep_row rel members :: !out_reps
        end
        else begin
          (* Member ids shifted but the tuples did not: geometry and
             representative carry over. *)
          out_groups :=
            { P.members; centroid = g.P.centroid; radius = g.P.radius }
            :: !out_groups;
          out_reps := R.row p.P.reps gid :: !out_reps
        end)
    p.P.groups;
  let groups = Array.of_list (List.rev !out_groups) in
  let reps = R.of_array (R.schema rel) (Array.of_list (List.rev !out_reps)) in
  ( { P.attrs = p.P.attrs; groups;
      gid_of_row = rebuild_gid_of_row !kept groups; reps },
    {
      rows_appended = 0;
      rows_deleted = n - !kept;
      groups_touched = !groups_touched;
      groups_resplit = 0;
      groups_before;
      groups_after = Array.length groups;
    } )
