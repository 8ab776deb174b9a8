(* Multi-level partition hierarchy for progressive shading
   (arXiv:2307.02860 §5): level 0 is the coarsest partitioning, the
   last level the finest ("leaf"); every level-l group is split further
   by the DLV recursion to form level l+1, so child groups refine their
   parent by construction.

   Size targets are geometric between [n / coarse_groups] and the leaf
   tau, and only the leaf level carries the radius condition (it is the
   level the final refine runs against; the coarser levels only steer
   the descent). *)

type t = {
  attrs : string list;
  levels : Partition.t array; (* coarsest first; last = leaf *)
}

let default_levels = 3

(* Leaf groups an order of magnitude finer than the flat default
   (card/10): fine enough that tail tuples get their own
   representatives, coarse enough that leaf sketches stay small. *)
let default_leaf_tau rel = max 1 (Relalg.Relation.cardinality rel / 100)

(* Geometric tau ladder: the coarsest level aims at ~8 groups, the last
   entry is exactly [leaf_tau]; non-increasing. *)
let plan_taus ~n ~leaf_tau ~levels =
  if levels <= 1 then [| leaf_tau |]
  else begin
    let tau0 = float_of_int (max leaf_tau ((n + 7) / 8)) in
    let tl = float_of_int leaf_tau in
    Array.init levels (fun l ->
        if l = levels - 1 then leaf_tau
        else
          let f = float_of_int l /. float_of_int (levels - 1) in
          max leaf_tau
            (int_of_float (Float.round (tau0 *. ((tl /. tau0) ** f)))))
  end

let num_levels t = Array.length t.levels
let level t l = t.levels.(l)
let leaf t = t.levels.(Array.length t.levels - 1)

let build ?(radius = Partition.No_radius) ?levels ?leaf_tau ~attrs rel =
  if Faults.partition_build_fails () then
    raise (Faults.Injected "injected partition build failure");
  if attrs = [] then invalid_arg "Hierarchy.build: no attributes";
  let n = Relalg.Relation.cardinality rel in
  let levels = max 1 (Option.value levels ~default:default_levels) in
  let leaf_tau =
    match leaf_tau with Some t -> max 1 t | None -> default_leaf_tau rel
  in
  let taus = plan_taus ~n ~leaf_tau ~levels in
  let cols = Partition.numeric_columns rel attrs in
  let ranges = Dlv.ranges cols in
  let all = Array.init n Fun.id in
  let parts = Array.make levels None in
  let sets = ref [ all ] in
  for l = 0 to levels - 1 do
    let r = if l = levels - 1 then radius else Partition.No_radius in
    sets :=
      List.concat_map
        (fun s -> Dlv.split ~radius:r ~ranges ~tau:taus.(l) cols s)
        !sets;
    parts.(l) <- Some (Partition.of_groups ~attrs rel !sets)
  done;
  let levels_arr =
    Array.map (function Some p -> p | None -> assert false) parts
  in
  { attrs; levels = levels_arr }

(* [children t l] — for each gid at level [l], the gids of the level
   [l+1] groups it splits into (ascending, since the builder keeps a
   parent's children contiguous and of_groups preserves order). *)
let children t l =
  let parent = t.levels.(l) and child = t.levels.(l + 1) in
  let out = Array.make (Partition.num_groups parent) [] in
  let nc = Partition.num_groups child in
  for g = nc - 1 downto 0 do
    let members = child.Partition.groups.(g).Partition.members in
    let p = parent.Partition.gid_of_row.(members.(0)) in
    out.(p) <- g :: out.(p)
  done;
  out

let parent_gid t ~level:l gid =
  if l = 0 then invalid_arg "Hierarchy.parent_gid: level 0 has no parent";
  let members = t.levels.(l).Partition.groups.(gid).Partition.members in
  t.levels.(l - 1).Partition.gid_of_row.(members.(0))

let check t rel =
  let ( let* ) = Result.bind in
  let n = Relalg.Relation.cardinality rel in
  let rec levels l =
    if l >= Array.length t.levels then Ok ()
    else
      let p = t.levels.(l) in
      let* () =
        if p.Partition.attrs <> t.attrs then
          Error (Printf.sprintf "level %d: attribute list mismatch" l)
        else Ok ()
      in
      let* () = Partition.check p rel in
      let* () =
        if Array.length p.Partition.gid_of_row <> n then
          Error (Printf.sprintf "level %d: row coverage mismatch" l)
        else Ok ()
      in
      (* refinement: all members of a level-l group share one parent *)
      let* () =
        if l = 0 then Ok ()
        else
          let up = t.levels.(l - 1).Partition.gid_of_row in
          let bad = ref None in
          Array.iteri
            (fun g (grp : Partition.group) ->
              let m = grp.Partition.members in
              if Array.length m > 0 then begin
                let p0 = up.(m.(0)) in
                Array.iter
                  (fun r -> if up.(r) <> p0 && !bad = None then bad := Some g)
                  m
              end)
            p.Partition.groups;
          match !bad with
          | Some g ->
            Error
              (Printf.sprintf "level %d: group %d spans several parents" l g)
          | None -> Ok ()
      in
      levels (l + 1)
  in
  levels 0
