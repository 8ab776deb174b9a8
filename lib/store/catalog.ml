module P = Pkg.Partition

type t = { root : string }

let default_dir = ".pkgq-store"

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755
    with Sys_error _ when Sys.file_exists d -> ()
  end

let tables_dir t = Filename.concat t.root "tables"
let partitions_dir t = Filename.concat t.root "partitions"

(* Temp files left by a writer that died between creating its
   [.tmp.<pid>] sibling and renaming it over the target. They are never
   read (readers filter on real suffixes), so the sweep is pure
   hygiene — but without it a crashy writer leaks one file per death. *)
let sweep_stale_tmp dir =
  let is_tmp f =
    (* both the current [x.tmp.<pid>] shape and a legacy bare [x.tmp] *)
    Filename.extension f = ".tmp"
    || Filename.extension (Filename.remove_extension f) = ".tmp"
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if is_tmp f then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files

let open_dir root =
  let t = { root } in
  mkdir_p (tables_dir t);
  mkdir_p (partitions_dir t);
  sweep_stale_tmp (tables_dir t);
  sweep_stale_tmp (partitions_dir t);
  t

let dir t = t.root

(* ------------------------------------------------------------------ *)
(* Table cache                                                        *)
(* ------------------------------------------------------------------ *)

let is_segment_path path = Filename.check_suffix path ".seg"

let table_path t fp = Filename.concat (tables_dir t) (fp ^ ".seg")

let table_cached t path =
  (not (is_segment_path path))
  && Sys.file_exists path
  && Sys.file_exists (table_path t (Segment.fingerprint_file path))

let load_table t path =
  let s = Wire.read_file path in
  let fp = Wire.hex64 (Wire.hash64 s) in
  if is_segment_path path then (Segment.of_string s, fp)
  else
    let seg = table_path t fp in
    if Sys.file_exists seg then (Segment.read seg, fp)
    else begin
      let rel = Relalg.Csv.of_string s in
      Segment.write seg rel;
      (rel, fp)
    end

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

type key = {
  fingerprint : string;
  attrs : string list;
  tau : int;
  radius : P.radius_spec;
  level : int option;
}

let radius_string = function
  | P.No_radius -> "none"
  | P.Absolute omega -> Printf.sprintf "abs:%.17g" omega
  | P.Theorem { epsilon; maximize } ->
    Printf.sprintf "thm:%.17g:%s" epsilon (if maximize then "max" else "min")

(* Attribute order is irrelevant to what was computed (the same groups
   come out of the same attribute set), so the key canonicalizes it --
   otherwise a caller listing attributes in a different order triggers
   a silent full rebuild of an identical partitioning. *)
let canon_attrs attrs = List.sort compare attrs

let key_string k =
  Printf.sprintf "%s|%s|tau=%d|radius=%s%s" k.fingerprint
    (String.concat "," (canon_attrs k.attrs))
    k.tau (radius_string k.radius)
    (match k.level with
    | None -> ""
    | Some l -> Printf.sprintf "|level=%d" l)

let key_id k = Wire.hex64 (Wire.hash64 (key_string k))

(* Where a pre-canonicalization catalog (order-sensitive attrs, no
   level field) would have filed this key. Flat keys whose attrs happen
   to arrive sorted produce the same id as [key_id]; others give the
   legacy lookup a second chance. *)
let legacy_key_id k =
  Wire.hex64
    (Wire.hash64
       (Printf.sprintf "%s|%s|tau=%d|radius=%s" k.fingerprint
          (String.concat "," k.attrs)
          k.tau (radius_string k.radius)))

(* Key equality modulo attribute order (the stored entry may predate
   canonicalization). *)
let key_matches ~stored ~wanted =
  stored.fingerprint = wanted.fingerprint
  && canon_attrs stored.attrs = canon_attrs wanted.attrs
  && stored.tau = wanted.tau
  && stored.radius = wanted.radius
  && stored.level = wanted.level

(* ------------------------------------------------------------------ *)
(* Partition files                                                    *)
(* ------------------------------------------------------------------ *)

let part_magic = "PKGQPART"

(* v1: flat keys only (no level field). v2 appends the key's level
   after the radius spec. [read_part] decodes both, so catalogs written
   before the hierarchy era keep loading. *)
let part_version = 2

let part_path t k = Filename.concat (partitions_dir t) (key_id k ^ ".part")

let encode_radius b = function
  | P.No_radius -> Wire.put_u8 b 0
  | P.Absolute omega ->
    Wire.put_u8 b 1;
    Wire.put_f64 b omega
  | P.Theorem { epsilon; maximize } ->
    Wire.put_u8 b 2;
    Wire.put_f64 b epsilon;
    Wire.put_u8 b (if maximize then 1 else 0)

let decode_radius r =
  match Wire.get_u8 r with
  | 0 -> P.No_radius
  | 1 -> P.Absolute (Wire.get_f64 r)
  | 2 ->
    let epsilon = Wire.get_f64 r in
    let maximize = Wire.get_u8 r = 1 in
    P.Theorem { epsilon; maximize }
  | tag -> Wire.error "bad radius-spec tag %d" tag

let encode_part key (p : P.t) =
  let b = Buffer.create 4096 in
  Wire.put_str b key.fingerprint;
  Wire.put_i32 b (List.length key.attrs);
  List.iter (Wire.put_str b) key.attrs;
  Wire.put_i64 b key.tau;
  encode_radius b key.radius;
  (match key.level with
  | None -> Wire.put_u8 b 0
  | Some l ->
    Wire.put_u8 b 1;
    Wire.put_i32 b l);
  Wire.put_i32 b (Array.length p.P.gid_of_row);
  Wire.put_i32 b (Array.length p.P.groups);
  let k = List.length key.attrs in
  Array.iter
    (fun (g : P.group) ->
      Wire.put_i32 b (Array.length g.P.members);
      Array.iter (Wire.put_i32 b) g.P.members;
      if Array.length g.P.centroid <> k then
        invalid_arg "Catalog.store: centroid arity does not match key attrs";
      Array.iter (Wire.put_f64 b) g.P.centroid;
      Wire.put_f64 b g.P.radius)
    p.P.groups;
  Wire.put_str b (Segment.to_string p.P.reps);
  b

(* The decoded skeleton; [reps] stays an undecoded segment image so the
   listing path can skip it. *)
type decoded = {
  dkey : key;
  n_rows : int;
  dgroups : P.group array;
  reps_image : string;
}

(* A planted count gets past the checksum of a re-sealed file, so every
   count is checked against the bytes left before anything is allocated
   for it: an attribute is at least its 4-byte name length, a group at
   least its member count, centroid and radius, a member 4 bytes. *)
let decode_part ~version r =
  let count what ~min_bytes =
    let n = Wire.get_i32 r in
    if n < 0 then Wire.error "negative %s %d" what n;
    if n > Wire.remaining r / min_bytes then
      Wire.error "%s %d exceeds the %d body bytes left" what n
        (Wire.remaining r);
    n
  in
  let fingerprint = Wire.get_str r in
  let n_attrs = count "attribute count" ~min_bytes:4 in
  let attrs = List.init n_attrs (fun _ -> Wire.get_str r) in
  let tau = Wire.get_i64 r in
  let radius = decode_radius r in
  let level =
    if version < 2 then None
    else
      match Wire.get_u8 r with
      | 0 -> None
      | 1 -> Some (Wire.get_i32 r)
      | tag -> Wire.error "bad level tag %d" tag
  in
  let n_rows = count "row count" ~min_bytes:4 in
  let n_groups = count "group count" ~min_bytes:(12 + (8 * n_attrs)) in
  let total = ref 0 in
  let dgroups =
    Array.init n_groups (fun _ ->
        let m = count "member count" ~min_bytes:4 in
        total := !total + m;
        let members =
          Array.init m (fun _ ->
              let id = Wire.get_i32 r in
              if id < 0 || id >= n_rows then
                Wire.error "member row id %d out of range (%d rows)" id n_rows;
              id)
        in
        let centroid = Array.init n_attrs (fun _ -> Wire.get_f64 r) in
        let radius = Wire.get_f64 r in
        { P.members; centroid; radius })
  in
  (* every row is in exactly one group *)
  if !total <> n_rows then
    Wire.error "row count %d is not the member total %d" n_rows !total;
  let reps_image = Wire.get_str r in
  {
    dkey = { fingerprint; attrs; tau; radius; level };
    n_rows;
    dgroups;
    reps_image;
  }

let to_partition ~rows d =
  if d.n_rows <> rows then
    Wire.error "entry partitions %d rows, the table has %d" d.n_rows rows;
  let reps = Segment.of_string d.reps_image in
  if Relalg.Relation.cardinality reps <> Array.length d.dgroups then
    Wire.error "representative count %d does not match group count %d"
      (Relalg.Relation.cardinality reps)
      (Array.length d.dgroups);
  let gid_of_row = Array.make d.n_rows (-1) in
  Array.iteri
    (fun gid (g : P.group) ->
      Array.iter
        (fun row ->
          if gid_of_row.(row) <> -1 then
            Wire.error "row %d assigned to two groups" row;
          gid_of_row.(row) <- gid)
        g.P.members)
    d.dgroups;
  { P.attrs = d.dkey.attrs; groups = d.dgroups; gid_of_row; reps }

let read_part path =
  let s = Wire.read_file path in
  let version =
    match Wire.peek_version s with
    | Some 1 -> 1
    | _ -> part_version (* current, or let verify report the mismatch *)
  in
  decode_part ~version (Wire.verify ~magic:part_magic ~version s)

let find t key ~rows =
  let read path =
    if not (Sys.file_exists path) then None
    else begin
      let d = read_part path in
      if not (key_matches ~stored:d.dkey ~wanted:key) then
        Wire.error "catalog entry %s was stored under a different key (%s)"
          (Filename.basename path) (key_string d.dkey);
      Some (to_partition ~rows d)
    end
  in
  match read (part_path t key) with
  | Some p -> Some p
  | None when key.level = None ->
    (* flat entries written before attrs canonicalization live under
       the order-sensitive id *)
    let legacy =
      Filename.concat (partitions_dir t) (legacy_key_id key ^ ".part")
    in
    if legacy = part_path t key then None else read legacy
  | None -> None

let store t key p =
  Wire.write_file (part_path t key) ~magic:part_magic ~version:part_version
    (encode_part key p)

let lookup_or_build t key ~rows ~build =
  match find t key ~rows with
  | Some p -> (p, `Hit)
  | None ->
    let p = build () in
    store t key p;
    (p, `Built)

let lookup_or_build_hierarchy t ~fingerprint ?(radius = Pkg.Partition.No_radius)
    ?levels ?leaf_tau ~attrs rel =
  let n = Relalg.Relation.cardinality rel in
  let levels =
    match levels with Some l -> max 1 l | None -> Pkg.Hierarchy.default_levels
  in
  let leaf_tau =
    match leaf_tau with
    | Some tau -> max 1 tau
    | None -> Pkg.Hierarchy.default_leaf_tau rel
  in
  let taus = Pkg.Hierarchy.plan_taus ~n ~leaf_tau ~levels in
  let key_of l =
    (* only the leaf level carries the radius condition (Hierarchy.build
       applies it nowhere else), so coarser keys must not include it or
       two queries differing only in epsilon would never share levels *)
    let r = if l = levels - 1 then radius else Pkg.Partition.No_radius in
    { fingerprint; attrs; tau = taus.(l); radius = r; level = Some l }
  in
  let cached =
    let rec probe l acc =
      if l < 0 then Some acc
      else
        match find t (key_of l) ~rows:n with
        | Some p -> probe (l - 1) (p :: acc)
        | None -> None
    in
    probe (levels - 1) []
  in
  match cached with
  | Some parts ->
    ({ Pkg.Hierarchy.attrs; levels = Array.of_list parts }, `Hit)
  | None ->
    let h = Pkg.Hierarchy.build ~radius ~levels ~leaf_tau ~attrs rel in
    Array.iteri (fun l p -> store t (key_of l) p) h.Pkg.Hierarchy.levels;
    (h, `Built)

(* ------------------------------------------------------------------ *)
(* Inspection                                                         *)
(* ------------------------------------------------------------------ *)

type entry = {
  id : string;
  entry_key : key;
  groups : int;
  rows : int;
  bytes : int;
  age : float;
}

let entries t =
  let d = partitions_dir t in
  let now = Unix.gettimeofday () in
  Sys.readdir d |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".part")
  |> List.filter_map (fun f ->
         let path = Filename.concat d f in
         match read_part path with
         | dec ->
           let st = Unix.stat path in
           Some
             {
               id = Filename.remove_extension f;
               entry_key = dec.dkey;
               groups = Array.length dec.dgroups;
               rows = dec.n_rows;
               bytes = st.Unix.st_size;
               age = now -. st.Unix.st_mtime;
             }
         | exception (Wire.Error _ | Sys_error _) -> None)
  |> List.sort (fun a b -> compare a.age b.age)
