open Problem

let fpf = Printf.sprintf

let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_'
      then c
      else '_')
    name

(* Unique, MPS-safe names for [count] variables or rows. *)
let make_names prefix count name =
  let seen = Hashtbl.create 16 in
  Array.init count (fun i ->
      let base =
        match name i with "" -> fpf "%s%d" prefix i | raw -> sanitize raw
      in
      let name = if Hashtbl.mem seen base then fpf "%s_%d" base i else base in
      Hashtbl.add seen name ();
      name)

let num v = fpf "%.17g" v

let to_string ?(col_name = fpf "x%d") ?(row_name = fpf "c%d") (p : t) =
  let buf = Buffer.create 1024 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  let n = nvars p in
  let col_names = make_names "x" n col_name in
  let row_names = make_names "c" (nrows p) row_name in
  line "NAME          PKGQ";
  line "OBJSENSE";
  line (match p.sense with Minimize -> "    MIN" | Maximize -> "    MAX");
  line "ROWS";
  line " N  OBJ";
  Array.iteri
    (fun i rlo ->
      let rhi = p.rhi.(i) in
      let kind =
        if rlo = rhi then "E"
        else if rlo > neg_infinity && rhi < infinity then
          "L" (* two-sided: L row + RANGES entry *)
        else if rhi < infinity then "L"
        else if rlo > neg_infinity then "G"
        else "L" (* free row; harmless with +inf rhs handled below *)
      in
      line (fpf " %s  %s" kind row_names.(i)))
    p.rlo;
  line "COLUMNS";
  let in_int = ref false in
  let marker on =
    if on then line "    MARKER                 'MARKER'                 'INTORG'"
    else line "    MARKER                 'MARKER'                 'INTEND'"
  in
  for j = 0 to n - 1 do
    if p.integer.(j) <> !in_int then begin
      marker p.integer.(j);
      in_int := p.integer.(j)
    end;
    let c = p.obj.(j) in
    if c <> 0. then line (fpf "    %s  OBJ  %s" col_names.(j) (num c));
    for k = p.cstart.(j) to p.cstart.(j + 1) - 1 do
      line (fpf "    %s  %s  %s" col_names.(j) row_names.(p.crow.(k)) (num p.cval.(k)))
    done;
    (* a column with no entries at all still needs to exist *)
    if c = 0. && p.cstart.(j) = p.cstart.(j + 1) then
      line (fpf "    %s  OBJ  0" col_names.(j))
  done;
  if !in_int then marker false;
  line "RHS";
  Array.iteri
    (fun i rlo ->
      let rhi = p.rhi.(i) in
      let rhs =
        if rlo = rhi then Some rlo
        else if rhi < infinity then Some rhi
        else if rlo > neg_infinity then Some rlo
        else None
      in
      match rhs with
      | Some v when v <> 0. -> line (fpf "    RHS  %s  %s" row_names.(i) (num v))
      | _ -> ())
    p.rlo;
  line "RANGES";
  Array.iteri
    (fun i rlo ->
      let rhi = p.rhi.(i) in
      if rlo > neg_infinity && rhi < infinity && rlo < rhi then
        (* L row with rhs = hi; range r makes it [hi - r, hi] *)
        line (fpf "    RNG  %s  %s" row_names.(i) (num (rhi -. rlo))))
    p.rlo;
  line "BOUNDS";
  Array.iteri
    (fun j lo ->
      let name = col_names.(j) and hi = p.hi.(j) in
      match lo > neg_infinity, hi < infinity with
      | true, true when lo = hi -> line (fpf " FX BND  %s  %s" name (num lo))
      | true, true ->
        line (fpf " LO BND  %s  %s" name (num lo));
        line (fpf " UP BND  %s  %s" name (num hi))
      | true, false ->
        line (fpf " LO BND  %s  %s" name (num lo));
        line (fpf " PL BND  %s" name)
      | false, true ->
        line (fpf " MI BND  %s" name);
        line (fpf " UP BND  %s  %s" name (num hi))
      | false, false -> line (fpf " FR BND  %s" name))
    p.lo;
  line "ENDATA";
  Buffer.contents buf

let write ?col_name ?row_name path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?col_name ?row_name p))
