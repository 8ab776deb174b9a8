let fpf = Printf.sprintf

let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_'
      then c
      else '_')
    name

(* Unique, MPS-safe names for variables and rows. *)
let make_names prefix raw =
  let seen = Hashtbl.create 16 in
  Array.mapi
    (fun i raw_name ->
      let base =
        if String.equal raw_name "" then fpf "%s%d" prefix i
        else sanitize raw_name
      in
      let name =
        if Hashtbl.mem seen base then fpf "%s_%d" base i else base
      in
      Hashtbl.add seen name ();
      name)
    raw

let num v = fpf "%.17g" v

let to_string (p : Problem.t) =
  let buf = Buffer.create 1024 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  let vnames =
    make_names "x" (Array.map (fun v -> v.Problem.vname) p.Problem.vars)
  in
  let rnames =
    make_names "c" (Array.map (fun r -> r.Problem.rname) p.Problem.rows)
  in
  line "NAME          PKGQ";
  line "OBJSENSE";
  line
    (match p.Problem.sense with
    | Problem.Minimize -> "    MIN"
    | Problem.Maximize -> "    MAX");
  line "ROWS";
  line " N  OBJ";
  Array.iteri
    (fun i (r : Problem.row) ->
      let kind =
        if r.Problem.rlo = r.Problem.rhi then "E"
        else if r.Problem.rlo > neg_infinity && r.Problem.rhi < infinity then
          "L" (* two-sided: L row + RANGES entry *)
        else if r.Problem.rhi < infinity then "L"
        else if r.Problem.rlo > neg_infinity then "G"
        else "L" (* free row; harmless with +inf rhs handled below *)
      in
      line (fpf " %s  %s" kind rnames.(i)))
    p.Problem.rows;
  line "COLUMNS";
  let in_int = ref false in
  let marker on =
    if on then line "    MARKER                 'MARKER'                 'INTORG'"
    else line "    MARKER                 'MARKER'                 'INTEND'"
  in
  (* column-major traversal *)
  let per_col = Array.make (Problem.nvars p) [] in
  Array.iteri
    (fun i (r : Problem.row) ->
      List.iter
        (fun (j, a) -> if a <> 0. then per_col.(j) <- (i, a) :: per_col.(j))
        r.Problem.coeffs)
    p.Problem.rows;
  Array.iteri
    (fun j (v : Problem.var) ->
      if v.Problem.integer && not !in_int then begin
        marker true;
        in_int := true
      end
      else if (not v.Problem.integer) && !in_int then begin
        marker false;
        in_int := false
      end;
      if v.Problem.obj <> 0. then
        line (fpf "    %s  OBJ  %s" vnames.(j) (num v.Problem.obj));
      List.iter
        (fun (i, a) -> line (fpf "    %s  %s  %s" vnames.(j) rnames.(i) (num a)))
        (List.rev per_col.(j));
      (* a column with no entries at all still needs to exist *)
      if v.Problem.obj = 0. && per_col.(j) = [] then
        line (fpf "    %s  OBJ  0" vnames.(j)))
    p.Problem.vars;
  if !in_int then marker false;
  line "RHS";
  Array.iteri
    (fun i (r : Problem.row) ->
      let rhs =
        if r.Problem.rlo = r.Problem.rhi then Some r.Problem.rlo
        else if r.Problem.rhi < infinity then Some r.Problem.rhi
        else if r.Problem.rlo > neg_infinity then Some r.Problem.rlo
        else None
      in
      match rhs with
      | Some v when v <> 0. -> line (fpf "    RHS  %s  %s" rnames.(i) (num v))
      | _ -> ())
    p.Problem.rows;
  line "RANGES";
  Array.iteri
    (fun i (r : Problem.row) ->
      if
        r.Problem.rlo > neg_infinity
        && r.Problem.rhi < infinity
        && r.Problem.rlo < r.Problem.rhi
      then
        (* L row with rhs = hi; range r makes it [hi - r, hi] *)
        line
          (fpf "    RNG  %s  %s" rnames.(i) (num (r.Problem.rhi -. r.Problem.rlo))))
    p.Problem.rows;
  line "BOUNDS";
  Array.iteri
    (fun j (v : Problem.var) ->
      let name = vnames.(j) in
      match v.Problem.lo > neg_infinity, v.Problem.hi < infinity with
      | true, true when v.Problem.lo = v.Problem.hi ->
        line (fpf " FX BND  %s  %s" name (num v.Problem.lo))
      | true, true ->
        line (fpf " LO BND  %s  %s" name (num v.Problem.lo));
        line (fpf " UP BND  %s  %s" name (num v.Problem.hi))
      | true, false ->
        line (fpf " LO BND  %s  %s" name (num v.Problem.lo));
        line (fpf " PL BND  %s" name)
      | false, true ->
        line (fpf " MI BND  %s" name);
        line (fpf " UP BND  %s  %s" name (num v.Problem.hi))
      | false, false -> line (fpf " FR BND  %s" name))
    p.Problem.vars;
  line "ENDATA";
  Buffer.contents buf

let write path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string p))
