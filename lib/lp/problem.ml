type sense = Minimize | Maximize

type t = {
  sense : sense;
  obj : float array;
  lo : float array;
  hi : float array;
  integer : bool array;
  rlo : float array;
  rhi : float array;
  cstart : int array;
  crow : int array;
  cval : float array;
}

let nvars p = Array.length p.obj
let nrows p = Array.length p.rlo

(* Structural sanity, checked once by each constructor: crossed bounds
   on a column or a row. *)
let validate who p =
  let crossed what lo hi =
    Array.iteri
      (fun i l ->
        if l > hi.(i) then
          invalid_arg (Printf.sprintf "%s: %s %d has lo > hi" who what i))
      lo
  in
  crossed "variable" p.lo p.hi;
  crossed "row" p.rlo p.rhi;
  p

let columns ~sense ~obj ~hi ~rows n =
  let coef = Array.of_list (List.map (fun (f, _, _) -> f) rows) in
  let m = Array.length coef in
  let cstart = Array.make (n + 1) 0 in
  let crow = Array.make (n * m) 0 and cval = Array.make (n * m) 0. in
  let nnz = ref 0 in
  for k = 0 to n - 1 do
    cstart.(k) <- !nnz;
    for i = 0 to m - 1 do
      let a = coef.(i) k in
      if a <> 0. then begin
        crow.(!nnz) <- i;
        cval.(!nnz) <- a;
        incr nnz
      end
    done
  done;
  cstart.(n) <- !nnz;
  let trim a = if !nnz = Array.length a then a else Array.sub a 0 !nnz in
  validate "Problem.columns"
    {
      sense;
      obj = Array.init n obj;
      lo = Array.make n 0.;
      hi = Array.init n hi;
      integer = Array.make n true;
      rlo = Array.of_list (List.map (fun (_, lo, _) -> lo) rows);
      rhi = Array.of_list (List.map (fun (_, _, hi) -> hi) rows);
      cstart;
      crow = trim crow;
      cval = trim cval;
    }

type var = { vobj : float; vlo : float; vhi : float; vint : bool }
type row = { coeffs : (int * float) list; lo : float; hi : float }

let var ?(integer = false) ?(lo = 0.) ?(hi = infinity) obj =
  { vobj = obj; vlo = lo; vhi = hi; vint = integer }

let row coeffs ~lo ~hi = { coeffs; lo; hi }

(* The one row-to-column transposition: count each column's nonzero
   entries, take exclusive prefix sums, then place the rows in order. *)
let make ~sense ~vars ~rows =
  let vars = Array.of_list vars and rows = Array.of_list rows in
  let n = Array.length vars in
  let cstart = Array.make (n + 1) 0 in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, a) ->
          if j < 0 || j >= n then
            invalid_arg
              (Printf.sprintf "Problem.make: row %d references variable %d" i j);
          if a <> 0. then cstart.(j) <- cstart.(j) + 1)
        r.coeffs)
    rows;
  let nnz = ref 0 in
  for j = 0 to n do
    let c = cstart.(j) in
    cstart.(j) <- !nnz;
    nnz := !nnz + c
  done;
  let crow = Array.make !nnz 0 and cval = Array.make !nnz 0. in
  let fill = Array.sub cstart 0 n in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, a) ->
          if a <> 0. then begin
            crow.(fill.(j)) <- i;
            cval.(fill.(j)) <- a;
            fill.(j) <- fill.(j) + 1
          end)
        r.coeffs)
    rows;
  validate "Problem.make"
    {
      sense;
      obj = Array.map (fun v -> v.vobj) vars;
      lo = Array.map (fun v -> v.vlo) vars;
      hi = Array.map (fun v -> v.vhi) vars;
      integer = Array.map (fun v -> v.vint) vars;
      rlo = Array.map (fun (r : row) -> r.lo) rows;
      rhi = Array.map (fun (r : row) -> r.hi) rows;
      cstart;
      crow;
      cval;
    }

let sub p ~cols ~rows =
  let pos = Array.make (nrows p) (-1) in
  Array.iteri (fun i r -> pos.(r) <- i) rows;
  let nnz = ref 0 in
  Array.iter
    (fun j ->
      for k = p.cstart.(j) to p.cstart.(j + 1) - 1 do
        if pos.(p.crow.(k)) >= 0 then incr nnz
      done)
    cols;
  let cstart = Array.make (Array.length cols + 1) 0 in
  let crow = Array.make !nnz 0 and cval = Array.make !nnz 0. in
  let at = ref 0 in
  Array.iteri
    (fun c j ->
      cstart.(c) <- !at;
      for k = p.cstart.(j) to p.cstart.(j + 1) - 1 do
        let i = pos.(p.crow.(k)) in
        if i >= 0 then begin
          crow.(!at) <- i;
          cval.(!at) <- p.cval.(k);
          incr at
        end
      done)
    cols;
  cstart.(Array.length cols) <- !at;
  let pick a = Array.map (fun j -> a.(j)) cols in
  {
    sense = p.sense;
    obj = pick p.obj;
    lo = pick p.lo;
    hi = pick p.hi;
    integer = pick p.integer;
    rlo = Array.map (fun i -> p.rlo.(i)) rows;
    rhi = Array.map (fun i -> p.rhi.(i)) rows;
    cstart;
    crow;
    cval;
  }

(* The arithmetic below is written as plain loops so its float
   accumulators stay unboxed. *)
let objective p x =
  let acc = ref 0. in
  for j = 0 to Array.length p.obj - 1 do
    acc := !acc +. (p.obj.(j) *. x.(j))
  done;
  !acc

let activities p x =
  let act = Array.make (nrows p) 0. in
  for j = 0 to nvars p - 1 do
    let xj = x.(j) in
    for k = p.cstart.(j) to p.cstart.(j + 1) - 1 do
      let i = p.crow.(k) in
      act.(i) <- act.(i) +. (p.cval.(k) *. xj)
    done
  done;
  act

let feasible ?(tol = 1e-6) p x =
  let n = nvars p in
  let ok = ref (Array.length x = n) in
  let j = ref 0 in
  while !ok && !j < n do
    let xj = x.(!j) in
    ok :=
      xj >= p.lo.(!j) -. tol
      && xj <= p.hi.(!j) +. tol
      && ((not p.integer.(!j)) || Float.abs (xj -. Float.round xj) <= tol);
    incr j
  done;
  !ok
  &&
  let act = activities p x in
  let i = ref 0 in
  while !ok && !i < nrows p do
    ok := act.(!i) >= p.rlo.(!i) -. tol && act.(!i) <= p.rhi.(!i) +. tol;
    incr i
  done;
  !ok

let pp_bound ppf v =
  if v = infinity then Format.pp_print_string ppf "+inf"
  else if v = neg_infinity then Format.pp_print_string ppf "-inf"
  else Format.fprintf ppf "%g" v

let pp ppf p =
  let sense = match p.sense with Minimize -> "min" | Maximize -> "max" in
  Format.fprintf ppf "@[<v>%s: %d vars, %d rows@," sense (nvars p) (nrows p);
  Array.iteri
    (fun i lo -> Format.fprintf ppf "row %d [%a, %a]@," i pp_bound lo pp_bound p.rhi.(i))
    p.rlo;
  Array.iteri
    (fun j c ->
      Format.fprintf ppf "x%d [%a, %a]%s obj %g:" j pp_bound p.lo.(j) pp_bound
        p.hi.(j)
        (if p.integer.(j) then " int" else "")
        c;
      for k = p.cstart.(j) to p.cstart.(j + 1) - 1 do
        Format.fprintf ppf " %g*r%d" p.cval.(k) p.crow.(k)
      done;
      Format.fprintf ppf "@,")
    p.obj;
  Format.fprintf ppf "@]"
