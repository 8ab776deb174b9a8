type sense = Minimize | Maximize

type var = {
  obj : float;
  lo : float;
  hi : float;
  integer : bool;
  vname : string;
}

type row = {
  coeffs : (int * float) list;
  rlo : float;
  rhi : float;
  rname : string;
}

type t = { sense : sense; vars : var array; rows : row array }

let var ?(name = "") ?(integer = false) ?(lo = 0.) ?(hi = infinity) obj =
  { obj; lo; hi; integer; vname = name }

let row ?(name = "") coeffs ~lo ~hi = { coeffs; rlo = lo; rhi = hi; rname = name }

let make ~sense ~vars ~rows =
  { sense; vars = Array.of_list vars; rows = Array.of_list rows }

let nvars p = Array.length p.vars
let nrows p = Array.length p.rows

(* The arithmetic below is written as plain loops so its float
   accumulators stay unboxed; the terms are summed in the same order as
   a left fold over [vars] / [coeffs]. *)
let objective p x =
  let acc = ref 0. in
  for j = 0 to Array.length p.vars - 1 do
    acc := !acc +. (p.vars.(j).obj *. x.(j))
  done;
  !acc

let row_value r x =
  let acc = ref 0. and rest = ref r.coeffs in
  while
    match !rest with
    | [] -> false
    | (j, a) :: tl ->
      acc := !acc +. (a *. x.(j));
      rest := tl;
      true
  do
    ()
  done;
  !acc

(* The rows are checked before the variables: a rounded LP point, which
   branch-and-bound checks at every node, mostly fails on a row. For a
   problem that passes [validate] the conjunction is the same in either
   order. *)
let feasible ?(tol = 1e-6) p x =
  let n = nvars p in
  let ok = ref (Array.length x = n) in
  let i = ref 0 in
  while !ok && !i < nrows p do
    let r = p.rows.(!i) in
    let v = row_value r x in
    ok := v >= r.rlo -. tol && v <= r.rhi +. tol;
    incr i
  done;
  let j = ref 0 in
  while !ok && !j < n do
    let v = p.vars.(!j) and xj = x.(!j) in
    ok :=
      xj >= v.lo -. tol && xj <= v.hi +. tol
      && ((not v.integer) || Float.abs (xj -. Float.round xj) <= tol);
    incr j
  done;
  !ok

let validate p =
  let n = nvars p in
  let bad = ref None in
  Array.iteri
    (fun j v ->
      if !bad = None && v.lo > v.hi then
        bad := Some (Printf.sprintf "variable %d has lo > hi" j))
    p.vars;
  Array.iteri
    (fun i r ->
      if !bad = None then begin
        if r.rlo > r.rhi then
          bad := Some (Printf.sprintf "row %d has lo > hi" i);
        List.iter
          (fun (j, _) ->
            if !bad = None && (j < 0 || j >= n) then
              bad :=
                Some (Printf.sprintf "row %d references variable %d" i j))
          r.coeffs
      end)
    p.rows;
  match !bad with None -> Ok () | Some msg -> Error msg

let pp_bound ppf v =
  if v = infinity then Format.pp_print_string ppf "+inf"
  else if v = neg_infinity then Format.pp_print_string ppf "-inf"
  else Format.fprintf ppf "%g" v

let pp ppf p =
  let sense = match p.sense with Minimize -> "min" | Maximize -> "max" in
  Format.fprintf ppf "@[<v>%s: %d vars, %d rows@," sense (nvars p) (nrows p);
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "row %d [%a, %a]: %a@," i pp_bound r.rlo pp_bound
        r.rhi
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
           (fun ppf (j, a) -> Format.fprintf ppf "%g*x%d" a j))
        r.coeffs)
    p.rows;
  Format.fprintf ppf "@]"
