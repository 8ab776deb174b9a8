(* A column's status: basic, or nonbasic resting at its lower bound,
   its upper bound, or (free column) at zero. Constant constructors
   only, so a status array is an unboxed int array and a store into it
   is a plain write. *)
type vstat = Basic | At_lower | At_upper | Free_zero

(* One byte per column in a basis snapshot; [install_basis] decodes it. *)
let code_of_vstat = function
  | Basic -> '\000'
  | At_lower -> '\001'
  | At_upper -> '\002'
  | Free_zero -> '\003'

module Basis = struct
  (* Snapshot of a simplex basis over the structural + slack columns:
     which column occupies each basis row, plus the resting side of
     every nonbasic column as a {!code_of_vstat} byte. Opaque to
     callers; [resolve] validates it against the problem it is applied
     to and degrades to a cold solve whenever it does not fit. *)
  type t = {
    bn : int; (* structural variables *)
    bm : int; (* rows *)
    vstat : Bytes.t; (* length bn + bm *)
    rows : int array; (* length bm: column occupying each basis row *)
  }

  (* Fault-injection helper: name the same column on every basis row,
     which makes the basis matrix singular and forces the warm path
     through its rejection branch. *)
  let corrupt b =
    if b.bm = 0 then b else { b with rows = Array.make b.bm b.rows.(0) }

  let resting b j =
    match Bytes.get b.vstat j with
    | '\000' -> `Basic
    | '\001' -> `Lower
    | '\002' -> `Upper
    | _ -> `Free

  (* The snapshot over the structural columns [keep] (ascending) and
     every slack. The kept and slack codes must still hold all [bm]
     basic columns. Every basis row names a basic column, so a kept
     one, found in [keep] by bisection, or a slack, shifted. *)
  let restrict b ~keep =
    let n' = Array.length keep and m = b.bm in
    let vstat = Bytes.create (n' + m) in
    let nbasic = ref 0 in
    let put k c =
      if c = '\000' then incr nbasic;
      Bytes.set vstat k c
    in
    Array.iteri (fun k j -> put k (Bytes.get b.vstat j)) keep;
    for i = 0 to m - 1 do
      put (n' + i) (Bytes.get b.vstat (b.bn + i))
    done;
    let index j =
      if j >= b.bn then n' + j - b.bn
      else begin
        let lo = ref 0 and hi = ref n' in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if keep.(mid) < j then lo := mid + 1 else hi := mid
        done;
        !lo
      end
    in
    if !nbasic <> m then None
    else Some { bn = n'; bm = m; vstat; rows = Array.map index b.rows }
end

type solution = {
  x : float array;
  obj : float;
  iterations : int;
  basis : Basis.t option;
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit

let pp_result ppf = function
  | Optimal s -> Format.fprintf ppf "optimal obj=%g iters=%d" s.obj s.iterations
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iter_limit -> Format.pp_print_string ppf "iteration limit"

(* ------------------------------------------------------------------ *)
(* Work counts, charged to a record the caller owns.                   *)

type work = {
  mutable pivots : int;
  mutable dual_pivots : int;
  mutable refactorizations : int;
  mutable cold_solves : int;
  mutable warm_attempts : int;
  mutable warm_hits : int;
}

let new_work () =
  {
    pivots = 0;
    dual_pivots = 0;
    refactorizations = 0;
    cold_solves = 0;
    warm_attempts = 0;
    warm_hits = 0;
  }

let add_work ~into w =
  into.pivots <- into.pivots + w.pivots;
  into.dual_pivots <- into.dual_pivots + w.dual_pivots;
  into.refactorizations <- into.refactorizations + w.refactorizations;
  into.cold_solves <- into.cold_solves + w.cold_solves;
  into.warm_attempts <- into.warm_attempts + w.warm_attempts;
  into.warm_hits <- into.warm_hits + w.warm_hits

let iterations w = w.pivots + w.dual_pivots

(* Mutable solver state over the augmented column set:
   [0, n)           structural variables
   [n, n + m)       slacks (column -e_i, bounds = row range)
   [n + m, n + 2m)  phase-1 artificials (column +/- e_i, bounds [0, 0+])
   Columns are stored compressed: column j's entries sit at positions
   [cstart.(j), cstart.(j + 1)) of [crow] / [cval], in row order. Only
   [lo] / [hi] of the structurals depend on the bounds being solved
   under, so one state serves every re-solve of the same rows and
   objective (see [Workspace]). *)
type state = {
  prob : Problem.t; (* its columns and objective; its bounds are unused *)
  n : int;
  m : int;
  mutable ncols : int; (* active columns: n + m warm, n + m + nart cold *)
  cstart : int array;
  crow : int array;
  cval : float array;
  lo : float array;
  hi : float array;
  obj : float array; (* structural costs, internal (minimize) sense *)
  cost : float array; (* phase-dependent *)
  status : vstat array;
  xval : float array;
  basis : int array;
  binv : float array array;
  y : float array; (* scratch: duals *)
  w : float array; (* scratch: B^-1 A_q *)
  mutable tol : float;
  mutable work : work; (* the running call's counts *)
}

exception Singular_basis

(* Rebuild binv = B^-1 from scratch by Gauss-Jordan with partial
   pivoting. The basis matrix has the columns [basis.(i)]. *)
let refactorize st =
  st.work.refactorizations <- st.work.refactorizations + 1;
  let m = st.m in
  let b = Array.make_matrix m m 0. in
  for i = 0 to m - 1 do
    let j = st.basis.(i) in
    for k = st.cstart.(j) to st.cstart.(j + 1) - 1 do
      b.(st.crow.(k)).(i) <- st.cval.(k)
    done
  done;
  (* initialize binv to identity *)
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      st.binv.(i).(j) <- (if i = j then 1. else 0.)
    done
  done;
  for col = 0 to m - 1 do
    (* partial pivot *)
    let piv = ref col in
    for r = col + 1 to m - 1 do
      if Float.abs b.(r).(col) > Float.abs b.(!piv).(col) then piv := r
    done;
    if Float.abs b.(!piv).(col) < 1e-12 then raise Singular_basis;
    if !piv <> col then begin
      let tmp = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tmp;
      let tmp = st.binv.(col) in
      st.binv.(col) <- st.binv.(!piv);
      st.binv.(!piv) <- tmp
    end;
    let d = b.(col).(col) in
    for j = 0 to m - 1 do
      b.(col).(j) <- b.(col).(j) /. d;
      st.binv.(col).(j) <- st.binv.(col).(j) /. d
    done;
    for r = 0 to m - 1 do
      if r <> col then begin
        let f = b.(r).(col) in
        if f <> 0. then
          for j = 0 to m - 1 do
            b.(r).(j) <- b.(r).(j) -. (f *. b.(col).(j));
            st.binv.(r).(j) <- st.binv.(r).(j) -. (f *. st.binv.(col).(j))
          done
      end
    done
  done

(* Recompute basic variable values: B x_B = -N x_N (all row RHS are 0
   in the slack formulation). *)
let recompute_basics st =
  let m = st.m in
  let rhs = Array.make m 0. in
  for j = 0 to st.ncols - 1 do
    if st.status.(j) <> Basic then begin
      let v = st.xval.(j) in
      if v <> 0. then
        for k = st.cstart.(j) to st.cstart.(j + 1) - 1 do
          let r = st.crow.(k) in
          rhs.(r) <- rhs.(r) -. (st.cval.(k) *. v)
        done
    end
  done;
  for i = 0 to m - 1 do
    let acc = ref 0. in
    for k = 0 to m - 1 do
      acc := !acc +. (st.binv.(i).(k) *. rhs.(k))
    done;
    st.xval.(st.basis.(i)) <- !acc
  done

let compute_duals st =
  let m = st.m in
  for k = 0 to m - 1 do
    let acc = ref 0. in
    for i = 0 to m - 1 do
      let c = st.cost.(st.basis.(i)) in
      if c <> 0. then acc := !acc +. (c *. st.binv.(i).(k))
    done;
    st.y.(k) <- !acc
  done

(* Dantzig pricing: the entering column of largest |d| (the first one
   on ties) and its direction (+1. increase / -1. decrease), or None at
   optimality. With [~bland] the scan stops at the first eligible
   column instead (Bland's rule). *)
let price st ~bland =
  let tol = st.tol in
  let status = st.status and lo = st.lo and hi = st.hi and cost = st.cost in
  let cstart = st.cstart and crow = st.crow and cval = st.cval and y = st.y in
  let best = ref (-1) and best_dir = ref 0. and best_score = ref tol in
  let j = ref 0 in
  while !j < st.ncols && not (bland && !best >= 0) do
    let j' = !j in
    let kind = status.(j') in
    if kind <> Basic && hi.(j') -. lo.(j') > tol then begin
      (* reduced cost d_j = c_j - y.A_j, summed in column order *)
      let d = ref cost.(j') in
      for k = cstart.(j') to cstart.(j' + 1) - 1 do
        d := !d -. (y.(crow.(k)) *. cval.(k))
      done;
      let d = !d in
      let dir =
        match kind with
        | At_lower -> if d < -.tol then 1. else 0.
        | At_upper -> if d > tol then -1. else 0.
        | Free_zero -> if d < -.tol then 1. else if d > tol then -1. else 0.
        | Basic -> 0.
      in
      if dir <> 0. then begin
        let score = Float.abs d in
        if score > !best_score then begin
          best := j';
          best_dir := dir;
          best_score := score
        end
      end
    end;
    incr j
  done;
  if !best >= 0 then Some (!best, !best_dir) else None

(* w := B^-1 A_q *)
let ftran st q =
  let m = st.m in
  for i = 0 to m - 1 do
    st.w.(i) <- 0.
  done;
  for k = st.cstart.(q) to st.cstart.(q + 1) - 1 do
    let r = st.crow.(k) and a = st.cval.(k) in
    for i = 0 to m - 1 do
      st.w.(i) <- st.w.(i) +. (st.binv.(i).(r) *. a)
    done
  done

type step =
  | Bound_flip of float
  | Pivot of int * float * vstat (* leaving row, step, leaving status *)
  | Ray (* unbounded direction *)

(* Ratio test: entering q moves by [t >= 0] in direction [dir]; basic i
   changes by [-dir * w_i * t]. *)
let ratio_test st q dir =
  let span = st.hi.(q) -. st.lo.(q) in
  let t = ref (if span < infinity then span else infinity) in
  let leaving = ref (-1) and leave_to = ref At_lower and leave_g = ref 0. in
  for i = 0 to st.m - 1 do
    let g = dir *. st.w.(i) in
    let b = st.basis.(i) in
    if g > st.tol then begin
      let slack = st.xval.(b) -. st.lo.(b) in
      if st.lo.(b) > neg_infinity then begin
        let limit = Float.max 0. (slack /. g) in
        if
          limit < !t -. st.tol
          || (limit < !t +. st.tol && Float.abs g > Float.abs !leave_g)
        then begin
          t := limit;
          leaving := i;
          leave_to := At_lower;
          leave_g := g
        end
      end
    end
    else if g < -.st.tol then begin
      if st.hi.(b) < infinity then begin
        let slack = st.hi.(b) -. st.xval.(b) in
        let limit = Float.max 0. (slack /. -.g) in
        if
          limit < !t -. st.tol
          || (limit < !t +. st.tol && Float.abs g > Float.abs !leave_g)
        then begin
          t := limit;
          leaving := i;
          leave_to := At_upper;
          leave_g := g
        end
      end
    end
  done;
  if !t = infinity then Ray
  else if !leaving = -1 then Bound_flip !t
  else Pivot (!leaving, !t, !leave_to)

let apply_step st q dir t =
  (* move entering variable and update basics *)
  st.xval.(q) <- st.xval.(q) +. (dir *. t);
  if t <> 0. then
    for i = 0 to st.m - 1 do
      let b = st.basis.(i) in
      st.xval.(b) <- st.xval.(b) -. (dir *. st.w.(i) *. t)
    done

(* Replace basis.(r) by q and update binv with an eta transformation. *)
let update_basis st r q =
  let m = st.m in
  let wr = st.w.(r) in
  let br = st.binv.(r) in
  for k = 0 to m - 1 do
    br.(k) <- br.(k) /. wr
  done;
  for i = 0 to m - 1 do
    if i <> r then begin
      let f = st.w.(i) in
      if f <> 0. then begin
        let bi = st.binv.(i) in
        for k = 0 to m - 1 do
          bi.(k) <- bi.(k) -. (f *. br.(k))
        done
      end
    end
  done;
  st.basis.(r) <- q

type loop_outcome = L_optimal | L_unbounded | L_iter_limit

(* Core iteration loop shared by both phases. The wall-clock deadline is
   polled every 128 iterations so a single LP solve cannot overshoot a
   propagated budget by more than a handful of pivots. *)
let iterate st ~max_iters ?deadline iters_ref =
  let degen = ref 0 in
  let bland = ref false in
  let since_refactor = ref 0 in
  let outcome = ref None in
  let past_deadline () =
    match deadline with
    | None -> false
    | Some d -> !iters_ref land 127 = 0 && Unix.gettimeofday () > d
  in
  while !outcome = None do
    if !iters_ref >= max_iters || past_deadline () then
      outcome := Some L_iter_limit
    else begin
      incr iters_ref;
      st.work.pivots <- st.work.pivots + 1;
      if !since_refactor >= 100 then begin
        refactorize st;
        recompute_basics st;
        since_refactor := 0
      end;
      compute_duals st;
      match price st ~bland:!bland with
      | None -> outcome := Some L_optimal
      | Some (q, dir) -> (
        ftran st q;
        match ratio_test st q dir with
        | Ray -> outcome := Some L_unbounded
        | Bound_flip t ->
          apply_step st q dir t;
          st.status.(q) <-
            (match st.status.(q) with
            | At_lower -> At_upper
            | At_upper -> At_lower
            | Free_zero | Basic ->
              (* a free column cannot bound-flip: its span is infinite *)
              assert false);
          (* snap to the exact bound to avoid drift *)
          st.xval.(q) <-
            (match st.status.(q) with
            | At_lower -> st.lo.(q)
            | At_upper -> st.hi.(q)
            | _ -> st.xval.(q));
          degen := 0;
          bland := false
        | Pivot (r, t, leave_to) ->
          let leaver = st.basis.(r) in
          apply_step st q dir t;
          st.status.(q) <- Basic;
          st.status.(leaver) <- leave_to;
          st.xval.(leaver) <-
            (match leave_to with
            | At_lower -> st.lo.(leaver)
            | At_upper -> st.hi.(leaver)
            | Free_zero | Basic -> 0.);
          update_basis st r q;
          incr since_refactor;
          if t <= st.tol then begin
            incr degen;
            if !degen > 64 then bland := true
          end
          else begin
            degen := 0;
            bland := false
          end)
    end
  done;
  match !outcome with Some o -> o | None -> assert false

(* ------------------------------------------------------------------ *)
(* Dual simplex: drives a primal-infeasible but (near) dual-feasible
   basis back to primal feasibility after bounds changed under it.      *)

(* Dual ratio test for leaving row [rho] (row r of B^-1). [upward] is
   true when the leaving basic variable must increase (it sits below its
   lower bound). The entering column has the least |d|/|alpha|, then
   the largest |alpha|, then the least index. Returns (column,
   direction, |d|), or None when no column is eligible. *)
let dual_select st rho ~upward =
  let tol = st.tol in
  let status = st.status and lo = st.lo and hi = st.hi and cost = st.cost in
  let cstart = st.cstart and crow = st.crow and cval = st.cval and y = st.y in
  let bj = ref (-1)
  and bdir = ref 0.
  and bratio = ref infinity
  and babs = ref 0.
  and babsd = ref 0. in
  for j = 0 to st.ncols - 1 do
    let kind = status.(j) in
    if kind <> Basic && hi.(j) -. lo.(j) > tol then begin
      (* alpha_j = rho.A_j and the reduced cost d_j = c_j - y.A_j, in
         one pass over the column *)
      let alpha = ref 0. and d = ref cost.(j) in
      for k = cstart.(j) to cstart.(j + 1) - 1 do
        let r = crow.(k) and a = cval.(k) in
        alpha := !alpha +. (rho.(r) *. a);
        d := !d -. (y.(r) *. a)
      done;
      let alpha = !alpha in
      (* entering j by [dir] changes the leaving basic by
         [-dir * alpha]; keep only moves pushing it toward the
         violated bound while respecting j's own resting side *)
      let dir =
        match kind with
        | At_lower ->
          if (upward && alpha < -.tol) || ((not upward) && alpha > tol)
          then 1.
          else 0.
        | At_upper ->
          if (upward && alpha > tol) || ((not upward) && alpha < -.tol)
          then -1.
          else 0.
        | Free_zero ->
          if Float.abs alpha > tol then
            if upward = (alpha < 0.) then 1. else -1.
          else 0.
        | Basic -> 0.
      in
      if dir <> 0. then begin
        let aabs = Float.abs alpha in
        let dabs = Float.abs !d in
        let ratio = dabs /. aabs in
        if ratio < !bratio || (ratio = !bratio && aabs > !babs) then begin
          bj := j;
          bdir := dir;
          bratio := ratio;
          babs := aabs;
          babsd := dabs
        end
      end
    end
  done;
  if !bj >= 0 then Some (!bj, !bdir, !babsd) else None

type dual_outcome = D_feasible | D_infeasible | D_stalled | D_iter_limit

(* Dual iteration: repeatedly pivot out the most-violated basic
   variable until the point is primal feasible. [D_infeasible] and
   [D_stalled] are advisory — callers confirm with a cold solve rather
   than trusting a warm-start certificate. *)
let dual_iterate st ~max_iters ?deadline iters_ref =
  let since_refactor = ref 0 in
  let stall = ref 0 in
  let outcome = ref None in
  let past_deadline () =
    match deadline with
    | None -> false
    | Some d -> !iters_ref land 127 = 0 && Unix.gettimeofday () > d
  in
  while !outcome = None do
    (* leaving row: largest bound violation among basic variables *)
    let r = ref (-1) and viol = ref (10. *. st.tol) and upward = ref false in
    for i = 0 to st.m - 1 do
      let b = st.basis.(i) in
      let x = st.xval.(b) in
      let below = st.lo.(b) -. x in
      let above = x -. st.hi.(b) in
      if below > !viol then begin
        r := i;
        viol := below;
        upward := true
      end
      else if above > !viol then begin
        r := i;
        viol := above;
        upward := false
      end
    done;
    if !r = -1 then outcome := Some D_feasible
    else if !iters_ref >= max_iters || past_deadline () then
      outcome := Some D_iter_limit
    else begin
      incr iters_ref;
      st.work.dual_pivots <- st.work.dual_pivots + 1;
      if !since_refactor >= 100 then begin
        refactorize st;
        recompute_basics st;
        since_refactor := 0
      end;
      compute_duals st;
      let rho = st.binv.(!r) in
      match dual_select st rho ~upward:!upward with
      | None -> outcome := Some D_infeasible
      | Some (q, dir, dabs) ->
        ftran st q;
        let alpha_r = st.w.(!r) in
        if Float.abs alpha_r <= st.tol then
          (* the recomputed pivot element disagrees with the pricing
             scan: numerical trouble, bail to a cold solve *)
          outcome := Some D_stalled
        else begin
          let t = !viol /. Float.abs alpha_r in
          let leaver = st.basis.(!r) in
          apply_step st q dir t;
          st.status.(q) <- Basic;
          let leave_to = if !upward then At_lower else At_upper in
          st.status.(leaver) <- leave_to;
          st.xval.(leaver) <-
            (if !upward then st.lo.(leaver) else st.hi.(leaver));
          update_basis st !r q;
          incr since_refactor;
          if dabs <= st.tol then begin
            incr stall;
            if !stall > 256 then outcome := Some D_stalled
          end
          else stall := 0
        end
    end
  done;
  match !outcome with Some o -> o | None -> assert false

let current_cost st =
  let acc = ref 0. in
  for j = 0 to st.ncols - 1 do
    if st.cost.(j) <> 0. then acc := !acc +. (st.cost.(j) *. st.xval.(j))
  done;
  !acc

let default_max_iters (p : Problem.t) =
  20_000 + (4 * (Problem.nvars p + Problem.nrows p))

(* The one state builder: copy [p]'s compressed structural columns,
   append the slack columns and reserve one entry for each artificial.
   Bounds start out as [p]'s own. *)
let build (p : Problem.t) =
  let n = Problem.nvars p and m = Problem.nrows p in
  let maxcols = n + m + m in
  let nnz = p.Problem.cstart.(n) in
  let cstart = Array.make (maxcols + 1) 0 in
  Array.blit p.Problem.cstart 0 cstart 0 (n + 1);
  for j = n + 1 to maxcols do
    cstart.(j) <- nnz + j - n
  done;
  let crow = Array.make (nnz + m + m) 0 and cval = Array.make (nnz + m + m) 0. in
  Array.blit p.Problem.crow 0 crow 0 nnz;
  Array.blit p.Problem.cval 0 cval 0 nnz;
  let lo = Array.make maxcols 0. and hi = Array.make maxcols 0. in
  Array.blit p.Problem.lo 0 lo 0 n;
  Array.blit p.Problem.hi 0 hi 0 n;
  for i = 0 to m - 1 do
    crow.(nnz + i) <- i;
    cval.(nnz + i) <- -1.;
    lo.(n + i) <- p.Problem.rlo.(i);
    hi.(n + i) <- p.Problem.rhi.(i)
  done;
  let sense_sign =
    match p.Problem.sense with Problem.Minimize -> 1. | Problem.Maximize -> -1.
  in
  let mm = max m 1 in
  {
    prob = p;
    n;
    m;
    ncols = n + m;
    cstart;
    crow;
    cval;
    lo;
    hi;
    obj = Array.map (fun c -> sense_sign *. c) p.Problem.obj;
    cost = Array.make maxcols 0.;
    status = Array.make maxcols At_lower;
    xval = Array.make maxcols 0.;
    basis = Array.make mm 0;
    binv = Array.make_matrix mm mm 0.;
    y = Array.make mm 0.;
    w = Array.make mm 0.;
    tol = 1e-7;
    work = new_work ();
  }

(* Export the final basis for reuse by a later [resolve]. Declined when
   an artificial column is still basic (degenerate phase-1 leftovers):
   such a basis has no meaning for the structural + slack column set. *)
let extract_basis st =
  let n = st.n and m = st.m in
  let ok = ref true in
  for i = 0 to m - 1 do
    if st.basis.(i) >= n + m then ok := false
  done;
  if not !ok then None
  else begin
    let codes = Bytes.create (n + m) in
    for j = 0 to n + m - 1 do
      Bytes.set codes j (code_of_vstat st.status.(j))
    done;
    Some
      {
        Basis.bn = n;
        bm = m;
        vstat = codes;
        rows = Array.sub st.basis 0 m;
      }
  end

let optimal st iters =
  let x = Array.sub st.xval 0 st.n in
  Optimal
    {
      x;
      obj = Problem.objective st.prob x;
      iterations = !iters;
      basis = extract_basis st;
    }

(* True costs on the structurals, zero on every other column. *)
let load_costs st =
  Array.blit st.obj 0 st.cost 0 st.n;
  Array.fill st.cost st.n (Array.length st.cost - st.n) 0.

(* Two-phase primal simplex from scratch under the loaded bounds. Every
   array it reads is (re)initialised here, so it runs on a fresh state
   and after any earlier solve on the same one alike. *)
let cold_run st ~max_iters ?deadline iters =
  st.work.cold_solves <- st.work.cold_solves + 1;
  let n = st.n and m = st.m and tol = st.tol in
  let lo = st.lo and hi = st.hi and status = st.status and xval = st.xval in
  load_costs st;
  (* initial nonbasic position: nearest finite bound, else free at 0 *)
  for j = 0 to n - 1 do
    if lo.(j) > neg_infinity then begin
      status.(j) <- At_lower;
      xval.(j) <- lo.(j)
    end
    else if hi.(j) < infinity then begin
      status.(j) <- At_upper;
      xval.(j) <- hi.(j)
    end
    else begin
      status.(j) <- Free_zero;
      xval.(j) <- 0.
    end
  done;
  (* initial row activities under the nonbasic point *)
  let activity = Problem.activities st.prob xval in
  let nart = ref 0 in
  for i = 0 to m - 1 do
    let sj = n + i in
    let act = activity.(i) in
    if act >= lo.(sj) -. tol && act <= hi.(sj) +. tol then begin
      (* slack can absorb the activity: make it basic *)
      st.basis.(i) <- sj;
      status.(sj) <- Basic;
      xval.(sj) <- act
    end
    else begin
      (* clamp the slack at its nearest bound and cover the violation
         with an artificial *)
      let bound, kind =
        if act < lo.(sj) then lo.(sj), At_lower else hi.(sj), At_upper
      in
      status.(sj) <- kind;
      xval.(sj) <- bound;
      let resid = act -. bound in
      (* row equation: a.x - s + g*z = 0, want z = |resid| >= 0 *)
      let g = if resid > 0. then -1. else 1. in
      let zj = n + m + !nart in
      incr nart;
      let k = st.cstart.(zj) in
      st.crow.(k) <- i;
      st.cval.(k) <- g;
      lo.(zj) <- 0.;
      hi.(zj) <- infinity;
      status.(zj) <- Basic;
      xval.(zj) <- Float.abs resid;
      st.basis.(i) <- zj
    end
  done;
  let ncols = n + m + !nart in
  st.ncols <- ncols;
  if m = 0 then begin
    (* No rows: each variable sits at the bound its cost prefers. *)
    let unbounded = ref false in
    for j = 0 to n - 1 do
      let c = st.cost.(j) in
      if c > 0. then
        if st.lo.(j) > neg_infinity then st.xval.(j) <- st.lo.(j)
        else unbounded := true
      else if c < 0. then
        if st.hi.(j) < infinity then st.xval.(j) <- st.hi.(j)
        else unbounded := true
    done;
    if !unbounded then Unbounded else optimal st iters
  end
  else begin
    refactorize st;
    (* Phase 1: minimize the sum of artificials. *)
    let result =
      if !nart > 0 then begin
        (* phase-1 objective: artificials only *)
        Array.fill st.cost 0 n 0.;
        for z = n + m to ncols - 1 do
          st.cost.(z) <- 1.
        done;
        match iterate st ~max_iters ?deadline iters with
        | L_iter_limit -> Some Iter_limit
        | L_unbounded ->
          (* phase-1 objective is bounded below by zero *)
          Some Infeasible
        | L_optimal ->
          if current_cost st > Float.max 1e-7 (tol *. 10.) then
            Some Infeasible
          else begin
            (* pin artificials at zero and restore true costs *)
            Array.blit st.obj 0 st.cost 0 n;
            for z = n + m to ncols - 1 do
              st.cost.(z) <- 0.;
              st.hi.(z) <- 0.;
              if st.status.(z) <> Basic then begin
                st.status.(z) <- At_lower;
                st.xval.(z) <- 0.
              end
            done;
            None
          end
      end
      else None
    in
    match result with
    | Some r -> r
    | None -> (
      (* Phase 2 with the real costs. *)
      match iterate st ~max_iters ?deadline iters with
      | L_iter_limit -> Iter_limit
      | L_unbounded -> Unbounded
      | L_optimal ->
        refactorize st;
        recompute_basics st;
        optimal st iters)
  end

(* ------------------------------------------------------------------ *)
(* Warm restart from a saved basis.                                    *)

exception Warm_reject

(* Install a saved basis: restore statuses and basis rows, and re-seat
   every nonbasic column on a bound of the problem now loaded (bounds
   may have moved or become infinite since the basis was saved), in one
   pass over the columns. Raises [Warm_reject] on any inconsistency: a
   wrong shape, a status code out of range, a basic count other than
   [m], or basis rows that do not claim [m] distinct basic columns. *)
let install_basis st (b : Basis.t) =
  let n = st.n and m = st.m in
  let total = n + m in
  if
    m = 0 || b.Basis.bn <> n || b.Basis.bm <> m
    || Bytes.length b.Basis.vstat <> total
    || Array.length b.Basis.rows <> m
  then raise Warm_reject;
  let nbasic = ref 0 in
  for j = 0 to total - 1 do
    match Bytes.get b.Basis.vstat j with
    | '\000' ->
      incr nbasic;
      st.status.(j) <- Basic
    | code ->
      let lo = st.lo.(j) and hi = st.hi.(j) in
      let kind =
        match code with
        | '\001' ->
          if lo > neg_infinity then At_lower
          else if hi < infinity then At_upper
          else Free_zero
        | '\002' ->
          if hi < infinity then At_upper
          else if lo > neg_infinity then At_lower
          else Free_zero
        | '\003' ->
          if lo <= 0. && 0. <= hi then Free_zero
          else if lo > 0. then At_lower
          else At_upper
        | _ -> raise Warm_reject
      in
      st.status.(j) <- kind;
      st.xval.(j) <-
        (match kind with At_lower -> lo | At_upper -> hi | _ -> 0.)
  done;
  if !nbasic <> m then raise Warm_reject;
  (* every basis row must claim a distinct basic column: a claimed
     column is marked nonbasic until all rows are placed *)
  for i = 0 to m - 1 do
    let j = b.Basis.rows.(i) in
    if j < 0 || j >= total || st.status.(j) <> Basic then raise Warm_reject;
    st.status.(j) <- Free_zero;
    st.basis.(i) <- j
  done;
  for i = 0 to m - 1 do
    st.status.(st.basis.(i)) <- Basic
  done;
  st.ncols <- total;
  load_costs st

(* One warm attempt from [b]: dual pivots restore primal feasibility
   after bound changes, then primal phase 2 finishes off any dual
   infeasibility left by objective changes. [None] means the attempt
   failed — wrong dimensions, an inconsistent or singular basis (at
   install or at any later refactorization), dual infeasibility, a
   stall — and the caller must solve cold. *)
let warm_run st b ~max_iters ?deadline iters =
  match
    install_basis st b;
    refactorize st;
    recompute_basics st;
    match dual_iterate st ~max_iters ?deadline iters with
    | D_infeasible | D_stalled ->
      (* never certify infeasibility (or give up) from a warm start:
         confirm with a cold solve *)
      None
    | D_iter_limit -> Some Iter_limit
    | D_feasible -> (
      match iterate st ~max_iters ?deadline iters with
      | L_iter_limit -> Some Iter_limit
      | L_unbounded -> None
      | L_optimal ->
        refactorize st;
        recompute_basics st;
        st.work.warm_hits <- st.work.warm_hits + 1;
        Some (optimal st iters))
  with
  | r -> r
  | exception (Warm_reject | Singular_basis) -> None

(* Solve under the bounds loaded in [st]: warm from [basis] when one is
   given, cold otherwise or when the warm attempt fails. Every count lands in [work] as it happens. *)
let run st ?basis ?max_iters ?(tol = 1e-7) ?deadline ?(work = new_work ())
    () =
  st.tol <- tol;
  st.work <- work;
  let max_iters =
    match max_iters with Some k -> k | None -> default_max_iters st.prob
  in
  let iters = ref 0 in
  let result =
    match basis with
    | Some b -> (
      st.work.warm_attempts <- st.work.warm_attempts + 1;
      match warm_run st b ~max_iters ?deadline iters with
      | Some r -> r
      | None ->
        (* pivots burned by the failed warm attempt still count against
           the caller's budget *)
        let sub = ref 0 in
        let r =
          cold_run st ~max_iters:(max 1 (max_iters - !iters)) ?deadline sub
        in
        iters := !iters + !sub;
        r)
    | None -> cold_run st ~max_iters ?deadline iters
  in
  result

let solve ?max_iters ?tol ?deadline ?work p =
  run (build p) ?max_iters ?tol ?deadline ?work ()

let resolve ?basis ?max_iters ?tol ?deadline ?work p =
  run
    (build p)
    ?basis ?max_iters ?tol ?deadline ?work ()

module Workspace = struct
  type t = state

  let create = build

  let resolve ?basis ?max_iters ?tol ?deadline ?work ~lo ~hi st =
    let n = st.n in
    if Array.length lo <> n || Array.length hi <> n then
      invalid_arg "Simplex.Workspace.resolve: bounds do not match the columns";
    for j = 0 to n - 1 do
      if lo.(j) > hi.(j) then
        invalid_arg
          (Printf.sprintf "Simplex.Workspace.resolve: variable %d has lo > hi" j)
    done;
    Array.blit lo 0 st.lo 0 n;
    Array.blit hi 0 st.hi 0 n;
    run st ?basis ?max_iters ?tol ?deadline ?work ()

  let duals st =
    compute_duals st;
    Array.sub st.y 0 st.m

  let reduced_costs st ~duals =
    Array.init st.n (fun j ->
        let d = ref st.obj.(j) in
        for k = st.cstart.(j) to st.cstart.(j + 1) - 1 do
          d := !d -. (duals.(st.crow.(k)) *. st.cval.(k))
        done;
        !d)
end
