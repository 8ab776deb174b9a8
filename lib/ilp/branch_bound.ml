open Lp

type sol = { x : float array; obj : float }

type limits = { max_nodes : int; max_seconds : float; max_simplex_iters : int }

let default_limits =
  { max_nodes = 200_000; max_seconds = 3600.; max_simplex_iters = max_int }

type stop_reason = Stop_nodes | Stop_time | Stop_iterations | Stop_gap

type stats = {
  nodes : int;
  lp : Simplex.work;
  elapsed : float;
  stopped : stop_reason option;
  columns : int;
  first_incumbent : int option;
}

let pp_stop_reason ppf = function
  | Stop_nodes -> Format.pp_print_string ppf "node limit"
  | Stop_time -> Format.pp_print_string ppf "time limit"
  | Stop_iterations -> Format.pp_print_string ppf "simplex iteration limit"
  | Stop_gap -> Format.pp_print_string ppf "relative gap"

(* Two decimals of a percent, except that a nonzero gap below 0.01%
   keeps two significant digits rather than printing as zero. *)
let pp_gap ppf gap =
  let pct = gap *. 100. in
  if pct = 0. || Float.abs pct >= 0.01 then Format.fprintf ppf "%.2f%%" pct
  else Format.fprintf ppf "%.2g%%" pct

type result =
  | Optimal of sol * stats
  | Feasible of sol * stats * float
  | Infeasible of stats
  | Unbounded of stats
  | Limit of stats

let stats_of = function
  | Optimal (_, s) | Feasible (_, s, _) | Infeasible s | Unbounded s | Limit s
    -> s

let solution_of = function
  | Optimal (s, _) | Feasible (s, _, _) -> Some s
  | Infeasible _ | Unbounded _ | Limit _ -> None

let pp_first ppf = function
  | Some k -> Format.fprintf ppf "first=%d" k
  | None -> Format.pp_print_string ppf "first=none"

let pp_result ppf = function
  | Optimal (s, st) ->
    Format.fprintf ppf "optimal obj=%g (nodes=%d, columns=%d, %a, %.3fs)" s.obj
      st.nodes st.columns pp_first st.first_incumbent st.elapsed
  | Feasible (s, st, gap) ->
    Format.fprintf ppf
      "feasible obj=%g gap=%a (nodes=%d, columns=%d, %a, %.3fs)" s.obj pp_gap
      gap st.nodes st.columns pp_first st.first_incumbent st.elapsed
  | Infeasible st -> Format.fprintf ppf "infeasible (nodes=%d)" st.nodes
  | Unbounded st -> Format.fprintf ppf "unbounded (nodes=%d)" st.nodes
  | Limit st ->
    let reason ppf = function
      | Some r -> Format.fprintf ppf "%a" pp_stop_reason r
      | None -> Format.pp_print_string ppf "limit"
    in
    Format.fprintf ppf "%a reached with no incumbent (nodes=%d, %.3fs)" reason
      st.stopped st.nodes st.elapsed

(* A node is a set of bound overrides relative to the search's current
   frame (below), plus the LP bound of its parent (used for best-first
   ordering) and the parent's optimal basis: the child differs by one
   tightened bound, so that basis is dual-feasible for the child LP and
   the dual simplex restarts from it in a handful of pivots. *)
type node = {
  overrides : (int * float * float) list;
  bound : float;
  nbasis : Simplex.Basis.t option;
}

(* Minimal binary heap on node bound (internal minimization). Slots at
   [size] and beyond hold [vacant], so a popped node and its basis
   snapshot are garbage as soon as the search lets go of them. *)
module Heap = struct
  type t = { mutable data : node array; mutable size : int }

  let vacant = { overrides = []; bound = 0.; nbasis = None }
  let create () = { data = Array.make 64 vacant; size = 0 }
  let is_empty h = h.size = 0

  let push h node =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) vacant in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- node;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0 && h.data.((!i - 1) / 2).bound > h.data.(!i).bound
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- vacant;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.data.(l).bound < h.data.(!smallest).bound then
        smallest := l;
      if r < h.size && h.data.(r).bound < h.data.(!smallest).bound then
        smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !smallest
      end
    done;
    top

  (* Keep the nodes [f] maps to [Some], re-pushed in slot order. *)
  let filter_map h f =
    let old = Array.sub h.data 0 h.size in
    Array.fill h.data 0 h.size vacant;
    h.size <- 0;
    Array.iter (fun node -> Option.iter (push h) (f node)) old

  (* Best (lowest) bound among open nodes, for gap reporting. *)
  let best_bound h = if h.size = 0 then None else Some h.data.(0).bound
end

(* Integrality tolerance: an integer variable within this distance of
   an integer is integral. *)
let int_tol = 1e-6

(* [Float.round x], bit for bit, without its C call when [x] is already
   an integer in [int] range — most variables of an LP vertex sit on
   integral bounds. [Float.of_int (Float.to_int x) = x] holds only for
   such [x], and [Float.round] returns them unchanged, [-0.] included. *)
let[@inline] round x =
  if Float.of_int (Float.to_int x) = x then x else Float.round x

(* The ILP a search runs on: the original problem until the first
   compaction, afterwards its free columns only, with the fixed
   columns' row activity folded into the row bounds and their objective
   into [offset] (in the problem's own sense). [cols] maps each column
   to its original index, ascending; the root frame's map is the
   identity, left unbuilt ([||]) until the first fixing. [base_lo] /
   [base_hi] are the root bounds, tightened in place as columns are
   fixed between compactions; [cur_lo] / [cur_hi] carry a node's
   overrides during its LP, and [rounded] is the rounding heuristic's
   buffer. *)
type frame = {
  fp : Problem.t;
  cols : int array;
  offset : float;
  ws : Simplex.Workspace.t;
  base_lo : float array;
  base_hi : float array;
  cur_lo : float array;
  cur_hi : float array;
  rounded : float array;
}

let make_frame ~cols ~offset (fp : Problem.t) =
  let base_lo = Array.copy fp.Problem.lo and base_hi = Array.copy fp.Problem.hi in
  {
    fp;
    cols;
    offset;
    ws = Simplex.Workspace.create fp;
    base_lo;
    base_hi;
    cur_lo = Array.copy base_lo;
    cur_hi = Array.copy base_hi;
    rounded = Array.make (Problem.nvars fp) 0.;
  }

(* [p] over its original columns [cols], every other column held at
   its value in [fixed]: the held columns' row activity folded into the
   row bounds, and their objective returned as an offset (in [p]'s own
   sense). It is built from [p] itself, so successive compactions do
   not compound the rounding of the folds. *)
let fold_fixed (p : Problem.t) ~fixed ~cols =
  let held = Array.make (Problem.nvars p) true in
  Array.iter (fun j -> held.(j) <- false) cols;
  let offset = ref 0. and act = Array.make (Problem.nrows p) 0. in
  Array.iteri
    (fun j c ->
      if held.(j) then begin
        offset := !offset +. (c *. fixed.(j));
        for k = p.Problem.cstart.(j) to p.Problem.cstart.(j + 1) - 1 do
          let i = p.Problem.crow.(k) in
          act.(i) <- act.(i) +. (p.Problem.cval.(k) *. fixed.(j))
        done
      end)
    p.Problem.obj;
  let q = Problem.sub p ~cols ~rows:(Array.init (Problem.nrows p) Fun.id) in
  ( {
      q with
      Problem.rlo = Array.mapi (fun i r -> r -. act.(i)) q.Problem.rlo;
      rhi = Array.mapi (fun i r -> r -. act.(i)) q.Problem.rhi;
    },
    !offset )

(* What a reduced cost [d] on a column resting on [side] with bound
   span [span] can hide from the root bound: nothing when its sign is
   the optimal one, [|d| * span] when the dual tolerance let the wrong
   sign through. *)
let slop_of side d span =
  match side with
  | `Lower when d < 0. -> -.d *. span
  | `Upper when d > 0. -> d *. span
  | `Free when d <> 0. -> infinity
  | _ -> 0.

(* The slop of a root with basis [b], structural reduced costs [d] and
   row duals [y] (a slack's reduced cost is its row's dual): the most
   the whole root point can hide from its bound. *)
let root_slop (p : Problem.t) b d y =
  let n = Problem.nvars p in
  let slop = ref 0. in
  for j = 0 to n - 1 do
    slop :=
      !slop
      +. slop_of (Simplex.Basis.resting b j) d.(j)
           (p.Problem.hi.(j) -. p.Problem.lo.(j))
  done;
  for i = 0 to Problem.nrows p - 1 do
    slop :=
      !slop
      +. slop_of (Simplex.Basis.resting b (n + i)) y.(i)
           (p.Problem.rhi.(i) -. p.Problem.rlo.(i))
  done;
  !slop

(* The root restricted ILP (see DESIGN.md, "Root restricted ILP", for
   the sweep that chose both): the root LP's support plus the
   [restricted_extra] columns at a bound with the least root reduced
   cost, searched under at most [restricted_nodes] of the ILP's own
   nodes. *)
let restricted_extra = 50
let restricted_nodes = 300

(* [root_ilp] is whether a fractional root runs the restricted ILP;
   the restricted ILP's own search does not. *)
let rec search ~root_ilp ~limits ~rel_gap ?warm_start ?basis_out
    (p : Problem.t) =
  (* Internal objective is minimized: internal = sense_sign * external. *)
  let start = Unix.gettimeofday () in
  let deadline = start +. limits.max_seconds in
  let nodes = ref 0 and work = Simplex.new_work () in
  (* the node count when the first incumbent appeared *)
  let first = ref None in
  let sense_sign =
    match p.Problem.sense with Problem.Minimize -> 1. | Problem.Maximize -> -1.
  in
  let stop = ref None in
  (* first stop reason wins; later triggers are consequences of it *)
  let note reason = if !stop = None then stop := Some reason in
  (* an LP that came back [Iter_limit] either crossed the wall-clock
     deadline (polled inside the simplex) or exhausted the pivot budget *)
  let classify_iter_limit () =
    if Unix.gettimeofday () -. start > limits.max_seconds then note Stop_time
    else note Stop_iterations
  in
  let n = Problem.nvars p in
  (* Every LP of the search shares the frame's rows and objective and
     differs only in bounds: one simplex workspace per frame, re-solved
     in place at every node. *)
  let fr = ref (make_frame ~cols:[||] ~offset:0. p) in
  let stats () =
    {
      nodes = !nodes;
      lp = work;
      elapsed = Unix.gettimeofday () -. start;
      stopped = !stop;
      columns = Problem.nvars !fr.fp;
      first_incumbent = !first;
    }
  in
  let solve_lp ?basis overrides =
    let fr = !fr in
    let iter_budget = limits.max_simplex_iters - Simplex.iterations work in
    if iter_budget <= 0 then begin
      note Stop_iterations;
      Simplex.Iter_limit
    end
    else begin
      List.iter
        (fun (j, lo, hi) ->
          fr.cur_lo.(j) <- Float.max fr.cur_lo.(j) lo;
          fr.cur_hi.(j) <- Float.min fr.cur_hi.(j) hi)
        overrides;
      let max_iters = min (Simplex.default_max_iters fr.fp) iter_budget in
      let r =
        Simplex.Workspace.resolve ?basis ~max_iters ~deadline ~work
          ~lo:fr.cur_lo ~hi:fr.cur_hi fr.ws
      in
      List.iter
        (fun (j, _, _) ->
          fr.cur_lo.(j) <- fr.base_lo.(j);
          fr.cur_hi.(j) <- fr.base_hi.(j))
        overrides;
      r
    end
  in
  let incumbent = ref None and improved = ref false in
  let incumbent_internal () =
    match !incumbent with
    | None -> infinity
    | Some s -> sense_sign *. s.obj
  in
  (* A node is worth expanding only if it can improve the incumbent by
     more than the relative MIP gap (CPLEX's default stopping rule is
     1e-4; ours defaults to 0 = prove exact optimality). *)
  let gap_slack () =
    match !incumbent with
    | None -> 0.
    | Some s -> rel_gap *. Float.max 1e-9 (Float.abs (sense_sign *. s.obj))
  in
  (* A node is pruned when its bound is within 1e-9 of the incumbent,
     or within the slack when that is wider. The least bound among nodes
     pruned only by the slack is kept: each could still improve the
     incumbent, so a search that dropped one proves a gap, not
     optimality. *)
  let gap_bound = ref infinity in
  let[@inline] pruned bound =
    let inc = incumbent_internal () in
    if bound < inc -. Float.max 1e-9 (gap_slack ()) then false
    else begin
      if bound < inc -. 1e-9 && bound < !gap_bound then gap_bound := bound;
      true
    end
  in
  (* The value each fixed original column is held at; [nan] while the
     column is free. Built at the first fixing. *)
  let fixed = ref [||] in
  (* [x] is a point of the current frame. After a compaction it is
     expanded to full length, and it counts only if the original problem
     accepts it. *)
  let try_incumbent x =
    let fr = !fr in
    let full =
      if fr.fp == p then x
      else begin
        let full = Array.copy !fixed in
        Array.iteri (fun k j -> full.(j) <- x.(k)) fr.cols;
        full
      end
    in
    let obj = Problem.objective p full in
    if
      sense_sign *. obj < incumbent_internal () -. 1e-9
      && (full == x || Problem.feasible ~tol:1e-6 p full)
    then begin
      if !incumbent = None then first := Some !nodes;
      incumbent := Some { x = (if full == x then Array.copy x else full); obj };
      improved := true
    end
  in
  (* The variable to branch on at an LP point: the most fractional
     integer variable, or None when the point is integral. The same
     pass rounds every integer variable to the nearest integer inside
     its bounds, into one buffer reused at every node; a fractional
     point's rounding becomes an incumbent when it happens to be
     feasible (the nearest-rounding heuristic). *)
  let branching_var x =
    let fr = !fr in
    let integer = fr.fp.Problem.integer and rounded = fr.rounded in
    let best = ref (-1) and best_frac = ref 0. in
    for j = 0 to Array.length integer - 1 do
      let xj = x.(j) in
      if integer.(j) then begin
        let r = round xj in
        let f = Float.abs (xj -. r) in
        if f > int_tol && f > !best_frac then begin
          best := j;
          best_frac := f
        end;
        rounded.(j) <- Float.min fr.base_hi.(j) (Float.max fr.base_lo.(j) r)
      end
      else rounded.(j) <- xj
    done;
    if !best < 0 then None
    else begin
      if Problem.feasible ~tol:1e-6 fr.fp rounded then try_incumbent rounded;
      Some !best
    end
  in
  let heap = Heap.create () in
  (* Reduced-cost fixing (see DESIGN.md). [root] holds the root LP's
     row duals, basis and bound once the root is fractional; [root_rc]
     its structural reduced costs and their slop, computed by the
     restricted ILP or at the first incumbent. [fixed_here] counts the
     current frame's columns fixed in place since its compaction. *)
  let root = ref None and root_rc = ref None and fixed_here = ref 0 in
  (* A node whose overrides exclude a column's in-place fixed value
     holds nothing better than the incumbent. *)
  let excluded overrides =
    !fixed_here > 0
    &&
    let fr = !fr in
    List.exists
      (fun (j, lo, hi) ->
        Float.max fr.base_lo.(j) lo > Float.min fr.base_hi.(j) hi)
      overrides
  in
  (* The root LP's structural reduced costs and their slop, computed
     once, by the root frame's workspace: the first caller (the
     restricted ILP or the first fixing) precedes any compaction. *)
  let root_costs y b =
    match !root_rc with
    | Some rc -> rc
    | None ->
      let d = Simplex.Workspace.reduced_costs !fr.ws ~duals:y in
      let rc = (d, root_slop p b d y) in
      root_rc := Some rc;
      rc
  in
  (* Rebuild the ILP over the current frame's free columns, and move
     every open node to it: overrides on kept columns are re-indexed,
     a node whose override excludes a fixed column's value goes, and
     each basis snapshot is restricted to the kept columns (falling
     back to a cold solve when a fixed column was basic). *)
  let compact () =
    let old = !fr in
    let keep =
      Array.of_seq
        (Seq.filter
           (fun k -> Float.is_nan !fixed.(old.cols.(k)))
           (Seq.init (Array.length old.cols) Fun.id))
    in
    let pos = Array.make (Array.length old.cols) (-1) in
    Array.iteri (fun i k -> pos.(k) <- i) keep;
    let cols = Array.map (fun k -> old.cols.(k)) keep in
    let fp, offset = fold_fixed p ~fixed:!fixed ~cols in
    fr := make_frame ~cols ~offset fp;
    fixed_here := 0;
    let rec remap acc = function
      | [] -> Some (List.rev acc)
      | (k, lo, hi) :: rest ->
        if pos.(k) >= 0 then remap ((pos.(k), lo, hi) :: acc) rest
        else
          let v = !fixed.(old.cols.(k)) in
          if v < lo || v > hi then None else remap acc rest
    in
    Heap.filter_map heap (fun node ->
        match remap [] node.overrides with
        | None -> None
        | Some overrides ->
          Some
            {
              node with
              overrides;
              nbasis =
                Option.bind node.nbasis (fun b ->
                    Simplex.Basis.restrict b ~keep);
            })
  in
  (* Run on the first incumbent and on each improvement: fix every
     integer column the root reduced costs prove cannot move off its
     root bound without losing to the incumbent, exactly (no gap
     slack), and compact once half of the frame is fixed. *)
  let fix () =
    improved := false;
    match (!root, !incumbent) with
    | Some (y, b, root_bound), Some s ->
      let d, slop = root_costs y b in
      if Array.length !fixed = 0 then begin
        (* the first incumbent precedes any compaction, so the frame is
           still the root's and its column map is the identity *)
        fr := { !fr with cols = Array.init n Fun.id };
        fixed := Array.make n Float.nan
      end;
      (* every point that moves a column off its root bound costs at
         least [gain] more than the root *)
      let inc = sense_sign *. s.obj in
      let proves gain = root_bound +. gain -. slop >= inc -. 1e-9 in
      let fr = !fr in
      Array.iteri
        (fun k j ->
          if p.Problem.integer.(j) && Float.is_nan !fixed.(j) then begin
            let at =
              match Simplex.Basis.resting b j with
              | `Lower when d.(j) > 0. && proves d.(j) -> p.Problem.lo.(j)
              | `Upper when d.(j) < 0. && proves (-.d.(j)) -> p.Problem.hi.(j)
              | _ -> Float.nan
            in
            if Float.is_integer at then begin
              !fixed.(j) <- at;
              fr.base_lo.(k) <- at;
              fr.base_hi.(k) <- at;
              fr.cur_lo.(k) <- at;
              fr.cur_hi.(k) <- at;
              incr fixed_here
            end
          end)
        fr.cols;
      if !fixed_here > 0 && 2 * !fixed_here >= Array.length fr.cols then
        compact ()
    | _ -> ()
  in
  (* The root restricted ILP (see DESIGN.md) over the columns the root
     point [x] uses, the [restricted_extra] columns at a bound with the
     least reduced cost, and every column fixed at a nonzero bound; each
     other column is held at the bound it rests on. Its nodes, pivots
     and time are this search's own, and its solution is an incumbent
     like any other once the original problem accepts it. *)
  let restricted_ilp x =
    match !root with
    | None -> ()
    | Some (y, b, _) ->
      let lo = p.Problem.lo and hi = p.Problem.hi in
      let keep =
        Array.init n (fun j ->
            Simplex.Basis.resting b j = `Basic
            || x.(j) <> lo.(j)
            || (lo.(j) = hi.(j) && lo.(j) <> 0.))
      in
      (* the other columns that could leave the bound they rest on;
         with no more of them than [restricted_extra], the restricted
         ILP would be this one *)
      let movable =
        Array.of_seq
          (Seq.filter
             (fun j ->
               (not keep.(j)) && lo.(j) < hi.(j))
             (Seq.init n Fun.id))
      in
      if Array.length movable > restricted_extra then begin
        let d, _ = root_costs y b in
        Array.stable_sort (fun i j -> Float.compare d.(i) d.(j)) movable;
        for r = 0 to restricted_extra - 1 do
          keep.(movable.(r)) <- true
        done;
        let cols =
          Array.of_seq (Seq.filter (fun j -> keep.(j)) (Seq.init n Fun.id))
        in
        let held = Array.copy lo in
        let sub_limits =
          {
            max_nodes = min restricted_nodes (limits.max_nodes - !nodes);
            max_seconds = limits.max_seconds -. (Unix.gettimeofday () -. start);
            max_simplex_iters =
              limits.max_simplex_iters - Simplex.iterations work;
          }
        in
        let r =
          search ~root_ilp:false ~limits:sub_limits ~rel_gap
            ?warm_start:(Simplex.Basis.restrict b ~keep:cols)
            (fst (fold_fixed p ~fixed:held ~cols))
        in
        (match solution_of r with
        | None -> ()
        | Some s ->
          Array.iteri (fun k j -> held.(j) <- s.x.(k)) cols;
          if Problem.feasible ~tol:1e-6 p held then try_incumbent held);
        (* charged after the install, which dates the incumbent to the
           root *)
        let st = stats_of r in
        nodes := !nodes + st.nodes;
        Simplex.add_work ~into:work st.lp
      end
  in
  match solve_lp ?basis:warm_start [] with
  | Simplex.Infeasible -> Infeasible (stats ())
  | Simplex.Unbounded -> Unbounded (stats ())
  | Simplex.Iter_limit ->
    classify_iter_limit ();
    Limit (stats ())
  | Simplex.Optimal root_lp ->
    (match basis_out with
    | Some out -> out := root_lp.Simplex.basis
    | None -> ());
    let root_bound = sense_sign *. root_lp.Simplex.obj in
    (match branching_var root_lp.Simplex.x with
    | None ->
      first := Some 0;
      Optimal ({ x = root_lp.Simplex.x; obj = root_lp.Simplex.obj }, stats ())
    | Some _ ->
      (match root_lp.Simplex.basis with
      | Some b -> root := Some (Simplex.Workspace.duals !fr.ws, b, root_bound)
      | None -> ());
      Heap.push heap
        { overrides = []; bound = root_bound; nbasis = root_lp.Simplex.basis };
      (* the restricted ILP runs unless the root's rounding gave an
         incumbent that already compacted the ILP *)
      if root_ilp then begin
        if !improved then fix ();
        if !fr.fp == p then restricted_ilp root_lp.Simplex.x
      end;
      let best_open = ref root_bound in
      let limit_hit = ref false in
      while (not (Heap.is_empty heap)) && not !limit_hit do
        if !improved then fix ();
        if Heap.is_empty heap then ()
        else if !nodes >= limits.max_nodes then begin
          note Stop_nodes;
          limit_hit := true
        end
        else if Unix.gettimeofday () -. start > limits.max_seconds then begin
          note Stop_time;
          limit_hit := true
        end
        else begin
          let node = Heap.pop heap in
          best_open :=
            (match Heap.best_bound heap with
            | Some b -> Float.min node.bound b
            | None -> node.bound);
          (* prune against the incumbent (with the MIP-gap slack) *)
          if not (pruned node.bound || excluded node.overrides) then begin
            incr nodes;
            match solve_lp ?basis:node.nbasis node.overrides with
            | Simplex.Infeasible -> ()
            | Simplex.Iter_limit ->
              classify_iter_limit ();
              limit_hit := true
            | Simplex.Unbounded ->
              (* cannot happen below an optimal root with added bounds,
                 except through numerical trouble; treat as a dead end *)
              ()
            | Simplex.Optimal lp ->
              let bound = sense_sign *. (lp.Simplex.obj +. !fr.offset) in
              if not (pruned bound) then begin
                match branching_var lp.Simplex.x with
                | None -> try_incumbent lp.Simplex.x
                | Some j ->
                  let xj = lp.Simplex.x.(j) in
                  let fl = Float.of_int (int_of_float (floor (xj +. int_tol))) in
                  Heap.push heap
                    {
                      overrides = (j, neg_infinity, fl) :: node.overrides;
                      bound;
                      nbasis = lp.Simplex.basis;
                    };
                  Heap.push heap
                    {
                      overrides = (j, fl +. 1., infinity) :: node.overrides;
                      bound;
                      nbasis = lp.Simplex.basis;
                    }
              end
          end
        end
      done;
      let st = stats () in
      (match !incumbent with
      | None -> if !limit_hit then Limit st else Infeasible st
      | Some s ->
        let inc = sense_sign *. s.obj in
        let gap_to lb =
          if Float.abs inc < 1e-12 then Float.abs (inc -. lb)
          else Float.abs (inc -. lb) /. Float.abs inc
        in
        (* a gap-pruned node that a later, better incumbent prunes
           outright no longer stands between it and optimality *)
        let gap_lb =
          if !gap_bound < inc -. 1e-9 then !gap_bound else infinity
        in
        if !limit_hit || not (Heap.is_empty heap) then begin
          let open_bound =
            match Heap.best_bound heap with
            | Some b -> Float.min !best_open b
            | None -> !best_open
          in
          let gap = gap_to (Float.min open_bound gap_lb) in
          if gap <= 1e-9 && gap_lb = infinity then Optimal (s, st)
          else Feasible (s, st, gap)
        end
        else if gap_lb < infinity then
          (* each dropped node was within [rel_gap] of the incumbent of
             its time, and so of this one, which is no worse; the min
             absorbs the rounding of the two computations *)
          Feasible
            ( s,
              { st with stopped = Some Stop_gap },
              Float.min rel_gap (gap_to gap_lb) )
        else Optimal (s, st)))

let solve ?(limits = default_limits) ?(rel_gap = 0.) ?warm_start ?basis_out
    p =
  search ~root_ilp:true ~limits ~rel_gap ?warm_start ?basis_out p
