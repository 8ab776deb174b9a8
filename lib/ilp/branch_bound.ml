open Lp

type sol = { x : float array; obj : float }

type limits = { max_nodes : int; max_seconds : float; max_simplex_iters : int }

let default_limits =
  { max_nodes = 200_000; max_seconds = 3600.; max_simplex_iters = max_int }

type stop_reason = Stop_nodes | Stop_time | Stop_iterations | Stop_gap

type stats = {
  nodes : int;
  simplex_iterations : int;
  elapsed : float;
  stopped : stop_reason option;
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

let pp_result ppf = function
  | Optimal (s, st) ->
    Format.fprintf ppf "optimal obj=%g (nodes=%d, %.3fs)" s.obj st.nodes
      st.elapsed
  | Feasible (s, st, gap) ->
    Format.fprintf ppf "feasible obj=%g gap=%a (nodes=%d, %.3fs)" s.obj pp_gap
      gap st.nodes st.elapsed
  | Infeasible st -> Format.fprintf ppf "infeasible (nodes=%d)" st.nodes
  | Unbounded st -> Format.fprintf ppf "unbounded (nodes=%d)" st.nodes
  | Limit st ->
    let reason ppf = function
      | Some r -> Format.fprintf ppf "%a" pp_stop_reason r
      | None -> Format.pp_print_string ppf "limit"
    in
    Format.fprintf ppf "%a reached with no incumbent (nodes=%d, %.3fs)" reason
      st.stopped st.nodes st.elapsed

(* A node is a set of bound overrides relative to the root problem,
   plus the LP bound of its parent (used for best-first ordering) and
   the parent's optimal basis: the child differs by one tightened
   bound, so that basis is dual-feasible for the child LP and the dual
   simplex restarts from it in a handful of pivots. *)
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

let solve ?(limits = default_limits) ?(rel_gap = 0.) ?warm_start ?basis_out
    (p : Problem.t) =
  (* Internal objective is minimized: internal = sense_sign * external. *)
  let start = Unix.gettimeofday () in
  let deadline = start +. limits.max_seconds in
  let nodes = ref 0 and lp_iters = ref 0 in
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
  let stats () =
    {
      nodes = !nodes;
      simplex_iterations = !lp_iters;
      elapsed = Unix.gettimeofday () -. start;
      stopped = !stop;
    }
  in
  let base_lo = Array.map (fun v -> v.Problem.lo) p.Problem.vars in
  let base_hi = Array.map (fun v -> v.Problem.hi) p.Problem.vars in
  let cur_lo = Array.copy base_lo and cur_hi = Array.copy base_hi in
  let with_overrides overrides f =
    List.iter
      (fun (j, lo, hi) ->
        cur_lo.(j) <- Float.max cur_lo.(j) lo;
        cur_hi.(j) <- Float.min cur_hi.(j) hi)
      overrides;
    let r = f () in
    List.iter
      (fun (j, _, _) ->
        cur_lo.(j) <- base_lo.(j);
        cur_hi.(j) <- base_hi.(j))
      overrides;
    r
  in
  (* Every LP of the search shares the problem's rows and objective and
     differs only in bounds: one simplex workspace, re-solved in place
     at every node. *)
  let ws = Simplex.Workspace.create p in
  let solve_lp ?basis overrides =
    let iter_budget = limits.max_simplex_iters - !lp_iters in
    if iter_budget <= 0 then begin
      note Stop_iterations;
      Simplex.Iter_limit
    end
    else
      with_overrides overrides (fun () ->
          let max_iters = min (Simplex.default_max_iters p) iter_budget in
          Simplex.Workspace.resolve ?basis ~max_iters ~deadline
            ~iterations:lp_iters ~lo:cur_lo ~hi:cur_hi ws)
  in
  let incumbent = ref None in
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
  let try_incumbent x =
    let obj = Problem.objective p x in
    let internal = sense_sign *. obj in
    if internal < incumbent_internal () -. 1e-9 then
      incumbent := Some { x = Array.copy x; obj }
  in
  let n = Problem.nvars p in
  (* The variable to branch on at an LP point: the most fractional
     integer variable, or None when the point is integral. The same
     pass rounds every integer variable to the nearest integer inside
     its bounds, into one buffer reused at every node; a fractional
     point's rounding becomes an incumbent when it happens to be
     feasible (the nearest-rounding heuristic). *)
  let rounded = Array.make n 0. in
  let branching_var x =
    let best = ref (-1) and best_frac = ref 0. in
    for j = 0 to n - 1 do
      let xj = x.(j) in
      if p.Problem.vars.(j).Problem.integer then begin
        let r = round xj in
        let f = Float.abs (xj -. r) in
        if f > int_tol && f > !best_frac then begin
          best := j;
          best_frac := f
        end;
        rounded.(j) <- Float.min base_hi.(j) (Float.max base_lo.(j) r)
      end
      else rounded.(j) <- xj
    done;
    if !best < 0 then None
    else begin
      if Problem.feasible ~tol:1e-6 p rounded then try_incumbent rounded;
      Some !best
    end
  in
  let heap = Heap.create () in
  match solve_lp ?basis:warm_start [] with
  | Simplex.Infeasible -> Infeasible (stats ())
  | Simplex.Unbounded -> Unbounded (stats ())
  | Simplex.Iter_limit ->
    classify_iter_limit ();
    Limit (stats ())
  | Simplex.Optimal root ->
    (match basis_out with
    | Some out -> out := root.Simplex.basis
    | None -> ());
    let root_bound = sense_sign *. root.Simplex.obj in
    (match branching_var root.Simplex.x with
    | None -> Optimal ({ x = root.Simplex.x; obj = root.Simplex.obj }, stats ())
    | Some _ ->
      Heap.push heap
        { overrides = []; bound = root_bound; nbasis = root.Simplex.basis };
      let best_open = ref root_bound in
      let limit_hit = ref false in
      while (not (Heap.is_empty heap)) && not !limit_hit do
        if !nodes >= limits.max_nodes then begin
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
          if not (pruned node.bound) then begin
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
              let bound = sense_sign *. lp.Simplex.obj in
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
