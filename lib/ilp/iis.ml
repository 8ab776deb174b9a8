open Lp

let is_infeasible ?work p =
  match Simplex.solve ?work p with Simplex.Infeasible -> true | _ -> false

let rows ?work (p : Problem.t) =
  if not (is_infeasible ?work p) then None
  else begin
    let m = Problem.nrows p in
    let kept = Array.make m true in
    let restricted () =
      let rows =
        List.filteri (fun i _ -> kept.(i)) (Array.to_list p.Problem.rows)
      in
      { p with Problem.rows = Array.of_list rows }
    in
    for i = 0 to m - 1 do
      kept.(i) <- false;
      if not (is_infeasible ?work (restricted ())) then kept.(i) <- true
    done;
    let out = ref [] in
    for i = m - 1 downto 0 do
      if kept.(i) then out := i :: !out
    done;
    Some !out
  end
