open Lp

let is_infeasible ?work p =
  match Simplex.solve ?work p with Simplex.Infeasible -> true | _ -> false

let rows ?work (p : Problem.t) =
  if not (is_infeasible ?work p) then None
  else begin
    let m = Problem.nrows p in
    let kept = Array.make m true in
    let cols = Array.init (Problem.nvars p) Fun.id in
    let restricted () =
      let rows = List.filter (fun i -> kept.(i)) (List.init m Fun.id) in
      Problem.sub p ~cols ~rows:(Array.of_list rows)
    in
    for i = 0 to m - 1 do
      kept.(i) <- false;
      if not (is_infeasible ?work (restricted ())) then kept.(i) <- true
    done;
    Some (List.filter (fun i -> kept.(i)) (List.init m Fun.id))
  end
