(* Resilience-layer tests: the fault-injection grammar, typed CSV
   errors, deadline propagation, the failure taxonomy, and — driven by
   deterministic faults — every rung of the Section 4.4 fallback ladder
   plus the Section 4.5 worker-crash/repair path.

   Every test that installs faults clears them on the way out;
   [Faults.install] resets the global ILP call counter, so each case is
   deterministic in isolation and in sequence. *)

module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation
module B = Ilp.Branch_bound
module E = Pkg.Eval

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let with_faults spec f =
  (match Pkg.Faults.parse spec with
  | Ok s -> Pkg.Faults.install s
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Pkg.Faults.clear f

let compile rel q =
  Paql.Translate.compile_exn (R.schema rel) (Paql.Parser.parse_exn q)

let kind_of (r : E.report) =
  match r.E.status with E.Failed f -> Some f.E.kind | _ -> None

(* ------------------------------------------------------------------ *)
(* Fault-spec grammar                                                 *)
(* ------------------------------------------------------------------ *)

let test_faults_parse () =
  let ok s = match Pkg.Faults.parse s with Ok _ -> true | Error _ -> false in
  checkb "single ilp directive" true (ok "ilp=3:limit");
  checkb "stage directive" true (ok "stage=sketch:infeasible");
  checkb "conjunction" true (ok "stage=refine,group=2:raise");
  checkb "multiple directives" true
    (ok "ilp=1:limit; stage=hybrid:infeasible; worker=0:crash");
  checkb "spaces tolerated" true (ok " ilp=1 : raise ");
  checkb "empty spec rejected" false (ok "");
  checkb "unknown action rejected" false (ok "ilp=1:explode");
  checkb "unknown key rejected" false (ok "cpu=1:limit");
  checkb "missing action rejected" false (ok "ilp=1");
  checkb "non-numeric call rejected" false (ok "ilp=x:limit");
  checkb "crash needs worker" false (ok "ilp=1:crash");
  checkb "worker only crashes" false (ok "worker=0:limit");
  checkb "store read fault" true (ok "store=read:fail");
  checkb "store checksum fault" true (ok "store=checksum:fail");
  checkb "store alongside others" true (ok "store=read:fail; ilp=1:limit");
  checkb "unknown store selector rejected" false (ok "store=x:fail");
  checkb "store only fails" false (ok "store=read:limit");
  checkb "store cannot combine" false (ok "store=read,group=1:fail");
  checkb "lp warm fault" true (ok "lp=warm:reject");
  checkb "lp singular fault" true (ok "lp=singular:reject");
  checkb "lp alongside others" true (ok "lp=warm:reject; ilp=1:limit");
  checkb "unknown lp selector rejected" false (ok "lp=x:reject");
  checkb "lp only rejects" false (ok "lp=warm:limit");
  checkb "lp cannot combine" false (ok "lp=warm,group=1:reject");
  checkb "shard crash" true (ok "shard=1:crash");
  checkb "shard drop" true (ok "shard=0:drop");
  checkb "shard stall with ms" true (ok "shard=2:stall:300");
  checkb "repl lag" true (ok "repl=lag:2");
  checkb "shard alongside others" true (ok "shard=0:crash; repl=lag:1");
  checkb "shard needs index" false (ok "shard=x:crash");
  checkb "shard unknown action rejected" false (ok "shard=1:bogus");
  checkb "shard stall needs ms" false (ok "shard=1:stall");
  checkb "shard stall ms numeric" false (ok "shard=1:stall:soon");
  checkb "repl lag numeric" false (ok "repl=lag:x");
  checkb "repl lag non-negative" false (ok "repl=lag:-1");
  checkb "shard cannot combine" false (ok "shard=1,group=2:crash");
  checkb "partition build fault" true (ok "partition=build:fail");
  checkb "partition level fault" true (ok "partition=level:2");
  checkb "partition level zero" true (ok "partition=level:0");
  checkb "partition alongside others" true
    (ok "partition=level:1; ilp=1:limit");
  checkb "partition level negative rejected" false (ok "partition=level:-1");
  checkb "partition level non-numeric rejected" false (ok "partition=level:x");
  checkb "partition unknown selector rejected" false (ok "partition=x:fail");
  checkb "partition build only fails" false (ok "partition=build:limit");
  checkb "partition cannot combine" false (ok "partition=build,group=1:fail");
  checkb "stoch scenario fault" true (ok "stoch=scenario:fail");
  checkb "stoch validate fault" true (ok "stoch=validate:fail");
  checkb "stoch alongside others" true (ok "stoch=scenario:fail; ilp=1:limit");
  checkb "stoch unknown selector rejected" false (ok "stoch=x:fail");
  checkb "stoch only fails" false (ok "stoch=scenario:limit");
  checkb "stoch cannot combine" false (ok "stoch=scenario,group=1:fail");
  checkb "summary stage directive" true (ok "stage=summary:limit");
  checkb "scenario stage name known" true (ok "stage=scenario:raise");
  checkb "validate stage name known" true (ok "stage=validate:raise");
  checkb "fence lease expiry fault" true (ok "fence=lease:expire");
  checkb "fence stale epoch fault" true (ok "fence=epoch:stale");
  checkb "fence alongside others" true (ok "fence=lease:expire; ilp=1:limit");
  checkb "fence unknown selector rejected" false (ok "fence=x:expire");
  checkb "fence lease only expires" false (ok "fence=lease:stale");
  checkb "fence epoch only stales" false (ok "fence=epoch:expire");
  checkb "fence cannot combine" false (ok "fence=lease,group=1:expire")

let test_faults_selector_semantics () =
  with_faults "ilp=2:infeasible" (fun () ->
      checkb "active" true (Pkg.Faults.active ());
      let p =
        Lp.Problem.make ~sense:Lp.Problem.Maximize
          ~vars:[ Lp.Problem.var ~integer:true ~hi:1. 1. ]
          ~rows:[ Lp.Problem.row [ (0, 1.) ] ~lo:neg_infinity ~hi:1. ]
      in
      (match Pkg.Faults.solve ~stage:E.Direct p with
      | B.Optimal _ -> ()
      | r -> Alcotest.failf "call 1 should be clean, got %a" B.pp_result r);
      match Pkg.Faults.solve ~stage:E.Direct p with
      | B.Infeasible _ -> ()
      | r -> Alcotest.failf "call 2 should be forced infeasible, got %a"
               B.pp_result r);
  checkb "cleared" false (Pkg.Faults.active ())

(* The fence accessors are standing while installed (no call budget to
   spend) and independent of each other: lease expiry must not imply a
   stale epoch, and vice versa. *)
let test_faults_fence_accessors () =
  checkb "lease accessor idle" false (Pkg.Faults.fence_lease_expires ());
  checkb "epoch accessor idle" false (Pkg.Faults.fence_epoch_stale ());
  with_faults "fence=lease:expire" (fun () ->
      checkb "lease expiry standing" true (Pkg.Faults.fence_lease_expires ());
      checkb "lease expiry repeats" true (Pkg.Faults.fence_lease_expires ());
      checkb "lease does not stale epochs" false
        (Pkg.Faults.fence_epoch_stale ()));
  with_faults "fence=epoch:stale" (fun () ->
      checkb "stale epoch standing" true (Pkg.Faults.fence_epoch_stale ());
      checkb "stale does not expire leases" false
        (Pkg.Faults.fence_lease_expires ()));
  with_faults "fence=lease:expire; fence=epoch:stale" (fun () ->
      checkb "both standing together" true
        (Pkg.Faults.fence_lease_expires () && Pkg.Faults.fence_epoch_stale ()));
  checkb "cleared after uninstall" false
    (Pkg.Faults.fence_lease_expires () || Pkg.Faults.fence_epoch_stale ())

(* ------------------------------------------------------------------ *)
(* Typed CSV errors                                                   *)
(* ------------------------------------------------------------------ *)

let test_csv_error_lines () =
  let err s =
    match Relalg.Csv.of_string s with
    | exception Relalg.Csv.Error (line, msg) -> Some (line, msg)
    | _ -> None
  in
  (match err "a:int,b:int\n1,2\n3,4\n5\n" with
  | Some (4, msg) ->
    checkb "arity message" true
      (msg = "row has 1 field(s), header has 2")
  | other -> Alcotest.failf "arity error not at line 4: %s"
               (match other with
               | Some (l, m) -> Printf.sprintf "line %d: %s" l m
               | None -> "no error"))
  ;
  (match err "a:int\n1\nnope\n" with
  | Some (3, msg) ->
    checkb "value message names column and type" true
      (msg = "cannot parse \"nope\" as int (column a)")
  | _ -> Alcotest.fail "bad int not reported at line 3");
  (match err "a:str\nok\n\"open\n" with
  | Some (3, "unterminated quoted field") -> ()
  | _ -> Alcotest.fail "unterminated quote not reported at its open line");
  (match err "a:widget\n1\n" with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "bad header type not reported at line 1");
  (* newlines inside quoted fields still advance the line counter *)
  match err "a:str,b:int\n\"multi\nline\",1\noops\n" with
  | Some (4, _) -> ()
  | Some (l, m) -> Alcotest.failf "expected line 4, got %d: %s" l m
  | None -> Alcotest.fail "arity error after quoted newline not raised"

(* ------------------------------------------------------------------ *)
(* Taxonomy: limits map to typed failure kinds                        *)
(* ------------------------------------------------------------------ *)

let galaxy_rel = Datagen.Galaxy.generate ~seed:11 400

let galaxy_spec rel =
  compile rel
    "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 5 \
     AND SUM(P.redshift) <= 1.5 MAXIMIZE SUM(P.petro_rad)"

let test_direct_node_limit () =
  (* a narrow SUM window makes the root LP fractional and defeats the
     rounding heuristic, so a zero node budget yields Limit without an
     incumbent *)
  let spec =
    compile galaxy_rel
      "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 5 \
       AND SUM(P.redshift) BETWEEN 0.8 AND 0.80001 MAXIMIZE SUM(P.petro_rad)"
  in
  let limits = { B.default_limits with max_nodes = 0 } in
  let r = Pkg.Direct.run ~limits spec galaxy_rel in
  match r.E.status with
  | E.Failed f ->
    checkb "node limit kind" true (f.E.kind = E.Node_limit);
    checkb "direct stage" true (f.E.stage = Some E.Direct)
  | E.Feasible _ -> () (* the rounding heuristic may find an incumbent *)
  | s -> Alcotest.failf "expected node-limit failure, got %a" E.pp_status s

let test_direct_iteration_limit () =
  let spec = galaxy_spec galaxy_rel in
  let limits = { B.default_limits with max_simplex_iters = 1 } in
  let r = Pkg.Direct.run ~limits spec galaxy_rel in
  match kind_of r with
  | Some E.Iteration_limit -> ()
  | _ -> Alcotest.failf "expected iteration-limit failure, got %a" E.pp_status
           r.E.status

let test_simplex_iter_budget () =
  let p =
    Lp.Problem.make ~sense:Lp.Problem.Maximize
      ~vars:(List.init 20 (fun i -> Lp.Problem.var ~hi:1. (float_of_int i)))
      ~rows:
        [ Lp.Problem.row (List.init 20 (fun i -> (i, 1.))) ~lo:neg_infinity
            ~hi:3. ]
  in
  (match Lp.Simplex.solve ~max_iters:1 p with
  | Lp.Simplex.Iter_limit -> ()
  | r -> Alcotest.failf "expected Iter_limit, got %a" Lp.Simplex.pp_result r);
  let work = Lp.Simplex.new_work () in
  (match Lp.Simplex.solve ~work p with
  | Lp.Simplex.Optimal _ -> ()
  | r -> Alcotest.failf "expected Optimal, got %a" Lp.Simplex.pp_result r);
  checkb "pivot count recorded" true (Lp.Simplex.iterations work > 0)

let test_stop_reason_recorded () =
  (* LP optimum 2.5 is fractional, so the search must branch *)
  let problem =
    Lp.Problem.make ~sense:Lp.Problem.Maximize
      ~vars:(List.init 3 (fun _ -> Lp.Problem.var ~integer:true ~hi:1. 1.))
      ~rows:
        [ Lp.Problem.row [ (0, 1.); (1, 1.); (2, 1.) ] ~lo:neg_infinity
            ~hi:2.5 ]
  in
  let r = B.solve ~limits:{ B.default_limits with max_nodes = 0 } problem in
  let st = B.stats_of r in
  checkb "stopped by nodes" true (st.B.stopped = Some B.Stop_nodes);
  let r2 =
    B.solve ~limits:{ B.default_limits with max_simplex_iters = 1 } problem
  in
  checkb "stopped by iterations" true
    ((B.stats_of r2).B.stopped = Some B.Stop_iterations);
  let clean = B.solve problem in
  checkb "natural completion has no stop reason" true
    ((B.stats_of clean).B.stopped = None);
  (* the second child's bound 2.5 is within the slack 0.5 * 2 of the
     first child's integral 2, so a 0.5 gap drops it unexplored: the
     answer is that incumbent with the gap it proves, (2.5 - 2) / 2 *)
  match B.solve ~rel_gap:0.5 problem with
  | B.Feasible (s, st, gap) ->
    checkb "stopped by the gap" true (st.B.stopped = Some B.Stop_gap);
    checkb "incumbent" true (s.B.obj = 2.);
    checkb "proven gap" true (gap = 0.25);
    (* a gap stop is an answer, never a limit failure *)
    Alcotest.check_raises "no failure kind for a gap stop"
      (Invalid_argument
         "Eval.limit_failure: a gap stop is an answer, not a limit")
      (fun () -> ignore (E.limit_failure st))
  | r -> Alcotest.failf "expected a gap stop, got %a" B.pp_result r

(* ------------------------------------------------------------------ *)
(* Injection containment                                              *)
(* ------------------------------------------------------------------ *)

let sr_run ?(fallbacks = Pkg.Sketch_refine.default_options.fallbacks)
    ?(max_seconds = 60.) ?options rel spec part =
  let options =
    match options with
    | Some o -> o
    | None ->
      { Pkg.Sketch_refine.default_options with fallbacks; max_seconds }
  in
  Pkg.Sketch_refine.run ~options spec rel part

let galaxy_part rel = Pkg.Partition.create ~tau:100 ~attrs:[ "redshift" ] rel

let test_injected_raise_contained () =
  let spec = galaxy_spec galaxy_rel in
  with_faults "ilp=1:raise" (fun () ->
      let r = Pkg.Direct.run spec galaxy_rel in
      match kind_of r with
      | Some (E.Solver_error _) -> ()
      | _ -> Alcotest.failf "direct should contain the injected raise, got %a"
               E.pp_status r.E.status);
  with_faults "ilp=1:raise" (fun () ->
      let part = galaxy_part galaxy_rel in
      let r = sr_run galaxy_rel spec part in
      match kind_of r with
      | Some (E.Solver_error _) -> ()
      | _ ->
        Alcotest.failf "sketchrefine should contain the injected raise, got %a"
          E.pp_status r.E.status)

let test_injected_limit_direct () =
  let spec = galaxy_spec galaxy_rel in
  with_faults "ilp=1:limit" (fun () ->
      let r = Pkg.Direct.run spec galaxy_rel in
      checkb "forced limit becomes node-limit failure" true
        (kind_of r = Some E.Node_limit))

(* store=read|checksum faults abort segment reads with the typed store
   error — the CLI maps it to the data-error exit code, never a
   backtrace. *)
let test_injected_store_fault () =
  let image = Store.Segment.to_string galaxy_rel in
  let typed spec =
    with_faults spec (fun () ->
        match Store.Segment.of_string image with
        | exception Store.Segment.Error _ -> true
        | exception _ -> false
        | _ -> false)
  in
  checkb "read fault typed" true (typed "store=read:fail");
  checkb "checksum fault typed" true (typed "store=checksum:fail");
  match Store.Segment.of_string image with
  | _ -> () (* healthy again once faults are cleared *)
  | exception e ->
    Alcotest.failf "clean read failed after clearing faults: %s"
      (Printexc.to_string e)

(* lp= faults sabotage the warm-start basis on its way into the solver;
   the contract is that the answer never changes — a dropped basis
   solves cold, a singular one is rejected and solves cold. *)
let test_injected_lp_fault_preserves_answer () =
  let spec = galaxy_spec galaxy_rel in
  let basis_out = ref None in
  let clean = Pkg.Direct.run ~basis_out spec galaxy_rel in
  checkb "clean run saved a basis" true (!basis_out <> None);
  let warm_basis = !basis_out in
  let objective (r : E.report) =
    match (r.E.status, r.E.objective) with
    | E.Optimal, Some o -> o
    | _ -> Alcotest.failf "run not optimal: %a" E.pp_status r.E.status
  in
  let reference = objective clean in
  let under fault =
    with_faults fault (fun () ->
        checkb
          (fault ^ " registered")
          true
          (Pkg.Faults.lp_fault
             (if fault = "lp=warm:reject" then Pkg.Faults.Lp_warm_drop
              else Pkg.Faults.Lp_singular));
        objective (Pkg.Direct.run ?warm_basis spec galaxy_rel))
  in
  Alcotest.check (Alcotest.float 1e-6) "warm-drop fault preserves objective"
    reference
    (under "lp=warm:reject");
  Alcotest.check (Alcotest.float 1e-6) "singular fault preserves objective"
    reference
    (under "lp=singular:reject");
  (* and the clean warm path agrees too, once faults are gone *)
  Alcotest.check (Alcotest.float 1e-6) "clean warm run agrees" reference
    (objective (Pkg.Direct.run ?warm_basis spec galaxy_rel))

(* ------------------------------------------------------------------ *)
(* Fallback ladder under injected faults                              *)
(* ------------------------------------------------------------------ *)

(* Merge_groups must recurse all the way down to a single group (where
   the sketch is the original problem) and only then report
   infeasibility, when every sketch and hybrid attempt is faulted. *)
let test_merge_groups_bottoms_out () =
  let rel = Datagen.Galaxy.generate ~seed:3 200 in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:50 ~attrs:[ "redshift" ] rel in
  checkb "starts with several groups" true (Pkg.Partition.num_groups part > 1);
  with_faults "stage=sketch:infeasible; stage=hybrid:infeasible" (fun () ->
      let r = sr_run ~fallbacks:[ Pkg.Sketch_refine.Merge_groups ] rel spec part in
      (match r.E.status with
      | E.Infeasible -> ()
      | s -> Alcotest.failf "expected clean infeasible, got %a" E.pp_status s);
      (* one faulted sketch per merge level down to a single group *)
      checkb "recursion attempted several sketches" true
        (r.E.counters.E.ilp_calls >= 3))

let test_hybrid_exhaustion () =
  let rel = Datagen.Galaxy.generate ~seed:3 200 in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:50 ~attrs:[ "redshift" ] rel in
  with_faults "stage=sketch:infeasible; stage=hybrid:infeasible" (fun () ->
      let r = sr_run ~fallbacks:[ Pkg.Sketch_refine.Hybrid_sketch ] rel spec part in
      match r.E.status with
      | E.Infeasible -> ()
      | s ->
        Alcotest.failf "hybrid exhaustion should report infeasible, got %a"
          E.pp_status s)

(* A genuinely false-infeasible sketch: group centroids average the
   extreme z values away (z alternates 0/20, so every representative
   has z = 10), making SUM(P.z) >= 30 unreachable over representatives
   while two z=20 originals satisfy it easily. Drop_attributes must
   extract a non-empty IIS, drop z, re-partition and succeed. *)
let false_infeasible_case () =
  let schema =
    S.make [ { S.name = "y"; ty = V.TFloat }; { S.name = "z"; ty = V.TFloat } ]
  in
  let rel =
    R.of_rows schema
      (List.init 8 (fun i ->
           [| V.Float (float_of_int i *. 10.);
              V.Float (if i mod 2 = 0 then 0. else 20.) |]))
  in
  let spec =
    compile rel
      "SELECT PACKAGE(T) AS P FROM T T REPEAT 0 SUCH THAT COUNT(P.*) = 2 AND \
       SUM(P.z) >= 30.0 MAXIMIZE SUM(P.z)"
  in
  let part =
    Pkg.Partition.create ~max_fanout_dims:1 ~tau:4 ~attrs:[ "y"; "z" ] rel
  in
  (rel, spec, part)

let test_drop_attributes_rescues () =
  let rel, spec, part = false_infeasible_case () in
  let r =
    sr_run ~fallbacks:[ Pkg.Sketch_refine.Drop_attributes ] rel spec part
  in
  (match r.E.status with
  | E.Optimal | E.Feasible _ -> ()
  | s -> Alcotest.failf "drop-attributes should rescue, got %a" E.pp_status s);
  match r.E.objective with
  | Some obj -> Alcotest.check (Alcotest.float 1e-6) "objective" 40. obj
  | None -> Alcotest.fail "no objective"

let test_fallback_order_drop_then_hybrid () =
  let rel, spec, part = false_infeasible_case () in
  let r =
    sr_run
      ~fallbacks:
        [ Pkg.Sketch_refine.Drop_attributes; Pkg.Sketch_refine.Hybrid_sketch ]
      rel spec part
  in
  checkb "ladder with both rungs still rescues" true
    (match r.E.status with E.Optimal | E.Feasible _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel refine: worker crash containment                          *)
(* ------------------------------------------------------------------ *)

let test_worker_crash_repaired () =
  let rel = Datagen.Galaxy.generate ~seed:5 600 in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:100 ~attrs:[ "redshift" ] rel in
  let clean = Pkg.Parallel.run ~domains:2 spec rel part in
  (match clean.E.status with
  | E.Optimal | E.Feasible _ -> ()
  | s -> Alcotest.failf "clean parallel run should succeed, got %a"
           E.pp_status s);
  with_faults "worker=0:crash" (fun () ->
      let r = Pkg.Parallel.run ~domains:2 spec rel part in
      (match r.E.status with
      | E.Optimal | E.Feasible _ -> ()
      | s ->
        Alcotest.failf "crashed worker should be repaired, got %a" E.pp_status
          s);
      match r.E.package with
      | Some p -> checkb "repaired package feasible" true
                    (Pkg.Package.feasible spec p)
      | None -> Alcotest.fail "no package after repair")

let test_all_workers_crash_contained () =
  let rel = Datagen.Galaxy.generate ~seed:5 600 in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:100 ~attrs:[ "redshift" ] rel in
  with_faults "worker=0:crash; worker=1:crash" (fun () ->
      let r = Pkg.Parallel.run ~domains:2 spec rel part in
      (* everything lands in the Phase-3 repair and the driver's later
         rungs; any terminal report without an escaped exception is the
         contract *)
      match r.E.status with
      | E.Optimal | E.Feasible _ | E.Infeasible | E.Failed _ | E.Degraded _ ->
        ())

(* ------------------------------------------------------------------ *)
(* Deadline propagation                                               *)
(* ------------------------------------------------------------------ *)

let big_galaxy = lazy (Datagen.Galaxy.generate ~seed:9 6000)

let deadline_options budget =
  {
    Pkg.Sketch_refine.default_options with
    limits = { B.default_limits with max_seconds = 30. };
    max_seconds = budget;
  }

let test_deadline_zero_budget () =
  let rel = Lazy.force big_galaxy in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:600 ~attrs:[ "redshift" ] rel in
  let r = sr_run ~options:(deadline_options 0.) rel spec part in
  (match kind_of r with
  | Some E.Deadline_exceeded -> ()
  | _ -> Alcotest.failf "zero budget should be deadline_exceeded, got %a"
           E.pp_status r.E.status);
  let rp =
    Pkg.Parallel.run ~options:(deadline_options 0.) ~domains:2 spec rel part
  in
  match kind_of rp with
  | Some E.Deadline_exceeded -> ()
  | _ -> Alcotest.failf "parallel zero budget should be deadline_exceeded, \
                         got %a" E.pp_status rp.E.status

(* The acceptance criterion: with a budget far below the work required
   and generous per-ILP limits, the propagated deadline keeps the total
   wall time within a small factor of the budget — the per-call clamp is
   doing the work, not the 30s static limit. *)
let test_deadline_overshoot_bounded () =
  let rel = Lazy.force big_galaxy in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:600 ~attrs:[ "redshift" ] rel in
  let budget = 0.4 in
  let check_run name run =
    let t0 = Unix.gettimeofday () in
    let r = run () in
    let wall = Unix.gettimeofday () -. t0 in
    checkb (name ^ " within ~1.2x budget (+scheduling slack)") true
      (wall <= (budget *. 1.2) +. 0.35);
    match r.E.status with
    | E.Optimal | E.Feasible _ | E.Infeasible | E.Failed _ | E.Degraded _ -> ()
  in
  check_run "sketchrefine" (fun () ->
      sr_run ~options:(deadline_options budget) rel spec part);
  check_run "parallel" (fun () ->
      Pkg.Parallel.run ~options:(deadline_options budget) ~domains:2 spec rel
        part)

let test_sequential_fallback_keeps_budget () =
  (* crash every worker so the run goes through the repair and the
     driver's later rungs; they share the run's one deadline *)
  let rel = Lazy.force big_galaxy in
  let spec = galaxy_spec rel in
  let part = Pkg.Partition.create ~tau:600 ~attrs:[ "redshift" ] rel in
  with_faults "worker=0:crash; worker=1:crash" (fun () ->
      let budget = 0.4 in
      let t0 = Unix.gettimeofday () in
      let r =
        Pkg.Parallel.run ~options:(deadline_options budget) ~domains:2 spec rel
          part
      in
      let wall = Unix.gettimeofday () -. t0 in
      checkb "fallback does not restart the clock" true
        (wall <= (budget *. 1.2) +. 0.35);
      match r.E.status with
      | E.Optimal | E.Feasible _ | E.Infeasible | E.Failed _ | E.Degraded _ ->
        ())

(* ------------------------------------------------------------------ *)
(* Progressive descent under partition faults: always typed, never a  *)
(* hang or an escaped exception                                       *)
(* ------------------------------------------------------------------ *)

let galaxy_hier () =
  Pkg.Hierarchy.build ~levels:3 ~leaf_tau:10
    ~attrs:[ "redshift"; "petro_rad" ]
    galaxy_rel

let test_progressive_build_fault_typed () =
  with_faults "partition=build:fail" (fun () ->
      (* the build itself raises Injected... *)
      (match galaxy_hier () with
      | exception Pkg.Faults.Injected _ -> ()
      | _ -> Alcotest.fail "build under partition=build:fail did not raise");
      (* ...and every caller (CLI, REPL, server) contains it into a
         typed Failed report at the Progressive stage *)
      let report =
        match galaxy_hier () with
        | exception Pkg.Faults.Injected msg ->
          E.report
            ~status:(E.failed ~stage:E.Progressive (E.Solver_error msg))
            ~package:None ~objective:None ~wall_time:0.
            ~counters:(E.fresh_counters ())
        | hier -> fst (Pkg.Progressive.run (galaxy_spec galaxy_rel) galaxy_rel hier)
      in
      match report.E.status with
      | E.Failed f ->
        checkb "stage progressive" true (f.E.stage = Some E.Progressive);
        checkb "solver error kind" true
          (match f.E.kind with E.Solver_error _ -> true | _ -> false)
      | _ -> Alcotest.fail "build fault did not surface as typed Failed");
  (* cleared faults: the same build succeeds *)
  checkb "build recovers once cleared" true
    (Pkg.Hierarchy.num_levels (galaxy_hier ()) = 3)

let test_progressive_level_fault_degrades () =
  let hier = galaxy_hier () in
  let spec = galaxy_spec galaxy_rel in
  with_faults "partition=level:1" (fun () ->
      let r, stats = Pkg.Progressive.run spec galaxy_rel hier in
      (* the injected level-1 failure is retried widened; the answer
         arrives flagged Degraded, with the widened solve on record *)
      (match r.E.status with
      | E.Degraded d ->
        checkb "detail names the level" true
          (let has_sub s sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
             in
             go 0
           in
           has_sub d.E.detail "level 1")
      | other ->
        Alcotest.failf "expected Degraded, got %a" E.pp_status other);
      checkb "package produced" true (r.E.package <> None);
      checkb "level 1 recorded as widened" true
        (List.exists
           (fun (s : Pkg.Progressive.level_stat) ->
             s.Pkg.Progressive.ls_level = 1 && s.Pkg.Progressive.ls_widened)
           stats))

let test_progressive_stage_infeasible_typed () =
  let hier = galaxy_hier () in
  let spec = galaxy_spec galaxy_rel in
  with_faults "stage=progressive:infeasible; stage=hybrid:infeasible"
    (fun () ->
      (* every descent sketch and every hybrid sketch forced
         infeasible: the driver descends unshaded level by level, climbs
         the ladder over the leaf and reports typed Infeasible, not a
         loop and not an exception *)
      let t0 = Unix.gettimeofday () in
      let r, _ = Pkg.Progressive.run spec galaxy_rel hier in
      checkb "typed infeasible" true (r.E.status = E.Infeasible);
      checkb "terminates promptly" true (Unix.gettimeofday () -. t0 < 30.));
  with_faults "stage=progressive:infeasible" (fun () ->
      (* the descent alone forced infeasible: an infeasible leaf sketch
         is no verdict, and the ladder's hybrid sketch finds a package *)
      let r, _ = Pkg.Progressive.run spec galaxy_rel hier in
      match (r.E.status, r.E.package) with
      | (E.Optimal | E.Feasible _), Some p ->
        checkb "ladder package feasible" true (Pkg.Package.feasible spec p)
      | status, _ ->
        Alcotest.failf "the ladder should rescue the leaf, got %a" E.pp_status
          status)

(* A leaf refine dead end goes on as flat SketchRefine over the leaf
   partitioning. A COUNT = 1 query puts its one representative in one
   leaf group, so a one-shot infeasible on the first ILP after the
   descent's level solves (that group's refine query) leaves Algorithm
   2 no other ordering. The run goes on with the full-width sketch, a
   stage the descent never tags. The answer's report counts the whole
   run: every ILP (the level sketches, the sunk refine and SketchRefine's
   own, six in all) and a wall time from the descent's start. *)
let test_progressive_refine_dead_end () =
  let hier = galaxy_hier () in
  let spec =
    compile galaxy_rel
      "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 0 SUCH THAT COUNT(P.*) = 1 \
       MAXIMIZE SUM(P.petro_rad)"
  in
  let _, stats = Pkg.Progressive.run spec galaxy_rel hier in
  let flat =
    Pkg.Sketch_refine.run
      ~options:
        {
          Pkg.Sketch_refine.default_options with
          limits = Pkg.Progressive.default_options.Pkg.Progressive.limits;
        }
      spec galaxy_rel (Pkg.Hierarchy.leaf hier)
  in
  (* each stage with the time its observation came in *)
  let stages = ref [] in
  E.set_observer
    (Some
       (fun stage dt -> stages := (stage, Unix.gettimeofday (), dt) :: !stages));
  let r, _ =
    Fun.protect
      ~finally:(fun () -> E.set_observer None)
      (fun () ->
        with_faults
          (Printf.sprintf "ilp=%d:infeasible" (List.length stats + 1))
          (fun () -> Pkg.Progressive.run spec galaxy_rel hier))
  in
  let timed = List.rev !stages in
  let observed = List.map (fun (stage, _, _) -> stage) timed in
  checkb "descent, then the refine the fault sank" true
    (List.filteri (fun i _ -> i <= List.length stats) observed
    = List.init (List.length stats) (fun _ -> E.Progressive) @ [ E.Refine ]);
  checkb "reached SketchRefine's sketch" true (List.mem E.Sketch observed);
  checki "every ILP counted"
    (List.length stats + 1 + flat.E.counters.E.ilp_calls)
    r.E.counters.E.ilp_calls;
  checki "six ILPs" 6 r.E.counters.E.ilp_calls;
  (match (timed, List.rev timed) with
  | (_, first_end, first_dt) :: _, (_, last_end, _) :: _ ->
    let span = last_end -. (first_end -. first_dt) in
    if r.E.wall_time < span then
      Alcotest.failf "wall time %.6fs misses the descent (stages span %.6fs)"
        r.E.wall_time span
  | _ -> Alcotest.fail "no stage observed");
  match (r.E.status, r.E.package) with
  | (E.Optimal | E.Feasible _), Some p ->
    checkb "package feasible" true (Pkg.Package.feasible spec p)
  | status, _ -> Alcotest.failf "expected a package, got %a" E.pp_status status

let test_progressive_deadline_zero () =
  let hier = galaxy_hier () in
  let spec = galaxy_spec galaxy_rel in
  let options = { Pkg.Progressive.default_options with max_seconds = 0. } in
  let r, _ = Pkg.Progressive.run ~options spec galaxy_rel hier in
  match r.E.status with
  | E.Failed f ->
    checkb "deadline kind" true (f.E.kind = E.Deadline_exceeded);
    checkb "progressive stage" true (f.E.stage = Some E.Progressive)
  | other -> Alcotest.failf "expected Failed, got %a" E.pp_status other

(* ------------------------------------------------------------------ *)
(* Stochastic driver: injected faults land as typed reports           *)
(* ------------------------------------------------------------------ *)

let stoch_spec () =
  compile galaxy_rel
    "SELECT PACKAGE(G) AS P FROM Galaxy G REPEAT 3 SUCH THAT COUNT(P.*) = 3 \
     AND SUM(P.u) >= 40 WITH PROBABILITY 0.9 MAXIMIZE SUM(P.r)"

let stoch_options () =
  {
    Pkg.Stochastic.default_options with
    Pkg.Stochastic.scenarios = 12;
    validation = 50;
    max_seconds = 20.;
  }

let stoch_run () =
  Pkg.Stochastic.run ~options:(stoch_options ()) (stoch_spec ()) galaxy_rel

let test_stoch_scenario_fault_typed () =
  with_faults "stoch=scenario:fail" (fun () ->
      let r, _ = stoch_run () in
      match r.E.status with
      | E.Failed f ->
        checkb "scenario stage" true (f.E.stage = Some E.Scenario);
        checkb "solver error kind" true
          (match f.E.kind with E.Solver_error _ -> true | _ -> false)
      | other -> Alcotest.failf "expected Failed, got %a" E.pp_status other);
  (* cleared faults: the same query solves and validates *)
  let r, stats = stoch_run () in
  checkb "recovers once cleared" true
    (match r.E.status with E.Optimal | E.Feasible _ -> true | _ -> false);
  checkb "validated once cleared" true
    (stats.Pkg.Stochastic.st_validated >= 0.9)

let test_stoch_validate_fault_typed () =
  with_faults "stoch=validate:fail" (fun () ->
      let r, _ = stoch_run () in
      match r.E.status with
      | E.Failed f ->
        checkb "validate stage" true (f.E.stage = Some E.Validate);
        checkb "solver error kind" true
          (match f.E.kind with E.Solver_error _ -> true | _ -> false)
      | other -> Alcotest.failf "expected Failed, got %a" E.pp_status other)

let test_stoch_summary_stage_faults () =
  (* the generic stage= directives hit the summary ILPs too *)
  with_faults "stage=summary:limit" (fun () ->
      let r, _ = stoch_run () in
      match r.E.status with
      | E.Failed f -> checkb "summary stage" true (f.E.stage = Some E.Summary)
      | other -> Alcotest.failf "expected Failed, got %a" E.pp_status other);
  with_faults "stage=summary:infeasible" (fun () ->
      (* every summary ILP forced infeasible: the m-doubling ladder
         bottoms out in a typed Infeasible, never a loop *)
      let t0 = Unix.gettimeofday () in
      let r, _ = stoch_run () in
      checkb "typed infeasible" true (r.E.status = E.Infeasible);
      checkb "terminates promptly" true (Unix.gettimeofday () -. t0 < 20.))

let () =
  Alcotest.run "robustness"
    [
      ( "faults",
        [
          Alcotest.test_case "grammar" `Quick test_faults_parse;
          Alcotest.test_case "selector semantics" `Quick
            test_faults_selector_semantics;
          Alcotest.test_case "fence accessors" `Quick
            test_faults_fence_accessors;
        ] );
      ( "csv errors",
        [ Alcotest.test_case "line numbers" `Quick test_csv_error_lines ] );
      ( "taxonomy",
        [
          Alcotest.test_case "direct node limit" `Quick test_direct_node_limit;
          Alcotest.test_case "direct iteration limit" `Quick
            test_direct_iteration_limit;
          Alcotest.test_case "simplex iteration budget" `Quick
            test_simplex_iter_budget;
          Alcotest.test_case "stop reason recorded" `Quick
            test_stop_reason_recorded;
        ] );
      ( "injection",
        [
          Alcotest.test_case "raise contained" `Quick
            test_injected_raise_contained;
          Alcotest.test_case "forced limit typed" `Quick
            test_injected_limit_direct;
          Alcotest.test_case "store faults typed" `Quick
            test_injected_store_fault;
          Alcotest.test_case "lp faults preserve answers" `Quick
            test_injected_lp_fault_preserves_answer;
        ] );
      ( "fallback ladder",
        [
          Alcotest.test_case "merge groups bottoms out" `Quick
            test_merge_groups_bottoms_out;
          Alcotest.test_case "hybrid exhaustion" `Quick test_hybrid_exhaustion;
          Alcotest.test_case "drop attributes rescues" `Quick
            test_drop_attributes_rescues;
          Alcotest.test_case "drop then hybrid" `Quick
            test_fallback_order_drop_then_hybrid;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "worker crash repaired" `Quick
            test_worker_crash_repaired;
          Alcotest.test_case "all workers crash" `Quick
            test_all_workers_crash_contained;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "zero budget" `Quick test_deadline_zero_budget;
          Alcotest.test_case "overshoot bounded" `Quick
            test_deadline_overshoot_bounded;
          Alcotest.test_case "sequential fallback budget" `Quick
            test_sequential_fallback_keeps_budget;
        ] );
      ( "progressive",
        [
          Alcotest.test_case "build fault typed" `Quick
            test_progressive_build_fault_typed;
          Alcotest.test_case "level fault degrades" `Quick
            test_progressive_level_fault_degrades;
          Alcotest.test_case "stage infeasible typed" `Quick
            test_progressive_stage_infeasible_typed;
          Alcotest.test_case "deadline zero" `Quick
            test_progressive_deadline_zero;
          Alcotest.test_case "leaf refine dead end reaches SketchRefine"
            `Quick test_progressive_refine_dead_end;
        ] );
      ( "stochastic",
        [
          Alcotest.test_case "scenario fault typed" `Quick
            test_stoch_scenario_fault_typed;
          Alcotest.test_case "validate fault typed" `Quick
            test_stoch_validate_fault_typed;
          Alcotest.test_case "summary stage faults" `Quick
            test_stoch_summary_stage_faults;
        ] );
    ]
