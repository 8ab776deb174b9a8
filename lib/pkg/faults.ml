(* Deterministic fault injection for the solver stack.

   Every ILP in the pipeline goes through [solve], which (a) applies any
   installed fault directive matching the call, and (b) derives the
   per-call time limit from the remaining global budget when a deadline
   is supplied — the single choke point for both deadline propagation
   and fault injection. *)

type action = Force_limit | Force_infeasible | Force_raise

type cond = {
  on_call : int option;  (* 1-based global ILP call index *)
  on_stage : Eval.stage option;
  on_group : int option;
}

type store_fault = Store_read | Store_checksum

type net_fault = Net_accept | Net_read

type wal_fault = Wal_torn of int | Wal_fsync_fail | Wal_crash of int

(* lp=warm:reject drops any warm-start basis handed to [solve] (as if
   every cache lookup missed); lp=singular:reject corrupts it into a
   singular basis instead, forcing the solver through its warm-reject
   branch. Both must degrade to a typed cold solve with an unchanged
   answer. *)
type lp_fault = Lp_warm_drop | Lp_singular

(* shard=K:... directives are consumed by the coordinator's dispatch
   path: crash (treat the next exchange with shard K as a dead
   connection), stall (delay the next exchange by MS, letting hedges
   and timeouts fire deterministically), drop (sever the connection
   once, exercising reconnect). repl=lag:N holds the WAL shipper N
   records behind its primary while installed. *)
type shard_fault = Shard_crash | Shard_stall of int | Shard_drop

(* partition=build:fail makes the next hierarchy build raise (standing
   while installed); partition=level:K arms a one-shot injected failure
   for the progressive descent's level-K sketch — the driver must
   degrade typed (widen and retry, or report a typed failure), never
   hang. *)
type partition_fault = Partition_level of int | Partition_build

(* stoch=scenario:fail makes scenario generation raise and
   stoch=validate:fail makes out-of-sample validation raise (standing
   while installed) — the stochastic driver must convert either into a
   typed failure, never a hang. Summary-ILP faults need no dedicated
   selector: the generic stage=summary:... path covers them. *)
type stoch_fault = Stoch_scenario | Stoch_validate

(* fence=lease:expire makes a server treat its write lease as already
   expired (every write answers with a typed fenced error, as if the
   coordinator stopped renewing); fence=epoch:stale makes it treat any
   write's epoch stamp as predating its promotion epoch (as if a zombie
   primary were replaying into a promoted replica). Both are standing
   while installed — deterministic injection for the fencing paths. *)
type fence_fault = Fence_lease_expire | Fence_epoch_stale

type directive =
  | Ilp_fault of cond * action
  | Worker_kill of int
  | Store_break of store_fault
  | Queue_full
  | Net_break of net_fault
  | Wal_break of wal_fault
  | Lp_break of lp_fault
  | Shard_break of int * shard_fault
  | Repl_lag of int
  | Partition_break of partition_fault
  | Stoch_break of stoch_fault
  | Fence_break of fence_fault

type spec = directive list

exception Injected of string

let installed : spec Atomic.t = Atomic.make []
let calls = Atomic.make 0

(* 1-based count of WAL record writes since [install], used to target
   the K-th record with wal=torn:K / wal=crash:K. *)
let wal_writes = Atomic.make 0

(* net=... and shard=... directives are one-shot: armed once per
   occurrence at install time, consumed by [take_net_fault] /
   [take_shard_fault]. *)
let net_pending : net_fault list ref = ref []
let shard_pending : (int * shard_fault) list ref = ref []
let level_pending : int list ref = ref []
let net_mu = Mutex.create ()

let install s =
  Atomic.set installed s;
  Atomic.set calls 0;
  Atomic.set wal_writes 0;
  Mutex.protect net_mu (fun () ->
      net_pending :=
        List.filter_map
          (function Net_break f -> Some f | _ -> None)
          s;
      shard_pending :=
        List.filter_map
          (function Shard_break (k, f) -> Some (k, f) | _ -> None)
          s;
      level_pending :=
        List.filter_map
          (function Partition_break (Partition_level k) -> Some k | _ -> None)
          s)

let clear () = install []
let active () = Atomic.get installed <> []

let stage_of_string = function
  | "sketch" -> Some Eval.Sketch
  | "hybrid" -> Some Eval.Hybrid
  | "refine" -> Some Eval.Refine
  | "repair" -> Some Eval.Repair
  | "direct" -> Some Eval.Direct
  | "parallel" -> Some Eval.Parallel
  | "progressive" -> Some Eval.Progressive
  | "scenario" -> Some Eval.Scenario
  | "summary" -> Some Eval.Summary
  | "validate" -> Some Eval.Validate
  | _ -> None

let action_of_string = function
  | "limit" -> Some Force_limit
  | "infeasible" -> Some Force_infeasible
  | "raise" -> Some Force_raise
  | _ -> None

(* Grammar: directives separated by ';', each [selector:action] where
   the selector is ','-separated [key=value] pairs. E.g.
   "ilp=3:limit; stage=sketch:infeasible; stage=refine,group=2:raise;
   worker=1:crash". *)
let parse s =
  let ( let* ) = Result.bind in
  let trim = String.trim in
  let parts =
    String.split_on_char ';' s |> List.map trim
    |> List.filter (fun d -> d <> "")
  in
  let parse_directive d =
    match String.rindex_opt d ':' with
    | None when trim d = "queue=full" ->
      (* shorthand for queue=full:fail *)
      Ok Queue_full
    | None -> Error (Printf.sprintf "fault %S: missing ':action'" d)
    | Some i ->
      let selector = trim (String.sub d 0 i) in
      let act = trim (String.sub d (i + 1) (String.length d - i - 1)) in
      let pairs =
        String.split_on_char ',' selector |> List.map trim
        |> List.filter (fun p -> p <> "")
      in
      let* kvs =
        List.fold_left
          (fun acc p ->
            let* acc = acc in
            match String.index_opt p '=' with
            | None -> Error (Printf.sprintf "fault selector %S: expected key=value" p)
            | Some j ->
              let k = trim (String.sub p 0 j) in
              let v = trim (String.sub p (j + 1) (String.length p - j - 1)) in
              Ok ((k, v) :: acc))
          (Ok []) pairs
      in
      let int_of k v =
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "fault %s=%S: not an integer" k v)
      in
      match kvs with
      | [ ("worker", w) ] when act = "crash" ->
        let* w = int_of "worker" w in
        Ok (Worker_kill w)
      | [ ("store", f) ] when act = "fail" -> (
        match f with
        | "read" -> Ok (Store_break Store_read)
        | "checksum" -> Ok (Store_break Store_checksum)
        | _ ->
          Error
            (Printf.sprintf "fault store %S: expected read|checksum" f))
      | [ ("queue", f) ] when act = "fail" ->
        if f = "full" then Ok Queue_full
        else Error (Printf.sprintf "fault queue %S: expected full" f)
      | [ ("net", f) ] when act = "fail" -> (
        match f with
        | "accept" -> Ok (Net_break Net_accept)
        | "read" -> Ok (Net_break Net_read)
        | _ ->
          Error (Printf.sprintf "fault net %S: expected accept|read" f))
      | [ ("wal", "fsync") ] when act = "fail" -> Ok (Wal_break Wal_fsync_fail)
      | [ ("wal", f) ] when f = "torn" || f = "crash" ->
        let* k = int_of ("wal " ^ f) act in
        if k < 1 then
          Error (Printf.sprintf "fault wal=%s:%d: K must be >= 1" f k)
        else if f = "torn" then Ok (Wal_break (Wal_torn k))
        else Ok (Wal_break (Wal_crash k))
      | [ ("wal", f) ] ->
        Error
          (Printf.sprintf
             "fault wal %S: expected torn:K|fsync:fail|crash:K" f)
      | [ ("lp", f) ] when act = "reject" -> (
        match f with
        | "warm" -> Ok (Lp_break Lp_warm_drop)
        | "singular" -> Ok (Lp_break Lp_singular)
        | _ ->
          Error (Printf.sprintf "fault lp %S: expected warm|singular" f))
      | [ ("lp", f) ] ->
        Error (Printf.sprintf "fault lp=%s: expected lp=warm|singular:reject" f)
      | [ ("repl", "lag") ] ->
        let* n = int_of "repl lag" act in
        if n < 0 then Error "fault repl=lag:N: N must be >= 0"
        else Ok (Repl_lag n)
      | [ ("repl", f) ] ->
        Error (Printf.sprintf "fault repl=%s: expected repl=lag:N" f)
      | [ ("stoch", "scenario") ] when act = "fail" ->
        Ok (Stoch_break Stoch_scenario)
      | [ ("stoch", "validate") ] when act = "fail" ->
        Ok (Stoch_break Stoch_validate)
      | [ ("stoch", f) ] ->
        Error
          (Printf.sprintf
             "fault stoch=%s: expected scenario:fail|validate:fail" f)
      | [ ("fence", "lease") ] when act = "expire" ->
        Ok (Fence_break Fence_lease_expire)
      | [ ("fence", "epoch") ] when act = "stale" ->
        Ok (Fence_break Fence_epoch_stale)
      | [ ("fence", f) ] ->
        Error
          (Printf.sprintf
             "fault fence=%s: expected lease:expire|epoch:stale" f)
      | [ ("partition", "build") ] when act = "fail" ->
        Ok (Partition_break Partition_build)
      | [ ("partition", "level") ] ->
        let* k = int_of "partition level" act in
        if k < 0 then Error "fault partition=level:K: K must be >= 0"
        else Ok (Partition_break (Partition_level k))
      | [ ("partition", f) ] ->
        Error
          (Printf.sprintf "fault partition=%s: expected level:K|build:fail" f)
      | [ ("shard", v) ] -> (
        (* shard=K:crash|drop carries the fault as the action;
           shard=K:stall:MS splits at the last colon, leaving "K:stall"
           as the selector value and MS as the action *)
        match String.index_opt v ':' with
        | Some i -> (
          let* k = int_of "shard" (String.sub v 0 i) in
          match String.sub v (i + 1) (String.length v - i - 1) with
          | "stall" ->
            let* ms = int_of "shard stall" act in
            if ms < 0 then Error "fault shard=K:stall:MS: MS must be >= 0"
            else Ok (Shard_break (k, Shard_stall ms))
          | f ->
            Error
              (Printf.sprintf "fault shard=%d:%s: expected crash|drop|stall:MS"
                 k f))
        | None -> (
          let* k = int_of "shard" v in
          match act with
          | "crash" -> Ok (Shard_break (k, Shard_crash))
          | "drop" -> Ok (Shard_break (k, Shard_drop))
          | a ->
            Error
              (Printf.sprintf "fault shard=%d:%s: expected crash|drop|stall:MS"
                 k a)))
      | _ ->
        let* action =
          match action_of_string act with
          | Some a -> Ok a
          | None ->
            Error
              (Printf.sprintf
                 "fault action %S: expected limit|infeasible|raise (or crash \
                  with a worker selector, fail with a store selector)"
                 act)
        in
        let* cond =
          List.fold_left
            (fun acc (k, v) ->
              let* c = acc in
              match k with
              | "ilp" ->
                let* n = int_of k v in
                Ok { c with on_call = Some n }
              | "group" ->
                let* n = int_of k v in
                Ok { c with on_group = Some n }
              | "stage" -> (
                match stage_of_string v with
                | Some st -> Ok { c with on_stage = Some st }
                | None ->
                  Error
                    (Printf.sprintf
                       "fault stage %S: expected \
                        sketch|hybrid|refine|repair|direct|parallel|\
                        progressive|scenario|summary|validate"
                       v))
              | "worker" ->
                Error "fault selector worker=N only combines with :crash"
              | "store" ->
                Error "fault selector store=F only combines with :fail"
              | "queue" ->
                Error "fault selector queue=full only combines with :fail"
              | "net" ->
                Error "fault selector net=F only combines with :fail"
              | "wal" ->
                Error
                  "fault selector wal=F expects torn:K|fsync:fail|crash:K"
              | "lp" ->
                Error "fault selector lp=F only combines with :reject"
              | "shard" ->
                Error "fault selector shard=K expects crash|drop|stall:MS"
              | "repl" -> Error "fault selector repl expects lag:N"
              | "partition" ->
                Error "fault selector partition expects level:K|build:fail"
              | "stoch" ->
                Error
                  "fault selector stoch expects scenario:fail|validate:fail"
              | "fence" ->
                Error "fault selector fence expects lease:expire|epoch:stale"
              | _ -> Error (Printf.sprintf "fault selector key %S unknown" k))
            (Ok { on_call = None; on_stage = None; on_group = None })
            kvs
        in
        if cond = { on_call = None; on_stage = None; on_group = None } then
          Error (Printf.sprintf "fault %S: empty selector" d)
        else Ok (Ilp_fault (cond, action))
  in
  if parts = [] then Error "empty fault spec (use clear/\"off\" to disable)"
  else
    List.fold_left
      (fun acc d ->
        let* acc = acc in
        let* dir = parse_directive d in
        Ok (dir :: acc))
      (Ok []) parts
    |> Result.map List.rev

let action_for ~call ~stage ~group =
  List.find_map
    (function
      | Worker_kill _ | Store_break _ | Queue_full | Net_break _
      | Wal_break _ | Lp_break _ | Shard_break _ | Repl_lag _
      | Partition_break _ | Stoch_break _ | Fence_break _ ->
        None
      | Ilp_fault (c, a) ->
        let ok_call =
          match c.on_call with None -> true | Some k -> k = call
        in
        let ok_stage =
          match c.on_stage with None -> true | Some s -> s = stage
        in
        let ok_group =
          match c.on_group with None -> true | Some g -> Some g = group
        in
        if ok_call && ok_stage && ok_group then Some a else None)
    (Atomic.get installed)

let worker_should_crash w =
  List.exists
    (function Worker_kill k -> k = w | _ -> false)
    (Atomic.get installed)

let store_fault () =
  List.find_map
    (function Store_break f -> Some f | _ -> None)
    (Atomic.get installed)

let wal_write_fault () =
  let n = Atomic.fetch_and_add wal_writes 1 + 1 in
  List.find_map
    (function
      | Wal_break (Wal_torn k) when k = n -> Some `Torn
      | Wal_break (Wal_crash k) when k = n -> Some `Crash
      | _ -> None)
    (Atomic.get installed)

let wal_fsync_fails () =
  List.exists
    (function Wal_break Wal_fsync_fail -> true | _ -> false)
    (Atomic.get installed)

let queue_full () =
  List.exists
    (function Queue_full -> true | _ -> false)
    (Atomic.get installed)

let lp_fault f =
  List.exists
    (function Lp_break g -> g = f | _ -> false)
    (Atomic.get installed)

let take_net_fault f =
  Mutex.protect net_mu (fun () ->
      let rec remove = function
        | [] -> None
        | x :: rest when x = f -> Some rest
        | x :: rest -> Option.map (fun r -> x :: r) (remove rest)
      in
      match remove !net_pending with
      | Some rest ->
        net_pending := rest;
        true
      | None -> false)

let take_shard_fault k =
  Mutex.protect net_mu (fun () ->
      let rec remove = function
        | [] -> None
        | (k', f) :: rest when k' = k -> Some (f, rest)
        | x :: rest ->
          Option.map (fun (f, r) -> (f, x :: r)) (remove rest)
      in
      match remove !shard_pending with
      | Some (f, rest) ->
        shard_pending := rest;
        Some f
      | None -> None)

let partition_build_fails () =
  List.exists
    (function Partition_break Partition_build -> true | _ -> false)
    (Atomic.get installed)

let stoch_scenario_fails () =
  List.exists
    (function Stoch_break Stoch_scenario -> true | _ -> false)
    (Atomic.get installed)

let stoch_validate_fails () =
  List.exists
    (function Stoch_break Stoch_validate -> true | _ -> false)
    (Atomic.get installed)

let fence_lease_expires () =
  List.exists
    (function Fence_break Fence_lease_expire -> true | _ -> false)
    (Atomic.get installed)

let fence_epoch_stale () =
  List.exists
    (function Fence_break Fence_epoch_stale -> true | _ -> false)
    (Atomic.get installed)

let take_level_fault k =
  Mutex.protect net_mu (fun () ->
      let rec remove = function
        | [] -> None
        | x :: rest when x = k -> Some rest
        | x :: rest -> Option.map (fun r -> x :: r) (remove rest)
      in
      match remove !level_pending with
      | Some rest ->
        level_pending := rest;
        true
      | None -> false)

let repl_lag () =
  List.fold_left
    (fun acc -> function Repl_lag n -> max acc n | _ -> acc)
    0 (Atomic.get installed)

let zero_stats problem stopped =
  {
    Ilp.Branch_bound.nodes = 0;
    lp = Lp.Simplex.new_work ();
    elapsed = 0.;
    stopped;
    columns = Lp.Problem.nvars problem;
    first_incumbent = None;
  }

let solve ?limits ?deadline ?warm ?basis_out ~stage ?group problem =
  let limits =
    match limits with Some l -> l | None -> Ilp.Branch_bound.default_limits
  in
  (* apply lp= directives to the warm-start basis before it reaches the
     solver: drop it (stale-cache simulation) or corrupt it (singular
     basis). Either way the solver must degrade to a cold solve. *)
  let warm_start =
    match warm with
    | None -> None
    | Some _ when lp_fault Lp_warm_drop -> None
    | Some b when lp_fault Lp_singular -> Some (Lp.Simplex.Basis.corrupt b)
    | Some b -> Some b
  in
  let branch_and_bound limits =
    Ilp.Branch_bound.solve ~limits ~rel_gap:Eval.rel_gap ?warm_start
      ?basis_out problem
  in
  let call = Atomic.fetch_and_add calls 1 + 1 in
  match action_for ~call ~stage ~group with
  | Some Force_raise ->
    let where =
      match group with
      | Some g -> Printf.sprintf "%s ILP for group %d" (Eval.stage_name stage) g
      | None -> Printf.sprintf "%s ILP" (Eval.stage_name stage)
    in
    raise (Injected (Printf.sprintf "injected crash at call %d (%s)" call where))
  | Some Force_infeasible ->
    Ilp.Branch_bound.Infeasible (zero_stats problem None)
  | Some Force_limit ->
    Ilp.Branch_bound.Limit
      (zero_stats problem (Some Ilp.Branch_bound.Stop_nodes))
  | None -> (
    match deadline with
    | None -> branch_and_bound limits
    | Some d ->
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0. then
        (* budget already spent: report a time-stopped limit without
           touching the solver *)
        Ilp.Branch_bound.Limit
          (zero_stats problem (Some Ilp.Branch_bound.Stop_time))
      else
        let limits =
          {
            limits with
            Ilp.Branch_bound.max_seconds =
              Float.min limits.Ilp.Branch_bound.max_seconds remaining;
          }
        in
        branch_and_bound limits)
