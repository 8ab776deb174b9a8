let src = Logs.Src.create "pkgq.server" ~doc:"package-query server"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  host : string;
  port : int;
  workers : int;
  queue : int;
  result_cache : int;
  plan_cache : int;
  basis_cache : int;
  method_ : Engine.method_;
  attrs : string list;
  tau : int option;
  epsilon : float option;
  limits : Ilp.Branch_bound.limits;
  request_seconds : float;
  log_every : float;
  wal_dir : string option;
  wal_checkpoint : int;
  wal_sync : Store.Wal.sync;
  levels : int;
  stochastic : Pkg.Stochastic.options;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue = 32;
    result_cache = 256;
    plan_cache = 64;
    basis_cache = 128;
    method_ = Engine.Direct;
    attrs = [];
    tau = None;
    epsilon = None;
    limits = Ilp.Branch_bound.default_limits;
    request_seconds = 60.;
    log_every = 0.;
    wal_dir = None;
    wal_checkpoint = 64;
    wal_sync = Store.Wal.Always;
    levels = Pkg.Hierarchy.default_levels;
    stochastic = Pkg.Stochastic.default_options;
  }

(* ------------------------------------------------------------------ *)
(* State snapshots                                                    *)
(* ------------------------------------------------------------------ *)

(* One immutable view of the served table. Appends swap in a whole new
   snapshot under [state_mu]; a request holds on to the snapshot it
   started with, so it never sees a half-updated table. *)
type snapshot = {
  rel : Relalg.Relation.t;
  fp : string;  (* content fingerprint *)
  (* partitionings and progressive-shading hierarchies by layout;
     shared with the catalog (hierarchies one entry per level) *)
  parts : (Engine.layout, Pkg.Partition.t) Hashtbl.t;
  hiers : (Engine.layout, Pkg.Hierarchy.t) Hashtbl.t;
  parts_mu : Mutex.t;
}

type t = {
  cfg : config;
  catalog : Store.Catalog.t option;
  metrics : Metrics.t;
  sched : Scheduler.t;
  plan_cache : (string, Paql.Ast.query * Paql.Translate.spec) Cache.t;
  result_cache : (string, Protocol.response) Cache.t;
  basis_cache : (string, Lp.Simplex.Basis.t) Cache.t;
  (* Sketch/refine contexts for the shard verbs, keyed by query
     fingerprint @ table fingerprint: one candidate scan per (query,
     snapshot) instead of one per REFINE call. *)
  ctx_cache : (string, Pkg.Sketch.ctx) Cache.t;
  (* The coordinator-installed group assignment: which partition groups
     this process serves, with their expected member row ids (checked
     against the locally derived partitioning — divergence is a typed
     error, not a wrong answer). *)
  mutable shard_groups : (int * int array) list option;
  shard_mu : Mutex.t;
  (* Membership fencing: [srv_epoch] is the highest epoch ever
     installed here (via LEASE, or recovered from the WAL's stamps);
     [lease_deadline] is when this node must stop acking writes (None =
     never leased: the standalone write contract, always writable).
     The server demotes itself at 90% of the granted ttl, forfeiting a
     skew margin so it is read-only strictly before the coordinator —
     which waits out the full ttl — can grant the next epoch. *)
  mutable srv_epoch : int;
  mutable lease_deadline : float option;
  mutable demoted : bool;
  fence_mu : Mutex.t;
  mutable state : snapshot;
  state_mu : Mutex.t;
  wal : Store.Wal.t option;
  recovery : Store.Recovery.stats option;
  front : Front.t;
  mutable log_thread : Thread.t option;
}

let port t = Front.port t.front
let metrics t = t.metrics
let config t = t.cfg
let solve_count t = Metrics.get t.metrics "solves"
let table_fingerprint t = Mutex.protect t.state_mu (fun () -> t.state.fp)

let table_rows t =
  Mutex.protect t.state_mu (fun () ->
      Relalg.Relation.cardinality t.state.rel)

let last_recovery t = t.recovery

let current_epoch t = Mutex.protect t.fence_mu (fun () -> t.srv_epoch)

let fresh_snapshot rel =
  Front.prewarm rel;
  {
    rel;
    fp = Store.Segment.fingerprint rel;
    parts = Hashtbl.create 4;
    hiers = Hashtbl.create 4;
    parts_mu = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let plan t snap qfp query =
  match Cache.find_opt t.plan_cache qfp with
  | Some p ->
    Metrics.incr t.metrics "plan_hits";
    Ok p
  | None ->
    Metrics.incr t.metrics "plan_misses";
    let planned =
      Front.compile t.metrics (Relalg.Relation.schema snap.rel) query
    in
    Result.iter (Cache.add t.plan_cache qfp) planned;
    planned

let settings t =
  { Engine.method_ = t.cfg.method_; attrs = t.cfg.attrs; tau = t.cfg.tau;
    epsilon = t.cfg.epsilon; stochastic = t.cfg.stochastic }

(* Where the server's partitionings live: per snapshot (and in the
   catalog, when one is attached). Built under [parts_mu]: concurrent
   requests for the same layout wait for the one build instead of
   duplicating it. *)
let source t snap =
  let catalog = Option.map (fun cat -> (cat, snap.fp)) t.catalog in
  let shared table build l =
    Mutex.protect snap.parts_mu (fun () ->
        match Hashtbl.find_opt table l with
        | Some v -> v
        | None ->
          let v =
            Metrics.time t.metrics "partition" (fun () ->
                fst (build ?catalog l snap.rel))
          in
          Hashtbl.replace table l v;
          v)
  in
  { Engine.flat = shared snap.parts Engine.partition;
    hier = shared snap.hiers (Engine.hierarchy ~levels:t.cfg.levels) }

(* SummarySearch telemetry for STATS: how many scenarios the last
   stochastic evaluation drew, how finely it summarized, how many
   solve/validate rounds it took, and the out-of-sample probability it
   certified (per-mille — gauges are integers). Stage latencies land
   through the [Eval] observer under [scenario]/[summary]/[validate]. *)
let record_stoch_stats metrics (st : Pkg.Stochastic.stats) =
  if st.Pkg.Stochastic.st_scenarios > 0 then begin
    Metrics.set_gauge metrics "stoch_scenarios" st.Pkg.Stochastic.st_scenarios;
    Metrics.set_gauge metrics "stoch_validation" st.Pkg.Stochastic.st_validation;
    Metrics.set_gauge metrics "stoch_summaries" st.Pkg.Stochastic.st_summaries;
    Metrics.set_gauge metrics "stoch_rounds" st.Pkg.Stochastic.st_rounds;
    Metrics.set_gauge metrics "stoch_validated_pm"
      (int_of_float (Float.round (st.Pkg.Stochastic.st_validated *. 1000.)))
  end

(* Only proven outcomes are safe to replay. A gap within [Eval.rel_gap]
   is what every search is asked to prove, so such an answer is a
   function of the query and the table like [Optimal]; a larger gap
   depends on the budget the original request happened to have left,
   and failures should retry. *)
let cacheable (r : Pkg.Eval.report) =
  match r.status with
  | Pkg.Eval.Optimal | Pkg.Eval.Infeasible -> true
  | Pkg.Eval.Feasible gap -> gap <= Pkg.Eval.rel_gap
  | Pkg.Eval.Failed _ | Pkg.Eval.Degraded _ -> false

(* The STATS verb reports this server's simplex work as gauges: each
   solved request and shard REFINE adds the counts of its own
   evaluation, so they total this server's work alone. *)
let add_solver_work metrics (counters : Pkg.Eval.counters) =
  let w = counters.Pkg.Eval.lp in
  List.iter
    (fun (name, v) -> Metrics.add_gauge metrics name v)
    [
      ("solver_pivots", w.Lp.Simplex.pivots);
      ("solver_dual_pivots", w.Lp.Simplex.dual_pivots);
      ("solver_refactorizations", w.Lp.Simplex.refactorizations);
      ("solver_cold_solves", w.Lp.Simplex.cold_solves);
      ("solver_warm_attempts", w.Lp.Simplex.warm_attempts);
      ("solver_warm_hits", w.Lp.Simplex.warm_hits);
    ]

let eval_query t ~deadline query =
  let snap = Mutex.protect t.state_mu (fun () -> t.state) in
  let qfp = Paql.Fingerprint.of_query query in
  (* Planning happens before the result-cache probe, so a query that
     does not plan answers its error whatever the cache holds; the plan
     cache makes the parse on a repeat hit free. Everything else a
     result depends on (method, scenario counts, limits) is fixed in
     [cfg] for the server's life, so the key is the query and the table
     fingerprint, which append/delete invalidation matches on. *)
  match plan t snap qfp query with
  | Error resp -> resp
  | Ok planned -> (
    let rkey = qfp ^ "@" ^ snap.fp in
    match Cache.find_opt t.result_cache rkey with
    | Some resp ->
      Metrics.incr t.metrics "result_hits";
      resp
    | None ->
      Metrics.incr t.metrics "result_misses";
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then
        Protocol.Resp_err
          ( Protocol.Deadline,
            "deadline exceeded: request budget ran out before evaluation" )
      else begin
        let limits =
          {
            t.cfg.limits with
            Ilp.Branch_bound.max_seconds =
              Float.min t.cfg.limits.Ilp.Branch_bound.max_seconds remaining;
          }
        in
        (* Basis cache: keyed by the query's *structure* fingerprint
           (numeric literals abstracted) plus the table fingerprint.
           Parameter-tweaked variants of one query build ILPs over
           identical columns, so the optimal root basis of one
           warm-starts the next DIRECT solve. *)
        let bkey =
          lazy (Paql.Fingerprint.structure_of_query query ^ "@" ^ snap.fp)
        in
        let warm =
          {
            Engine.find =
              (fun () ->
                let b = Cache.find_opt t.basis_cache (Lazy.force bkey) in
                Metrics.incr t.metrics
                  (if Option.is_some b then "basis_hits" else "basis_misses");
                b);
            keep = (fun b -> Cache.add t.basis_cache (Lazy.force bkey) b);
          }
        in
        Metrics.incr t.metrics "solves";
        match
          Metrics.time t.metrics "solve" (fun () ->
              Engine.run ~warm ~limits ~seconds:remaining (settings t)
                (source t snap) snap.rel planned)
        with
        | Error resp -> resp
        | Ok { Engine.report; levels; scenarios } ->
          Option.iter (record_stoch_stats t.metrics) scenarios;
          Front.record_level_stats t.metrics levels;
          add_solver_work t.metrics report.Pkg.Eval.counters;
          let resp = Front.response_of_report report in
          if cacheable report then Cache.add t.result_cache rkey resp;
          resp
      end)

(* ------------------------------------------------------------------ *)
(* Writes                                                             *)
(* ------------------------------------------------------------------ *)

(* The write path makes the op durable first: under [state_mu] the WAL
   record is written and synced (when a log is attached), and only then
   is the op applied to the snapshot — so an acknowledgement always
   names bytes that survive a crash, and a failed sync (rolled back by
   [Wal.append]) leaves the state untouched. *)

(* Returns the durable record's sequence number (None without a log):
   acks carry it so a coordinator can tell which WAL prefix it has
   actually acknowledged — the catch-up ship at promotion must not
   replicate records whose ack never left this process. *)
let wal_log t ~epoch op =
  match t.wal with
  | None -> None
  | Some wal -> (
    match Metrics.time t.metrics "wal_append" (fun () ->
              Store.Wal.append ~epoch wal op) with
    | seq ->
      Metrics.incr t.metrics "wal_records";
      (* published so a coordinator can read replica lag (primary seq
         minus shipped seq) straight off two STATS snapshots *)
      Metrics.set_gauge t.metrics "wal_last_seq" (Store.Wal.last_seq wal);
      Some seq
    | exception (Store.Wal.Sync_failed _ as e) ->
      Metrics.incr t.metrics "wal_sync_failures";
      raise e)

exception Fenced_write of string

(* The write gate: called (under [state_mu]) after validation and
   before the WAL write, so a fenced op never becomes durable here.
   [epoch] is the coordinator's stamp ([None] for a direct, unstamped
   client — the standalone contract, always admitted at the installed
   epoch). Returns the epoch to stamp into the WAL record. *)
let fence_check t ~epoch =
  Mutex.protect t.fence_mu (fun () ->
      let refuse msg =
        Metrics.incr t.metrics "fence_rejections";
        raise (Fenced_write msg)
      in
      (match epoch with
      | Some e when e < t.srv_epoch ->
        refuse
          (Printf.sprintf "write epoch %d predates promotion epoch %d" e
             t.srv_epoch)
      | _ -> ());
      if Pkg.Faults.fence_epoch_stale () then
        refuse
          (Printf.sprintf
             "fault: write epoch predates promotion epoch %d" t.srv_epoch);
      let lease_expired =
        Pkg.Faults.fence_lease_expires ()
        ||
        match t.lease_deadline with
        | Some deadline -> Unix.gettimeofday () > deadline
        | None -> false
      in
      if lease_expired then begin
        if not t.demoted then begin
          t.demoted <- true;
          Metrics.incr t.metrics "demotions";
          Log.info (fun k ->
              k "lease expired; self-demoted read-only at epoch %d"
                t.srv_epoch)
        end;
        refuse
          (Printf.sprintf "lease expired; read-only at epoch %d" t.srv_epoch)
      end;
      max t.srv_epoch (Option.value epoch ~default:0))

(* LEASE install/renewal from the coordinator. The server keeps only
   90% of the granted ttl — it self-demotes strictly before the
   coordinator (which waits out the full nominal ttl since its last
   successful grant) can hand the next epoch to a replacement. *)
let handle_lease t ~epoch ~ttl_ms =
  Mutex.protect t.fence_mu (fun () ->
      (* Expiry is judged at arrival, before the grant can take effect: a
         grant buffered in the kernel while this process was stalled is
         delivered ahead of any reset (Linux drains received data before
         reporting the error), so it can surface long after the
         coordinator gave up on it. By then the old lease has lapsed and
         the node has lost authority — a same-epoch grant must not
         restore it. Reviving a node whose lease ever expired requires a
         strictly higher epoch, which only a deliberate re-lease by the
         coordinator can carry. *)
      (match t.lease_deadline with
      | Some deadline when Unix.gettimeofday () > deadline && not t.demoted ->
        t.demoted <- true;
        Metrics.incr t.metrics "demotions";
        Log.info (fun k ->
            k "lease expired; self-demoted read-only at epoch %d" t.srv_epoch)
      | _ -> ());
      if epoch < t.srv_epoch || (t.demoted && epoch = t.srv_epoch) then begin
        Metrics.incr t.metrics "fence_rejections";
        Protocol.Resp_err
          ( Protocol.Fenced,
            if epoch < t.srv_epoch then
              Printf.sprintf "lease epoch %d predates installed epoch %d" epoch
                t.srv_epoch
            else
              Printf.sprintf
                "lease expired at epoch %d; re-grant requires a higher epoch"
                t.srv_epoch )
      end
      else begin
        t.srv_epoch <- epoch;
        t.lease_deadline <-
          Some (Unix.gettimeofday () +. (float_of_int ttl_ms /. 1000. *. 0.9));
        t.demoted <- false;
        Metrics.incr t.metrics "lease_grants";
        Metrics.set_gauge t.metrics "epoch" epoch;
        Protocol.Resp_ok (Printf.sprintf "granted %d" epoch)
      end)

let maybe_checkpoint_locked t =
  match (t.wal, t.cfg.wal_dir) with
  | Some wal, Some dir
    when t.cfg.wal_checkpoint > 0
         && Store.Wal.records wal >= t.cfg.wal_checkpoint ->
    Metrics.time t.metrics "checkpoint" (fun () ->
        Store.Recovery.checkpoint ~dir wal t.state.rel);
    Metrics.incr t.metrics "checkpoints";
    Log.info (fun k ->
        k "checkpointed %d rows at seq %d; wal truncated"
          (Relalg.Relation.cardinality t.state.rel)
          (Store.Wal.last_seq wal))
  | _ -> ()

(* Swap [rel'] (with its maintained partitionings) in as the new
   snapshot, re-key the partitionings in the catalog under the new
   fingerprint so later cold starts hit too, and invalidate the
   superseded result-cache entries. Returns the invalidation count. *)
let publish_locked t ~old_fp ~verb rel' parts =
  let snap' =
    { rel = rel';
      fp = Store.Segment.fingerprint rel';
      parts;
      (* hierarchies are not incrementally maintained: a mutated table
         invalidates every level, so the next progressive query
         rebuilds (or re-finds via the catalog under the new fp) *)
      hiers = Hashtbl.create 4;
      parts_mu = Mutex.create () }
  in
  Front.prewarm rel';
  Option.iter
    (fun cat ->
      Hashtbl.iter
        (fun l part ->
          Store.Catalog.store cat (Engine.catalog_key snap'.fp l) part)
        parts)
    t.catalog;
  t.state <- snap';
  Metrics.incr t.metrics verb;
  let superseded k =
    String.length k >= String.length old_fp
    && String.sub k (String.length k - String.length old_fp)
         (String.length old_fp)
       = old_fp
  in
  let dropped = Cache.remove_if t.result_cache superseded in
  Metrics.incr ~by:dropped t.metrics "result_invalidated";
  (* A saved basis indexes rows of the superseded table; warm-starting
     the new one from it would be rejected (or worse, mislead the dual
     pass), so drop those too. *)
  ignore (Cache.remove_if t.basis_cache superseded);
  dropped

(* One validated write, under [state_mu]: fence it, log it, build the
   table it leaves behind once ([Store.Recovery.apply], the builder WAL
   replay uses), maintain every cached partitioning against that one
   relation, and publish. A write of no rows changes nothing: it is
   acked without a record (so without a sequence number), a snapshot
   swap or an invalidation. *)
let write_locked t ~epoch op =
  let stamp = fence_check t ~epoch in
  let verb, past, rows =
    match op with
    | Store.Wal.Append extra ->
      ("append", "appended", Relalg.Relation.cardinality extra)
    | Store.Wal.Delete ids -> ("delete", "deleted", List.length ids)
  in
  if rows = 0 then None
  else begin
    let seq = wal_log t ~epoch:stamp op in
    let snap = t.state in
    let rel' = Store.Recovery.apply snap.rel op in
    let maintain =
      match op with
      | Store.Wal.Append _ ->
        fun (l : Engine.layout) part ->
          Store.Maintain.append ~tau:l.tau ~radius:l.radius part rel'
      | Store.Wal.Delete ids ->
        let dead = Array.of_list ids in
        fun _ part -> Store.Maintain.delete part rel' dead
    in
    let parts = Hashtbl.create 4 in
    Metrics.time t.metrics "maintain" (fun () ->
        Mutex.protect snap.parts_mu (fun () ->
            Hashtbl.iter
              (fun l part ->
                let part', stats = maintain l part in
                Log.info (fun k ->
                    k "%s maintained %s: %a" verb
                      (String.concat "," l.Engine.attrs)
                      Store.Maintain.pp_stats stats);
                Hashtbl.replace parts l part')
              snap.parts));
    let dropped =
      publish_locked t ~old_fp:snap.fp ~verb:(verb ^ "s") rel' parts
    in
    Log.info (fun k ->
        k "%s %d rows: table now %d rows, fingerprint %s (%d cached results \
           invalidated)"
          past rows (Relalg.Relation.cardinality rel') t.state.fp dropped);
    maybe_checkpoint_locked t;
    seq
  end

let append ?epoch t extra =
  Mutex.protect t.state_mu (fun () ->
      (* validate before the WAL write: a record that cannot apply must
         never reach the log, or replay would fail where the live
         process refused *)
      if
        not
          (Relalg.Schema.equal
             (Relalg.Relation.schema t.state.rel)
             (Relalg.Relation.schema extra))
      then invalid_arg "append: schemas differ";
      write_locked t ~epoch (Store.Wal.Append extra))

let delete ?epoch t ids =
  Mutex.protect t.state_mu (fun () ->
      let n = Relalg.Relation.cardinality t.state.rel in
      List.iter
        (fun id ->
          if id < 0 || id >= n then
            invalid_arg
              (Printf.sprintf "delete: row id %d out of range (%d rows)" id n))
        ids;
      write_locked t ~epoch (Store.Wal.Delete ids))

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

(* Run [eval] on the worker pool and wait for its answer; a full queue
   answers a typed [rejected] at once. *)
let on_pool t eval =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let slot = ref None in
  let job () =
    let resp = eval () in
    Mutex.protect mu (fun () ->
        slot := Some resp;
        Condition.signal cond)
  in
  match Scheduler.submit t.sched job with
  | `Rejected ->
    let f =
      Pkg.Eval.failure
        (Pkg.Eval.Rejected
           (Printf.sprintf "queue full (capacity %d)"
              (Scheduler.capacity t.sched)))
    in
    Protocol.Resp_err (Protocol.Rejected, Format.asprintf "%a" Pkg.Eval.pp_failure f)
  | `Accepted ->
    Mutex.protect mu (fun () ->
        while !slot = None do
          Condition.wait cond mu
        done;
        Option.get !slot)

let handle_query t query =
  let deadline = Unix.gettimeofday () +. t.cfg.request_seconds in
  Front.answer ~run:(on_pool t) t.metrics (fun () ->
      eval_query t ~deadline query)

(* The ack of one write ([verb] "append" or "delete", [acked] its past
   tense, [rows] touched), naming the durable record's sequence number,
   or its typed refusal. *)
let write_ack t ~verb ~acked ~rows write =
  match write () with
  | seq ->
    Protocol.Resp_ok
      (Printf.sprintf "%s %d rows; table now %d rows, fingerprint %s%s" acked
         rows (table_rows t) (table_fingerprint t)
         (match seq with
         | Some s -> Printf.sprintf "; seq %d" s
         | None -> ""))
  | exception Invalid_argument msg ->
    Protocol.Resp_err (Protocol.Data_error, msg)
  | exception Fenced_write msg -> Protocol.Resp_err (Protocol.Fenced, msg)
  | exception Store.Wal.Sync_failed msg ->
    Protocol.Resp_err
      (Protocol.Internal, Printf.sprintf "%s not durable: %s" verb msg)

let handle_append t ~epoch csv =
  match Relalg.Csv.of_string csv with
  | exception Relalg.Csv.Error (line, msg) ->
    Protocol.Resp_err
      (Protocol.Data_error, Printf.sprintf "csv error at line %d: %s" line msg)
  | extra ->
    write_ack t ~verb:"append" ~acked:"appended"
      ~rows:(Relalg.Relation.cardinality extra) (fun () ->
        append ?epoch t extra)

let handle_delete t ~epoch ids =
  write_ack t ~verb:"delete" ~acked:"deleted" ~rows:(List.length ids)
    (fun () -> delete ?epoch t ids)

let handle_fingerprint t =
  let fp, rows =
    Mutex.protect t.state_mu (fun () ->
        (t.state.fp, Relalg.Relation.cardinality t.state.rel))
  in
  Protocol.Resp_ok (Printf.sprintf "%s %d" fp rows)

(* ------------------------------------------------------------------ *)
(* Shard verbs (scatter/gather substrate for the coordinator)         *)
(* ------------------------------------------------------------------ *)

(* The coordinator and every shard derive the partitioning
   independently from the same table and config, so group ids and
   member sets must agree bit-for-bit; ASSIGN records what the
   coordinator expects and the check below turns any divergence into a
   typed data error instead of a silently wrong package. *)
let verify_assignment (part : Pkg.Partition.t) groups =
  let m = Pkg.Partition.num_groups part in
  List.iter
    (fun (gid, members) ->
      if gid < 0 || gid >= m then
        invalid_arg
          (Printf.sprintf "assignment gid %d out of range (%d groups)" gid m);
      if part.Pkg.Partition.groups.(gid).Pkg.Partition.members <> members then
        invalid_arg
          (Printf.sprintf
             "partition divergence: group %d member set does not match" gid))
    groups

let shard_ctx t snap query =
  let qfp = Paql.Fingerprint.of_query query in
  match plan t snap qfp query with
  | Error resp -> Error resp
  | Ok ((_, spec) as planned) -> (
    (* a progressive shard derives the DLV hierarchy leaf — the same
       grouping a progressive coordinator deals out — so the ASSIGN
       divergence check passes iff both sides agree on method too *)
    let hierarchy = t.cfg.method_ = Engine.Progressive in
    let source = source t snap in
    match
      Result.map
        (fun l ->
          if hierarchy then Pkg.Hierarchy.leaf (source.hier l)
          else source.flat l)
        (Engine.layout ~hierarchy (settings t) snap.rel planned)
    with
    | exception Pkg.Faults.Injected msg ->
      Error (Protocol.Resp_err (Protocol.Failed, msg))
    | Error resp -> Error resp
    | Ok part -> (
      let key = qfp ^ "@" ^ snap.fp in
      match Cache.find_opt t.ctx_cache key with
      | Some ctx -> Ok ctx
      | None ->
        let ctx =
          Metrics.time t.metrics "shard_ctx" (fun () ->
              Pkg.Sketch.make_ctx spec snap.rel part)
        in
        Cache.add t.ctx_cache key ctx;
        Ok ctx))

let handle_assign t body =
  Metrics.incr t.metrics "assigns";
  match Protocol.parse_assign body with
  | exception Protocol.Protocol_error msg ->
    Protocol.Resp_err (Protocol.Data_error, msg)
  | groups -> (
    let snap = Mutex.protect t.state_mu (fun () -> t.state) in
    let n = Relalg.Relation.cardinality snap.rel in
    match
      List.iter
        (fun (gid, members) ->
          if gid < 0 then
            invalid_arg (Printf.sprintf "assign: bad group id %d" gid);
          if Array.length members = 0 then
            invalid_arg (Printf.sprintf "assign: group %d is empty" gid);
          Array.iter
            (fun id ->
              if id < 0 || id >= n then
                invalid_arg
                  (Printf.sprintf "assign: row id %d out of range (%d rows)"
                     id n))
            members)
        groups
    with
    | exception Invalid_argument msg ->
      Protocol.Resp_err (Protocol.Data_error, msg)
    | () ->
      let schema = Relalg.Relation.schema snap.rel in
      let reps =
        Relalg.Relation.of_rows schema
          (List.map
             (fun (_, members) -> Pkg.Partition.rep_row snap.rel members)
             groups)
      in
      Mutex.protect t.shard_mu (fun () -> t.shard_groups <- Some groups);
      Log.info (fun k ->
          k "assigned %d groups (%d rows owned)" (List.length groups)
            (List.fold_left (fun a (_, m) -> a + Array.length m) 0 groups));
      Protocol.Resp_ok (Relalg.Csv.to_string reps))

let with_assignment t f =
  match Mutex.protect t.shard_mu (fun () -> t.shard_groups) with
  | None ->
    Protocol.Resp_err (Protocol.Data_error, "no shard assignment installed")
  | Some groups -> f groups

let handle_sketch t query =
  Metrics.incr t.metrics "shard_sketches";
  with_assignment t (fun groups ->
      let snap = Mutex.protect t.state_mu (fun () -> t.state) in
      match shard_ctx t snap query with
      | Error resp -> resp
      | Ok ctx -> (
        match verify_assignment ctx.Pkg.Sketch.part groups with
        | exception Invalid_argument msg ->
          Protocol.Resp_err (Protocol.Data_error, msg)
        | () ->
          let counts =
            List.map
              (fun (gid, _) ->
                (gid, Array.length ctx.Pkg.Sketch.cand.(gid)))
              groups
          in
          Protocol.Resp_ok (Protocol.render_counts counts)))

(* One refine query, solved by [Pkg.Refine.local] — the same ILP a
   single node solves for the group — minus the warm-start basis: a
   cold solve is position-independent, so a failover or hedged
   duplicate of this request computes the identical answer on either
   the primary or its replica. Whatever the solve raises is answered
   as a typed [failed] result. *)
let handle_refine t body =
  Metrics.incr t.metrics "shard_refines";
  match Protocol.parse_refine body with
  | exception Protocol.Protocol_error msg ->
    Protocol.Resp_err (Protocol.Data_error, msg)
  | gid, budget_ms, offsets, query ->
    with_assignment t (fun groups ->
        if not (List.mem_assoc gid groups) then
          Protocol.Resp_err
            ( Protocol.Data_error,
              Printf.sprintf "group %d is not owned by this shard" gid )
        else
          let snap = Mutex.protect t.state_mu (fun () -> t.state) in
          match shard_ctx t snap query with
          | Error resp -> resp
          | Ok ctx ->
            let nconstraints =
              List.length ctx.Pkg.Sketch.spec.Paql.Translate.constraints
            in
            if Array.length offsets <> nconstraints then
              Protocol.Resp_err
                ( Protocol.Data_error,
                  Printf.sprintf "offset arity %d does not match %d constraints"
                    (Array.length offsets) nconstraints )
            else begin
              let budget = float_of_int budget_ms /. 1000. in
              let deadline = Unix.gettimeofday () +. budget in
              let limits =
                {
                  t.cfg.limits with
                  Ilp.Branch_bound.max_seconds =
                    Float.min t.cfg.limits.Ilp.Branch_bound.max_seconds budget;
                }
              in
              let counters = Pkg.Eval.fresh_counters () in
              let result =
                match
                  Metrics.time t.metrics "shard_refine" (fun () ->
                      Pkg.Refine.local ~limits ~deadline ctx counters gid
                        offsets)
                with
                | `Feasible entries -> Protocol.Refine_feasible entries
                | `Infeasible -> Protocol.Refine_infeasible
                | `Failed f ->
                  Protocol.Refine_failed
                    (Format.asprintf "%a" Pkg.Eval.pp_failure f)
                | exception Pkg.Faults.Injected msg ->
                  Protocol.Refine_failed ("injected: " ^ msg)
                | exception e ->
                  Protocol.Refine_failed
                    ("solver exception: " ^ Printexc.to_string e)
              in
              add_solver_work t.metrics counters;
              Protocol.Resp_ok (Protocol.render_refine_result result)
            end)

(* The verbs beyond the shell's PING/QUIT. *)
let dispatch t = function
  | Protocol.Stats -> Protocol.Resp_ok (Metrics.render t.metrics)
  | Protocol.Append { csv; epoch } -> handle_append t ~epoch csv
  | Protocol.Delete { ids; epoch } -> handle_delete t ~epoch ids
  | Protocol.Lease { epoch; ttl_ms } -> handle_lease t ~epoch ~ttl_ms
  | Protocol.Fingerprint -> handle_fingerprint t
  | Protocol.Assign body -> handle_assign t body
  | Protocol.Sketch q -> handle_sketch t q
  | Protocol.Refine body ->
    (* refine ILPs run on the connection thread, not the query worker
       pool: the coordinator bounds its own fan-out, and a queued refine
       behind a long QUERY would blow the per-group budget it was sent
       with *)
    handle_refine t body
  | Protocol.Query q -> handle_query t q
  | Protocol.Ping | Protocol.Quit -> assert false (* answered by the shell *)

let log_loop t =
  let rec loop since =
    if Front.stopped t.front then ()
    else begin
      Thread.delay 0.05;
      let now = Unix.gettimeofday () in
      if now -. since >= t.cfg.log_every then begin
        Log.app (fun k -> k "%s" (Metrics.summary_line t.metrics));
        loop now
      end
      else loop since
    end
  in
  loop (Unix.gettimeofday ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let start ?catalog cfg rel =
  let metrics = Metrics.create () in
  (* Durability: with a WAL dir, the served state is whatever recovery
     rebuilds — checkpoint plus replayed log — not the caller's [rel],
     which only seeds a log that has never checkpointed. *)
  let rel, wal, recovery =
    match cfg.wal_dir with
    | None -> (rel, None, None)
    | Some dir ->
      let rel', wal, stats =
        Metrics.time metrics "recovery" (fun () ->
            Store.Recovery.recover ~sync:cfg.wal_sync ~dir
              ~base:(fun () -> rel) ())
      in
      Metrics.incr ~by:stats.records_replayed metrics "recovery_replayed";
      Metrics.incr ~by:stats.records_skipped metrics "recovery_skipped";
      Metrics.incr ~by:stats.torn_bytes metrics "recovery_torn_bytes";
      Metrics.incr ~by:stats.fenced_bytes metrics "recovery_fenced_bytes";
      Log.info (fun k ->
          k "recovered %d rows from %s: %a"
            (Relalg.Relation.cardinality rel')
            dir Store.Recovery.pp_stats stats);
      (rel', Some wal, Some stats)
  in
  let front = Front.listen ~metrics ~host:cfg.host ~port:cfg.port in
  let sched = Scheduler.create ~workers:cfg.workers ~capacity:cfg.queue ~metrics in
  let t =
    {
      cfg;
      catalog;
      metrics;
      sched;
      plan_cache = Cache.create ~capacity:cfg.plan_cache;
      result_cache = Cache.create ~capacity:cfg.result_cache;
      basis_cache = Cache.create ~capacity:cfg.basis_cache;
      ctx_cache = Cache.create ~capacity:16;
      shard_groups = None;
      shard_mu = Mutex.create ();
      (* a restarted node remembers the highest epoch its WAL was acked
         under, so a stale stamp is refused even before the first LEASE *)
      srv_epoch =
        (match recovery with Some s -> s.Store.Recovery.last_epoch | None -> 0);
      lease_deadline = None;
      demoted = false;
      fence_mu = Mutex.create ();
      state = fresh_snapshot rel;
      state_mu = Mutex.create ();
      wal;
      recovery;
      front;
      log_thread = None;
    }
  in
  Pkg.Eval.set_observer
    (Some (fun stage dt -> Metrics.observe metrics (Pkg.Eval.stage_name stage) dt));
  Option.iter
    (fun wal -> Metrics.set_gauge metrics "wal_last_seq" (Store.Wal.last_seq wal))
    t.wal;
  Metrics.set_gauge metrics "epoch" t.srv_epoch;
  Front.serve front (dispatch t);
  if cfg.log_every > 0. then t.log_thread <- Some (Thread.create log_loop t);
  Log.info (fun k ->
      k "serving %d rows on %s:%d (%d workers, queue %d, result cache %d)"
        (Relalg.Relation.cardinality rel)
        cfg.host (Front.port front) cfg.workers cfg.queue cfg.result_cache);
  t

let stop t =
  Front.stop t.front ~teardown:(fun () ->
      Scheduler.shutdown t.sched;
      Option.iter Thread.join t.log_thread;
      Option.iter Store.Wal.close t.wal;
      Pkg.Eval.set_observer None)
