(* Durability tests: the WAL record format (round-trips, torn tails,
   fsync-failure rollback, sequence continuity across checkpoints),
   startup recovery (checkpoint + replay, the crash-between-publish-
   and-truncate window, stale tempfiles, torn tails), the client retry
   budget (backoff across a server restart, non-idempotent verbs never
   resent), and the chaos kill/restart smoke — real [pkgq_server]
   children crashed at injected points and recovered byte-identically
   to the acknowledged prefix. *)

module R = Relalg.Relation
module Wal = Store.Wal
module Rec = Store.Recovery
module Seg = Store.Segment
module Srv = Service.Server
module Cl = Service.Client
module Pr = Service.Protocol
module Ch = Service.Chaos
module W = Datagen.Workload

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_dir = Tmp_root.make "durability"

let tmp_path name =
  let d = Filename.concat tmp_dir name in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let fp = Seg.fingerprint

let galaxy n seed = Datagen.Galaxy.generate ~seed n

let batch rows seed = W.append_batch ~dataset:`Galaxy ~rows ~seed

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* WAL records                                                        *)
(* ------------------------------------------------------------------ *)

let test_wal_roundtrip () =
  let dir = tmp_path "wal-rt" in
  let path = Filename.concat dir "wal.log" in
  let b1 = batch 4 11 and b2 = batch 3 12 in
  let wal, rp0 = Wal.open_log ~sync:Wal.Always path in
  checki "fresh log is empty" 0 (List.length rp0.Wal.ops);
  checki "seq 1" 1 (Wal.append wal (Wal.Append b1));
  checki "seq 2" 2 (Wal.append wal (Wal.Delete [ 0; 2 ]));
  checki "seq 3" 3 (Wal.append wal (Wal.Append b2));
  checki "records counted" 3 (Wal.records wal);
  Wal.close wal;
  let rp = Wal.replay path in
  checki "three records back" 3 (List.length rp.Wal.ops);
  checki "no torn tail" 0 rp.Wal.torn_bytes;
  checki "last seq" 3 rp.Wal.replay_last_seq;
  (match rp.Wal.ops with
  | [ { Wal.seq = 1; epoch = 0; op = Wal.Append a };
      { Wal.seq = 2; epoch = 0; op = Wal.Delete ids };
      { Wal.seq = 3; epoch = 0; op = Wal.Append b } ] ->
    checks "append 1 bytes" (fp b1) (fp a);
    checkb "delete ids" true (ids = [ 0; 2 ]);
    checks "append 2 bytes" (fp b2) (fp b)
  | _ -> Alcotest.fail "unexpected replay shape");
  (* reopening appends after the valid prefix, seq continues *)
  let wal2, rp2 = Wal.open_log ~sync:Wal.Always path in
  checki "reopen sees all" 3 (List.length rp2.Wal.ops);
  checki "seq continues" 4 (Wal.append wal2 (Wal.Delete [ 1 ]));
  Wal.close wal2

let test_wal_torn_tail () =
  let dir = tmp_path "wal-torn" in
  let path = Filename.concat dir "wal.log" in
  let b1 = batch 5 21 in
  let wal, _ = Wal.open_log ~sync:Wal.Always path in
  ignore (Wal.append wal (Wal.Append b1));
  ignore (Wal.append wal (Wal.Delete [ 0 ]));
  Wal.close wal;
  let intact = read_bytes path in
  (* cut the last frame short: a crash mid-write *)
  let torn_prefix = String.sub intact 0 (String.length intact - 3) in
  write_bytes path torn_prefix;
  let rp = Wal.replay path in
  checki "only the intact record" 1 (List.length rp.Wal.ops);
  checkb "torn bytes reported" true (rp.Wal.torn_bytes > 0);
  checkb "file untouched without ~truncate" true
    (file_size path = String.length torn_prefix);
  let rp' = Wal.replay ~truncate:true path in
  checki "still one record" 1 (List.length rp'.Wal.ops);
  checki "tail cut off on disk" rp'.Wal.valid_bytes (file_size path);
  checki "clean after truncation" 0 (Wal.replay path).Wal.torn_bytes;
  (* garbage appended to a valid log is also a torn tail *)
  write_bytes path (read_bytes path ^ "\x20\x00\x00\x00junk");
  let rp'' = Wal.replay path in
  checki "garbage does not decode" 1 (List.length rp''.Wal.ops);
  checkb "garbage reported torn" true (rp''.Wal.torn_bytes > 0)

let test_wal_fsync_fail () =
  let dir = tmp_path "wal-fsync" in
  let path = Filename.concat dir "wal.log" in
  let wal, _ = Wal.open_log ~sync:Wal.Always path in
  ignore (Wal.append wal (Wal.Append (batch 3 31)));
  let size_before = file_size path in
  (match Pkg.Faults.parse "wal=fsync:fail" with
  | Ok spec -> Pkg.Faults.install spec
  | Error msg -> Alcotest.fail ("wal=fsync:fail should parse: " ^ msg));
  Fun.protect ~finally:Pkg.Faults.clear (fun () ->
      match Wal.append wal (Wal.Append (batch 2 32)) with
      | _ -> Alcotest.fail "append must raise under wal=fsync:fail"
      | exception Wal.Sync_failed _ -> ());
  (* the failed record was rolled back out of the log *)
  checki "log unchanged" size_before (file_size path);
  checki "seq not consumed durably" 1 (Wal.replay path).Wal.replay_last_seq;
  (* and the log still works once the fault clears *)
  checki "next record" 2 (Wal.append wal (Wal.Delete [ 0 ]));
  Wal.close wal;
  checki "both records valid" 2 (List.length (Wal.replay path).Wal.ops)

let test_wal_fault_grammar () =
  let ok s = match Pkg.Faults.parse s with Ok _ -> true | Error _ -> false in
  checkb "torn:2 parses" true (ok "wal=torn:2");
  checkb "crash:5 parses" true (ok "wal=crash:5");
  checkb "fsync:fail parses" true (ok "wal=fsync:fail");
  checkb "torn:0 rejected" false (ok "wal=torn:0");
  checkb "bogus selector rejected" false (ok "wal=bogus:1");
  checkb "fsync needs fail" false (ok "wal=fsync:3")

(* The parser [pkgq_server] reads PKGQ_WAL_SYNC with. *)
let test_wal_sync_env () =
  checkb "off selects Never" true (Wal.sync_of_string "off" = Some Wal.Never);
  checkb "NO selects Never" true (Wal.sync_of_string " NO " = Some Wal.Never);
  checkb "always selects Always" true
    (Wal.sync_of_string "always" = Some Wal.Always);
  checkb "garbage is refused" true (Wal.sync_of_string "sometimes" = None)

(* ------------------------------------------------------------------ *)
(* Epoch stamps (fencing)                                              *)
(* ------------------------------------------------------------------ *)

(* One on-disk frame: [length (i32 LE) | record image]. *)
let frame image =
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (String.length image));
  Bytes.to_string hdr ^ image

(* A version-1 record image, as every log wrote before the epoch field
   existed: [seq | tag | payload], no epoch. *)
let encode_record_v1 ~seq op =
  let b = Buffer.create 256 in
  Store.Wire.put_i64 b seq;
  (match op with
  | Wal.Append rel ->
    Store.Wire.put_u8 b 0;
    Store.Wire.put_str b (Store.Segment.to_string rel)
  | Wal.Delete ids ->
    Store.Wire.put_u8 b 1;
    Store.Wire.put_i32 b (List.length ids);
    List.iter (Store.Wire.put_i32 b) ids);
  Store.Wire.seal ~magic:"PKGQWAL1" ~version:1 b

let gen_wal_case =
  QCheck.Gen.(
    triple (int_range 1 1_000_000) (int_range 0 1_000_000)
      (oneof
         [ map
             (fun (rows, seed) -> Wal.Append (batch rows seed))
             (pair (int_range 1 6) (int_range 0 999));
           map (fun ids -> Wal.Delete ids)
             (list_size (int_range 0 8) (int_range 0 500)) ]))

let print_wal_case (seq, epoch, op) =
  Printf.sprintf "seq=%d epoch=%d %s" seq epoch
    (match op with
    | Wal.Append rel ->
      Printf.sprintf "append(%d rows)" (R.cardinality rel)
    | Wal.Delete ids ->
      Printf.sprintf "delete[%s]"
        (String.concat ";" (List.map string_of_int ids)))

let record_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"epoch-stamped record image round-trips"
    (QCheck.make ~print:print_wal_case gen_wal_case)
    (fun (seq, epoch, op) ->
      let r = Wal.decode_record (Wal.encode_record ~seq ~epoch op) in
      r.Wal.seq = seq && r.Wal.epoch = epoch
      &&
      match (r.Wal.op, op) with
      | Wal.Append a, Wal.Append b -> fp a = fp b
      | Wal.Delete a, Wal.Delete b -> a = b
      | _ -> false)

let test_wal_v1_compat () =
  let b1 = batch 3 111 in
  (* a lone v1 image decodes as epoch 0 *)
  let r = Wal.decode_record (encode_record_v1 ~seq:7 (Wal.Append b1)) in
  checki "v1 seq" 7 r.Wal.seq;
  checki "v1 decodes as epoch 0" 0 r.Wal.epoch;
  (match r.Wal.op with
  | Wal.Append a -> checks "v1 payload intact" (fp b1) (fp a)
  | Wal.Delete _ -> Alcotest.fail "v1 op tag");
  (* a whole v1 log replays, and a reopened one accepts v2 appends *)
  let dir = tmp_path "wal-v1" in
  let path = Filename.concat dir "wal.log" in
  write_bytes path
    (frame (encode_record_v1 ~seq:1 (Wal.Append b1))
    ^ frame (encode_record_v1 ~seq:2 (Wal.Delete [ 0 ])));
  let rp = Wal.replay path in
  checki "v1 log replays" 2 (List.length rp.Wal.ops);
  checki "v1 log is epoch 0" 0 rp.Wal.replay_last_epoch;
  checki "no torn bytes" 0 rp.Wal.torn_bytes;
  let wal, _ = Wal.open_log ~sync:Wal.Always path in
  checki "seq continues past v1 records" 3
    (Wal.append ~epoch:4 wal (Wal.Delete [ 1 ]));
  Wal.close wal;
  let rp' = Wal.replay path in
  checki "mixed-version log replays" 3 (List.length rp'.Wal.ops);
  checki "v2 epoch recorded" 4 rp'.Wal.replay_last_epoch

let test_wal_fenced_suffix () =
  let dir = tmp_path "wal-fence" in
  let path = Filename.concat dir "wal.log" in
  let wal, _ = Wal.open_log ~sync:Wal.Always path in
  ignore (Wal.append ~epoch:1 wal (Wal.Append (batch 3 121)));
  ignore (Wal.append ~epoch:2 wal (Wal.Append (batch 2 122)));
  Wal.close wal;
  (* a deposed primary's write lands after the epoch moved on: the
     regressing suffix is discarded, apart from torn accounting *)
  write_bytes path
    (read_bytes path ^ frame (Wal.encode_record ~seq:3 ~epoch:1 (Wal.Delete [ 0 ])));
  let rp = Wal.replay path in
  checki "fenced suffix dropped" 2 (List.length rp.Wal.ops);
  checkb "fenced bytes counted" true (rp.Wal.fenced_bytes > 0);
  checki "not confused with torn bytes" 0 rp.Wal.torn_bytes;
  checki "prefix epoch stands" 2 rp.Wal.replay_last_epoch;
  (* truncation cuts the fenced suffix on disk, preserving monotonicity *)
  let rp' = Wal.replay ~truncate:true path in
  checki "fenced tail cut on disk" rp'.Wal.valid_bytes (file_size path);
  checki "clean after truncation" 0 (Wal.replay path).Wal.fenced_bytes;
  (* a live appender clamps a stale stamp up to the log's maximum, so
     one log's epochs never regress in the first place *)
  let wal2, rp2 = Wal.open_log ~sync:Wal.Always path in
  checki "open seeds epoch from replay" 2 rp2.Wal.replay_last_epoch;
  ignore (Wal.append ~epoch:1 wal2 (Wal.Delete [ 0 ]));
  checki "append clamped the stamp" 2 (Wal.last_epoch wal2);
  Wal.close wal2;
  checki "on-disk epoch monotone" 2 (Wal.replay path).Wal.replay_last_epoch

let test_recover_truncates_fenced_suffix () =
  let dir = tmp_path "rec-fence" in
  let base = galaxy 10 131 in
  let b1 = batch 3 132 in
  let rel, wal, _ = Rec.recover ~dir ~base:(fun () -> base) () in
  ignore (Wal.append ~epoch:3 wal (Wal.Append b1));
  Wal.close wal;
  let expect = Rec.apply rel (Wal.Append b1) in
  write_bytes (Rec.wal_path dir)
    (read_bytes (Rec.wal_path dir)
    ^ frame (Wal.encode_record ~seq:2 ~epoch:1 (Wal.Delete [ 0 ])));
  let rel', wal', stats = Rec.recover ~dir ~base:(fun () -> base) () in
  Fun.protect
    ~finally:(fun () -> Wal.close wal')
    (fun () ->
      checks "fenced write never applied" (fp expect) (fp rel');
      checkb "fenced bytes surfaced" true (stats.Rec.fenced_bytes > 0);
      checki "epoch surfaced" 3 stats.Rec.last_epoch;
      checki "only the legitimate record" 1 stats.Rec.records_replayed)

(* ------------------------------------------------------------------ *)
(* Recovery                                                           *)
(* ------------------------------------------------------------------ *)

let test_recover_fresh_dir () =
  let dir = Filename.concat tmp_dir "rec-fresh/nested" in
  let base = galaxy 20 41 in
  let rel, wal, stats = Rec.recover ~dir ~base:(fun () -> base) () in
  Fun.protect
    ~finally:(fun () -> Wal.close wal)
    (fun () ->
      checks "base served" (fp base) (fp rel);
      checkb "no checkpoint yet" true (stats.Rec.checkpoint_rows = None);
      checki "nothing replayed" 0 stats.Rec.records_replayed)

let test_recover_replays_log () =
  let dir = tmp_path "rec-replay" in
  let base = galaxy 25 42 in
  let b1 = batch 4 43 and b2 = batch 2 44 in
  let rel, wal, _ = Rec.recover ~dir ~base:(fun () -> base) () in
  ignore (Wal.append wal (Wal.Append b1));
  ignore (Wal.append wal (Wal.Append b2));
  ignore (Wal.append wal (Wal.Delete [ 0; 26 ]));
  let expect =
    List.fold_left Rec.apply rel
      [ Wal.Append b1; Wal.Append b2; Wal.Delete [ 0; 26 ] ]
  in
  Wal.close wal;
  let rel', wal', stats = Rec.recover ~dir ~base:(fun () -> base) () in
  Fun.protect
    ~finally:(fun () -> Wal.close wal')
    (fun () ->
      checks "replayed state" (fp expect) (fp rel');
      checki "three records replayed" 3 stats.Rec.records_replayed;
      checki "rows appended" 6 stats.Rec.rows_appended;
      checki "rows deleted" 2 stats.Rec.rows_deleted;
      checki "none skipped" 0 stats.Rec.records_skipped)

let test_checkpoint_skip_guard () =
  (* A crash *between* checkpoint publish and log truncation leaves
     both the fresh checkpoint and the records it absorbed on disk;
     the sequence-number guard must not apply them twice. *)
  let dir = tmp_path "rec-skip" in
  let base = galaxy 15 51 in
  let b1 = batch 3 52 and b2 = batch 4 53 in
  let rel, wal, _ = Rec.recover ~dir ~base:(fun () -> base) () in
  ignore (Wal.append wal (Wal.Append b1));
  ignore (Wal.append wal (Wal.Append b2));
  let rel2 = List.fold_left Rec.apply rel [ Wal.Append b1; Wal.Append b2 ] in
  let pre_ckpt_log = read_bytes (Rec.wal_path dir) in
  Rec.checkpoint ~dir wal rel2;
  checki "checkpoint truncated the log" 0 (file_size (Rec.wal_path dir));
  Wal.close wal;
  (* resurrect the pre-checkpoint log: the simulated crash window *)
  write_bytes (Rec.wal_path dir) pre_ckpt_log;
  let rel', wal', stats = Rec.recover ~dir ~base:(fun () -> base) () in
  Fun.protect
    ~finally:(fun () -> Wal.close wal')
    (fun () ->
      checks "nothing applied twice" (fp rel2) (fp rel');
      checki "both records skipped" 2 stats.Rec.records_skipped;
      checki "none replayed" 0 stats.Rec.records_replayed;
      checkb "checkpoint loaded" true
        (stats.Rec.checkpoint_rows = Some (R.cardinality rel2));
      (* new writes keep numbering above the absorbed records *)
      checki "seq above checkpoint" 3 (Wal.append wal' (Wal.Delete [ 0 ])))

let test_recover_sweeps_stale_tmp () =
  let dir = tmp_path "rec-tmp" in
  let base = galaxy 10 61 in
  let stale = Rec.checkpoint_path dir ^ ".tmp.4242" in
  write_bytes stale "half-written checkpoint from a dead process";
  let rel, wal, _ = Rec.recover ~dir ~base:(fun () -> base) () in
  Fun.protect
    ~finally:(fun () -> Wal.close wal)
    (fun () ->
      checks "stale tmp ignored" (fp base) (fp rel);
      checkb "stale tmp swept" false (Sys.file_exists stale))

let test_recover_truncates_torn_tail () =
  let dir = tmp_path "rec-torn" in
  let base = galaxy 12 71 in
  let b1 = batch 3 72 in
  let rel, wal, _ = Rec.recover ~dir ~base:(fun () -> base) () in
  ignore (Wal.append wal (Wal.Append b1));
  Wal.close wal;
  let expect = Rec.apply rel (Wal.Append b1) in
  let intact = read_bytes (Rec.wal_path dir) in
  write_bytes (Rec.wal_path dir)
    (intact ^ String.sub intact 0 (String.length intact / 2));
  let rel', wal', stats = Rec.recover ~dir ~base:(fun () -> base) () in
  Fun.protect
    ~finally:(fun () -> Wal.close wal')
    (fun () ->
      checks "valid prefix recovered" (fp expect) (fp rel');
      checkb "torn bytes counted" true (stats.Rec.torn_bytes > 0);
      checki "tail truncated on disk" (String.length intact)
        (file_size (Rec.wal_path dir)))

let test_apply_matches_live_semantics () =
  let base = galaxy 30 81 in
  let extra = batch 5 82 in
  let appended = Rec.apply base (Wal.Append extra) in
  checki "rows concatenated" 35 (R.cardinality appended);
  checkb "appended rows in order" true
    (R.row appended 30 = R.row extra 0 && R.row appended 34 = R.row extra 4);
  let deleted = Rec.apply appended (Wal.Delete [ 0; 34; 17; 17 ]) in
  checki "delete compacts, duplicates allowed" 32 (R.cardinality deleted);
  checkb "survivors keep order" true
    (R.row deleted 0 = R.row appended 1 && R.row deleted 31 = R.row appended 33);
  (match Rec.apply appended (Wal.Delete [ 99 ]) with
  | _ -> Alcotest.fail "out-of-range delete must raise"
  | exception Store.Wire.Error _ -> ());
  match
    Rec.apply base (Wal.Append (Relalg.Relation.of_rows (R.schema extra) []))
  with
  | r -> checki "empty append is identity" 30 (R.cardinality r)
  | exception _ -> Alcotest.fail "empty append must not raise"

(* [apply] carries the numeric columns its input has materialized over
   to the table it builds. Whatever the input's cache held — every
   column, one, none — each numeric column of the result has the data
   bits and null map of the column a fresh relation over the same rows
   materializes. *)
let test_apply_carries_columns () =
  let module S = Relalg.Schema in
  let module V = Relalg.Value in
  let schema =
    S.make
      [ { S.name = "i"; ty = V.TInt }; { S.name = "f"; ty = V.TFloat };
        { S.name = "s"; ty = V.TStr }; { S.name = "g"; ty = V.TFloat } ]
  in
  let row k =
    [|
      (if k mod 3 = 0 then V.Null else V.Int ((7 * k) - 20));
      (if k mod 4 = 1 then V.Null else V.Float (float_of_int k /. 3.));
      (if k mod 5 = 2 then V.Null else V.Str (string_of_int k));
      (match k mod 6 with
      | 0 -> V.Float nan
      | 1 -> V.Float (-0.)
      | 2 -> V.Null
      | _ -> V.Float (ldexp 1. (-1070 + k)));
    |]
  in
  let rel ~warm ks =
    let r = R.of_rows schema (List.map row ks) in
    List.iter (fun i -> ignore (R.column_at r i)) warm;
    r
  in
  let base = List.init 40 Fun.id and batch = List.init 9 (fun k -> 40 + k) in
  let same_column what a b =
    let n = Relalg.Column.length a in
    checki (what ^ ": length") (Relalg.Column.length b) n;
    checki (what ^ ": null count") (Relalg.Column.n_nulls b)
      (Relalg.Column.n_nulls a);
    for j = 0 to n - 1 do
      let bits view c = Int64.bits_of_float (view c).(j) in
      if
        bits Relalg.Column.data a <> bits Relalg.Column.data b
        || bits Relalg.Column.zeroed a <> bits Relalg.Column.zeroed b
        || Relalg.Column.is_null a j <> Relalg.Column.is_null b j
      then Alcotest.failf "%s: cell %d differs from a fresh column" what j
    done
  in
  List.iter
    (fun (state, warm) ->
      List.iter
        (fun (what, op) ->
          let what = state ^ ", " ^ what in
          let out = Rec.apply (rel ~warm base) op in
          let fresh = R.of_rows schema (R.to_list out) in
          for i = 0 to S.arity schema - 1 do
            match (R.column_at out i, R.column_at fresh i) with
            | None, None -> ()
            | Some a, Some b ->
              same_column (Printf.sprintf "%s, column %d" what i) a b
            | _ ->
              Alcotest.failf "%s: column %d numeric on one side only" what i
          done)
        [
          ("append", Wal.Append (rel ~warm:[] batch));
          ("append of a warm batch", Wal.Append (rel ~warm:[ 0; 1; 3 ] batch));
          ("delete", Wal.Delete [ 0; 5; 5; 17; 39 ]);
          ("delete of every row", Wal.Delete base);
        ])
    [ ("warm", [ 0; 1; 2; 3 ]); ("one column warm", [ 3 ]); ("cold", []) ]

(* ------------------------------------------------------------------ *)
(* Client retries                                                     *)
(* ------------------------------------------------------------------ *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let base_cfg () =
  {
    Srv.default_config with
    Srv.workers = 2;
    queue = 8;
    log_every = 0.;
  }

let test_retry_gives_up () =
  let port = free_port () in
  (* retries off (the default): the raw connection error surfaces *)
  (match Cl.connect ~host:"127.0.0.1" ~port () with
  | c ->
    Cl.close c;
    Alcotest.fail "connect to a dead port must fail"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  (* with a budget: typed give-up carrying the attempt count *)
  match Cl.connect ~retries:2 ~host:"127.0.0.1" ~port () with
  | c ->
    Cl.close c;
    Alcotest.fail "connect to a dead port must give up"
  | exception Cl.Gave_up { attempts; last } ->
    checki "attempts counted" 3 attempts;
    checkb "last error is the connection error" true
      (match last with Unix.Unix_error _ -> true | _ -> false)

let test_retry_survives_restart () =
  let port = free_port () in
  let galaxy = galaxy 50 91 in
  let cfg = { (base_cfg ()) with Srv.port } in
  let t1 = Srv.start cfg galaxy in
  let t2 = ref None in
  let c = Cl.connect ~retries:6 ~host:"127.0.0.1" ~port () in
  Fun.protect
    ~finally:(fun () ->
      Cl.close c;
      Option.iter Srv.stop !t2)
    (fun () ->
      (match Cl.ping c with
      | Pr.Resp_ok _ -> ()
      | _ -> Alcotest.fail "first ping");
      Srv.stop t1;
      (* restart on the same port while the client is mid-backoff *)
      let restarter =
        Thread.create
          (fun () ->
            Thread.delay 0.25;
            t2 := Some (Srv.start cfg galaxy))
          ()
      in
      let resp = Cl.ping c in
      Thread.join restarter;
      match resp with
      | Pr.Resp_ok _ -> ()
      | _ -> Alcotest.fail "ping must survive the restart window")

let test_append_never_resent () =
  let galaxy = galaxy 40 92 in
  let t = Srv.start (base_cfg ()) galaxy in
  let c = Cl.connect ~retries:5 ~host:"127.0.0.1" ~port:(Srv.port t) () in
  Fun.protect
    ~finally:(fun () -> Cl.close c)
    (fun () ->
      (match Cl.ping c with
      | Pr.Resp_ok _ -> ()
      | _ -> Alcotest.fail "ping");
      Srv.stop t;
      (* non-idempotent: the connection error must surface immediately,
         never a transparent reconnect-and-resend *)
      match Cl.append c ~csv:(Relalg.Csv.to_string (batch 2 93)) with
      | Pr.Resp_ok _ -> Alcotest.fail "append must not succeed after stop"
      | Pr.Resp_err _ -> Alcotest.fail "append must not reach a server"
      | exception Cl.Gave_up _ ->
        Alcotest.fail "append must not be retried to give-up"
      | exception e ->
        checkb "connection error surfaces" true
          (match e with
          | Unix.Unix_error _ | Sys_error _ | End_of_file
          | Pr.Protocol_error _ ->
            true
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Chaos kill/restart smoke                                           *)
(* ------------------------------------------------------------------ *)

let server_exe =
  let p =
    match Sys.getenv_opt "PKGQ_SERVER_EXE" with
    | Some p -> p
    | None -> Filename.concat ".." "bin/pkgq_server.exe"
  in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let chaos_base = lazy (galaxy 60 101)

let chaos_batches = List.map (fun k -> batch (2 + (k mod 3)) (200 + k)) [ 1; 2; 3; 4 ]

let run_point ?checkpoint name point =
  let r =
    Ch.run_crash ~exe:server_exe
      ~dir:(Filename.concat tmp_dir ("chaos-" ^ name))
      ~base:(Lazy.force chaos_base) ~batches:chaos_batches ~point ?checkpoint
      ()
  in
  (match Ch.check r with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg);
  r

let test_chaos_reference () =
  let r =
    Ch.run_reference ~exe:server_exe
      ~dir:(Filename.concat tmp_dir "chaos-ref")
      ~base:(Lazy.force chaos_base) ~batches:chaos_batches ()
  in
  let expect_fp, expect_rows = r.Ch.refs.(Array.length r.Ch.refs - 1) in
  checks "live server matches local reference" expect_fp r.Ch.recovered_fp;
  checki "row count matches" expect_rows r.Ch.recovered_rows

let test_chaos_torn () =
  let r = run_point "torn" (Ch.Torn 2) in
  checkb "server died at the injected point" true r.Ch.died;
  checki "one append acknowledged" 1 r.Ch.acked;
  checks "recovered = acknowledged prefix" (fst r.Ch.refs.(1)) r.Ch.recovered_fp

let test_chaos_crash_pre_ack () =
  let r = run_point "crash" (Ch.Crash 2) in
  checkb "server died at the injected point" true r.Ch.died;
  checki "ack was lost" 1 r.Ch.acked;
  (* the in-doubt record was durable, so replaying it is the one
     permitted outcome beyond the acknowledged prefix *)
  checks "in-doubt write replayed" (fst r.Ch.refs.(2)) r.Ch.recovered_fp

let test_chaos_kill_with_checkpoint () =
  let r = run_point ~checkpoint:2 "kill-ckpt" (Ch.Kill_after 3) in
  checkb "killed after three acks" true r.Ch.died;
  checki "three acknowledged" 3 r.Ch.acked;
  checks "checkpoint + replay = acknowledged state" (fst r.Ch.refs.(3))
    r.Ch.recovered_fp;
  checkb "recovery was timed" true (r.Ch.recovery_seconds > 0.)

(* The full crash matrix: every WAL record torn mid-frame, every record
   durable but unacknowledged, and a kill after every acknowledged
   append, then a slice with a checkpoint inside the window so recovery
   also replays checkpoint + partial log. Each point must recover
   exactly the acknowledged prefix (plus the in-doubt record for
   [Crash]): no lost acknowledged write, no phantom. *)
let test_chaos_crash_matrix () =
  let ks = List.init (List.length chaos_batches) (fun i -> i + 1) in
  let points =
    List.concat_map
      (fun k ->
        [ (Ch.Torn k, None); (Ch.Crash k, None); (Ch.Kill_after k, None) ])
      ks
    @ [ (Ch.Torn 3, Some 2); (Ch.Crash 3, Some 2); (Ch.Kill_after 4, Some 2) ]
  in
  List.iter
    (fun (point, checkpoint) ->
      let name =
        Ch.point_name point
        ^
        match checkpoint with
        | Some c -> Printf.sprintf "-ckpt%d" c
        | None -> ""
      in
      let r = run_point ?checkpoint name point in
      checkb (name ^ ": server died at the injected point") true r.Ch.died)
    points

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "durability"
    [
      ( "wal",
        [
          Alcotest.test_case "record round-trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail detected and truncated" `Quick
            test_wal_torn_tail;
          Alcotest.test_case "fsync failure rolls back" `Quick
            test_wal_fsync_fail;
          Alcotest.test_case "fault grammar" `Quick test_wal_fault_grammar;
          Alcotest.test_case "sync knob from env" `Quick test_wal_sync_env;
        ] );
      ( "epoch",
        [
          QCheck_alcotest.to_alcotest record_roundtrip_prop;
          Alcotest.test_case "v1 records decode as epoch 0" `Quick
            test_wal_v1_compat;
          Alcotest.test_case "epoch-regressing suffix fenced off" `Quick
            test_wal_fenced_suffix;
          Alcotest.test_case "recovery truncates fenced suffix" `Quick
            test_recover_truncates_fenced_suffix;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fresh dir serves base" `Quick
            test_recover_fresh_dir;
          Alcotest.test_case "replays the log" `Quick test_recover_replays_log;
          Alcotest.test_case "checkpoint skip guard" `Quick
            test_checkpoint_skip_guard;
          Alcotest.test_case "sweeps stale checkpoint tmp" `Quick
            test_recover_sweeps_stale_tmp;
          Alcotest.test_case "truncates torn tail" `Quick
            test_recover_truncates_torn_tail;
          Alcotest.test_case "apply matches live semantics" `Quick
            test_apply_matches_live_semantics;
          Alcotest.test_case "apply carries columns bit for bit" `Quick
            test_apply_carries_columns;
        ] );
      ( "retry",
        [
          Alcotest.test_case "typed give-up" `Quick test_retry_gives_up;
          Alcotest.test_case "idempotent request survives restart" `Quick
            test_retry_survives_restart;
          Alcotest.test_case "append never resent" `Quick
            test_append_never_resent;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "never-crashed reference" `Quick
            test_chaos_reference;
          Alcotest.test_case "torn tail crash" `Quick test_chaos_torn;
          Alcotest.test_case "crash before ack" `Quick
            test_chaos_crash_pre_ack;
          Alcotest.test_case "kill after checkpoint" `Quick
            test_chaos_kill_with_checkpoint;
          Alcotest.test_case "crash matrix" `Quick test_chaos_crash_matrix;
        ] );
    ]
