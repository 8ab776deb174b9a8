(* Startup recovery: checkpoint + WAL replay.

   A durability directory holds two files:

     <dir>/checkpoint.seg   PKGQCKPT envelope: seq (i64) | table segment
     <dir>/wal.log          records with seq > checkpoint seq (plus,
                            transiently, records the checkpoint already
                            covers — see below)

   The checkpoint protocol writes the new checkpoint atomically
   (tempfile + fsync + rename via [Wire.write_string_file]) and only
   then truncates the WAL. A crash between the two steps leaves a
   checkpoint whose records are still in the log; the monotone sequence
   numbers make replay idempotent — records with seq <= checkpoint seq
   are skipped, never applied twice. *)

let wal_file = "wal.log"
let checkpoint_file = "checkpoint.seg"

let ckpt_magic = "PKGQCKPT"
let ckpt_version = 1

let wal_path dir = Filename.concat dir wal_file
let checkpoint_path dir = Filename.concat dir checkpoint_file

type stats = {
  checkpoint_seq : int;
  checkpoint_rows : int option;  (** [None]: no checkpoint, base used *)
  records_replayed : int;
  records_skipped : int;
  rows_appended : int;
  rows_deleted : int;
  torn_bytes : int;
  fenced_bytes : int;
      (** bytes of an epoch-regressing WAL suffix truncated at open: a
          deposed primary's post-promotion writes, never replayed *)
  last_seq : int;
  last_epoch : int;  (** highest epoch in the replayed log, 0 if none *)
  wall : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "checkpoint %s (seq %d), %d records replayed (%d skipped), +%d/-%d rows, \
     %d torn bytes truncated, %d fenced bytes truncated, epoch %d, %.3fs"
    (match s.checkpoint_rows with
    | Some n -> Printf.sprintf "%d rows" n
    | None -> "absent")
    s.checkpoint_seq s.records_replayed s.records_skipped s.rows_appended
    s.rows_deleted s.torn_bytes s.fenced_bytes s.last_epoch s.wall

(* ------------------------------------------------------------------ *)
(* Checkpoint file                                                    *)
(* ------------------------------------------------------------------ *)

let load_checkpoint dir =
  let path = checkpoint_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let r = Wire.verify ~magic:ckpt_magic ~version:ckpt_version
        (Wire.read_file path) in
    let seq = Wire.get_i64 r in
    if seq < 0 then Wire.error "bad checkpoint sequence %d" seq;
    let rel = Segment.of_string (Wire.get_str r) in
    Some (seq, rel)
  end

let write_checkpoint dir ~seq rel =
  let b = Buffer.create 4096 in
  Wire.put_i64 b seq;
  Wire.put_str b (Segment.to_string rel);
  Wire.write_file (checkpoint_path dir) ~magic:ckpt_magic
    ~version:ckpt_version b

(* ------------------------------------------------------------------ *)
(* Applying ops                                                       *)
(* ------------------------------------------------------------------ *)

(* The one builder of the table a write leaves behind: the live server,
   WAL replay, the coordinator's table copy and chaos's reference all
   call it, so the recovered relation is byte-identical — same segment
   fingerprint — to the state the live process acknowledged. Append =
   rows in order; delete = drop ids (duplicates allowed), compact in
   order. Materialized numeric columns are carried over, never re-read
   from boxed rows. *)
let apply rel (op : Wal.op) =
  match op with
  | Wal.Append extra ->
    if not (Relalg.Schema.equal (Relalg.Relation.schema rel)
              (Relalg.Relation.schema extra)) then
      Wire.error "wal append record schema does not match table";
    Relalg.Relation.append rel extra
  | Wal.Delete ids ->
    let n = Relalg.Relation.cardinality rel in
    let dead = Array.make n false in
    List.iter
      (fun id ->
        if id < 0 || id >= n then
          Wire.error "wal delete record id %d out of range (%d rows)" id n;
        dead.(id) <- true)
      ids;
    Relalg.Relation.compact rel ~dead

(* ------------------------------------------------------------------ *)
(* Recovery                                                           *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let recover ?sync ~dir ~base () =
  let t0 = Unix.gettimeofday () in
  mkdir_p dir;
  (* a stale checkpoint temp from a writer that died mid-publish is
     never read; remove it so it cannot pile up *)
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if Filename.extension (Filename.remove_extension f) = ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files);
  let ckpt = load_checkpoint dir in
  let ckpt_seq, start_rel =
    match ckpt with Some (seq, rel) -> (seq, rel) | None -> (0, base ())
  in
  let wal, rep = Wal.open_log ?sync (wal_path dir) in
  (* after a checkpoint truncated the log, new records must keep
     numbering above the checkpoint's seq or the skip guard would
     swallow them on the next recovery *)
  Wal.bump_seq wal ckpt_seq;
  (* [apply] copies every materialized column once per record; past a
     single record, replaying rows alone and letting the served table
     materialize its columns once afterwards is cheaper, so replay
     starts from the checkpoint's rows without its columns. *)
  let start_rel =
    match List.filter (fun (rc : Wal.record) -> rc.seq > ckpt_seq) rep.ops with
    | _ :: _ :: _ ->
      Relalg.Relation.of_rows (Relalg.Relation.schema start_rel)
        (Relalg.Relation.to_list start_rel)
    | [] | [ _ ] -> start_rel
  in
  let replayed = ref 0 in
  let skipped = ref 0 in
  let appended = ref 0 in
  let deleted = ref 0 in
  let rel =
    List.fold_left
      (fun rel (rc : Wal.record) ->
        if rc.seq <= ckpt_seq then begin
          incr skipped;
          rel
        end
        else begin
          incr replayed;
          (match rc.op with
          | Wal.Append extra ->
            appended := !appended + Relalg.Relation.cardinality extra
          | Wal.Delete ids -> deleted := !deleted + List.length ids);
          apply rel rc.op
        end)
      start_rel rep.ops
  in
  let stats =
    {
      checkpoint_seq = ckpt_seq;
      checkpoint_rows =
        Option.map (fun (_, r) -> Relalg.Relation.cardinality r) ckpt;
      records_replayed = !replayed;
      records_skipped = !skipped;
      rows_appended = !appended;
      rows_deleted = !deleted;
      torn_bytes = rep.torn_bytes;
      fenced_bytes = rep.fenced_bytes;
      last_seq = max ckpt_seq rep.replay_last_seq;
      last_epoch = rep.replay_last_epoch;
      wall = Unix.gettimeofday () -. t0;
    }
  in
  (rel, wal, stats)

let checkpoint ~dir wal rel =
  write_checkpoint dir ~seq:(Wal.last_seq wal) rel;
  Wal.reset wal
