(* Write-ahead log: one checksummed record per APPEND/DELETE batch.

   File layout is a flat sequence of frames

     [ length (i32 LE) | record image ]

   where the record image is a full [Wire] envelope
   (magic "PKGQWAL1" | version | seq (i64) | op tag (u8) | payload |
   checksum), so a torn tail is detected by the same three-layer
   verification every other store file gets: a frame whose length runs
   past EOF, or whose checksum does not match, marks the end of the
   valid prefix.

   All writes go through an unbuffered [Unix] fd opened with O_APPEND:
   a SIGKILL can interrupt the process at any instruction and the
   kernel still has every byte written so far, which is what makes the
   chaos harness's kill points meaningful. *)

let magic = "PKGQWAL1"

(* Version 1 records are [seq | tag | payload]; version 2 inserts a
   membership epoch (i64) between the sequence number and the op tag.
   New records are always written at version 2; replay decodes both, a
   v1 record carrying epoch 0 (the "never fenced" epoch). *)
let version_v1 = 1
let version = 2

type op = Append of Relalg.Relation.t | Delete of int list

type record = { seq : int; epoch : int; op : op }

exception Sync_failed of string

type sync = Always | Never

let sync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "never" | "0" | "no" -> Some Never
  | "always" | "on" | "1" | "yes" -> Some Always
  | _ -> None

type t = {
  fd : Unix.file_descr;
  wal_path : string;
  sync : sync;
  mutable records : int;
  mutable bytes : int;
  mutable last_seq : int;
  mutable last_epoch : int;
}

let path t = t.wal_path
let records t = t.records
let bytes t = t.bytes
let last_seq t = t.last_seq
let last_epoch t = t.last_epoch
let sync_mode t = t.sync

(* ------------------------------------------------------------------ *)
(* Record codec                                                       *)
(* ------------------------------------------------------------------ *)

let tag_append = 0
let tag_delete = 1

let encode_record ~seq ~epoch op =
  let b = Buffer.create 256 in
  Wire.put_i64 b seq;
  Wire.put_i64 b epoch;
  (match op with
  | Append rel ->
    Wire.put_u8 b tag_append;
    Wire.put_str b (Segment.to_string rel)
  | Delete ids ->
    Wire.put_u8 b tag_delete;
    Wire.put_i32 b (List.length ids);
    List.iter (Wire.put_i32 b) ids);
  Wire.seal ~magic ~version b

let decode_record image =
  (* Pick the layout by the envelope's version field before [verify]
     (which demands an exact version): v1 has no epoch, anything else
     goes through the current-version check so an unknown version still
     fails as a typed envelope error. *)
  let v =
    match Wire.peek_version image with Some 1 -> version_v1 | _ -> version
  in
  let r = Wire.verify ~magic ~version:v image in
  let seq = Wire.get_i64 r in
  if seq < 1 then Wire.error "bad wal record sequence %d" seq;
  let epoch = if v = version_v1 then 0 else Wire.get_i64 r in
  if epoch < 0 then Wire.error "negative wal record epoch %d" epoch;
  match Wire.get_u8 r with
  | 0 -> { seq; epoch; op = Append (Segment.of_string (Wire.get_str r)) }
  | 1 ->
    let n = Wire.get_i32 r in
    if n < 0 then Wire.error "negative wal delete count %d" n;
    { seq; epoch; op = Delete (List.init n (fun _ -> Wire.get_i32 r)) }
  | tag -> Wire.error "bad wal op tag %d" tag

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

type replay = {
  ops : record list;  (** valid records, in write order *)
  valid_bytes : int;  (** length of the intact prefix *)
  torn_bytes : int;  (** bytes past it, discarded *)
  fenced_bytes : int;  (** bytes of an epoch-regressing suffix, discarded *)
  replay_last_seq : int;  (** 0 when the log is empty *)
  replay_last_epoch : int;  (** highest epoch in the valid prefix, 0 if none *)
}

let empty_replay =
  { ops = []; valid_bytes = 0; torn_bytes = 0; fenced_bytes = 0;
    replay_last_seq = 0; replay_last_epoch = 0 }

let replay ?(truncate = false) path =
  if not (Sys.file_exists path) then empty_replay
  else begin
    let s = Wire.read_file path in
    let len = String.length s in
    let ops = ref [] in
    let pos = ref 0 in
    let last = ref 0 in
    let last_epoch = ref 0 in
    let ok = ref true in
    let fenced = ref false in
    while !ok && !pos + 4 <= len do
      let n = Int32.to_int (String.get_int32_le s !pos) in
      if n <= 0 || !pos + 4 + n > len then ok := false
      else
        match decode_record (String.sub s (!pos + 4) n) with
        | rc ->
          (* Epochs are monotone within one log: a record stamped below
             its predecessor's epoch is a fenced suffix (a deposed
             primary kept appending after a newer epoch was granted) —
             everything from here on is discarded, never replayed. *)
          if rc.epoch < !last_epoch then begin
            fenced := true;
            ok := false
          end
          else begin
            ops := rc :: !ops;
            last := rc.seq;
            last_epoch := rc.epoch;
            pos := !pos + 4 + n
          end
        | exception Wire.Error _ -> ok := false
    done;
    let valid = !pos in
    let cut = len - valid in
    let torn = if !fenced then 0 else cut in
    let fenced_bytes = if !fenced then cut else 0 in
    if truncate && cut > 0 then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd valid;
          try Unix.fsync fd with Unix.Unix_error _ -> ())
    end;
    { ops = List.rev !ops; valid_bytes = valid; torn_bytes = torn;
      fenced_bytes; replay_last_seq = !last; replay_last_epoch = !last_epoch }
  end

(* ------------------------------------------------------------------ *)
(* Appending                                                          *)
(* ------------------------------------------------------------------ *)

let open_log ?(sync = Always) path =
  let rep = replay ~truncate:true path in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  ( { fd; wal_path = path; sync; records = List.length rep.ops;
      bytes = rep.valid_bytes; last_seq = rep.replay_last_seq;
      last_epoch = rep.replay_last_epoch },
    rep )

let write_all fd b off len =
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    pos := !pos + Unix.write fd b !pos (stop - !pos)
  done

let die () =
  (* SIGKILL, not [exit]: at_exit must not run, buffered channels must
     not flush — the point is to model sudden process death. *)
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  (* unreachable, but keeps the type checker honest *)
  assert false

let append ?epoch t op =
  let seq = t.last_seq + 1 in
  (* The log's epochs never regress: a caller still stamping an older
     epoch (a deposed primary) writes at the log's high-water mark
     rather than poisoning the monotone prefix — the fencing refusal
     belongs to the server's write gate, which runs before this. *)
  let epoch = max (Option.value epoch ~default:0) t.last_epoch in
  let image = encode_record ~seq ~epoch op in
  let len = String.length image in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.blit_string image 0 frame 4 len;
  (match Pkg.Faults.wal_write_fault () with
  | Some `Torn ->
    (* persist only a prefix of the frame — fsync it so the restarted
       process deterministically finds a torn tail — then die *)
    write_all t.fd frame 0 ((4 + len) / 2);
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    die ()
  | Some `Crash ->
    (* the record is fully durable but the caller never gets to
       acknowledge it: an in-doubt write that replay must apply *)
    write_all t.fd frame 0 (4 + len);
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    die ()
  | None -> ());
  write_all t.fd frame 0 (4 + len);
  let sync_failed msg =
    (* roll the partial record back out of the log so a later crash
       cannot resurrect a write the client was told had failed *)
    (try
       Unix.ftruncate t.fd t.bytes;
       Unix.fsync t.fd
     with Unix.Unix_error _ -> ());
    raise (Sync_failed msg)
  in
  if Pkg.Faults.wal_fsync_fails () then
    sync_failed "injected wal sync failure (wal=fsync:fail)";
  (match t.sync with
  | Always -> (
    try Unix.fsync t.fd
    with Unix.Unix_error (e, _, _) -> sync_failed (Unix.error_message e))
  | Never -> ());
  t.last_seq <- seq;
  t.last_epoch <- epoch;
  t.records <- t.records + 1;
  t.bytes <- t.bytes + 4 + len;
  seq

let reset t =
  Unix.ftruncate t.fd 0;
  (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
  (* [last_seq] survives a reset: sequence numbers are monotone across
     checkpoints, which is what lets recovery skip records the
     checkpoint already covers. *)
  t.records <- 0;
  t.bytes <- 0

let bump_seq t floor = if floor > t.last_seq then t.last_seq <- floor

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
