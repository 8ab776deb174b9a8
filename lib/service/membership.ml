(* Epoch-fenced membership: the coordinator's source of truth for "who
   may ack writes for shard i, and under which epoch".

   One epoch per shard, monotonically increasing, bumped durably
   *before* a replica is installed as the new primary — the classic
   fencing-token discipline. Epochs are persisted through a [Store.Wire]
   envelope (atomic tempfile + fsync + rename), so a restarted
   coordinator can never re-issue an epoch an earlier incarnation
   already granted.

   Leases are the liveness half: a primary may only ack writes while it
   holds an unexpired lease, renewed by the coordinator over the
   ordinary PING/LEASE traffic. The clock-skew contract is split
   asymmetrically: the server forfeits the last fraction of its lease
   (demoting itself strictly before the nominal expiry), while the
   coordinator waits out the *full* nominal lease since its last
   successful grant before bumping the epoch ([quarantine_remaining]).
   With both sides honoring their half, a deposed primary has always
   demoted itself read-only before the next epoch can ack a write. *)

let magic = "PKGQMBR1"
let version = 1
let file_name = "epochs.bin"

type t = {
  dir : string option;
  lease : float;  (* seconds *)
  epochs : int array;
  grants : float array;  (* last successful grant per shard, 0. = never *)
  mu : Mutex.t;
}

let path dir = Filename.concat dir file_name

let encode epochs =
  let b = Buffer.create 64 in
  Store.Wire.put_i32 b (Array.length epochs);
  Array.iter (Store.Wire.put_i64 b) epochs;
  Store.Wire.seal ~magic ~version b

(* A persisted file for a different shard count (a resized fleet) keeps
   what overlaps: surviving shards keep their fenced history, new ones
   start at epoch 1. *)
let load dir epochs =
  let p = path dir in
  if Sys.file_exists p then begin
    let r = Store.Wire.verify ~magic ~version (Store.Wire.read_file p) in
    let n = Store.Wire.get_i32 r in
    if n < 0 then Store.Wire.error "bad membership shard count %d" n;
    for i = 0 to n - 1 do
      let e = Store.Wire.get_i64 r in
      if e < 0 then Store.Wire.error "bad membership epoch %d" e;
      if i < Array.length epochs then epochs.(i) <- max epochs.(i) e
    done
  end

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let persist t =
  match t.dir with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    Store.Wire.write_string_file (path dir) (encode t.epochs)

let create ?dir ?(lease_ms = 1500) ~shards () =
  let epochs = Array.make (max 1 shards) 1 in
  Option.iter (fun d -> load d epochs) dir;
  {
    dir;
    lease = float_of_int (max 1 lease_ms) /. 1000.;
    epochs;
    grants = Array.make (max 1 shards) 0.;
    mu = Mutex.create ();
  }

let shards t = Array.length t.epochs

let epoch t i = Mutex.protect t.mu (fun () -> t.epochs.(i))

let lease_seconds t = t.lease

let lease_ms t = int_of_float (Float.round (t.lease *. 1000.))

(* Durably advance shard [i]'s epoch and return the new value. The file
   hits disk before the new epoch is revealed to the caller — a
   coordinator crash right after [bump] can only lose the *use* of the
   epoch, never resurrect the old one. *)
let bump t i =
  Mutex.protect t.mu (fun () ->
      t.epochs.(i) <- t.epochs.(i) + 1;
      persist t;
      t.epochs.(i))

let note_grant t i =
  Mutex.protect t.mu (fun () -> t.grants.(i) <- Unix.gettimeofday ())

let grant_age t i =
  Mutex.protect t.mu (fun () ->
      let g = t.grants.(i) in
      if g = 0. then Float.infinity else Unix.gettimeofday () -. g)

let quarantine_remaining t i =
  let age = grant_age t i in
  if age = Float.infinity then 0. else Float.max 0. (t.lease -. age)
