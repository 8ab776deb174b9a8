exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Hashing                                                            *)
(* ------------------------------------------------------------------ *)

(* FNV-1a mixing, but consuming 8 bytes per step so checksumming a
   multi-megabyte segment stays far below the cost of decoding it. *)
let fnv_prime = 0x100000001B3L
let fnv_basis = 0xCBF29CE484222325L

let hash64_sub s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Wire.hash64_sub";
  let h = ref fnv_basis in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    h := Int64.mul (Int64.logxor !h (String.get_int64_le s !i)) fnv_prime;
    i := !i + 8
  done;
  while !i < stop do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s !i))))
        fnv_prime;
    incr i
  done;
  !h

let hash64 s = hash64_sub s 0 (String.length s)

let hex64 h = Printf.sprintf "%016Lx" h

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

let put_u8 b v = Buffer.add_uint8 b v
let put_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let put_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let put_str b s =
  put_i32 b (String.length s);
  Buffer.add_string b s

let seal ~magic ~version body =
  if String.length magic <> 8 then invalid_arg "Wire.seal: magic must be 8 bytes";
  let out = Buffer.create (Buffer.length body + 24) in
  Buffer.add_string out magic;
  put_i32 out version;
  Buffer.add_buffer out body;
  let sum = hash64 (Buffer.contents out) in
  Buffer.add_int64_le out sum;
  Buffer.contents out

(* Crash-safe publish: write the full image to a process-unique temp
   name, fsync it so the content is on disk before the name is, then
   rename over the target (atomic on POSIX) and fsync the directory so
   the rename itself survives power loss. A crash at any point leaves
   either the old file or the new one — never a torn target — and at
   worst a stale [.tmp.<pid>] that [Catalog.open_dir] sweeps. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let write_string_file path image =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length image in
      let written = Unix.write_substring fd image 0 n in
      if written <> n then error "short write to %s (%d/%d bytes)" tmp written n;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let write_file path ~magic ~version body =
  write_string_file path (seal ~magic ~version body)

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

type reader = { s : string; mutable pos : int; limit : int }

let need r n =
  if n < 0 || r.pos + n > r.limit then error "truncated store file body"

let remaining r = r.limit - r.pos

let get_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  v

let get_i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.s r.pos) in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_raw r n =
  need r n;
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let get_str r =
  let n = get_i32 r in
  get_raw r n

(* The envelope checksum has already vouched for the bytes by the time
   a body decoder runs, so the bulk readers bounds-check the whole span
   once and then load with the unchecked primitives. *)
external unsafe_get64 : string -> int -> int64 = "%caml_string_get64u"
external unsafe_get32 : string -> int -> int32 = "%caml_string_get32u"

let get_i64_array r n =
  need r (8 * n);
  let a = Array.make n 0 in
  let base = r.pos in
  for k = 0 to n - 1 do
    Array.unsafe_set a k (Int64.to_int (unsafe_get64 r.s (base + (8 * k))))
  done;
  r.pos <- base + (8 * n);
  a

let get_i32_array r n =
  need r (4 * n);
  let a = Array.make n 0 in
  let base = r.pos in
  for k = 0 to n - 1 do
    Array.unsafe_set a k (Int32.to_int (unsafe_get32 r.s (base + (4 * k))))
  done;
  r.pos <- base + (4 * n);
  a

let get_f64_into r a =
  let n = Array.length a in
  need r (8 * n);
  let base = r.pos in
  for k = 0 to n - 1 do
    Array.unsafe_set a k
      (Int64.float_of_bits (unsafe_get64 r.s (base + (8 * k))))
  done;
  r.pos <- base + (8 * n)

let peek_version s =
  if String.length s < 8 + 4 then None
  else Some (Int32.to_int (String.get_int32_le s 8))

let verify ~magic ~version s =
  if String.length magic <> 8 then
    invalid_arg "Wire.verify: magic must be 8 bytes";
  (match Pkg.Faults.store_fault () with
  | Some Pkg.Faults.Store_read ->
    error "injected store fault: read aborted (store=read:fail)"
  | Some Pkg.Faults.Store_checksum | None -> ());
  let len = String.length s in
  if len < 8 + 4 + 8 then error "truncated store file (%d bytes)" len;
  if not (String.equal (String.sub s 0 8) magic) then
    error "bad magic %S (expected %S)" (String.sub s 0 8) magic;
  let v = Int32.to_int (String.get_int32_le s 8) in
  if v <> version then
    error "unsupported store format version %d (expected %d)" v version;
  let stored = String.get_int64_le s (len - 8) in
  let computed = hash64_sub s 0 (len - 8) in
  let computed =
    (* the checksum fault corrupts the computed side, so the mismatch
       flows through the real verification path *)
    match Pkg.Faults.store_fault () with
    | Some Pkg.Faults.Store_checksum -> Int64.logxor computed 1L
    | _ -> computed
  in
  if not (Int64.equal stored computed) then
    error "checksum mismatch (stored %s, computed %s)" (hex64 stored)
      (hex64 computed);
  { s; pos = 12; limit = len - 8 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
