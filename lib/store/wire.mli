(** Byte-level encoding shared by the store's file formats.

    Every store file is [magic (8 bytes) | version (i32 LE) | body |
    checksum (i64 LE)], where the checksum is a word-wise FNV-1a-style
    hash of everything before it. {!verify} checks the three envelope
    layers in order — magic, version, checksum — so corruption
    surfaces as a typed {!Error} naming the failed layer, never as a
    backtrace from the body decoder.

    The fault-injection hooks of {!Pkg.Faults} ([store=read:fail],
    [store=checksum:fail]) are consulted by {!verify}, making the
    corrupt-store paths deterministically testable on intact files. *)

(** Typed corruption/IO-shape error. Carries a human-readable message;
    the binaries map it to the data-error exit code (3). *)
exception Error of string

val error : ('a, unit, string, 'b) format4 -> 'a

(** {1 Hashing} *)

(** Word-wise 64-bit content hash (8 bytes per step, FNV-1a mixing). *)
val hash64_sub : string -> int -> int -> int64

val hash64 : string -> int64

(** Lower-case 16-digit hex image of a hash. *)
val hex64 : int64 -> string

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
val put_i32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_f64 : Buffer.t -> float -> unit

(** Length-prefixed (i32) string. *)
val put_str : Buffer.t -> string -> unit

(** [seal ~magic ~version body] is the full file image: envelope
    header, [body], trailing checksum. [magic] must be 8 bytes. *)
val seal : magic:string -> version:int -> Buffer.t -> string

(** [write_file path ~magic ~version body] seals and publishes the file
    crash-safely: the image goes to a process-unique [.tmp.<pid>]
    sibling, is fsync'd, renamed over [path] (atomic on POSIX), and the
    parent directory is fsync'd so the rename survives power loss. A
    crash leaves either the old content or the new — never a torn
    file. *)
val write_file : string -> magic:string -> version:int -> Buffer.t -> unit

(** [write_string_file path image] publishes an already-sealed image
    with the same crash-safe temp+fsync+rename protocol. *)
val write_string_file : string -> string -> unit

(** {1 Reading} *)

type reader

(** [verify ~magic ~version s] checks the envelope of a full file image
    and returns a reader positioned at the body.
    @raise Error on bad magic, version mismatch, bad checksum, or
    truncation (and under an installed [store=...:fail] fault). *)
val verify : magic:string -> version:int -> string -> reader

(** [peek_version s] — the envelope's version field, read without any
    verification ([None] when [s] is too short to carry one). Lets a
    multi-version reader pick its decoder before calling {!verify} with
    the matching version. *)
val peek_version : string -> int option

(** Raises [Sys_error] on IO failure. *)
val read_file : string -> string

(** Body bytes not yet read. A decoder checks a count read from the
    body against it before allocating for that count. *)
val remaining : reader -> int

val get_u8 : reader -> int
val get_i32 : reader -> int
val get_i64 : reader -> int
val get_f64 : reader -> float
val get_str : reader -> string

(** [get_raw r n] — the next [n] bytes, verbatim. *)
val get_raw : reader -> int -> string

(** {2 Bulk reads}

    One bounds check for the whole span, then raw fixed-width loads —
    the segment decoder's per-column hot path. *)

val get_i64_array : reader -> int -> int array
val get_i32_array : reader -> int -> int array

(** [get_f64_into r a] fills all of [a] from the next
    [8 * Array.length a] bytes. *)
val get_f64_into : reader -> float array -> unit
