(** The store directory: a segment cache for base tables and a
    persistent catalog of partitionings.

    The paper's SketchRefine numbers rest on partitioning being an
    offline, amortized step (Section 4.1: once per table and attribute
    set). This module makes that true across processes: partitionings
    are persisted keyed by {e what they were computed from} — table
    fingerprint, attribute set, tau, radius spec — and
    {!lookup_or_build} returns the stored one when the key matches,
    performing zero partitioning work on the warm path.

    Layout under the store root (the front ends' [--store]; default
    [.pkgq-store]):

    {v
    <root>/tables/<fingerprint>.seg   binary segments of imported tables
    <root>/partitions/<key-id>.part   persisted partitionings
    v}

    A partition file is [PKGQPART | version | body | checksum] where
    the body stores the key (for listing and validation), the member
    id sets, centroids and radii of every group, and the
    representative relation as an embedded {!Segment} — so loading
    rebuilds {!Pkg.Partition.t} without recomputing anything.

    Corrupt files raise {!Segment.Error}; missing files are misses. *)

type t

(** [".pkgq-store"] *)
val default_dir : string

(** [open_dir dir] creates [dir] (and its subdirectories) as needed. *)
val open_dir : string -> t

val dir : t -> string

(** {1 Table cache} *)

(** [load_table t path] returns the relation at [path] and its content
    fingerprint. A [.seg] path is read directly. Any other path is
    treated as CSV keyed by its raw-byte fingerprint: on a hit the
    cached binary segment is loaded (no CSV parse); on a miss the CSV
    is parsed and the segment written for next time.
    @raise Segment.Error on a corrupt segment,
    [Relalg.Csv.Error] on malformed CSV, [Sys_error] on IO failure. *)
val load_table : t -> string -> Relalg.Relation.t * string

(** Whether a warm segment exists for this (non-[.seg]) path. *)
val table_cached : t -> string -> bool

(** {1 Partition catalog} *)

type key = {
  fingerprint : string;  (** table content fingerprint *)
  attrs : string list;
      (** partitioning attributes; the key canonicalizes order (a
          permutation is the same key, so it never forces a rebuild) *)
  tau : int;
  radius : Pkg.Partition.radius_spec;
  level : int option;
      (** [None] — a flat (single-level) partitioning, the only kind
          that existed before format v2; [Some l] — level [l] of a
          {!Pkg.Hierarchy.t} (0 = coarsest). Flat entries written by
          older versions (format v1, order-sensitive ids) still load:
          {!find} falls back to the legacy id and decoder. *)
}

(** Stable identifier derived from the key (hash of its canonical
    serialization) — the [.part] filename stem. *)
val key_id : key -> string

(** Canonical rendering of a radius spec ([none], [abs:...], [thm:...]),
    as used inside {!key_string} and by listings. *)
val radius_string : Pkg.Partition.radius_spec -> string

(** Human-readable canonical form of a key (what {!key_id} hashes). *)
val key_string : key -> string

(** [find t key ~rows] is the stored partitioning, or [None] when
    absent. [rows] is the cardinality of the table [key.fingerprint]
    names. Key comparison ignores attribute order; flat keys also
    consult the pre-v2 order-sensitive id so old catalogs stay warm.
    @raise Segment.Error when the entry exists but is corrupt, was
    stored under a different key (hash collision / tampering), or
    partitions other than [rows] rows. *)
val find : t -> key -> rows:int -> Pkg.Partition.t option

val store : t -> key -> Pkg.Partition.t -> unit

(** [lookup_or_build t key ~rows ~build] ([rows] as in {!find}) returns [(p, `Hit)] from the
    catalog when present — zero partitioning work — and otherwise
    builds, stores and returns [(build (), `Built)]. *)
val lookup_or_build :
  t -> key -> rows:int -> build:(unit -> Pkg.Partition.t) ->
  Pkg.Partition.t * [ `Hit | `Built ]

(** [lookup_or_build_hierarchy t ~fingerprint ?radius ?levels ?leaf_tau
    ~attrs rel] resolves a progressive-shading {!Pkg.Hierarchy.t}: each
    level is one catalog entry under [level = Some l] with that level's
    planned tau ({!Pkg.Hierarchy.plan_taus}). All levels present →
    [`Hit] with zero partitioning work; otherwise the whole hierarchy is
    built ({!Pkg.Hierarchy.build}) and every level stored. Only the leaf
    key carries [radius] — coarser levels are radius-free and so shared
    across queries that differ only in their approximation bound.
    @raise Pkg.Faults.Injected under a [partition=build:fail] directive. *)
val lookup_or_build_hierarchy :
  t ->
  fingerprint:string ->
  ?radius:Pkg.Partition.radius_spec ->
  ?levels:int ->
  ?leaf_tau:int ->
  attrs:string list ->
  Relalg.Relation.t ->
  Pkg.Hierarchy.t * [ `Hit | `Built ]

(** {1 Inspection} *)

type entry = {
  id : string;        (** filename stem *)
  entry_key : key;
  groups : int;
  rows : int;         (** cardinality of the partitioned table *)
  bytes : int;        (** file size *)
  age : float;        (** seconds since last modification *)
}

(** All readable catalog entries, newest first. Corrupt entries are
    skipped (listing is diagnostics, not a load path). *)
val entries : t -> entry list
