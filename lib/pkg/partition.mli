(** Offline data partitioning (Section 4.1 of the paper).

    A k-dimensional quad-tree recursion: starting from one group
    holding the whole relation, any group violating the size threshold
    tau or the radius limit omega is split into up to [2^k] sub-
    quadrants around its centroid (k = number of partitioning
    attributes). Groups of indistinguishable tuples that still exceed
    tau are chunked arbitrarily (their radius is zero, so chunking
    preserves both conditions).

    Representative tuples are centroids. They carry the full input
    schema: every numeric attribute holds the group mean (computed over
    all numeric attributes, not just the partitioning ones, so that
    sketch queries still evaluate when the partitioning covers only a
    subset of the query attributes — the Figure 9 regime); non-numeric
    attributes are NULL. *)

(** Radius condition applied during partitioning. *)
type radius_spec =
  | No_radius  (** size threshold only (the paper's default setup) *)
  | Absolute of float  (** every group radius must be <= this *)
  | Theorem of { epsilon : float; maximize : bool }
      (** Equation 1: group radius <= gamma * min_attr |centroid_attr|,
          gamma = epsilon (maximize) or epsilon/(1+epsilon) (minimize) *)

(** The partitioning parameters every entry point derives the same
    way: [Service.Engine.derive] is the one caller of both. A
    coordinator and its shards each re-derive a partitioning from
    these, and must agree bit for bit. *)

(** [theorem_radius ?epsilon sense] is the Theorem 3 radius condition
    for approximation parameter [epsilon] under the query's objective
    [sense], or [No_radius] without [epsilon]. *)
val theorem_radius : ?epsilon:float -> Lp.Problem.sense -> radius_spec

(** [default_tau rel] is the flat size threshold used when none is
    given: a tenth of the rows, at least 1. *)
val default_tau : Relalg.Relation.t -> int

type group = {
  members : int array;   (** row ids, increasing *)
  centroid : float array;  (** per partitioning attribute *)
  radius : float;        (** Definition 2, over partitioning attributes *)
}

type t = {
  attrs : string list;   (** partitioning attributes *)
  groups : group array;  (** group index = gid *)
  gid_of_row : int array;
  reps : Relalg.Relation.t;
      (** representative relation; row [j] represents group [j] *)
}

(** [of_groups ~attrs rel member_sets] builds a partitioning from an
    explicit assignment (used by alternative partitioners such as
    k-means): centroids, radii and representatives are computed from
    the member sets. Empty member sets are dropped. *)
val of_groups :
  attrs:string list -> Relalg.Relation.t -> int array list -> t

(** [create ?radius ?max_fanout_dims ~tau ~attrs rel] partitions [rel].

    [max_fanout_dims] (default 2) bounds how many dimensions take part
    in each split: a violating group splits into [2^max_fanout_dims]
    sub-quadrants along its highest-spread attributes, rather than the
    full [2^k] of a pure k-dimensional quad tree. At the paper's scale
    (millions of tuples) full fan-out is harmless; at laptop scale it
    shatters the data into tiny groups, whose representatives promise
    aggregates their few members cannot deliver, driving REFINE into
    false infeasibility. The bounded-fan-out recursion is the k-d-tree
    variant the paper cites as an equally valid space-partitioning
    scheme.

    @raise Invalid_argument if [tau < 1], [attrs] is empty, or an
    attribute is missing/non-numeric. NULL / NaN values are treated as
    [0.] for centroid and distance purposes. *)
val create : ?radius:radius_spec -> ?max_fanout_dims:int -> tau:int ->
  attrs:string list -> Relalg.Relation.t -> t

val num_groups : t -> int

(** [numeric_columns rel attrs] extracts one shared, cache-backed float
    array per attribute (NULL / NaN read as [0.], matching the
    partitioning distance semantics). The arrays alias the relation's
    column cache — callers must not mutate them.

    @raise Invalid_argument on a missing or non-numeric attribute. *)
val numeric_columns : Relalg.Relation.t -> string list -> float array array

(** [gamma ~maximize ~epsilon] — the Theorem 3 factor. *)
val gamma : maximize:bool -> epsilon:float -> float

(** [radius_ok spec ~centroid ~radius] — does a group with this
    centroid and radius satisfy the radius condition? (Exposed for the
    dynamic partitioner.) *)
val radius_ok : radius_spec -> centroid:float array -> radius:float -> bool

(** [restrict_prefix p n] derives the partitioning for the prefix
    relation of the first [n] rows, as the paper does for smaller data
    sizes (dropping tuples preserves the size condition; the original
    representatives are kept). Empty groups are removed. *)
val restrict_prefix : t -> Relalg.Relation.t -> int -> t

(** {1 Maintenance support}

    Building blocks exposed for the incremental-maintenance layer
    ([Store.Maintain]): they let an updated group be re-split locally
    with the same quad-tree recursion {!create} uses, without touching
    the rest of the partitioning. *)

(** [centroid_radius cols members] — centroid and Definition-2 radius
    of one member set over the given per-attribute columns (the
    {!numeric_columns} layout). *)
val centroid_radius : float array array -> int array -> float array * float

(** [split ?max_fanout_dims ~tau ~radius cols members] runs the
    quad-tree recursion of {!create} on a single member set, returning
    member sets that each satisfy [tau] and [radius]. A set already
    within both limits is returned unchanged (as a singleton list). *)
val split :
  ?max_fanout_dims:int -> tau:int -> radius:radius_spec ->
  float array array -> int array -> int array list

(** [rep_row rel members] — the representative tuple of one group:
    numeric attributes hold the member mean (NULLs excluded),
    non-numeric attributes are NULL. *)
val rep_row : Relalg.Relation.t -> int array -> Relalg.Tuple.t

(** [max_group_size p] and [check ?tau ?radius p rel] support tests. *)
val max_group_size : t -> int

(** Verify the partition invariants: every row in exactly one group,
    sizes within [tau], radii within the radius spec. *)
val check : ?tau:int -> ?radius:radius_spec -> t -> Relalg.Relation.t ->
  (unit, string) result

(** {1 Persistence}

    The paper's workflow partitions once, offline, and reuses the
    partitioning across a whole query workload. [save]/[load] persist
    the group assignment as a small text file (attributes + member id
    lists); centroids, radii and representatives are recomputed against
    the relation on load, which also re-validates every row id. *)

val save : string -> t -> unit

(** [load path rel] rebuilds the partitioning against [rel].
    @raise Invalid_argument on format errors or out-of-range ids. *)
val load : string -> Relalg.Relation.t -> t
