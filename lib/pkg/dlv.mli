(** Dynamic Low Variance partitioning (arXiv:2307.02860 §4).

    The alternative to {!Partition.create}'s quad-tree split: a
    violating group is cut into
    equal-size contiguous slices of its members sorted along the
    attribute with the highest range-normalized variance, recursively,
    until every group satisfies the size threshold [tau] and the radius
    condition. Equal-size slices keep groups near the size target and
    the variance-driven dimension choice shrinks within-group spread
    fastest on both concentrated and heavy-tailed attributes.

    Deterministic by construction: member statistics are one serial
    pass in member order, and slicing sorts on [(value, row id)] — a
    total order. *)

(** [create ?radius ~tau ~attrs rel] partitions [rel] with the DLV
    recursion. Same contract as {!Partition.create}: NULL/NaN read as
    [0.], representatives are group means.
    @raise Invalid_argument if [tau < 1] or [attrs] is empty/invalid. *)
val create :
  ?radius:Partition.radius_spec ->
  tau:int ->
  attrs:string list ->
  Relalg.Relation.t ->
  Partition.t

(** [split ?radius ?ranges ~tau cols members] runs the DLV recursion on
    a single member set over {!Partition.numeric_columns} data,
    returning member sets that each satisfy [tau] and [radius]. Exposed
    for the hierarchy builder, which refines each parent group in
    place; pass [ranges] (from {!ranges}) to avoid recomputing the
    global normalization per call. *)
val split :
  ?radius:Partition.radius_spec ->
  ?ranges:float array ->
  tau:int ->
  float array array ->
  int array ->
  int array list

(** Per-dimension global ranges ([max - min] over all rows, [1.] for a
    constant column) — the variance normalization used by {!split}. *)
val ranges : float array array -> float array

(** [variance_cost cols p] — mean per-tuple within-group
    range-normalized variance (summed over dimensions): the quantity
    DLV greedily minimizes. Lower is better; used to compare
    partitioners at equal [tau]. *)
val variance_cost : float array array -> Partition.t -> float
