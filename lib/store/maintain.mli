(** Incremental partition maintenance.

    The paper treats partitioning as offline and amortized; this module
    keeps a stored partitioning usable as the table evolves, without
    repartitioning from scratch. Updates are local:

    - {b Append}: each new row joins the group with the nearest
      centroid (Chebyshev distance over the partitioning attributes,
      matching the partitioner's radius metric). Only touched groups
      recompute their centroid, radius and representative; a touched
      group that now violates [tau] or the radius spec is re-split
      locally with the same quad-tree recursion {!Pkg.Partition.create}
      uses ({!Pkg.Partition.split}) — the rest of the partitioning is
      untouched, representative rows of untouched groups are reused
      as-is.

    - {b Delete}: rows are removed and groups shrink in place. Row ids
      are compacted, so member sets are remapped everywhere, but
      centroids, radii and representatives are recomputed only for
      groups that lost members. Shrinking can only reduce a group's
      radius and size, so deletes never trigger a re-split. Emptied
      groups are dropped.

    Neither operation builds a table: both take the one relation the
    write leaves behind ({!Recovery.apply}, built once per write and
    shared by every cached partitioning) and return the updated
    partitioning, valid for that relation, with {!stats} describing
    how local the update was. *)

type stats = {
  rows_appended : int;
  rows_deleted : int;
  groups_touched : int;  (** groups whose member set changed *)
  groups_resplit : int;  (** touched groups that overflowed and re-split *)
  groups_before : int;
  groups_after : int;
}

val pp_stats : Format.formatter -> stats -> unit

(** [append ?max_fanout_dims ~tau ~radius p rel] updates [p] for the
    rows appended to its table: [rel] is that table after the append,
    so the rows [p] covers keep their ids and the batch holds ids
    [Array.length p.gid_of_row] onward. [tau], [radius] and
    [max_fanout_dims] must be the parameters the partitioning was
    built with — they bound the local re-splits. An append of no rows
    returns [p] itself.

    @raise Invalid_argument when [rel] has fewer rows than [p] covers. *)
val append :
  ?max_fanout_dims:int ->
  tau:int ->
  radius:Pkg.Partition.radius_spec ->
  Pkg.Partition.t ->
  Relalg.Relation.t ->
  Pkg.Partition.t * stats

(** [delete p rel dead] updates [p] for the removal of the row ids
    [dead] (into the table [p] covers; duplicates allowed): [rel] is
    the table after the delete, its surviving rows compacted in order.

    @raise Invalid_argument on an out-of-range id, or when [rel] does
    not have the surviving row count. *)
val delete :
  Pkg.Partition.t ->
  Relalg.Relation.t ->
  int array ->
  Pkg.Partition.t * stats
