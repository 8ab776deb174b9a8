(** Multi-level partition hierarchy for progressive shading
    (arXiv:2307.02860 §5).

    Level 0 is the coarsest partitioning, the last level the finest
    ({e leaf}). Each level is a full {!Partition.t} over the whole
    relation, and each level-[l+1] group refines exactly one level-[l]
    group (the builder splits parents in place with {!Dlv.split}, so
    the property holds by construction and is re-checked by {!check}).

    Only the leaf level carries the caller's radius condition: it is
    the partitioning the final refine runs against; coarser levels just
    steer the descent. *)

type t = {
  attrs : string list;
  levels : Partition.t array;  (** coarsest first; last = leaf *)
}

(** The level count when [?levels] is not given: 3. The front ends
    pass [PKGQ_HIER_LEVELS] when it is set. *)
val default_levels : int

(** Leaf tau: [max 1 (card / 100)] — an order of magnitude finer than
    the flat SketchRefine default. *)
val default_leaf_tau : Relalg.Relation.t -> int

(** The geometric tau ladder used by {!build} (exposed so the catalog
    layer can name each level's partitioning). Non-increasing; last
    entry is [leaf_tau]. *)
val plan_taus : n:int -> leaf_tau:int -> levels:int -> int array

(** [build ?radius ?levels ?leaf_tau ~attrs rel] builds the hierarchy
    top-down with the DLV recursion. Deterministic.
    @raise Faults.Injected under a [partition=build:fail] directive.
    @raise Invalid_argument on an empty or invalid attribute list. *)
val build :
  ?radius:Partition.radius_spec ->
  ?levels:int ->
  ?leaf_tau:int ->
  attrs:string list ->
  Relalg.Relation.t ->
  t

val num_levels : t -> int
val level : t -> int -> Partition.t
val leaf : t -> Partition.t

(** [children t l] — for each gid at level [l], the ascending gids of
    the level-[l+1] groups refining it. *)
val children : t -> int -> int list array

(** [parent_gid t ~level gid] — the level-[level-1] gid containing
    level-[level] group [gid]. @raise Invalid_argument at level 0. *)
val parent_gid : t -> level:int -> int -> int

(** Verify per-level partition invariants plus the refinement property
    (every group's members share one parent). *)
val check : t -> Relalg.Relation.t -> (unit, string) result
