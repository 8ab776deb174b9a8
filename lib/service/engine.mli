(** The one query path of [paql_cli], [paql_repl] and {!Server} for a
    query planned by {!Front.compile}: derive its partitioning
    parameters and dispatch it to an evaluation method. A front end
    supplies only where its partitionings live ({!source}). *)

type method_ =
  | Direct
  | Sketch_refine
  | Parallel  (** SketchRefine with parallel refinement *)
  | Progressive  (** shading over a DLV hierarchy; tau is the leaf's *)
  | Stochastic
      (** SummarySearch; deterministic queries delegate to DIRECT inside.
          [WITH PROBABILITY] / [EXPECTED] queries run here whatever the
          configured method. *)

(** [direct|sketchrefine|parallel|progressive|stochastic]. *)
val methods : (string * method_) list

val method_name : method_ -> string

type settings = {
  method_ : method_;
  attrs : string list;  (** partitioning attrs; [] = the query's numeric ones *)
  tau : int option;  (** [None] = the table's default (leaf) threshold *)
  epsilon : float option;  (** Theorem 3 approximation parameter *)
  stochastic : Pkg.Stochastic.options;
      (** SummarySearch's scenario counts and seed; {!run} sets its
          [limits] and [max_seconds] *)
}

(** The parameters of one flat partitioning or hierarchy leaf. *)
type layout = {
  attrs : string list;
  tau : int;
  radius : Pkg.Partition.radius_spec;
}

(** The one derivation of partitioning parameters: [tau] or else the
    default ({!Pkg.Hierarchy.default_leaf_tau} with [~hierarchy:true],
    {!Pkg.Partition.default_tau} otherwise) and the
    {!Pkg.Partition.theorem_radius} of [epsilon] under the objective
    sense. A coordinator and its shards must agree on it bit for bit. *)
val derive :
  hierarchy:bool ->
  ?tau:int ->
  ?epsilon:float ->
  attrs:string list ->
  Lp.Problem.sense ->
  Relalg.Relation.t ->
  layout

(** The layout a planned query gets under [settings]; no attribute to
    partition on is a typed [analysis_error]. *)
val layout :
  hierarchy:bool ->
  settings ->
  Relalg.Relation.t ->
  Paql.Ast.query * Paql.Translate.spec ->
  (layout, Protocol.response) result

(** The catalog key of a flat layout over a table with this content
    fingerprint. *)
val catalog_key : string -> layout -> Store.Catalog.key

(** Look the partitioning up in [catalog] (with the table's
    fingerprint), or build it and store it there. *)
val partition :
  ?catalog:Store.Catalog.t * string ->
  layout ->
  Relalg.Relation.t ->
  Pkg.Partition.t * [ `Hit | `Built ]

(** The same for the [levels]-level hierarchy whose leaf is [layout].
    @raise Pkg.Faults.Injected under [partition=build:fail]. *)
val hierarchy :
  ?catalog:Store.Catalog.t * string ->
  levels:int ->
  layout ->
  Relalg.Relation.t ->
  Pkg.Hierarchy.t * [ `Hit | `Built ]

(** Where a front end keeps its partitionings ({!partition} and
    {!hierarchy} behind its own cache or file). *)
type source = {
  flat : layout -> Pkg.Partition.t;
  hier : layout -> Pkg.Hierarchy.t;
}

(** A DIRECT warm start: the basis to start from, and where the
    optimal root basis goes. *)
type warm = {
  find : unit -> Lp.Simplex.Basis.t option;
  keep : Lp.Simplex.Basis.t -> unit;
}

type outcome = {
  report : Pkg.Eval.report;
  levels : Pkg.Progressive.level_stat list;
  scenarios : Pkg.Stochastic.stats option;
}

(** Evaluate a planned query with [limits] per ILP and [seconds] for
    the run. A failed hierarchy build is a [failed] report at the
    progressive stage. *)
val run :
  ?warm:warm ->
  limits:Ilp.Branch_bound.limits ->
  seconds:float ->
  settings ->
  source ->
  Relalg.Relation.t ->
  Paql.Ast.query * Paql.Translate.spec ->
  (outcome, Protocol.response) result
