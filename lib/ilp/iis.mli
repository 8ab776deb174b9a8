(** Approximate irreducible infeasible subsystem (IIS) extraction by
    deletion filtering: drop each row in turn and keep it out whenever
    the LP relaxation stays infeasible. The surviving rows form a
    minimal (not necessarily minimum) infeasible row set.

    The paper (Section 4.4) uses the solver's IIS facility to decide
    which partitioning attributes to drop on false infeasibility. *)

(** [rows ?work p] is the list of row indices forming an IIS of the LP
    relaxation of [p], or [None] when [p] is feasible. Its LPs are
    charged to [work]. *)
val rows : ?work:Lp.Simplex.work -> Lp.Problem.t -> int list option
