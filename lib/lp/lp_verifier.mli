(** LP-based approximate verifier over the triangle relaxation.

    Encodes the (split-constrained) network as the standard LP relaxation
    — exact affine layers, triangle-relaxed unstable ReLUs — and minimises
    each property row with the in-repo simplex.  This is the tightest
    AppVer in the repository (it reasons about all neurons jointly, where
    [Abonn_prop.Deeppoly] commits to one linear bound per neuron), at a
    much higher per-call cost; the paper's pipeline reserves LP-grade
    reasoning for the solver backend and we use this engine as a
    cross-check oracle in tests and as an optional AppVer for small
    networks.

    The candidate counterexample is the input part of the LP minimiser —
    a vertex of the relaxation, mirroring what a Gurobi-backed BaB
    implementation validates. *)

val run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Abonn_prop.Outcome.t
(** Pre-activation bounds are taken from [Abonn_prop.Deeppoly] (and are
    part of the returned outcome, as for every AppVer). *)

type Abonn_prop.Incremental.basis += Lp of Boxlp.warm
(** The optimal basis of a node's last solved row, carried on the
    {!Abonn_prop.Incremental.t} that {!run_warm} returns. *)

val run_warm :
  ?state:Abonn_prop.Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Abonn_prop.Outcome.t * Abonn_prop.Incremental.t option
(** Warm-started analysis (DESIGN.md §13): pre-activation bounds reuse
    the parent's state through the DeepPoly incremental machinery, the
    first property row is re-solved by dual simplex from the optimal
    basis the parent's state carries ({!Boxlp.solve_warm}) and the
    remaining rows reoptimize the same live tableau
    ({!Boxlp.reoptimize}).  The returned state carries this node's own
    basis as [Lp b] for its children.  Every degraded step (no parent,
    incompatible state, a parent state without a basis, singular or
    dual-infeasible basis, pivot cap) falls back to a cold solve of the
    same polytope, so the result is always exactly as trustworthy as
    {!run}; warm and cold differ only in pivot order (same optima up to
    floating-point noise).  Emits [lp.warm.{hits,pivots,fallbacks}]
    counters and one [lp_warm] trace event per call (TRACE_SCHEMA
    §2.19).  For the cold path use [{ appver with warm = None }]. *)

val appver : Abonn_prop.Appver.t
(** [run] registered under the name ["lp"], with [run_warm] as the warm
    entry point. *)
