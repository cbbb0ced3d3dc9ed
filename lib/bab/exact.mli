(** Exact resolution of fully-stabilised BaB leaves.

    When a node has no splittable ReLU left (every unit is stable under
    its bounds or fixed by Γ), the network restricted to the node is
    affine, and the node's LP relaxation is *exact*: its feasible set is
    precisely [{x ∈ Φ : Γ(x)}] and its optimum is the true minimum
    margin.  Such leaves are therefore decided by one LP call instead of
    being split forever: a positive optimum certifies the leaf, a
    negative one yields a genuine counterexample (the LP minimiser).

    This situation is rare — an invalid candidate at a fully-split node —
    but every complete engine needs the case handled to terminate. *)

exception Unresolvable of string
(** Raised if the LP reports a clearly negative optimum (< −1e−7) whose
    minimiser nevertheless fails concrete validation; never expected in
    practice.  Ties (margin exactly 0) are settled by concrete
    validation and count as violations, consistent with
    [Abonn_spec.Property.violated]. *)

val resolve :
  ?pre_bounds:Abonn_prop.Bounds.t array ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  [ `Verified | `Falsified of float array ]
(** [resolve ?pre_bounds problem gamma] decides the leaf [gamma].
    [pre_bounds] are hidden-layer bounds already certified for this node
    (an engine passes [outcome.pre_bounds]); they fix the ReLU phases of
    the leaf LP.  They are recomputed cold by DeepPoly only when absent
    or of the wrong length, which is what the independent checks
    ({!Certificate.check}, the fuzz oracles) rely on.  When some neuron
    is still unstable under the bounds, the leaf falls back to the
    triangle-relaxation LP.  The leaf polytope goes through phase 1 of
    the simplex once ({!Abonn_lp.Boxlp.polytope}); each property row is
    then minimised from that basis, with the same result as a cold
    solve of that row alone. *)
