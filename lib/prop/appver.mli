(** The [AppVer] abstraction of §III: a named approximate verifier.

    BaB engines are parametric in the AppVer they call on every
    sub-problem, exactly as Alg. 1 takes [AppVer(·)] as an input.  All
    engines in this repository count calls through
    [Abonn_util.Budget]; the AppVer itself is pure. *)

type warm =
  ?state:Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Outcome.t * Incremental.t option
(** A warm-startable bound computation: reuse a parent node's
    {!Incremental.t} when compatible and return the node's own state
    for its children ([None] for infeasible sub-problems). *)

type t = {
  name : string;
  run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Outcome.t;
  warm : warm option;
      (** warm-start entry point; [None] for verifiers that always run
          from scratch.  [{ v with warm = None }] is the cold variant of
          any verifier (the CLI's [--no-bound-cache]). *)
}

val run_warm :
  t ->
  ?state:Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Outcome.t * Incremental.t option
(** Warm-start when the verifier has a [warm] entry point; otherwise
    exactly [v.run problem gamma] (same instrumentation, same floats)
    paired with [None].  The BaB engines call this on every node,
    threading each node's returned state to its children. *)

val observed : t -> t
(** Wrap a verifier with [Abonn_obs] instrumentation: an
    ["appver.<name>.calls"] counter, an ["appver.<name>"] span timer and
    one [bound_computed] trace event per call.  Costs one branch per call
    while observability is off.  The built-in verifiers below are already
    observed; use this for custom AppVers. *)

(** {1 Easy/hard triage} *)

type triage_crit = {
  lb_threshold : float;
      (** escalate only when the cheap bound is undecided but close:
          [phat >= -lb_threshold] *)
  depth_threshold : int;  (** escalate only at BaB depth >= this *)
  impr_threshold : float;
      (** once [window] escalations have been observed, keep escalating
          only while their mean tightening ([expensive.phat -
          cheap.phat]) stays >= this *)
  window : int;  (** escalations sampled before the improvement gate *)
}
(** Escalation criterion, mirroring the [hard_crit] of the
    scaling-the-convex-barrier exemplar (DESIGN.md §13). *)

val default_triage : triage_crit
(** [{ lb_threshold = 0.5; depth_threshold = 0; impr_threshold = 1e-1;
      window = 32 }]. *)

val triaged : ?crit:triage_crit -> cheap:t -> expensive:t -> unit -> t
(** [triaged ~cheap ~expensive ()] is the AppVer ["<cheap>+<expensive>"]
    that bounds every node with [cheap] and re-bounds it with
    [expensive] only when the escalation criterion fires, merging the
    two certificates elementwise (both are sound, so the max of each
    row bound is).  Escalation statistics are shared across worker
    domains behind a mutex, so the combinator is safe under
    [--domains N]; skipped nodes pass the ancestor's expensive-verifier
    warm state through unchanged.  Counters:
    [appver.triage.escalated] / [appver.triage.skipped]. *)

val deeppoly : t
(** DeepPoly back-substitution with the adaptive lower slope — the
    default AppVer, mirroring the paper's [7],[16] stack. *)

val deeppoly_zero : t
(** DeepPoly with the always-0 lower slope (looser; for ablations). *)

val deeppoly_one : t
(** DeepPoly with the always-1 lower slope (looser; for ablations). *)

val interval : t
(** Interval bound propagation (loosest, fastest). *)

val zonotope : t
(** DeepZ-style zonotope propagation — the paper's second AppVer
    reference [16]; incomparable in tightness with [deeppoly]. *)

val symbolic : t
(** Forward symbolic intervals (ReluVal/Neurify-style): one cheap
    forward pass keeping linear input dependencies. *)

val all : t list

val find : string -> t option
(** Look up by [name]. *)
