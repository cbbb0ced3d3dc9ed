(** Dense simplex with bounded variables (Chvátal ch. 8).

    Solves   minimize c·x   subject to   A x {≤,=,≥} b,   l ≤ x ≤ u,

    keeping variable bounds *implicit*: non-basic variables sit at a
    finite bound instead of being forced to 0, and upper bounds never
    become tableau rows.  For the verification LPs built by this
    repository — a few dozen constraint rows over a few hundred
    box-bounded variables — this is one to two orders of magnitude faster
    than the textbook standard-form reduction in {!Simplex}, which must
    add one row per finite upper bound.

    Every variable needs at least one finite bound (no free variables);
    [Lp_problem] falls back to {!Simplex} when that is violated.  Bland's
    rule is used for entering/leaving selection, so the method terminates
    on degenerate instances.  Feasibility is established by a bounded
    phase-1 with one artificial per initially-violated row.

    Beyond the cold [solve], this module supports warm-started
    reoptimization (DESIGN.md §13): {!solve_session} keeps the final
    tableau alive so further objectives over the *same* polytope are
    re-solved from the optimal basis ({!reoptimize}), and
    {!basis_of_session} exports a compact basis snapshot that
    {!solve_warm} can refactorize against a *different but nearby*
    polytope (one ReLU constraint added or flipped), repairing primal
    feasibility with a bounded dual simplex instead of a cold solve. *)

type sense = Le | Ge | Eq

type row = {
  coefs : (int * float) list;  (** sparse (variable, coefficient) *)
  sense : sense;
  rhs : float;
}

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Pivot_limit
      (** the pivot budget ([max_iters]) was exhausted before the phase
          converged — the solve is inconclusive, not a verdict *)

type solution = {
  status : status;
  objective : float;
  x : float array;   (** structural variables only *)
  iterations : int;
}

val solve :
  ?max_iters:int ->
  c:float array ->
  lo:float array ->
  hi:float array ->
  rows:row list ->
  unit ->
  solution
(** [solve ~c ~lo ~hi ~rows ()].  Raises [Invalid_argument] if array
    lengths differ, some [lo > hi], a variable has two infinite bounds,
    or a row references an unknown variable.  Exceeding [max_iters]
    (default 100_000) pivots yields [{ status = Pivot_limit; _ }]. *)

(** {1 Many objectives over one polytope} *)

type polytope
(** A polytope (box and rows) after phase 1, ready to be minimised
    under any number of objectives. *)

val polytope :
  ?max_iters:int -> lo:float array -> hi:float array -> rows:row list -> unit -> polytope
(** Build the tableau and run phase 1 once.  Raises [Invalid_argument]
    on the same inputs as {!solve}. *)

val solve_over : polytope -> c:float array -> solution
(** [solve_over (polytope ~lo ~hi ~rows ()) ~c] equals
    [solve ~c ~lo ~hi ~rows ()] bit for bit, optimum, minimiser and
    [iterations] included: phase 2 restarts from the stored phase-1
    basis for every objective.  Unlike {!reoptimize}, the optimal vertex
    chosen on a degenerate face therefore does not depend on the
    objectives solved before.  Raises [Invalid_argument] if [c] has the
    wrong length. *)

(** {1 Warm-started solves} *)

type session
(** A solved tableau kept alive for reoptimization: same constraint
    rows and variable bounds, new objectives.  Only [Optimal] solves
    produce sessions. *)

type warm = {
  w_n : int;                    (** structural variables *)
  w_m : int;                    (** constraint rows *)
  w_basis : int array;          (** basic variable per row, length [w_m] *)
  w_status : var_status array;  (** per-variable rest status, length [w_n + w_m] *)
}
(** A compact, tableau-free basis snapshot.  Valid to warm-start any
    problem with the same variable/row layout (same [w_n], [w_m], same
    row senses); coefficients, bounds and objective may differ. *)

and var_status = Basic | At_lower | At_upper

val solve_session :
  ?max_iters:int ->
  c:float array ->
  lo:float array ->
  hi:float array ->
  rows:row list ->
  unit ->
  solution * session option
(** Like {!solve}, additionally returning the live tableau when the
    solve was [Optimal] ([None] otherwise). *)

val reoptimize : ?max_iters:int -> session -> c:float array -> solution
(** Re-solve the session's polytope under a new objective, starting
    primal phase 2 from the current (optimal) basis.  [iterations] in
    the result is cumulative over the session.  Raises
    [Invalid_argument] if [c] has the wrong length. *)

val basis_of_session : session -> warm option
(** Export the session's basis.  [None] when an artificial variable is
    still basic (degenerate phase-1 leftovers) — such bases cannot be
    replayed against an artificial-free warm tableau. *)

type warm_result =
  | Warm_ok of { sol : solution; pivots : int; session : session option }
      (** warm reoptimization converged; [pivots] counts dual + cleanup
          pivots, [session] is available iff [sol.status = Optimal] *)
  | Warm_fallback of string
      (** the basis could not be replayed (shape mismatch, singular or
          dual-infeasible basis, pivot cap) — caller must cold-solve;
          the payload names the reason for telemetry *)

val solve_warm :
  ?max_iters:int ->
  ?pivot_cap:int ->
  from:warm ->
  c:float array ->
  lo:float array ->
  hi:float array ->
  rows:row list ->
  unit ->
  warm_result
(** Re-solve a problem from a parent basis: refactorize the parent's
    basis against the child's rows/bounds, repair dual feasibility by
    bound flips, run a bounded dual simplex (at most [pivot_cap] pivots,
    default 200) to restore primal feasibility, then finish with primal
    phase 2.  Any structural failure degrades to [Warm_fallback] rather
    than raising; the result, when [Warm_ok], is exactly as trustworthy
    as a cold {!solve}. *)
