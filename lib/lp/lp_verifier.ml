module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Bounds = Abonn_prop.Bounds
module Outcome = Abonn_prop.Outcome

(* One neuron of the relaxation: a pre-activation variable constrained to
   equal the affine image of the previous layer, and a post-activation
   variable related to it according to the neuron's (split-clamped)
   stability state. *)
let encode_neuron lp ~prev ~w ~bias ~layer ~i ~lo ~hi ~state =
  let z = Lp_problem.add_var ~lo ~hi ~name:(Printf.sprintf "z%d_%d" layer i) lp in
  let terms = ref [ (1.0, z) ] in
  for j = 0 to Array.length prev - 1 do
    let wij = Matrix.get w i j in
    if wij <> 0.0 then terms := (-.wij, prev.(j)) :: !terms
  done;
  Lp_problem.add_constraint lp !terms Lp_problem.Eq bias;
  match state with
  | Bounds.Stable_inactive ->
    Lp_problem.add_var ~lo:0.0 ~hi:0.0 ~name:(Printf.sprintf "p%d_%d" layer i) lp
  | Bounds.Stable_active ->
    let p =
      Lp_problem.add_var ~lo:(Float.max 0.0 lo) ~hi:(Float.max 0.0 hi)
        ~name:(Printf.sprintf "p%d_%d" layer i) lp
    in
    Lp_problem.add_constraint lp [ (1.0, p); (-1.0, z) ] Lp_problem.Eq 0.0;
    p
  | Bounds.Unstable ->
    let p =
      Lp_problem.add_var ~lo:0.0 ~hi:(Float.max 0.0 hi)
        ~name:(Printf.sprintf "p%d_%d" layer i) lp
    in
    (* p ≥ z, and the triangle's chord p ≤ s·(z − lo) with s = hi/(hi−lo). *)
    Lp_problem.add_constraint lp [ (1.0, p); (-1.0, z) ] Lp_problem.Ge 0.0;
    let s = hi /. (hi -. lo) in
    Lp_problem.add_constraint lp [ (1.0, p); (-.s, z) ] Lp_problem.Le (-.s *. lo);
    p

(* Build the relaxation LP; returns the builder, the input variables and
   the post-activation variables of the deepest hidden layer. *)
let encode (problem : Problem.t) (pre_bounds : Bounds.t array) =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let lp = Lp_problem.create () in
  let inputs =
    Array.init Affine.(affine.input_dim) (fun j ->
        Lp_problem.add_var ~lo:region.Region.lower.(j) ~hi:region.Region.upper.(j)
          ~name:(Printf.sprintf "in%d" j) lp)
  in
  let encode_layer prev l =
    let w = Affine.(affine.weights.(l)) and bias = Affine.(affine.biases.(l)) in
    let b = pre_bounds.(l) in
    Array.init w.Matrix.rows (fun i ->
        encode_neuron lp ~prev ~w ~bias:bias.(i) ~layer:l ~i ~lo:b.Bounds.lower.(i)
          ~hi:b.Bounds.upper.(i) ~state:(Bounds.relu_state_of b i))
  in
  let rec walk prev l =
    if l >= Array.length pre_bounds then prev else walk (encode_layer prev l) (l + 1)
  in
  let last_post = walk inputs 0 in
  (lp, inputs, last_post)

(* [Lp_problem.solve] with observability: per-status counters, a span
   timer and one [lp_solved] event per solve. *)
let observed_solve lp =
  if not (Obs.active ()) then Lp_problem.solve lp
  else begin
    let t0 = Obs.now () in
    let outcome = Lp_problem.solve lp in
    let elapsed = Obs.now () -. t0 in
    let status =
      match outcome with
      | Lp_problem.Optimal _ -> "optimal"
      | Lp_problem.Infeasible -> "infeasible"
      | Lp_problem.Unbounded -> "unbounded"
      | Lp_problem.Pivot_limit -> "pivot_limit"
    in
    Obs.incr "lp.solves";
    Obs.incr ("lp.solve." ^ status);
    Obs.span "lp.solve" elapsed;
    if Obs.tracing () then
      Obs.emit
        (Ev.Lp_solved
           { vars = Lp_problem.num_vars lp; rows = Lp_problem.num_constraints lp;
             status; elapsed });
    outcome
  end

let analyse (problem : Problem.t) gamma =
  match Abonn_prop.Deeppoly.hidden_bounds problem gamma with
  | None -> Outcome.vacuous ~pre_bounds:[||]
  | Some pre_bounds ->
    let affine = problem.Problem.affine in
    let prop = problem.Problem.property in
    let lp, inputs, last_post = encode problem pre_bounds in
    let last = Affine.num_layers affine - 1 in
    let w = Affine.(affine.weights.(last)) and bias = Affine.(affine.biases.(last)) in
    let nrows = prop.Property.c.Matrix.rows in
    let row_lower = Array.make nrows infinity in
    let best_candidate = ref None in
    let best_value = ref infinity in
    for r = 0 to nrows - 1 do
      (* Minimise (cᵀW)·x_last + cᵀb + d over the relaxation. *)
      let crow = Matrix.row prop.Property.c r in
      let coefs = Matrix.tmv w crow in
      let constant = Abonn_tensor.Vector.dot crow bias +. prop.Property.d.(r) in
      let terms = ref [] in
      Array.iteri (fun j c -> if c <> 0.0 then terms := (c, last_post.(j)) :: !terms) coefs;
      Lp_problem.set_objective ~constant lp !terms;
      begin match observed_solve lp with
      | Lp_problem.Optimal { objective; values } ->
        row_lower.(r) <- objective;
        if objective < !best_value then begin
          best_value := objective;
          best_candidate := Some (Array.map values inputs)
        end
      | Lp_problem.Infeasible ->
        (* The relaxation admits no point at all, so the sub-problem is
           vacuous for this (and every) row. *)
        row_lower.(r) <- infinity
      | Lp_problem.Unbounded ->
        (* Cannot happen: every variable is bounded through the input box
           and the relaxation constraints.  Stay sound regardless. *)
        row_lower.(r) <- neg_infinity
      | Lp_problem.Pivot_limit ->
        (* Inconclusive solve: -∞ is the sound "no information" bound. *)
        row_lower.(r) <- neg_infinity
      end
    done;
    let phat = Array.fold_left Float.min infinity row_lower in
    let candidate = if phat > 0.0 then None else !best_candidate in
    Outcome.make ~phat ?candidate ~pre_bounds ~row_lower ()

(* Whole-verifier instrumentation on top of the per-solve telemetry of
   [observed_solve]. *)
let run (problem : Problem.t) gamma =
  if not (Obs.active ()) then analyse problem gamma
  else begin
    let t0 = Obs.now () in
    let outcome = analyse problem gamma in
    let elapsed = Obs.now () -. t0 in
    Obs.incr "appver.lp.calls";
    Obs.span "appver.lp" elapsed;
    if Obs.tracing () then
      Obs.emit
        (Ev.Bound_computed
           { appver = "lp"; depth = Abonn_spec.Split.depth gamma;
             phat = outcome.Abonn_prop.Outcome.phat; elapsed });
    outcome
  end

(* --- warm-started path (DESIGN.md §13) --- *)

module Incremental = Abonn_prop.Incremental
module Deeppoly = Abonn_prop.Deeppoly

(* The warm path keeps each node's optimal basis on the node's own
   state, next to the bounds it was computed from: a child replays
   exactly its parent's basis, and nothing is shared between trees,
   networks or properties. *)
type Incremental.basis += Lp of Boxlp.warm

(* Canonical fixed-shape encoding for the warm path.  Unlike [encode],
   whose rows depend on each neuron's stability state, every hidden
   neuron always contributes the variables [z; p] and the three rows

     z − W·prev = b   (Eq)
     p − z ≥ 0        (Ge)
     p − u_s·z ≤ u_c  (Le)

   with (u_s, u_c) = the triangle chord for unstable neurons, (1, 0)
   for stably-active ones (p = z together with the Ge row) and (0, 0)
   for stably-inactive ones (vacuous next to p ∈ [0, 0]).  Each state's
   polytope is exactly the one [encode] builds, but the variable/row
   layout is a function of the architecture alone — which is what lets
   a parent basis be replayed against any child of the same tree. *)
type canonical = {
  c_lo : float array;
  c_hi : float array;
  c_rows : Boxlp.row list;
  c_n0 : int;  (* input variables are 0 .. c_n0-1 *)
  c_last_post : int array;
  c_nvars : int;
}

let encode_canonical (problem : Problem.t) (pre_bounds : Bounds.t array) =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let n0 = Affine.(affine.input_dim) in
  let n_hidden = Array.length pre_bounds in
  let nvars = ref n0 in
  for l = 0 to n_hidden - 1 do
    nvars := !nvars + (2 * Affine.(affine.weights.(l)).Matrix.rows)
  done;
  let nvars = !nvars in
  let lo = Array.make nvars 0.0 and hi = Array.make nvars 0.0 in
  Array.blit region.Region.lower 0 lo 0 n0;
  Array.blit region.Region.upper 0 hi 0 n0;
  let rows = ref [] in
  let next = ref n0 in
  let prev = ref (Array.init n0 Fun.id) in
  for l = 0 to n_hidden - 1 do
    let w = Affine.(affine.weights.(l)) and bias = Affine.(affine.biases.(l)) in
    let b = pre_bounds.(l) in
    let cur = Array.make w.Matrix.rows 0 in
    for i = 0 to w.Matrix.rows - 1 do
      let z = !next and p = !next + 1 in
      next := !next + 2;
      cur.(i) <- p;
      let zlo = b.Bounds.lower.(i) and zhi = b.Bounds.upper.(i) in
      lo.(z) <- zlo;
      hi.(z) <- zhi;
      let coefs = ref [ (z, 1.0) ] in
      for j = 0 to Array.length !prev - 1 do
        let wij = Matrix.get w i j in
        if wij <> 0.0 then coefs := ((!prev).(j), -.wij) :: !coefs
      done;
      rows := { Boxlp.coefs = !coefs; sense = Boxlp.Eq; rhs = bias.(i) } :: !rows;
      let u_s, u_c, plo, phi =
        match Bounds.relu_state_of b i with
        | Bounds.Stable_inactive -> (0.0, 0.0, 0.0, 0.0)
        | Bounds.Stable_active ->
          (1.0, 0.0, Float.max 0.0 zlo, Float.max 0.0 zhi)
        | Bounds.Unstable ->
          let s = zhi /. (zhi -. zlo) in
          (s, -.s *. zlo, 0.0, Float.max 0.0 zhi)
      in
      lo.(p) <- plo;
      hi.(p) <- phi;
      rows :=
        { Boxlp.coefs = [ (p, 1.0); (z, -1.0) ]; sense = Boxlp.Ge; rhs = 0.0 }
        :: !rows;
      rows :=
        { Boxlp.coefs = [ (p, 1.0); (z, -.u_s) ]; sense = Boxlp.Le; rhs = u_c }
        :: !rows
    done;
    prev := cur
  done;
  { c_lo = lo; c_hi = hi; c_rows = List.rev !rows; c_n0 = n0;
    c_last_post = !prev; c_nvars = nvars }

type warm_stats = { hit : bool; pivots : int; fallback : string }

(* Warm analysis.  Pre-activation bounds ride the DeepPoly incremental
   machinery: an lp state's [pre_bounds] are exactly the dp-warm bounds
   it was built from, so relabeling the state lets [Deeppoly.run_warm]
   do its prefix sharing and monotone tightening unchanged.  The
   parent's (LP-certified) [row_lower] stays sound under that reuse:
   the child's feasible set is contained in the parent's, so any lower
   bound certified for the parent also bounds the child. *)
let analyse_warm ?state (problem : Problem.t) gamma =
  let dp_state =
    Option.map
      (fun st -> { st with Incremental.appver = "deeppoly" })
      state
  in
  let dp_outcome, _ = Deeppoly.run_warm ?state:dp_state problem gamma in
  let n_hidden = Affine.num_layers problem.Problem.affine - 1 in
  if
    dp_outcome.Outcome.infeasible
    || Array.length dp_outcome.Outcome.pre_bounds <> n_hidden
  then
    ( Outcome.vacuous ~pre_bounds:dp_outcome.Outcome.pre_bounds,
      None,
      { hit = false; pivots = 0; fallback = "infeasible" } )
  else begin
    let pre_bounds = dp_outcome.Outcome.pre_bounds in
    let affine = problem.Problem.affine in
    let prop = problem.Problem.property in
    let enc = encode_canonical problem pre_bounds in
    let last = Affine.num_layers affine - 1 in
    let w = Affine.(affine.weights.(last)) in
    let bias = Affine.(affine.biases.(last)) in
    let nrows = prop.Property.c.Matrix.rows in
    let objective_of r =
      let crow = Matrix.row prop.Property.c r in
      let coefs = Matrix.tmv w crow in
      let constant = Abonn_tensor.Vector.dot crow bias +. prop.Property.d.(r) in
      let carr = Array.make enc.c_nvars 0.0 in
      Array.iteri
        (fun j v -> if v <> 0.0 then carr.(enc.c_last_post.(j)) <- v)
        coefs;
      (carr, constant)
    in
    let row_lower = Array.make nrows infinity in
    let best_candidate = ref None in
    let best_value = ref infinity in
    let record (sol : Boxlp.solution) constant r =
      let status_name =
        match sol.Boxlp.status with
        | Boxlp.Optimal -> "optimal"
        | Boxlp.Infeasible -> "infeasible"
        | Boxlp.Unbounded -> "unbounded"
        | Boxlp.Pivot_limit -> "pivot_limit"
      in
      if Obs.active () then begin
        Obs.incr "lp.solves";
        Obs.incr ("lp.solve." ^ status_name)
      end;
      match sol.Boxlp.status with
      | Boxlp.Optimal ->
        let objective = sol.Boxlp.objective +. constant in
        row_lower.(r) <- objective;
        if objective < !best_value then begin
          best_value := objective;
          best_candidate := Some (Array.sub sol.Boxlp.x 0 enc.c_n0)
        end
      | Boxlp.Infeasible -> row_lower.(r) <- infinity
      | Boxlp.Unbounded | Boxlp.Pivot_limit -> row_lower.(r) <- neg_infinity
    in
    let hit = ref false in
    let pivots = ref 0 in
    let fallback = ref "no-parent" in
    let session = ref None in
    let last_iters = ref 0 in
    let cold_row r carr constant =
      let sol, ses =
        Boxlp.solve_session ~c:carr ~lo:enc.c_lo ~hi:enc.c_hi ~rows:enc.c_rows
          ()
      in
      session := ses;
      last_iters := sol.Boxlp.iterations;
      record sol constant r
    in
    let parent_basis =
      match state with
      | Some ({ Incremental.basis = Some (Lp b); _ } as st)
        when Incremental.classify st ~appver:"lp" ~problem ~gamma
             <> Incremental.Incompatible ->
        Some b
      | Some _ | None -> None
    in
    let c0, const0 = objective_of 0 in
    (match parent_basis with
     | Some from ->
       (match
          Boxlp.solve_warm ~from ~c:c0 ~lo:enc.c_lo ~hi:enc.c_hi
            ~rows:enc.c_rows ()
        with
        | Boxlp.Warm_ok { sol; pivots = p; session = ses } ->
          hit := true;
          fallback := "";
          pivots := !pivots + p;
          session := ses;
          last_iters := sol.Boxlp.iterations;
          record sol const0 0
        | Boxlp.Warm_fallback reason ->
          fallback := reason;
          cold_row 0 c0 const0)
     | None -> cold_row 0 c0 const0);
    for r = 1 to nrows - 1 do
      let carr, constant = objective_of r in
      match !session with
      | Some ses ->
        let sol = Boxlp.reoptimize ses ~c:carr in
        pivots := !pivots + Stdlib.max 0 (sol.Boxlp.iterations - !last_iters);
        last_iters := sol.Boxlp.iterations;
        record sol constant r
      | None ->
        (* row 0 left no live tableau (infeasible / unbounded / pivot
           limit): mirror the cold path, which solves each row on its
           own — infeasibility is a property of the polytope, so the
           fresh solve re-derives the same verdict. *)
        cold_row r carr constant
    done;
    let basis =
      Option.bind !session (fun ses ->
          Option.map (fun b -> Lp b) (Boxlp.basis_of_session ses))
    in
    let phat = Array.fold_left Float.min infinity row_lower in
    let candidate = if phat > 0.0 then None else !best_candidate in
    let outcome = Outcome.make ~phat ?candidate ~pre_bounds ~row_lower () in
    let state' =
      Some
        (Incremental.make ~appver:"lp" ~problem ~gamma ~pre_bounds ~row_lower
           ?basis ())
    in
    (outcome, state', { hit = !hit; pivots = !pivots; fallback = !fallback })
  end

(* Warm entry point with [run]-parity instrumentation plus the
   [lp.warm.*] counters and one [lp_warm] trace event per call.
   Fallback semantics of the [fallback] payload: [""] = parent basis
   replayed successfully; ["no-parent"] = nothing to replay (root node,
   incompatible state, or a parent state without a basis);
   ["infeasible"] = the cheap bounds already closed the node; anything
   else = a replay was attempted and degraded to a cold solve (counted
   in [lp.warm.fallbacks]). *)
let run_warm ?state (problem : Problem.t) gamma =
  if not (Obs.active ()) then begin
    let outcome, state', _ = analyse_warm ?state problem gamma in
    (outcome, state')
  end
  else begin
    let t0 = Obs.now () in
    let outcome, state', stats = analyse_warm ?state problem gamma in
    let elapsed = Obs.now () -. t0 in
    Obs.incr "appver.lp.calls";
    Obs.span "appver.lp" elapsed;
    if stats.hit then Obs.incr "lp.warm.hits";
    if stats.pivots > 0 then Obs.incr ~by:stats.pivots "lp.warm.pivots";
    let degraded =
      match stats.fallback with "" | "no-parent" | "infeasible" -> false | _ -> true
    in
    if degraded then Obs.incr "lp.warm.fallbacks";
    if Obs.tracing () then begin
      Obs.emit
        (Ev.Bound_computed
           { appver = "lp"; depth = Abonn_spec.Split.depth gamma;
             phat = outcome.Abonn_prop.Outcome.phat; elapsed });
      Obs.emit
        (Ev.Lp_warm
           { depth = Abonn_spec.Split.depth gamma;
             rows = problem.Problem.property.Property.c.Matrix.rows;
             hit = stats.hit; pivots = stats.pivots;
             fallback = stats.fallback; elapsed })
    end;
    (outcome, state')
  end

let appver = { Abonn_prop.Appver.name = "lp"; run; warm = Some run_warm }
