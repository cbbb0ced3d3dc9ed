module Matrix = Abonn_tensor.Matrix
module Boxlp = Abonn_lp.Boxlp
module Affine = Abonn_nn.Affine
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Bounds = Abonn_prop.Bounds
module Outcome = Abonn_prop.Outcome

exception Unresolvable of string

(* With every ReLU stable, the network restricted to the leaf is affine:
   pre-activations and outputs are affine functions of the input alone.
   The leaf is then one small LP over the input box — variables are the
   network inputs, constraints are the fixed ReLU phases — instead of the
   full triangle-relaxation encoding (which carries two variables per
   neuron and is an order of magnitude slower to pivot). *)

(* Compose the affine maps through the fixed phases.  Returns per-layer
   (m_l, c_l) with pre_l(x) = m_l·x + c_l, and the output map. *)
let compose_through affine (pre_bounds : Bounds.t array) =
  let n_layers = Affine.num_layers affine in
  let maps = Array.make (n_layers - 1) (Matrix.zeros 0 0, [||]) in
  let rec walk l (m, c) =
    (* (m, c): affine map of the current layer's input in terms of x *)
    let w = Affine.(affine.weights.(l)) and b = Affine.(affine.biases.(l)) in
    let pre_m = Matrix.matmul w m in
    let pre_c = Array.mapi (fun i v -> v +. b.(i)) (Matrix.mv w c) in
    if l = n_layers - 1 then (pre_m, pre_c)
    else begin
      maps.(l) <- (pre_m, pre_c);
      (* post = mask ⊙ pre with the mask fixed by stability *)
      let bnd = pre_bounds.(l) in
      let width = Array.length pre_c in
      let post_m =
        Matrix.init width pre_m.Matrix.cols (fun i j ->
            match Bounds.relu_state_of bnd i with
            | Bounds.Stable_active -> Matrix.get pre_m i j
            | Bounds.Stable_inactive -> 0.0
            | Bounds.Unstable -> Matrix.get pre_m i j (* caller guards *))
      in
      let post_c =
        Array.mapi
          (fun i v ->
            match Bounds.relu_state_of bnd i with
            | Bounds.Stable_active | Bounds.Unstable -> v
            | Bounds.Stable_inactive -> 0.0)
          pre_c
      in
      walk (l + 1) (post_m, post_c)
    end
  in
  let out = walk 0 (Matrix.identity Affine.(affine.input_dim), Array.make Affine.(affine.input_dim) 0.0) in
  (maps, out)

let any_unstable pre_bounds =
  Array.exists (fun b -> Bounds.num_unstable b > 0) pre_bounds

(* The leaf polytope over the input box: one row per fixed ReLU phase,
   in layer-major order, each row's terms in descending column order
   (the order fixes how the simplex sums its initial slack values). *)
let phase_rows maps =
  let rows = ref [] in
  Array.iter
    (fun ((m : Matrix.t), c, (bnd : Bounds.t)) ->
      for i = 0 to Array.length c - 1 do
        let coefs = ref [] in
        for j = 0 to m.Matrix.cols - 1 do
          let v = Matrix.get m i j in
          if v <> 0.0 then coefs := (j, v) :: !coefs
        done;
        match Bounds.relu_state_of bnd i with
        | Bounds.Stable_active ->
          rows := { Boxlp.coefs = !coefs; sense = Boxlp.Ge; rhs = -.c.(i) } :: !rows
        | Bounds.Stable_inactive ->
          rows := { Boxlp.coefs = !coefs; sense = Boxlp.Le; rhs = -.c.(i) } :: !rows
        | Bounds.Unstable -> ()
      done)
    maps;
  List.rev !rows

(* Exact minimum of one affine objective over the leaf polytope, whose
   phase 1 is shared by every property row of the leaf. *)
let minimise_row polytope ~coefs ~constant =
  let sol = Boxlp.solve_over polytope ~c:coefs in
  match sol.Boxlp.status with
  | Boxlp.Optimal -> `Optimal (sol.Boxlp.objective +. constant, sol.Boxlp.x)
  | Boxlp.Infeasible -> `Infeasible
  | Boxlp.Unbounded -> raise (Unresolvable "leaf LP unbounded (cannot happen over a box)")
  | Boxlp.Pivot_limit -> raise (Unresolvable "leaf LP hit its pivot limit")

(* Bounds an engine certified for this node are sound for every point of
   the leaf, and usually tighter than a cold recomputation (warm starts
   intersect each layer with the parent's bounds); only a missing or
   partial array is recomputed. *)
let leaf_bounds ?pre_bounds (problem : Problem.t) gamma =
  let n_hidden = Affine.num_layers problem.Problem.affine - 1 in
  match pre_bounds with
  | Some b when Array.length b = n_hidden -> Some b
  | Some _ | None -> Abonn_prop.Deeppoly.hidden_bounds problem gamma

let resolve ?pre_bounds problem gamma =
  match leaf_bounds ?pre_bounds problem gamma with
  | None -> `Verified (* infeasible splits: vacuous *)
  | Some pre_bounds when any_unstable pre_bounds ->
    (* Not fully stabilised under these bounds (cold bounds can be
       looser than the ones an engine found stable): fall back to the
       triangle-relaxation LP and concrete validation. *)
    let outcome = Abonn_lp.Lp_verifier.run problem gamma in
    begin match outcome.Outcome.candidate with
    | Some x when Problem.is_counterexample problem x -> `Falsified x
    | Some _ | None ->
      if outcome.Outcome.phat > -1e-7 then `Verified
      else raise (Unresolvable "relaxation negative but minimiser does not violate")
    end
  | Some pre_bounds ->
    let affine = problem.Problem.affine in
    let region = problem.Problem.region in
    let prop = problem.Problem.property in
    let maps, (out_m, out_c) = compose_through affine pre_bounds in
    let constraint_maps =
      Array.mapi (fun l (m, c) -> (m, c, pre_bounds.(l))) maps
    in
    let polytope =
      lazy
        (Boxlp.polytope ~lo:region.Region.lower ~hi:region.Region.upper
           ~rows:(phase_rows constraint_maps) ())
    in
    let nrows = prop.Property.c.Matrix.rows in
    (* Exactly minimise each property row over the leaf polytope; a
       validated minimiser ends the search, and ties (margin = 0) count
       as violations per Property.violated. *)
    let rec rows r worst =
      if r >= nrows then begin
        match worst with
        | Some v when v <= -1e-7 ->
          raise (Unresolvable "negative leaf optimum without a validating minimiser")
        | Some _ | None -> `Verified
      end
      else begin
        let crow = Matrix.row prop.Property.c r in
        let coefs = Matrix.tmv out_m crow in
        let constant = Abonn_tensor.Vector.dot crow out_c +. prop.Property.d.(r) in
        (* Box lower bound of the row ignoring the phase constraints: if
           even that is positive, the LP cannot go negative — skip it. *)
        let box_lower =
          let acc = ref constant in
          Array.iteri
            (fun j a ->
              acc := !acc +. (if a > 0.0 then a *. region.Region.lower.(j) else a *. region.Region.upper.(j)))
            coefs;
          !acc
        in
        if box_lower > 0.0 then rows (r + 1) worst
        else
        match minimise_row (Lazy.force polytope) ~coefs ~constant with
        | `Infeasible -> `Verified (* empty leaf: vacuous for every row *)
        | `Optimal (value, x) ->
          if Problem.is_counterexample problem x then `Falsified x
          else begin
            let worst =
              match worst with Some w -> Some (Float.min w value) | None -> Some value
            in
            rows (r + 1) worst
          end
      end
    in
    rows 0 None
