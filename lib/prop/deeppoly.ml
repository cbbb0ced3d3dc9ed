module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Split = Abonn_spec.Split
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

type slope = Adaptive | Always_zero | Always_one

let lower_slope slope ~lo ~hi =
  match slope with
  | Always_zero -> 0.0
  | Always_one -> 1.0
  | Adaptive -> if hi > -.lo then 1.0 else 0.0

(* One symbolic bound: coefficients over some layer's (post-)activations
   plus a constant.  [lo_coef]/[lo_const] lower-bound the target,
   [hi_coef]/[hi_const] upper-bound it. *)
type sym = {
  mutable lo_coef : float array;
  mutable lo_const : float;
  mutable hi_coef : float array;
  mutable hi_const : float;
}

(* Rewrite a symbolic bound over x_{k+1} = relu(ẑ_k) into one over ẑ_k,
   using the triangle relaxation driven by the (split-clamped) bounds of
   layer k.  Soundness: for the lower bound, positive coefficients take a
   lower relaxation of the ReLU and negative coefficients an upper
   relaxation; mirrored for the upper bound. *)
let relax_relu slope (b : Bounds.t) sym =
  let n = Array.length sym.lo_coef in
  let lo_coef = Array.make n 0.0 and hi_coef = Array.make n 0.0 in
  let lo_const = ref sym.lo_const and hi_const = ref sym.hi_const in
  for j = 0 to n - 1 do
    let lo = b.Bounds.lower.(j) and hi = b.Bounds.upper.(j) in
    let al = sym.lo_coef.(j) and ah = sym.hi_coef.(j) in
    if lo >= 0.0 then begin
      (* stable active: x = ẑ *)
      lo_coef.(j) <- al;
      hi_coef.(j) <- ah
    end
    else if hi <= 0.0 then begin
      (* stable inactive: x = 0; coefficients vanish *)
      ()
    end
    else begin
      let s = hi /. (hi -. lo) in
      let alpha = lower_slope slope ~lo ~hi in
      (* lower bound of target *)
      if al >= 0.0 then lo_coef.(j) <- al *. alpha
      else begin
        lo_coef.(j) <- al *. s;
        lo_const := !lo_const -. (al *. s *. lo)
      end;
      (* upper bound of target *)
      if ah >= 0.0 then begin
        hi_coef.(j) <- ah *. s;
        hi_const := !hi_const -. (ah *. s *. lo)
      end
      else hi_coef.(j) <- ah *. alpha
    end
  done;
  sym.lo_coef <- lo_coef;
  sym.hi_coef <- hi_coef;
  sym.lo_const <- !lo_const;
  sym.hi_const <- !hi_const

(* Rewrite a symbolic bound over ẑ_k = W_k x_k + b_k into one over x_k. *)
let through_affine affine k sym =
  let dot coef = Abonn_tensor.Vector.dot coef Affine.(affine.biases.(k)) in
  sym.lo_const <- sym.lo_const +. dot sym.lo_coef;
  sym.hi_const <- sym.hi_const +. dot sym.hi_coef;
  sym.lo_coef <- Affine.tmv affine k sym.lo_coef;
  sym.hi_coef <- Affine.tmv affine k sym.hi_coef

(* Concretise a symbolic bound over the input box. *)
let concretize (region : Region.t) sym =
  let lo = ref sym.lo_const and hi = ref sym.hi_const in
  let rl = region.Region.lower and ru = region.Region.upper in
  for j = 0 to Array.length sym.lo_coef - 1 do
    let a = sym.lo_coef.(j) in
    lo := !lo +. (if a > 0.0 then a *. rl.(j) else a *. ru.(j));
    let a = sym.hi_coef.(j) in
    hi := !hi +. (if a > 0.0 then a *. ru.(j) else a *. rl.(j))
  done;
  (!lo, !hi)

(* The input-box corner minimising the symbolic lower bound. *)
let minimizer_corner (region : Region.t) lo_coef =
  Array.mapi
    (fun j a -> if a > 0.0 then region.Region.lower.(j) else region.Region.upper.(j))
    lo_coef

(* Back-substitute a batch of targets whose coefficients currently range
   over post-activations x_[start_layer] (x_0 = input).  [pre_bounds]
   must contain clamped bounds for all hidden layers < start_layer. *)
let backsub slope affine region ~pre_bounds ~start_layer syms =
  for k = start_layer - 1 downto 0 do
    Array.iter (relax_relu slope pre_bounds.(k)) syms;
    Array.iter (through_affine affine k) syms
  done;
  Array.map (concretize region) syms

let sym_of_row coef const =
  { lo_coef = Array.copy coef; lo_const = const; hi_coef = Array.copy coef; hi_const = const }

(* Bounds of pre-activation layer l given bounds of previous layers;
   clamps in the split constraints for layer l afterwards. *)
let layer_bounds slope affine region ~pre_bounds l =
  let w = Affine.(affine.weights.(l)) and b = Affine.(affine.biases.(l)) in
  let syms = Array.init w.Matrix.rows (fun i -> sym_of_row (Matrix.row w i) b.(i)) in
  let pairs = backsub slope affine region ~pre_bounds ~start_layer:l syms in
  Bounds.create ~lower:(Array.map fst pairs) ~upper:(Array.map snd pairs)

(* Splits touching hidden layer [l], applied as soon as that layer's
   bounds exist so deeper layers see the clamped intervals. *)
let splits_for_layer affine gamma l =
  List.filter_map
    (fun (c : Split.constr) ->
      let layer, idx = Affine.relu_position affine c.Split.relu in
      if layer = l then Some (idx, c.Split.phase) else None)
    gamma

(* Forward interval image of one affine layer (for the CROWN-IBP style
   intersection: back-substituted bounds are not uniformly tighter than
   plain interval propagation on deep networks, so we keep the tighter of
   the two per neuron). *)
let affine_interval w b ~lo ~hi = Bounds.affine_image w b ~lo ~hi

let intersect (a : Bounds.t) ~lo ~hi = Bounds.intersect a ~lo ~hi

(* Intersect a freshly recomputed layer with the parent's certified
   bounds for the same layer.  Sound monotone tightening: the child's
   feasible set is contained in the parent's, so the parent's bounds
   still hold — keep the tighter side and count each side that actually
   tightened. *)
let intersect_parent (b : Bounds.t) (p : Bounds.t) clamps =
  let n = Array.length b.Bounds.lower in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let bl = b.Bounds.lower.(i) and pl = p.Bounds.lower.(i) in
    let bu = b.Bounds.upper.(i) and pu = p.Bounds.upper.(i) in
    if pl > bl then begin lo.(i) <- pl; incr clamps end else lo.(i) <- bl;
    if pu < bu then begin hi.(i) <- pu; incr clamps end else hi.(i) <- bu
  done;
  Bounds.create ~lower:lo ~upper:hi

(* Hidden-layer bounds plus the forward interval of the deepest
   post-activation layer (used to clamp the property rows as well).

   The warm-started variant aliases the parent's bounds for every layer
   below [from_layer] (the split layer: bounds there depend only on the
   region, lower layers and splits at those layers, all of which a child
   shares with its parent verbatim), re-propagates from [from_layer]
   upward and intersects each recomputed layer with the parent's. *)
let compute_hidden_bounds_from ?parent ?(from_layer = 0) ~clamps slope
    (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let n_hidden = Affine.num_layers affine - 1 in
  let from_layer = Stdlib.min from_layer n_hidden in
  let pre_bounds = Array.make n_hidden (Bounds.create ~lower:[||] ~upper:[||]) in
  (match parent with
   | Some (p : Bounds.t array) -> Array.blit p 0 pre_bounds 0 from_layer
   | None -> ());
  let rec loop l lo hi =
    if l >= n_hidden then Ok (pre_bounds, lo, hi)
    else begin
      let zlo, zhi = affine_interval Affine.(affine.weights.(l)) Affine.(affine.biases.(l)) ~lo ~hi in
      let b = layer_bounds slope affine region ~pre_bounds l in
      let b = intersect b ~lo:zlo ~hi:zhi in
      let b =
        List.fold_left
          (fun b (idx, phase) -> Bounds.apply_split b ~idx ~phase)
          b (splits_for_layer affine gamma l)
      in
      let b = match parent with Some p -> intersect_parent b p.(l) clamps | None -> b in
      if Bounds.is_infeasible b then Error (Array.sub pre_bounds 0 l)
      else begin
        pre_bounds.(l) <- b;
        let post_lo = Array.map (fun v -> Float.max 0.0 v) b.Bounds.lower in
        let post_hi = Array.map (fun v -> Float.max 0.0 v) b.Bounds.upper in
        loop (l + 1) post_lo post_hi
      end
    end
  in
  if from_layer = 0 then loop 0 (Array.copy region.Region.lower) (Array.copy region.Region.upper)
  else begin
    let b = pre_bounds.(from_layer - 1) in
    loop from_layer
      (Array.map (fun v -> Float.max 0.0 v) b.Bounds.lower)
      (Array.map (fun v -> Float.max 0.0 v) b.Bounds.upper)
  end

let compute_hidden_bounds slope problem gamma =
  compute_hidden_bounds_from ~clamps:(ref 0) slope problem gamma

let property_syms (problem : Problem.t) =
  let affine = problem.Problem.affine in
  let prop = problem.Problem.property in
  let c = prop.Property.c and d = prop.Property.d in
  let last = Affine.num_layers affine - 1 in
  (* Fold the output affine layer into the property rows so coefficients
     range over x_last (the post-activation of the deepest hidden layer). *)
  Array.init c.Matrix.rows (fun i ->
      let row = Matrix.row c i in
      let sym = sym_of_row row d.(i) in
      through_affine affine last sym;
      sym)

(* Interval-based lower bound of each property row over the output box
   reached from the last hidden layer's post-activation interval. *)
let interval_row_lower (problem : Problem.t) ~lo ~hi =
  let affine = problem.Problem.affine in
  let prop = problem.Problem.property in
  let last = Affine.num_layers affine - 1 in
  let ylo, yhi = affine_interval Affine.(affine.weights.(last)) Affine.(affine.biases.(last)) ~lo ~hi in
  Array.init prop.Property.c.Matrix.rows (fun i ->
      let acc = ref prop.Property.d.(i) in
      for j = 0 to Array.length ylo - 1 do
        let a = Matrix.get prop.Property.c i j in
        acc := !acc +. (if a > 0.0 then a *. ylo.(j) else a *. yhi.(j))
      done;
      !acc)

let analyse_core ?parent ?(from_layer = 0) ~clamps slope (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let parent_bounds = Option.map (fun (p : Incremental.t) -> p.Incremental.pre_bounds) parent in
  match
    compute_hidden_bounds_from ?parent:parent_bounds ~from_layer ~clamps slope problem gamma
  with
  | Error partial -> Outcome.vacuous ~pre_bounds:partial
  | Ok (pre_bounds, post_lo, post_hi) ->
    let syms = property_syms problem in
    let last = Affine.num_layers affine - 1 in
    let pairs = backsub slope affine region ~pre_bounds ~start_layer:last syms in
    let ibp_rows = interval_row_lower problem ~lo:post_lo ~hi:post_hi in
    let row_lower = Array.mapi (fun i (lo, _) -> Float.max lo ibp_rows.(i)) pairs in
    (* The parent's certified rows are still lower bounds over the
       child's (smaller) feasible set: keep the tighter per row. *)
    (match parent with
     | Some (p : Incremental.t)
       when Array.length p.Incremental.row_lower = Array.length row_lower ->
       Array.iteri
         (fun i v -> if v > row_lower.(i) then begin row_lower.(i) <- v; incr clamps end)
         p.Incremental.row_lower
     | _ -> ());
    let phat = Array.fold_left Float.min infinity row_lower in
    let candidate =
      if phat > 0.0 then None
      else begin
        (* Corner minimising the worst row's symbolic lower bound. *)
        let worst = ref 0 in
        Array.iteri (fun i v -> if v < row_lower.(!worst) then worst := i) row_lower;
        Some (minimizer_corner region syms.(!worst).lo_coef)
      end
    in
    Outcome.make ~phat ?candidate ~pre_bounds ~row_lower ()

let analyse slope problem gamma = analyse_core ~clamps:(ref 0) slope problem gamma

let slope_name = function
  | Adaptive -> "deeppoly"
  | Always_zero -> "deeppoly-zero"
  | Always_one -> "deeppoly-one"

let run ?(slope = Adaptive) (problem : Problem.t) gamma =
  if not (Obs.active ()) then analyse slope problem gamma
  else begin
    let t0 = Obs.now () in
    let outcome = analyse slope problem gamma in
    let elapsed = Obs.now () -. t0 in
    let name = slope_name slope in
    Obs.incr (Printf.sprintf "appver.%s.calls" name);
    Obs.span ("appver." ^ name) elapsed;
    if Obs.tracing () then
      Obs.emit
        (Ev.Bound_computed
           { appver = name; depth = Split.depth gamma;
             phat = outcome.Outcome.phat; elapsed });
    outcome
  end

let hidden_bounds ?(slope = Adaptive) problem gamma =
  match compute_hidden_bounds slope problem gamma with
  | Ok (b, _, _) -> Some b
  | Error _ -> None

(* Warm-started analysis: classify how much of [state] is reusable for
   this node, alias the shared prefix, re-propagate the rest and return
   the node's own state for its future children.  An incompatible or
   absent state degenerates to the from-scratch path (plus building the
   state).  Instrumentation mirrors [run] exactly — the same
   [bound_computed] event and counters — so trace reconstruction is
   unchanged; reuse additionally emits one [bound_reuse] event and the
   [appver.cache.*] counters. *)
let run_warm ?(slope = Adaptive) ?state (problem : Problem.t) gamma =
  let name = slope_name slope in
  let reuse =
    match state with
    | Some st -> Incremental.classify st ~appver:name ~problem ~gamma
    | None -> Incremental.Incompatible
  in
  let parent, from_layer =
    match reuse with
    | Incremental.Prefix l -> (state, l)
    | Incremental.Tighten -> (state, 0)
    | Incremental.Incompatible -> (None, 0)
  in
  let clamps = ref 0 in
  let compute () = analyse_core ?parent ~from_layer ~clamps slope problem gamma in
  let outcome =
    if not (Obs.active ()) then compute ()
    else begin
      let t0 = Obs.now () in
      let outcome = compute () in
      let elapsed = Obs.now () -. t0 in
      Obs.incr (Printf.sprintf "appver.%s.calls" name);
      Obs.span ("appver." ^ name) elapsed;
      if parent <> None then begin
        Obs.incr "appver.cache.prefix_hits";
        Obs.incr ~by:from_layer "appver.cache.layers_skipped";
        Obs.incr ~by:!clamps "appver.cache.tighten_clamps"
      end;
      if Obs.tracing () then begin
        Obs.emit
          (Ev.Bound_computed
             { appver = name; depth = Split.depth gamma;
               phat = outcome.Outcome.phat; elapsed });
        if parent <> None then
          Obs.emit
            (Ev.Bound_reuse
               { appver = name; depth = Split.depth gamma; from_layer;
                 layers_skipped = from_layer; clamps = !clamps })
      end;
      outcome
    end
  in
  let n_hidden = Affine.num_layers problem.Problem.affine - 1 in
  let state' =
    if outcome.Outcome.infeasible
       || Array.length outcome.Outcome.pre_bounds <> n_hidden
    then None
    else
      Some
        (Incremental.make ~appver:name ~problem ~gamma
           ~pre_bounds:outcome.Outcome.pre_bounds
           ~row_lower:outcome.Outcome.row_lower ())
  in
  (outcome, state')
