module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Parse_error = Abonn_util.Parse_error
module Network = Abonn_nn.Network
module Onnx = Abonn_nn.Onnx
module Vnnlib = Abonn_spec.Vnnlib
module Obs = Abonn_obs.Obs
module Matrix = Abonn_tensor.Matrix
module Vector = Abonn_tensor.Vector
module Affine = Abonn_nn.Affine
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Outcome = Abonn_prop.Outcome
module Interval = Abonn_prop.Interval
module Zonotope = Abonn_prop.Zonotope
module Deeppoly = Abonn_prop.Deeppoly
module Symbolic = Abonn_prop.Symbolic
module Bounds = Abonn_prop.Bounds
module Incremental = Abonn_prop.Incremental
module Appver = Abonn_prop.Appver
module Lp_verifier = Abonn_lp.Lp_verifier
module Bfs = Abonn_bab.Bfs
module Bestfirst = Abonn_bab.Bestfirst
module Inputsplit = Abonn_bab.Inputsplit
module Exact = Abonn_bab.Exact
module Certificate = Abonn_bab.Certificate
module Result = Abonn_bab.Result

type family = Sampling | Bounds | Exact | Engines | Cert | Incremental | Lp | Formats

let all_families = [ Sampling; Bounds; Exact; Engines; Cert; Incremental; Lp; Formats ]

let family_name = function
  | Sampling -> "sampling"
  | Bounds -> "bounds"
  | Exact -> "exact"
  | Engines -> "engines"
  | Cert -> "cert"
  | Incremental -> "incremental"
  | Lp -> "lp"
  | Formats -> "formats"

let family_of_string = function
  | "sampling" -> Some Sampling
  | "bounds" -> Some Bounds
  | "exact" -> Some Exact
  | "engines" -> Some Engines
  | "cert" -> Some Cert
  | "incremental" -> Some Incremental
  | "lp" -> Some Lp
  | "formats" -> Some Formats
  | _ -> None

type failure = {
  family : family;
  check : string;
  detail : string;
}

type verdict = Pass | Fail of failure

let is_pass = function Pass -> true | Fail _ -> false

type config = {
  samples : int;
  engine_budget : int;
  exact_max_relus : int;
  tol : float;
}

let default_config = { samples = 120; engine_budget = 600; exact_max_relus = 6; tol = 1e-6 }

let fail family check detail = Fail { family; check; detail }

let failf family check fmt = Printf.ksprintf (fail family check) fmt

(* Sampled probe points: uniform draws plus every box corner on
   low-dimensional inputs (corners are where linear pieces are extremal). *)
let probe_points cfg rng (problem : Problem.t) =
  let region = problem.Problem.region in
  let dim = Region.dim region in
  let samples = Array.init cfg.samples (fun _ -> Region.sample rng region) in
  let corners =
    if dim > 4 then [||]
    else
      Array.init (1 lsl dim) (fun mask -> Region.corner region (fun i -> mask land (1 lsl i) <> 0))
  in
  Array.append samples corners

let min_margin problem points =
  Array.fold_left
    (fun acc x -> Float.min acc (Problem.concrete_margin problem x))
    Float.infinity points

(* --- sampling oracle --- *)

let run_sampling cfg rng problem =
  let points = probe_points cfg rng problem in
  (* Internal consistency of the concrete layer itself: a contained point
     with non-positive margin IS a counterexample, and vice versa. *)
  let inconsistent =
    Array.find_opt
      (fun x ->
        Problem.is_counterexample problem x <> (Problem.concrete_margin problem x <= 0.0))
      points
  in
  match inconsistent with
  | Some x ->
    failf Sampling "sampling.validity-mismatch"
      "margin sign and is_counterexample disagree at margin %.9g"
      (Problem.concrete_margin problem x)
  | None ->
    let r = Bfs.verify ~budget:(Budget.of_calls cfg.engine_budget) problem in
    (match r.Result.verdict with
     | Verdict.Timeout -> Pass
     | Verdict.Falsified x ->
       if Problem.is_counterexample problem x then Pass
       else
         failf Sampling "sampling.bogus-cex"
           "bfs reported Falsified but the witness has margin %.9g (or is outside the region)"
           (Problem.concrete_margin problem x)
     | Verdict.Verified ->
       let worst = min_margin problem points in
       if worst < -.cfg.tol then
         failf Sampling "sampling.verified-but-violated"
           "bfs claimed Verified, but a sampled point has margin %.9g" worst
       else Pass)

(* --- bound-lattice oracle --- *)

type domain = {
  dname : string;
  drun : Problem.t -> Split.gamma -> Outcome.t;
  dhidden : Problem.t -> Split.gamma -> Bounds.t array option;
}

let domains =
  [ { dname = "interval"; drun = Interval.run; dhidden = Interval.hidden_bounds };
    { dname = "zonotope"; drun = Zonotope.run; dhidden = Zonotope.hidden_bounds };
    { dname = "deeppoly"; drun = Deeppoly.run ?slope:None;
      dhidden = Deeppoly.hidden_bounds ?slope:None };
    { dname = "deeppoly-zero"; drun = Deeppoly.run ~slope:Deeppoly.Always_zero;
      dhidden = Deeppoly.hidden_bounds ~slope:Deeppoly.Always_zero };
    { dname = "deeppoly-one"; drun = Deeppoly.run ~slope:Deeppoly.Always_one;
      dhidden = Deeppoly.hidden_bounds ~slope:Deeppoly.Always_one };
    { dname = "symbolic"; drun = Symbolic.run; dhidden = Symbolic.hidden_bounds }
  ]

let row_margins (problem : Problem.t) y =
  let prop = problem.Problem.property in
  Array.mapi (fun r v -> v +. prop.Property.d.(r)) (Matrix.mv prop.Property.c y)

(* The hidden pre-activations of every probe point must lie inside the
   domain's per-layer interval concretisation. *)
let containment_failure cfg ~dname ~gamma_str problem (bounds : Bounds.t array) points =
  let affine = problem.Problem.affine in
  let bad = ref None in
  Array.iter
    (fun x ->
      if !bad = None then begin
        let pre = Affine.pre_activations affine x in
        Array.iteri
          (fun l (b : Bounds.t) ->
            if !bad = None then
              Array.iteri
                (fun i v ->
                  if !bad = None
                     && (v < b.Bounds.lower.(i) -. cfg.tol || v > b.Bounds.upper.(i) +. cfg.tol)
                  then
                    bad :=
                      Some
                        (Printf.sprintf
                           "%s: layer %d neuron %d pre-activation %.9g outside [%.9g, %.9g] (gamma %s)"
                           dname l i v b.Bounds.lower.(i) b.Bounds.upper.(i) gamma_str))
                pre.(l))
          bounds
      end)
    points;
  !bad

(* Split constraints matching a concrete point's actual phases keep the
   point feasible: folded-in bounds must still contain it. *)
let gamma_of_point (problem : Problem.t) x =
  let affine = problem.Problem.affine in
  let pre = Affine.pre_activations affine x in
  let k = Problem.num_relus problem in
  let take = min 2 k in
  let rec build gamma i =
    if i >= take then gamma
    else begin
      (* spread the picked relus over the index range *)
      let relu = i * k / take in
      let layer, idx = Affine.relu_position affine relu in
      let phase = if pre.(layer).(idx) >= 0.0 then Split.Active else Split.Inactive in
      build (Split.extend gamma ~relu ~phase) (i + 1)
    end
  in
  build [] 0

let run_bounds cfg rng problem =
  let points = probe_points cfg rng problem in
  let contain_points =
    (* containment is the expensive check: cap the probe count *)
    if Array.length points > 40 then Array.sub points 0 40 else points
  in
  let worst = min_margin problem points in
  let sampled_rows =
    (* per-row minima over the probes *)
    let nrows = Property.num_constraints problem.Problem.property in
    let mins = Array.make nrows Float.infinity in
    Array.iter
      (fun x ->
        let rm = row_margins problem (Abonn_nn.Network.forward problem.Problem.network x) in
        Array.iteri (fun r v -> if v < mins.(r) then mins.(r) <- v) rm)
      points;
    mins
  in
  let check_domain acc (d : domain) =
    match acc with
    | Fail _ -> acc
    | Pass ->
      let outcome = d.drun problem [] in
      if outcome.Outcome.infeasible then
        failf Bounds "bounds.root-infeasible" "%s reports the unsplit root infeasible" d.dname
      else if outcome.Outcome.phat > worst +. cfg.tol then
        failf Bounds "bounds.phat-unsound"
          "%s claims phat %.9g but a sampled margin is %.9g" d.dname outcome.Outcome.phat
          worst
      else begin
        let rl = outcome.Outcome.row_lower in
        let row_bad = ref Pass in
        if Array.length rl = Array.length sampled_rows then
          Array.iteri
            (fun r lo ->
              if is_pass !row_bad && lo > sampled_rows.(r) +. cfg.tol then
                row_bad :=
                  failf Bounds "bounds.row-lower-unsound"
                    "%s row %d claims lower bound %.9g but a sampled row margin is %.9g"
                    d.dname r lo sampled_rows.(r))
            rl;
        match !row_bad with
        | Fail _ as f -> f
        | Pass ->
          (match d.dhidden problem [] with
           | None ->
             failf Bounds "bounds.root-infeasible" "%s hidden_bounds None at the root" d.dname
           | Some bounds ->
             (match containment_failure cfg ~dname:d.dname ~gamma_str:"ε" problem bounds
                      contain_points with
              | Some msg -> fail Bounds "bounds.containment" msg
              | None ->
                (* split folding: constrain two ReLUs to the phases of a
                   probe point; the point must stay inside the bounds *)
                if Problem.num_relus problem = 0 || Array.length contain_points = 0 then Pass
                else begin
                  let x0 = contain_points.(0) in
                  let gamma = gamma_of_point problem x0 in
                  match d.dhidden problem gamma with
                  | None ->
                    failf Bounds "bounds.split-infeasible"
                      "%s declares infeasible a cell containing a concrete point (gamma %s)"
                      d.dname (Split.to_string gamma)
                  | Some bounds ->
                    (match containment_failure cfg ~dname:d.dname
                             ~gamma_str:(Split.to_string gamma) problem bounds [| x0 |] with
                     | Some msg -> fail Bounds "bounds.split-containment" msg
                     | None -> Pass)
                end))
      end
  in
  match List.fold_left check_domain Pass domains with
  | Fail _ as f -> f
  | Pass ->
    (* Documented dominance: DeepPoly and symbolic intersect with forward
       intervals, so neither may be looser than plain IBP.  This is the
       tightness the αβ-CROWN-style stack's bound engine claims. *)
    let phat_of d = (d.drun problem []).Outcome.phat in
    let ibp = phat_of (List.nth domains 0) in
    let dp = phat_of (List.nth domains 2) in
    let sym = phat_of (List.nth domains 5) in
    if dp < ibp -. cfg.tol then
      failf Bounds "bounds.deeppoly-looser-than-interval"
        "deeppoly phat %.9g < interval phat %.9g" dp ibp
    else if sym < ibp -. cfg.tol then
      failf Bounds "bounds.symbolic-looser-than-interval"
        "symbolic phat %.9g < interval phat %.9g" sym ibp
    else Pass

(* --- exact enumeration oracle --- *)

let enumerate_cells problem =
  let k = Problem.num_relus problem in
  let cex = ref None in
  let cells = 1 lsl k in
  (try
     for mask = 0 to cells - 1 do
       let gamma = ref [] in
       for relu = k - 1 downto 0 do
         let phase = if mask land (1 lsl relu) <> 0 then Split.Active else Split.Inactive in
         gamma := { Split.relu; phase } :: !gamma
       done;
       match Exact.resolve problem !gamma with
       | `Verified -> ()
       | `Falsified x ->
         cex := Some x;
         raise Exit
     done
   with Exit -> ());
  !cex

let run_exact cfg rng problem =
  if Problem.num_relus problem > cfg.exact_max_relus then Pass
  else begin
    let points = probe_points cfg rng problem in
    match enumerate_cells problem with
    | Some x when not (Problem.is_counterexample problem x) ->
      failf Exact "exact.bogus-cex" "enumeration produced a non-validating witness (margin %.9g)"
        (Problem.concrete_margin problem x)
    | truth_cex ->
      (* Margins within [tol] of zero are documented tie territory: the
         engines may legitimately land on either side (Exact.resolve's
         -1e-7 slack, Inputsplit's Timeout on ties), so only a strictly
         interior witness counts as a disagreement. *)
      let truth_falsified = truth_cex <> None in
      let truth_interior =
        match truth_cex with
        | Some x -> Problem.concrete_margin problem x < -.cfg.tol
        | None -> false
      in
      let worst = min_margin problem points in
      if (not truth_falsified) && worst < -.cfg.tol then
        failf Exact "exact.misses-sampled-violation"
          "every phase cell verified, yet a sampled point has margin %.9g" worst
      else begin
        let r = Bfs.verify ~budget:(Budget.of_calls cfg.engine_budget) problem in
        match r.Result.verdict with
        | Verdict.Timeout -> Pass
        | Verdict.Verified when truth_interior ->
          failf Exact "exact.engine-disagreement"
            "bfs claims Verified but exact enumeration found a counterexample (margin %.9g)"
            (Problem.concrete_margin problem (Option.get truth_cex))
        | Verdict.Falsified x
          when (not truth_falsified) && Problem.concrete_margin problem x < -.cfg.tol ->
          failf Exact "exact.engine-disagreement"
            "bfs claims Falsified (margin %.9g) but every phase cell verified exactly"
            (Problem.concrete_margin problem x)
        | Verdict.Verified | Verdict.Falsified _ -> Pass
      end
  end

(* --- cross-engine agreement oracle --- *)

(* Sequential engines are pinned to [domains:1] so the oracle stays
   deterministic in (seed, problem) whatever ABONN_DOMAINS says; the
   @d4 rows rerun the frontier engines on a 4-domain work-stealing
   pool, cross-checking parallel against sequential verdicts (the
   up-to-Timeout agreement rule below already absorbs budget-boundary
   scheduling differences). *)
let par_domains = 4

let run_engines cfg _rng problem =
  let budget () = Budget.of_calls cfg.engine_budget in
  let engines =
    [ ("bfs", fun () -> (Bfs.verify ~domains:1 ~budget:(budget ()) problem).Result.verdict);
      ("bestfirst",
       fun () -> (Bestfirst.verify ~domains:1 ~budget:(budget ()) problem).Result.verdict);
      ("abonn",
       fun () ->
         (Abonn_core.Abonn.verify ~domains:1 ~budget:(budget ()) problem).Result.verdict);
      ("ab-crown",
       fun () ->
         (Abonn_crown.Alphabeta.verify ~domains:1 ~budget:(budget ()) problem).Result.verdict);
      ("inputsplit",
       fun () -> (Inputsplit.verify ~domains:1 ~budget:(budget ()) problem).Result.verdict);
      ("bfs@d4",
       fun () ->
         (Bfs.verify ~domains:par_domains ~budget:(budget ()) problem).Result.verdict);
      ("bestfirst@d4",
       fun () ->
         (Bestfirst.verify ~domains:par_domains ~budget:(budget ()) problem).Result.verdict);
      ("abonn@d4",
       fun () ->
         (Abonn_core.Abonn.verify ~domains:par_domains ~budget:(budget ()) problem)
           .Result.verdict);
      ("inputsplit@d4",
       fun () ->
         (Inputsplit.verify ~domains:par_domains ~budget:(budget ()) problem)
           .Result.verdict)
    ]
  in
  let verdicts = List.map (fun (name, f) -> (name, f ())) engines in
  let bogus =
    List.find_opt
      (fun (_, v) ->
        match v with
        | Verdict.Falsified x -> not (Problem.is_counterexample problem x)
        | Verdict.Verified | Verdict.Timeout -> false)
      verdicts
  in
  match bogus with
  | Some (name, Verdict.Falsified x) ->
    failf Engines "engines.bogus-cex"
      "%s reported Falsified with a non-validating witness (margin %.9g)" name
      (Problem.concrete_margin problem x)
  | Some _ | None ->
    let verified = List.filter (fun (_, v) -> Verdict.is_verified v) verdicts in
    (* A Falsified verdict only conflicts with Verified when its witness
       is strictly interior: ties (margin within [tol] of zero) are
       documented ambiguity and either verdict is acceptable. *)
    let falsified_interior =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Verdict.Falsified x ->
            let m = Problem.concrete_margin problem x in
            if m < -.cfg.tol then Some (name, m) else None
          | Verdict.Verified | Verdict.Timeout -> None)
        verdicts
    in
    (match verified, falsified_interior with
     | (vn, _) :: _, (fn, m) :: _ ->
       failf Engines "engines.verdict-conflict"
         "%s claims Verified while %s claims Falsified (margin %.9g)" vn fn m
     | _ -> Pass)

(* --- certificate oracle --- *)

let run_cert cfg _rng problem =
  let result, cert =
    Bfs.verify_with_certificate ~budget:(Budget.of_calls cfg.engine_budget) problem
  in
  match result.Result.verdict, cert with
  | Verdict.Verified, None ->
    fail Cert "cert.missing" "Verified run produced no certificate"
  | Verdict.Verified, Some cert ->
    if Certificate.num_leaves cert < 1 then
      fail Cert "cert.empty" "certificate has no leaves"
    else
      (match Certificate.check problem cert with
       | Ok () -> Pass
       | Error e ->
         failf Cert "cert.rejected" "certificate checker: %s"
           (Format.asprintf "%a" Certificate.pp_error e))
  | (Verdict.Falsified _ | Verdict.Timeout), Some _ ->
    fail Cert "cert.spurious" "non-Verified run produced a certificate"
  | (Verdict.Falsified _ | Verdict.Timeout), None -> Pass

(* --- incremental warm-start oracle --- *)

(* Differential checks for the parent-state bound cache: walk a
   root-to-leaf split path whose phases match a concrete probe point (so
   the point stays feasible in every cell), warm-starting each node from
   its parent exactly as the BaB engines do, and check at every step

   - soundness: the in-cell point's pre-activations and row margins
     respect the warm bounds;
   - lattice containment: the warm child is nowhere looser than its
     parent (exact, no tolerance — intersection guarantees it);
   - warm vs scratch: the warm p̂ is never looser than from-scratch
     DeepPoly on the same gamma;
   - idempotence: re-evaluating the leaf's own gamma warm from its own
     state reproduces its outcome bit-for-bit;

   then replay two engines cache-on vs cache-off: solved verdicts must
   agree in polarity and every Falsified witness must validate. *)

let contained_in_parent (warm : Outcome.t) (parent : Incremental.t) =
  let bad = ref None in
  Array.iteri
    (fun l (b : Bounds.t) ->
      if !bad = None && l < Array.length parent.Incremental.pre_bounds then begin
        let p = parent.Incremental.pre_bounds.(l) in
        Array.iteri
          (fun i lo ->
            if !bad = None
               && (lo < p.Bounds.lower.(i) || b.Bounds.upper.(i) > p.Bounds.upper.(i))
            then
              bad :=
                Some
                  (Printf.sprintf
                     "layer %d neuron %d: warm [%.9g, %.9g] not inside parent [%.9g, %.9g]"
                     l i lo b.Bounds.upper.(i) p.Bounds.lower.(i) p.Bounds.upper.(i)))
          b.Bounds.lower
      end)
    warm.Outcome.pre_bounds;
  (match !bad with
   | None ->
     let prl = parent.Incremental.row_lower in
     if Array.length warm.Outcome.row_lower = Array.length prl then
       Array.iteri
         (fun r lo ->
           if !bad = None && lo < prl.(r) then
             bad := Some (Printf.sprintf "row %d: warm lower %.9g below parent %.9g" r lo prl.(r)))
         warm.Outcome.row_lower
   | Some _ -> ());
  !bad

let run_incremental cfg rng problem =
  let slope = Deeppoly.Adaptive in
  let k = Problem.num_relus problem in
  let points = probe_points cfg rng problem in
  let walk_verdict =
    if k = 0 || Array.length points = 0 then Pass
    else begin
      let x0 = points.(0) in
      let affine = problem.Problem.affine in
      let pre = Affine.pre_activations affine x0 in
      let rows0 = row_margins problem (Abonn_nn.Network.forward problem.Problem.network x0) in
      let steps = min 3 k in
      let result = ref Pass in
      let gamma = ref [] and state = ref None in
      let step_check parent (warm : Outcome.t) (scratch : Outcome.t) =
        let gs = Split.to_string !gamma in
        if warm.Outcome.infeasible then
          failf Incremental "incremental.spurious-infeasible"
            "warm DeepPoly declares infeasible a cell containing a concrete point (gamma %s)" gs
        else if warm.Outcome.phat > Problem.concrete_margin problem x0 +. cfg.tol then
          failf Incremental "incremental.phat-unsound"
            "warm phat %.9g exceeds the margin %.9g of an in-cell point (gamma %s)"
            warm.Outcome.phat (Problem.concrete_margin problem x0) gs
        else begin
          let row_bad = ref Pass in
          if Array.length warm.Outcome.row_lower = Array.length rows0 then
            Array.iteri
              (fun r lo ->
                if is_pass !row_bad && lo > rows0.(r) +. cfg.tol then
                  row_bad :=
                    failf Incremental "incremental.row-lower-unsound"
                      "warm row %d lower bound %.9g exceeds the in-cell margin %.9g (gamma %s)"
                      r lo rows0.(r) gs)
              warm.Outcome.row_lower;
          match !row_bad with
          | Fail _ as f -> f
          | Pass ->
            (match containment_failure cfg ~dname:"deeppoly-warm" ~gamma_str:gs problem
                     warm.Outcome.pre_bounds [| x0 |] with
             | Some msg -> fail Incremental "incremental.containment" msg
             | None ->
               if warm.Outcome.phat < scratch.Outcome.phat -. cfg.tol then
                 failf Incremental "incremental.looser-than-scratch"
                   "warm phat %.9g is looser than from-scratch phat %.9g (gamma %s)"
                   warm.Outcome.phat scratch.Outcome.phat gs
               else
                 (match parent with
                  | None -> Pass
                  | Some p ->
                    (match contained_in_parent warm p with
                     | Some msg ->
                       failf Incremental "incremental.not-contained-in-parent" "%s (gamma %s)"
                         msg gs
                     | None -> Pass)))
        end
      in
      (try
         for i = 0 to steps - 1 do
           let relu = i * k / steps in
           let layer, idx = Affine.relu_position affine relu in
           let phase = if pre.(layer).(idx) >= 0.0 then Split.Active else Split.Inactive in
           gamma := Split.extend !gamma ~relu ~phase;
           let scratch = Deeppoly.run ~slope problem !gamma in
           let parent = !state in
           let warm, next = Deeppoly.run_warm ~slope ?state:parent problem !gamma in
           (match step_check parent warm scratch with
            | Pass -> ()
            | Fail _ as f ->
              result := f;
              raise Exit);
           (* idempotence: the node's own state reproduces its outcome *)
           (match next with
            | None ->
              result :=
                failf Incremental "incremental.state-dropped"
                  "feasible warm evaluation returned no reusable state (gamma %s)"
                  (Split.to_string !gamma);
              raise Exit
            | Some st ->
              let again, _ = Deeppoly.run_warm ~slope ~state:st problem !gamma in
              let same_rows =
                Array.length again.Outcome.row_lower = Array.length warm.Outcome.row_lower
                && Array.for_all2 Float.equal again.Outcome.row_lower warm.Outcome.row_lower
              in
              if not (Float.equal again.Outcome.phat warm.Outcome.phat && same_rows) then begin
                result :=
                  failf Incremental "incremental.same-gamma-drift"
                    "re-evaluating gamma %s from its own state drifts: phat %.17g vs %.17g"
                    (Split.to_string !gamma) again.Outcome.phat warm.Outcome.phat;
                raise Exit
              end);
           state := next
         done
       with Exit -> ());
      !result
    end
  in
  match walk_verdict with
  | Fail _ as f -> f
  | Pass ->
    (* cache-on vs cache-off engine agreement *)
    let budget () = Budget.of_calls cfg.engine_budget in
    let engines =
      [ ("bfs", fun appver -> (Bfs.verify ~appver ~budget:(budget ()) problem).Result.verdict);
        ("bestfirst",
         fun appver -> (Bestfirst.verify ~appver ~budget:(budget ()) problem).Result.verdict)
      ]
    in
    let check_engine acc (name, f) =
      match acc with
      | Fail _ -> acc
      | Pass ->
        let on = f Appver.deeppoly in
        let off = f { Appver.deeppoly with Appver.warm = None } in
        let bogus v =
          match v with
          | Verdict.Falsified x -> not (Problem.is_counterexample problem x)
          | Verdict.Verified | Verdict.Timeout -> false
        in
        if bogus on || bogus off then
          failf Incremental "incremental.bogus-cex"
            "%s (cache %s) reported Falsified with a non-validating witness" name
            (if bogus on then "on" else "off")
        else begin
          (* ties (margin within tol of 0) may legitimately land on either
             side; only a strictly interior witness conflicts *)
          let interior v =
            match v with
            | Verdict.Falsified x -> Problem.concrete_margin problem x < -.cfg.tol
            | Verdict.Verified | Verdict.Timeout -> false
          in
          match (on, off) with
          | Verdict.Verified, f when interior f ->
            failf Incremental "incremental.cache-verdict-conflict"
              "%s: Verified with cache on, interior Falsified with cache off" name
          | f, Verdict.Verified when interior f ->
            failf Incremental "incremental.cache-verdict-conflict"
              "%s: interior Falsified with cache on, Verified with cache off" name
          | _ -> Pass
        end
    in
    List.fold_left check_engine Pass engines

(* --- LP warm-start oracle --- *)

(* Differential checks for the warm-started dual simplex: walk a
   root-to-leaf split path whose phases match a concrete probe point,
   warm-starting each LP call from the basis on its parent's state
   exactly as the BaB engines do, and check at every node

   - warm vs cold: the warm p̂ and per-row bounds match a cold solve of
     the same polytope within [tol] (same optima, different pivot order);
   - soundness: the in-cell point's margin and row margins respect the
     warm bounds, and no cell containing the point is declared
     infeasible;
   - dominance: the LP is never looser than DeepPoly on the same gamma
     (the tightness Lp_verifier documents);

   then replay BFS with the LP AppVer warm-on vs warm-off: solved
   verdicts must agree in polarity and every Falsified witness must
   validate. *)

let run_lp cfg rng problem =
  let k = Problem.num_relus problem in
  let points = probe_points cfg rng problem in
  let walk_verdict =
    if Array.length points = 0 then Pass
    else begin
      let x0 = points.(0) in
      let affine = problem.Problem.affine in
      let pre = Affine.pre_activations affine x0 in
      let margin0 = Problem.concrete_margin problem x0 in
      let rows0 = row_margins problem (Abonn_nn.Network.forward problem.Problem.network x0) in
      let steps = min 3 k in
      let result = ref Pass in
      let gamma = ref [] and state = ref None in
      let check_node (warm : Outcome.t) (cold : Outcome.t) =
        let gs = Split.to_string !gamma in
        if warm.Outcome.infeasible || cold.Outcome.infeasible then
          failf Lp "lp.spurious-infeasible"
            "LP (%s) declares infeasible a cell containing a concrete point (gamma %s)"
            (if warm.Outcome.infeasible then "warm" else "cold")
            gs
        else if warm.Outcome.phat > margin0 +. cfg.tol then
          failf Lp "lp.phat-unsound"
            "warm LP phat %.9g exceeds the margin %.9g of an in-cell point (gamma %s)"
            warm.Outcome.phat margin0 gs
        else if warm.Outcome.phat < cold.Outcome.phat -. cfg.tol then
          (* one-sided: the warm path inherits monotonically tightened
             DeepPoly pre-activation bounds from the parent state, so it
             may legitimately be *tighter* than a from-scratch cold
             solve — but never looser *)
          failf Lp "lp.warm-cold-divergence"
            "warm phat %.17g is looser than cold phat %.17g (gamma %s)"
            warm.Outcome.phat cold.Outcome.phat gs
        else begin
          let row_bad = ref Pass in
          if Array.length warm.Outcome.row_lower = Array.length rows0 then
            Array.iteri
              (fun r lo ->
                if is_pass !row_bad && lo > rows0.(r) +. cfg.tol then
                  row_bad :=
                    failf Lp "lp.row-lower-unsound"
                      "warm LP row %d lower bound %.9g exceeds the in-cell margin %.9g (gamma %s)"
                      r lo rows0.(r) gs)
              warm.Outcome.row_lower;
          if is_pass !row_bad
             && Array.length warm.Outcome.row_lower = Array.length cold.Outcome.row_lower
          then
            Array.iteri
              (fun r lo ->
                if is_pass !row_bad
                   && lo < cold.Outcome.row_lower.(r) -. cfg.tol
                then
                  row_bad :=
                    failf Lp "lp.warm-cold-divergence"
                      "warm row %d lower bound %.17g is looser than cold %.17g (gamma %s)"
                      r lo cold.Outcome.row_lower.(r) gs)
              warm.Outcome.row_lower;
          match !row_bad with
          | Fail _ as f -> f
          | Pass ->
            let dp = Deeppoly.run problem !gamma in
            if (not dp.Outcome.infeasible)
               && warm.Outcome.phat < dp.Outcome.phat -. cfg.tol
            then
              failf Lp "lp.looser-than-deeppoly"
                "LP phat %.9g is looser than DeepPoly phat %.9g (gamma %s)"
                warm.Outcome.phat dp.Outcome.phat gs
            else Pass
        end
      in
      (try
         (* i = 0 is the unsplit root (its state carries the first basis); each
            further step extends gamma by one phase-matched ReLU *)
         for i = 0 to steps do
           if i > 0 then begin
             let relu = (i - 1) * k / steps in
             let layer, idx = Affine.relu_position affine relu in
             let phase = if pre.(layer).(idx) >= 0.0 then Split.Active else Split.Inactive in
             gamma := Split.extend !gamma ~relu ~phase
           end;
           let cold = Lp_verifier.run problem !gamma in
           let warm, next = Lp_verifier.run_warm ?state:!state problem !gamma in
           (match check_node warm cold with
            | Pass -> ()
            | Fail _ as f ->
              result := f;
              raise Exit);
           state := next
         done
       with Exit -> ());
      !result
    end
  in
  match walk_verdict with
  | Fail _ as f -> f
  | Pass ->
    (* warm-on vs warm-off engine agreement with the LP AppVer *)
    let budget () = Budget.of_calls cfg.engine_budget in
    let verdict_of appver =
      (Bfs.verify ~appver ~budget:(budget ()) problem).Result.verdict
    in
    let on = verdict_of Lp_verifier.appver in
    let off = verdict_of { Lp_verifier.appver with Appver.warm = None } in
    let bogus v =
      match v with
      | Verdict.Falsified x -> not (Problem.is_counterexample problem x)
      | Verdict.Verified | Verdict.Timeout -> false
    in
    if bogus on || bogus off then
      failf Lp "lp.bogus-cex"
        "bfs+lp (warm %s) reported Falsified with a non-validating witness"
        (if bogus on then "on" else "off")
    else begin
      let interior v =
        match v with
        | Verdict.Falsified x -> Problem.concrete_margin problem x < -.cfg.tol
        | Verdict.Verified | Verdict.Timeout -> false
      in
      match (on, off) with
      | Verdict.Verified, f when interior f ->
        fail Lp "lp.warm-verdict-conflict"
          "bfs+lp: Verified warm, interior Falsified cold"
      | f, Verdict.Verified when interior f ->
        fail Lp "lp.warm-verdict-conflict"
          "bfs+lp: interior Falsified warm, Verified cold"
      | _ -> Pass
    end

(* --- problem-ingestion format oracle --- *)

(* Differential checks for the ONNX + VNNLIB front-end (docs/FORMATS.md):
   the in-memory problem is the ground truth, and the wire formats must
   reproduce it.

   - ONNX: serialization is deterministic, the reader accepts the
     writer's output, the reparsed network agrees with the original on
     every probe point, and [parse . print] is a fixpoint (byte
     stability of the canonical form);
   - VNNLIB: [of_problem] round-trips exactly ([%.17g] floats) through
     [to_string] and [parse], and the printer is a fixpoint;
   - lowering: BFS on the native problem and joined per-disjunct BFS on
     the round-tripped spec over the round-tripped network must agree up
     to Timeout (ties within [tol] of zero are documented ambiguity);
   - max-gadget: on multi-row properties, lowering a conjunctive
     two-literal disjunct must produce a network computing exactly
     [max(g_0, g_1)] at every probe point (the exactness the
     DNF-splitting semantics relies on). *)

let run_formats cfg rng problem =
  let network = problem.Problem.network in
  let all_points = probe_points cfg rng problem in
  let points =
    if Array.length all_points > 40 then Array.sub all_points 0 40 else all_points
  in
  let forward_disagreement a b =
    let bad = ref None in
    Array.iter
      (fun x ->
        if !bad = None then begin
          let ya = Network.forward a x and yb = Network.forward b x in
          Array.iteri
            (fun i v ->
              if !bad = None && abs_float (v -. yb.(i)) > cfg.tol then
                bad := Some (i, v, yb.(i)))
            ya
        end)
      points;
    !bad
  in
  let onnx_verdict =
    List.fold_left
      (fun acc (sname, style) ->
        match acc with
        | Fail _ -> acc
        | Pass -> (
          let bytes = Onnx.to_bytes ~style network in
          if not (String.equal bytes (Onnx.to_bytes ~style network)) then
            failf Formats "formats.onnx-nondeterministic"
              "%s serialization of the same network differs between calls" sname
          else
            match Onnx.of_bytes bytes with
            | exception Parse_error.Error e ->
              failf Formats "formats.onnx-reject-own-output" "%s: %s" sname
                (Parse_error.to_string e)
            | reparsed -> (
              match forward_disagreement network reparsed with
              | Some (i, a, b) ->
                failf Formats "formats.onnx-forward-drift"
                  "%s: output %d drifts through the round-trip: %.17g vs %.17g"
                  sname i a b
              | None ->
                if not (String.equal bytes (Onnx.to_bytes ~style reparsed)) then
                  failf Formats "formats.onnx-reprint-unstable"
                    "%s: parse . print is not a fixpoint" sname
                else Pass)))
      Pass
      [ ("gemm", Onnx.Gemm); ("matmul_add", Onnx.Matmul_add) ]
  in
  match onnx_verdict with
  | Fail _ as f -> f
  | Pass -> (
    let spec = Vnnlib.of_problem problem in
    let text = Vnnlib.to_string spec in
    match Vnnlib.parse text with
    | exception Parse_error.Error e ->
      failf Formats "formats.vnnlib-reject-own-output" "%s" (Parse_error.to_string e)
    | spec' ->
      if spec' <> spec then
        fail Formats "formats.vnnlib-roundtrip-drift"
          "parse (to_string spec) differs structurally from spec"
      else if not (String.equal (Vnnlib.to_string spec') text) then
        fail Formats "formats.vnnlib-reprint-unstable" "print . parse is not a fixpoint"
      else begin
        (* lowering agreement: native vs joined per-disjunct verdicts *)
        let budget () = Budget.of_calls cfg.engine_budget in
        let native =
          (Bfs.verify ~domains:1 ~budget:(budget ()) problem).Result.verdict
        in
        let through =
          Vnnlib.join_verdicts
            (List.map
               (fun p -> (Bfs.verify ~domains:1 ~budget:(budget ()) p).Result.verdict)
               (Vnnlib.problems ~network:(Onnx.of_bytes (Onnx.to_bytes network)) spec'))
        in
        let interior v =
          match v with
          | Verdict.Falsified x -> Problem.concrete_margin problem x < -.cfg.tol
          | Verdict.Verified | Verdict.Timeout -> false
        in
        let conflict =
          match (native, through) with
          | Verdict.Verified, f when interior f ->
            failf Formats "formats.lowering-verdict-conflict"
              "native BFS claims Verified, the onnx+vnnlib path Falsified (margin %.9g)"
              (Problem.concrete_margin problem
                 (Option.get (Verdict.counterexample through)))
          | f, Verdict.Verified when interior f ->
            failf Formats "formats.lowering-verdict-conflict"
              "native BFS claims Falsified (margin %.9g), the onnx+vnnlib path Verified"
              (Problem.concrete_margin problem
                 (Option.get (Verdict.counterexample native)))
          | _ -> Pass
        in
        match conflict with
        | Fail _ as f -> f
        | Pass ->
          let prop = problem.Problem.property in
          let nrows = Property.num_constraints prop in
          if nrows < 2 then Pass
          else begin
            (* exact max-gadget: lower a conjunctive 2-literal disjunct *)
            let region = problem.Problem.region in
            let lit r =
              { Vnnlib.coeffs = Matrix.row prop.Property.c r;
                offset = prop.Property.d.(r) }
            in
            let conj =
              { Vnnlib.num_inputs = Region.dim region;
                num_outputs = Network.output_dim network;
                lower = Array.copy region.Region.lower;
                upper = Array.copy region.Region.upper;
                disjuncts = [ [ lit 0; lit 1 ] ] }
            in
            match Vnnlib.problems ~network conj with
            | [ gp ] ->
              let bad = ref Pass in
              Array.iter
                (fun x ->
                  if is_pass !bad then begin
                    let y = Network.forward network x in
                    let g r =
                      let l = lit r in
                      let acc = ref l.Vnnlib.offset in
                      Array.iteri (fun i c -> acc := !acc +. (c *. y.(i))) l.Vnnlib.coeffs;
                      !acc
                    in
                    let expected = Float.max (g 0) (g 1) in
                    let got = (Network.forward gp.Problem.network x).(0) in
                    if abs_float (expected -. got) > cfg.tol then
                      bad :=
                        failf Formats "formats.gadget-inexact"
                          "max-gadget output %.17g differs from max(g0, g1) = %.17g"
                          got expected
                  end)
                points;
              !bad
            | probs ->
              failf Formats "formats.lowering-shape"
                "one conjunctive disjunct lowered to %d problems" (List.length probs)
          end
      end)

(* --- dispatch --- *)

let run ?(config = default_config) ~seed family problem =
  if Obs.active () then Obs.incr (Printf.sprintf "fuzz.oracle.%s" (family_name family));
  let rng = Rng.create seed in
  let go =
    match family with
    | Sampling -> run_sampling
    | Bounds -> run_bounds
    | Exact -> run_exact
    | Engines -> run_engines
    | Cert -> run_cert
    | Incremental -> run_incremental
    | Lp -> run_lp
    | Formats -> run_formats
  in
  try go config rng problem with
  | Stack_overflow | Out_of_memory as e -> raise e
  | e ->
    fail family
      (family_name family ^ ".exception")
      (Printexc.to_string e)

let run_families ?config ~seed families problem =
  List.fold_left
    (fun acc f -> match acc with Fail _ -> acc | Pass -> run ?config ~seed f problem)
    Pass families
