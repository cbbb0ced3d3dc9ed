(* Tests for Abonn_bab: branching heuristics, exact leaf resolution, and
   the BFS / best-first engines — including soundness cross-checks of
   verdicts against sampling and against each other. *)

module Matrix = Abonn_tensor.Matrix
module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Network = Abonn_nn.Network
module Affine = Abonn_nn.Affine
module Builder = Abonn_nn.Builder
module Bounds = Abonn_prop.Bounds
module Deeppoly = Abonn_prop.Deeppoly
module Branching = Abonn_bab.Branching
module Exact = Abonn_bab.Exact
module Bfs = Abonn_bab.Bfs
module Bestfirst = Abonn_bab.Bestfirst
module Result = Abonn_bab.Result

let random_problem ?(seed = 0) ?(dims = [ 2; 6; 2 ]) ?(eps = 0.3) () =
  let rng = Rng.create seed in
  let net = Builder.mlp rng ~dims in
  let in_dim = List.hd dims in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let out_dim = List.nth dims (List.length dims - 1) in
  let label = Network.predict net center in
  let property = Property.robustness ~num_classes:out_dim ~label in
  Problem.create ~network:net ~region ~property ()

(* --- Branching --- *)

let node_bounds problem gamma =
  match Deeppoly.hidden_bounds problem gamma with
  | Some b -> b
  | None -> Alcotest.fail "unexpected infeasibility"

let test_heuristics_pick_unstable_unconstrained () =
  let problem = random_problem ~seed:3 ~dims:[ 3; 8; 8; 2 ] ~eps:0.4 () in
  let pre_bounds = node_bounds problem [] in
  List.iter
    (fun (h : Branching.t) ->
      let choose = h.Branching.prepare problem in
      match choose ~gamma:[] ~pre_bounds with
      | None -> Alcotest.fail (h.Branching.name ^ ": expected a candidate")
      | Some { Branching.relu; _ } ->
        let layer, idx = Affine.relu_position problem.Problem.affine relu in
        Alcotest.(check bool)
          (h.Branching.name ^ " picks unstable")
          true
          (Bounds.relu_state_of pre_bounds.(layer) idx = Bounds.Unstable))
    Branching.all

let test_heuristics_respect_gamma () =
  let problem = random_problem ~seed:3 ~dims:[ 3; 8; 8; 2 ] ~eps:0.4 () in
  let choose = Branching.default.Branching.prepare problem in
  let pre_bounds = node_bounds problem [] in
  match choose ~gamma:[] ~pre_bounds with
  | None -> Alcotest.fail "expected candidate"
  | Some { Branching.relu = first; _ } ->
    let gamma = Split.extend [] ~relu:first ~phase:Split.Active in
    let pre_bounds' = node_bounds problem gamma in
    (match choose ~gamma ~pre_bounds:pre_bounds' with
     | None -> ()
     | Some { Branching.relu = second; _ } ->
       Alcotest.(check bool) "does not repick constrained relu" true (second <> first))

let test_heuristics_none_when_all_stable () =
  (* Tiny epsilon keeps every neuron stable: nothing to split. *)
  let problem = random_problem ~seed:7 ~eps:1e-9 () in
  let pre_bounds = node_bounds problem [] in
  List.iter
    (fun (h : Branching.t) ->
      let choose = h.Branching.prepare problem in
      Alcotest.(check bool) (h.Branching.name ^ " returns None") true
        (choose ~gamma:[] ~pre_bounds = None))
    Branching.all

let test_branching_registry () =
  Alcotest.(check int) "four heuristics" 4 (List.length Branching.all);
  Alcotest.(check bool) "default is deepsplit" true
    (Branching.default.Branching.name = "deepsplit");
  Alcotest.(check bool) "find fsb" true (Branching.find "fsb" <> None);
  Alcotest.(check bool) "find unknown" true (Branching.find "nope" = None)

(* --- Exact --- *)

let test_exact_resolves_linear_leaf () =
  (* Network with no hidden relu instability (eps tiny): the root itself
     is a fully-stabilised "leaf". *)
  let w = Matrix.of_rows [| [| 1.0; -2.0 |] |] in
  let affine = Affine.of_weights [ (w, [| 0.25 |]) ] in
  let region = Region.create ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] in
  (* Violated: min margin is -2.75. *)
  let p_violated =
    Problem.of_affine ~affine ~region ~property:(Property.single [| 1.0 |] 0.0) ()
  in
  (match Exact.resolve p_violated [] with
   | `Falsified x ->
     Alcotest.(check bool) "real cex" true (Problem.is_counterexample p_violated x)
   | `Verified -> Alcotest.fail "expected falsification");
  (* Verified: offset shifts the margin positive everywhere. *)
  let p_verified =
    Problem.of_affine ~affine ~region ~property:(Property.single [| 1.0 |] 4.0) ()
  in
  Alcotest.(check bool) "verified" true (Exact.resolve p_verified [] = `Verified)

(* --- BFS engine --- *)

let test_bfs_verifies_easy () =
  let problem = random_problem ~seed:11 ~eps:1e-6 () in
  let r = Bfs.verify problem in
  Alcotest.(check bool) "verified" true (Verdict.is_verified r.Result.verdict);
  Alcotest.(check int) "single call" 1 r.Result.stats.Result.appver_calls

let test_bfs_falsifies_large_eps () =
  (* A huge ball certainly crosses the decision boundary. *)
  let problem = random_problem ~seed:12 ~eps:10.0 () in
  let r = Bfs.verify ~budget:(Budget.of_calls 2000) problem in
  match r.Result.verdict with
  | Verdict.Falsified x ->
    Alcotest.(check bool) "cex is genuine" true (Problem.is_counterexample problem x)
  | Verdict.Verified | Verdict.Timeout -> Alcotest.fail "expected falsification"

let test_bfs_timeout_on_tiny_budget () =
  (* eps in the hard band with a 1-call budget must time out (unless the
     root alone decides, which these seeds avoid). *)
  let problem = random_problem ~seed:13 ~dims:[ 3; 8; 8; 2 ] ~eps:0.35 () in
  let r = Bfs.verify ~budget:(Budget.of_calls 1) problem in
  Alcotest.(check bool) "timeout or instantly solved" true
    (Verdict.is_timeout r.Result.verdict || r.Result.stats.Result.appver_calls <= 1)

let test_bfs_stats_consistent () =
  let problem = random_problem ~seed:14 ~dims:[ 2; 6; 2 ] ~eps:0.4 () in
  let r = Bfs.verify ~budget:(Budget.of_calls 500) problem in
  Alcotest.(check bool) "nodes odd (root + pairs)" true (r.Result.stats.Result.nodes mod 2 = 1);
  Alcotest.(check bool) "calls >= 1" true (r.Result.stats.Result.appver_calls >= 1);
  Alcotest.(check bool) "depth sane" true
    (r.Result.stats.Result.max_depth <= Problem.num_relus problem)

let test_bfs_verified_proves_all_samples () =
  (* Whenever BFS says Verified, no sampled point may violate. *)
  let checked = ref 0 in
  for seed = 20 to 29 do
    let problem = random_problem ~seed ~eps:0.15 () in
    let r = Bfs.verify ~budget:(Budget.of_calls 500) problem in
    if Verdict.is_verified r.Result.verdict then begin
      incr checked;
      let rng = Rng.create (seed * 7) in
      for _ = 1 to 100 do
        let x = Region.sample rng problem.Problem.region in
        Alcotest.(check bool) "no sampled violation" true
          (Problem.concrete_margin problem x > 0.0)
      done
    end
  done;
  Alcotest.(check bool) "some problems were verified" true (!checked > 0)

(* --- best-first engine --- *)

let test_bestfirst_agrees_with_bfs () =
  let falsified = ref 0 and verified = ref 0 in
  for seed = 30 to 44 do
    let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
    let b1 = Bfs.verify ~budget:(Budget.of_calls 3000) problem in
    let b2 = Bestfirst.verify ~budget:(Budget.of_calls 3000) problem in
    match b1.Result.verdict, b2.Result.verdict with
    | Verdict.Timeout, _ | _, Verdict.Timeout -> ()
    | v1, v2 ->
      (match v1 with
       | Verdict.Verified -> incr verified
       | Verdict.Falsified _ -> incr falsified
       | Verdict.Timeout -> ());
      Alcotest.(check bool)
        (Printf.sprintf "same verdict class (seed %d)" seed)
        true
        (Verdict.is_verified v1 = Verdict.is_verified v2)
  done;
  Alcotest.(check bool) "both verdict classes exercised" true (!falsified > 0 && !verified > 0)

let test_bestfirst_cex_valid () =
  let problem = random_problem ~seed:12 ~eps:10.0 () in
  let r = Bestfirst.verify ~budget:(Budget.of_calls 2000) problem in
  match r.Result.verdict with
  | Verdict.Falsified x ->
    Alcotest.(check bool) "genuine" true (Problem.is_counterexample problem x)
  | Verdict.Verified | Verdict.Timeout -> Alcotest.fail "expected falsification"

let test_engines_with_all_heuristics () =
  (* Every branching heuristic must preserve verdicts (it only changes
     the order of work). *)
  let problem = random_problem ~seed:33 ~dims:[ 2; 6; 2 ] ~eps:0.3 () in
  let reference = Bfs.verify ~budget:(Budget.of_calls 3000) problem in
  match reference.Result.verdict with
  | Verdict.Timeout -> Alcotest.fail "reference run timed out; re-seed the test"
  | ref_verdict ->
    List.iter
      (fun h ->
        let r = Bfs.verify ~heuristic:h ~budget:(Budget.of_calls 3000) problem in
        match r.Result.verdict with
        | Verdict.Timeout -> () (* a weaker heuristic may simply be slower *)
        | v ->
          Alcotest.(check bool)
            (h.Branching.name ^ " same verdict")
            true
            (Verdict.is_verified v = Verdict.is_verified ref_verdict))
      Branching.all

let test_interval_appver_also_complete () =
  (* BaB over the looser IBP AppVer must still reach the same verdict,
     only with more splits. *)
  let problem = random_problem ~seed:35 ~dims:[ 2; 5; 2 ] ~eps:0.25 () in
  let dp = Bfs.verify ~budget:(Budget.of_calls 5000) problem in
  let ibp = Bfs.verify ~appver:Abonn_prop.Appver.interval ~budget:(Budget.of_calls 5000) problem in
  match dp.Result.verdict, ibp.Result.verdict with
  | Verdict.Timeout, _ | _, Verdict.Timeout -> ()
  | v1, v2 ->
    Alcotest.(check bool) "same verdict" true (Verdict.is_verified v1 = Verdict.is_verified v2);
    Alcotest.(check bool) "IBP needs at least as many calls" true
      (ibp.Result.stats.Result.appver_calls >= dp.Result.stats.Result.appver_calls)

let suite =
  [ ( "bab.branching",
      [ Alcotest.test_case "picks unstable" `Quick test_heuristics_pick_unstable_unconstrained;
        Alcotest.test_case "respects gamma" `Quick test_heuristics_respect_gamma;
        Alcotest.test_case "none when stable" `Quick test_heuristics_none_when_all_stable;
        Alcotest.test_case "registry" `Quick test_branching_registry
      ] );
    ( "bab.exact",
      [ Alcotest.test_case "resolves linear leaf" `Quick test_exact_resolves_linear_leaf ] );
    ( "bab.bfs",
      [ Alcotest.test_case "verifies easy" `Quick test_bfs_verifies_easy;
        Alcotest.test_case "falsifies large eps" `Quick test_bfs_falsifies_large_eps;
        Alcotest.test_case "timeout on tiny budget" `Quick test_bfs_timeout_on_tiny_budget;
        Alcotest.test_case "stats consistent" `Quick test_bfs_stats_consistent;
        Alcotest.test_case "verified implies no violations" `Quick test_bfs_verified_proves_all_samples
      ] );
    ( "bab.bestfirst",
      [ Alcotest.test_case "agrees with bfs" `Quick test_bestfirst_agrees_with_bfs;
        Alcotest.test_case "cex valid" `Quick test_bestfirst_cex_valid;
        Alcotest.test_case "all heuristics same verdict" `Quick test_engines_with_all_heuristics;
        Alcotest.test_case "IBP appver complete" `Quick test_interval_appver_also_complete
      ] )
  ]

(* --- Certificates --- *)

module Certificate = Abonn_bab.Certificate

let test_certificate_produced_and_checks () =
  let checked = ref 0 in
  for seed = 20 to 29 do
    let problem = random_problem ~seed ~eps:0.15 () in
    let result, cert = Bfs.verify_with_certificate ~budget:(Budget.of_calls 500) problem in
    match result.Result.verdict, cert with
    | Verdict.Verified, Some cert ->
      incr checked;
      Alcotest.(check bool) "at least one leaf" true (Certificate.num_leaves cert >= 1);
      (match Certificate.check problem cert with
       | Ok () -> ()
       | Error e ->
         Alcotest.fail (Format.asprintf "certificate rejected: %a" Certificate.pp_error e))
    | Verdict.Verified, None -> Alcotest.fail "verified without certificate"
    | (Verdict.Falsified _ | Verdict.Timeout), Some _ ->
      Alcotest.fail "certificate for non-verified verdict"
    | (Verdict.Falsified _ | Verdict.Timeout), None -> ()
  done;
  Alcotest.(check bool) "some certificates checked" true (!checked >= 3)

let test_certificate_detects_coverage_gap () =
  let problem = random_problem ~seed:24 ~eps:0.15 () in
  let _, cert = Bfs.verify_with_certificate ~budget:(Budget.of_calls 500) problem in
  match cert with
  | None -> Alcotest.fail "expected verified problem; re-seed"
  | Some cert ->
    if Certificate.num_leaves cert < 2 then Alcotest.fail "expected a split tree; re-seed"
    else begin
      (* drop one leaf: the cover check must fail *)
      let broken = { cert with Certificate.leaves = List.tl cert.Certificate.leaves } in
      match Certificate.check problem broken with
      | Ok () -> Alcotest.fail "gap not detected"
      | Error (Certificate.Coverage_gap _ | Certificate.Duplicate_or_overlap _) -> ()
      | Error (Certificate.Leaf_not_proved _ as e) ->
        Alcotest.fail (Format.asprintf "wrong error: %a" Certificate.pp_error e)
    end

let test_certificate_detects_bogus_leaf () =
  let problem = random_problem ~seed:24 ~eps:0.15 () in
  let _, cert = Bfs.verify_with_certificate ~budget:(Budget.of_calls 500) problem in
  match cert with
  | None -> Alcotest.fail "expected verified problem; re-seed"
  | Some cert ->
    (* replace all leaves by the root pretending it was proved: replay
       must reject it (the root of these problems is undecided) *)
    let bogus =
      { cert with
        Certificate.leaves = [ { Certificate.gamma = []; phat = 1.0; by_exact = false } ] }
    in
    (match Certificate.check problem bogus with
     | Error (Certificate.Leaf_not_proved _) -> ()
     | Ok () -> Alcotest.fail "bogus leaf accepted"
     | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Certificate.pp_error e))

(* --- Input splitting --- *)

module Inputsplit = Abonn_bab.Inputsplit

let test_inputsplit_agrees_with_relu_split () =
  let solved = ref 0 in
  for seed = 30 to 41 do
    let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
    let relu_split = Bfs.verify ~budget:(Budget.of_calls 3000) problem in
    let input_split = Inputsplit.verify ~budget:(Budget.of_calls 3000) problem in
    match relu_split.Result.verdict, input_split.Result.verdict with
    | Verdict.Timeout, _ | _, Verdict.Timeout -> ()
    | v1, v2 ->
      incr solved;
      Alcotest.(check bool)
        (Printf.sprintf "verdict agreement (seed %d)" seed)
        true
        (Verdict.is_verified v1 = Verdict.is_verified v2)
  done;
  Alcotest.(check bool) "solved several" true (!solved >= 5)

let test_inputsplit_cex_valid () =
  let problem = random_problem ~seed:12 ~eps:10.0 () in
  let r = Inputsplit.verify ~budget:(Budget.of_calls 2000) problem in
  match r.Result.verdict with
  | Verdict.Falsified x ->
    Alcotest.(check bool) "genuine" true (Abonn_spec.Problem.is_counterexample problem x)
  | Verdict.Verified | Verdict.Timeout -> Alcotest.fail "expected falsification"

let test_inputsplit_strategies_agree () =
  let problem = random_problem ~seed:33 ~dims:[ 2; 6; 2 ] ~eps:0.3 () in
  let w = Inputsplit.verify ~strategy:Inputsplit.Widest ~budget:(Budget.of_calls 3000) problem in
  let g =
    Inputsplit.verify ~strategy:Inputsplit.Gradient_weighted ~budget:(Budget.of_calls 3000)
      problem
  in
  match w.Result.verdict, g.Result.verdict with
  | Verdict.Timeout, _ | _, Verdict.Timeout -> ()
  | v1, v2 ->
    Alcotest.(check bool) "strategies agree" true
      (Verdict.is_verified v1 = Verdict.is_verified v2)

let test_inputsplit_verifies_easy () =
  let problem = random_problem ~seed:11 ~eps:1e-6 () in
  let r = Inputsplit.verify problem in
  Alcotest.(check bool) "verified" true (Verdict.is_verified r.Result.verdict);
  Alcotest.(check int) "single call" 1 r.Result.stats.Result.appver_calls

let extra_suite =
  [ ( "bab.certificate",
      [ Alcotest.test_case "produced and checks" `Quick test_certificate_produced_and_checks;
        Alcotest.test_case "detects coverage gap" `Quick test_certificate_detects_coverage_gap;
        Alcotest.test_case "detects bogus leaf" `Quick test_certificate_detects_bogus_leaf
      ] );
    ( "bab.inputsplit",
      [ Alcotest.test_case "agrees with relu split" `Quick test_inputsplit_agrees_with_relu_split;
        Alcotest.test_case "cex valid" `Quick test_inputsplit_cex_valid;
        Alcotest.test_case "strategies agree" `Quick test_inputsplit_strategies_agree;
        Alcotest.test_case "verifies easy" `Quick test_inputsplit_verifies_easy
      ] )
  ]

let suite = suite @ extra_suite

(* Regression: a margin that touches 0 at a single point (the origin of a
   zero-bias network) must never let input splitting claim Verified — the
   unsound point-pruning path returned Verified here before the fix. *)
let test_inputsplit_tie_point_not_verified () =
  let problem = random_problem ~seed:34 ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
  (* ground truth: ReLU-split BaB finds the tie as a counterexample *)
  let bfs = Bfs.verify ~budget:(Budget.of_calls 3000) problem in
  Alcotest.(check bool) "baseline falsifies the tie" true
    (Verdict.is_falsified bfs.Result.verdict);
  let r = Inputsplit.verify ~budget:(Budget.of_calls 3000) problem in
  Alcotest.(check bool) "input splitting must not claim Verified" true
    (not (Verdict.is_verified r.Result.verdict))

let test_certificate_detects_duplicate_leaf () =
  let problem = random_problem ~seed:24 ~eps:0.15 () in
  let _, cert = Bfs.verify_with_certificate ~budget:(Budget.of_calls 500) problem in
  match cert with
  | None -> Alcotest.fail "expected verified problem; re-seed"
  | Some cert ->
    (match cert.Certificate.leaves with
     | first :: _ ->
       let broken = { cert with Certificate.leaves = first :: cert.Certificate.leaves } in
       (match Certificate.check problem broken with
        | Error (Certificate.Duplicate_or_overlap _) -> ()
        | Ok () -> Alcotest.fail "duplicate leaf accepted"
        | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Certificate.pp_error e))
     | [] -> Alcotest.fail "empty certificate")

let regression_suite =
  ( "bab.regressions",
    [ Alcotest.test_case "tie point not verified" `Quick test_inputsplit_tie_point_not_verified;
      Alcotest.test_case "duplicate leaf detected" `Quick test_certificate_detects_duplicate_leaf
    ] )

let suite = suite @ [ regression_suite ]

(* --- exhaustive enumeration & input-split refinement --- *)

module Outcome = Abonn_prop.Outcome

(* Enumerate every ReLU phase cell with Exact.resolve.  On small nets
   this is ground truth: it must agree with dense sampling and with the
   BFS verdict (up to margin ties, which either side may call). *)
let enumerate_exact problem =
  let k = Problem.num_relus problem in
  let cex = ref None in
  (try
     for mask = 0 to (1 lsl k) - 1 do
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

let test_exact_enumeration_matches_sampling () =
  let checked = ref 0 in
  for seed = 0 to 11 do
    let eps = 0.1 +. (0.12 *. float_of_int (seed mod 4)) in
    let problem = random_problem ~seed ~dims:[ 2; 4; 2 ] ~eps () in
    if Problem.num_relus problem <= 6 then begin
      incr checked;
      let truth = enumerate_exact problem in
      (* the enumeration's own witness must be genuine *)
      (match truth with
       | Some x ->
         Alcotest.(check bool)
           (Printf.sprintf "seed %d: enumeration witness validates" seed)
           true (Problem.is_counterexample problem x)
       | None -> ());
      (* dense sampling cannot beat ground truth *)
      let rng = Rng.create (300 + seed) in
      for _ = 1 to 400 do
        let x = Region.sample rng problem.Problem.region in
        let m = Problem.concrete_margin problem x in
        if m < -1e-6 && truth = None then
          Alcotest.failf "seed %d: enumeration verified but sample has margin %.9g" seed m
      done;
      (* and the BFS verdict must agree up to ties *)
      let r = Bfs.verify ~budget:(Budget.of_calls 2000) problem in
      (match r.Result.verdict, truth with
       | Verdict.Timeout, _ -> ()
       | Verdict.Verified, Some x ->
         let m = Problem.concrete_margin problem x in
         if m < -1e-6 then
           Alcotest.failf "seed %d: bfs Verified, enumeration margin %.9g" seed m
       | Verdict.Falsified x, None ->
         let m = Problem.concrete_margin problem x in
         if m < -1e-6 then
           Alcotest.failf "seed %d: bfs Falsified (margin %.9g), enumeration Verified"
             seed m
       | Verdict.Verified, None | Verdict.Falsified _, Some _ -> ())
    end
  done;
  Alcotest.(check bool) "enumerated at least one instance" true (!checked > 0)

(* Bisecting the input region can only tighten the certified bound:
   the min over the two halves is at least the parent's bound. *)
let test_inputsplit_refines_bounds_monotonically () =
  for seed = 0 to 9 do
    let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.4 () in
    let phat p =
      let o = Abonn_prop.Deeppoly.run p [] in
      if o.Outcome.infeasible then Float.infinity else o.Outcome.phat
    in
    let parent = phat problem in
    let region = problem.Problem.region in
    let with_box ~lower ~upper =
      Problem.create ~network:problem.Problem.network
        ~region:(Region.create ~lower ~upper) ~property:problem.Problem.property ()
    in
    let dims = Array.length region.Region.lower in
    for d = 0 to dims - 1 do
      let mid = 0.5 *. (region.Region.lower.(d) +. region.Region.upper.(d)) in
      let half bound_side =
        let lower = Array.copy region.Region.lower in
        let upper = Array.copy region.Region.upper in
        (match bound_side with
         | `Lo -> upper.(d) <- mid
         | `Hi -> lower.(d) <- mid);
        with_box ~lower ~upper
      in
      let refined = Float.min (phat (half `Lo)) (phat (half `Hi)) in
      if refined < parent -. 1e-9 then
        Alcotest.failf "seed %d dim %d: bisection loosened bound %.12g -> %.12g" seed d
          parent refined
    done;
    (* a second bisection level on dimension 0 refines again *)
    let mid = 0.5 *. (region.Region.lower.(0) +. region.Region.upper.(0)) in
    let lo_upper = Array.copy region.Region.upper in
    lo_upper.(0) <- mid;
    let parent1 = phat (with_box ~lower:(Array.copy region.Region.lower) ~upper:lo_upper) in
    let quarter_upper = Array.copy lo_upper in
    quarter_upper.(0) <- 0.5 *. (region.Region.lower.(0) +. mid);
    let quarter = with_box ~lower:(Array.copy region.Region.lower) ~upper:quarter_upper in
    if phat quarter < parent1 -. 1e-9 then
      Alcotest.failf "seed %d: second-level bisection loosened bound" seed
  done

let enumeration_suite =
  ( "bab.exhaustive",
    [ Alcotest.test_case "exact enumeration vs sampling and bfs" `Quick
        test_exact_enumeration_matches_sampling;
      Alcotest.test_case "input bisection refines bounds monotonically" `Quick
        test_inputsplit_refines_bounds_monotonically
    ] )

let suite = suite @ [ enumeration_suite ]

(* --- easy/hard triage (DESIGN.md §13) --- *)

module Appver = Abonn_prop.Appver
module Lp_verifier = Abonn_lp.Lp_verifier
module Metrics = Abonn_obs.Metrics

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with
  | Some n -> n
  | None -> 0

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
    f

let leaf_gamma k mask =
  let gamma = ref [] in
  for relu = k - 1 downto 0 do
    let phase = if mask land (1 lsl relu) <> 0 then Split.Active else Split.Inactive in
    gamma := { Split.relu; phase } :: !gamma
  done;
  !gamma

(* Exhaustive over every phase cell of small nets: the triaged verifier
   never loses the cheap certificate, a cell it skips is never decided
   differently by one LP call alone (skip-with-proof implies the LP
   proves too; dominance makes this exact), an escalated cell keeps the
   LP bound, and no cell with an exactly-falsified interior point is
   ever claimed proved. *)
let test_triage_exhaustive_cells () =
  List.iter
    (fun seed ->
      let problem = random_problem ~seed ~dims:[ 2; 4; 2 ] ~eps:0.3 () in
      let k = Problem.num_relus problem in
      with_metrics (fun () ->
          let tri =
            Appver.triaged ~cheap:Appver.deeppoly ~expensive:Lp_verifier.appver ()
          in
          for mask = 0 to (1 lsl k) - 1 do
            let gamma = leaf_gamma k mask in
            let esc0 = counter "appver.triage.escalated" in
            let t_o = tri.Appver.run problem gamma in
            let escalated = counter "appver.triage.escalated" > esc0 in
            let cheap_o = Appver.deeppoly.Appver.run problem gamma in
            if t_o.Outcome.phat < cheap_o.Outcome.phat -. 1e-12 then
              Alcotest.failf "seed %d mask %d: triage lost the cheap bound (%.12g < %.12g)"
                seed mask t_o.Outcome.phat cheap_o.Outcome.phat;
            if escalated then begin
              let lp_o = Lp_verifier.run problem gamma in
              if (not lp_o.Outcome.infeasible) && (not t_o.Outcome.infeasible)
                 && t_o.Outcome.phat < lp_o.Outcome.phat -. 1e-9
              then
                Alcotest.failf "seed %d mask %d: escalated cell lost the LP bound" seed mask
            end
            else begin
              (* skipped: the cheap outcome is passed through unchanged *)
              if not (Float.equal t_o.Outcome.phat cheap_o.Outcome.phat) then
                Alcotest.failf "seed %d mask %d: skipped cell drifted from cheap phat"
                  seed mask;
              if Outcome.proved cheap_o && not cheap_o.Outcome.infeasible then begin
                let lp_o = Lp_verifier.run problem gamma in
                if not (Outcome.proved lp_o) then
                  Alcotest.failf
                    "seed %d mask %d: triage skipped a proved cell the LP refuses to prove"
                    seed mask
              end
            end;
            (match Exact.resolve problem gamma with
             | `Falsified x when Problem.concrete_margin problem x < -1e-6 ->
               if Outcome.proved t_o then
                 Alcotest.failf
                   "seed %d mask %d: triage proved a cell with an exact interior cex"
                   seed mask
             | `Falsified _ | `Verified -> ())
          done))
    [ 41; 42; 43 ]

(* An unreachable depth gate means the triaged verifier is bitwise the
   cheap one and never escalates. *)
let test_triage_depth_gate_disables_escalation () =
  let problem = random_problem ~seed:44 ~dims:[ 2; 4; 2 ] ~eps:0.3 () in
  let k = Problem.num_relus problem in
  with_metrics (fun () ->
      let crit = { Appver.default_triage with Appver.depth_threshold = 1000 } in
      let tri =
        Appver.triaged ~crit ~cheap:Appver.deeppoly ~expensive:Lp_verifier.appver ()
      in
      for mask = 0 to (1 lsl k) - 1 do
        let gamma = leaf_gamma k mask in
        let t_o = tri.Appver.run problem gamma in
        let cheap_o = Appver.deeppoly.Appver.run problem gamma in
        Alcotest.(check bool) "phat bitwise" true
          (Float.equal t_o.Outcome.phat cheap_o.Outcome.phat);
        Alcotest.(check bool) "rows bitwise" true
          (Array.length t_o.Outcome.row_lower = Array.length cheap_o.Outcome.row_lower
          && Array.for_all2 Float.equal t_o.Outcome.row_lower cheap_o.Outcome.row_lower)
      done;
      Alcotest.(check int) "no escalations" 0 (counter "appver.triage.escalated");
      Alcotest.(check int) "all skipped" (1 lsl k) (counter "appver.triage.skipped"))

(* With every gate wide open the combinator escalates exactly the
   undecided cells. *)
let test_triage_open_gates_escalate_all_undecided () =
  let problem = random_problem ~seed:45 ~dims:[ 2; 4; 2 ] ~eps:0.3 () in
  let k = Problem.num_relus problem in
  with_metrics (fun () ->
      let crit =
        { Appver.lb_threshold = infinity; depth_threshold = 0;
          impr_threshold = neg_infinity; window = 1 }
      in
      let tri =
        Appver.triaged ~crit ~cheap:Appver.deeppoly ~expensive:Lp_verifier.appver ()
      in
      let undecided = ref 0 in
      for mask = 0 to (1 lsl k) - 1 do
        let gamma = leaf_gamma k mask in
        let cheap_o = Appver.deeppoly.Appver.run problem gamma in
        if (not (Outcome.proved cheap_o)) && not cheap_o.Outcome.infeasible then
          incr undecided;
        ignore (tri.Appver.run problem gamma)
      done;
      Alcotest.(check int) "escalations = undecided cells" !undecided
        (counter "appver.triage.escalated"))

(* BaB on the triaged AppVer reaches the same verdict as BaB on plain
   DeepPoly, with validating witnesses, sequentially and on 4 domains. *)
let test_triage_engine_verdict_agreement () =
  let check_witness problem = function
    | Verdict.Falsified x ->
      Alcotest.(check bool) "witness validates" true (Problem.is_counterexample problem x)
    | Verdict.Verified | Verdict.Timeout -> ()
  in
  List.iter
    (fun seed ->
      let problem = random_problem ~seed ~dims:[ 2; 5; 2 ] ~eps:0.3 () in
      let tri =
        Appver.triaged ~cheap:Appver.deeppoly ~expensive:Lp_verifier.appver ()
      in
      let budget () = Budget.of_calls 800 in
      let vt = (Bfs.verify ~appver:tri ~budget:(budget ()) problem).Result.verdict in
      let vd = (Bfs.verify ~budget:(budget ()) problem).Result.verdict in
      let vp =
        (Bfs.verify ~appver:tri ~domains:4 ~budget:(budget ()) problem).Result.verdict
      in
      (* ties (witness margin within 1e-6 of zero) may land on either
         side; only a strictly interior witness conflicts with Verified *)
      let interior = function
        | Verdict.Falsified x -> Problem.concrete_margin problem x < -1e-6
        | Verdict.Verified | Verdict.Timeout -> false
      in
      (match (vt, vd) with
       | Verdict.Verified, f when interior f ->
         Alcotest.failf "seed %d: deeppoly BaB falsifies interior, triaged verifies" seed
       | f, Verdict.Verified when interior f ->
         Alcotest.failf "seed %d: triaged BaB falsifies interior, deeppoly verifies" seed
       | _ -> ());
      (match (vt, vp) with
       | Verdict.Verified, f when interior f ->
         Alcotest.failf "seed %d: triaged BaB domains:4 falsifies interior, seq verifies" seed
       | f, Verdict.Verified when interior f ->
         Alcotest.failf "seed %d: triaged BaB seq falsifies interior, domains:4 verifies" seed
       | _ -> ());
      List.iter (check_witness problem) [ vt; vd; vp ])
    [ 46; 47; 48 ]

let triage_suite =
  ( "bab.triage",
    [ Alcotest.test_case "exhaustive cells: skip never flips a decision" `Slow
        test_triage_exhaustive_cells;
      Alcotest.test_case "depth gate disables escalation bitwise" `Quick
        test_triage_depth_gate_disables_escalation;
      Alcotest.test_case "open gates escalate every undecided cell" `Quick
        test_triage_open_gates_escalate_all_undecided;
      Alcotest.test_case "triaged engine verdicts agree" `Slow
        test_triage_engine_verdict_agreement
    ] )

let suite = suite @ [ triage_suite ]

(* --- exact leaves (DESIGN.md §6) --- *)

module Boxlp = Abonn_lp.Boxlp
module Abonn = Abonn_core.Abonn

(* Random 4-4-4 MLP on which breadth-first BaB reaches fully-stabilised
   leaves whose warm node bounds are all stable but whose cold DeepPoly
   bounds are not. *)
let warm_stable_problem () = random_problem ~seed:1 ~dims:[ 3; 4; 4; 4; 2 ] ~eps:0.4 ()

let any_unstable bounds = Array.exists (fun b -> Bounds.num_unstable b > 0) bounds

(* An engine hands the leaf its own certified bounds, so a leaf that the
   engine found fully stable is solved exactly: no triangle-relaxation
   LP runs, although cold bounds would have sent some leaves there. *)
let test_warm_stable_leaf_skips_triangle_lp () =
  let problem = warm_stable_problem () in
  let result, cert =
    with_metrics (fun () ->
        let r = Bfs.verify_with_certificate ~budget:(Budget.of_calls 3000) ~domains:1 problem in
        Alcotest.(check bool) "exact leaves reached" true (counter "bfs.exact" > 0);
        Alcotest.(check int) "no triangle-LP call" 0 (counter "appver.lp.calls");
        r)
  in
  Alcotest.(check bool) "verified" true (Verdict.is_verified result.Result.verdict);
  let cert = Option.get cert in
  let cold_unstable =
    List.filter
      (fun (leaf : Certificate.leaf) ->
        leaf.Certificate.by_exact
        && (match Deeppoly.hidden_bounds problem leaf.Certificate.gamma with
            | Some b -> any_unstable b
            | None -> false))
      cert.Certificate.leaves
  in
  Alcotest.(check bool) "some exact leaf is unstable under cold bounds" true
    (cold_unstable <> []);
  Alcotest.(check bool) "certificate checks on the cold path" true
    (Certificate.check problem cert = Ok ())

let test_every_engine_passes_node_bounds () =
  let problem = warm_stable_problem () in
  List.iter
    (fun (name, run) ->
      with_metrics (fun () ->
          let r : Result.t = run () in
          Alcotest.(check bool) (name ^ " verified") true (Verdict.is_verified r.Result.verdict);
          Alcotest.(check int) (name ^ ": no triangle-LP call") 0 (counter "appver.lp.calls")))
    [ ("parfrontier", fun () -> Bfs.verify ~budget:(Budget.of_calls 3000) ~domains:2 problem);
      ("bestfirst", fun () -> Bestfirst.verify ~budget:(Budget.of_calls 3000) ~domains:1 problem);
      ("abonn", fun () -> Abonn.verify ~budget:(Budget.of_calls 3000) ~domains:1 problem) ]

(* With cold bounds these leaves fell back to the triangle LP, whose
   negative bound came with a minimiser that does not violate, and the
   engine raised [Exact.Unresolvable].  The node's bounds decide them. *)
let test_cold_unresolvable_leaves_decided () =
  List.iter
    (fun (seed, dims, eps) ->
      let problem = random_problem ~seed ~dims ~eps () in
      match (Bfs.verify ~budget:(Budget.of_calls 3000) ~domains:1 problem).Result.verdict with
      | Verdict.Falsified x ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: counterexample valid" seed)
          true (Problem.is_counterexample problem x)
      | v -> Alcotest.failf "seed %d: expected falsified, got %s" seed (Verdict.to_string v))
    [ (10, [ 3; 4; 4; 4; 2 ], 0.4); (11, [ 2; 3; 3; 3; 2 ], 0.5) ]

(* Bounds of the wrong length are ignored, and the cold bounds passed
   explicitly give the cold answer. *)
let test_resolve_bound_fallbacks () =
  let problem = random_problem ~seed:4 ~dims:[ 2; 3; 2 ] ~eps:0.3 () in
  let k = Problem.num_relus problem in
  for mask = 0 to (1 lsl k) - 1 do
    let gamma = leaf_gamma k mask in
    let cold = Exact.resolve problem gamma in
    Alcotest.(check bool) "wrong-length bounds recomputed" true
      (Exact.resolve ~pre_bounds:[||] problem gamma = cold);
    match Deeppoly.hidden_bounds problem gamma with
    | Some b ->
      Alcotest.(check bool) "explicit cold bounds" true
        (Exact.resolve ~pre_bounds:b problem gamma = cold)
    | None -> ()
  done

(* One phase 1 per polytope, then phase 2 per objective from the stored
   basis: every solve must equal a cold [Boxlp.solve] bit for bit, on
   feasible, degenerate and infeasible polytopes alike. *)
let test_polytope_solves_equal_cold () =
  let rng = Rng.create 77 in
  let bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let statuses = Hashtbl.create 4 in
  for case = 0 to 59 do
    let n = 2 + Rng.int rng 5 and m = 1 + Rng.int rng 6 in
    let lo = Array.init n (fun _ -> Rng.range rng (-1.0) 0.0) in
    let hi = Array.map (fun l -> l +. Rng.range rng 0.1 2.0) lo in
    let point = Array.init n (fun j -> Rng.range rng lo.(j) hi.(j)) in
    let rows =
      List.init m (fun i ->
          let coefs =
            List.filter_map
              (fun j -> if Rng.float rng 1.0 < 0.6 then Some (j, Rng.range rng (-2.0) 2.0) else None)
              (List.init n Fun.id)
          in
          let at = List.fold_left (fun a (j, v) -> a +. (v *. point.(j))) 0.0 coefs in
          (* every third case puts a row on the wrong side of the point,
             which can make the polytope empty *)
          let shift = if case mod 3 = 0 && i = 0 then 5.0 else 0.0 in
          if Rng.float rng 1.0 < 0.5 then { Boxlp.coefs; sense = Boxlp.Le; rhs = at -. shift }
          else { Boxlp.coefs; sense = Boxlp.Ge; rhs = at +. shift })
    in
    let poly = Boxlp.polytope ~lo ~hi ~rows () in
    for _ = 1 to 5 do
      let c =
        Array.init n (fun _ ->
            match Rng.int rng 4 with 0 -> 0.0 | 1 -> 1.0 | _ -> Rng.range rng (-1.0) 1.0)
      in
      let cold = Boxlp.solve ~c ~lo ~hi ~rows () in
      let warm = Boxlp.solve_over poly ~c in
      Hashtbl.replace statuses cold.Boxlp.status ();
      Alcotest.(check bool) (Printf.sprintf "case %d: status" case) true
        (cold.Boxlp.status = warm.Boxlp.status);
      Alcotest.(check bool) (Printf.sprintf "case %d: objective bits" case) true
        (bits cold.Boxlp.objective warm.Boxlp.objective);
      Alcotest.(check bool) (Printf.sprintf "case %d: minimiser bits" case) true
        (Array.for_all2 bits cold.Boxlp.x warm.Boxlp.x);
      Alcotest.(check int) (Printf.sprintf "case %d: iterations" case) cold.Boxlp.iterations
        warm.Boxlp.iterations
    done
  done;
  Alcotest.(check bool) "feasible and infeasible polytopes both seen" true
    (Hashtbl.mem statuses Boxlp.Optimal && Hashtbl.mem statuses Boxlp.Infeasible)

let exact_leaf_suite =
  ( "bab.exact_leaf",
    [ Alcotest.test_case "warm-stable leaf makes no triangle-LP call" `Quick
        test_warm_stable_leaf_skips_triangle_lp;
      Alcotest.test_case "every engine passes its node bounds" `Quick
        test_every_engine_passes_node_bounds;
      Alcotest.test_case "cold-unresolvable leaves decided" `Quick
        test_cold_unresolvable_leaves_decided;
      Alcotest.test_case "bound fallbacks" `Quick test_resolve_bound_fallbacks;
      Alcotest.test_case "leaf polytope solves equal cold solves" `Quick
        test_polytope_solves_equal_cold
    ] )

let suite = suite @ [ exact_leaf_suite ]
