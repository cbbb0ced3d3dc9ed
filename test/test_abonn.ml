(* Tests for Abonn_core: Def. 1 potentiality values, configuration
   validation, and Alg. 1 end-to-end — verdict agreement with the naive
   BaB baseline, counterexample validity, budget/timeout behaviour,
   per-node observability events, hyperparameter and selection-policy
   variants. *)

module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Result = Abonn_bab.Result
module Bfs = Abonn_bab.Bfs
module Potentiality = Abonn_core.Potentiality
module Config = Abonn_core.Config
module Abonn = Abonn_core.Abonn

let check_float = Alcotest.(check (float 1e-9))

(* Run [f] with [on_node ~depth ~gamma ~reward] called on every
   [node_evaluated] event, i.e. once per node expansion, in order. *)
let with_node_callback on_node f =
  Abonn_obs.Obs.with_sink
    (Abonn_obs.Sink.callback (fun env ->
         match env.Abonn_obs.Event.event with
         | Abonn_obs.Event.Node_evaluated { depth; gamma; reward; _ } ->
           on_node ~depth ~gamma ~reward
         | _ -> ()))
    f

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

(* --- Potentiality (Def. 1) --- *)

let test_potentiality_proved_is_neg_inf () =
  check_float "proved" neg_infinity
    (Potentiality.value ~lambda:0.5 ~num_relus:10 ~phat_min:(-2.0) ~depth:3 ~phat:0.5
       ~valid_cex:false)

let test_potentiality_valid_cex_is_pos_inf () =
  check_float "cex" infinity
    (Potentiality.value ~lambda:0.5 ~num_relus:10 ~phat_min:(-2.0) ~depth:3 ~phat:(-0.5)
       ~valid_cex:true)

let test_potentiality_interpolation () =
  (* λ·d/K + (1−λ)·p̂/p̂_min = 0.5·(2/10) + 0.5·(−1/−2) = 0.35 *)
  check_float "formula" 0.35
    (Potentiality.value ~lambda:0.5 ~num_relus:10 ~phat_min:(-2.0) ~depth:2 ~phat:(-1.0)
       ~valid_cex:false)

let test_potentiality_lambda_extremes () =
  (* λ=1: only depth matters; λ=0: only p̂. *)
  check_float "depth only" 0.2
    (Potentiality.value ~lambda:1.0 ~num_relus:10 ~phat_min:(-2.0) ~depth:2 ~phat:(-1.0)
       ~valid_cex:false);
  check_float "phat only" 0.5
    (Potentiality.value ~lambda:0.0 ~num_relus:10 ~phat_min:(-2.0) ~depth:2 ~phat:(-1.0)
       ~valid_cex:false)

let test_potentiality_monotone_in_depth () =
  let v d =
    Potentiality.value ~lambda:0.5 ~num_relus:10 ~phat_min:(-2.0) ~depth:d ~phat:(-1.0)
      ~valid_cex:false
  in
  Alcotest.(check bool) "deeper scores higher" true (v 5 > v 1)

let test_potentiality_monotone_in_phat () =
  let v p =
    Potentiality.value ~lambda:0.5 ~num_relus:10 ~phat_min:(-2.0) ~depth:2 ~phat:p
      ~valid_cex:false
  in
  Alcotest.(check bool) "more negative phat scores higher" true (v (-1.5) > v (-0.2))

let test_potentiality_rejects_bad_args () =
  Alcotest.(check bool) "bad lambda" true
    (try
       ignore
         (Potentiality.value ~lambda:1.5 ~num_relus:10 ~phat_min:(-1.0) ~depth:0 ~phat:(-1.0)
            ~valid_cex:false);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad K" true
    (try
       ignore
         (Potentiality.value ~lambda:0.5 ~num_relus:0 ~phat_min:(-1.0) ~depth:0 ~phat:(-1.0)
            ~valid_cex:false);
       false
     with Invalid_argument _ -> true)

(* --- Config --- *)

let test_config_defaults () =
  check_float "lambda" 0.5 Config.default.Config.lambda;
  check_float "c" 0.2 Config.default.Config.c

let test_config_validation () =
  Alcotest.(check bool) "bad lambda" true
    (try ignore (Config.make ~lambda:(-0.1) ()); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad c" true
    (try ignore (Config.make ~c:(-1.0) ()); false with Invalid_argument _ -> true);
  let cfg = Config.make ~lambda:0.25 ~c:1.0 () in
  check_float "override lambda" 0.25 cfg.Config.lambda

(* --- Alg. 1 end-to-end --- *)

let test_abonn_verifies_easy () =
  let problem = random_problem ~seed:11 ~eps:1e-6 () in
  let r = Abonn.verify problem in
  Alcotest.(check bool) "verified" true (Verdict.is_verified r.Result.verdict);
  Alcotest.(check int) "single call" 1 r.Result.stats.Result.appver_calls

let test_abonn_falsifies_large_eps () =
  let problem = random_problem ~seed:12 ~eps:10.0 () in
  let r = Abonn.verify ~budget:(Budget.of_calls 2000) problem in
  match r.Result.verdict with
  | Verdict.Falsified x ->
    Alcotest.(check bool) "cex is genuine" true (Problem.is_counterexample problem x)
  | Verdict.Verified | Verdict.Timeout -> Alcotest.fail "expected falsification"

let test_abonn_agrees_with_baseline () =
  (* The paper's core completeness claim: ABONN differs from naive BaB
     only in visiting order, so verdicts must coincide whenever both
     finish. *)
  let falsified = ref 0 and verified = ref 0 in
  for seed = 50 to 69 do
    let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
    let baseline = Bfs.verify ~budget:(Budget.of_calls 4000) problem in
    let abonn = Abonn.verify ~budget:(Budget.of_calls 4000) problem in
    match baseline.Result.verdict, abonn.Result.verdict with
    | Verdict.Timeout, _ | _, Verdict.Timeout -> ()
    | v1, v2 ->
      (match v2 with
       | Verdict.Verified -> incr verified
       | Verdict.Falsified _ -> incr falsified
       | Verdict.Timeout -> ());
      Alcotest.(check bool)
        (Printf.sprintf "verdict agreement (seed %d)" seed)
        true
        (Verdict.is_verified v1 = Verdict.is_verified v2)
  done;
  Alcotest.(check bool) "both classes exercised" true (!falsified > 0 && !verified > 0)

let test_abonn_cex_always_valid () =
  for seed = 70 to 84 do
    let problem = random_problem ~seed ~eps:0.5 () in
    let r = Abonn.verify ~budget:(Budget.of_calls 2000) problem in
    match r.Result.verdict with
    | Verdict.Falsified x ->
      Alcotest.(check bool)
        (Printf.sprintf "valid cex (seed %d)" seed)
        true
        (Problem.is_counterexample problem x)
    | Verdict.Verified | Verdict.Timeout -> ()
  done

let test_abonn_times_out () =
  let problem = random_problem ~seed:13 ~dims:[ 3; 8; 8; 2 ] ~eps:0.35 () in
  let r = Abonn.verify ~budget:(Budget.of_calls 1) problem in
  Alcotest.(check bool) "timeout or root-solved" true
    (Verdict.is_timeout r.Result.verdict || r.Result.stats.Result.appver_calls <= 1)

let test_abonn_trace_observes_expansions () =
  let problem = random_problem ~seed:14 ~eps:0.35 () in
  let count = ref 0 and max_d = ref 0 in
  let on_node ~depth ~gamma:_ ~reward:_ =
    incr count;
    max_d := Stdlib.max !max_d depth
  in
  let r =
    with_node_callback on_node (fun () ->
        Abonn.verify ~budget:(Budget.of_calls 300) problem)
  in
  Alcotest.(check int) "trace sees every node" r.Result.stats.Result.nodes !count;
  Alcotest.(check int) "max depth agrees" r.Result.stats.Result.max_depth !max_d

let test_abonn_obs_events_match_trace_callback () =
  (* A [Sink.callback] on [node_evaluated] and a memory sink over the
     whole stream see exactly the same expansions, in order, and
     selection / backprop / verdict events accompany them. *)
  let module Ev = Abonn_obs.Event in
  let module Obs = Abonn_obs.Obs in
  let module Sink = Abonn_obs.Sink in
  let problem = random_problem ~seed:14 ~eps:0.35 () in
  let callback = ref [] in
  let on_node ~depth ~gamma ~reward =
    callback := (depth, gamma, reward) :: !callback
  in
  let sink, events = Sink.memory () in
  let r =
    Obs.with_sink sink (fun () ->
        with_node_callback on_node (fun () ->
            Abonn.verify ~budget:(Budget.of_calls 300) problem))
  in
  let events = events () in
  let evaluated =
    List.filter_map
      (fun env ->
        match env.Ev.event with
        | Ev.Node_evaluated { depth; gamma; reward; _ } -> Some (depth, gamma, reward)
        | _ -> None)
      events
  in
  let callback = List.rev !callback in
  (* rewards can be ±inf (proved / valid cex), so compare with [=]. *)
  let same (d1, g1, r1) (d2, g2, r2) =
    d1 = d2 && String.equal g1 g2
    && (r1 = r2 || (Float.is_nan r1 && Float.is_nan r2))
  in
  Alcotest.(check bool) "node_evaluated events = callback order" true
    (List.length callback = List.length evaluated
     && List.for_all2 same callback evaluated);
  Alcotest.(check int) "one evaluation per node" r.Result.stats.Result.nodes
    (List.length evaluated);
  let count name =
    List.length (List.filter (fun env -> Ev.name env.Ev.event = name) events)
  in
  Alcotest.(check bool) "selections present" true (count "node_selected" > 0);
  Alcotest.(check bool) "backprops present" true (count "backprop" > 0);
  Alcotest.(check int) "one verdict event" 1 (count "verdict_reached")

let test_abonn_hyperparameter_grid_all_sound () =
  (* Every (λ, c) pair must keep verdicts consistent with the baseline:
     hyperparameters tune speed, never correctness. *)
  let problem = random_problem ~seed:55 ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
  let baseline = Bfs.verify ~budget:(Budget.of_calls 4000) problem in
  match baseline.Result.verdict with
  | Verdict.Timeout -> Alcotest.fail "baseline timed out; re-seed"
  | ref_v ->
    List.iter
      (fun lambda ->
        List.iter
          (fun c ->
            let config = Config.make ~lambda ~c () in
            let r = Abonn.verify ~config ~budget:(Budget.of_calls 4000) problem in
            match r.Result.verdict with
            | Verdict.Timeout -> ()
            | v ->
              Alcotest.(check bool)
                (Printf.sprintf "λ=%.2f c=%.2f verdict" lambda c)
                true
                (Verdict.is_verified v = Verdict.is_verified ref_v))
          [ 0.0; 0.2; 1.0 ])
      [ 0.0; 0.5; 1.0 ]

let test_abonn_random_selection_still_complete () =
  let problem = random_problem ~seed:56 ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
  let baseline = Bfs.verify ~budget:(Budget.of_calls 4000) problem in
  let config = Config.make ~selection:(Config.Uniform_random 1) () in
  let r = Abonn.verify ~config ~budget:(Budget.of_calls 4000) problem in
  match baseline.Result.verdict, r.Result.verdict with
  | Verdict.Timeout, _ | _, Verdict.Timeout -> ()
  | v1, v2 ->
    Alcotest.(check bool) "random selection same verdict" true
      (Verdict.is_verified v1 = Verdict.is_verified v2)

let test_abonn_faster_on_violated_ensemble () =
  (* The paper's headline: on violated problems ABONN's guided order finds
     counterexamples with fewer sub-problem visits than breadth-first
     BaB.  Individual instances can go either way; the ensemble total
     must favour ABONN.  60 instances keep the statistic robust to the
     small trajectory shifts bound caching introduces (monotone
     tightening can reorder which child a heuristic pops first). *)
  let total_abonn = ref 0 and total_bfs = ref 0 and falsified = ref 0 in
  for seed = 100 to 159 do
    let problem = random_problem ~seed ~dims:[ 3; 8; 8; 2 ] ~eps:0.6 () in
    (* pinned sequential: the guided-vs-FIFO visit-order statistic is a
       property of the sequential engines (ABONN_DOMAINS must not flip it) *)
    let bfs = Bfs.verify ~budget:(Budget.of_calls 3000) ~domains:1 problem in
    let abonn = Abonn.verify ~budget:(Budget.of_calls 3000) ~domains:1 problem in
    match bfs.Result.verdict, abonn.Result.verdict with
    | Verdict.Falsified _, Verdict.Falsified _ ->
      incr falsified;
      total_bfs := !total_bfs + bfs.Result.stats.Result.appver_calls;
      total_abonn := !total_abonn + abonn.Result.stats.Result.appver_calls
    | _, _ -> ()
  done;
  Alcotest.(check bool) "enough falsified instances" true (!falsified >= 12);
  Alcotest.(check bool)
    (Printf.sprintf "ABONN total calls (%d) <= BFS total calls (%d)" !total_abonn !total_bfs)
    true
    (!total_abonn <= !total_bfs)

let suite =
  [ ( "abonn.potentiality",
      [ Alcotest.test_case "proved -inf" `Quick test_potentiality_proved_is_neg_inf;
        Alcotest.test_case "cex +inf" `Quick test_potentiality_valid_cex_is_pos_inf;
        Alcotest.test_case "interpolation" `Quick test_potentiality_interpolation;
        Alcotest.test_case "lambda extremes" `Quick test_potentiality_lambda_extremes;
        Alcotest.test_case "monotone in depth" `Quick test_potentiality_monotone_in_depth;
        Alcotest.test_case "monotone in phat" `Quick test_potentiality_monotone_in_phat;
        Alcotest.test_case "rejects bad args" `Quick test_potentiality_rejects_bad_args
      ] );
    ( "abonn.config",
      [ Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "validation" `Quick test_config_validation
      ] );
    ( "abonn.algorithm",
      [ Alcotest.test_case "verifies easy" `Quick test_abonn_verifies_easy;
        Alcotest.test_case "falsifies large eps" `Quick test_abonn_falsifies_large_eps;
        Alcotest.test_case "agrees with baseline" `Quick test_abonn_agrees_with_baseline;
        Alcotest.test_case "cex always valid" `Quick test_abonn_cex_always_valid;
        Alcotest.test_case "times out" `Quick test_abonn_times_out;
        Alcotest.test_case "trace observes expansions" `Quick test_abonn_trace_observes_expansions;
        Alcotest.test_case "obs events match trace callback" `Quick
          test_abonn_obs_events_match_trace_callback;
        Alcotest.test_case "hyperparameter grid sound" `Quick test_abonn_hyperparameter_grid_all_sound;
        Alcotest.test_case "random selection complete" `Quick test_abonn_random_selection_still_complete;
        Alcotest.test_case "faster on violated ensemble" `Slow test_abonn_faster_on_violated_ensemble
      ] )
  ]

(* --- Scripted-AppVer tests: pin down Alg. 1's mechanics exactly ---

   A mock AppVer returns predetermined p̂ per node Γ and a mock heuristic
   always splits the lowest unconstrained ReLU, so the MCTS selection /
   expansion / back-propagation order becomes fully observable through
   the trace. *)

module Split = Abonn_spec.Split
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver
module Branching = Abonn_bab.Branching

(* 1-input network with 2 ReLUs; property margin is -100 everywhere, so
   any in-region point is a valid counterexample when scripted as one. *)
let mock_problem () =
  let rng = Rng.create 5 in
  let net = Builder.mlp rng ~dims:[ 1; 2; 1 ] in
  let region = Region.create ~lower:[| 0.0 |] ~upper:[| 1.0 |] in
  let property = Abonn_spec.Property.single [| 0.0 |] (-100.0) in
  Problem.create ~network:net ~region ~property ()

let lowest_relu_heuristic =
  { Branching.name = "mock-lowest";
    prepare =
      (fun problem ->
        let k = Problem.num_relus problem in
        fun ~gamma ~pre_bounds:_ ->
          let rec find i =
            if i >= k then None
            else if Split.constrained gamma ~relu:i = None then
              Some
                { Branching.relu = i; score = 0.0; runner_up = -1;
                  runner_up_score = Float.nan; candidates = 1 }
            else find (i + 1)
          in
          find 0) }

(* Script: Γ (as string) -> (p̂, has-valid-candidate).  Unscripted nodes
   default to proved. *)
let scripted_appver problem script =
  let centre = Region.center problem.Problem.region in
  { Appver.name = "scripted";
    run =
      (fun _problem gamma ->
        let key = Split.to_string gamma in
        match List.assoc_opt key script with
        | Some (phat, valid) ->
          Outcome.make ~phat ?candidate:(if valid then Some centre else None) ()
        | None -> Outcome.make ~phat:1.0 ());
    warm = None }

let run_scripted script ~lambda ~c =
  let problem = mock_problem () in
  let appver = scripted_appver problem script in
  let config =
    Abonn_core.Config.make ~lambda ~c ~appver ~heuristic:lowest_relu_heuristic ()
  in
  let order = ref [] in
  let on_node ~depth:_ ~gamma ~reward:_ = order := gamma :: !order in
  (* pinned sequential: scripted tests assert the exact expansion order *)
  let result =
    with_node_callback on_node (fun () ->
        Abonn_core.Abonn.verify ~config ~budget:(Budget.of_calls 50) ~domains:1
          problem)
  in
  (result, List.rev !order)

let test_mock_greedy_descends_into_best_child () =
  (* r0+ scores higher than r0- (more negative p̂); pure exploitation
     must expand under r0+ next and find the scripted counterexample. *)
  let script =
    [ ("ε", (-2.0, false));
      ("r0+", (-1.0, false));
      ("r0-", (-0.5, false));
      ("r0+.r1+", (-1.9, true));
      ("r0+.r1-", (-0.1, false))
    ]
  in
  let result, order = run_scripted script ~lambda:0.0 ~c:0.0 in
  Alcotest.(check bool) "falsified" true (Verdict.is_falsified result.Result.verdict);
  Alcotest.(check (list string)) "exploration order"
    [ "ε"; "r0+"; "r0-"; "r0+.r1+"; "r0+.r1-" ]
    order;
  Alcotest.(check int) "5 appver calls" 5 result.Result.stats.Result.appver_calls

let test_mock_greedy_descends_into_other_child_when_scripted () =
  (* Mirror script: now r0- is the promising side. *)
  let script =
    [ ("ε", (-2.0, false));
      ("r0+", (-0.5, false));
      ("r0-", (-1.0, false));
      ("r0-.r1+", (-1.9, true));
      ("r0-.r1-", (-0.1, false))
    ]
  in
  let result, order = run_scripted script ~lambda:0.0 ~c:0.0 in
  Alcotest.(check bool) "falsified" true (Verdict.is_falsified result.Result.verdict);
  Alcotest.(check (list string)) "exploration order"
    [ "ε"; "r0+"; "r0-"; "r0-.r1+"; "r0-.r1-" ]
    order

let test_mock_proved_subtree_never_reentered () =
  (* r0+ is proved at once (-∞ reward); everything happens under r0-. *)
  let script =
    [ ("ε", (-2.0, false));
      ("r0+", (1.0, false));
      ("r0-", (-1.0, false));
      ("r0-.r1+", (1.0, false));
      ("r0-.r1-", (1.0, false))
    ]
  in
  let result, order = run_scripted script ~lambda:0.5 ~c:0.2 in
  Alcotest.(check bool) "verified" true (Verdict.is_verified result.Result.verdict);
  Alcotest.(check (list string)) "no node under r0+"
    [ "ε"; "r0+"; "r0-"; "r0-.r1+"; "r0-.r1-" ]
    order

let test_mock_depth_reward_prefers_deeper () =
  (* λ=1 ignores p̂: both children tie at depth 1, the plus child wins
     ties, and the search keeps digging under it. *)
  let script =
    [ ("ε", (-2.0, false));
      ("r0+", (-0.1, false));
      ("r0-", (-1.9, false));
      ("r0+.r1+", (-0.1, true));
      ("r0+.r1-", (-0.1, false))
    ]
  in
  let result, order = run_scripted script ~lambda:1.0 ~c:0.0 in
  Alcotest.(check bool) "falsified" true (Verdict.is_falsified result.Result.verdict);
  Alcotest.(check (list string)) "tie broken toward plus"
    [ "ε"; "r0+"; "r0-"; "r0+.r1+"; "r0+.r1-" ]
    order

let mock_suite =
  ( "abonn.scripted",
    [ Alcotest.test_case "greedy descends best child" `Quick test_mock_greedy_descends_into_best_child;
      Alcotest.test_case "greedy mirror" `Quick test_mock_greedy_descends_into_other_child_when_scripted;
      Alcotest.test_case "proved subtree pruned" `Quick test_mock_proved_subtree_never_reentered;
      Alcotest.test_case "depth reward ties" `Quick test_mock_depth_reward_prefers_deeper
    ] )

let suite = suite @ [ mock_suite ]
