(* Differential battery for the incremental bound cache (Prop.Incremental
   + Deeppoly.run_warm + Appver.run_warm): warm-started propagation must
   share parent prefixes physically, never be looser than from-scratch
   DeepPoly, agree with it bit-for-bit while no tightening clamp has
   fired, stay sound against exact enumeration, and leave engine
   verdicts unchanged cache-on vs cache-off. *)

module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Metrics = Abonn_obs.Metrics
module Sink = Abonn_obs.Sink
module Event = Abonn_obs.Event
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Affine = Abonn_nn.Affine
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Outcome = Abonn_prop.Outcome
module Bounds = Abonn_prop.Bounds
module Deeppoly = Abonn_prop.Deeppoly
module Appver = Abonn_prop.Appver
module Incremental = Abonn_prop.Incremental
module Bfs = Abonn_bab.Bfs
module Bestfirst = Abonn_bab.Bestfirst
module Exact = Abonn_bab.Exact
module Result = Abonn_bab.Result
module Gen = Abonn_check.Gen

let mlp_problem ?(eps = 0.3) ~dims seed =
  let rng = Rng.create seed in
  let network = Builder.mlp rng ~dims in
  let dim = List.hd dims in
  let center = Array.init dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let label = Network.predict network center in
  let property =
    Property.robustness ~num_classes:(List.nth dims (List.length dims - 1)) ~label
  in
  Problem.create ~network ~region ~property ()

let conv_problem seed =
  let rng = Rng.create seed in
  let convs = [ { Builder.out_channels = 1; kernel = 2; stride = 1; padding = 0 } ] in
  let network =
    Builder.convnet rng ~in_channels:1 ~in_h:3 ~in_w:3 ~convs ~dense:[] ~num_classes:2
  in
  let center = Array.init 9 (fun _ -> Rng.range rng 0.2 0.8) in
  let region = Region.linf_ball ~center ~eps:0.25 () in
  let label = Network.predict network center in
  let property = Property.robustness ~num_classes:2 ~label in
  Problem.create ~network ~region ~property ()

(* A root-to-leaf constraint path matching [x]'s concrete ReLU phases:
   [x] stays feasible in every cell, so no step may report infeasible. *)
let phase_path (problem : Problem.t) x depth =
  let affine = problem.Problem.affine in
  let pre = Affine.pre_activations affine x in
  let k = Problem.num_relus problem in
  List.init depth (fun i ->
      let relu = i * k / depth in
      let layer, idx = Affine.relu_position affine relu in
      let phase = if pre.(layer).(idx) >= 0.0 then Split.Active else Split.Inactive in
      (relu, phase))

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

(* --- prefix sharing --- *)

(* Splitting at hidden layer 1 must alias (physical equality) the
   parent's layer-0 bounds instead of recomputing them, and classify the
   reuse as [Prefix 1]; an unchanged gamma is a full-prefix hit. *)
let test_prefix_physically_shared () =
  let problem = mlp_problem ~dims:[ 3; 4; 4; 2 ] 42 in
  let _, state0 = Deeppoly.run_warm problem [] in
  let st = Option.get state0 in
  let affine = problem.Problem.affine in
  let relu =
    (* first ReLU living in hidden layer 1 *)
    let rec find r = if fst (Affine.relu_position affine r) = 1 then r else find (r + 1) in
    find 0
  in
  let gamma = Split.extend [] ~relu ~phase:Split.Active in
  (match Incremental.classify st ~appver:"deeppoly" ~problem ~gamma with
   | Incremental.Prefix l -> Alcotest.(check int) "split layer" 1 l
   | Incremental.Tighten | Incremental.Incompatible ->
     Alcotest.fail "expected Prefix reuse for a layer-1 split");
  (match Incremental.classify st ~appver:"deeppoly" ~problem ~gamma:[] with
   | Incremental.Prefix l -> Alcotest.(check int) "full prefix on equal gamma" 2 l
   | Incremental.Tighten | Incremental.Incompatible ->
     Alcotest.fail "expected full-prefix reuse for an identical gamma");
  let outcome, _ = Deeppoly.run_warm ~state:st problem gamma in
  Alcotest.(check bool) "layer 0 bounds aliased, not copied" true
    (outcome.Outcome.pre_bounds.(0) == st.Incremental.pre_bounds.(0))

(* --- warm vs scratch differential --- *)

(* Walk phase paths of depth 1–8 over generated MLPs/CNNs plus a deep
   hand-built MLP.  Invariants per step: the warm p̂ is never looser than
   scratch, the in-cell point never reports infeasible, and while no
   tightening clamp has fired on the path the warm outcome equals the
   scratch outcome bit-for-bit. *)
let differential_path problem =
  let k = Problem.num_relus problem in
  if k = 0 then ()
  else begin
    let x0 = Region.center problem.Problem.region in
    let depth = min 8 k in
    let path = phase_path problem x0 depth in
    let gamma = ref [] and state = ref None and clean = ref true in
    List.iter
      (fun (relu, phase) ->
        gamma := Split.extend !gamma ~relu ~phase;
        let clamps0 = counter "appver.cache.tighten_clamps" in
        let warm, next = Deeppoly.run_warm ?state:!state problem !gamma in
        if counter "appver.cache.tighten_clamps" > clamps0 then clean := false;
        let scratch = Deeppoly.run problem !gamma in
        Alcotest.(check bool) "in-cell point never infeasible" false
          warm.Outcome.infeasible;
        Alcotest.(check bool)
          (Printf.sprintf "warm phat %.17g never looser than scratch %.17g"
             warm.Outcome.phat scratch.Outcome.phat)
          true
          (warm.Outcome.phat >= scratch.Outcome.phat -. 1e-9);
        if !clean then begin
          Alcotest.(check bool) "clamp-free warm phat is bit-for-bit scratch" true
            (Float.equal warm.Outcome.phat scratch.Outcome.phat);
          Alcotest.(check bool) "clamp-free warm rows are bit-for-bit scratch" true
            (Array.for_all2 Float.equal warm.Outcome.row_lower scratch.Outcome.row_lower)
        end;
        state := next)
      path
  end

let test_warm_matches_scratch_generated () =
  with_metrics (fun () ->
      for index = 0 to 19 do
        differential_path (Gen.case ~seed:515 ~index).Gen.problem
      done)

(* One untrained network per zoo CNN builder: their conv layers take the
   CSR back-substitution kernel. *)
let zoo_conv_problem (spec : Abonn_data.Models.spec) seed =
  let rng = Rng.create seed in
  let network = spec.Abonn_data.Models.build rng in
  let dim = Network.input_dim network in
  let center = Array.init dim (fun _ -> Rng.range rng 0.2 0.8) in
  let region = Region.linf_ball ~center ~eps:0.01 () in
  let label = Network.predict network center in
  let property = Property.robustness ~num_classes:(Network.output_dim network) ~label in
  Problem.create ~network ~region ~property ()

let test_warm_matches_scratch_zoo_convs () =
  with_metrics (fun () ->
      List.iter
        (fun spec -> differential_path (zoo_conv_problem spec 31))
        Abonn_data.Models.[ cifar_base; cifar_wide; cifar_deep ])

let test_warm_matches_scratch_deep_and_conv () =
  with_metrics (fun () ->
      differential_path (mlp_problem ~dims:[ 3; 3; 3; 3; 3; 3; 3; 3; 2 ] ~eps:0.2 7);
      differential_path (mlp_problem ~dims:[ 4; 6; 5; 4; 3 ] ~eps:0.4 11);
      differential_path (conv_problem 23))

(* --- exhaustive 2^K sweep --- *)

(* Enumerate every ReLU phase cell of a small net as a warm-started DFS
   (states flow parent → child exactly as in BaB).  At every node warm
   must not be looser than scratch; at every leaf a warm "proved" claim
   is checked against exact resolution of that cell. *)
let exhaustive_sweep problem =
  let k = Problem.num_relus problem in
  let leaves = ref 0 in
  let rec dfs gamma state next_relu =
    let warm, st = Deeppoly.run_warm ?state problem gamma in
    let scratch = Deeppoly.run problem gamma in
    Alcotest.(check bool) "warm never looser than scratch" true
      (warm.Outcome.phat >= scratch.Outcome.phat -. 1e-9);
    if next_relu >= k then begin
      incr leaves;
      if Outcome.proved warm then
        match Exact.resolve problem gamma with
        | `Verified -> ()
        | `Falsified x ->
          Alcotest.failf "warm proved cell %s but exact resolution falsifies it (margin %.9g)"
            (Split.to_string gamma)
            (Problem.concrete_margin problem x)
    end
    else if not warm.Outcome.infeasible then begin
      dfs (Split.extend gamma ~relu:next_relu ~phase:Split.Active) st (next_relu + 1);
      dfs (Split.extend gamma ~relu:next_relu ~phase:Split.Inactive) st (next_relu + 1)
    end
  in
  dfs [] None 0;
  Alcotest.(check bool) "visited a real tree" true (!leaves >= 1)

let test_exhaustive_small_nets () =
  exhaustive_sweep (mlp_problem ~dims:[ 2; 3; 2 ] ~eps:0.5 3);
  exhaustive_sweep (mlp_problem ~dims:[ 2; 2; 2; 2 ] ~eps:0.4 5);
  exhaustive_sweep (mlp_problem ~dims:[ 3; 5; 2 ] ~eps:0.6 9)

(* --- engine verdicts cache-on vs cache-off --- *)

let test_engine_verdicts_cache_invariant () =
  let problems =
    [ mlp_problem ~dims:[ 2; 3; 2 ] ~eps:0.5 3;
      mlp_problem ~dims:[ 3; 5; 2 ] ~eps:0.6 9;
      mlp_problem ~dims:[ 3; 4; 4; 2 ] ~eps:0.45 42;
      conv_problem 23 ]
  in
  List.iter
    (fun problem ->
      List.iter
        (fun (name, run) ->
          let on : Result.t = run Appver.deeppoly in
          let off = run { Appver.deeppoly with Appver.warm = None } in
          Alcotest.(check bool)
            (name ^ ": verified agrees cache-on/off")
            (Verdict.is_verified off.Result.verdict)
            (Verdict.is_verified on.Result.verdict);
          Alcotest.(check bool)
            (name ^ ": falsified agrees cache-on/off")
            (Verdict.is_falsified off.Result.verdict)
            (Verdict.is_falsified on.Result.verdict);
          List.iter
            (fun (r : Result.t) ->
              match r.Result.verdict with
              | Verdict.Falsified x ->
                Alcotest.(check bool) (name ^ ": witness validates") true
                  (Problem.is_counterexample problem x)
              | Verdict.Verified | Verdict.Timeout -> ())
            [ on; off ])
        [ ("bfs", fun appver -> Bfs.verify ~appver ~budget:(Budget.of_calls 5000) problem);
          ("bestfirst",
           fun appver -> Bestfirst.verify ~appver ~budget:(Budget.of_calls 5000) problem)
        ])
    problems

(* --- fallback and escape hatch --- *)

(* A state from another network (or another slope) must be rejected by
   classification and degrade to the from-scratch result bit-for-bit. *)
let test_incompatible_state_falls_back () =
  let a = mlp_problem ~dims:[ 3; 4; 4; 2 ] 42 in
  let b = mlp_problem ~dims:[ 3; 5; 5; 2 ] 43 in
  let _, sa = Deeppoly.run_warm a [] in
  let sa = Option.get sa in
  (match Incremental.classify sa ~appver:"deeppoly" ~problem:b ~gamma:[] with
   | Incremental.Incompatible -> ()
   | Incremental.Prefix _ | Incremental.Tighten ->
     Alcotest.fail "foreign problem must classify as Incompatible");
  (match Incremental.classify sa ~appver:"deeppoly-zero" ~problem:a ~gamma:[] with
   | Incremental.Incompatible -> ()
   | Incremental.Prefix _ | Incremental.Tighten ->
     Alcotest.fail "slope mismatch must classify as Incompatible");
  let warm, _ = Deeppoly.run_warm ~state:sa b [] in
  let scratch = Deeppoly.run b [] in
  Alcotest.(check bool) "fallback phat bit-for-bit" true
    (Float.equal warm.Outcome.phat scratch.Outcome.phat);
  Alcotest.(check bool) "fallback rows bit-for-bit" true
    (Array.for_all2 Float.equal warm.Outcome.row_lower scratch.Outcome.row_lower)

let test_disabled_cache_bypasses_warm_path () =
  let problem = mlp_problem ~dims:[ 3; 4; 4; 2 ] 42 in
  let _, st = Deeppoly.run_warm problem [] in
  let outcome, state =
    Appver.run_warm { Appver.deeppoly with Appver.warm = None } ?state:st problem []
  in
  Alcotest.(check bool) "no state returned when disabled" true (state = None);
  let scratch = Deeppoly.run problem [] in
  Alcotest.(check bool) "disabled path is the scratch path" true
    (Float.equal outcome.Outcome.phat scratch.Outcome.phat)

(* --- observability --- *)

(* A real BFS run with the cache on must report nonzero cache counters,
   and every [bound_reuse] trace event must annotate the immediately
   preceding [bound_computed] of the same emitting domain (same appver,
   same depth). *)
let test_counters_and_bound_reuse_events () =
  (* scan a few instances for one the root cannot decide, so the run
     genuinely expands children and exercises the cache *)
  let problem =
    let rec find seed =
      if seed > 120 then Alcotest.fail "no splitting instance found in seed range"
      else begin
        let p = mlp_problem ~dims:[ 3; 8; 8; 2 ] ~eps:0.6 seed in
        let r = Bfs.verify ~budget:(Budget.of_calls 200) p in
        if r.Result.stats.Result.nodes > 1 then p else find (seed + 1)
      end
    in
    find 100
  in
  with_metrics (fun () ->
      let sink, events = Sink.memory () in
      let result =
        Obs.with_sink sink (fun () ->
            Bfs.verify ~budget:(Budget.of_calls 200) problem)
      in
      Alcotest.(check bool) "run actually split" true (result.Result.stats.Result.nodes > 1);
      Alcotest.(check bool) "prefix hits recorded" true
        (counter "appver.cache.prefix_hits" > 0);
      Alcotest.(check bool) "layers skipped recorded" true
        (counter "appver.cache.layers_skipped" >= 0);
      let evs = events () in
      let reuses =
        List.filter
          (fun e -> match e.Event.event with Event.Bound_reuse _ -> true | _ -> false)
          evs
      in
      Alcotest.(check bool) "bound_reuse events emitted" true (List.length reuses > 0);
      let rec pairs = function
        | prev :: ({ Event.event = Event.Bound_reuse r; _ } as cur) :: rest ->
          (match prev.Event.event with
           | Event.Bound_computed b ->
             Alcotest.(check string) "annotates same appver" b.appver r.appver;
             Alcotest.(check int) "annotates same depth" b.depth r.depth;
             Alcotest.(check int) "layers_skipped mirrors from_layer" r.from_layer
               r.layers_skipped
           | _ -> Alcotest.fail "bound_reuse not preceded by bound_computed");
          pairs (cur :: rest)
        | _ :: rest -> pairs rest
        | [] -> ()
      in
      (* under ABONN_DOMAINS > 1 the workers' streams interleave; each
         domain's own stream keeps the pairs adjacent *)
      let domains = List.sort_uniq compare (List.map (fun e -> e.Event.domain) evs) in
      List.iter
        (fun d -> pairs (List.filter (fun e -> e.Event.domain = d) evs))
        domains)

let test_bound_reuse_json_roundtrip () =
  let ev =
    Event.Bound_reuse
      { appver = "deeppoly"; depth = 5; from_layer = 2; layers_skipped = 2; clamps = 7 }
  in
  let env = { Event.seq = 1; t = 0.25; domain = None; event = ev } in
  match Event.of_json (Event.to_json env) with
  | Ok env' ->
    Alcotest.(check bool) "round-trips structurally" true (Event.equal env env')
  | Error msg -> Alcotest.failf "bound_reuse did not parse back: %s" msg

let suite =
  [ ( "incremental",
      [ Alcotest.test_case "prefix bounds physically shared" `Quick
          test_prefix_physically_shared;
        Alcotest.test_case "warm vs scratch on generated cases" `Quick
          test_warm_matches_scratch_generated;
        Alcotest.test_case "warm vs scratch on zoo CNN builders" `Quick
          test_warm_matches_scratch_zoo_convs;
        Alcotest.test_case "warm vs scratch on deep MLP and CNN" `Quick
          test_warm_matches_scratch_deep_and_conv;
        Alcotest.test_case "exhaustive 2^K cells stay sound" `Quick
          test_exhaustive_small_nets;
        Alcotest.test_case "engine verdicts cache-on vs cache-off" `Quick
          test_engine_verdicts_cache_invariant;
        Alcotest.test_case "incompatible state falls back to scratch" `Quick
          test_incompatible_state_falls_back;
        Alcotest.test_case "disabled cache bypasses warm path" `Quick
          test_disabled_cache_bypasses_warm_path;
        Alcotest.test_case "cache counters and bound_reuse trace" `Quick
          test_counters_and_bound_reuse_events;
        Alcotest.test_case "bound_reuse JSON round-trip" `Quick
          test_bound_reuse_json_roundtrip ] )
  ]
