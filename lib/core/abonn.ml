module Budget = Abonn_util.Budget
module Rng = Abonn_util.Rng
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Introspect = Abonn_obs.Introspect
module Resource = Abonn_obs.Resource
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver
module Branching = Abonn_bab.Branching
module Result = Abonn_bab.Result
module Exact = Abonn_bab.Exact

type node = {
  gamma : Split.gamma;
  depth : int;
  outcome : Outcome.t;
  state : Abonn_prop.Incremental.t option;
      (* incremental bound state, warm-starting this node's children *)
  mutable reward : float;
  mutable size : int;  (* |T(Γ)|: nodes in the sub-tree rooted here *)
  mutable children : (node * node) option;
}

type search = {
  problem : Problem.t;
  config : Config.t;
  budget : Budget.t;
  choose : Branching.chooser;
  num_relus : int;
  phat_min : float;  (* Def. 1 normaliser: the root's p̂ *)
  rng : Rng.t option;  (* only for the Uniform_random ablation *)
  resource : Resource.t;
  mutable found_cex : float array option;
  mutable nodes_created : int;
  mutable max_depth : int;
}

let potentiality s ~depth ~phat ~valid_cex =
  Potentiality.value ~lambda:s.config.Config.lambda ~num_relus:s.num_relus
    ~phat_min:s.phat_min ~depth ~phat ~valid_cex

(* Evaluate one fresh node: AppVer call (warm-started from the parent's
   incremental state), candidate validation, reward. *)
let eval_node ?parent s gamma depth =
  Budget.record_call s.budget;
  s.nodes_created <- s.nodes_created + 1;
  s.max_depth <- Stdlib.max s.max_depth depth;
  let outcome, state =
    Appver.run_warm s.config.Config.appver ?state:parent s.problem gamma
  in
  let valid_cex =
    match outcome.Outcome.candidate with
    | Some x when Problem.is_counterexample s.problem x ->
      s.found_cex <- Some x;
      true
    | Some _ | None -> false
  in
  let reward = potentiality s ~depth ~phat:outcome.Outcome.phat ~valid_cex in
  if Obs.active () then begin
    Obs.incr "abonn.expand";
    Obs.observe "abonn.depth" (float_of_int depth);
    if Obs.tracing () then
      Obs.emit
        (Ev.Node_evaluated
           { engine = "abonn"; depth; gamma = Split.to_string gamma;
             phat = outcome.Outcome.phat; reward })
  end;
  (* MCTS has no explicit frontier; open_nodes is 0 by convention *)
  Resource.tick s.resource ~open_nodes:0 ~nodes:s.nodes_created
    ~max_depth:s.max_depth;
  { gamma; depth; outcome; state; reward; size = 1; children = None }

(* UCB1 (Alg. 1 Line 13), kept split into its exploitation (mean reward)
   and exploration (confidence radius) terms so introspection can report
   the decomposition without perturbing the scalar the search compares. *)
let explore_term s parent child =
  s.config.Config.c
  *. sqrt (2.0 *. log (float_of_int parent.size) /. float_of_int child.size)

let ucb1 s parent child = child.reward +. explore_term s parent child

let select s parent (plus, minus) =
  let chosen, score =
    match s.rng with
    | Some rng ->
      (* ablation: ignore rewards entirely *)
      let live c = c.reward > neg_infinity in
      let chosen =
        match live plus, live minus with
        | true, true -> if Rng.bool rng then plus else minus
        | true, false -> plus
        | false, true -> minus
        | false, false -> plus (* caller prunes via reward update *)
      in
      (chosen, Float.nan)
    | None ->
      let sp = ucb1 s parent plus and sm = ucb1 s parent minus in
      if sp >= sm then (plus, sp) else (minus, sm)
  in
  if Obs.active () then begin
    Obs.incr "abonn.select";
    if Obs.tracing () then begin
      Obs.emit (Ev.Node_selected { engine = "abonn"; depth = chosen.depth; ucb = score });
      (* Introspection: the full candidate picture behind this descent
         step, right after the node_selected it explains.  The ablation
         has no UCB to decompose, so it stays silent. *)
      if Option.is_none s.rng && Introspect.enabled () then begin
        let smp = Introspect.sample () in
        if smp > 0 then
          Obs.emit
            (Ev.Ucb_decision
               { engine = "abonn"; depth = chosen.depth;
                 chosen = (if chosen == plus then "+" else "-");
                 sample = smp;
                 plus_exploit = plus.reward;
                 plus_explore = explore_term s parent plus;
                 plus_visits = plus.size;
                 minus_exploit = minus.reward;
                 minus_explore = explore_term s parent minus;
                 minus_visits = minus.size })
      end
    end
  end;
  chosen

(* Expansion (Lines 16–19): split on H's ReLU and evaluate both
   children; fully-stabilised leaves are decided exactly instead. *)
let expand s node =
  match
    s.choose ~gamma:node.gamma ~pre_bounds:node.outcome.Outcome.pre_bounds
  with
  | Some ch ->
    let relu = ch.Branching.relu in
    Branching.emit_decision ~engine:"abonn" ~kind:"relu" ~depth:node.depth ch;
    (* both children warm-start from this node's state: the shared
       pre-split bounds are computed once, not re-derived per child *)
    let plus =
      eval_node ?parent:node.state s
        (Split.extend node.gamma ~relu ~phase:Split.Active) (node.depth + 1)
    in
    let minus =
      eval_node ?parent:node.state s
        (Split.extend node.gamma ~relu ~phase:Split.Inactive) (node.depth + 1)
    in
    node.children <- Some (plus, minus)
  | None ->
    Budget.record_call s.budget;
    let resolution =
      Exact.resolve ~pre_bounds:node.outcome.Outcome.pre_bounds s.problem node.gamma
    in
    begin match resolution with
    | `Verified -> node.reward <- neg_infinity
    | `Falsified x ->
      s.found_cex <- Some x;
      node.reward <- infinity
    end;
    if Obs.active () then begin
      Obs.incr "abonn.exact";
      if Obs.tracing () then
        Obs.emit
          (Ev.Exact_leaf
             { engine = "abonn"; depth = node.depth;
               verified = (resolution = `Verified) })
    end

(* One MCTS-BAB descent (Alg. 1 Lines 10–21).  Rewards and sizes are
   refreshed on the way back up so every ancestor sees the new frontier. *)
let rec mcts_bab s node =
  begin match node.children with
  | Some ((plus, minus) as pair) ->
    if Float.max plus.reward minus.reward = neg_infinity then
      (* both sub-trees proved: nothing to descend into *)
      ()
    else mcts_bab s (select s node pair)
  | None -> expand s node
  end;
  match node.children with
  | Some (plus, minus) ->
    node.reward <- Float.max plus.reward minus.reward;
    node.size <- 1 + plus.size + minus.size;
    if Obs.active () then begin
      Obs.incr "abonn.backprop";
      if Obs.tracing () then
        Obs.emit
          (Ev.Backprop
             { engine = "abonn"; depth = node.depth; reward = node.reward;
               size = node.size })
    end
  | None -> ()

let verify_seq ~config ~budget problem =
  let started = Unix.gettimeofday () in
  let rng = match config.Config.selection with
    | Config.Ucb1 -> None
    | Config.Uniform_random seed -> Some (Rng.create seed)
  in
  (* Initialisation (Lines 1–4): evaluate the root.  The normaliser needs
     the root p̂ before the search record exists, so bootstrap with a
     placeholder and patch it. *)
  let s =
    { problem;
      config;
      budget;
      choose = config.Config.heuristic.Branching.prepare problem;
      num_relus = Stdlib.max 1 (Problem.num_relus problem);
      phat_min = -1.0;
      rng;
      resource = Resource.create ~engine:"abonn" ();
      found_cex = None;
      nodes_created = 0;
      max_depth = 0 }
  in
  let root0 = eval_node s [] 0 in
  let s = { s with phat_min = Float.min root0.outcome.Outcome.phat (-1e-12) } in
  (* Recompute the root reward under the final normaliser. *)
  let root =
    { root0 with
      reward =
        potentiality s ~depth:0 ~phat:root0.outcome.Outcome.phat
          ~valid_cex:(s.found_cex <> None) }
  in
  let finish verdict =
    let wall_time = Unix.gettimeofday () -. started in
    Resource.final s.resource ~open_nodes:0 ~nodes:s.nodes_created
      ~max_depth:s.max_depth;
    if Obs.tracing () then
      Obs.emit
        (Ev.Verdict_reached
           { engine = "abonn"; verdict = Verdict.to_string verdict;
             elapsed = wall_time });
    Result.make ~verdict ~appver_calls:(Budget.calls_used budget)
      ~nodes:s.nodes_created ~max_depth:s.max_depth ~wall_time
  in
  (* Termination (Line 5 / Lines 6–9). *)
  let rec loop () =
    if root.reward = infinity then
      match s.found_cex with
      | Some x -> finish (Verdict.Falsified x)
      | None -> finish Verdict.Timeout (* unreachable: +∞ implies a stored cex *)
    else if root.reward = neg_infinity then finish Verdict.Verified
    else if Budget.exhausted budget then finish Verdict.Timeout
    else begin
      mcts_bab s root;
      loop ()
    end
  in
  loop ()

(* --- parallel ABONN: seed expansion + per-subtree search portfolio ---

   A UCB1 descent is inherently sequential (each selection depends on
   the rewards the previous iteration back-propagated), so ABONN is
   parallelised at the sub-tree level instead: a short sequential BFS
   seed phase grows the tree until the frontier holds at least
   2 × domains undecided nodes, then each frontier node becomes one
   work-stealing pool item and gets a full, independent MCTS search of
   its sub-tree.  Sub-trees are disjoint and every frontier node
   carries its own incremental bound state, so workers share nothing
   but the (atomic) budget and the stop flag.  See docs/PARALLELISM.md. *)

module Pool = Abonn_par.Pool

let verify_par ~domains ~config ~budget problem =
  let started = Unix.gettimeofday () in
  let seed_rng_seed =
    match config.Config.selection with
    | Config.Ucb1 -> 0
    | Config.Uniform_random seed -> seed
  in
  let s =
    { problem;
      config;
      budget;
      choose = config.Config.heuristic.Branching.prepare problem;
      num_relus = Stdlib.max 1 (Problem.num_relus problem);
      phat_min = -1.0;
      rng =
        (match config.Config.selection with
         | Config.Ucb1 -> None
         | Config.Uniform_random seed -> Some (Rng.create seed));
      resource = Resource.create ~engine:"abonn" ();
      found_cex = None;
      nodes_created = 0;
      max_depth = 0 }
  in
  let root0 = eval_node s [] 0 in
  let s = { s with phat_min = Float.min root0.outcome.Outcome.phat (-1e-12) } in
  let root =
    { root0 with
      reward =
        potentiality s ~depth:0 ~phat:root0.outcome.Outcome.phat
          ~valid_cex:(s.found_cex <> None) }
  in
  (* merged across the seed phase and every worker sub-search *)
  let nodes_total = Atomic.make 0 and depth_total = Atomic.make 0 in
  let note_depth d =
    let rec go () =
      let cur = Atomic.get depth_total in
      if d > cur && not (Atomic.compare_and_set depth_total cur d) then go ()
    in
    go ()
  in
  let finish verdict =
    Atomic.fetch_and_add nodes_total s.nodes_created |> ignore;
    note_depth s.max_depth;
    let wall_time = Unix.gettimeofday () -. started in
    Resource.final s.resource ~open_nodes:0 ~nodes:(Atomic.get nodes_total)
      ~max_depth:(Atomic.get depth_total);
    if Obs.tracing () then
      Obs.emit
        (Ev.Verdict_reached
           { engine = "abonn"; verdict = Verdict.to_string verdict;
             elapsed = wall_time });
    Result.make ~verdict ~appver_calls:(Budget.calls_used budget)
      ~nodes:(Atomic.get nodes_total) ~max_depth:(Atomic.get depth_total)
      ~wall_time
  in
  (* Seed phase: breadth-first expansion on the calling domain until
     the frontier can feed every worker (≥ 2 sub-trees per domain). *)
  let frontier = Queue.create () in
  let undecided n = n.reward > neg_infinity && n.reward < infinity in
  if undecided root then Queue.add root frontier;
  let target = 2 * domains in
  let rec seed () =
    if s.found_cex <> None then `Cex
    else if Queue.is_empty frontier then `All_proved
    else if Budget.exhausted budget then `Timeout
    else if Queue.length frontier >= target then `Frontier
    else begin
      let node = Queue.pop frontier in
      expand s node;
      (match node.children with
       | Some (plus, minus) ->
         if undecided plus then Queue.add plus frontier;
         if undecided minus then Queue.add minus frontier
       | None -> () (* exact leaf: reward pinned to ±∞ by [expand] *));
      seed ()
    end
  in
  match seed () with
  | `Cex -> finish (Verdict.Falsified (Option.get s.found_cex))
  | `All_proved -> finish Verdict.Verified
  | `Timeout -> finish Verdict.Timeout
  | `Frontier ->
    let found = Atomic.make None and timeout = Atomic.make false in
    let resources =
      Array.init domains (fun _ -> Resource.create ~engine:"abonn" ())
    in
    let work ctx (node : node) =
      if not (Pool.stop_requested ctx) then begin
        let s_w =
          { s with
            choose = config.Config.heuristic.Branching.prepare problem;
            rng =
              (match config.Config.selection with
               | Config.Ucb1 -> None
               | Config.Uniform_random _ -> Some (Pool.rng ctx));
            resource = resources.(Pool.id ctx);
            found_cex = None;
            nodes_created = 0;
            max_depth = node.depth }
        in
        let rec sub_loop () =
          if node.reward = infinity then begin
            (match s_w.found_cex with
             | Some x -> ignore (Atomic.compare_and_set found None (Some x))
             | None -> Atomic.set timeout true);
            Pool.request_stop ctx
          end
          else if node.reward = neg_infinity then () (* sub-tree proved *)
          else if Pool.stop_requested ctx then ()
          else if Budget.exhausted budget then begin
            Atomic.set timeout true;
            Pool.request_stop ctx
          end
          else begin
            mcts_bab s_w node;
            sub_loop ()
          end
        in
        sub_loop ();
        Atomic.fetch_and_add nodes_total s_w.nodes_created |> ignore;
        note_depth s_w.max_depth
      end
    in
    let roots = List.of_seq (Queue.to_seq frontier) in
    ignore
      (Pool.run ~domains ~seed:seed_rng_seed ~engine:"abonn" ~roots ~work ());
    (match Atomic.get found with
     | Some x -> finish (Verdict.Falsified x)
     | None ->
       if Atomic.get timeout then finish Verdict.Timeout
       else finish Verdict.Verified)

let verify ?(config = Config.default) ?budget ?domains problem =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> 1
    | None -> Pool.default_domains ()
  in
  if domains <= 1 then verify_seq ~config ~budget problem
  else verify_par ~domains ~config ~budget problem
