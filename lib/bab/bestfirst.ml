module Budget = Abonn_util.Budget
module Heap = Abonn_util.Heap
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Introspect = Abonn_obs.Introspect
module Resource = Abonn_obs.Resource
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver

type frontier_node = {
  gamma : Split.gamma;
  depth : int;
  outcome : Outcome.t;
  state : Abonn_prop.Incremental.t option;
      (* this node's own incremental state, warm-starting its children *)
}

exception Found of float array

let verify_seq ~appver ~heuristic ~budget problem =
  let started = Unix.gettimeofday () in
  let choose = heuristic.Branching.prepare problem in
  let heap : frontier_node Heap.t = Heap.create () in
  let nodes = ref 0 and max_depth = ref 0 in
  let resource = Resource.create ~engine:"bestfirst" () in
  let finish verdict =
    let wall_time = Unix.gettimeofday () -. started in
    Resource.final resource ~open_nodes:(Heap.length heap) ~nodes:!nodes
      ~max_depth:!max_depth;
    if Obs.tracing () then
      Obs.emit
        (Ev.Verdict_reached
           { engine = "bestfirst"; verdict = Verdict.to_string verdict;
             elapsed = wall_time });
    Result.make ~verdict ~appver_calls:(Budget.calls_used budget) ~nodes:!nodes
      ~max_depth:!max_depth ~wall_time
  in
  (* Evaluate a node, warm-starting from its parent's state; push it
     when undecided; raise [Found] on a real counterexample. *)
  let evaluate ?parent gamma depth =
    Budget.record_call budget;
    nodes := !nodes + 1;
    max_depth := Stdlib.max !max_depth depth;
    let outcome, state = Appver.run_warm appver ?state:parent problem gamma in
    if Outcome.proved outcome then ()
    else begin
      match outcome.Outcome.candidate with
      | Some x when Problem.is_counterexample problem x -> raise (Found x)
      | Some _ | None ->
        Heap.push heap outcome.Outcome.phat { gamma; depth; outcome; state }
    end
  in
  match
    (try
       evaluate [] 0;
       let rec loop () =
         if Heap.is_empty heap then `Done Verdict.Verified
         else if Budget.exhausted budget then `Done Verdict.Timeout
         else begin
           match Heap.pop heap with
           | None -> `Done Verdict.Verified
           | Some (priority, node) ->
             if Obs.active () then begin
               Obs.incr "bestfirst.pop";
               Obs.observe "bestfirst.depth" (float_of_int node.depth);
               if Obs.tracing () then begin
                 Obs.emit
                   (Ev.Frontier_pop
                      { engine = "bestfirst"; depth = node.depth;
                        frontier = Heap.length heap; priority });
                 (* Introspection: the priority picture of this pop —
                    chosen key vs. the best node left behind — right
                    after the frontier_pop it explains. *)
                 if Introspect.enabled () then begin
                   let smp = Introspect.sample () in
                   if smp > 0 then
                     Obs.emit
                       (Ev.Frontier_decision
                          { engine = "bestfirst"; depth = node.depth; priority;
                            runner_up =
                              (match Heap.peek heap with
                               | Some (p, _) -> p
                               | None -> Float.nan);
                            frontier = Heap.length heap; sample = smp })
                 end
               end
             end;
             Resource.tick resource ~open_nodes:(Heap.length heap) ~nodes:!nodes
               ~max_depth:!max_depth;
             begin match
               choose ~gamma:node.gamma ~pre_bounds:node.outcome.Outcome.pre_bounds
             with
             | Some ch ->
               let relu = ch.Branching.relu in
               Branching.emit_decision ~engine:"bestfirst" ~kind:"relu"
                 ~depth:node.depth ch;
               (* one shared pre-split computation per expansion: both
                  children warm-start from the popped node's state *)
               evaluate ?parent:node.state
                 (Split.extend node.gamma ~relu ~phase:Split.Active) (node.depth + 1);
               evaluate ?parent:node.state
                 (Split.extend node.gamma ~relu ~phase:Split.Inactive) (node.depth + 1);
               loop ()
             | None ->
               Budget.record_call budget;
               let resolution =
                 Exact.resolve ~pre_bounds:node.outcome.Outcome.pre_bounds problem
                   node.gamma
               in
               if Obs.active () then begin
                 Obs.incr "bestfirst.exact";
                 if Obs.tracing () then
                   Obs.emit
                     (Ev.Exact_leaf
                        { engine = "bestfirst"; depth = node.depth;
                          verified = (resolution = `Verified) })
               end;
               begin match resolution with
               | `Verified -> loop ()
               | `Falsified x -> `Done (Verdict.Falsified x)
               end
             end
         end
       in
       loop ()
     with Found x -> `Done (Verdict.Falsified x))
  with
  | `Done verdict -> finish verdict

let verify ?(appver = Appver.deeppoly) ?(heuristic = Branching.default) ?budget
    ?domains problem =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> 1
    | None -> Abonn_par.Pool.default_domains ()
  in
  (* [domains = 1] is the untouched sequential engine above; [> 1]
     shards the frontier across the work-stealing pool, which trades
     the global p̂ priority order for per-domain LIFO + steal order
     (docs/PARALLELISM.md) — the verdict of complete runs is unchanged. *)
  if domains <= 1 then verify_seq ~appver ~heuristic ~budget problem
  else
    Parfrontier.run_relu_split ~engine:"bestfirst" ~domains ~appver ~heuristic
      ~budget ~record:(fun _ -> ()) problem
