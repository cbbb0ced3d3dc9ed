module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Resource = Abonn_obs.Resource
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver

(* Core loop shared by [verify] and [verify_with_certificate]: [record]
   is called once per discharged leaf. *)
let run_bfs ~appver ~heuristic ~budget ~record problem =
  let started = Unix.gettimeofday () in
  let choose = heuristic.Branching.prepare problem in
  let queue = Queue.create () in
  (* Each entry carries its parent's incremental state so the AppVer can
     warm-start; the root has none. *)
  Queue.add ([], 0, None) queue;
  let nodes = ref 1 and max_depth = ref 0 in
  let resource = Resource.create ~engine:"bab-baseline" () in
  let finish verdict =
    let wall_time = Unix.gettimeofday () -. started in
    Resource.final resource ~open_nodes:(Queue.length queue) ~nodes:!nodes
      ~max_depth:!max_depth;
    if Obs.tracing () then
      Obs.emit
        (Ev.Verdict_reached
           { engine = "bab-baseline"; verdict = Verdict.to_string verdict;
             elapsed = wall_time });
    Result.make ~verdict ~appver_calls:(Budget.calls_used budget) ~nodes:!nodes
      ~max_depth:!max_depth ~wall_time
  in
  let rec loop () =
    if Queue.is_empty queue then finish Verdict.Verified
    else if Budget.exhausted budget then finish Verdict.Timeout
    else begin
      let gamma, depth, state = Queue.pop queue in
      if Obs.active () then begin
        Obs.incr "bfs.pop";
        Obs.observe "bfs.depth" (float_of_int depth);
        if Obs.tracing () then
          Obs.emit
            (Ev.Frontier_pop
               { engine = "bab-baseline"; depth; frontier = Queue.length queue;
                 priority = Float.nan })
      end;
      Resource.tick resource ~open_nodes:(Queue.length queue) ~nodes:!nodes
        ~max_depth:!max_depth;
      Budget.record_call budget;
      let outcome, node_state = Appver.run_warm appver ?state problem gamma in
      if Outcome.proved outcome then begin
        record { Certificate.gamma; phat = outcome.Outcome.phat; by_exact = false };
        loop ()
      end
      else begin
        let valid_cex =
          match outcome.Outcome.candidate with
          | Some x when Problem.is_counterexample problem x -> Some x
          | Some _ | None -> None
        in
        match valid_cex with
        | Some x -> finish (Verdict.Falsified x)
        | None ->
          begin match choose ~gamma ~pre_bounds:outcome.Outcome.pre_bounds with
          | Some ch ->
            let relu = ch.Branching.relu in
            Branching.emit_decision ~engine:"bab-baseline" ~kind:"relu" ~depth
              ch;
            (* One shared pre-split computation per expansion: both
               children warm-start from this node's state instead of
               re-deriving the parent's layer bounds independently. *)
            Queue.add (Split.extend gamma ~relu ~phase:Split.Active, depth + 1, node_state)
              queue;
            Queue.add (Split.extend gamma ~relu ~phase:Split.Inactive, depth + 1, node_state)
              queue;
            nodes := !nodes + 2;
            max_depth := Stdlib.max !max_depth (depth + 1);
            loop ()
          | None ->
            (* Fully stabilised leaf: decide exactly with one LP call. *)
            Budget.record_call budget;
            let resolution =
              Exact.resolve ~pre_bounds:outcome.Outcome.pre_bounds problem gamma
            in
            if Obs.active () then begin
              Obs.incr "bfs.exact";
              if Obs.tracing () then
                Obs.emit
                  (Ev.Exact_leaf
                     { engine = "bab-baseline"; depth;
                       verified = (resolution = `Verified) })
            end;
            begin match resolution with
            | `Verified ->
              record { Certificate.gamma; phat = infinity; by_exact = true };
              loop ()
            | `Falsified x -> finish (Verdict.Falsified x)
            end
          end
      end
    end
  in
  loop ()

(* [domains = 1] (the default) takes [run_bfs] — the untouched
   sequential loop, bit-for-bit the pre-parallelism engine; [> 1]
   shards the frontier across a work-stealing domain pool
   (docs/PARALLELISM.md). *)
let resolve_domains = function
  | Some d when d >= 1 -> d
  | Some _ -> 1
  | None -> Abonn_par.Pool.default_domains ()

let run ~appver ~heuristic ~budget ~domains ~record problem =
  if domains <= 1 then run_bfs ~appver ~heuristic ~budget ~record problem
  else
    Parfrontier.run_relu_split ~engine:"bab-baseline" ~domains ~appver
      ~heuristic ~budget ~record problem

let verify ?(appver = Appver.deeppoly) ?(heuristic = Branching.default) ?budget
    ?domains problem =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let domains = resolve_domains domains in
  run ~appver ~heuristic ~budget ~domains ~record:(fun _ -> ()) problem

let verify_with_certificate ?(appver = Appver.deeppoly) ?(heuristic = Branching.default)
    ?budget ?domains problem =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let domains = resolve_domains domains in
  let leaves = ref [] in
  let record leaf = leaves := leaf :: !leaves in
  let result = run ~appver ~heuristic ~budget ~domains ~record problem in
  let certificate =
    match result.Result.verdict with
    | Verdict.Verified ->
      Some { Certificate.leaves = List.rev !leaves; appver_name = appver.Appver.name }
    | Verdict.Falsified _ | Verdict.Timeout -> None
  in
  (result, certificate)
