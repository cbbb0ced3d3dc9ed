module Budget = Abonn_util.Budget
module Pool = Abonn_par.Pool
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Resource = Abonn_obs.Resource
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver

type t = {
  engine : string;
  budget : Budget.t;
  (* first validated counterexample wins; CAS keeps later writers out *)
  found : float array option Atomic.t;
  (* a worker saw the budget trip with work still pending *)
  timeout : bool Atomic.t;
  nodes : int Atomic.t;
  max_depth : int Atomic.t;
}

let create ~engine ~budget =
  { engine;
    budget;
    found = Atomic.make None;
    timeout = Atomic.make false;
    nodes = Atomic.make 0;
    max_depth = Atomic.make 0 }

let engine st = st.engine

let note_cex st ctx x =
  ignore (Atomic.compare_and_set st.found None (Some x));
  Pool.request_stop ctx

let note_timeout st ctx =
  Atomic.set st.timeout true;
  Pool.request_stop ctx

let guard st ctx f item =
  if not (Pool.stop_requested ctx) then
    if Budget.exhausted st.budget then note_timeout st ctx else f item

let add_nodes st n = ignore (Atomic.fetch_and_add st.nodes n)

let note_depth st d =
  let rec raise_to () =
    let cur = Atomic.get st.max_depth in
    if d > cur && not (Atomic.compare_and_set st.max_depth cur d) then
      raise_to ()
  in
  raise_to ()

let nodes st = Atomic.get st.nodes
let max_depth st = Atomic.get st.max_depth

let verdict st =
  match Atomic.get st.found with
  | Some x -> Verdict.Falsified x
  | None -> if Atomic.get st.timeout then Verdict.Timeout else Verdict.Verified

(* --- the shared ReLU-splitting work loop (Bfs / Bestfirst) --- *)

(* A frontier item is self-contained: the split sequence, its depth and
   the parent's incremental bound state, so any domain can expand it. *)
type relu_item = Split.gamma * int * Abonn_prop.Incremental.t option

let run_relu_split ~engine ~domains ~appver ~heuristic ~budget ~record problem =
  let started = Unix.gettimeofday () in
  let st = create ~engine ~budget in
  add_nodes st 1 (* the root *);
  (* The chooser closure may carry per-problem scratch state, so each
     domain prepares its own. *)
  let choosers =
    Array.init domains (fun _ -> heuristic.Branching.prepare problem)
  in
  (* One resource sampler, ticked only by domain 0 (its fields are not
     synchronised); GC/RSS/CPU readings are process-wide anyway. *)
  let resource = Resource.create ~engine () in
  let record_mutex = Mutex.create () in
  let record leaf =
    Mutex.lock record_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock record_mutex) (fun () ->
        record leaf)
  in
  let work ctx (item : relu_item) =
    guard st ctx (fun (gamma, depth, state) ->
    if Obs.active () then begin
      Obs.incr (engine ^ ".pop");
      Obs.observe (engine ^ ".depth") (float_of_int depth);
      if Obs.tracing () then
        Obs.emit
          (Ev.Frontier_pop
             { engine; depth; frontier = Pool.queue_length ctx;
               priority = Float.nan })
    end;
    if Pool.id ctx = 0 then
      Resource.tick resource ~open_nodes:(Pool.queue_length ctx)
        ~nodes:(nodes st) ~max_depth:(max_depth st);
    Budget.record_call budget;
    let outcome, node_state = Appver.run_warm appver ?state problem gamma in
    if Outcome.proved outcome then
      record { Certificate.gamma; phat = outcome.Outcome.phat; by_exact = false }
    else begin
      let valid_cex =
        match outcome.Outcome.candidate with
        | Some x when Problem.is_counterexample problem x -> Some x
        | Some _ | None -> None
      in
      match valid_cex with
      | Some x -> note_cex st ctx x
      | None ->
        let choose = choosers.(Pool.id ctx) in
        (match choose ~gamma ~pre_bounds:outcome.Outcome.pre_bounds with
         | Some ch ->
           let relu = ch.Branching.relu in
           (* no frontier_decision here: a work-stealing pool has no
              global priority order to compare the pop against *)
           Branching.emit_decision ~engine ~kind:"relu" ~depth ch;
           (* both children warm-start from this node's state *)
           Pool.push ctx
             (Split.extend gamma ~relu ~phase:Split.Active, depth + 1, node_state);
           Pool.push ctx
             (Split.extend gamma ~relu ~phase:Split.Inactive, depth + 1, node_state);
           add_nodes st 2;
           note_depth st (depth + 1)
         | None ->
           (* fully stabilised leaf: decide exactly with one LP call *)
           Budget.record_call budget;
           let resolution =
             Exact.resolve ~pre_bounds:outcome.Outcome.pre_bounds problem gamma
           in
           if Obs.active () then begin
             Obs.incr (String.concat "" [ engine; ".exact" ]);
             if Obs.tracing () then
               Obs.emit
                 (Ev.Exact_leaf
                    { engine; depth; verified = (resolution = `Verified) })
           end;
           (match resolution with
            | `Verified ->
              record { Certificate.gamma; phat = infinity; by_exact = true }
            | `Falsified x -> note_cex st ctx x))
    end)
      item
  in
  ignore
    (Pool.run ~domains ~engine ~roots:[ (([], 0, None) : relu_item) ] ~work ());
  let wall_time = Unix.gettimeofday () -. started in
  let v = verdict st in
  Resource.final resource ~open_nodes:0 ~nodes:(nodes st)
    ~max_depth:(max_depth st);
  if Obs.tracing () then
    Obs.emit
      (Ev.Verdict_reached
         { engine; verdict = Verdict.to_string v; elapsed = wall_time });
  Result.make ~verdict:v ~appver_calls:(Budget.calls_used budget)
    ~nodes:(nodes st) ~max_depth:(max_depth st) ~wall_time
