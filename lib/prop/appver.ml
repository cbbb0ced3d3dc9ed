module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event

type warm =
  ?state:Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Outcome.t * Incremental.t option

type t = {
  name : string;
  run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Outcome.t;
  warm : warm option;
}

(* Observe a verifier: per-call counter, a span timer and a
   [bound_computed] trace event, all gated on [Obs.active] so the
   un-observed path pays one branch.  The DeepPoly family instruments
   itself inside [Deeppoly.run] (it is also called directly, e.g. by
   branching heuristics and the harness cost model), so only the other
   engines are wrapped here. *)
let observed { name; run; warm } =
  { name;
    run =
      (fun problem gamma ->
        if not (Obs.active ()) then run problem gamma
        else begin
          let t0 = Obs.now () in
          let outcome = run problem gamma in
          let elapsed = Obs.now () -. t0 in
          Obs.incr (Printf.sprintf "appver.%s.calls" name);
          Obs.span ("appver." ^ name) elapsed;
          if Obs.tracing () then
            Obs.emit
              (Ev.Bound_computed
                 { appver = name; depth = Abonn_spec.Split.depth gamma;
                   phat = outcome.Outcome.phat; elapsed });
          outcome
        end);
    warm }

(* Warm-start dispatch: engines call this on every node.  Verifiers
   without a warm entry point (including any [{ v with warm = None }],
   the --no-bound-cache path) fall through to the plain [run] —
   bit-for-bit the pre-cache path, returning no state. *)
let run_warm v ?state problem gamma =
  match v.warm with
  | Some w -> w ?state problem gamma
  | None -> (v.run problem gamma, None)

(* --- easy/hard triage (DESIGN.md §13) ---

   Mirrors the [hard_crit] of the scaling-the-convex-barrier codebase:
   a node only earns an expensive bound when the cheap one leaves it
   undecided-but-close ([lb_threshold]), deep enough to matter
   ([depth_threshold]), and while escalation keeps paying for itself
   ([impr_threshold] mean tightening over a [window] of samples). *)

type triage_crit = {
  lb_threshold : float;
  depth_threshold : int;
  impr_threshold : float;
  window : int;
}

let default_triage =
  { lb_threshold = 0.5; depth_threshold = 0; impr_threshold = 1e-1; window = 32 }

let triaged ?(crit = default_triage) ~cheap ~expensive () =
  (* escalation statistics are per-combinator and shared across worker
     domains, hence the mutex; contention is one lock per escalation *)
  let lock = Mutex.create () in
  let observations = ref 0 in
  let total_impr = ref 0.0 in
  let note_improvement d =
    Mutex.lock lock;
    incr observations;
    total_impr := !total_impr +. d;
    Mutex.unlock lock
  in
  let worthwhile () =
    Mutex.lock lock;
    let r =
      !observations < crit.window
      || !total_impr /. float_of_int !observations >= crit.impr_threshold
    in
    Mutex.unlock lock;
    r
  in
  let escalate gamma (o : Outcome.t) =
    (not (Outcome.proved o))
    && (not o.Outcome.infeasible)
    && Abonn_spec.Split.depth gamma >= crit.depth_threshold
    && o.Outcome.phat >= -.crit.lb_threshold
    && worthwhile ()
  in
  (* both outcomes certify the same node: keep the elementwise-best *)
  let merge (a : Outcome.t) (b : Outcome.t) =
    let row_lower =
      if Array.length a.Outcome.row_lower = Array.length b.Outcome.row_lower
      then
        Array.mapi
          (fun r v -> Float.max v b.Outcome.row_lower.(r))
          a.Outcome.row_lower
      else if Array.length b.Outcome.row_lower > 0 then b.Outcome.row_lower
      else a.Outcome.row_lower
    in
    let pre_bounds =
      if Array.length b.Outcome.pre_bounds > 0 then b.Outcome.pre_bounds
      else a.Outcome.pre_bounds
    in
    let candidate =
      match b.Outcome.candidate with
      | Some _ as c -> c
      | None -> a.Outcome.candidate
    in
    Outcome.make
      ~phat:(Float.max a.Outcome.phat b.Outcome.phat)
      ?candidate ~pre_bounds
      ~infeasible:(a.Outcome.infeasible || b.Outcome.infeasible)
      ~row_lower ()
  in
  let name = cheap.name ^ "+" ^ expensive.name in
  let run problem gamma =
    let cheap_o = cheap.run problem gamma in
    if escalate gamma cheap_o then begin
      if Obs.active () then Obs.incr "appver.triage.escalated";
      let exp_o = expensive.run problem gamma in
      note_improvement (exp_o.Outcome.phat -. cheap_o.Outcome.phat);
      merge cheap_o exp_o
    end
    else begin
      if Obs.active () then Obs.incr "appver.triage.skipped";
      cheap_o
    end
  in
  let warm ?state problem gamma =
    let cheap_o = cheap.run problem gamma in
    if escalate gamma cheap_o then begin
      if Obs.active () then Obs.incr "appver.triage.escalated";
      let exp_o, state' = run_warm expensive ?state problem gamma in
      note_improvement (exp_o.Outcome.phat -. cheap_o.Outcome.phat);
      (merge cheap_o exp_o, state')
    end
    else begin
      if Obs.active () then Obs.incr "appver.triage.skipped";
      (* pass the ancestor's expensive-verifier state through unchanged:
         it stays a sound, compatible warm-start for any descendant that
         does escalate *)
      (cheap_o, state)
    end
  in
  { name; run; warm = Some warm }

let deeppoly =
  { name = "deeppoly";
    run = Deeppoly.run ~slope:Deeppoly.Adaptive;
    warm = Some (Deeppoly.run_warm ~slope:Deeppoly.Adaptive) }

let deeppoly_zero =
  { name = "deeppoly-zero";
    run = Deeppoly.run ~slope:Deeppoly.Always_zero;
    warm = Some (Deeppoly.run_warm ~slope:Deeppoly.Always_zero) }

let deeppoly_one =
  { name = "deeppoly-one";
    run = Deeppoly.run ~slope:Deeppoly.Always_one;
    warm = Some (Deeppoly.run_warm ~slope:Deeppoly.Always_one) }

let interval = observed { name = "interval"; run = Interval.run; warm = None }

let zonotope = observed { name = "zonotope"; run = Zonotope.run; warm = None }

let symbolic = observed { name = "symbolic"; run = Symbolic.run; warm = None }

let all = [ deeppoly; deeppoly_zero; deeppoly_one; zonotope; symbolic; interval ]

let find name = List.find_opt (fun v -> v.name = name) all
