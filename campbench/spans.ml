(* In-memory span recorder and the traced wrappers around the public
   [Appver.t], [Branching.t] and [Attack.t] records.

   Only the traced run installs these wrappers; timed runs hand the
   engines the library values untouched.  Every wrapped call records one
   span (name, start, end, parent, instance) plus a few per-call facts
   the per-layer metrics need.  Spans nest through an explicit stack, so
   a layer's self time is its span time minus its child spans. *)

module Appver = Abonn_prop.Appver
module Outcome = Abonn_prop.Outcome
module Branching = Abonn_bab.Branching
module Attack = Abonn_attack.Attack

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, -1 at the top *)
  name : string;
  instance : string;
  start : float;
  stop : float;
  child_s : float;  (** summed duration of the direct children *)
  words : float;  (** [Gc.minor_words] allocated inside the span *)
  warm : bool;  (** prop/lp: the call got a parent state *)
  hit : bool;  (** prop/lp: bound proved the node; attack: found a cex *)
  candidates : int;  (** branch: splittable neurons considered *)
}

type open_span = {
  o_id : int;
  o_parent : int;
  o_name : string;
  o_start : float;
  o_words : float;
  mutable o_child_s : float;
}

let instance = ref ""
let next_id = ref 0
let stack : open_span list ref = ref []
let closed : span list ref = ref []

let reset ~id =
  instance := id;
  next_id := 0;
  stack := [];
  closed := []

let recorded () = List.rev !closed

let open_span name =
  let parent = match !stack with s :: _ -> s.o_id | [] -> -1 in
  let s =
    { o_id = !next_id; o_parent = parent; o_name = name;
      o_start = Unix.gettimeofday (); o_words = Gc.minor_words ();
      o_child_s = 0.0 }
  in
  incr next_id;
  stack := s :: !stack;
  s

let close_span ?(warm = false) ?(hit = false) ?(candidates = 0) s =
  let stop = Unix.gettimeofday () in
  let words = Gc.minor_words () -. s.o_words in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with p :: _ -> p.o_child_s <- p.o_child_s +. (stop -. s.o_start) | [] -> ());
  closed :=
    { id = s.o_id; parent = s.o_parent; name = s.o_name; instance = !instance;
      start = s.o_start; stop; child_s = s.o_child_s; words; warm; hit; candidates }
    :: !closed

(* Run [f] inside a span.  An exception (the wall-cap alarm included)
   still closes the span, so interrupted instances keep their timeline. *)
let within ?(facts = fun _ -> (false, 0)) ?(warm = false) name f =
  let s = open_span name in
  match f () with
  | v ->
    let hit, candidates = facts v in
    close_span ~warm ~hit ~candidates s;
    v
  | exception e ->
    close_span ~warm s;
    raise e

(* The layer wrappers.  [appver] keeps [warm], so the bound cache stays on
   exactly as in the untraced run. *)
let appver layer (v : Appver.t) =
  let facts (o : Outcome.t) = (Outcome.proved o, 0) in
  { v with
    Appver.run = (fun p g -> within ~facts layer (fun () -> v.Appver.run p g));
    warm =
      Option.map
        (fun w ?state p g ->
          within ~facts:(fun (o, _) -> facts o) ~warm:(state <> None) layer
            (fun () -> w ?state p g))
        v.Appver.warm }

let branching (h : Branching.t) =
  let facts = function
    | Some (c : Branching.choice) -> (true, c.Branching.candidates)
    | None -> (false, 0)
  in
  { h with
    Branching.prepare =
      (fun problem ->
        let choose = within "branch.prepare" (fun () -> h.Branching.prepare problem) in
        fun ~gamma ~pre_bounds -> within ~facts "branch" (fun () -> choose ~gamma ~pre_bounds)) }

let attack (a : Attack.t) =
  let facts r = (r <> None, 0) in
  { a with Attack.run = (fun rng p -> within ~facts "attack" (fun () -> a.Attack.run rng p)) }
