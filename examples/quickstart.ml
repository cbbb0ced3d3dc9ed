(* Quickstart: verify a small network against output properties, in the
   spirit of the paper's Fig. 1 running example.

     dune exec examples/quickstart.exe

   A 2-4-4-1 ReLU network over the unit square is checked against
   O(x) + d > 0 for two offsets d:

   - a *verified* case where the root AppVer call raises a false alarm
     (negative bound, spurious counterexample), so BaB has to split —
     exactly the situation of Fig. 1b;
   - a *violated* case where ABONN's guided exploration digs out a real
     counterexample.

   A callback sink on ABONN's [node_evaluated] events shows each
   expanded node Γ with its counterexample potentiality [[Γ]] (Def. 1). *)

module Verdict = Abonn_spec.Verdict
module Result = Abonn_bab.Result

let build_network () =
  (* Deterministic weights: the seed is part of the example. *)
  let rng = Abonn_util.Rng.create 3 in
  Abonn_nn.Builder.mlp rng ~dims:[ 2; 4; 4; 1 ]

let verify_with_offset network offset =
  let region = Abonn_spec.Region.create ~lower:[| 0.0; 0.0 |] ~upper:[| 1.0; 1.0 |] in
  let property = Abonn_spec.Property.single [| 1.0 |] offset in
  let problem =
    Abonn_spec.Problem.create ~name:"quickstart" ~network ~region ~property ()
  in
  Printf.printf "spec: forall x in [0,1]^2,  O(x) + %.2f > 0\n" offset;
  let root = Abonn_prop.Deeppoly.run problem [] in
  Printf.printf "root AppVer bound p-hat = %.4f%s\n" root.Abonn_prop.Outcome.phat
    (if root.Abonn_prop.Outcome.phat < 0.0 then "  (negative: split or find a counterexample)"
     else "");
  print_endline "ABONN exploration (depth, node Γ, reward [[Γ]]):";
  (* every expansion emits a [node_evaluated] event; print each one *)
  let print_node env =
    match env.Abonn_obs.Event.event with
    | Abonn_obs.Event.Node_evaluated { depth; gamma; reward; _ } ->
      Printf.printf "  depth=%d  Γ=%-16s  [[Γ]]=%s\n" depth gamma
        (Abonn_util.Table.fmt_float ~digits:4 reward)
    | _ -> ()
  in
  let abonn =
    Abonn_obs.Obs.with_sink (Abonn_obs.Sink.callback print_node) (fun () ->
        Abonn_core.Abonn.verify problem)
  in
  Printf.printf "ABONN verdict:        %s (%d AppVer calls, %d nodes)\n"
    (Verdict.to_string abonn.Result.verdict)
    abonn.Result.stats.Result.appver_calls abonn.Result.stats.Result.nodes;
  let baseline = Abonn_bab.Bfs.verify problem in
  Printf.printf "BaB-baseline verdict: %s (%d AppVer calls)\n"
    (Verdict.to_string baseline.Result.verdict)
    baseline.Result.stats.Result.appver_calls;
  (match Verdict.counterexample abonn.Result.verdict with
   | Some x ->
     Printf.printf "counterexample: (%.4f, %.4f) with margin %.4f\n" x.(0) x.(1)
       (Abonn_spec.Problem.concrete_margin problem x)
   | None -> print_endline "property holds on the whole input region");
  print_newline ()

let () =
  let network = build_network () in
  print_endline "== case 1: certifiable property with a false alarm at the root ==";
  verify_with_offset network 1.36;
  print_endline "== case 2: violated property ==";
  verify_with_offset network 1.0
