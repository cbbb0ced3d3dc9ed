(* The three campaign workloads: a fixed instance list made from the
   seed, and one engine driven through its public entry point. *)

module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Acas = Abonn_data.Acas
module Appver = Abonn_prop.Appver
module Branching = Abonn_bab.Branching
module Attack = Abonn_attack.Attack
module Budget = Abonn_util.Budget
module Problem = Abonn_spec.Problem
module Result = Abonn_bab.Result

type instance = {
  id : string;
  problem : Problem.t;  (** what the engine is given *)
  reference : Problem.t;
      (** the benchmark's own copy, used to re-validate counterexamples *)
}

(* Identity in timed runs; the [Spans] wrappers in the traced run. *)
type tools = {
  appver : string -> Appver.t -> Appver.t;
  branching : Branching.t -> Branching.t;
  attack : Attack.t -> Attack.t;
}

let untraced = { appver = (fun _ v -> v); branching = Fun.id; attack = Fun.id }
let traced = { appver = Spans.appver; branching = Spans.branching; attack = Spans.attack }

(* Set-up phases, timed separately for the traced breakdown. *)
type phase = Train | Calibrate | Onnx_read | Vnnlib_read

type timer = { time : 'a. phase -> (unit -> 'a) -> 'a }

type t = {
  name : string;
  calls : int;  (** AppVer-call budget per instance *)
  cap : float;  (** wall-clock cap per instance, seconds *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  setup : seed:int -> timer -> instance list;
  verify : tools -> Budget.t -> Problem.t -> Result.t;
}

(* (family, models, instances per model).  Which instances a model can
   decide early depends on the model, so one model per family makes the
   campaign totals swing from seed to seed; families cheap enough to
   train twice get two models, trained from [seed] and from a seed
   derived from it.  The MLPs cost about 1 ms per DeepPoly call,
   cifar_deep about 36 ms. *)
let zoo_families =
  [ ("mnist_l2", 2, 8); ("mnist_l4", 2, 8); ("cifar_base", 2, 4); ("cifar_wide", 2, 3);
    ("cifar_deep", 1, 4) ]

let triage_families = [ ("mnist_l2", 2, 12); ("mnist_l4", 2, 12) ]
let acas_networks = 50
let scratch_dir = ".campbench"

(* The first [count] instances of [Instances.generate] (default bands)
   for each model.  Model 0 is trained from [seed] and keeps the
   library's instance ids; model r > 0 prefixes them with "rN:". *)
let zoo_instances ~families ~seed t =
  List.concat_map
    (fun (name, models, count) ->
      let spec = Option.get (Models.find name) in
      List.concat_map
        (fun r ->
          let seed = if r = 0 then seed else (seed * 7919) + (r * 104729) in
          let trained = t.time Train (fun () -> Models.train ~seed spec) in
          t.time Calibrate (fun () -> Instances.generate ~count trained)
          |> List.map (fun (i : Instances.t) ->
                 let id = if r = 0 then i.Instances.id else Printf.sprintf "r%d:%s" r i.Instances.id in
                 { id; problem = i.Instances.problem; reference = i.Instances.problem }))
        (List.init models Fun.id))
    families

let zoo_abonn =
  { name = "zoo-abonn";
    calls = 100;
    cap = 0.5;
    setups = 1;
    setup = zoo_instances ~families:zoo_families;
    verify =
      (fun tools budget problem ->
        let config =
          Abonn_core.Config.make
            ~appver:(tools.appver "prop" Appver.deeppoly)
            ~heuristic:(tools.branching Branching.deepsplit) ()
        in
        Abonn_core.Abonn.verify ~config ~budget ~domains:1 problem) }

let mnist_triage =
  { name = "mnist-triage";
    calls = 100;
    cap = 0.4;
    setups = 1;
    setup = zoo_instances ~families:triage_families;
    verify =
      (fun tools budget problem ->
        (* the CLI's [--engine bab-baseline --lp-triage] *)
        let appver =
          Appver.triaged
            ~cheap:(tools.appver "prop" Appver.deeppoly)
            ~expensive:(tools.appver "lp" Abonn_lp.Lp_verifier.appver) ()
        in
        Abonn_bab.Bfs.verify ~appver ~heuristic:(tools.branching Branching.deepsplit)
          ~budget ~domains:1 problem) }

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ACAS-shaped 6x50 networks with P1-P4, written as ONNX + VNNLIB and read
   back through the front-end; the in-memory [Acas.problem] is the
   reference copy, so the counterexample check also covers ingestion. *)
let acas_instances ~seed t =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  List.concat_map
    (fun k ->
      let net_seed = (seed * 1000) + k in
      let onnx = Filename.concat scratch_dir (Printf.sprintf "acas_%d.onnx" k) in
      let specs =
        t.time Calibrate (fun () ->
            let net = Acas.network ~seed:net_seed () in
            write_file onnx (Abonn_nn.Onnx.to_bytes net);
            List.map
              (fun pid ->
                let path =
                  Filename.concat scratch_dir
                    (Printf.sprintf "acas_%d_%s.vnnlib" k (Acas.property_name pid))
                in
                write_file path
                  (Abonn_spec.Vnnlib.to_string (Acas.spec ~network:net ~seed:net_seed pid));
                (pid, path))
              Acas.property_ids)
      in
      let network =
        t.time Onnx_read (fun () -> Abonn_nn.Onnx.of_bytes ~source:onnx (read_file onnx))
      in
      List.map
        (fun (pid, path) ->
          let name = Printf.sprintf "acas_%d/%s" net_seed (Acas.property_name pid) in
          let problems =
            t.time Vnnlib_read (fun () ->
                Abonn_spec.Vnnlib.problems ~name ~network
                  (Abonn_spec.Vnnlib.parse ~source:path (read_file path)))
          in
          match problems with
          | [ problem ] ->
            { id = name; problem; reference = Acas.problem ~seed:net_seed pid }
          | ps ->
            failwith
              (Printf.sprintf "%s: expected one VNNLIB disjunct, got %d" name
                 (List.length ps)))
        specs)
    (List.init acas_networks Fun.id)

let acas_crown =
  { name = "acas-crown";
    calls = 8;
    cap = 1.0;
    setups = 3;
    setup = acas_instances;
    verify =
      (fun tools budget problem ->
        Abonn_crown.Alphabeta.verify
          ~attack:(tools.attack Attack.best_effort)
          ~heuristic:(tools.branching Branching.fsb) ~budget ~domains:1 problem) }

let all = [ zoo_abonn; mnist_triage; acas_crown ]
let find name = List.find_opt (fun w -> w.name = name) all
