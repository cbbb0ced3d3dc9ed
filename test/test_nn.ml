(* Tests for Abonn_nn: layer forward/backward (gradients checked against
   finite differences), conv materialisation, affine compilation, trainer
   convergence on a separable toy problem, serialization round-trips. *)

module Matrix = Abonn_tensor.Matrix
module Vector = Abonn_tensor.Vector
module Rng = Abonn_util.Rng
module Layer = Abonn_nn.Layer
module Conv = Abonn_nn.Conv
module Network = Abonn_nn.Network
module Affine = Abonn_nn.Affine
module Builder = Abonn_nn.Builder
module Trainer = Abonn_nn.Trainer
module Serialize = Abonn_nn.Serialize

let check_float = Alcotest.(check (float 1e-6))
let vec = Alcotest.testable Vector.pp (Vector.approx_equal ~tol:1e-6)

(* A fixed small network: 2 -> 3 -> 2, weights chosen by hand. *)
let tiny_net () =
  let w1 = Matrix.of_rows [| [| 1.0; -1.0 |]; [| 2.0; 0.5 |]; [| -1.0; 1.0 |] |] in
  let b1 = [| 0.0; -1.0; 0.5 |] in
  let w2 = Matrix.of_rows [| [| 1.0; 1.0; 1.0 |]; [| -1.0; 0.0; 2.0 |] |] in
  let b2 = [| 0.1; -0.2 |] in
  Network.create [ Layer.linear w1 b1; Layer.Relu 3; Layer.linear w2 b2 ]

let test_network_forward () =
  let net = tiny_net () in
  let x = [| 1.0; 2.0 |] in
  (* z1 = [-1; 2; 1.5]; relu = [0; 2; 1.5]; y = [0+2+1.5+0.1; 0+0+3-0.2] *)
  Alcotest.check vec "forward" [| 3.6; 2.8 |] (Network.forward net x)

let test_network_dims () =
  let net = tiny_net () in
  Alcotest.(check int) "input" 2 (Network.input_dim net);
  Alcotest.(check int) "output" 2 (Network.output_dim net);
  Alcotest.(check int) "relus" 3 (Network.num_relus net);
  Alcotest.(check int) "neurons" 5 (Network.num_neurons net)

let test_network_trace () =
  let net = tiny_net () in
  let tr = Network.trace net [| 1.0; 2.0 |] in
  Alcotest.(check int) "trace length" 4 (Array.length tr);
  Alcotest.check vec "input kept" [| 1.0; 2.0 |] tr.(0);
  Alcotest.check vec "output last" (Network.forward net [| 1.0; 2.0 |]) tr.(3)

let test_network_create_rejects_mismatch () =
  let w = Matrix.zeros 3 2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Network.create [ Layer.linear w (Array.make 3 0.0); Layer.Relu 4 ]);
       false
     with Invalid_argument _ -> true)

(* Finite-difference check of the input gradient of a scalar output. *)
let finite_diff_grad f x =
  let eps = 1e-5 in
  Array.mapi
    (fun i _ ->
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- xp.(i) +. eps;
      xm.(i) <- xm.(i) -. eps;
      (f xp -. f xm) /. (2.0 *. eps))
    x

let test_input_gradient_matches_fd () =
  let rng = Rng.create 123 in
  let net = Builder.mlp rng ~dims:[ 4; 6; 3 ] in
  let d_out = [| 1.0; -2.0; 0.5 |] in
  (* x away from ReLU kinks with overwhelming probability *)
  let x = Array.init 4 (fun _ -> Rng.range rng (-1.0) 1.0) in
  let f x = Vector.dot d_out (Network.forward net x) in
  let g = Network.input_gradient net x ~d_out in
  let g_fd = finite_diff_grad f x in
  Alcotest.(check bool) "gradient matches finite differences" true
    (Vector.approx_equal ~tol:1e-4 g g_fd)

let test_param_gradient_descends () =
  (* One SGD step on a single sample must reduce that sample's loss. *)
  let rng = Rng.create 7 in
  let net = Builder.mlp rng ~dims:[ 3; 5; 2 ] in
  let x = [| 0.5; -0.3; 0.8 |] in
  let label = 1 in
  let loss net =
    let logits = Network.forward net x in
    fst (Trainer.cross_entropy_grad logits label)
  in
  let logits = Network.forward net x in
  let _, d_out = Trainer.cross_entropy_grad logits label in
  let _, grads = Network.backprop net x ~d_out in
  let net' = Network.apply_grads net grads ~lr:0.1 in
  Alcotest.(check bool) "loss decreased" true (loss net' < loss net)

(* --- Conv --- *)

let test_conv_geometry () =
  let rng = Rng.create 1 in
  let c = Conv.create rng ~in_channels:1 ~in_h:5 ~in_w:5 ~out_channels:2 ~kernel:3 ~stride:2 ~padding:1 in
  Alcotest.(check int) "out_h" 3 (Conv.out_h c);
  Alcotest.(check int) "out_w" 3 (Conv.out_w c);
  Alcotest.(check int) "input dim" 25 (Conv.input_dim c);
  Alcotest.(check int) "output dim" 18 (Conv.output_dim c)

let test_conv_known_value () =
  (* 1 channel, 3x3 input, 2x2 kernel of ones, stride 1, no padding. *)
  let rng = Rng.create 1 in
  let c0 = Conv.create rng ~in_channels:1 ~in_h:3 ~in_w:3 ~out_channels:1 ~kernel:2 ~stride:1 ~padding:0 in
  let c = { c0 with Conv.weight = Array.make 4 1.0; bias = [| 0.5 |] } in
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 |] in
  (* windows: [1,2,4,5]=12, [2,3,5,6]=16, [4,5,7,8]=24, [5,6,8,9]=28; +bias *)
  Alcotest.check vec "conv values" [| 12.5; 16.5; 24.5; 28.5 |] (Conv.forward c x)

let test_conv_matrix_agrees_with_forward () =
  let rng = Rng.create 42 in
  let c = Conv.create rng ~in_channels:2 ~in_h:4 ~in_w:4 ~out_channels:3 ~kernel:3 ~stride:1 ~padding:1 in
  let w, b = Conv.to_matrix c in
  for trial = 1 to 5 do
    ignore trial;
    let x = Array.init (Conv.input_dim c) (fun _ -> Rng.range rng (-1.0) 1.0) in
    let direct = Conv.forward c x in
    let via_matrix = Vector.add (Matrix.mv w x) b in
    Alcotest.(check bool) "materialisation agrees" true
      (Vector.approx_equal ~tol:1e-9 direct via_matrix)
  done

let test_conv_backward_matches_fd () =
  let rng = Rng.create 5 in
  let c = Conv.create rng ~in_channels:1 ~in_h:4 ~in_w:4 ~out_channels:2 ~kernel:2 ~stride:1 ~padding:0 in
  let x = Array.init (Conv.input_dim c) (fun _ -> Rng.range rng (-1.0) 1.0) in
  let d_out = Array.init (Conv.output_dim c) (fun _ -> Rng.range rng (-1.0) 1.0) in
  let f x = Vector.dot d_out (Conv.forward c x) in
  let d_in, _ = Conv.backward c ~input:x ~d_out in
  Alcotest.(check bool) "conv input grad" true
    (Vector.approx_equal ~tol:1e-4 d_in (finite_diff_grad f x))

(* --- Affine compilation --- *)

let test_affine_matches_network () =
  let rng = Rng.create 99 in
  let net = Builder.mlp rng ~dims:[ 3; 4; 4; 2 ] in
  let affine = Affine.of_network net in
  Alcotest.(check int) "relus" (Network.num_relus net) Affine.(affine.num_relus);
  for trial = 1 to 10 do
    ignore trial;
    let x = Array.init 3 (fun _ -> Rng.range rng (-2.0) 2.0) in
    Alcotest.(check bool) "same function" true
      (Vector.approx_equal ~tol:1e-9 (Network.forward net x) (Affine.forward affine x))
  done

let test_affine_convnet_matches () =
  let rng = Rng.create 77 in
  let net =
    Builder.convnet rng ~in_channels:1 ~in_h:6 ~in_w:6
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 2; padding = 1 } ]
      ~dense:[ 8 ] ~num_classes:3
  in
  let affine = Affine.of_network net in
  for trial = 1 to 5 do
    ignore trial;
    let x = Array.init 36 (fun _ -> Rng.uniform rng) in
    Alcotest.(check bool) "conv compile agrees" true
      (Vector.approx_equal ~tol:1e-8 (Network.forward net x) (Affine.forward affine x))
  done

let test_affine_fuses_consecutive_affine () =
  (* Linear;Linear;Relu;Linear must fuse to exactly 2 affine layers. *)
  let rng = Rng.create 3 in
  let l1 = Layer.random_linear rng ~in_dim:3 ~out_dim:4 in
  let l2 = Layer.random_linear rng ~in_dim:4 ~out_dim:5 in
  let l3 = Layer.random_linear rng ~in_dim:5 ~out_dim:2 in
  let net = Network.create [ l1; l2; Layer.Relu 5; l3 ] in
  let affine = Affine.of_network net in
  Alcotest.(check int) "two affine layers" 2 (Affine.num_layers affine);
  let x = [| 0.3; -0.2; 0.9 |] in
  Alcotest.(check bool) "fusion preserves semantics" true
    (Vector.approx_equal ~tol:1e-9 (Network.forward net x) (Affine.forward affine x))

let test_affine_relu_indexing_roundtrip () =
  let rng = Rng.create 11 in
  let net = Builder.mlp rng ~dims:[ 2; 3; 4; 2 ] in
  let affine = Affine.of_network net in
  Alcotest.(check int) "K" 7 Affine.(affine.num_relus);
  for k = 0 to 6 do
    let layer, idx = Affine.relu_position affine k in
    Alcotest.(check int) "roundtrip" k (Affine.relu_index affine ~layer ~idx)
  done;
  Alcotest.(check bool) "out of range" true
    (try ignore (Affine.relu_position affine 7); false with Invalid_argument _ -> true)

let test_affine_pre_activations () =
  let net = tiny_net () in
  let affine = Affine.of_network net in
  let pre = Affine.pre_activations affine [| 1.0; 2.0 |] in
  Alcotest.(check int) "two layers" 2 (Array.length pre);
  Alcotest.check vec "hidden pre-activation" [| -1.0; 2.0; 1.5 |] pre.(0);
  Alcotest.check vec "output" [| 3.6; 2.8 |] pre.(1)

let test_affine_rejects_trailing_relu () =
  let rng = Rng.create 3 in
  let l1 = Layer.random_linear rng ~in_dim:2 ~out_dim:3 in
  let net = Network.create [ l1; Layer.Relu 3 ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Affine.of_network net); false with Invalid_argument _ -> true)

(* --- Trainer --- *)

let blob_samples rng n =
  (* Two linearly separable Gaussian blobs in 2-D. *)
  Array.init n (fun i ->
      let label = i mod 2 in
      let cx = if label = 0 then -1.0 else 1.0 in
      { Trainer.features = [| cx +. (0.3 *. Rng.gaussian rng); 0.3 *. Rng.gaussian rng |];
        label })

let test_trainer_learns_blobs () =
  let rng = Rng.create 2024 in
  let net = Builder.mlp rng ~dims:[ 2; 8; 2 ] in
  let samples = blob_samples rng 200 in
  let before = Trainer.accuracy net samples in
  let config = { Trainer.default_config with epochs = 20 } in
  let net = Trainer.train ~config rng net samples in
  let after = Trainer.accuracy net samples in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy improves (%.2f -> %.2f)" before after)
    true
    (after >= 0.95)

let test_trainer_loss_decreases () =
  let rng = Rng.create 31 in
  let net = Builder.mlp rng ~dims:[ 2; 6; 2 ] in
  let samples = blob_samples rng 100 in
  let loss0 = Trainer.average_loss net samples in
  let config = { Trainer.default_config with epochs = 5 } in
  let net = Trainer.train ~config rng net samples in
  Alcotest.(check bool) "loss decreases" true (Trainer.average_loss net samples < loss0)

let test_softmax_normalises () =
  let p = Trainer.softmax [| 1.0; 2.0; 3.0 |] in
  check_float "sums to one" 1.0 (Array.fold_left ( +. ) 0.0 p);
  Alcotest.(check bool) "monotone" true (p.(0) < p.(1) && p.(1) < p.(2))

let test_softmax_stable_large_logits () =
  let p = Trainer.softmax [| 1000.0; 0.0 |] in
  Alcotest.(check bool) "no nan" true (not (Float.is_nan p.(0)));
  check_float "saturates" 1.0 p.(0)

(* --- Serialize --- *)

let test_serialize_roundtrip_mlp () =
  let rng = Rng.create 55 in
  let net = Builder.mlp rng ~dims:[ 3; 5; 2 ] in
  let net' = Serialize.of_string (Serialize.to_string net) in
  let x = [| 0.1; -0.7; 0.4 |] in
  Alcotest.check vec "roundtrip function" (Network.forward net x) (Network.forward net' x)

let test_serialize_roundtrip_conv () =
  let rng = Rng.create 56 in
  let net =
    Builder.convnet rng ~in_channels:1 ~in_h:5 ~in_w:5
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 1; padding = 0 } ]
      ~dense:[] ~num_classes:2
  in
  let net' = Serialize.of_string (Serialize.to_string net) in
  let x = Array.init 25 (fun i -> float_of_int i /. 25.0) in
  Alcotest.check vec "conv roundtrip" (Network.forward net x) (Network.forward net' x)

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (try ignore (Serialize.of_string "not a network"); false with Failure _ -> true);
  Alcotest.(check bool) "truncated" true
    (try ignore (Serialize.of_string "abonn-network 1 2\nrelu 3\n"); false
     with Failure _ -> true)

let test_serialize_file_roundtrip () =
  let rng = Rng.create 57 in
  let net = Builder.mlp rng ~dims:[ 2; 3; 2 ] in
  let path = Filename.temp_file "abonn_test" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save net path;
      let net' = Serialize.load path in
      let x = [| 0.5; -0.5 |] in
      Alcotest.check vec "file roundtrip" (Network.forward net x) (Network.forward net' x))

(* --- qcheck: network forward is piecewise linear => positively homogeneous
   along fixed directions between kinks is hard to test; instead test that
   forward is deterministic and Lipschitz on small perturbations. --- *)

let prop_forward_deterministic =
  QCheck.Test.make ~name:"forward deterministic" ~count:50
    QCheck.(array_of_size (QCheck.Gen.return 3) (float_bound_inclusive 2.0))
    (fun x ->
      let rng = Rng.create 1234 in
      let net = Builder.mlp rng ~dims:[ 3; 4; 2 ] in
      Vector.approx_equal (Network.forward net x) (Network.forward net x))

(* --- CSR storage of conv-derived layers --- *)

module Sparse = Abonn_tensor.Sparse
module Models = Abonn_data.Models
module Onnx = Abonn_nn.Onnx

let same_bits name (expected : float array) (actual : float array) =
  Array.iteri
    (fun j e ->
      if not (Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float actual.(j))) then
        Alcotest.failf "%s: output %d is %h, dense gives %h" name j actual.(j) e)
    expected

let num_convs net =
  List.length (List.filter (function Layer.Conv2d _ -> true | _ -> false) (Network.layers net))

(* Every conv-derived layer has a CSR copy and every dense layer has
   none; [Affine.tmv] equals the dense [Matrix.tmv] bit for bit on every
   layer, including inputs with zeros, signed zeros and non-finite
   entries (which take the dense kernel). *)
let check_sparse_layers name net =
  let affine = Affine.of_network net in
  let convs = num_convs net in
  let rng = Rng.create 99 in
  for l = 0 to Affine.num_layers affine - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s layer %d has CSR iff conv-derived" name l)
      (l < convs)
      (Option.is_some Affine.(affine.sparse.(l)));
    let w = Affine.(affine.weights.(l)) in
    let inputs =
      [ Array.init w.Matrix.rows (fun _ -> Rng.range rng (-2.0) 2.0);
        Array.init w.Matrix.rows (fun i ->
            if i mod 3 = 0 then 0.0 else if i mod 3 = 1 then -0.0 else Rng.range rng (-1.0) 1.0);
        Array.init w.Matrix.rows (fun i -> if i = 0 then infinity else 1.0);
        Array.init w.Matrix.rows (fun i -> if i = w.Matrix.rows - 1 then Float.nan else -1.0) ]
    in
    List.iter
      (fun x ->
        same_bits (Printf.sprintf "%s layer %d" name l) (Matrix.tmv w x) (Affine.tmv affine l x))
      inputs
  done

let test_zoo_conv_layers_sparse () =
  List.iter
    (fun (spec : Models.spec) ->
      let net = spec.Models.build (Rng.create 5) in
      Alcotest.(check bool) (spec.Models.name ^ " is a convnet") true (num_convs net > 0);
      check_sparse_layers spec.Models.name net)
    [ Models.cifar_base; Models.cifar_wide; Models.cifar_deep ]

let test_onnx_conv_layers_sparse () =
  let net = Models.cifar_deep.Models.build (Rng.create 6) in
  let read = Onnx.of_bytes (Onnx.to_bytes net) in
  Alcotest.(check int) "conv layers survive ONNX" (num_convs net) (num_convs read);
  check_sparse_layers "cifar_deep via ONNX" read

let test_mlp_layers_dense () =
  check_sparse_layers "mlp" (Builder.mlp (Rng.create 7) ~dims:[ 12; 16; 16; 4 ])

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "nn.network",
      [ Alcotest.test_case "forward" `Quick test_network_forward;
        Alcotest.test_case "dims" `Quick test_network_dims;
        Alcotest.test_case "trace" `Quick test_network_trace;
        Alcotest.test_case "mismatch rejected" `Quick test_network_create_rejects_mismatch;
        Alcotest.test_case "input grad vs fd" `Quick test_input_gradient_matches_fd;
        Alcotest.test_case "sgd step descends" `Quick test_param_gradient_descends;
        qtest prop_forward_deterministic
      ] );
    ( "nn.conv",
      [ Alcotest.test_case "geometry" `Quick test_conv_geometry;
        Alcotest.test_case "known value" `Quick test_conv_known_value;
        Alcotest.test_case "matrix agrees" `Quick test_conv_matrix_agrees_with_forward;
        Alcotest.test_case "backward vs fd" `Quick test_conv_backward_matches_fd
      ] );
    ( "nn.affine",
      [ Alcotest.test_case "mlp matches" `Quick test_affine_matches_network;
        Alcotest.test_case "convnet matches" `Quick test_affine_convnet_matches;
        Alcotest.test_case "fuses affine" `Quick test_affine_fuses_consecutive_affine;
        Alcotest.test_case "relu indexing" `Quick test_affine_relu_indexing_roundtrip;
        Alcotest.test_case "pre-activations" `Quick test_affine_pre_activations;
        Alcotest.test_case "trailing relu rejected" `Quick test_affine_rejects_trailing_relu
      ] );
    ( "nn.trainer",
      [ Alcotest.test_case "learns blobs" `Quick test_trainer_learns_blobs;
        Alcotest.test_case "loss decreases" `Quick test_trainer_loss_decreases;
        Alcotest.test_case "softmax normalises" `Quick test_softmax_normalises;
        Alcotest.test_case "softmax stable" `Quick test_softmax_stable_large_logits
      ] );
    ( "nn.serialize",
      [ Alcotest.test_case "mlp roundtrip" `Quick test_serialize_roundtrip_mlp;
        Alcotest.test_case "conv roundtrip" `Quick test_serialize_roundtrip_conv;
        Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
        Alcotest.test_case "file roundtrip" `Quick test_serialize_file_roundtrip
      ] );
    ( "nn.sparse",
      [ Alcotest.test_case "zoo conv layers stored as CSR" `Quick test_zoo_conv_layers_sparse;
        Alcotest.test_case "ONNX Conv layers stored as CSR" `Quick test_onnx_conv_layers_sparse;
        Alcotest.test_case "MLP layers stay dense" `Quick test_mlp_layers_dense
      ] )
  ]
