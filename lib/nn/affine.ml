module Matrix = Abonn_tensor.Matrix
module Sparse = Abonn_tensor.Sparse

type t = {
  weights : Matrix.t array;
  biases : float array array;
  input_dim : int;
  output_dim : int;
  relu_offsets : int array;
  num_relus : int;
  sparse : Sparse.t option array;
}

let layer_as_affine = function
  | Layer.Linear { weight; bias } -> Some (weight, Array.copy bias)
  | Layer.Conv2d c -> Some (Conv.to_matrix c)
  | Layer.Relu _ -> None

(* Compose g after f: (w2, b2) ∘ (w1, b1) = (w2 w1, w2 b1 + b2). *)
let compose (w1, b1) (w2, b2) =
  let w = Matrix.matmul w2 w1 in
  let b = Matrix.mv w2 b1 in
  let b = Array.mapi (fun i v -> v +. b2.(i)) b in
  (w, b)

let of_pairs pairs =
  match pairs with
  | [] -> invalid_arg "Affine.of_pairs: no affine layers"
  | (w0, _) :: _ ->
    let arr = Array.of_list pairs in
    let n = Array.length arr in
    let weights = Array.map fst arr in
    let biases = Array.map snd arr in
    let relu_offsets = Array.make (Stdlib.max 0 (n - 1)) 0 in
    let acc = ref 0 in
    for l = 0 to n - 2 do
      relu_offsets.(l) <- !acc;
      acc := !acc + weights.(l).Matrix.rows
    done;
    { weights;
      biases;
      input_dim = w0.Matrix.cols;
      output_dim = weights.(n - 1).Matrix.rows;
      relu_offsets;
      num_relus = !acc;
      sparse = Array.map Sparse.of_dense weights }

let of_weights pairs =
  List.iter
    (fun ((w : Matrix.t), b) ->
      if Array.length b <> w.Matrix.rows then
        invalid_arg "Affine.of_weights: bias length must equal row count")
    pairs;
  of_pairs pairs

let of_network net =
  (* Walk the layers, fusing runs of affine layers; ReLUs separate runs. *)
  let rec walk layers current acc =
    match layers with
    | [] ->
      begin match current with
      | Some pair -> List.rev (pair :: acc)
      | None -> invalid_arg "Affine.of_network: network must end in an affine layer"
      end
    | layer :: rest ->
      begin match layer_as_affine layer, current with
      | Some pair, None -> walk rest (Some pair) acc
      | Some pair, Some prev -> walk rest (Some (compose prev pair)) acc
      | None, Some prev -> walk rest None (prev :: acc)
      | None, None ->
        invalid_arg "Affine.of_network: ReLU at the start or two adjacent ReLUs"
      end
  in
  of_pairs (walk (Network.layers net) None [])

let num_layers t = Array.length t.weights

let layer_width t l = t.weights.(l).Matrix.rows

(* The CSR kernel skips the [0 · x_i] terms, which are signed zeros only
   for finite [x_i].  Coefficients can be non-finite (an unbounded input
   region makes the ReLU relaxation NaN), and such an input keeps the
   dense kernel, so the result never depends on the storage format. *)
let all_finite (x : float array) =
  let rec go i = i < 0 || (Float.is_finite x.(i) && go (i - 1)) in
  go (Array.length x - 1)

let tmv t l x =
  match t.sparse.(l) with
  | Some s when all_finite x -> Sparse.tmv s x
  | Some _ | None -> Matrix.tmv t.weights.(l) x

let forward t x =
  let n = num_layers t in
  let cur = ref x in
  for l = 0 to n - 1 do
    let z = Matrix.mv t.weights.(l) !cur in
    let z = Array.mapi (fun i v -> v +. t.biases.(l).(i)) z in
    cur := if l < n - 1 then Array.map (fun v -> Float.max 0.0 v) z else z
  done;
  !cur

let pre_activations t x =
  let n = num_layers t in
  let out = Array.make n [||] in
  let cur = ref x in
  for l = 0 to n - 1 do
    let z = Matrix.mv t.weights.(l) !cur in
    let z = Array.mapi (fun i v -> v +. t.biases.(l).(i)) z in
    out.(l) <- z;
    if l < n - 1 then cur := Array.map (fun v -> Float.max 0.0 v) z
  done;
  out

let relu_position t k =
  if k < 0 || k >= t.num_relus then invalid_arg "Affine.relu_position: out of range";
  let n_hidden = Array.length t.relu_offsets in
  let rec find l =
    if l = n_hidden - 1 || t.relu_offsets.(l + 1) > k then (l, k - t.relu_offsets.(l))
    else find (l + 1)
  in
  find 0

let relu_index t ~layer ~idx =
  if layer < 0 || layer >= Array.length t.relu_offsets then
    invalid_arg "Affine.relu_index: bad layer";
  if idx < 0 || idx >= layer_width t layer then invalid_arg "Affine.relu_index: bad idx";
  t.relu_offsets.(layer) + idx
