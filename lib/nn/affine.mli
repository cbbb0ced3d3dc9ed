(** Canonical affine–ReLU form of a network.

    Every verifier in this repository (interval propagation, DeepPoly-style
    back-substitution, the LP encoding) analyses networks in the shape

      input → W₀x+b₀ → ReLU → W₁x+b₁ → ReLU → … → W_{L-1}x+b_{L-1} → output

    [of_network] compiles an arbitrary [Network.t] into this form by
    materialising convolutions as matrices and fusing consecutive affine
    layers.  Every layer keeps its dense matrix; a layer less than half
    nonzero (in practice every convolution) also gets a compressed-row
    copy that {!tmv} uses.  ReLU units carry a global index
    [0 .. num_relus - 1] (layer-major) used by BaB split constraints;
    this is the [K] neuron count of the paper's Def. 1. *)

type t = private {
  weights : Abonn_tensor.Matrix.t array;  (** [L] weight matrices *)
  biases : float array array;             (** [L] bias vectors *)
  input_dim : int;
  output_dim : int;
  relu_offsets : int array;
      (** [L-1] entries: global index of the first ReLU of hidden layer
          [l] (all hidden layers are followed by a ReLU). *)
  num_relus : int;
  sparse : Abonn_tensor.Sparse.t option array;
      (** [L] entries: the CSR copy of [weights.(l)] when it is less
          than half nonzero.  Read it only through {!tmv}. *)
}

val of_network : Network.t -> t
(** Compile; raises [Invalid_argument] if the network does not end in an
    affine layer, starts with a ReLU, or has adjacent ReLUs. *)

val of_weights : (Abonn_tensor.Matrix.t * float array) list -> t
(** Build directly from a list of affine layers (ReLUs are implicit
    between consecutive entries).  Used in tests and tiny examples. *)

val num_layers : t -> int
(** Number of affine layers [L]. *)

val layer_width : t -> int -> int
(** [layer_width t l] is the width of pre-activation layer [l]. *)

val tmv : t -> int -> float array -> float array
(** [tmv t l x] is [Wₗᵀ x], the back-substitution step through layer
    [l].  It uses the layer's CSR copy when there is one and [x] is
    finite, and the dense kernel otherwise; the result is bit-identical
    to [Matrix.tmv t.weights.(l) x] either way
    (see {!Abonn_tensor.Sparse.tmv}). *)

val forward : t -> float array -> float array

val pre_activations : t -> float array -> float array array
(** [L] pre-activation vectors [ẑ₀ … ẑ_{L-1}] (the last one is the
    output). *)

val relu_position : t -> int -> int * int
(** [relu_position t k] maps a global ReLU index to [(layer, index)]
    where [layer] is the hidden layer (0-based).  Raises
    [Invalid_argument] when out of range. *)

val relu_index : t -> layer:int -> idx:int -> int
(** Inverse of [relu_position]. *)
