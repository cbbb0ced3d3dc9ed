(** Compressed-row (CSR) matrices for the transposed products of
    back-substitution.

    Convolution layers materialised as matrices are mostly zeros (a 3×3
    kernel touches 9 of a row's inputs per channel).  A CSR copy lets
    [tmv] visit only the stored nonzeros.  It is a companion to a dense
    {!Matrix.t}, never a replacement: it is built only when it pays.
    Entries live in Bigarrays, outside the OCaml heap, so the copy adds
    its own size to resident memory and nothing to the major heap that
    the collector's space overhead would multiply. *)

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  rows : int;
  cols : int;
  row_start : int array;
      (** length [rows + 1]; row [i]'s entries are
          [row_start.(i) .. row_start.(i + 1) - 1] *)
  col_idx : int32s;  (** column of each entry, ascending within a row *)
  values : floats;  (** nonzero value of each entry *)
}

val of_dense : Matrix.t -> t option
(** CSR copy of the matrix's nonzero entries, or [None] when at least
    half the entries are nonzero (the dense kernel is then no slower). *)

val tmv : t -> float array -> float array
(** [tmv (of_dense m) x] equals [Matrix.tmv m x] bit for bit whenever
    every entry of [x] is finite: both add the nonzero products
    [m_ij · x_i] into output [j] in ascending [i], and the products this
    kernel skips are signed zeros, which leave every partial sum
    unchanged (a sum that starts at [+0.0] never becomes [-0.0]).  With
    an infinite or NaN [x_i] the dense kernel's [0 · x_i] is NaN and the
    results differ. *)
