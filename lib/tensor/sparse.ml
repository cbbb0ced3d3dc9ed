open Bigarray

type int32s = (int32, int32_elt, c_layout) Array1.t
type floats = (float, float64_elt, c_layout) Array1.t

type t = {
  rows : int;
  cols : int;
  row_start : int array;
  col_idx : int32s;
  values : floats;
}

let of_dense (m : Matrix.t) =
  let data = m.Matrix.data in
  let nz = Array.fold_left (fun n v -> if v <> 0.0 then n + 1 else n) 0 data in
  if 2 * nz >= m.Matrix.rows * m.Matrix.cols then None
  else begin
    let row_start = Array.make (m.Matrix.rows + 1) 0 in
    let col_idx = Array1.create int32 c_layout nz in
    let values = Array1.create float64 c_layout nz in
    let k = ref 0 in
    for i = 0 to m.Matrix.rows - 1 do
      let off = i * m.Matrix.cols in
      for j = 0 to m.Matrix.cols - 1 do
        let v = data.(off + j) in
        if v <> 0.0 then begin
          col_idx.{!k} <- Int32.of_int j;
          values.{!k} <- v;
          incr k
        end
      done;
      row_start.(i + 1) <- !k
    done;
    Some { rows = m.Matrix.rows; cols = m.Matrix.cols; row_start; col_idx; values }
  end

(* Same loop nest as [Matrix.tmv] — rows ascending, zero inputs skipped —
   restricted to the stored nonzeros, so each output receives the same
   nonzero products in the same order. *)
let tmv m x =
  if m.rows <> Array.length x then invalid_arg "Sparse.tmv: dimension mismatch";
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = m.row_start.(i) to m.row_start.(i + 1) - 1 do
        let j = Int32.to_int m.col_idx.{k} in
        y.(j) <- y.(j) +. (m.values.{k} *. xi)
      done
  done;
  y
