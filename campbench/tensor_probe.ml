(* Times [Matrix.tmv] and [Matrix.matmul] on the weight shapes of the
   workload's own networks.  Multiply-add counts are computed from the
   shapes (rows x cols per tmv, rows x cols x [batch] per matmul), not
   counted inside the kernels. *)

module Matrix = Abonn_tensor.Matrix
module Rng = Abonn_util.Rng

let batch = 16
let min_time = 0.05

type kernel = {
  madds : float;  (** one pass over every shape, computed from the shapes *)
  seconds : float;  (** time of one such pass *)
}

let gflops k = if k.seconds > 0.0 then 2.0 *. k.madds /. k.seconds /. 1e9 else 0.0

(* Repeat [f] (worth [madds] multiply-adds) until [min_time] has passed;
   the time is per repetition. *)
let time_kernel madds f =
  let t0 = Unix.gettimeofday () in
  let rec loop n =
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < min_time then loop (n + 1) else { madds; seconds = dt /. float_of_int n }
  in
  loop 1

let add a b = { madds = a.madds +. b.madds; seconds = a.seconds +. b.seconds }
let zero = { madds = 0.0; seconds = 0.0 }

(* [shapes] are (rows, cols) of weight matrices; duplicates are probed once. *)
let run shapes =
  let rng = Rng.create 1 in
  List.sort_uniq compare shapes
  |> List.fold_left
       (fun (tmv, mm) (rows, cols) ->
         let w = Matrix.random_gaussian rng rows cols ~stddev:1.0 in
         let x = Array.init rows (fun _ -> Rng.range rng (-1.0) 1.0) in
         let b = Matrix.random_gaussian rng cols batch ~stddev:1.0 in
         let madds = float_of_int (rows * cols) in
         ( add tmv (time_kernel madds (fun () -> Matrix.tmv w x)),
           add mm (time_kernel (madds *. float_of_int batch) (fun () -> Matrix.matmul w b)) ))
       (zero, zero)
