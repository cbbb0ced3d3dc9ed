(* Campaign benchmark: one workload per process, a fixed instance list
   made from the seed, each instance taken to a verdict or to its budget.

     bash campbench/run.sh --workload zoo-abonn --seed 7 --seconds 20 --trace 0

   Timed rounds (--trace 0) report the end-to-end metrics; --trace 1 runs
   one timed round and one traced round, checks that they agree, and
   reports the per-layer metrics.  The last line of standard output is
   one JSON object; the lines before it are a human-readable table.
   See campbench/README.md for the metric definitions. *)

module Problem = Abonn_spec.Problem
module Verdict = Abonn_spec.Verdict
module Result = Abonn_bab.Result
module Budget = Abonn_util.Budget
module W = Workloads

let default_seed = 7
let expected_file = "campbench/expected_verdicts.tsv"

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* --- set-up ------------------------------------------------------- *)

type setup = {
  instances : W.instance list;
  setup_s : float list;  (** one duration per set-up *)
  phases : (W.phase * float) list list;  (** per set-up: phase durations *)
}

let run_setups (w : W.t) ~seed ~process_start =
  let rec go k acc_s acc_p =
    let phases = ref [] in
    let timer =
      { W.time =
          (fun phase f ->
            let t = Unix.gettimeofday () in
            let v = f () in
            phases := (phase, Unix.gettimeofday () -. t) :: !phases;
            v) }
    in
    (* the first set-up counts from process start: that is what a user
       waits for before the first engine call *)
    let t0 = if k = 0 then process_start else Unix.gettimeofday () in
    let instances = w.W.setup ~seed timer in
    let d = Unix.gettimeofday () -. t0 in
    if k + 1 >= w.W.setups then
      { instances; setup_s = List.rev (d :: acc_s); phases = List.rev (!phases :: acc_p) }
    else go (k + 1) (d :: acc_s) (!phases :: acc_p)
  in
  go 0 [] []

let phase_s (s : setup) phase =
  median
    (List.map
       (fun ps -> sum (List.filter_map (fun (p, d) -> if p = phase then Some d else None) ps))
       s.phases)

(* --- one round ---------------------------------------------------- *)

type run = {
  inst : W.instance;
  report : Sandbox.report;
  wall : float;  (** parent-side: fork to reap *)
}

let verdict_of (r : run) =
  match r.report.Sandbox.outcome with
  | Sandbox.Finished res -> Some res.Result.verdict
  | Sandbox.Capped_at_wall -> Some Verdict.Timeout
  | Sandbox.Crashed _ -> None

let solved r = match verdict_of r with Some v -> Verdict.is_solved v | None -> false

let verdict_name = function
  | Some Verdict.Verified -> "verified"
  | Some (Verdict.Falsified _) -> "falsified"
  | Some Verdict.Timeout -> "timeout"
  | None -> "crashed"

let run_round (w : W.t) ~traced instances =
  let tools = if traced then W.traced else W.untraced in
  let t0 = Unix.gettimeofday () in
  let runs =
    List.map
      (fun (inst : W.instance) ->
        let verify () =
          let budget = Budget.combine ~calls:w.W.calls ~seconds:w.W.cap () in
          let go () = w.W.verify tools budget inst.W.problem in
          if traced then Spans.within "search" go else go ()
        in
        let report, wall = Sandbox.run ~cap:w.W.cap ~traced ~id:inst.W.id verify in
        { inst; report; wall })
      instances
  in
  (runs, Unix.gettimeofday () -. t0)

(* --- correctness -------------------------------------------------- *)

let load_expected workload =
  match In_channel.with_open_text expected_file In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           match String.split_on_char '\t' line with
           | [ wl; id; v ] when wl = workload -> Some (id, v)
           | _ -> None)

(* Problems found in one round: crashes, invalid counterexamples, and
   verified<->falsified flips against the expected table (default seed)
   or against the first round. *)
let check_round ~expected ~first runs =
  List.filter_map
    (fun r ->
      let id = r.inst.W.id in
      let flip want got =
        match want, got with
        | "verified", "falsified" | "falsified", "verified" ->
          Some (Printf.sprintf "%s: %s, expected %s" id got want)
        | _ -> None
      in
      match r.report.Sandbox.outcome with
      | Sandbox.Crashed msg -> Some (Printf.sprintf "%s: %s" id msg)
      | Sandbox.Finished { Result.verdict = Verdict.Falsified x; _ }
        when not (Problem.is_counterexample r.inst.W.reference x) ->
        Some (id ^ ": counterexample fails re-validation")
      | _ ->
        let got = verdict_name (verdict_of r) in
        let from_table =
          match expected with
          | None -> None
          | Some table -> (
            match List.assoc_opt id table with
            | None -> Some (id ^ ": not in the expected-verdict table")
            | Some want -> flip want got)
        in
        let from_first =
          match List.find_opt (fun f -> f.inst.W.id = id) first with
          | Some f -> flip (verdict_name (verdict_of f)) got
          | None -> None
        in
        (match from_table with Some _ -> from_table | None -> from_first))
    runs

(* The traced round must reproduce the timed one: same verdict, nodes and
   AppVer calls on every instance that ended inside its call budget in
   both rounds.  A wall-capped instance stops at a timing-dependent
   point, so it is not compared. *)
let check_traced ~calls timed traced =
  let call_bound r =
    match r.report.Sandbox.outcome with
    | Sandbox.Finished res ->
      Verdict.is_solved res.Result.verdict || res.Result.stats.Result.appver_calls >= calls
    | _ -> false
  in
  List.fold_left2
    (fun (compared, problems) a b ->
      match a.report.Sandbox.outcome, b.report.Sandbox.outcome with
      | Sandbox.Finished x, Sandbox.Finished y when call_bound a && call_bound b ->
        let show (res : Result.t) =
          Printf.sprintf "%s/%d nodes/%d calls"
            (verdict_name (Some res.Result.verdict))
            res.Result.stats.Result.nodes res.Result.stats.Result.appver_calls
        in
        ( (a, b) :: compared,
          if show x = show y then problems
          else
            Printf.sprintf "%s: traced run differs (%s vs %s)" a.inst.W.id (show y) (show x)
            :: problems )
      | _ -> (compared, problems))
    ([], []) timed traced

(* --- metrics ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let peak_rss_mb runs =
  let own = Sandbox.hwm_kb () in
  let kids = List.fold_left (fun acc r -> max acc r.report.Sandbox.hwm_kb) 0 runs in
  float_of_int (max own kids) /. 1024.0

(* The highest percentile of per-instance wall time with at least ten
   instances beyond it. *)
let tail per_instance =
  let walls = Array.of_list (List.map snd per_instance) in
  Array.sort compare walls;
  let n = Array.length walls in
  let k = Stdlib.max 0 (n - 11) in
  m (Printf.sprintf "verdict_p%d_s" (100 * (k + 1) / n)) "s" walls.(k)

let end_to_end (w : W.t) (s : setup) rounds =
  let first, _ = List.hd rounds in
  let per_instance =
    List.mapi
      (fun i r ->
        (r, median (List.map (fun (runs, _) -> (List.nth runs i).wall) rounds)))
      first
  in
  let n = float_of_int (List.length per_instance) in
  let par2 =
    sum (List.map (fun (r, wall) -> if solved r then wall else 2.0 *. w.W.cap) per_instance)
    /. n
  in
  (* gated in BENCHMARK.json, then printed in the table only: these two
     vary too much across seeds to gate (README.md) *)
  ( [ m "setup_s" "s" (median s.setup_s);
      m "campaign_s" "s" (median (List.map snd rounds));
      m "par2_s" "s" par2;
      m "peak_rss_mb" "MB" (peak_rss_mb (List.concat_map fst rounds)) ],
    [ m "verdict_p50_s" "s" (median (List.map snd per_instance)); tail per_instance;
      m "solved" "count" (float_of_int (List.length (List.filter solved first))) ] )

let spans_named runs name =
  List.concat_map
    (fun r -> List.filter (fun (sp : Spans.span) -> sp.Spans.name = name) r.report.Sandbox.spans)
    runs

let dur (sp : Spans.span) = sp.Spans.stop -. sp.Spans.start
let count_if p l = float_of_int (List.length (List.filter p l))

let counter runs pred =
  float_of_int
    (List.fold_left
       (fun acc r ->
         List.fold_left
           (fun acc (k, v) -> if pred k then acc + v else acc)
           acc r.report.Sandbox.counters)
       0 runs)

let timer runs key =
  List.fold_left
    (fun (c, t) r ->
      match List.assoc_opt key r.report.Sandbox.timers with
      | Some (c', t') -> (c + c', t +. t')
      | None -> (c, t))
    (0, 0.0) runs

let per_layer (s : setup) ~timed ~traced ~overhead ~tensor =
  let prop = spans_named traced "prop" and lp = spans_named traced "lp" in
  (* engines without an AppVer parameter (Alphabeta) run DeepPoly inside:
     read the library's own counter for those, in the traced run only *)
  let in_engine_calls, in_engine_s =
    if prop = [] then timer traced "appver.deeppoly" else (0, 0.0)
  in
  let warm_calls =
    if prop = [] then counter traced (( = ) "appver.cache.prefix_hits")
    else count_if (fun sp -> sp.Spans.warm) prop
  in
  let prop_calls = float_of_int (List.length prop + in_engine_calls) in
  let prop_s = sum (List.map dur prop) +. in_engine_s in
  let lp_calls = float_of_int (List.length lp) and lp_s = sum (List.map dur lp) in
  let branch = spans_named traced "branch" and attack = spans_named traced "attack" in
  let branch_s = sum (List.map dur branch) in
  let search = spans_named traced "search" in
  let search_s = sum (List.map dur search) in
  let self_s =
    sum (List.map (fun sp -> dur sp -. sp.Spans.child_s) search) -. in_engine_s
  in
  let finished =
    List.filter_map
      (fun r ->
        match r.report.Sandbox.outcome with
        | Sandbox.Finished res -> Some (res, r.report.Sandbox.engine_s)
        | _ -> None)
      timed
  in
  let nodes = sum (List.map (fun (res, _) -> float_of_int res.Result.stats.Result.nodes) finished) in
  let solved_calls =
    List.filter_map
      (fun (res, _) ->
        if Verdict.is_solved res.Result.verdict then
          Some (float_of_int res.Result.stats.Result.appver_calls)
        else None)
      finished
  in
  let tmv, matmul = tensor in
  [ m "prop.calls" "count" prop_calls;
    m "prop.busy_s" "s" prop_s;
    m "prop.ms_per_call" "ms" (1e3 *. ratio prop_s prop_calls);
    m "prop.warm_share" "fraction" (ratio warm_calls prop_calls);
    m "prop.proved_share" "fraction" (ratio (count_if (fun sp -> sp.Spans.hit) prop) prop_calls);
    m "prop.alloc_mwords" "Mwords" (sum (List.map (fun sp -> sp.Spans.words) prop) /. 1e6);
    m "tensor.tmv_gflops" "GFLOP/s" (Tensor_probe.gflops tmv);
    m "tensor.matmul_gflops" "GFLOP/s" (Tensor_probe.gflops matmul);
    m "tensor.tmv_madds" "count" tmv.Tensor_probe.madds;
    m "tensor.matmul_madds" "count" matmul.Tensor_probe.madds;
    m "lp.calls" "count" lp_calls;
    m "lp.busy_s" "s" lp_s;
    m "lp.ms_per_call" "ms" (1e3 *. ratio lp_s lp_calls);
    m "lp.escalation_share" "fraction" (ratio lp_calls prop_calls);
    m "lp.decided_share" "fraction" (ratio (count_if (fun sp -> sp.Spans.hit) lp) lp_calls);
    m "lp.warm_pivots" "count" (counter traced (( = ) "lp.warm.pivots"));
    m "lp.warm_fallback_share" "fraction"
      (ratio (counter traced (( = ) "lp.warm.fallbacks")) lp_calls);
    m "branch.prepare_s" "s" (sum (List.map dur (spans_named traced "branch.prepare")));
    m "branch.calls" "count" (float_of_int (List.length branch));
    m "branch.busy_s" "s" branch_s;
    m "branch.us_per_call" "us" (1e6 *. ratio branch_s (float_of_int (List.length branch)));
    m "branch.candidates_mean" "count"
      (ratio
         (sum (List.map (fun sp -> float_of_int sp.Spans.candidates) branch))
         (float_of_int (List.length branch)));
    m "search.nodes" "count" nodes;
    m "search.max_depth" "count"
      (List.fold_left
         (fun acc (res, _) -> Float.max acc (float_of_int res.Result.stats.Result.max_depth))
         0.0 finished);
    m "search.nodes_per_s" "1/s" (ratio nodes (sum (List.map snd finished)));
    m "search.calls_to_verdict" "count"
      (ratio (sum solved_calls) (float_of_int (List.length solved_calls)));
    m "search.exact_leaves" "count"
      (counter traced (fun k -> Filename.extension k = ".exact"));
    m "search.self_s" "s" self_s;
    m "search.self_share" "fraction" (ratio self_s search_s);
    m "attack.calls" "count" (float_of_int (List.length attack));
    m "attack.hit_share" "fraction"
      (ratio (count_if (fun sp -> sp.Spans.hit) attack) (float_of_int (List.length attack)));
    m "attack.busy_s" "s" (sum (List.map dur attack));
    m "data.train_s" "s" (phase_s s W.Train);
    m "data.instances_s" "s" (phase_s s W.Calibrate);
    m "nn.onnx_read_s" "s" (phase_s s W.Onnx_read);
    m "spec.vnnlib_read_s" "s" (phase_s s W.Vnnlib_read);
    m "gc.minor_mwords" "Mwords"
      (sum (List.map (fun r -> r.report.Sandbox.minor_words) timed) /. 1e6);
    m "gc.major_collections" "count"
      (float_of_int
         (List.fold_left (fun acc r -> acc + r.report.Sandbox.major_collections) 0 timed));
    m "trace.overhead_share" "fraction" overhead ]

(* --- output ------------------------------------------------------- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " body)

let print_table title metrics =
  Printf.printf "# %s\n" title;
  List.iter (fun x -> Printf.printf "#   %-26s %14.6g %s\n" x.name x.value x.unit_) metrics

let print_runs runs =
  List.iter
    (fun r ->
      let calls, nodes =
        match r.report.Sandbox.outcome with
        | Sandbox.Finished res -> (res.Result.stats.Result.appver_calls, res.Result.stats.Result.nodes)
        | _ -> (-1, -1)
      in
      let how =
        match r.report.Sandbox.outcome with
        | Sandbox.Capped_at_wall -> " (wall cap)"
        | Sandbox.Crashed msg -> " (" ^ msg ^ ")"
        | Sandbox.Finished _ -> ""
      in
      Printf.printf "# %-28s %-9s calls=%-4d nodes=%-4d %.3fs%s\n" r.inst.W.id
        (verdict_name (verdict_of r)) calls nodes r.wall how)
    runs

let write_spans path runs =
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i r ->
          List.iter
            (fun (sp : Spans.span) ->
              (* ids are per instance; offset them so the file is one tree *)
              let gid id = if id < 0 then -1 else (i * 1_000_000) + id in
              Printf.fprintf oc
                "{\"id\": %d, \"parent\": %d, \"name\": %S, \"instance\": %S, \"start\": %s, \"end\": %s}\n"
                (gid sp.Spans.id) (gid sp.Spans.parent) sp.Spans.name sp.Spans.instance
                (json_float sp.Spans.start) (json_float sp.Spans.stop))
            r.report.Sandbox.spans)
        runs)

let record_expected workload runs =
  let others =
    match In_channel.with_open_text expected_file In_channel.input_all with
    | exception Sys_error _ -> []
    | text ->
      String.split_on_char '\n' text
      |> List.filter (fun l ->
             l <> ""
             && match String.split_on_char '\t' l with wl :: _ -> wl <> workload | [] -> true)
  in
  let mine =
    List.map (fun r -> Printf.sprintf "%s\t%s\t%s" workload r.inst.W.id (verdict_name (verdict_of r))) runs
  in
  Out_channel.with_open_text expected_file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (others @ mine))

(* --- main --------------------------------------------------------- *)

let usage () =
  Printf.eprintf "campbench: --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n"
    (String.concat "|" (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let () =
  let process_start = Unix.gettimeofday () in
  let workload = ref "" and seed = ref default_seed and seconds = ref 20.0 in
  let trace = ref 0 and record = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for model training and ACAS generation");
      ("--seconds", Arg.Set_float seconds, "S measure timed rounds for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 timed rounds, or one timed and one traced round");
      ("--record-expected", Arg.Set record,
       " rewrite this workload's rows of the expected-verdict table (default seed only)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "campbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w = match W.find !workload with Some w -> w | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  let s = run_setups w ~seed:!seed ~process_start in
  (* children inherit the parent's heap: drop the set-up garbage once, so
     no instance pays for sweeping it *)
  Gc.compact ();
  Printf.printf "# %s seed=%d instances=%d calls=%d cap=%gs\n" w.W.name !seed
    (List.length s.instances) w.W.calls w.W.cap;
  let expected =
    if !seed = default_seed && not !record then Some (load_expected w.W.name) else None
  in
  (* round 1, then more timed rounds while another one fits in --seconds *)
  let measure_start = Unix.gettimeofday () in
  let rec rounds acc =
    let r = run_round w ~traced:false s.instances in
    let acc = r :: acc in
    let spent = Unix.gettimeofday () -. measure_start in
    let per_round = spent /. float_of_int (List.length acc) in
    if !trace = 0 && spent +. per_round <= !seconds then rounds acc else List.rev acc
  in
  let rounds = rounds [] in
  let first = fst (List.hd rounds) in
  print_runs first;
  let problems =
    List.concat_map (fun (runs, _) -> check_round ~expected ~first runs) rounds
  in
  let attempted = List.length s.instances * List.length rounds in
  if !record then record_expected w.W.name first;
  let problems, attempted, (metrics, shown) =
    if !trace = 0 then (problems, attempted, end_to_end w s rounds)
    else begin
      let traced, _ = run_round w ~traced:true s.instances in
      let compared, mismatches = check_traced ~calls:w.W.calls first traced in
      let problems = problems @ check_round ~expected ~first traced @ List.rev mismatches in
      Printf.printf "# traced round: %d instances compared exactly with the timed round\n"
        (List.length compared);
      if not (Sys.file_exists W.scratch_dir) then Sys.mkdir W.scratch_dir 0o755;
      let spans_path =
        Filename.concat W.scratch_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.W.name !seed)
      in
      write_spans spans_path traced;
      Printf.printf "# spans written to %s\n" spans_path;
      (* over the compared instances only: the same work in both rounds *)
      let engine pick = sum (List.map (fun p -> (pick p).report.Sandbox.engine_s) compared) in
      let overhead = ratio (engine snd -. engine fst) (engine fst) in
      let shapes =
        List.concat_map
          (fun (i : W.instance) ->
            Array.to_list
              (Array.map
                 (fun (mat : Abonn_tensor.Matrix.t) ->
                   (mat.Abonn_tensor.Matrix.rows, mat.Abonn_tensor.Matrix.cols))
                 i.W.problem.Problem.affine.Abonn_nn.Affine.weights))
          s.instances
      in
      let tensor = Tensor_probe.run shapes in
      (problems, attempted + List.length traced,
       (per_layer s ~timed:first ~traced ~overhead ~tensor, []))
    end
  in
  let failed = List.length problems in
  List.iter (fun p -> Printf.printf "# FAILED %s\n" p) problems;
  if !trace = 0 then
    print_table
      (Printf.sprintf "end-to-end, %d round(s); verdict_p50_s over %d instances"
         (List.length rounds) (List.length s.instances))
      (metrics @ shown
      @ [ m "failed_frac" "fraction" (ratio (float_of_int failed) (float_of_int attempted)) ])
  else print_table "per-layer (traced round)" metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
