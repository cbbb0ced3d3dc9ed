(* Node-throughput benchmark for the incremental bound cache and the
   work-stealing domain pool.

     dune exec bench/bab_nodes.exe
     dune exec bench/bab_nodes.exe -- --json BENCH_bab_nodes.json
     dune exec bench/bab_nodes.exe -- --domains 4 --json BENCH_bab_nodes.json

   Runs the same best-first BaB searches twice — warm-started bound
   propagation on (default) and off (--no-bound-cache path) — and
   reports nodes explored per second for each, plus the speedup ratio.
   The instances are deep MLPs whose searches reach depth >= 4, where
   prefix reuse pays: a child split at hidden layer l skips the
   backsubstitution of every layer below l.  The verdicts of the two
   runs are asserted identical, so the ratio compares equal work.

   [--domains N[,M,...]] adds one row per instance per requested domain
   count ("name@dN"): the same search on an N-domain work-stealing pool
   (cache on), whose "speedup" column is parallel-over-sequential
   throughput.  The rows flow through the regression gate
   (abonn_trace bench) like any other.  Honest-measurement note: the
   parallel speedup is bounded by the physical core count — on a
   single-core container @d4 rows sit at or below 1.0x and only the
   regression gate's relative comparison is meaningful there (see
   docs/PARALLELISM.md).

   [--flight] adds "name@flight" rows (the sequential search with the
   flight-recorder ring sink installed) and [--introspect N] adds
   "name@iN" rows (ring sink plus decision sampling at 1/N).  Their
   "speedup" columns are variant-over-base throughput, i.e. 1 minus the
   instrumentation overhead; [abonn_trace bench --overhead flight:2
   --overhead i16:5] turns them into a CI gate on the overhead contract
   (docs/DESIGN.md §12). *)

module Rng = Abonn_util.Rng
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Introspect = Abonn_obs.Introspect
module Budget = Abonn_util.Budget
module Provenance = Abonn_util.Provenance
module Resource = Abonn_obs.Resource
module Registry = Abonn_trace.Registry
module Builder = Abonn_nn.Builder
module Network = Abonn_nn.Network
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Verdict = Abonn_spec.Verdict
module Appver = Abonn_prop.Appver
module Bestfirst = Abonn_bab.Bestfirst
module Branching = Abonn_bab.Branching
module Result = Abonn_bab.Result

let mlp_problem ~dims ~eps seed =
  let rng = Rng.create seed in
  let network = Builder.mlp rng ~dims in
  let dim = List.hd dims in
  let center = Array.init dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let label = Network.predict network center in
  let property =
    Property.robustness ~num_classes:(List.nth dims (List.length dims - 1)) ~label
  in
  Problem.create ~network ~region ~property ()

(* The widest-interval heuristic concentrates splits in deep layers
   (interval width accumulates with depth), which is where prefix reuse
   skips the most work; it is also a heuristic the CLI exposes. *)
let heuristic =
  match Branching.find "widest" with
  | Some h -> h
  | None -> Branching.default

let calls = 400
let repeats = 3

(* domains is pinned explicitly everywhere (1 for the cache rows) so an
   ambient ABONN_DOMAINS cannot silently flip the sequential baseline *)
let timed_run ~cache ~domains problem =
  let appver =
    if cache then Appver.deeppoly else { Appver.deeppoly with Appver.warm = None }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Bestfirst.verify ~appver ~heuristic ~budget:(Budget.of_calls calls) ~domains
      problem
  in
  let dt = Unix.gettimeofday () -. t0 in
  (r, dt)

(* nodes/sec over [repeats] runs; the repeat loop amortises timer noise
   on these sub-second searches. *)
let throughput ~cache ~domains problem =
  let nodes = ref 0 and time = ref 0.0 and last = ref None in
  for _ = 1 to repeats do
    let r, dt = timed_run ~cache ~domains problem in
    nodes := !nodes + r.Result.stats.Result.nodes;
    time := !time +. dt;
    last := Some r
  done;
  let r = Option.get !last in
  (float_of_int !nodes /. !time, r)

type row = {
  name : string;
  nodes : int;
  max_depth : int;
  verdict : string;
  nps_cached : float;
  nps_uncached : float;
  speedup : float;
  peak_rss_bytes : int;
  calls_used : int;
  wall : float;
  seed : int;
  domains : int;
}

(* A decided-vs-decided disagreement would be a soundness bug; a
   decided-vs-timeout difference is just a trajectory shift (tighter
   cached bounds, or parallel scheduling) inside a finite budget. *)
let check_verdicts name what a b =
  if (Verdict.is_verified a && Verdict.is_falsified b)
     || (Verdict.is_falsified a && Verdict.is_verified b)
  then
    failwith
      (Printf.sprintf "%s: verdict conflict %s (%s vs %s)" name what
         (Verdict.to_string a) (Verdict.to_string b))

(* Same sequential cache-on search with a flight ring sink installed
   (and, for @iN rows, decision sampling at 1/N); the sink is removed
   and closed even if the search dies. *)
let throughput_instrumented ?introspect problem =
  let sink, _ = Sink.flight () in
  Obs.install sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.remove sink;
      sink.Sink.close ())
    (fun () ->
      Introspect.with_rate introspect @@ fun () ->
      ignore (timed_run ~cache:true ~domains:1 problem);
      throughput ~cache:true ~domains:1 problem)

let bench_instance ~domain_sweep ~flight ~introspect (name, seed, make_problem) =
  let problem = make_problem () in
  (* one throwaway pass per mode so both measurements run warm *)
  ignore (timed_run ~cache:false ~domains:1 problem);
  ignore (timed_run ~cache:true ~domains:1 problem);
  let nps_uncached, r_off = throughput ~cache:false ~domains:1 problem in
  let nps_cached, r_on = throughput ~cache:true ~domains:1 problem in
  check_verdicts name "cache on/off" r_on.Result.verdict r_off.Result.verdict;
  let base =
    { name;
      nodes = r_on.Result.stats.Result.nodes;
      max_depth = r_on.Result.stats.Result.max_depth;
      verdict = Verdict.to_string r_on.Result.verdict;
      nps_cached;
      nps_uncached;
      speedup = nps_cached /. nps_uncached;
      peak_rss_bytes = Resource.peak_rss ();
      calls_used = r_on.Result.stats.Result.appver_calls;
      wall = r_on.Result.stats.Result.wall_time;
      seed;
      domains = 1 }
  in
  (* instrumentation-overhead rows: variant-over-base throughput *)
  let instrumented_row suffix introspect =
    let nps_var, r_var = throughput_instrumented ?introspect problem in
    check_verdicts name
      (Printf.sprintf "plain vs %s" suffix)
      r_on.Result.verdict r_var.Result.verdict;
    { base with
      name = Printf.sprintf "%s@%s" name suffix;
      nps_cached = nps_var;
      nps_uncached = nps_cached;
      speedup = nps_var /. nps_cached;
      peak_rss_bytes = Resource.peak_rss ();
      calls_used = r_var.Result.stats.Result.appver_calls;
      wall = r_var.Result.stats.Result.wall_time }
  in
  let flight_rows = if flight then [ instrumented_row "flight" None ] else [] in
  let introspect_rows =
    List.map
      (fun n -> instrumented_row (Printf.sprintf "i%d" n) (Some n))
      introspect
  in
  (* parallel rows: same search, cache on, N-domain pool.  nps_uncached
     holds the sequential cache-on throughput, so speedup reads as
     parallel-over-sequential. *)
  let par_rows =
    List.map
      (fun domains ->
        ignore (timed_run ~cache:true ~domains problem);
        let nps_par, r_par = throughput ~cache:true ~domains problem in
        check_verdicts name
          (Printf.sprintf "sequential vs %d domains" domains)
          r_on.Result.verdict r_par.Result.verdict;
        { name = Printf.sprintf "%s@d%d" name domains;
          nodes = r_par.Result.stats.Result.nodes;
          max_depth = r_par.Result.stats.Result.max_depth;
          verdict = Verdict.to_string r_par.Result.verdict;
          nps_cached = nps_par;
          nps_uncached = nps_cached;
          speedup = nps_par /. nps_cached;
          peak_rss_bytes = Resource.peak_rss ();
          calls_used = r_par.Result.stats.Result.appver_calls;
          wall = r_par.Result.stats.Result.wall_time;
          seed;
          domains })
      (List.filter (fun d -> d > 1) domain_sweep)
  in
  (base :: flight_rows) @ introspect_rows @ par_rows

let instances =
  [ ("mlp_d6_seed1", 1,
     fun () -> mlp_problem ~dims:[ 4; 24; 24; 24; 24; 24; 24; 2 ] ~eps:0.22 1);
    ("mlp_d6_seed5", 5,
     fun () -> mlp_problem ~dims:[ 4; 24; 24; 24; 24; 24; 24; 2 ] ~eps:0.22 5);
    ("mlp_d8_seed3", 3,
     fun () -> mlp_problem ~dims:[ 3; 20; 20; 20; 20; 20; 20; 20; 20; 2 ] ~eps:0.2 3);
    (* the ACAS-style front-end instance (lib/data/acas.ml): same
       network family the --onnx/--vnnlib tutorial verifies, sized to
       stay sub-second per run on CI *)
    ("acas_h4w20_p1", 1,
     fun () ->
       Abonn_data.Acas.problem ~hidden_layers:4 ~width:20 ~seed:1 Abonn_data.Acas.P1) ]

(* Stamped layout (schema 1): provenance at top level, instances nested
   under "rows".  The regression gate (lib/trace/regress.ml) reads this
   and the historical flat layout. *)
let write_json path rows geomean =
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "{\n  \"schema\": 1,\n  \"commit\": %S,\n  \"date\": %S,\n"
       (Provenance.git_commit ()) (Provenance.iso_now ()));
  output_string oc "  \"rows\": {\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      output_string oc
        (Printf.sprintf
           "    %S: {\"nodes\": %d, \"max_depth\": %d, \"verdict\": %S, \
            \"nodes_per_sec_cached\": %.1f, \"nodes_per_sec_uncached\": %.1f, \
            \"speedup\": %.3f, \"peak_rss_bytes\": %d}%s\n"
           r.name r.nodes r.max_depth r.verdict r.nps_cached r.nps_uncached r.speedup
           r.peak_rss_bytes
           (if i = last then "" else ",")))
    rows;
  output_string oc "  },\n";
  output_string oc (Printf.sprintf "  \"geomean_speedup\": %.3f\n}\n" geomean);
  close_out oc;
  Printf.printf "json results written to: %s\n%!" path

let json_path =
  let rec scan = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* --domains N[,M,...]: add an @dN row per instance per requested count *)
let domain_sweep =
  let rec scan = function
    | "--domains" :: spec :: _ ->
      List.filter_map int_of_string_opt (String.split_on_char ',' spec)
    | _ :: rest -> scan rest
    | [] -> []
  in
  scan (Array.to_list Sys.argv)

(* --flight: add an @flight row per instance (ring sink installed) *)
let flight = Array.exists (String.equal "--flight") Sys.argv

(* --introspect N[,M,...]: add an @iN row per instance per rate *)
let introspect =
  let rec scan = function
    | "--introspect" :: spec :: _ ->
      List.filter_map int_of_string_opt (String.split_on_char ',' spec)
    | _ :: rest -> scan rest
    | [] -> []
  in
  scan (Array.to_list Sys.argv)

let () =
  Printf.printf "%-20s %6s %6s %10s %12s %14s %8s %9s\n" "instance" "nodes" "depth"
    "verdict" "cached n/s" "uncached n/s" "speedup" "peak MiB";
  Printf.printf "%s\n" (String.make 92 '-');
  let rows =
    List.concat_map (bench_instance ~domain_sweep ~flight ~introspect) instances
  in
  List.iter
    (fun r ->
      Printf.printf "%-20s %6d %6d %10s %12.1f %14.1f %7.2fx %9.1f\n" r.name r.nodes
        r.max_depth r.verdict r.nps_cached r.nps_uncached r.speedup
        (float_of_int r.peak_rss_bytes /. (1024.0 *. 1024.0)))
    rows;
  (* the headline geomean stays over the cache rows only: @dN speedups
     measure parallelism (and are core-count-bound), not the cache, and
     must not shift the gate's comparison against historical baselines *)
  let cache_rows =
    List.filter (fun r -> not (String.contains r.name '@')) rows
  in
  let geomean =
    exp (List.fold_left (fun acc r -> acc +. log r.speedup) 0.0 cache_rows
         /. float_of_int (List.length cache_rows))
  in
  Printf.printf "\ngeomean speedup: %.2fx\n" geomean;
  Option.iter (fun path -> write_json path rows geomean) json_path;
  (* bench runs are campaign runs too: one registry record per instance
     so cross-commit comparisons can join on (instance, commit) *)
  List.iter
    (fun r ->
      Registry.append
        (Registry.make ~source_format:"synthetic" ~engine:"bestfirst-bench"
           ~model:"bench_mlp" ~instance:r.name
           ~seed:r.seed ~domains:r.domains ~verdict:r.verdict ~wall:r.wall
           ~calls:r.calls_used ~nodes:r.nodes ~max_depth:r.max_depth
           ~peak_rss_bytes:r.peak_rss_bytes ()))
    rows;
  Printf.printf "(%d run records appended to %s)\n%!" (List.length rows)
    Registry.default_path
