(* One verification instance per forked child process.

   The wall-clock cap has to stop an instance even inside a single long
   call: one exact-leaf LP can run for tens of seconds, and the engines
   only check their budget between calls.  The child therefore arms a
   one-shot SIGALRM [alarm_grace] after the cap; its handler raises [Capped],
   which unwinds the engine (closing any open spans) back here.  The
   child reports over a pipe and exits; the parent reaps it, and kills
   it outright if it does not report within a grace period. *)

module Result = Abonn_bab.Result

exception Capped

type outcome =
  | Finished of Result.t
  | Capped_at_wall  (** interrupted by the wall-cap alarm inside a call *)
  | Crashed of string  (** an exception escaped the engine *)

type report = {
  outcome : outcome;
  engine_s : float;  (** child-side wall time of the engine call *)
  minor_words : float;
  major_collections : int;
  hwm_kb : int;  (** peak resident memory of the child *)
  spans : Spans.span list;
  counters : (string * int) list;  (** [Abonn_obs.Metrics] counters *)
  timers : (string * (int * float)) list;  (** metrics spans: calls, total s *)
}

let empty outcome =
  { outcome; engine_s = 0.0; minor_words = 0.0; major_collections = 0; hwm_kb = 0;
    spans = []; counters = []; timers = [] }

(* the "VmHWM:   1234 kB" line of /proc/self/status, in kB *)
let hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
             Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d" Fun.id
           else None)
    |> Option.value ~default:0

let alarm_grace = 0.1

let set_alarm seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = seconds })

let child ~cap ~traced ~id run =
  (* [armed] is cleared as soon as the engine returns, so a late alarm
     cannot turn a finished instance into a crash *)
  let armed = ref true in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Capped));
  if traced then begin
    Abonn_obs.Metrics.reset ();
    Abonn_obs.Metrics.set_enabled true
  end;
  Spans.reset ~id;
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  (* the engine's own Budget stops cap-bound searches between calls at
     [cap]; the alarm, a little later, only fires inside a long call *)
  set_alarm (cap +. alarm_grace);
  let outcome =
    match run () with
    | r ->
      armed := false;
      Finished r
    | exception Capped -> Capped_at_wall
    | exception e ->
      armed := false;
      Crashed (Printexc.to_string e)
  in
  armed := false;
  set_alarm 0.0;
  let engine_s = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let snap =
    if traced then Some (Abonn_obs.Metrics.snapshot ()) else None
  in
  { outcome; engine_s;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    hwm_kb = hwm_kb ();
    spans = Spans.recorded ();
    counters =
      (match snap with Some s -> s.Abonn_obs.Metrics.counters | None -> []);
    timers =
      (match snap with
       | Some s ->
         List.map
           (fun (k, (st : Abonn_obs.Metrics.span_stat)) ->
             (k, (st.Abonn_obs.Metrics.calls, st.Abonn_obs.Metrics.total)))
           s.Abonn_obs.Metrics.spans
       | None -> []) }

let read_all fd ~deadline =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec loop () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then `Late
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> `Late
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then `Done (Buffer.contents buf)
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* Run [run] in a child under a wall cap of [cap] seconds.  Returns the
   child's report and the parent-side wall time (fork to reap). *)
let run ~cap ~traced ~id run =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let report =
      try child ~cap ~traced ~id run with e -> empty (Crashed (Printexc.to_string e))
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc report [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let got = read_all r ~deadline:(t0 +. cap +. 10.0) in
    Unix.close r;
    (match got with `Late -> Unix.kill pid Sys.sigkill | `Done _ -> ());
    ignore (Unix.waitpid [] pid);
    let wall = Unix.gettimeofday () -. t0 in
    let report =
      (* a child that died mid-write leaves a truncated message *)
      match got with
      | `Done bytes -> (
        try (Marshal.from_string bytes 0 : report)
        with _ -> empty (Crashed "child exited without a report"))
      | `Late -> empty (Crashed "child exited without a report")
    in
    (report, wall)
