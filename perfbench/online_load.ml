(* Online workloads: a real [dsp_served daemon] child process driven
   over its Unix-domain socket.

   The request stream is a set of smart-grid day sessions, one per
   shard, with the session policy rotating over best-fit, first-fit
   and migrate (k = 2) across shards.  Shard events are interleaved
   round-robin and every shard gets a [peak] probe after each eighth
   event.  One epoch of the stream is: open every session, the
   interleaved body, a final [peak] per session, close every session.
   A run repeats the epoch until the time is up, so the daemon's state
   stays bounded however long the run; it stops only inside a body,
   leaving the sessions open (the durable workload then restarts the
   daemon on that state).

   online-mem: no WAL, one connection, closed loop (one request in
   flight).  online-durable: WAL with an fsync every 64 appends, one
   connection with a fixed window of 16 requests in flight.  Where
   fsyncs dominate, throughput follows the shared disk: on one 2-vCPU
   host, ten runs with an fsync per append (the daemon default) spread
   by 0.27 (IQR/median) and five with one per 8 appends by 0.29, above
   any bound a regression gate can use; one per 64 appends spread by
   0.08 with the WAL still about 45% of a request's cost.
   [wal.fsync_us] times one fsync on its own, and [wal.fsyncs_per_req]
   counts them exactly. *)

module Rng = Dsp_util.Rng
module Instr = Dsp_util.Instr
module Trace = Dsp_instance.Trace
module Session = Dsp_engine.Session
module Instance = Dsp_core.Instance
module Server = Dsp_serve.Server
module Client = Dsp_serve.Client
module Protocol = Dsp_serve.Protocol
module Json = Dsp_serve.Json
module Wal = Dsp_serve.Wal

type mode = Mem | Durable

let shards = 6
let households = 60
let window = function Mem -> 1 | Durable -> 16

let policy_of_shard s =
  match s mod 3 with 0 -> ("best-fit", None) | 1 -> ("first-fit", None) | _ -> ("migrate", Some 2)

let session_name s = Printf.sprintf "g%d" s

type kind = Open | Event of Trace.event | Probe | Final | Close

type stream = {
  lines : string array;  (** one epoch *)
  kinds : kind array;
  shard : int array;
  after : int array;  (** the line's session peak once the line is served *)
  lower : int array;  (** lower bound of the live items, at probes *)
  body_start : int;
  body_end : int;
  traces : Trace.t array;
}

let open_line s width =
  let policy, k = policy_of_shard s in
  Printf.sprintf {|{"op":"open","session":%S,"width":%d,"policy":%S%s}|} (session_name s) width
    policy
    (match k with Some k -> Printf.sprintf {|,"k":%d|} k | None -> "")

let local_session s width =
  let policy, k = policy_of_shard s in
  Session.create ~policy:(Option.get (Session.find_policy ?k policy)) ~width ()

let generate ~seed =
  let master = Rng.create seed in
  let traces =
    Array.init shards (fun _ -> Trace.smartgrid (Rng.split master) ~households ~departures:true)
  in
  let acc = ref [] in
  let add shard kind line = acc := (shard, kind, line) :: !acc in
  Array.iteri (fun s tr -> add s Open (open_line s tr.Trace.width)) traces;
  let events = Array.map (fun tr -> Array.of_list tr.Trace.events) traces in
  let longest = Array.fold_left (fun m a -> max m (Array.length a)) 0 events in
  let peak_line s = Printf.sprintf {|{"op":"peak","session":%S}|} (session_name s) in
  for i = 0 to longest - 1 do
    Array.iteri
      (fun s evs ->
        if i < Array.length evs then begin
          let name = session_name s in
          (match evs.(i) with
          | Trace.Arrive { w; h } ->
              add s (Event evs.(i))
                (Printf.sprintf {|{"op":"arrive","session":%S,"w":%d,"h":%d}|} name w h)
          | Trace.Depart { arrival } ->
              add s (Event evs.(i))
                (Printf.sprintf {|{"op":"depart","session":%S,"arrival":%d}|} name arrival));
          if i mod 8 = 7 then add s Probe (peak_line s)
        end)
      events
  done;
  Array.iteri (fun s _ -> add s Final (peak_line s)) traces;
  Array.iteri
    (fun s _ -> add s Close (Printf.sprintf {|{"op":"close","session":%S}|} (session_name s)))
    traces;
  let all = Array.of_list (List.rev !acc) in
  let n = Array.length all in
  (* Replay locally: the answer every probe must get, and the lower
     bound its live items admit (the quality line). *)
  let sessions = Array.mapi (fun s tr -> local_session s tr.Trace.width) traces in
  let after = Array.make n 0 and lower = Array.make n 0 in
  Array.iteri
    (fun i (s, kind, _) ->
      (match kind with
      | Event ev -> Session.apply sessions.(s) ev
      | Probe ->
          let items = List.map (fun (_, it, _) -> it) (Session.live_items sessions.(s)) in
          lower.(i) <-
            Instance.lower_bound (Instance.make ~width:traces.(s).Trace.width (Array.of_list items))
      | Open | Final | Close -> ());
      after.(i) <- Session.peak sessions.(s))
    all;
  {
    lines = Array.map (fun (_, _, l) -> l) all;
    kinds = Array.map (fun (_, k, _) -> k) all;
    shard = Array.map (fun (s, _, _) -> s) all;
    after;
    lower;
    body_start = shards;
    body_end = n - (2 * shards);
    traces;
  }

(* ----- the daemon process ------------------------------------------ *)

type daemon = { pid : int; log : Unix.file_descr }

(* Daemons still running; stopped at exit, so a failed run leaves no
   process behind. *)
let live = ref []

let spawn ~exe ~sock ~wal_dir ~log_path =
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let args =
    [ exe; "daemon"; "--socket"; sock ]
    @ match wal_dir with Some d -> [ "--wal-dir"; d; "--fsync"; "every:64" ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin log log in
  let d = { pid; log } in
  live := d :: !live;
  d

let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  Unix.close d.log

let () = at_exit (fun () -> List.iter stop !live)

(* Connect as soon as the socket accepts, polling every 0.2 ms. *)
let connect sock =
  let deadline = Clock.now_ns () + 20_000_000_000 in
  let rec go () =
    match Client.connect ~path:sock with
    | Ok c -> c
    | Error m ->
        if Clock.now_ns () > deadline then failwith ("daemon did not start: " ^ m);
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let ok_result what = function
  | Ok { Protocol.body = Ok j; _ } -> j
  | Ok { Protocol.body = Error k; _ } ->
      failwith (Printf.sprintf "%s: %s error: %s" what (Protocol.kind_name k) (Protocol.error_message k))
  | Error m -> failwith (Printf.sprintf "%s: %s" what m)

let int_field name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some v -> v
  | None -> failwith (Printf.sprintf "response has no integer %S" name)

(* ----- driving ------------------------------------------------------ *)

type tally = {
  lat : Stats.Buf.t;  (** round trips, us *)
  win : Stats.Windows.t;  (** one-second windows over [lat] *)
  mutable sent : int;
  mutable answered : int;
  mutable errors : int;  (** typed error responses, sheds included *)
  mutable shed : int;
  mutable broken : int;  (** requests lost to a broken connection *)
  mutable mismatches : int;  (** probe answers that differ from the local replay *)
  mutable ratio_sum : float;
  mutable ratio_n : int;
}

let tally ~start =
  {
    lat = Stats.Buf.create ();
    win = Stats.Windows.create ~start;
    sent = 0;
    answered = 0;
    errors = 0;
    shed = 0;
    broken = 0;
    mismatches = 0;
    ratio_sum = 0.;
    ratio_n = 0;
  }

let failed t = t.errors + t.broken

(* Position in the repeated epoch. *)
type cursor = { mutable pos : int }

let advance st c = c.pos <- (if c.pos + 1 = Array.length st.lines then 0 else c.pos + 1)
let in_body st i = i >= st.body_start && i < st.body_end

(* Account one answer to line [i]. *)
let account st t i resp =
  match resp with
  | Error _ -> t.broken <- t.broken + 1
  | Ok { Protocol.body = Error k; _ } ->
      t.errors <- t.errors + 1;
      (match k with Protocol.Overloaded _ -> t.shed <- t.shed + 1 | _ -> ())
  | Ok { Protocol.body = Ok j; _ } -> (
      t.answered <- t.answered + 1;
      match st.kinds.(i) with
      | Probe | Final ->
          let p = match Option.bind (Json.member "peak" j) Json.to_int with Some p -> p | None -> -1 in
          if p <> st.after.(i) then t.mismatches <- t.mismatches + 1;
          if st.kinds.(i) = Probe && st.lower.(i) > 0 then begin
            t.ratio_sum <- t.ratio_sum +. (float_of_int p /. float_of_int st.lower.(i));
            t.ratio_n <- t.ratio_n + 1
          end
      | Open | Event _ | Close -> ())

(* Closed loop: one request in flight, through the library client. *)
let drive_closed ?spans st c client t ~deadline =
  let continue = ref true in
  while !continue do
    let i = c.pos in
    if in_body st i && Clock.now_ns () >= deadline then continue := false
    else begin
      let a = Clock.now_ns () in
      let resp =
        match spans with
        | None -> Client.request client st.lines.(i)
        | Some sp -> Spans.record sp ~id:t.sent "client.request" (fun _ -> Client.request client st.lines.(i))
      in
      let b = Clock.now_ns () in
      t.sent <- t.sent + 1;
      Stats.Buf.push t.lat (float_of_int (b - a) /. 1e3);
      account st t i resp;
      if Result.is_error resp then continue := false else advance st c
    end
  done

(* Raw NDJSON over the socket, [w] requests in flight. *)
module Pipe = struct
  type t = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

  let connect sock =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

  let send p line =
    let b = Bytes.of_string (line ^ "\n") in
    let off = ref 0 in
    while !off < Bytes.length b do
      off := !off + Unix.write p.fd b !off (Bytes.length b - !off)
    done

  (* One response line; [None] when the daemon closed the connection. *)
  let rec read_line p =
    match Bytes.index_from_opt p.buf p.lo '\n' with
    | Some nl when nl < p.hi ->
        let line = Bytes.sub_string p.buf p.lo (nl - p.lo) in
        p.lo <- nl + 1;
        Some line
    | _ ->
        if p.lo > 0 then begin
          Bytes.blit p.buf p.lo p.buf 0 (p.hi - p.lo);
          p.hi <- p.hi - p.lo;
          p.lo <- 0
        end;
        if p.hi = Bytes.length p.buf then failwith "response line too long";
        let n = Unix.read p.fd p.buf p.hi (Bytes.length p.buf - p.hi) in
        if n = 0 then None
        else begin
          p.hi <- p.hi + n;
          read_line p
        end

  let close p = Unix.close p.fd
end

let drive_pipelined ?spans st c pipe t ~window ~deadline =
  let q_line = Array.make window 0 and q_sent = Array.make window 0 and q_span = Array.make window 0 in
  let head = ref 0 and count = ref 0 and sending = ref true and broken = ref false in
  while (!sending || !count > 0) && not !broken do
    while !sending && !count < window do
      let i = c.pos in
      if in_body st i && Clock.now_ns () >= deadline then sending := false
      else begin
        let slot = (!head + !count) mod window in
        q_line.(slot) <- i;
        (match spans with
        | Some sp -> q_span.(slot) <- Spans.enter sp ~id:t.sent ~parent:(-1) "client.request"
        | None -> ());
        q_sent.(slot) <- Clock.now_ns ();
        Pipe.send pipe st.lines.(i);
        t.sent <- t.sent + 1;
        incr count;
        advance st c
      end
    done;
    if !count > 0 then begin
      let resp =
        match Pipe.read_line pipe with
        | None -> Error "connection closed"
        | Some line -> Protocol.parse_response line
      in
      let b = Clock.now_ns () in
      let slot = !head in
      Option.iter (fun sp -> Spans.leave sp q_span.(slot)) spans;
      Stats.Buf.push t.lat (float_of_int (b - q_sent.(slot)) /. 1e3);
      account st t q_line.(slot) resp;
      head := (!head + 1) mod window;
      decr count;
      if Result.is_error resp then begin
        (* every request still in flight is lost with the connection *)
        t.broken <- t.broken + !count;
        broken := true
      end
    end
  done

(* ----- one run ------------------------------------------------------ *)

type env = { exe : string; dir : string }

let sock env = Filename.concat env.dir "d.sock"
let wal_dir env = Filename.concat env.dir "wal"

(* One set-up: daemon spawn on [sock] (with a fresh WAL directory
   [wal] when durable) to the first ping answer, plus the session
   opens.  Its time is pushed onto [times]. *)
let setup_once mode env st times ~sock ~wal =
  let wal = match mode with Durable -> Some (Run.fresh_dir wal) | Mem -> None in
  let t0 = Clock.now_ns () in
  let d = spawn ~exe:env.exe ~sock ~wal_dir:wal ~log_path:(Filename.concat env.dir "daemon.log") in
  let client = connect sock in
  ignore (ok_result "ping" (Client.request client {|{"op":"ping"}|}));
  for i = 0 to st.body_start - 1 do
    ignore (ok_result "open" (Client.request client st.lines.(i)))
  done;
  Stats.Buf.push times (Clock.seconds_between t0 (Clock.now_ns ()));
  (d, client)

(* A set-up takes milliseconds, so outside load moves a single one by
   half.  The reported figure is the median of four set-ups before the
   run (the last daemon is the one the run drives) and two more on a
   side socket after each one-second segment, spread over the whole
   run. *)
let setup mode env st times =
  let rec go r =
    let d, client = setup_once mode env st times ~sock:(sock env) ~wal:(wal_dir env) in
    if r = 1 then (d, client)
    else begin
      Client.close client;
      stop d;
      go (r - 1)
    end
  in
  go 4

let setup_between mode env st times () =
  for _ = 1 to 2 do
    let d, client =
      setup_once mode env st times
        ~sock:(Filename.concat env.dir "setup.sock")
        ~wal:(Filename.concat env.dir "setup-wal")
    in
    Client.close client;
    stop d
  done

(* The peak every session must answer once the run has stopped at
   [c.pos] inside a body. *)
let expected_now st c =
  let cur = Array.make shards 0 in
  if in_body st c.pos then
    for i = st.body_start to c.pos - 1 do
      cur.(st.shard.(i)) <- st.after.(i)
    done;
  cur

let session_peaks client =
  Array.init shards (fun s ->
      int_field "peak"
        (ok_result "peak"
           (Client.request client (Printf.sprintf {|{"op":"peak","session":%S}|} (session_name s)))))

let counter stats name =
  match Option.bind (Json.member "counters" stats) (Json.member name) with
  | Some v -> Option.value (Json.to_int v) ~default:0
  | None -> 0

(* Cold restarts on the run's WAL directory: spawn to the first [peak]
   answer, three times, with every session's peak checked each time. *)
let cold_restarts env ~expected =
  let agree = ref true in
  let times =
    Array.init 3 (fun _ ->
        let t0 = Clock.now_ns () in
        let d =
          spawn ~exe:env.exe ~sock:(sock env) ~wal_dir:(Some (wal_dir env))
            ~log_path:(Filename.concat env.dir "daemon.log")
        in
        let client = connect (sock env) in
        ignore (ok_result "peak" (Client.request client {|{"op":"peak","session":"g0"}|}));
        let dt = Clock.seconds_between t0 (Clock.now_ns ()) in
        if session_peaks client <> expected then agree := false;
        Client.close client;
        stop d;
        dt)
  in
  (Stats.median times, !agree)

(* In-process passes of the traced run over one epoch of the stream:
   the codec, protocol, server core and session layers, each timed by
   a span around its public entry point. *)
let config mode env =
  match mode with
  | Mem -> Server.default_config
  | Durable ->
      {
        Server.default_config with
        Server.wal_dir = Some (Run.fresh_dir (Filename.concat env.dir "inproc-wal"));
        fsync = Wal.Every 64;
      }

let words_per f lines =
  let w0 = Gc.minor_words () in
  Array.iter (fun l -> ignore (Sys.opaque_identity (f l))) lines;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length lines)

let reply_line = function Server.Now l -> l | Server.Later _ -> failwith "session op deferred"

let in_process mode env st sp =
  let lines = st.lines in
  let n = float_of_int (Array.length lines) in
  let decode_words = words_per Json.of_string lines in
  let parse_words = words_per Protocol.parse_request lines in
  let srv = Server.create (config mode env) in
  let before = Instr.snapshot () in
  let handle_words = words_per (fun l -> reply_line (Server.handle srv l)) lines in
  let delta = Instr.delta ~before ~after:(Instr.snapshot ()) in
  Server.close srv;
  let moved pred = float_of_int (List.fold_left (fun a (k, v) -> if pred k then a + v else a) 0 delta) in
  let srv = Server.create (config mode env) in
  let mirror = Array.mapi (fun s tr -> local_session s tr.Trace.width) st.traces in
  let gc0 = Gc.quick_stat () in
  Array.iteri
    (fun i line ->
      Spans.record sp ~id:i "request" (fun root ->
          let span name f = Spans.record sp ~id:i ~parent:root name (fun _ -> f ()) in
          ignore (span "json.decode" (fun () -> Json.of_string line));
          ignore (span "protocol.parse" (fun () -> Protocol.parse_request line));
          let reply = span "server.handle" (fun () -> reply_line (Server.handle srv line)) in
          (match st.kinds.(i) with
          | Event ev -> span "session.apply" (fun () -> Session.apply mirror.(st.shard.(i)) ev)
          | Open | Probe | Final | Close -> ());
          match Json.of_string reply with
          | Ok j -> ignore (span "json.encode" (fun () -> Json.to_string j))
          | Error m -> failwith ("in-process reply: " ^ m)))
    lines;
  let gc1 = Gc.quick_stat () in
  Server.close srv;
  [
    Run.m "json.decode_words" decode_words "words";
    Run.m "protocol.parse_words" parse_words "words";
    Run.m "server.handle_words" handle_words "words";
    Run.m "segtree.ops_per_req" (moved (String.starts_with ~prefix:"segtree.") /. n) "count";
    Run.m "session.migration_trials_per_req" (moved (( = ) "session.migration_trials") /. n) "count";
    Run.m "gc.minor_words_per_op" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. n) "words";
    Run.m "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
  ]

(* WAL layer on its own: appends of the stream's events with fsync
   [Never], then append + [Wal.sync] pairs timing the fsync alone. *)
let wal_probe env st sp =
  let events =
    Array.to_list st.kinds |> List.filter_map (function Event ev -> Some ev | _ -> None) |> Array.of_list
  in
  let dir = Run.fresh_dir (Filename.concat env.dir "wal-probe") in
  let log = Wal.create ~fsync:Wal.Never (Filename.concat dir "append.wal") in
  Array.iteri (fun i ev -> Spans.record sp ~id:i "wal.append" (fun _ -> Wal.append log (Wal.Event ev))) events;
  Wal.close log;
  let log = Wal.create ~fsync:Wal.Never (Filename.concat dir "sync.wal") in
  Array.iteri
    (fun i ev ->
      if i < 1000 then begin
        Wal.append log (Wal.Event ev);
        Spans.record sp ~id:i "wal.fsync" (fun _ -> Wal.sync log)
      end)
    events;
  Wal.close log

(* [Wal.recover] over every log the run left behind. *)
let wal_recover env sp =
  let dir = wal_dir env in
  let files = List.filter (fun f -> Filename.check_suffix f ".wal") (Array.to_list (Sys.readdir dir)) in
  let t0 = Clock.now_ns () in
  List.iteri
    (fun i f ->
      Spans.record sp ~id:i "wal.recover" (fun _ ->
          match Wal.recover (Filename.concat dir f) with
          | Ok (log, _) -> Wal.close log
          | Error m -> failwith ("Wal.recover: " ^ m)))
    files;
  Clock.seconds_between t0 (Clock.now_ns ())

(* Median self time of the spans with this name, in us (0 when the
   workload never calls the layer). *)
let span_p50 sp name metric =
  let xs = Spans.self_times sp name in
  Run.m metric ~samples:(Array.length xs) (if xs = [||] then 0. else Stats.median xs /. 1e3) "us"

let run mode ~exe ~dir ~seed ~seconds ~trace ~spans_path =
  let env = { exe; dir } in
  let st = generate ~seed in
  let setup_times = Stats.Buf.create () in
  let d, client = setup mode env st setup_times in
  let c = { pos = st.body_start } in
  let pipe = match mode with Durable -> Some (Pipe.connect (sock env)) | Mem -> None in
  (* Drive in one-second segments, one window each, until [seconds]
     have passed; [between] runs between segments, outside every
     window. *)
  let drive ?spans ?(between = ignore) ~seconds () =
    let t0 = Clock.now_ns () in
    let t = tally ~start:t0 in
    let stop_at = t0 + int_of_float (seconds *. 1e9) in
    let rec segment () =
      let deadline = min stop_at (Clock.now_ns () + 1_000_000_000) in
      (match pipe with
      | Some p -> drive_pipelined ?spans st c p t ~window:(window mode) ~deadline
      | None -> drive_closed ?spans st c client t ~deadline);
      let count = Stats.Buf.length t.lat in
      Stats.Windows.mark t.win ~count ~now:(Clock.now_ns ());
      if t.broken = 0 && Clock.now_ns () < stop_at then begin
        between ();
        Stats.Windows.mark t.win ~count ~now:(Clock.now_ns ());
        segment ()
      end
    in
    segment ();
    t
  in
  let sp = Spans.create () in
  (* Traced runs drive untraced for the first half, traced for the
     second; the two latency medians, over warm windows of each, give
     the tracing overhead. *)
  let plain, t =
    if trace then
      let plain = drive ~seconds:(seconds /. 2.) () in
      (plain, drive ~spans:sp ~seconds:(seconds /. 2.) ())
    else (tally ~start:0, drive ~between:(setup_between mode env st setup_times) ~seconds ())
  in
  Option.iter Pipe.close pipe;
  let expected = expected_now st c in
  let served = session_peaks client in
  let stats = ok_result "stats" (Client.request client {|{"op":"stats"}|}) in
  let rss = Run.vm_hwm_mb (string_of_int d.pid) in
  Client.close client;
  stop d;
  let all_failed = failed t + failed plain and all_errors = t.errors + plain.errors in
  let all_shed = t.shed + plain.shed in
  let checks =
    [
      ("every probe matches a local Session replay", t.mismatches + plain.mismatches = 0);
      ("final peaks match a local Session replay", served = expected);
      ( "client error count equals the daemon's serve.errors",
        all_errors = counter stats "serve.errors" );
      ("client shed count equals the daemon's serve.shed", all_shed = counter stats "serve.shed");
    ]
  in
  let requests = float_of_int (counter stats "serve.requests") in
  let durable_checks, recovery =
    match mode with
    | Mem -> ([], [])
    | Durable ->
        let recover_s = if trace then wal_recover env sp else 0. in
        let rec_s, agree = cold_restarts env ~expected in
        ( [ ("cold-restarted daemon answers the same peaks", agree) ],
          [ Run.m "recovery_s" ~samples:3 rec_s "s"; Run.m "wal.recover_s" recover_s "s" ] )
  in
  let notes =
    [
      ("input_digest", Run.digest (Array.to_list st.lines));
      ("epoch_requests", string_of_int (Array.length st.lines));
      ("window", string_of_int (window mode));
      ("fs", Run.fs_type env.dir);
      ( "window_rps",
        String.concat ","
          (Array.to_list
             (Array.map (Printf.sprintf "%.0f")
                (Stats.Windows.map t.win (Stats.Buf.to_array t.lat) (fun xs s ->
                     float_of_int (Array.length xs) /. s)))) );
    ]
  in
  let attempted = t.sent + plain.sent + shards + 1 in
  let wal_counts =
    [
      Run.m "wal.fsyncs_per_req" (float_of_int (counter stats "wal.fsyncs") /. requests) "count";
      Run.m "wal.appends_per_req" (float_of_int (counter stats "wal.appends") /. requests) "count";
      Run.m "wal.compactions" (float_of_int (counter stats "wal.compactions")) "count";
      Run.m "serve.errors" (float_of_int (counter stats "serve.errors")) "count";
      Run.m "serve.shed" (float_of_int (counter stats "serve.shed")) "count";
    ]
  in
  if not trace then begin
    let lat = Stats.Buf.to_array t.lat in
    let n = Array.length lat in
    let per_window f = Stats.median (Stats.Windows.map t.win lat f) in
    {
      Run.checks = checks @ durable_checks;
      attempted;
      failed = all_failed;
      end_to_end =
        [
          Run.m "throughput_rps" ~samples:n (per_window (fun xs s -> float_of_int (Array.length xs) /. s)) "1/s";
          Run.m "latency_p50_us" ~samples:n (per_window (fun xs _ -> Stats.percentile xs 0.5)) "us";
          Run.m "latency_p99_us" ~samples:n (per_window (fun xs _ -> Stats.percentile xs 0.99)) "us";
          Run.m "setup_s" ~samples:(Stats.Buf.length setup_times)
            (Stats.median (Stats.Buf.to_array setup_times))
            "s";
          Run.m "rss_mb" rss "MB";
          Run.m "peak_ratio" ~samples:t.ratio_n (t.ratio_sum /. float_of_int (max 1 t.ratio_n)) "ratio";
          Run.m "failed_frac" ~samples:attempted (float_of_int all_failed /. float_of_int attempted) "ratio";
        ]
        @ List.filter (fun (m : Run.metric) -> m.Run.name = "recovery_s") recovery;
      layers = [];
      notes;
    }
  end
  else begin
    let layers = in_process mode env st sp in
    (match mode with Durable -> wal_probe env st sp | Mem -> ());
    Spans.write sp spans_path;
    let rtt = span_p50 sp "client.request" "client.request_us" in
    let handle = span_p50 sp "server.handle" "server.handle_us" in
    let p50 h = Stats.median (Stats.Windows.map h.win (Stats.Buf.to_array h.lat) (fun xs _ -> Stats.median xs)) in
    {
      Run.checks = checks @ durable_checks;
      attempted;
      failed = all_failed;
      end_to_end = [];
      layers =
        [
          rtt;
          handle;
          Run.m "transport.self_us" ~samples:rtt.Run.samples (rtt.Run.value -. handle.Run.value) "us";
          span_p50 sp "json.decode" "json.decode_us";
          span_p50 sp "json.encode" "json.encode_us";
          span_p50 sp "protocol.parse" "protocol.parse_us";
          span_p50 sp "session.apply" "session.apply_us";
          span_p50 sp "wal.append" "wal.append_us";
          span_p50 sp "wal.fsync" "wal.fsync_us";
          Run.m "trace.overhead_frac" ((p50 t /. p50 plain) -. 1.) "ratio";
        ]
        @ layers @ wal_counts @ recovery;
      notes;
    }
  end
