(* Offline workloads: instance text in, validated packing out, the way
   [dsp solve] runs it (Io parse, Runner.solve, Report validation).

   solve-exact: small instances solved by both exact searches (serial
   binary search on H and the work-stealing incumbent search).
   solve-approx: mid-size instances solved by the paper's two
   algorithms, approx54 (Theorem 5) and pts-duality (Theorem 1).

   A run loops over the (instance, solver) pairs in a fixed order until
   the time is up.  The first pass feeds the correctness checks and the
   quality line and warms up; figures are medians over the later
   passes. *)

module Instance = Dsp_core.Instance
module Io = Dsp_instance.Io
module Gen = Dsp_instance.Generators
module Runner = Dsp_engine.Runner
module Report = Dsp_engine.Report
module Registry = Dsp_engine.Registry
module Rng = Dsp_util.Rng
module Bb = Dsp_exact.Dsp_bb
module Approx54 = Dsp_algo.Approx54
module Transform = Dsp_transform.Transform

type kind = Exact | Approx

let solver_names = function
  | Exact -> [ "exact-bb"; "exact-bb-par" ]
  | Approx -> [ "approx54"; "pts-duality" ]

(* A guard against a hung solve; the node cap is [dsp solve]'s
   default. *)
let timeout_ms = 30_000

(* solve-exact runs a fixed set of instances, each drawn by the rule
   below from its own fixed generator seed.  Random draws of this size
   sometimes exhaust the node cap (a failed solve) and their solve
   times are heavy-tailed (one instance can take most of a pass), so
   this set was picked once from the first 40 generator seeds: every
   member finishes within the cap on both searches, and it keeps cases
   where either search wins by 4-10x (seeds 1, 5, 14 for the serial
   search; 4, 12, 15, 22 for the incumbent search).  The run's seed
   shuffles each instance's item order, and adds six fresh draws of
   8-9 items, which always finish within milliseconds. *)
let exact_set = [ 1; 3; 4; 5; 6; 8; 9; 12; 14; 15; 16; 17; 22; 25; 28; 30; 34 ]

(* Item order of [inst] shuffled by [rng]: the same problem posed in
   different text. *)
let shuffled rng (inst : Instance.t) =
  let dims = Array.map (fun (it : Dsp_core.Item.t) -> (it.Dsp_core.Item.w, it.Dsp_core.Item.h)) inst.Instance.items in
  Rng.shuffle rng dims;
  Instance.of_dims ~width:inst.Instance.width (Array.to_list dims)

let exact_instance k =
  let rng = Rng.create (1000 + k) in
  let width = 16 + Rng.int rng 7 in
  let n = 12 + Rng.int rng 5 in
  if k mod 2 = 0 then Gen.correlated rng ~n ~width ~max_w:(width / 2) ~max_h:20
  else Gen.uniform rng ~n ~width ~max_w:(width / 2) ~max_h:20

(* A fixed instance that reaches approx54's configuration LP
   (Lemma 10): a wide strip, a few tall items, many narrow mid-height
   ones and a few flat ones, the shape of the counters experiment's
   vertical-lp instance.  Draws of the three random kinds below never
   reach the LP, and random draws of this shape take from 0.5 s to
   8 s, so this one is fixed and only its item order follows the
   seed. *)
let lp_instance () =
  let rng = Rng.create 2 in
  let r lo hi = lo + Rng.int rng (hi - lo + 1) in
  Instance.of_dims ~width:1000
    (List.init 10 (fun _ -> (r 5 10, r 200 260))
    @ List.init 80 (fun _ -> (r 1 8, r 60 120))
    @ List.init 20 (fun _ -> (r 50 150, r 2 8)))

(* Instance texts for one seed.  solve-approx draws fresh instances,
   n = 400, four of each kind, then adds the LP instance. *)
let generate kind ~seed =
  let rng = Rng.create seed in
  let text inst = Io.instance_to_string inst in
  match kind with
  | Exact ->
      List.map (fun k -> text (shuffled rng (exact_instance k))) exact_set
      @ List.init 6 (fun _ ->
            let width = 12 + Rng.int rng 5 in
            text (Gen.uniform rng ~n:(8 + Rng.int rng 2) ~width ~max_w:(width / 2) ~max_h:16))
  | Approx ->
      List.init 12 (fun i ->
          text
            (match i mod 3 with
            | 0 -> Gen.uniform rng ~n:400 ~width:1000 ~max_w:300 ~max_h:100
            | 1 -> Gen.correlated rng ~n:400 ~width:1000 ~max_w:300 ~max_h:100
            | _ ->
                (* the first 400 appliance runs of a day, so every kind
                   has the same n *)
                Dsp_smartgrid.Smartgrid.to_instance
                  (List.filteri (fun i _ -> i < 400)
                     (Dsp_smartgrid.Smartgrid.simulate_day rng ~households:160))))
      @ [ text (shuffled rng (lp_instance ())) ]

let parse text =
  match Io.instance_of_string text with
  | Ok inst -> inst
  | Error e -> failwith ("generated instance does not parse: " ^ Io.error_to_string e)

(* Set-up is generating the instance set and parsing it.  One set-up
   takes milliseconds, so outside load moves a single one by half; the
   reported figure is the median of [setup_reps] set-ups before the
   first pass and as many at the end of every pass, spread over the
   whole run.  Each batch starts on a collected heap, as a fresh
   [dsp solve] does: otherwise the garbage the last pass's solves left
   decides how much major-GC work lands in the timed set-ups, which
   moved the median by a third between runs.  [setup] pushes each time
   onto [times]. *)
let setup_reps = 8

let setup kind ~seed times =
  let texts = ref [] and insts = ref [] in
  Gc.full_major ();
  for _ = 1 to setup_reps do
    let t0 = Clock.now_ns () in
    texts := generate kind ~seed;
    insts := List.map parse !texts;
    Stats.Buf.push times (Clock.seconds_between t0 (Clock.now_ns ()))
  done;
  (Array.of_list !texts, Array.of_list !insts)

type op_result = {
  peak : int;
  lower_bound : int;
  failed : bool;  (** a stage fell through: timeout or node budget *)
  fallthroughs : int;
  report : Report.t;
}

(* [Report.make] again on a report's packing: the validation [dsp solve]
   relies on. *)
let revalidate inst (r : Report.t) =
  Report.make ~solver:r.Report.solver ~instance:inst ~packing:r.Report.packing
    ~seconds:r.Report.seconds ~counters:r.Report.counters

(* One [dsp solve]: parse, then solve through the runner, which
   validates the packing into its report. *)
let solve_op ?spans ~id ~solver text =
  let span name f =
    match spans with
    | None -> f ()
    | Some (sp, parent) -> Spans.record sp ~id ~parent name (fun _ -> f ())
  in
  let inst = span "io.parse" (fun () -> parse text) in
  let res =
    span "runner.solve" (fun () -> Runner.solve ~timeout_ms ~chain:[ solver ] inst)
  in
  let r = res.Runner.report in
  {
    peak = r.Report.peak;
    lower_bound = r.Report.lower_bound;
    failed = res.Runner.failures <> [] || res.Runner.safety_net;
    fallthroughs = List.length res.Runner.failures;
    report = r;
  }

type loop = {
  lat_us : float array;
  ops : int;
  failed_ops : int;
  passes : Stats.Windows.t;  (** one window per completed pass over [lat_us] *)
  first : op_result array;  (** the first pass, one entry per op *)
  checks : (string * bool) list;
  fallthroughs : int;
}

(* Run the ops round-robin until [seconds] have passed, completing two
   passes whatever the time: the first feeds the checks and warms up,
   the rest are measured.  [between] runs after each pass, outside the
   pass's time. *)
let drive ?spans ?(between = ignore) ~solvers ~texts ~seconds () =
  let n_inst = Array.length texts and n_solv = Array.length solvers in
  let n_ops = n_inst * n_solv in
  let lat = Stats.Buf.create () in
  let first = Array.make n_ops None in
  let ops = ref 0 and failed = ref 0 and fall = ref 0 and deterministic = ref true in
  let t0 = Clock.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let passes = Stats.Windows.create ~start:t0 in
  let k = ref 0 in
  while !k < 2 * n_ops || Clock.now_ns () < deadline do
    let j = !k mod n_ops in
    let i = j / n_solv and s = j mod n_solv in
    let a = Clock.now_ns () in
    let spans = Option.map (fun sp -> (sp, Spans.enter sp ~id:!k ~parent:(-1) "solve")) spans in
    let r = solve_op ?spans ~id:!k ~solver:solvers.(s) texts.(i) in
    Option.iter (fun (sp, root) -> Spans.leave sp root) spans;
    let b = Clock.now_ns () in
    Stats.Buf.push lat (float_of_int (b - a) /. 1e3);
    incr ops;
    if r.failed then incr failed;
    fall := !fall + r.fallthroughs;
    (match first.(j) with
    | None -> first.(j) <- Some r
    | Some r0 -> if r0.peak <> r.peak then deterministic := false);
    incr k;
    if !k mod n_ops = 0 then begin
      Stats.Windows.mark passes ~count:!ops ~now:b;
      between ();
      Stats.Windows.mark passes ~count:!ops ~now:(Clock.now_ns ())
    end
  done;
  let first = Array.map Option.get first in
  let checks =
    [
      ( "packings pass Report validation",
        Array.for_all Fun.id
          (Array.mapi (fun j r -> Result.is_ok (revalidate (parse texts.(j / n_solv)) r.report)) first) );
      ("peak >= Instance.lower_bound", Array.for_all (fun r -> r.peak >= r.lower_bound) first);
      ("repeated solves give the same peak", !deterministic);
    ]
  in
  {
    lat_us = Stats.Buf.to_array lat;
    ops = !ops;
    failed_ops = !failed;
    passes;
    first;
    checks;
    fallthroughs = !fall;
  }

let sum_counters reports pred =
  List.fold_left
    (fun acc (r : Report.t) ->
      List.fold_left (fun acc (name, v) -> if pred name then acc + v else acc) acc r.Report.counters)
    0 reports

(* Per-instance probes of the traced run, around the layers' public
   entry points.  Instance [i]'s probe spans share the id [base + i],
   past the ids of the traced solves. *)
let exact_probes sp ~base ~insts ~first ~n_solv =
  let decide = Stats.Buf.create () in
  let par_nodes = ref 0 and steals = ref 0 and fails = ref 0 and units = ref 0 in
  let imbalance = Stats.Buf.create () in
  Array.iteri
    (fun i inst ->
      let id = base + i in
      let opt = first.(i * n_solv).peak in
      List.iter
        (fun h ->
          let j = Spans.enter sp ~id ~parent:(-1) "bb.decide" in
          ignore (Bb.decide inst ~height:h);
          Spans.leave sp j;
          Stats.Buf.push decide (float_of_int (Spans.duration_ns sp j) /. 1e6))
        [ opt; opt - 1 ];
      let stats = ref None in
      Spans.record sp ~id "bb.solve_par" (fun _ ->
          ignore (Bb.solve_par ~jobs:(Dsp_util.Pool.default_jobs ()) ~stats inst));
      match !stats with
      | None -> ()
      | Some st ->
          let per = st.Bb.nodes_per_domain in
          par_nodes := !par_nodes + Array.fold_left ( + ) 0 per;
          steals := !steals + st.Bb.steals;
          fails := !fails + st.Bb.steal_fails;
          units := !units + st.Bb.units;
          if Array.length per > 0 then
            Stats.Buf.push imbalance
              (float_of_int (Array.fold_left max 0 per)
              /. float_of_int (max 1 (Array.fold_left min max_int per))))
    insts;
  let imb = Stats.Buf.to_array imbalance in
  [
    Run.m "bb.decide_ms" ~samples:(Stats.Buf.length decide) (Stats.median (Stats.Buf.to_array decide)) "ms";
    Run.m "bb.par_nodes" (float_of_int !par_nodes) "count";
    Run.m "bb.steals" (float_of_int !steals) "count";
    Run.m "bb.steal_fails" (float_of_int !fails) "count";
    Run.m "bb.units" (float_of_int !units) "count";
    Run.m "bb.imbalance" ~samples:(Array.length imb)
      (if imb = [||] then 1. else Stats.mean imb)
      "ratio";
  ]

let approx_probes sp ~base ~insts ~first ~n_solv ~solvers =
  let attempt = Stats.Buf.create () and s2p = Stats.Buf.create () in
  let fallbacks = ref 0 and configs = ref 0 in
  Array.iteri
    (fun i inst ->
      let id = base + i in
      let _, st =
        Spans.record sp ~id "approx54.solve_with_stats" (fun _ -> Approx54.solve_with_stats inst)
      in
      fallbacks := !fallbacks + st.Approx54.lp_fallbacks;
      configs := !configs + st.Approx54.configurations_used;
      let j = Spans.enter sp ~id ~parent:(-1) "approx54.attempt" in
      ignore (Approx54.attempt inst ~target:st.Approx54.final_target);
      Spans.leave sp j;
      Stats.Buf.push attempt (float_of_int (Spans.duration_ns sp j) /. 1e6);
      Array.iteri
        (fun s name ->
          if name = "pts-duality" then begin
            let r = first.((i * n_solv) + s) in
            match Transform.packing_to_schedule r.report.Report.packing ~machines:r.peak with
            | Error m -> failwith ("packing_to_schedule: " ^ m)
            | Ok (sched, _) ->
                let j = Spans.enter sp ~id ~parent:(-1) "transform.schedule_to_packing" in
                ignore (Transform.schedule_to_packing sched);
                Spans.leave sp j;
                Stats.Buf.push s2p (float_of_int (Spans.duration_ns sp j) /. 1e6)
          end)
        solvers)
    insts;
  [
    Run.m "approx54.attempt_ms" ~samples:(Stats.Buf.length attempt)
      (Stats.median (Stats.Buf.to_array attempt)) "ms";
    Run.m "transform.schedule_to_packing_ms" ~samples:(Stats.Buf.length s2p)
      (Stats.median (Stats.Buf.to_array s2p)) "ms";
    Run.m "approx54.lp_fallbacks" (float_of_int !fallbacks) "count";
    Run.m "approx54.configurations_used" (float_of_int !configs) "count";
  ]

(* Median self time of the spans with this name, in ms. *)
let span_p50 sp name metric =
  let xs = Spans.self_times sp name in
  Run.m ~samples:(Array.length xs) metric (Stats.median xs /. 1e6) "ms"

let run kind ~seed ~seconds ~trace ~spans_path =
  let setup_times = Stats.Buf.create () in
  let texts, insts = setup kind ~seed setup_times in
  let solvers = Array.of_list (List.map Registry.find_exn (solver_names kind)) in
  let names = Array.of_list (solver_names kind) in
  let n_solv = Array.length solvers in
  let exact_agree first =
    match kind with
    | Approx -> []
    | Exact ->
        [
          ( "exact-bb and exact-bb-par agree on every optimum",
            Array.for_all Fun.id
              (Array.init (Array.length insts) (fun i ->
                   first.(i * n_solv).peak = first.((i * n_solv) + 1).peak)) );
        ]
  in
  let notes = [ ("input_digest", Run.digest (Array.to_list texts)); ("instances", string_of_int (Array.length texts)) ] in
  if not trace then begin
    let l = drive ~between:(fun () -> ignore (setup kind ~seed setup_times)) ~solvers ~texts ~seconds () in
    (* Figures are medians over passes: each pass solves the same set. *)
    let per_pass f = Stats.median (Stats.Windows.map l.passes l.lat_us f) in
    let walls = Stats.Windows.map l.passes l.lat_us (fun _ s -> s) in
    let ratio =
      Stats.mean (Array.map (fun r -> float_of_int r.peak /. float_of_int (max 1 r.lower_bound)) l.first)
    in
    let p50 = per_pass (fun xs _ -> Stats.percentile xs 0.5) in
    {
      Run.checks = l.checks @ exact_agree l.first;
      attempted = l.ops;
      failed = l.failed_ops;
      end_to_end =
        [
          Run.m "throughput_rps" ~samples:l.ops
            (per_pass (fun xs s -> float_of_int (Array.length xs) /. s))
            "1/s";
          Run.m "latency_p50_us" ~samples:l.ops p50 "us";
          Run.m "latency_p99_us" ~samples:l.ops (per_pass (fun xs _ -> Stats.percentile xs 0.99)) "us";
          Run.m "setup_s" ~samples:(Stats.Buf.length setup_times)
            (Stats.median (Stats.Buf.to_array setup_times))
            "s";
          Run.m "rss_mb" (Run.vm_hwm_mb "self") "MB";
          Run.m "peak_ratio" ~samples:(Array.length l.first) ratio "ratio";
          Run.m "solve_wall_s" ~samples:(Array.length walls) (Stats.median walls) "s";
          Run.m "solve_p50_ms" ~samples:l.ops (p50 /. 1e3) "ms";
          Run.m "failed_frac" ~samples:l.ops (float_of_int l.failed_ops /. float_of_int l.ops) "ratio";
        ];
      layers = [];
      notes;
    }
  end
  else begin
    (* Untraced first half, traced second half, each with its own
       warm-up pass: their per-pass latency medians give the tracing
       overhead. *)
    let plain = drive ~solvers ~texts ~seconds:(seconds /. 2.) () in
    let sp = Spans.create () in
    let gc0 = Gc.quick_stat () in
    let l = drive ~spans:sp ~solvers ~texts ~seconds:(seconds /. 2.) () in
    let gc1 = Gc.quick_stat () in
    let p50 (h : loop) = Stats.median (Stats.Windows.map h.passes h.lat_us (fun xs _ -> Stats.median xs)) in
    (* [Report.make] on each first-pass packing, outside the timed
       solves so both halves run the same ops. *)
    Array.iteri
      (fun j r ->
        Spans.record sp ~id:(l.ops + j) "report.validate" (fun _ ->
            match revalidate insts.(j / n_solv) r.report with Ok _ -> () | Error m -> failwith m))
      l.first;
    let reports = Array.to_list (Array.map (fun r -> r.report) l.first) in
    let of_solver name = List.filter (fun (r : Report.t) -> r.Report.solver = name) reports in
    let count pred rs = float_of_int (sum_counters rs pred) in
    let serial = of_solver "exact-bb" in
    let nodes = count (( = ) "bb.nodes") serial in
    let serial_s = List.fold_left (fun a (r : Report.t) -> a +. r.Report.seconds) 0. serial in
    let a54 = of_solver "approx54" in
    let base = l.ops + Array.length l.first in
    let probes =
      match kind with
      | Exact -> exact_probes sp ~base ~insts ~first:l.first ~n_solv
      | Approx -> approx_probes sp ~base ~insts ~first:l.first ~n_solv ~solvers:names
    in
    Spans.write sp spans_path;
    {
      Run.checks = List.map2 (fun (k, a) (_, b) -> (k, a && b)) l.checks plain.checks @ exact_agree l.first;
      attempted = l.ops + plain.ops;
      failed = l.failed_ops + plain.failed_ops;
      end_to_end = [];
      layers =
        [
          span_p50 sp "io.parse" "io.parse_ms";
          span_p50 sp "report.validate" "report.validate_ms";
          span_p50 sp "runner.solve" "runner.stage_ms";
          Run.m "runner.fallthroughs" (float_of_int l.fallthroughs) "count";
          Run.m "bb.nodes" nodes "count";
          Run.m "bb.nodes_per_s" (if serial_s > 0. then nodes /. serial_s else 0.) "1/s";
          Run.m "segtree.ops_per_node"
            (if nodes > 0. then count (String.starts_with ~prefix:"segtree.") serial /. nodes else 0.)
            "count";
          Run.m "approx54.guesses" (count (( = ) "approx54.guesses") a54) "count";
          Run.m "approx54.attempts" (count (( = ) "approx54.attempts") a54) "count";
          Run.m "simplex.pivots" (count (( = ) "simplex.pivots") a54) "count";
          Run.m "budget_fit.probes" (count (String.starts_with ~prefix:"budget_fit.") reports) "count";
          Run.m "gc.minor_words_per_op"
            ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int l.ops)
            "words";
          Run.m "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
          Run.m "trace.overhead_frac"
            ((p50 l /. p50 plain) -. 1.)
            "ratio";
        ]
        @ probes;
      notes;
    }
  end
