(* Registry-wide property suite for the solver engine: every
   registered solver, on random instances, must produce a validated
   report whose numbers are recomputable, and a corrupted packing must
   be rejected loudly at the Report boundary. *)

open Dsp_core
module Solver = Dsp_engine.Solver
module Registry = Dsp_engine.Registry
module Report = Dsp_engine.Report

let registry_tests =
  [
    Alcotest.test_case "registry names are unique" `Quick (fun () ->
        let names = Registry.names () in
        let sorted = List.sort_uniq compare names in
        Alcotest.check Alcotest.int "no duplicate names" (List.length names)
          (List.length sorted));
    Alcotest.test_case "registering a taken name raises Duplicate" `Quick
      (fun () ->
        let taken = List.hd (Registry.names ()) in
        let dup =
          {
            Solver.name = taken;
            family = Solver.Baseline;
            complexity = Solver.Poly;
            doc = "duplicate";
            solve = (fun ~budget:_ inst -> Packing.make inst [||]);
          }
        in
        match Registry.register dup with
        | () -> Alcotest.fail "expected Duplicate"
        | exception Registry.Duplicate _ -> ());
    Alcotest.test_case "heuristics excludes exponential solvers" `Quick
      (fun () ->
        Alcotest.check Alcotest.bool "no Exponential in heuristics" true
          (List.for_all
             (fun (s : Solver.t) -> s.Solver.complexity <> Solver.Exponential)
             (Registry.heuristics ())));
  ]

(* For every registered solver: the run succeeds (within a node budget
   large enough for tiny instances), the report's packing re-validates,
   the ratio is >= 1, and the reported peak equals the peak recomputed
   from a fresh profile. *)
let solver_report_tests =
  List.map
    (fun (s : Solver.t) ->
      Helpers.qtest ~count:40
        (s.Solver.name ^ " reports validated packings with recomputable peaks")
        (Helpers.tiny_instance_arb ())
        (fun inst ->
          match Solver.run ~node_budget:5_000_000 s inst with
          | Error msg -> QCheck.Test.fail_reportf "run failed: %s" msg
          | Ok r ->
              let recomputed =
                Profile.peak
                  (Profile.of_starts (Packing.instance r.Report.packing)
                     (Packing.starts r.Report.packing))
              in
              Result.is_ok (Packing.validate r.Report.packing)
              && r.Report.peak = recomputed
              && r.Report.ratio >= 1.0
              && r.Report.lower_bound = Instance.lower_bound inst
              && r.Report.seconds >= 0.0))
    (Registry.all ())

let counter_tests =
  [
    Alcotest.test_case "approx54 reports its binary-search counters" `Quick
      (fun () ->
        let rng = Dsp_util.Rng.create 3 in
        let inst =
          Dsp_instance.Generators.uniform rng ~n:12 ~width:14 ~max_w:8 ~max_h:9
        in
        match Solver.run (Registry.find_exn "approx54") inst with
        | Error msg -> Alcotest.failf "approx54: %s" msg
        | Ok r ->
            Alcotest.check Alcotest.bool "approx54.guesses > 0" true
              (Report.counter r "approx54.guesses" > 0);
            Alcotest.check Alcotest.bool "segtree ops recorded" true
              (Report.counter r "segtree.range_add" > 0));
    Alcotest.test_case "exact-bb reports node counts and respects budgets"
      `Quick (fun () ->
        let rng = Dsp_util.Rng.create 4 in
        let inst =
          Dsp_instance.Generators.uniform rng ~n:6 ~width:8 ~max_w:5 ~max_h:6
        in
        let exact = Registry.find_exn "exact-bb" in
        (match Solver.run ~node_budget:5_000_000 exact inst with
        | Error msg -> Alcotest.failf "exact-bb: %s" msg
        | Ok r ->
            Alcotest.check Alcotest.bool "bb.nodes > 0" true
              (Report.counter r "bb.nodes" > 0));
        (* A one-node budget cannot finish: the engine must surface the
           exhaustion as Error, not as a bogus packing. *)
        let big = Dsp_instance.Generators.uniform rng ~n:14 ~width:12 ~max_w:6 ~max_h:8 in
        match Solver.run ~node_budget:1 exact big with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected budget exhaustion");
  ]

(* Differential reference for pts-duality's bounded probe: the same
   binary search, but every probe builds the full list schedule over
   Σp (machine sets included) and accepts when its makespan is at
   most W. *)
let reference_pts_duality (inst : Instance.t) =
  if Instance.n_items inst = 0 then Packing.make inst [||]
  else begin
    let width = inst.Instance.width in
    let lb = max 1 (Instance.lower_bound inst) in
    let ub = Array.fold_left (fun acc (it : Item.t) -> acc + it.Item.h) 0 inst.Instance.items in
    let best = ref None in
    let ok m =
      let pts = Dsp_instance.Generators.pts_of_dsp inst ~height:m in
      let sched =
        Dsp_pts.List_scheduling.schedule ~order:Dsp_pts.List_scheduling.Longest_first pts
      in
      Pts.Schedule.makespan sched <= width
      && begin
           let pk = Packing.make inst sched.Pts.Schedule.sigma in
           (match !best with
           | Some b when Packing.height b <= Packing.height pk -> ()
           | _ -> best := Some pk);
           true
         end
    in
    ignore (Dsp_util.Xutil.binary_search_min lb (max lb ub) ok);
    Option.get !best
  end

let pts_duality inst =
  (Registry.find_exn "pts-duality").Solver.solve ~budget:(Dsp_util.Budget.unlimited ()) inst

let pts_duality_tests =
  [
    Helpers.qtest ~count:200 "pts-duality returns the full-schedule probe's packing"
      (Helpers.instance_arb ~max_width:40 ~max_n:30 ~max_h:12 ()) (fun inst ->
        Packing.starts (pts_duality inst)
        = Packing.starts (reference_pts_duality inst));
    (* Deterministic kernel work of one solve, pinned exactly: an extra
       probe, or a probe that runs past its first misfit, moves these. *)
    Alcotest.test_case "pts-duality kernel work is pinned" `Quick (fun () ->
        let inst =
          Dsp_instance.Generators.uniform (Dsp_util.Rng.create 13) ~n:60 ~width:80
            ~max_w:40 ~max_h:12
        in
        let first_fit = Dsp_util.Instr.(counter Sites.segtree_first_fit)
        and range_add = Dsp_util.Instr.(counter Sites.segtree_range_add) in
        let ff0 = Dsp_util.Instr.value first_fit
        and ra0 = Dsp_util.Instr.value range_add in
        ignore (pts_duality inst);
        Alcotest.(check (pair int int))
          "segtree.first_fit, segtree.range_add" (509, 1287)
          ( Dsp_util.Instr.value first_fit - ff0,
            Dsp_util.Instr.value range_add - ra0 ));
  ]

(* approx54's output and work pinned on a fixed corpus.  The heights
   and starts digests fix the packings, which the decision round's
   exact shortcuts (integer class cuts, incumbent-capped greedy
   passes, Rat fast paths) must leave unchanged.  The counters are
   the round's deterministic work and move with any extra pass,
   probe or pivot.  The best_start count is how often the round asks
   the kernel for a best-fit scan: a faster scan with the same answers
   leaves it, and every other number here, fixed. *)
let approx54_corpus () =
  let gen seed f = f (Dsp_util.Rng.create seed) in
  let module G = Dsp_instance.Generators in
  [
    ("uniform-60", gen 21 (fun r -> G.uniform r ~n:60 ~width:80 ~max_w:20 ~max_h:30));
    ("uniform-120", gen 22 (fun r -> G.uniform r ~n:120 ~width:200 ~max_w:60 ~max_h:50));
    ("uniform-200", gen 23 (fun r -> G.uniform r ~n:200 ~width:1000 ~max_w:300 ~max_h:100));
    ("correlated-100", gen 24 (fun r -> G.correlated r ~n:100 ~width:150 ~max_w:50 ~max_h:40));
    ("correlated-200", gen 25 (fun r -> G.correlated r ~n:200 ~width:1000 ~max_w:300 ~max_h:100));
    ("tall-flat-80", gen 26 (fun r -> G.tall_and_flat r ~n:80 ~width:100 ~max_h:60));
    ("tall-flat-160", gen 27 (fun r -> G.tall_and_flat r ~n:160 ~width:400 ~max_h:90));
    (* The shape of the solve-approx benchmark's fixed LP instance: a
       few tall items, many narrow mid-height ones and a few flat
       ones, so the configuration LP runs. *)
    ( "lp-shaped-67",
      gen 30 (fun rng ->
          let r lo hi = lo + Dsp_util.Rng.int rng (hi - lo + 1) in
          Instance.of_dims ~width:500
            (List.init 5 (fun _ -> (r 5 10, r 200 260))
            @ List.init 50 (fun _ -> (r 1 8, r 60 120))
            @ List.init 12 (fun _ -> (r 50 150, r 2 8)))) );
  ]

let starts_digest pk =
  Packing.starts pk |> Array.to_list |> List.map string_of_int
  |> String.concat "," |> Digest.string |> Digest.to_hex

(* (name, height, starts digest, [best_fit probes; range_add; pivots;
   attempts; best_start]) *)
let approx54_pins =
  [
    ("uniform-60", 101, "de5ecb3e245e1c1d1637123e0f39a325", [ 846; 2574; 0; 6; 846 ]);
    ("uniform-120", 472, "0c32820763bfb74ede680b95cf69aa55", [ 2277; 6350; 0; 7; 2277 ]);
    ("uniform-200", 1495, "0d77edf736c521813346a975a99fb720", [ 5120; 13905; 0; 9; 5120 ]);
    ("correlated-100", 436, "72004b2a2e3ae2fb6ca291e63d57ea2d", [ 2227; 6121; 0; 8; 2227 ]);
    ("correlated-200", 2146, "f4f470c9ce63d6a8ac4d7c35a1b8d9bb", [ 5456; 15240; 0; 10; 5456 ]);
    ("tall-flat-80", 242, "6e57ab0d9abc1dce50dc09894f0bac1a", [ 1699; 4803; 0; 8; 1699 ]);
    ("tall-flat-160", 722, "d78479b58e7a17565f1f0dbbd83e7f5d", [ 4303; 11341; 0; 9; 4303 ]);
    ("lp-shaped-67", 370, "9e7d277fc8393642eb5b25506f621c53", [ 65; 409; 159; 1; 65 ]);
  ]

let approx54_run inst =
  let module I = Dsp_util.Instr in
  let cs =
    List.map I.counter
      I.Sites.
        [
          budget_fit_best_fit_probes;
          segtree_range_add;
          simplex_pivots;
          approx54_attempts;
          segtree_best_start;
        ]
  in
  let before = List.map I.value cs in
  let pk = Dsp_algo.Approx54.solve inst in
  (Packing.height pk, starts_digest pk, List.map2 (fun c v0 -> I.value c - v0) cs before)

let approx54_pin_tests =
  [
    Alcotest.test_case "approx54 packings and work are pinned" `Quick (fun () ->
        List.iter2
          (fun (name, h, digest, work) (_, inst) ->
            Alcotest.(check (triple int string (list int)))
              (name
             ^ ": height, starts digest, [best_fit probes; range_add; pivots; \
                attempts; best_start]")
              (h, digest, work) (approx54_run inst))
          approx54_pins (approx54_corpus ()));
  ]

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let corruption_tests =
  [
    Alcotest.test_case "Report.make rejects a packing for another instance"
      `Quick (fun () ->
        let inst_a = Instance.of_dims ~width:6 [ (2, 3); (3, 1) ] in
        let inst_b = Instance.of_dims ~width:6 [ (2, 3); (3, 2) ] in
        let pk = Dsp_algo.Baselines.best_fit_decreasing inst_a in
        match
          Report.make ~solver:"crafted" ~instance:inst_b ~packing:pk
            ~seconds:0.0 ~counters:[]
        with
        | Ok _ -> Alcotest.fail "expected a validation error"
        | Error msg ->
            Alcotest.check Alcotest.bool
              (Printf.sprintf "message is descriptive: %S" msg)
              true
              (String.length msg > 0 && contains_substring msg "crafted"));
    Alcotest.test_case "a solver answering the wrong instance fails loudly"
      `Quick (fun () ->
        let other = Instance.of_dims ~width:5 [ (1, 1) ] in
        let lying =
          {
            Solver.name = "lying-solver";
            family = Solver.Baseline;
            complexity = Solver.Poly;
            doc = "returns a packing of a different instance";
            solve =
              (fun ~budget:_ _inst ->
                Dsp_algo.Baselines.best_fit_decreasing other);
          }
        in
        let inst = Instance.of_dims ~width:6 [ (2, 2); (4, 1) ] in
        match Solver.run lying inst with
        | exception Invalid_argument _ -> ()
        | Ok _ -> Alcotest.fail "expected Invalid_argument"
        | Error msg -> Alcotest.failf "expected a raise, got Error %s" msg);
  ]

let suite =
  registry_tests @ solver_report_tests @ counter_tests @ pts_duality_tests
  @ approx54_pin_tests @ corruption_tests
