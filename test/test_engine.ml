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
  @ corruption_tests
