open Dsp_core

(* Brute-force references for differential testing. *)

let brute_dsp_opt inst =
  let n = Instance.n_items inst in
  let width = inst.Instance.width in
  let starts = Array.make n 0 in
  let best = ref max_int in
  let rec go k =
    if k = n then begin
      let h = Profile.peak (Profile.of_starts inst starts) in
      if h < !best then best := h
    end
    else
      let it = Instance.item inst k in
      for s = 0 to width - it.Item.w do
        starts.(k) <- s;
        go (k + 1)
      done
  in
  go 0;
  !best

let dsp_bb_tests =
  [
    Helpers.qtest ~count:60 "branch and bound matches brute force"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        QCheck.assume (Instance.n_items inst <= 5);
        match Dsp_exact.Dsp_bb.optimal_height inst with
        | Some h -> h = brute_dsp_opt inst
        | None -> true);
    Helpers.qtest "decision monotone in the height"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        match Dsp_exact.Dsp_bb.optimal_height inst with
        | None -> true
        | Some opt -> (
            (match Dsp_exact.Dsp_bb.decide inst ~height:(opt - 1) with
            | Dsp_exact.Dsp_bb.Infeasible -> true
            | _ -> false)
            &&
            match Dsp_exact.Dsp_bb.decide inst ~height:(opt + 1) with
            | Dsp_exact.Dsp_bb.Feasible pk ->
                Result.is_ok (Packing.validate pk) && Packing.height pk <= opt + 1
            | _ -> false));
    Alcotest.test_case "solves the empty instance" `Quick (fun () ->
        let inst = Instance.make ~width:3 [||] in
        Alcotest.check (Alcotest.option Alcotest.int) "zero" (Some 0)
          (Dsp_exact.Dsp_bb.optimal_height inst));
    Alcotest.test_case "known optimum" `Quick (fun () ->
        (* Three 2x2 squares in width 4: two side by side + one on
           top -> peak 4. *)
        let inst = Instance.of_dims ~width:4 [ (2, 2); (2, 2); (2, 2) ] in
        Alcotest.check (Alcotest.option Alcotest.int) "peak 4" (Some 4)
          (Dsp_exact.Dsp_bb.optimal_height inst));
  ]

(* Serial search-tree sizes, pinned exactly: the B&B is deterministic,
   so any change to its move order, pruning or symmetry rules moves
   these counts even when every optimum stays right.  Each row is
   (generator, seed, n, width, nodes of [solve], nodes of [decide] at
   the lower bound, nodes of [decide] at the lower bound + 1). *)
let pinned_node_counts =
  let module Gen = Dsp_instance.Generators in
  let uniform rng ~n ~width =
    Gen.uniform rng ~n ~width ~max_w:(width / 2) ~max_h:9
  in
  let correlated rng ~n ~width =
    Gen.correlated rng ~n ~width ~max_w:(width / 2) ~max_h:9
  in
  let tall_and_flat rng ~n ~width = Gen.tall_and_flat rng ~n ~width ~max_h:9 in
  [
    ("uniform", uniform, 100, 8, 10, 486, 209, 477);
    ("correlated", correlated, 100, 8, 10, 34, 25, 25);
    ("uniform", uniform, 101, 9, 12, 143, 133, 10);
    ("correlated", correlated, 101, 9, 12, 179, 125, 169);
    ("uniform", uniform, 102, 10, 14, 236, 225, 11);
    ("uniform", uniform, 103, 11, 16, 12453, 11788, 665);
    ("correlated", correlated, 103, 11, 16, 2252, 2228, 12);
    ("tall_and_flat", tall_and_flat, 103, 11, 16, 3749, 3749, 23);
    ("uniform", uniform, 104, 12, 18, 30011, 29998, 13);
    ("correlated", correlated, 104, 12, 18, 6581, 6568, 13);
    ("correlated", correlated, 105, 13, 20, 5036, 4929, 107);
    ("uniform", uniform, 106, 14, 22, 46, 16, 30);
  ]

let node_count_tests =
  [
    Alcotest.test_case "serial node counts are pinned on a fixed corpus" `Quick
      (fun () ->
        let c = Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_nodes in
        let nodes f =
          let before = Dsp_util.Instr.value c in
          ignore (f ());
          Dsp_util.Instr.value c - before
        in
        List.iter
          (fun (kind, gen, seed, n, width, solve, at_lb, at_lb1) ->
            let inst = gen (Dsp_util.Rng.create seed) ~n ~width in
            let lb = Instance.lower_bound inst in
            let name what = Printf.sprintf "%s seed %d: %s" kind seed what in
            Alcotest.(check int) (name "solve") solve
              (nodes (fun () -> Dsp_exact.Dsp_bb.solve inst));
            Alcotest.(check int) (name "decide at LB") at_lb
              (nodes (fun () -> Dsp_exact.Dsp_bb.decide inst ~height:lb));
            Alcotest.(check int) (name "decide at LB+1") at_lb1
              (nodes (fun () -> Dsp_exact.Dsp_bb.decide inst ~height:(lb + 1))))
          pinned_node_counts);
  ]

let sp_exact_tests =
  [
    Helpers.qtest ~count:40 "sp optimum >= dsp optimum"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        match
          (Dsp_exact.Sp_exact.optimal_height inst, Dsp_exact.Dsp_bb.optimal_height inst)
        with
        | Some sp, Some dsp -> sp >= dsp
        | _ -> true);
    Helpers.qtest ~count:40 "sp witness is a valid rectangle packing"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        match Dsp_exact.Sp_exact.solve inst with
        | Some pk -> Result.is_ok (Rect_packing.validate pk)
        | None -> true);
    Helpers.qtest ~count:40 "y_feasible agrees with the witness height"
      (Helpers.tiny_instance_arb ()) (fun inst ->
        match Dsp_exact.Sp_exact.solve inst with
        | None -> true
        | Some pk ->
            let h = Rect_packing.height pk in
            let starts =
              Array.init (Instance.n_items inst) (fun i ->
                  (Rect_packing.position pk i).Rect_packing.x)
            in
            Dsp_exact.Sp_exact.y_feasible inst ~starts ~height:h <> None);
  ]

let three_partition_tests =
  [
    Alcotest.test_case "solves a hand-built yes instance" `Quick (fun () ->
        (* B = 12; triples (5,4,3) twice, disguised by shuffling. *)
        let numbers = [| 5; 4; 4; 3; 5; 3 |] in
        match Dsp_exact.Three_partition.solve ~numbers ~bound:12 () with
        | None -> Alcotest.fail "should be solvable"
        | Some triples ->
            Alcotest.check Alcotest.int "two triples" 2 (Array.length triples);
            Array.iter
              (fun (a, b, c) ->
                Alcotest.check Alcotest.int "sum" 12
                  (numbers.(a) + numbers.(b) + numbers.(c)))
              triples);
    Alcotest.test_case "rejects a no instance" `Quick (fun () ->
        (* Sum = 2B but every triple mixing 6s and 2s sums to 14 or
           10, never 12. *)
        let numbers = [| 6; 6; 6; 2; 2; 2 |] in
        Alcotest.check Alcotest.bool "unsolvable" false
          (Dsp_exact.Three_partition.solvable ~numbers ~bound:12 ()));
    Helpers.qtest ~count:30 "generated yes instances are solvable"
      (QCheck.make QCheck.Gen.(pair (int_range 2 4) (int_range 0 1000)))
      (fun (k, seed) ->
        let rng = Dsp_util.Rng.create seed in
        let tp = Dsp_instance.Hardness.yes_instance rng ~k ~bound:16 in
        Dsp_exact.Three_partition.solvable ~numbers:tp.Dsp_instance.Hardness.numbers
          ~bound:16 ());
  ]

let pts_exact_tests =
  [
    Helpers.qtest ~count:30 "exact schedules are valid and optimal-looking"
      (Helpers.pts_arb ~max_m:4 ~max_n:6 ~max_p:4 ()) (fun inst ->
        match Dsp_exact.Pts_exact.solve ~node_limit:400_000 inst with
        | None -> true
        | Some sched ->
            Result.is_ok (Pts.Schedule.validate sched)
            && Pts.Schedule.makespan sched >= Pts.Inst.lower_bound inst
            && Pts.Schedule.makespan sched
               <= Dsp_pts.List_scheduling.makespan inst);
    Alcotest.test_case "known schedule optimum" `Quick (fun () ->
        (* 2 machines, jobs (2,2), (1,1), (1,1): block 2 then both
           singles in parallel -> makespan 3. *)
        let inst = Pts.Inst.of_dims ~machines:2 [ (2, 2); (1, 1); (1, 1) ] in
        Alcotest.check (Alcotest.option Alcotest.int) "makespan" (Some 3)
          (Dsp_exact.Pts_exact.optimal_makespan inst));
  ]

let gap_tests =
  [
    Alcotest.test_case "gap family has the advertised optima" `Slow (fun () ->
        let inst = Dsp_instance.Gap_family.instance ~scale:1 in
        Alcotest.check (Alcotest.option Alcotest.int) "dsp"
          (Some (Dsp_instance.Gap_family.expected_dsp_opt ~scale:1))
          (Dsp_exact.Dsp_bb.optimal_height inst);
        Alcotest.check (Alcotest.option Alcotest.int) "sp"
          (Some (Dsp_instance.Gap_family.expected_sp_opt ~scale:1))
          (Dsp_exact.Sp_exact.optimal_height inst));
    Alcotest.test_case "all witnesses have a strict gap" `Slow (fun () ->
        List.iter
          (fun inst ->
            match
              ( Dsp_exact.Dsp_bb.optimal_height inst,
                Dsp_exact.Sp_exact.optimal_height inst )
            with
            | Some dsp, Some sp ->
                if sp <= dsp then
                  Alcotest.failf "expected a gap, got sp=%d dsp=%d" sp dsp
            | _ -> Alcotest.fail "exact solver exhausted")
          Dsp_instance.Gap_family.slicing_wins);
  ]

let suite =
  dsp_bb_tests @ node_count_tests @ sp_exact_tests @ three_partition_tests
  @ pts_exact_tests @ gap_tests
