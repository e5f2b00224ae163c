open Dsp_core
module Rat = Dsp_util.Rat

let classify_tests =
  [
    Helpers.qtest "classification covers every item exactly once"
      (Helpers.instance_arb ~max_width:20 ~max_n:15 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let cls = Dsp_algo.Classify.classify inst p in
        Dsp_algo.Classify.total_items cls = Instance.n_items inst);
    Helpers.qtest "chosen thresholds bound the medium area"
      (Helpers.instance_arb ~max_width:20 ~max_n:15 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let eps = Rat.make 1 4 in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps in
        (* Lemma 2 with f = eps: medium area <= eps * W * target. *)
        let area_scale = inst.Instance.width * target in
        Rat.(of_int (Dsp_algo.Classify.medium_area inst p)
             <= mul eps (of_int area_scale)));
    Alcotest.test_case "categories on a crafted instance" `Quick (fun () ->
        (* width 100, target 100, eps = 1/4 -> delta = 1/4, mu = 1/64.
           (50, 80): tall needs w < 25: no; h > 25, w >= 25 -> large.
           (1, 80): tall. (1, 10): vertical (10 in (25/4=6.25? no...
           h in (deltaH', (1/4+eps)H') = (25, 50): 10 is below -> not
           vertical; h <= muH'? mu*100 = 1.5625; 10 > that -> medium. *)
        let inst = Instance.of_dims ~width:100 [ (50, 80); (1, 80); (1, 10) ] in
        let p =
          Dsp_algo.Classify.choose_params inst ~target:100 ~eps:(Rat.make 1 4)
        in
        let cls = Dsp_algo.Classify.classify inst p in
        Alcotest.check Alcotest.int "large" 1 (List.length cls.Dsp_algo.Classify.large);
        Alcotest.check Alcotest.int "tall" 1 (List.length cls.Dsp_algo.Classify.tall));
  ]

(* Classification and rounding as they stood before the integer cuts:
   every item compared against exact rational products, and every
   rounded item re-walking the geometric scales with Rat.mul. *)
module Before = struct
  module C = Dsp_algo.Classify

  let gt v frac scale = Rat.(of_int v > mul frac (of_int scale))
  let ge v frac scale = Rat.(of_int v >= mul frac (of_int scale))
  let le v frac scale = Rat.(of_int v <= mul frac (of_int scale))
  let lt v frac scale = Rat.(of_int v < mul frac (of_int scale))

  let category (p : C.params) width (it : Item.t) =
    let w = it.Item.w and h = it.Item.h and tgt = p.C.target in
    let thr = Rat.(add (make 1 4) p.C.eps) in
    if ge h thr tgt && lt w p.C.delta width then `Tall
    else if gt h p.C.delta tgt && ge w p.C.delta width then `Large
    else if gt h p.C.delta tgt && lt h thr tgt && le w p.C.mu width then `Vertical
    else if
      ge h p.C.eps tgt && lt h thr tgt && gt w p.C.mu width && lt w p.C.delta width
    then `Medium_vertical
    else if le h p.C.mu tgt && ge w p.C.delta width then `Horizontal
    else if le h p.C.mu tgt && le w p.C.mu width then `Small
    else `Medium

  let classify (inst : Instance.t) p =
    let items cls =
      Array.to_list inst.Instance.items
      |> List.filter (fun it -> category p inst.Instance.width it = cls)
      |> List.rev
    in
    {
      C.large = items `Large;
      tall = items `Tall;
      vertical = items `Vertical;
      medium_vertical = items `Medium_vertical;
      horizontal = items `Horizontal;
      small = items `Small;
      medium = items `Medium;
    }

  let round_heights (inst : Instance.t) (p : C.params) =
    let tgt = Rat.of_int p.C.target in
    let threshold = Rat.mul p.C.delta tgt in
    Instance.map_items
      (fun (it : Item.t) ->
        if Rat.(of_int it.Item.h <= threshold) then it
        else begin
          let rec find_scale level bound =
            let bound = Rat.mul bound p.C.eps in
            if Rat.(of_int it.Item.h >= bound) || level > 62 then bound
            else find_scale (level + 1) bound
          in
          let grid = max 1 (Rat.floor (Rat.mul (find_scale 1 tgt) p.C.eps)) in
          { it with Item.h = Dsp_util.Xutil.ceil_div it.Item.h grid * grid }
        end)
      inst
end

(* A random classification problem from [seed]: target up to 10^6, a
   width, eps in {1/4, 1/3, 1/5, 2/7} and (delta, mu) a consecutive
   pair of Lemma 2's sequence (f = id).  Half the item dimensions sit
   within one unit of a class or scale boundary, the rest spread over
   several orders of magnitude. *)
let cut_problem seed =
  let rng = Dsp_util.Rng.create seed in
  let pick xs = List.nth xs (Dsp_util.Rng.int rng (List.length xs)) in
  let eps = pick [ Rat.make 1 4; Rat.make 1 3; Rat.make 1 5; Rat.make 2 7 ] in
  let next s = Rat.(mul (mul s s) eps) in
  let delta =
    List.fold_left (fun s _ -> next s) eps (List.init (Dsp_util.Rng.int rng 3) Fun.id)
  in
  let target = 1 + Dsp_util.Rng.int rng 1_000_000 in
  let width = 1 + Dsp_util.Rng.int rng 100_000 in
  let p = { Dsp_algo.Classify.eps; delta; mu = next delta; target } in
  let near frac scale =
    let x = Rat.mul frac (Rat.of_int scale) in
    pick [ Rat.floor x; Rat.ceil x ] + Dsp_util.Rng.int_in rng (-1) 1
  in
  let fracs =
    Rat.[ eps; delta; p.mu; add (make 1 4) eps; mul eps eps; mul eps (mul eps eps) ]
  in
  let dim scale =
    let v =
      if Dsp_util.Rng.int rng 2 = 0 then near (pick fracs) scale
      else 1 + (Dsp_util.Rng.int rng scale / pick [ 1; 10; 100; 10_000 ])
    in
    max 1 (min scale v)
  in
  let inst =
    Instance.of_dims ~width
      (List.init (1 + Dsp_util.Rng.int rng 60) (fun _ -> (dim width, dim target)))
  in
  (inst, p)

let cut_tests =
  [
    Helpers.qtest ~count:400 "classify matches per-item rational comparisons"
      QCheck.(make Gen.nat) (fun seed ->
        let inst, p = cut_problem seed in
        Dsp_algo.Classify.classify inst p = Before.classify inst p);
    Helpers.qtest ~count:400 "round_heights matches the per-item scale walk"
      QCheck.(make Gen.nat) (fun seed ->
        let inst, p = cut_problem seed in
        Instance.equal (Dsp_algo.Rounding.round_heights inst p).Dsp_algo.Rounding.rounded
          (Before.round_heights inst p));
  ]

let rounding_tests =
  [
    Helpers.qtest "rounding never shrinks heights"
      (Helpers.instance_arb ~max_width:20 ~max_n:12 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let r = Dsp_algo.Rounding.round_heights inst p in
        Array.for_all2
          (fun (a : Item.t) (b : Item.t) -> b.Item.h >= a.Item.h && a.Item.w = b.Item.w)
          inst.Instance.items r.Dsp_algo.Rounding.rounded.Instance.items);
    Helpers.qtest "restore keeps starts and only lowers the peak"
      (Helpers.instance_arb ~max_width:15 ~max_n:10 ()) (fun inst ->
        let target = max 1 (Instance.lower_bound inst) in
        let p = Dsp_algo.Classify.choose_params inst ~target ~eps:(Rat.make 1 4) in
        let r = Dsp_algo.Rounding.round_heights inst p in
        let pk =
          Dsp_algo.Baselines.best_fit_decreasing r.Dsp_algo.Rounding.rounded
        in
        let restored = Dsp_algo.Rounding.restore r pk in
        Packing.starts restored = Packing.starts pk
        && Packing.height restored <= Packing.height pk);
  ]

let config_fill_tests =
  [
    Helpers.qtest ~count:60 "fill conserves items and respects boxes"
      (Helpers.instance_arb ~max_width:20 ~max_n:10 ~max_h:4 ()) (fun inst ->
        let boxes =
          [
            { Dsp_algo.Budget_fit.x = 0; len = inst.Instance.width; base = 0; height = 8 };
          ]
        in
        let items = Array.to_list inst.Instance.items in
        match Dsp_algo.Config_fill.fill ~boxes ~items () with
        | None -> true
        | Some r ->
            let placed = List.map (fun p -> p.Dsp_algo.Config_fill.item) r.placements in
            List.length placed + List.length r.Dsp_algo.Config_fill.overflow
            = List.length items
            &&
            (* Column loads within the box height. *)
            let profile = Profile.create inst.Instance.width in
            List.iter
              (fun { Dsp_algo.Config_fill.item; start } ->
                Profile.add_item profile item ~start)
              r.Dsp_algo.Config_fill.placements;
            Profile.peak profile <= 8);
    Alcotest.test_case "perfectly divisible fill has no overflow" `Quick (fun () ->
        (* Four 1x2 items into a 4-wide box of height 2: one
           configuration, zero overflow expected from the LP. *)
        let items = List.init 4 (fun id -> Item.make ~id ~w:1 ~h:2) in
        let boxes = [ { Dsp_algo.Budget_fit.x = 0; len = 4; base = 0; height = 2 } ] in
        match Dsp_algo.Config_fill.fill ~boxes ~items () with
        | None -> Alcotest.fail "LP should be feasible"
        | Some r ->
            Alcotest.check Alcotest.int "overflow" 0
              (List.length r.Dsp_algo.Config_fill.overflow));
  ]

let algo_tests =
  (* The heuristic solvers come from the engine registry — the single
     algorithm table — rather than a private list. *)
  List.concat_map
    (fun (s : Dsp_engine.Solver.t) ->
      let name = s.Dsp_engine.Solver.name in
      [
        Helpers.qtest (name ^ " always returns a valid packing")
          (Helpers.instance_arb ~max_width:16 ~max_n:12 ())
          (fun inst ->
            let pk =
              s.Dsp_engine.Solver.solve
                ~budget:(Dsp_util.Budget.unlimited ()) inst
            in
            Result.is_ok (Packing.validate pk)
            && Instance.n_items (Packing.instance pk) = Instance.n_items inst);
      ])
    (Dsp_engine.Registry.heuristics ())
  @ [
      Helpers.qtest ~count:30 "approx54 stays within 5/4 + eps of optimum"
        (Helpers.tiny_instance_arb ()) (fun inst ->
          match Dsp_exact.Dsp_bb.optimal_height ~node_limit:500_000 inst with
          | None -> true
          | Some opt ->
              let h = Packing.height (Dsp_algo.Approx54.solve inst) in
              (* eps = 1/4 default; integer slack of 1 for tiny optima. *)
              h <= ((5 * opt) + 3) / 4 + 1);
      Helpers.qtest ~count:30 "approx53 stays within 5/3 of optimum"
        (Helpers.tiny_instance_arb ()) (fun inst ->
          match Dsp_exact.Dsp_bb.optimal_height ~node_limit:500_000 inst with
          | None -> true
          | Some opt ->
              Packing.height (Dsp_algo.Approx53.solve inst) <= (5 * opt / 3) + 1);
      Alcotest.test_case "approx54 solves a perfect-fit instance optimally"
        `Quick (fun () ->
          let rng = Dsp_util.Rng.create 5 in
          let inst =
            Dsp_instance.Generators.perfect_fit rng ~width:12 ~height:10 ~cuts:9
          in
          let pk, _ = Dsp_algo.Approx54.solve_with_stats inst in
          Alcotest.check Alcotest.bool "within 5/4 of 10" true
            (Packing.height pk <= 13));
    ]

let suite = classify_tests @ cut_tests @ rounding_tests @ config_fill_tests @ algo_tests
