(* dsp_lint golden suite: every rule against its fixture pair under
   tools/lint/fixtures, plus the three suppression channels, the
   --only selector, the dune-graph scrape behind the R2 scope, and the
   summary cache.  R1-R5 read fixture sources; R6-R9 read the compiled
   fixtures' .cmt files through Lint_tast, the production front-end.
   Findings are projected to (rule, basename, line) so the assertions
   pin exact locations without caring about absolute paths. *)

module L = Lint_core

let fixtures = "../tools/lint/fixtures"
let fx name = Filename.concat fixtures name

(* A fixture-local config: designation by basename, fixture dir as the
   domain-shared/budgeted scope, the fixture sites table for R4. *)
let cfg =
  {
    L.r1_scope =
      [
        ("r1_bad.ml", L.All);
        ("r1_good.ml", L.All);
        ("r1_flat_bad.ml", L.All);
        ("r1_flat_good.ml", L.All);
        ("suppress.ml", L.All);
      ];
    r2_dirs = [ "fixtures" ];
    r3_dirs = [ "fixtures" ];
    r4_sites_file = Some "r4_sites.ml";
    r5_allow = [];
  }

let project f = (L.rule_name f.L.rule, Filename.basename f.L.file, f.L.line)

let run ?only paths =
  let res = L.run ?only cfg paths in
  Alcotest.(check (list string)) "no parse errors" [] res.L.errors;
  List.map project res.L.findings

let check = Alcotest.(check (list (triple string string int)))

let case name f = Alcotest.test_case name `Quick f

let rule_tests =
  [
    case "R1 flags raw arithmetic, exempts small literals" (fun () ->
        check "r1_bad"
          [ ("R1", "r1_bad.ml", 3); ("R1", "r1_bad.ml", 4) ]
          (run ~only:[ L.R1 ] [ fx "r1_bad.ml" ]));
    case "R1 accepts checked helpers and index idioms" (fun () ->
        check "r1_good" [] (run ~only:[ L.R1 ] [ fx "r1_good.ml" ]));
    case "R1 flags raw Bigarray-cell accumulation (flat-kernel style)" (fun () ->
        check "r1_flat_bad"
          [
            ("R1", "r1_flat_bad.ml", 3);
            ("R1", "r1_flat_bad.ml", 4);
            ("R1", "r1_flat_bad.ml", 5);
          ]
          (run ~only:[ L.R1 ] [ fx "r1_flat_bad.ml" ]));
    case "R1 accepts saturating thresholds and waivered guard sites" (fun () ->
        check "r1_flat_good" [] (run ~only:[ L.R1 ] [ fx "r1_flat_good.ml" ]));
    case "R2 flags bare toplevel mutable state" (fun () ->
        check "r2_bad"
          [ ("R2", "r2_bad.ml", 2); ("R2", "r2_bad.ml", 3); ("R2", "r2_bad.ml", 4) ]
          (run ~only:[ L.R2 ] [ fx "r2_bad.ml" ]));
    case "R2 accepts Atomic/DLS/Mutex/per-call and the local waiver" (fun () ->
        check "r2_good" [] (run ~only:[ L.R2 ] [ fx "r2_good.ml" ]));
    case "R2 flags an unguarded hand-rolled stealing deque" (fun () ->
        check "r2_deque_bad"
          [
            ("R2", "r2_deque_bad.ml", 3);
            ("R2", "r2_deque_bad.ml", 4);
            ("R2", "r2_deque_bad.ml", 5);
          ]
          (run ~only:[ L.R2 ] [ fx "r2_deque_bad.ml" ]));
    case "R2 accepts the Atomic-indexed deque with a waived ring" (fun () ->
        check "r2_deque_good" [] (run ~only:[ L.R2 ] [ fx "r2_deque_good.ml" ]));
    case "R3 flags checkpoint-free recursion" (fun () ->
        check "r3_bad"
          [ ("R3", "r3_bad.ml", 3) ]
          (run ~only:[ L.R3 ] [ fx "r3_bad.ml" ]));
    case "R3 accepts direct and helper-mediated checkpoints" (fun () ->
        check "r3_good" [] (run ~only:[ L.R3 ] [ fx "r3_good.ml" ]));
    case "R4 flags off-table literals and dead sites" (fun () ->
        check "r4_bad"
          [ ("R4", "r4_bad.ml", 4); ("R4", "r4_sites.ml", 4) ]
          (run ~only:[ L.R4 ] [ fx "r4_sites.ml"; fx "r4_bad.ml" ]));
    case "R4 accepts table bindings and canonical literals" (fun () ->
        check "r4_good" []
          (run ~only:[ L.R4 ] [ fx "r4_sites.ml"; fx "r4_good.ml" ]));
    case "R4 reports a missing sites table instead of going silent" (fun () ->
        check "r4_missing"
          [ ("R4", "r4_sites.ml", 1) ]
          (run ~only:[ L.R4 ] [ fx "r4_bad.ml" ]));
    case "R5 flags try-wildcard and exception-wildcard" (fun () ->
        check "r5_bad"
          [ ("R5", "r5_bad.ml", 2); ("R5", "r5_bad.ml", 4) ]
          (run ~only:[ L.R5 ] [ fx "r5_bad.ml" ]));
    case "R5 accepts named handlers and rebind-and-reraise" (fun () ->
        check "r5_good" [] (run ~only:[ L.R5 ] [ fx "r5_good.ml" ]));
    case "R5 honours the absorber allowlist" (fun () ->
        let allowed = { cfg with L.r5_allow = [ "r5_bad.ml" ] } in
        let res = L.run ~only:[ L.R5 ] allowed [ fx "r5_bad.ml" ] in
        check "allowlisted" [] (List.map project res.L.findings));
  ]

let suppression_tests =
  [
    case "file attribute and line waivers silence real findings" (fun () ->
        check "suppress" []
          (run ~only:[ L.R1; L.R3; L.R5 ] [ fx "suppress.ml" ]));
    case "--only restricts the rule set over the whole corpus" (fun () ->
        check "only R5"
          [ ("R5", "r5_bad.ml", 2); ("R5", "r5_bad.ml", 4) ]
          (run ~only:[ L.R5 ] [ fixtures ]));
  ]

let plumbing_tests =
  [
    case "findings print as file:line:col [rule] message" (fun () ->
        Alcotest.(check string)
          "format" "a.ml:3:7 [R1] m"
          (L.finding_to_string
             { L.rule = L.R1; file = "a.ml"; line = 3; col = 7; msg = "m" }));
    case "rule names round-trip through rule_of_string" (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (L.rule_name r) true
              (L.rule_of_string (L.rule_name r) = Some r))
          L.all_rules;
        Alcotest.(check bool) "junk rejected" true (L.rule_of_string "R12" = None));
    case "R2 scope follows the dune graph from the engine roots" (fun () ->
        (* The test binary runs in _build/default/test; the parent holds
           the copied dune files of every library. *)
        let dirs = (L.project_config ~root:"..").L.r2_dirs in
        List.iter
          (fun d ->
            Alcotest.(check bool) (d ^ " reachable") true (List.mem d dirs))
          [ "lib/util"; "lib/core"; "lib/exact"; "lib/engine"; "lib/serve" ];
        Alcotest.(check bool) "augment is outside the engine cone" false
          (List.mem "lib/augment" dirs));
  ]

(* ----- whole-program rules (R6-R9, typedtree front-end) -------------- *)

module W = Lint_whole

(* Fixture roots: each fixture's entry points stand in for the
   production Segtree hot paths / Server.handle. *)
let wcfg =
  {
    W.r7_roots =
      [ "R7_bad.range_add"; "R7_good.range_add"; "Suppress_whole.hot" ];
    r8_roots = [ "R8_bad.handle"; "R8_good.handle"; "Suppress_whole.handle" ];
  }

(* tools/lint/fixtures/dune compiles the R6-R9 fixtures as the
   lint_fixtures library; the rules run on its .cmt typedtrees through
   the same cache-and-analyze path as the production scan.  The test
   runs in _build/default/test, so ".." is the build root the
   fixture sources (for waivers) and artifacts live under. *)
let fixture_cmt name =
  Filename.concat fixtures
    (".lint_fixtures.objs/byte/lint_fixtures__"
    ^ String.capitalize_ascii name ^ ".cmt")

let wrun_cmts ?only ?cache_dir cmts =
  let res =
    W.run_cmts ?only ?cache_dir ~config:wcfg
      ~src_prefixes:[ "tools/lint/fixtures/" ] ~root:".." cmts
  in
  Alcotest.(check int) "every artifact summarised" (List.length cmts)
    res.W.units;
  res

let wrun ?only names =
  List.map project (wrun_cmts ?only (List.map fixture_cmt names)).W.findings

let whole_rule_tests =
  [
    case "R6 flags both edges of an ABBA cycle and a re-acquire" (fun () ->
        check "r6_bad"
          [
            ("R6", "r6_bad.ml", 9);
            ("R6", "r6_bad.ml", 15);
            ("R6", "r6_bad.ml", 21);
          ]
          (wrun ~only:[ L.R6 ] [ "r6_bad" ]));
    case "R6 accepts a consistent order, including under Fun.protect"
      (fun () -> check "r6_good" [] (wrun ~only:[ L.R6 ] [ "r6_good" ]));
    case "R7 flags a seeded closure and a reachable allocator, not cold code"
      (fun () ->
        check "r7_bad"
          [ ("R7", "r7_bad.ml", 5); ("R7", "r7_bad.ml", 8) ]
          (wrun ~only:[ L.R7 ] [ "r7_bad" ]));
    case "R7 certifies an in-place hot path with a cold allocator nearby"
      (fun () -> check "r7_good" [] (wrun ~only:[ L.R7 ] [ "r7_good" ]));
    case "R8 flags mutate-before-append and append-before-validate" (fun () ->
        check "r8_bad"
          [ ("R8", "r8_bad.ml", 8); ("R8", "r8_bad.ml", 9) ]
          (wrun ~only:[ L.R8 ] [ "r8_bad" ]));
    case "R8 accepts validate-append-mutate through a helper" (fun () ->
        check "r8_good" [] (wrun ~only:[ L.R8 ] [ "r8_good" ]));
    case "R9 flags IO under lock: direct, via helper, via locked closure"
      (fun () ->
        check "r9_bad"
          [
            ("R9", "r9_bad.ml", 9);
            ("R9", "r9_bad.ml", 14);
            ("R9", "r9_bad.ml", 23);
          ]
          (wrun ~only:[ L.R9 ] [ "r9_bad" ]));
    case "R9 accepts IO outside the section and Condition.wait" (fun () ->
        check "r9_good" [] (wrun ~only:[ L.R9 ] [ "r9_good" ]));
    case "line waivers silence R6-R9 findings" (fun () ->
        (* One real violation per rule before the waivers apply... *)
        let raw =
          match Lint_tast.summarize_cmt (fixture_cmt "suppress_whole") with
          | Error e -> Alcotest.fail e
          | Ok s -> W.analyze ~config:wcfg [ s ]
        in
        check "suppress_whole unwaived"
          [
            ("R6", "suppress_whole.ml", 10);
            ("R6", "suppress_whole.ml", 17);
            ("R7", "suppress_whole.ml", 23);
            ("R8", "suppress_whole.ml", 30);
            ("R9", "suppress_whole.ml", 35);
          ]
          (List.sort compare (List.map project raw));
        (* ...and none after. *)
        check "suppress_whole" []
          (wrun ~only:[ L.R6; L.R7; L.R8; L.R9 ] [ "suppress_whole" ]));
  ]

let cache_tests =
  let copy ~src ~dst =
    let bytes = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> output_string oc bytes)
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  [
    case "summary cache: warm reruns hit, an edit re-analyzes one unit"
      (fun () ->
        let dir = Filename.temp_dir "lint_cache" "" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let cache_dir = Filename.concat dir "cache" in
            let local name = Filename.concat dir (name ^ ".cmt") in
            let names = [ "r6_good"; "r9_good" ] in
            List.iter
              (fun n -> copy ~src:(fixture_cmt n) ~dst:(local n))
              names;
            let counts () =
              let r = wrun_cmts ~cache_dir (List.map local names) in
              (r.W.analyzed, r.W.cached)
            in
            let pair = Alcotest.(pair int int) in
            Alcotest.check pair "cold run analyzes both" (2, 0) (counts ());
            Alcotest.check pair "warm run hits both" (0, 2) (counts ());
            (* New bytes under the same path: only that unit misses. *)
            copy ~src:(fixture_cmt "r7_good") ~dst:(local "r9_good");
            Alcotest.check pair "edit re-analyzes exactly one" (1, 1)
              (counts ())));
  ]

let suite =
  rule_tests @ suppression_tests @ plumbing_tests @ whole_rule_tests
  @ cache_tests
