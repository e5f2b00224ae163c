(* Crash-safe BENCH.json: atomic writes, and schema validation with
   descriptive errors on load. *)

module Bj = Dsp_bench.Bench_json

let with_clean f =
  Bj.clear ();
  Fun.protect ~finally:Bj.clear f

let in_temp_dir f =
  let dir = Filename.temp_file "dsp_bench_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let roundtrip_tests =
  [
    Alcotest.test_case "recorded metrics round-trip through write/load" `Quick
      (fun () ->
        with_clean (fun () ->
            in_temp_dir (fun dir ->
                Bj.record ~experiment:"E1" "seconds" (Bj.Float 1.25);
                Bj.record ~experiment:"E1" "status" (Bj.String "ok");
                Bj.record ~experiment:"E2" "nodes" (Bj.Int 42);
                Bj.record ~experiment:"E2" "status" (Bj.String "crashed");
                Bj.record ~experiment:"E2" "error" (Bj.String "boom \"quoted\"");
                let path = Filename.concat dir "BENCH.json" in
                Bj.write path;
                match Bj.load path with
                | Error e -> Alcotest.fail e
                | Ok p ->
                    Alcotest.(check string) "schema" Bj.schema_version p.Bj.schema;
                    Alcotest.(check (list string))
                      "experiment order" [ "E1"; "E2" ]
                      (List.map fst p.Bj.parsed_experiments);
                    let e2 = List.assoc "E2" p.Bj.parsed_experiments in
                    Alcotest.(check bool) "int metric" true
                      (List.assoc "nodes" e2 = Bj.Int 42);
                    Alcotest.(check bool) "escaped string metric" true
                      (List.assoc "error" e2 = Bj.String "boom \"quoted\""))));
    Alcotest.test_case "gc groups round-trip through write/load" `Quick
      (fun () ->
        with_clean (fun () ->
            in_temp_dir (fun dir ->
                Bj.record ~experiment:"kernel" "status" (Bj.String "ok");
                Bj.record_group ~experiment:"kernel" "storm_flat_gc"
                  [
                    ("minor_words", Bj.Float 0.25);
                    ("minor_collections", Bj.Int 0);
                  ];
                let path = Filename.concat dir "BENCH.json" in
                Bj.write path;
                match Bj.load path with
                | Error e -> Alcotest.fail e
                | Ok p ->
                    let k = List.assoc "kernel" p.Bj.parsed_experiments in
                    Alcotest.(check bool) "group metric" true
                      (List.assoc "storm_flat_gc" k
                      = Bj.Group
                          [
                            ("minor_words", Bj.Float 0.25);
                            ("minor_collections", Bj.Int 0);
                          ]))));
    Alcotest.test_case "record_group rejects nested groups" `Quick (fun () ->
        with_clean (fun () ->
            Alcotest.check_raises "nested group"
              (Invalid_argument
                 "Bench_json.record_group: nested group \"inner\" in \"outer\"")
              (fun () ->
                Bj.record_group ~experiment:"kernel" "outer"
                  [ ("inner", Bj.Group []) ])));
    Alcotest.test_case "record rejects a duplicate key" `Quick (fun () ->
        with_clean (fun () ->
            Bj.record ~experiment:"E1" "seed" (Bj.Int 0);
            Alcotest.check_raises "duplicate key"
              (Invalid_argument
                 "Bench_json.record: duplicate key \"seed\" in \"E1\"")
              (fun () -> Bj.record ~experiment:"E1" "seed" (Bj.Int 0))));
    Alcotest.test_case "write is atomic: no temp debris, old file survives a \
                        crashing render"
      `Quick (fun () ->
        with_clean (fun () ->
            in_temp_dir (fun dir ->
                let path = Filename.concat dir "BENCH.json" in
                Bj.record ~experiment:"E1" "status" (Bj.String "ok");
                Bj.write path;
                (* Overwrite with new content; the only files left must
                   be the destination itself — no orphaned temps. *)
                Bj.record ~experiment:"E1" "seconds" (Bj.Float 0.5);
                Bj.write path;
                Alcotest.(check (list string))
                  "directory contents" [ "BENCH.json" ]
                  (Array.to_list (Sys.readdir dir));
                Alcotest.(check bool) "file parses" true
                  (Result.is_ok (Bj.load path)))));
  ]

let validation_tests =
  let check_error name text fragment =
    Alcotest.test_case name `Quick (fun () ->
        match Bj.parse_string_result text with
        | Ok _ -> Alcotest.failf "accepted %S" text
        | Error msg ->
            let contains s sub =
              let n = String.length sub in
              let ok = ref false in
              for i = 0 to String.length s - n do
                if String.sub s i n = sub then ok := true
              done;
              !ok
            in
            Alcotest.(check bool)
              (Printf.sprintf "%S mentions %S" msg fragment)
              true (contains msg fragment))
  in
  [
    check_error "missing schema key" {|{"experiments": []}|} "schema";
    check_error "unknown schema version"
      {|{"schema": "dsp-bench/99", "experiments": []}|}
      "unknown schema";
    check_error "experiments not an array"
      {|{"schema": "dsp-bench/3", "experiments": 3}|}
      "not an array";
    check_error "entry without id"
      {|{"schema": "dsp-bench/3", "experiments": [{"x": 1}]}|}
      "missing \"id\"";
    check_error "non-scalar metric"
      {|{"schema": "dsp-bench/3", "experiments": [{"id": "E1", "m": [1]}]}|}
      "not a scalar";
    check_error "object metric under the pre-group schema"
      {|{"schema": "dsp-bench/3", "experiments": [{"id": "E1", "gc": {"minor_words": 0.0}}]}|}
      "not a scalar";
    check_error "nested group"
      {|{"schema": "dsp-bench/4", "experiments": [{"id": "E1", "gc": {"inner": {"x": 1}}}]}|}
      "not a scalar";
    Alcotest.test_case "one-level group loads under dsp-bench/4" `Quick
      (fun () ->
        match
          Bj.parse_string_result
            {|{"schema": "dsp-bench/4", "experiments": [{"id": "E1", "gc": {"minor_words": 0.5, "minor_collections": 3}}]}|}
        with
        | Ok p ->
            let e1 = List.assoc "E1" p.Bj.parsed_experiments in
            Alcotest.(check bool) "group parsed" true
              (List.assoc "gc" e1
              = Bj.Group
                  [
                    ("minor_words", Bj.Float 0.5);
                    ("minor_collections", Bj.Int 3);
                  ])
        | Error e -> Alcotest.fail e);
    check_error "duplicate metric key"
      {|{"schema": "dsp-bench/7", "experiments": [{"id": "E1", "seed": 0, "seed": 0}]}|}
      "duplicate key \"seed\"";
    check_error "duplicate group field"
      {|{"schema": "dsp-bench/7", "experiments": [{"id": "E1", "gc": {"x": 1, "x": 2}}]}|}
      "duplicate key \"x\"";
    check_error "truncated document"
      {|{"schema": "dsp-bench/3", "experiments": [|} "line 1";
    check_error "trailing garbage"
      {|{"schema": "dsp-bench/3", "experiments": []} extra|}
      "trailing garbage";
    Alcotest.test_case "previous schema version still loads" `Quick (fun () ->
        match
          Bj.parse_string_result
            {|{"schema": "dsp-bench/2", "experiments": [{"id": "E1", "seconds": 0.25}]}|}
        with
        | Ok p -> Alcotest.(check string) "schema" "dsp-bench/2" p.Bj.schema
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "load reports a readable path error" `Quick (fun () ->
        Alcotest.(check bool) "missing file is an Error" true
          (Result.is_error (Bj.load "/nonexistent/BENCH.json")));
  ]

let suite = roundtrip_tests @ validation_tests
