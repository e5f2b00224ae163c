(* The repo benchmark.  perfbench/run.py builds this program and calls

     bench.exe probe
     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   --served PATH --nproc N --domains N --parallelism X
                   --placement P

   [probe] prints [Domain.recommended_domain_count] and the effective
   parallelism (a spin loop on one domain against that many).  [run]
   runs one workload, prints the run context, every correctness check
   and every metric with its unit and sample count, then the result as
   the last line of standard output.  It exits 1 when a correctness
   check fails.  The workloads and the metrics the result carries are
   read from BENCHMARK.json in the working directory. *)

module Json = Dsp_serve.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe probe\n\
    \       bench.exe run --workload W --seed N --seconds S --trace 0|1 --served PATH\n\
    \                     --nproc N --domains N --parallelism X --placement P";
  exit 2

let parse_args args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  fun key -> match List.assoc_opt key kv with Some v -> v | None -> usage ()

(* BENCHMARK.json's workload names, and the (name, unit) pairs of its
   [end_to_end] and [per_layer] metrics. *)
let declared () =
  let j =
    match Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith ("BENCHMARK.json: " ^ m)
  in
  let field e f =
    match Option.bind (Json.member f e) Json.to_str with
    | Some v -> v
    | None -> failwith ("BENCHMARK.json: an entry has no string " ^ f)
  in
  let entries key = Option.value (Option.bind (Json.member key j) Json.to_list) ~default:[] in
  let metrics key = List.map (fun e -> (field e "name", field e "unit")) (entries key) in
  (List.map (fun e -> field e "name") (entries "workloads"), metrics "end_to_end", metrics "per_layer")

(* The declared metrics in declared order, with the workload's values.
   A reported metric may be extra (printed, not in the result: the
   latency percentiles, whose run-to-run spread on a shared host is
   too wide for a bound, and the metrics of one kind of workload), but
   one with a declared name must carry the declared unit, and an
   untraced run must report every end-to-end metric. *)
let select ~zero_fill declared (reported : Run.metric list) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Run.metric) -> m.Run.name = name) reported with
      | Some m when m.Run.unit = unit -> (name, m.Run.value, unit)
      | Some m -> failwith (Printf.sprintf "metric %s: unit %s, declared %s" name m.Run.unit unit)
      | None when zero_fill -> (name, 0., unit)
      | None -> failwith ("workload did not report " ^ name))
    declared

let run get =
  let workloads, end_to_end, per_layer = declared () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let dir = Run.fresh_dir (Filename.concat "_perfbench" (Printf.sprintf "%s-%d" workload seed)) in
  let spans_path = Filename.concat dir "traced.spans.tsv" in
  let o =
    match workload with
    | "online-mem" -> Online_load.run Online_load.Mem ~exe:(get "served") ~dir ~seed ~seconds ~trace ~spans_path
    | "online-durable" ->
        Online_load.run Online_load.Durable ~exe:(get "served") ~dir ~seed ~seconds ~trace ~spans_path
    | "solve-exact" -> Solve_load.run Solve_load.Exact ~seed ~seconds ~trace ~spans_path
    | "solve-approx" -> Solve_load.run Solve_load.Approx ~seed ~seconds ~trace ~spans_path
    | w -> failwith ("BENCHMARK.json declares a workload this program does not run: " ^ w)
  in
  let context =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", get "seconds");
      ("trace", get "trace");
      ("nproc", get "nproc");
      ("recommended_domain_count", get "domains");
      ("ocaml", Sys.ocaml_version);
      ("effective_parallelism", get "parallelism");
      ("placement", get "placement");
    ]
    @ o.Run.notes
  in
  List.iter (fun (k, v) -> Printf.printf "context %s=%s\n" k v) context;
  List.iter (fun (name, ok) -> Printf.printf "check %s %s\n" (if ok then "PASS" else "FAIL") name) o.Run.checks;
  let shown = if trace then o.Run.layers else o.Run.end_to_end in
  List.iter
    (fun (m : Run.metric) ->
      Printf.printf "metric %-34s %14.6g %-6s n=%d\n" m.Run.name m.Run.value m.Run.unit m.Run.samples)
    shown;
  Printf.printf "attempted %d failed %d\n" o.Run.attempted o.Run.failed;
  let correct = List.for_all snd o.Run.checks in
  let metrics =
    if trace then select ~zero_fill:true per_layer shown else select ~zero_fill:false end_to_end shown
  in
  print_endline (Result_json.result ~correct ~attempted:o.Run.attempted ~failed:o.Run.failed metrics);
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "probe" :: [] ->
      let domains = Domain.recommended_domain_count () in
      Printf.printf "%d %.4f\n" domains (Run.spin_parallelism ~domains)
  | _ :: "run" :: args -> run (parse_args args)
  | _ -> usage ()
