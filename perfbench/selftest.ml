(* Self-tests of the benchmark's own machinery: the result writer,
   percentiles and span self time. *)

module Json = Dsp_serve.Json
open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let refuses f = match f () with _ -> false | exception Invalid_argument _ -> true

let () =
  let line =
    Result_json.result ~correct:true ~attempted:10 ~failed:0
      [ ("latency_p50_us", 12.5, "us"); ("setup_s", 0.0123456789012, "s") ]
  in
  (match Json.of_string line with
  | Ok (Json.Obj fields) ->
      check "result has exactly correct/attempted/failed/metrics"
        (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]);
      check "metric values keep their digits"
        (Option.bind (Json.member "metrics" (Json.Obj fields)) (Json.member "setup_s")
        |> Fun.flip Option.bind (Json.member "value")
        |> Fun.flip Option.bind Json.to_float
        = Some 0.0123456789012)
  | _ -> check "result parses as a JSON object" false);
  check "duplicate metric names are refused"
    (refuses (fun () ->
         Result_json.result ~correct:true ~attempted:1 ~failed:0 [ ("seed", 1., "count"); ("seed", 2., "count") ]));
  check "duplicate keys in nested objects are refused"
    (refuses (fun () ->
         Result_json.to_string (Json.Obj [ ("a", Json.List [ Json.Obj [ ("k", Json.Int 1); ("k", Json.Int 2) ] ]) ])));
  check "non-finite numbers are refused"
    (refuses (fun () -> Result_json.result ~correct:true ~attempted:1 ~failed:0 [ ("x", Float.nan, "s") ]));
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "nearest-rank p50 and p99" (Stats.percentile xs 0.5 = 50. && Stats.percentile xs 0.99 = 99.);
  let sp = Spans.create () in
  Spans.record sp ~id:0 "root" (fun root ->
      Spans.record sp ~id:0 ~parent:root "child" (fun _ -> Unix.sleepf 0.002));
  let root_self = (Spans.self_times sp "root").(0) and child = (Spans.self_times sp "child").(0) in
  check "self time excludes child spans"
    (child >= 2e6 && root_self >= 0. && root_self < child && Spans.length sp = 2);
  exit (if !failures = 0 then 0 else 1)
