(* Machine-readable benchmark output (schema dsp-bench/7).

   Experiments register metrics (wall-clock seconds, peak heights,
   node counts, speedups) under their experiment id while they run;
   the harness then serializes everything to BENCH.json so later PRs
   have a perf trajectory to regress against.  Hand-rolled writer and
   validating reader: the container has no JSON library and the format
   is flat.

   Schema v3 (documented in EXPERIMENTS.md): same container shape as
   v2 — {"schema", "experiments": [{"id", <metrics>...}]} — plus
   degraded entries: an experiment that crashed or timed out still
   appears, with "status" ("ok" | "crashed") and, when crashed, an
   "error" string metric, so a partial benchmark run yields a valid,
   attributable file instead of nothing.  Writes are atomic (temp file
   in the target directory + rename): a harness killed mid-write never
   leaves a truncated BENCH.json, and the checkpoint written after
   every experiment makes the last completed state durable.

   Schema v4 adds one-level metric groups: a metric value may be a
   flat object of scalars ({"minor_words": ..., ...}), used for the
   per-measurement [gc] sub-records of the kernel and counters
   experiments.  Groups never nest; the loader rejects deeper
   structure so downstream tooling can keep treating leaves as
   scalars.

   Schema v5 (same container, new vocabulary) marks two additions: the
   online experiment family (per-policy competitive ratios, "latency"
   percentile groups next to the "gc" groups), and the canonical
   "seed" metric every randomized experiment records — the
   DSP_BENCH_SEED offset the run was generated with, so a results file
   pins the exact workload it measured.

   Schema v6 (same container, new vocabulary) adds the serve
   experiment family: per-variant request throughput ("req_per_s"),
   round-trip "latency" percentile groups measured through the
   daemon's socket, and the exact "peak_agree"/"recover_agree"
   correctness signals the perf gate checks alongside the existing
   "*agree" metrics.

   Schema v7 (same container, new vocabulary) adds the work-stealing
   vocabulary of the parallel experiment family: per-domain-count
   curve metrics ("d<k>_*_seconds"), steal telemetry ("*_steals",
   "*_steal_fails"), per-domain node-count groups ("*_nodes" with
   fields "d0".."d<k-1>"), and the "*_agree" optimum-equivalence
   signals the perf gate enforces for the parallel-smoke baseline. *)

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Group of (string * value) list
      (* one level deep: fields must be scalars (enforced on record) *)

let schema_version = "dsp-bench/7"

(* Schema versions [load] accepts: the container shape is identical,
   v3 only adds optional keys, v4 adds one-level metric groups, v5
   adds the online experiment family and the "seed" metric, v6 the
   serve experiment family, v7 the work-stealing parallel
   vocabulary. *)
let known_schemas =
  [ "dsp-bench/2"; "dsp-bench/3"; "dsp-bench/4"; "dsp-bench/5";
    "dsp-bench/6"; schema_version ]

(* Versions whose files may carry one-level groups (v4 introduced
   them); the loader must keep accepting groups in v4 files after
   later bumps, not just in the current version. *)
let group_schemas =
  [ "dsp-bench/4"; "dsp-bench/5"; "dsp-bench/6"; schema_version ]

(* Insertion-ordered: experiment ids in run order, metrics in record
   order within an experiment.  The store is shared mutable state and
   experiments may record from pool workers, so every access to
   [experiments] (and to the per-experiment row refs) happens under
   [m]. *)
let experiments : (string * (string * value) list ref) list ref = ref []
let m = Mutex.create ()
let locked f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let clear () = locked (fun () -> experiments := [])

let record ~experiment key value =
  locked (fun () ->
      let row =
        match List.assoc_opt experiment !experiments with
        | Some r -> r
        | None ->
            let r = ref [] in
            experiments := !experiments @ [ (experiment, r) ];
            r
      in
      (* A key is one metric: a second record would write an object
         with a repeated key, which JSON readers resolve silently. *)
      if List.mem_assoc key !row then
        invalid_arg
          (Printf.sprintf "Bench_json.record: duplicate key %S in %S" key
             experiment);
      row := !row @ [ (key, value) ])

(* A one-level metric group.  Nesting is a schema violation, so it is
   refused at record time rather than surfacing as an unreadable
   BENCH.json later. *)
let record_group ~experiment key fields =
  List.iter
    (fun (k, v) ->
      match v with
      | Group _ ->
          invalid_arg
            (Printf.sprintf "Bench_json.record_group: nested group %S in %S" k
               key)
      | _ -> ())
    fields;
  record ~experiment key (Group fields)

let record_counters ~experiment ~solver counters =
  List.iter
    (fun (name, v) -> record ~experiment (solver ^ "." ^ name) (Int v))
    counters

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec value_to_string = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6f" f else "null"
  | String s -> Printf.sprintf "\"%s\"" (escape s)
  | Bool b -> if b then "true" else "false"
  | Group fields ->
      Printf.sprintf "{%s}"
        (String.concat ", "
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\": %s" (escape k) (value_to_string v))
              fields))

let render () =
  (* Snapshot under the lock, serialize outside it. *)
  let snapshot =
    locked (fun () -> List.map (fun (id, metrics) -> (id, !metrics)) !experiments)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"experiments\": ["
       schema_version);
  List.iteri
    (fun i (id, metrics) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    {\n      \"id\": \"%s\"" (escape id));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ",\n      \"%s\": %s" (escape k) (value_to_string v)))
        metrics;
      Buffer.add_string buf "\n    }")
    snapshot;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* Atomic write: the temp file lives in the destination directory so
   the rename cannot cross filesystems; a crash mid-write leaves the
   old file (or nothing) in place, never a truncated one. *)
let write path =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  let ok =
    match output_string oc (render ()) with
    | () ->
        close_out oc;
        true
    | exception e ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
  in
  if ok then Sys.rename tmp path

(* ----- validating reader ----------------------------------------- *)

(* Minimal recursive-descent parser for the JSON subset the writer
   emits (objects, arrays, strings, numbers, bools, null), tracking
   line numbers for error messages.  An object with a repeated key is
   rejected: the writer never emits one.  Loading is only used by the
   schema-validation tests and downstream tooling; it does not need to
   be fast. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstring of string
  | Jlist of json list
  | Jobj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let pos = ref 0 and line = ref 1 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" !line msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () =
    if !pos < len then begin
      if s.[!pos] = '\n' then incr line;
      incr pos
    end
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some c when c < 128 -> Buffer.add_char buf (Char.chr c)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail (Printf.sprintf "bad \\u escape %S" hex));
              for _ = 1 to 4 do advance () done;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_literal lit v =
    if !pos + String.length lit <= len && String.sub s !pos (String.length lit) = lit
    then begin
      for _ = 1 to String.length lit do advance () done;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Jnum f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Jobj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            if List.mem_assoc k acc then
              fail (Printf.sprintf "duplicate key %S" k);
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Jobj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' in object"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Jlist [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Jlist (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' in array"
          in
          elems []
        end
    | Some '"' -> Jstring (parse_string ())
    | Some 't' -> parse_literal "true" (Jbool true)
    | Some 'f' -> parse_literal "false" (Jbool false)
    | Some 'n' -> parse_literal "null" Jnull
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage after document";
  v

type parsed = {
  schema : string;
  parsed_experiments : (string * (string * value) list) list;
}

(* Validate the container shape, with errors naming the offending
   experiment/metric. *)
let of_json = function
  | Jobj fields -> (
      match (List.assoc_opt "schema" fields, List.assoc_opt "experiments" fields) with
      | None, _ -> Error "missing \"schema\" key"
      | _, None -> Error "missing \"experiments\" key"
      | Some (Jstring schema), Some (Jlist entries) ->
          if not (List.mem schema known_schemas) then
            Error
              (Printf.sprintf "unknown schema %S (expected one of: %s)" schema
                 (String.concat ", " known_schemas))
          else begin
            let exp_of = function
              | Jobj fields -> (
                  match List.assoc_opt "id" fields with
                  | Some (Jstring id) ->
                      let scalar k v =
                        match v with
                        | Jnum f when Float.is_integer f && Float.abs f < 1e15
                          ->
                            Ok (Int (int_of_float f))
                        | Jnum f -> Ok (Float f)
                        | Jstring s -> Ok (String s)
                        | Jbool b -> Ok (Bool b)
                        | Jnull -> Ok (Float Float.nan)
                        | Jlist _ | Jobj _ ->
                            Error
                              (Printf.sprintf
                                 "experiment %S: metric %S is not a scalar" id
                                 k)
                      in
                      let metric (k, v) =
                        if k = "id" then Ok None
                        else
                          match v with
                          | Jobj fields when List.mem schema group_schemas ->
                              (* v4+ group: exactly one level of scalars. *)
                              let rec go acc = function
                                | [] -> Ok (Some (k, Group (List.rev acc)))
                                | (gk, gv) :: rest -> (
                                    match
                                      scalar (k ^ "." ^ gk) gv
                                    with
                                    | Ok s -> go ((gk, s) :: acc) rest
                                    | Error e -> Error e)
                              in
                              go [] fields
                          | _ -> (
                              match scalar k v with
                              | Ok s -> Ok (Some (k, s))
                              | Error e -> Error e)
                      in
                      let rec metrics acc = function
                        | [] -> Ok (id, List.rev acc)
                        | kv :: rest -> (
                            match metric kv with
                            | Ok (Some m) -> metrics (m :: acc) rest
                            | Ok None -> metrics acc rest
                            | Error e -> Error e)
                      in
                      metrics [] fields
                  | Some _ -> Error "experiment entry: \"id\" is not a string"
                  | None -> Error "experiment entry: missing \"id\"")
              | _ -> Error "\"experiments\" element is not an object"
            in
            let rec all acc = function
              | [] -> Ok { schema; parsed_experiments = List.rev acc }
              | e :: rest -> (
                  match exp_of e with
                  | Ok x -> all (x :: acc) rest
                  | Error msg -> Error msg)
            in
            all [] entries
          end
      | Some (Jstring _), Some _ -> Error "\"experiments\" is not an array"
      | Some _, _ -> Error "\"schema\" is not a string")
  | _ -> Error "top-level value is not an object"

let parse_string_result text =
  match parse_json text with
  | json -> of_json json
  | exception Parse_error msg -> Error msg

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match parse_string_result text with
      | Ok p -> Ok p
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg
