(* Whole-program analysis driver for R6–R9: loads per-module event
   summaries from the compiler's .cmt typedtrees (via [Lint_tast]),
   caches them per content digest, builds the cross-module call graph
   and runs the four rules, then applies the same waiver channels the
   per-file rules honour.  Production and the golden fixtures take the
   same path: [run_project] over the tree's artifacts, [run_cmts] over
   an explicit artifact list.

   The cache makes warm reruns cheap: a summary is recomputed only
   when its .cmt digest changed, so an edit to one module re-analyzes
   one module.  Rule evaluation itself always runs — it is
   interprocedural, so any summary change can change any finding —
   but it is linear in the summary sizes and costs milliseconds. *)

module Ir = Lint_ir

type config = {
  r7_roots : string list;  (* hot-path entry points, joined names *)
  r8_roots : string list;  (* request handlers, joined names *)
}

(* The production configuration: the flat Segtree kernel's hot-path
   entry points (the ones the perf gate's alloc probe samples), the
   exact search's node expander, and the serve daemon's request
   dispatcher. *)
let project_config =
  {
    r7_roots =
      [
        "Segtree.range_add";
        "Segtree.range_max";
        "Segtree.first_fit_from_i";
        "Segtree.find_last_above_i";
        "Dsp_bb.expand";
      ];
    r8_roots = [ "Server.handle" ];
  }

type result = {
  findings : Lint_core.finding list;
  errors : string list;
  units : int;  (* summaries in the call graph *)
  analyzed : int;  (* summaries recomputed this run *)
  cached : int;  (* summaries served from the digest cache *)
}

(* ----- summary cache --------------------------------------------------- *)

(* Bump when the IR or the front-end changes shape: stale caches must
   miss, not misparse. *)
let cache_version = 1

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let cache_key name =
  String.map (fun c -> if c = '/' || c = '\\' || c = ':' then '_' else c) name

let cache_path dir key = Filename.concat dir (cache_key key ^ ".sum")

let cache_get ~cache_dir ~key ~digest : Ir.summary option =
  match cache_dir with
  | None -> None
  | Some dir -> (
      let path = cache_path dir key in
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic -> (
          let r =
            match Marshal.from_channel ic with
            | exception _ -> None
            | v, d, (s : Ir.summary) ->
                if v = cache_version && d = digest then Some s else None
          in
          close_in_noerr ic;
          r))

let cache_put ~cache_dir ~key ~digest (s : Ir.summary) =
  match cache_dir with
  | None -> ()
  | Some dir -> (
      try
        mkdir_p dir;
        let path = cache_path dir key in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        Marshal.to_channel oc (cache_version, digest, s) [];
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ -> ())

(* ----- rule evaluation ------------------------------------------------- *)

let analyze ?(only = Lint_core.whole_program_rules) ~config summaries =
  let cg = Lint_callgraph.build summaries in
  let active r = List.mem r only in
  let f6 = if active Lint_core.R6 then Lint_r6_locks.check cg else [] in
  let f7 =
    if active Lint_core.R7 then
      Lint_r7_alloc.check cg ~roots:config.r7_roots
    else []
  in
  let f8 =
    if active Lint_core.R8 then Lint_r8_wal.check cg ~roots:config.r8_roots
    else []
  in
  let f9 = if active Lint_core.R9 then Lint_r9_block.check cg else [] in
  f6 @ f7 @ f8 @ f9

(* Apply the waiver channels — (* lint: ok R# *) line comments and
   [@@@lint.ignore "R#"] file attributes — by loading each finding's
   source file relative to [root].  A file that cannot be loaded keeps
   its findings: suppression must be visible to be honoured. *)
let apply_waivers ~root findings =
  let sources = Hashtbl.create 8 in
  let source_for file =
    match Hashtbl.find_opt sources file with
    | Some s -> s
    | None ->
        let path =
          if Sys.file_exists file then file else Filename.concat root file
        in
        let s =
          match Lint_core.load_source path with
          | Ok src -> Some src
          | Error _ -> None
        in
        Hashtbl.add sources file s;
        s
  in
  List.filter
    (fun (f : Lint_core.finding) ->
      match source_for f.Lint_core.file with
      | None -> true
      | Some src ->
          not (Lint_core.suppressed src f.Lint_core.rule f.Lint_core.line))
    findings

let dedup_sorted findings =
  let sorted = List.sort Lint_core.compare_findings findings in
  let rec uniq = function
    | a :: (b :: _ as rest) when a = b -> uniq rest
    | a :: rest -> a :: uniq rest
    | [] -> []
  in
  uniq sorted

(* ----- entry points ---------------------------------------------------- *)

(* Summarise [cmts] through the digest cache, keep one summary per
   unit whose source file sits under [src_prefixes], and run the
   rules.  Waivers are read from the sources relative to [root]. *)
let run_cmts ?only ?cache_dir ~config ~src_prefixes ~root cmts =
  let analyzed = ref 0 and cached = ref 0 in
  let seen_units = Hashtbl.create 64 in
  let summaries =
    List.filter_map
      (fun cmt ->
        match Digest.file cmt with
        | exception Sys_error _ -> None
        | digest -> (
            let summary =
              match cache_get ~cache_dir ~key:cmt ~digest with
              | Some s -> Some (s, true)
              | None -> (
                  match Lint_tast.summarize_cmt cmt with
                  | Ok s ->
                      cache_put ~cache_dir ~key:cmt ~digest s;
                      Some (s, false)
                  | Error _ ->
                      (* interface-only or pack artifact: not a unit *)
                      None)
            in
            match summary with
            | None -> None
            | Some (s, was_cached) ->
                if
                  Lint_tast.src_in_prefixes src_prefixes s.Ir.src_file
                  && not (Hashtbl.mem seen_units s.Ir.unit_name)
                then begin
                  Hashtbl.add seen_units s.Ir.unit_name ();
                  if was_cached then incr cached else incr analyzed;
                  Some s
                end
                else None))
      cmts
  in
  let findings =
    analyze ?only ~config summaries |> apply_waivers ~root |> dedup_sorted
  in
  {
    findings;
    errors = [];
    units = List.length summaries;
    analyzed = !analyzed;
    cached = !cached;
  }

(* The production scan: every artifact under [root] whose source lives
   in lib/, bin/ or bench/. *)
let run_project ?only ?cache_dir ~root () =
  let r =
    run_cmts ?only ?cache_dir ~config:project_config
      ~src_prefixes:[ "lib/"; "bin/"; "bench/" ] ~root
      (Lint_tast.discover_cmts ~root)
  in
  if r.units > 0 then r
  else
    {
      r with
      errors =
        [
          Printf.sprintf
            "no .cmt artifacts found under %s — run `dune build` first so \
             the whole-program rules have typedtrees to analyze"
            root;
        ];
    }
