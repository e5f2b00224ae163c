(* R7 — allocation-freedom: nothing reachable from the flat-kernel
   hot-path entry points may allocate.  The bench perf gate samples
   the same property dynamically over 400k operations; this rule
   proves it statically over every path the call graph can see.

   What counts as an allocation:
   - structural [Alloc] events from the front-end: closures, tuples,
     non-constant constructors (Some, ::, payload-carrying raise),
     records, boxed float literals, array literals;
   - closure-literal arguments (the closure is built at the call);
   - calls to known allocating stdlib entry points (Array.make,
     sprintf, ...).
   What does not: raising a *constant* exception (Xutil.Overflow), and
   whatever the stdlib allocates behind calls not in the vocabulary —
   invalid_arg/failwith on error paths live outside the analysis, a
   policy DESIGN.md §6 spells out. *)

module Ir = Lint_ir
module Cg = Lint_callgraph

(* `ref` is deliberately absent: the flat kernel's loop style uses
   local int refs throughout — bounded two-word minor cells per call
   that the perf gate's dynamic baseline already accounts for.  R7 is
   after per-element / structural allocation, the kind that scales
   with input size. *)
let allocating_calls =
  [
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "append" ];
    [ "Array"; "copy" ];
    [ "Array"; "sub" ];
    [ "Array"; "of_list" ];
    [ "Array"; "to_list" ];
    [ "Array"; "make_matrix" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Buffer"; "create" ];
    [ "Buffer"; "contents" ];
    [ "Hashtbl"; "create" ];
    [ "List"; "map" ];
    [ "List"; "mapi" ];
    [ "List"; "init" ];
    [ "List"; "append" ];
    [ "List"; "rev" ];
    [ "List"; "filter" ];
    [ "List"; "concat" ];
    [ "Printf"; "sprintf" ];
    [ "Format"; "asprintf" ];
    [ "String"; "concat" ];
    [ "String"; "make" ];
    [ "String"; "sub" ];
  ]

let finding (pos : Ir.pos) msg =
  {
    Lint_core.rule = Lint_core.R7;
    file = pos.Ir.file;
    line = pos.Ir.line;
    col = pos.Ir.col;
    msg;
  }

let check (cg : Cg.t) ~roots =
  let visited, parent = Cg.reachable cg roots in
  let findings = ref [] in
  List.iter
    (fun name ->
      if Hashtbl.mem visited name then
        match Cg.find cg name with
        | None -> ()
        | Some fn ->
            let via = String.concat " -> " (Cg.chain parent name) in
            let emit pos what =
              findings :=
                finding pos
                  (Printf.sprintf
                     "%s allocates on the hot path %s; hot-path entry points \
                      must be allocation-free (fix, or waive with (* lint: \
                      ok R7 *) and a justification)"
                     what via)
                :: !findings
            in
            let rec walk evs = List.iter step evs
            and step = function
              | Ir.Alloc (kind, pos) -> emit pos kind
              | Ir.Closure (body, pos) ->
                  emit pos "closure";
                  walk body
              | Ir.Call c ->
                  if
                    Cg.resolve cg c.Ir.callee = None
                    && Ir.matches_any allocating_calls c.Ir.callee
                  then
                    emit c.Ir.cpos
                      (Printf.sprintf "call to %s"
                         (Ir.join_name c.Ir.callee));
                  if c.Ir.cargs <> [] then emit c.Ir.cpos "closure argument";
                  List.iter walk c.Ir.cargs
              | Ir.Branch arms -> List.iter walk arms
              | Ir.Lock _ | Ir.Unlock _ -> ()
            in
            walk fn.Ir.events)
    cg.Cg.order;
  !findings
