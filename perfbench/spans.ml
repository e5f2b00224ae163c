(* In-memory spans for the traced run.  A span has a name, a start and
   an end (monotonic ns), the index of its parent span (-1 for a root)
   and the id of the request or solve it belongs to.  Spans are kept in
   growable arrays and written out once, when the run ends. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable name_ix : int array;
  mutable ids : int array;
  mutable parents : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable len : int;
}

let create () =
  let cap = 4096 in
  {
    names = Hashtbl.create 16;
    name_of = [||];
    name_ix = Array.make cap 0;
    ids = Array.make cap 0;
    parents = Array.make cap 0;
    starts = Array.make cap 0;
    ends = Array.make cap 0;
    len = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      i

let grow t =
  let cap = 2 * Array.length t.ids in
  let g a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name_ix <- g t.name_ix;
  t.ids <- g t.ids;
  t.parents <- g t.parents;
  t.starts <- g t.starts;
  t.ends <- g t.ends

(* Open a span and return its index; close it with [leave]. *)
let enter t ~id ~parent name =
  if t.len = Array.length t.ids then grow t;
  let i = t.len in
  t.name_ix.(i) <- intern t name;
  t.ids.(i) <- id;
  t.parents.(i) <- parent;
  t.starts.(i) <- Clock.now_ns ();
  t.len <- i + 1;
  i

let leave t i = t.ends.(i) <- Clock.now_ns ()

let record t ~id ?(parent = -1) name f =
  let i = enter t ~id ~parent name in
  match f i with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let length t = t.len
let duration_ns t i = t.ends.(i) - t.starts.(i)

(* Self time: a span's duration minus the time its children cover.
   Children of one span run one after another on one thread, so the
   covered time is the sum of their durations. *)
let self_ns t =
  let self = Array.init t.len (duration_ns t) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration_ns t i
  done;
  self

(* Self times (in ns, as floats) of every span with this name. *)
let self_times t name =
  match Hashtbl.find_opt t.names name with
  | None -> [||]
  | Some ix ->
      let self = self_ns t in
      let out = Stats.Buf.create () in
      for i = 0 to t.len - 1 do
        if t.name_ix.(i) = ix then Stats.Buf.push out (float_of_int self.(i))
      done;
      Stats.Buf.to_array out

(* One line per span: id, parent, name, start, end, self (ns). *)
let write t path =
  let self = self_ns t in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\tname\tstart_ns\tend_ns\tself_ns\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" t.ids.(i) t.parents.(i)
          t.name_of.(t.name_ix.(i)) t.starts.(i) t.ends.(i) self.(i)
      done)
