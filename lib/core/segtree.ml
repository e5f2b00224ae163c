(* The packing kernel: a lazy range-add / range-max segment tree, with
   a difference bitset beside it for the best-fit placement scan.

   A flat, implicit-layout kernel on a single [Bigarray] in
   [c_layout]: nodes are 1-based (root 1, children 2v / 2v+1, leaves
   at [size, 2*size)), and node [v]'s two cells live interleaved at
   offsets [2v] (subtree max, inclusive of the node's own pending
   add) and [2v+1] (pending add for the whole subtree).  All traversals are iterative: bottom-up
   leaf-interval climbs for updates (boundary root paths rebuilt in
   one merged climb above their common ancestor) and top-down
   boundary-path descents for queries.
   Local [ref] cursors compile to mutable stack variables
   (Simplif.eliminate_ref), so the steady-state ops — [range_add],
   [range_max], [first_fit_from_i], [find_last_above_i],
   [best_start_i] — allocate nothing: no closures, no tuples, no
   exceptions, no boxed returns.  The [kernel] bench experiment
   measures this invariant (words-per-op) and scripts/perf_gate.sh
   gates on it.

   Load breakpoints: beside the tree, every update also maintains a
   difference array ([diff.(x)] = load x − load (x−1), load (−1) = 0)
   and a bitset of its non-zero cells, 62 columns per word.  A range
   add touches two cells and their two bits, O(1).  [best_start_i]
   walks the set bits (about n/62 words plus one step per run of equal
   load), accumulating the loads as it goes, and scores candidate
   starts off a monotone stack of runs: O(n/62 + runs) per call
   instead of O(n), with no flatten.  [to_array] is a prefix sum over
   [diff].  The run scan reads and writes its scratch without bounds
   checks; its comment states why each index stays in range.

   Element kind: the cells are an untagged native-[int] Bigarray
   ([Bigarray.int], 63-bit payload), not boxed [int64]: without
   flambda every [int64] Bigarray read allocates its box, which would
   reintroduce per-op GC pressure — the exact cost this kernel
   removes.  The public interface is native [int] throughout.

   Overflow discipline: a positive [range_add] proves
   [root max + value] representable via [Xutil.checked_add] (so
   accumulated maxima never wrap), and comparison thresholds are
   built with the saturating [Xutil.sat_sub].  Difference cells may
   wrap (loads can be negative, so a difference can exceed the int
   range), which is harmless: ints add modulo 2^63, so prefix sums of
   wrapped differences equal the true loads, which are representable;
   and a true difference d has |d| <= 2^63 − 1, so d is 0 modulo 2^63
   only when d = 0, which keeps every bit exact.  dsp_lint rule R1
   audits this file; the remaining raw [+]/[-] sites are index
   arithmetic, accumulations covered by the root guard, or difference
   arithmetic covered by the modulo argument, each carrying its waiver
   and justification. *)

module A1 = Bigarray.Array1

(* Kernel op counters (Dsp_util.Instr): one handle per entry point,
   bumped per public call, so the engine's per-solve reports show how
   hard each algorithm leans on the kernel. *)
let c_range_add = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_range_add
let c_range_max = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_range_max
let c_first_fit = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_first_fit
let c_last_above = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_find_last_above
let c_best_start = Dsp_util.Instr.counter Dsp_util.Instr.Sites.segtree_best_start

(* Columns per bitset word: 62 keeps every word, and every isolated
   bit, a positive int. *)
let word_bits = 62

type t = {
  n : int; (* columns *)
  size : int; (* smallest power of two >= n *)
  cells : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
      (* 4*size interleaved node cells; see the header comment *)
  diff : int array; (* load x − load (x−1), modulo 2^63 *)
  bits : int array; (* bit x mod 62 of word x / 62: diff.(x) <> 0 *)
  stack : int array; (* best_start scratch: (load, candidate) pairs *)
  mutable peak : int; (* window peak of the last best_start_i answer *)
  mutable jrn : int array; (* checkpoint journal: (lo, hi, value) triples *)
  mutable jrn_n : int; (* used cells in [jrn] (always a multiple of 3) *)
  mutable jrn_depth : int; (* outstanding checkpoints; 0 = journal off *)
}

(* Node cell accessors.  Indices are [2v] / [2v+1] for v in
   [1, 2*size), always within the 4*size buffer; the unsafe accessors
   keep a bounds check out of every hot-loop load. *)
let tget t v = A1.unsafe_get t.cells (2 * v)
let lget t v = A1.unsafe_get t.cells ((2 * v) + 1)
let tset t v x = A1.unsafe_set t.cells (2 * v) x
let lset t v x = A1.unsafe_set t.cells ((2 * v) + 1) x

let create n =
  if n < 1 then invalid_arg "Segtree.create: size must be >= 1";
  let size = ref 1 in
  while !size < n do
    size := !size * 2
  done;
  let cells = A1.create Bigarray.int Bigarray.c_layout (4 * !size) in
  A1.fill cells 0;
  {
    n;
    size = !size;
    cells;
    diff = Array.make n 0;
    bits = Array.make ((n + word_bits - 1) / word_bits) 0;
    stack = Array.make (2 * n) 0;
    peak = 0;
    jrn = [||]; (* grown on first journaled update *)
    jrn_n = 0;
    jrn_depth = 0;
  }

let size t = t.n

let copy t =
  let cells = A1.create Bigarray.int Bigarray.c_layout (A1.dim t.cells) in
  A1.blit t.cells cells;
  (* The difference array and its bitset carry over; the run scratch
     is per tree.  The checkpoint journal carries over as well, so a
     copy taken inside a checkpointed region can itself be rolled
     back. *)
  {
    t with
    cells;
    diff = Array.copy t.diff;
    bits = Array.copy t.bits;
    stack = Array.make (2 * t.n) 0;
    jrn = Array.copy t.jrn;
  }

(* Add [value] to node [v]'s whole subtree: both the subtree max and
   the pending-add cell move together (the max cell is inclusive of
   the node's own lazy). *)
let apply_add t v value =
  tset t v (tget t v + value); (* lint: ok R1 — root guard *)
  lset t v (lget t v + value) (* lint: ok R1 — same root guard *)

(* Recompute one node's max from its (already correct) children,
   re-applying the node's own lazy. *)
let pull t v =
  let l = tget t (2 * v) and r = tget t ((2 * v) + 1) in
  tset t v ((if l >= r then l else r) + lget t v) (* lint: ok R1 — root guard *)

(* Add [v] to difference cell [x] and keep its bit equal to
   [diff.(x) <> 0].  A range add of [value] over [lo, hi) moves two
   cells: load lo − load (lo−1) grows by [value], load hi − load (hi−1)
   shrinks by it (no cell past the last column). *)
let diff_add t x v =
  let d = t.diff.(x) + v in (* lint: ok R1 — modulo 2^63, header *)
  t.diff.(x) <- d;
  let w = x / word_bits and b = 1 lsl (x mod word_bits) in
  t.bits.(w) <- (if d = 0 then t.bits.(w) land lnot b else t.bits.(w) lor b)

(* The range_add workhorse, shared with checkpoint rollback (which
   replays journal entries negated).  Callers have validated the range
   and run the O(1) overflow guard; rollback re-applies only values
   whose effect was previously on the tree, so its intermediate states
   are exactly the earlier (guarded) states in reverse.  The
   difference cells take the same updates, so they stay exact under
   rollback too. *)
let apply_range t lo hi value =
  if lo < hi then begin
    diff_add t lo value;
    if hi < t.n then diff_add t hi (0 - value);
    (* Bottom-up over the leaf interval [lo+size, hi+size): apply to
       the O(log n) maximal covered nodes, then rebuild the two
       boundary root paths — merged into one climb above their lowest
       common ancestor, so shared ancestors are pulled once, not
       twice. *)
    let l = ref (lo + t.size) in (* lint: ok R1 — leaf index < 2*size *)
    let r = ref (hi + t.size) in (* lint: ok R1 — leaf index <= 2*size *)
    let l0 = !l and r0 = !r - 1 in
    while !l < !r do
      if !l land 1 = 1 then begin
        apply_add t !l value;
        l := !l + 1
      end;
      if !r land 1 = 1 then begin
        r := !r - 1;
        apply_add t !r value
      end;
      l := !l lsr 1;
      r := !r lsr 1
    done;
    let x = ref (l0 lsr 1) and y = ref (r0 lsr 1) in
    while !x <> !y do
      pull t !x;
      pull t !y;
      x := !x lsr 1;
      y := !y lsr 1
    done;
    while !x >= 1 do
      pull t !x;
      x := !x lsr 1
    done
  end

(* Append one (lo, hi, value) triple to the checkpoint journal,
   doubling the backing array as needed.  Only called while a
   checkpoint is outstanding, so steady-state range_adds pay a single
   depth test. *)
let journal_push t lo hi value =
  let n = t.jrn_n in
  if n + 3 > Array.length t.jrn then begin
    let cap = Array.length t.jrn in
    (* amortized journal doubling, only reachable while a checkpoint
       is outstanding; steady-state range_adds never enter this branch *)
    (* lint: ok R7 — bounded, amortized, off the steady-state path *)
    let grown = Array.make (if cap = 0 then 96 else 2 * cap) 0 in
    Array.blit t.jrn 0 grown 0 n;
    t.jrn <- grown
  end;
  t.jrn.(n) <- lo;
  t.jrn.(n + 1) <- hi;
  t.jrn.(n + 2) <- value;
  t.jrn_n <- n + 3

let range_add t ~lo ~hi value =
  if lo < 0 || hi > t.n || lo > hi then invalid_arg "Segtree.range_add: bad range";
  Dsp_util.Instr.bump c_range_add;
  if lo < hi then begin
    (* O(1) accumulation overflow guard: a
       positive add can only push an int past [max_int] through the
       running maximum, and the root cell carries exactly that
       maximum. *)
    if value > 0 then ignore (Dsp_util.Xutil.checked_add (tget t 1) value);
    if t.jrn_depth > 0 then journal_push t lo hi value;
    apply_range t lo hi value
  end

let checkpoint t =
  t.jrn_depth <- t.jrn_depth + 1;
  t.jrn_n

let rollback t mark =
  if t.jrn_depth <= 0 then invalid_arg "Segtree.rollback: no outstanding checkpoint";
  if mark < 0 || mark > t.jrn_n || mark mod 3 <> 0 then
    invalid_arg "Segtree.rollback: bad mark";
  (* Undo newest-first: range adds commute, but replaying in reverse
     keeps every intermediate state equal to an earlier live state, so
     the root-max overflow argument carries over unchanged. *)
  let i = ref (t.jrn_n - 3) in
  while !i >= mark do
    apply_range t t.jrn.(!i) t.jrn.(!i + 1) (0 - t.jrn.(!i + 2));
    i := !i - 3
  done;
  t.jrn_n <- mark;
  t.jrn_depth <- t.jrn_depth - 1

let commit t mark =
  if t.jrn_depth <= 0 then invalid_arg "Segtree.commit: no outstanding checkpoint";
  if mark < 0 || mark > t.jrn_n then invalid_arg "Segtree.commit: bad mark";
  t.jrn_depth <- t.jrn_depth - 1;
  if t.jrn_depth = 0 then t.jrn_n <- 0

let reset t =
  A1.fill t.cells 0;
  Array.fill t.diff 0 t.n 0;
  Array.fill t.bits 0 (Array.length t.bits) 0;
  t.jrn_n <- 0;
  t.jrn_depth <- 0

(* range_max via two iterative boundary descents: walk down from the
   root to the node where [lo, hi) splits, then resolve the suffix
   query on the left child and the prefix query on the right child,
   folding in covered siblings as they peel off.  Every step moves one
   level down, so the whole query is O(log n) with zero allocation. *)
let range_max t ~lo ~hi =
  if lo < 0 || hi > t.n || lo > hi then invalid_arg "Segtree.range_max: bad range";
  Dsp_util.Instr.bump c_range_max;
  if lo >= hi then 0
  else begin
    let v = ref 1 and nlo = ref 0 and nhi = ref t.size and acc = ref 0 in
    let res = ref min_int and descending = ref true in
    while !descending do
      if lo <= !nlo && !nhi <= hi then begin
        res := !acc + tget t !v; (* lint: ok R1 — root guard *)
        descending := false
      end
      else begin
        let mid = (!nlo + !nhi) / 2 in (* lint: ok R1 — node bounds <= size *)
        acc := !acc + lget t !v; (* lint: ok R1 — root guard *)
        if hi <= mid then begin
          v := 2 * !v;
          nhi := mid
        end
        else if lo >= mid then begin
          v := (2 * !v) + 1;
          nlo := mid
        end
        else begin
          descending := false;
          (* Split: suffix [lo, mid) on the left child... *)
          let u = ref (2 * !v) and ulo = ref !nlo and au = ref !acc in
          let uhi = ref mid in
          let walking = ref true in
          while !walking do
            if lo <= !ulo then begin
              let m = !au + tget t !u in (* lint: ok R1 — root guard *)
              if m > !res then res := m;
              walking := false
            end
            else begin
              let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
              au := !au + lget t !u; (* lint: ok R1 — root guard *)
              if lo < m then begin
                (* right child fully covered by the suffix *)
                let c = !au + tget t ((2 * !u) + 1) in (* lint: ok R1 — root guard *)
                if c > !res then res := c;
                u := 2 * !u;
                uhi := m
              end
              else begin
                u := (2 * !u) + 1;
                ulo := m
              end
            end
          done;
          (* ... and prefix [mid, hi) on the right child. *)
          let u = ref ((2 * !v) + 1) and uhi = ref !nhi and au = ref !acc in
          let ulo = ref mid in
          let walking = ref true in
          while !walking do
            if hi >= !uhi then begin
              let m = !au + tget t !u in (* lint: ok R1 — root guard *)
              if m > !res then res := m;
              walking := false
            end
            else begin
              let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
              au := !au + lget t !u; (* lint: ok R1 — root guard *)
              if hi > m then begin
                (* left child fully covered by the prefix *)
                let c = !au + tget t (2 * !u) in (* lint: ok R1 — root guard *)
                if c > !res then res := c;
                u := (2 * !u) + 1;
                ulo := m
              end
              else begin
                u := 2 * !u;
                uhi := m
              end
            end
          done
        end
      end
    done;
    !res
  end

let max_all t = range_max t ~lo:0 ~hi:t.n
let get t i = range_max t ~lo:i ~hi:(i + 1)

(* Rightmost leaf of [v0]'s subtree strictly above [thr]; requires the
   adjusted subtree max ([acc0] = lazies strictly above [v0]) to
   exceed [thr], which guarantees a qualifying child at every step. *)
let descend_above t v0 acc0 thr =
  let v = ref v0 and acc = ref acc0 in
  while !v < t.size do
    acc := !acc + lget t !v; (* lint: ok R1 — root guard *)
    if !acc + tget t ((2 * !v) + 1) > thr (* lint: ok R1 — root guard *)
    then v := (2 * !v) + 1
    else v := 2 * !v
  done;
  !v - t.size (* lint: ok R1 — leaf index < 2*size *)

(* Core of find_last_above, shared with the first-fit skip-ahead (no
   counter bump, no bounds check): rightmost column of [lo, hi) whose
   value is strictly above [thr], or -1.  Iterative form of a
   right-then-left recursion: descend to the split node pruning
   subtrees whose adjusted max is <= thr, search the right (prefix)
   part remembering the deepest fully-covered left sibling that could
   still answer — deeper fallbacks lie strictly right of shallower
   ones, so one register suffices — then fall back to the left
   (suffix) part. *)
let last_above t lo hi thr =
  if lo >= hi then -1
  else begin
    let v = ref 1 and nlo = ref 0 and nhi = ref t.size and acc = ref 0 in
    let res = ref (-2) in
    while !res = -2 do
      if !acc + tget t !v <= thr then res := -1 (* lint: ok R1 — root guard *)
      else if lo <= !nlo && !nhi <= hi then res := descend_above t !v !acc thr
      else begin
        let mid = (!nlo + !nhi) / 2 in (* lint: ok R1 — node bounds <= size *)
        acc := !acc + lget t !v; (* lint: ok R1 — root guard *)
        if hi <= mid then begin
          v := 2 * !v;
          nhi := mid
        end
        else if lo >= mid then begin
          v := (2 * !v) + 1;
          nlo := mid
        end
        else begin
          (* Split node: right part first. *)
          let u = ref ((2 * !v) + 1) and ulo = ref mid and uhi = ref !nhi in
          let au = ref !acc in
          let fb = ref (-1) and fb_acc = ref 0 in
          let r = ref (-2) in
          while !r = -2 do
            if hi >= !uhi then
              if !au + tget t !u > thr (* lint: ok R1 — root guard *)
              then r := descend_above t !u !au thr
              else r := -1
            else if !au + tget t !u <= thr then r := -1 (* lint: ok R1 — root guard *)
            else begin
              let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
              au := !au + lget t !u; (* lint: ok R1 — root guard *)
              if hi > m then begin
                (* Left child fully covered: the deepest such sibling
                   whose max clears the threshold is the fallback. *)
                if !au + tget t (2 * !u) > thr then begin (* lint: ok R1 — root guard *)
                  fb := 2 * !u;
                  fb_acc := !au
                end;
                u := (2 * !u) + 1;
                ulo := m
              end
              else begin
                u := 2 * !u;
                uhi := m
              end
            end
          done;
          if !r < 0 && !fb >= 0 then r := descend_above t !fb !fb_acc thr;
          if !r >= 0 then res := !r
          else begin
            (* Left part: suffix [lo, mid) on the left child. *)
            let u = ref (2 * !v) and ulo = ref !nlo and uhi = ref mid in
            let au = ref !acc in
            let r = ref (-2) in
            while !r = -2 do
              if lo <= !ulo then
                if !au + tget t !u > thr (* lint: ok R1 — root guard *)
                then r := descend_above t !u !au thr
                else r := -1
              else if !au + tget t !u <= thr then r := -1 (* lint: ok R1 — root guard *)
              else begin
                let m = (!ulo + !uhi) / 2 in (* lint: ok R1 — node bounds <= size *)
                au := !au + lget t !u; (* lint: ok R1 — root guard *)
                if lo < m then begin
                  (* Right child fully covered by the suffix: if it
                     clears the threshold the answer is inside it. *)
                  if !au + tget t ((2 * !u) + 1) > thr (* lint: ok R1 — root guard *)
                  then r := descend_above t ((2 * !u) + 1) !au thr
                  else begin
                    u := 2 * !u;
                    uhi := m
                  end
                end
                else begin
                  u := (2 * !u) + 1;
                  ulo := m
                end
              end
            done;
            res := !r
          end
        end
      end
    done;
    !res
  end

let find_last_above_i t ~lo ~hi threshold =
  if lo < 0 || hi > t.n || lo > hi then
    invalid_arg "Segtree.find_last_above: bad range";
  Dsp_util.Instr.bump c_last_above;
  last_above t lo hi threshold

let find_last_above t ~lo ~hi threshold =
  let r = find_last_above_i t ~lo ~hi threshold in
  if r < 0 then None else Some r

(* Skip-ahead first fit: a failed window jumps directly
   past its last violating column.  The [_i] form returns -1 for "no
   fit" so the branch-and-bound hot loop never allocates an option. *)
let first_fit_from_i t ~from ~len ~height ~limit =
  Dsp_util.Instr.bump c_first_fit;
  if len < 1 || len > t.n then -1
  else begin
    let thr = Dsp_util.Xutil.sat_sub limit height in
    let s = ref (if from > 0 then from else 0) in
    let res = ref (-2) in
    while !res = -2 do
      if !s + len > t.n then res := -1 (* lint: ok R1 — s, len <= n *)
      else begin
        let j = last_above t !s (!s + len) thr in (* lint: ok R1 — s + len <= n *)
        if j < 0 then res := !s else s := j + 1
      end
    done;
    !res
  end

let first_fit_from t ~from ~len ~height ~limit =
  let r = first_fit_from_i t ~from ~len ~height ~limit in
  if r < 0 then None else Some r

let first_fit_pos t ~len ~height ~limit =
  first_fit_from t ~from:0 ~len ~height ~limit

(* Per-column loads: a prefix sum over the difference array (modulo
   2^63, so wrapped cells sum to the true, representable loads). *)
let to_array t =
  let a = Array.make t.n 0 and cur = ref 0 in
  for x = 0 to t.n - 1 do
    cur := !cur + t.diff.(x); (* lint: ok R1 — modulo 2^63, header *)
    a.(x) <- !cur
  done;
  a

let of_array arr =
  let t = create (Array.length arr) in
  Array.iteri (fun i v -> range_add t ~lo:i ~hi:(i + 1) v) arr;
  t

(* Index of the single set bit of [b] (a power of two below 2^62):
   multiplying by a de Bruijn constant moves a distinct 6-bit pattern
   into the top bits of the 63-bit product, which [ctz_table] maps
   back to the bit index. *)
let de_bruijn = 0x03f79d71b4cb0a89

let ctz_table =
  let tbl = Bytes.make 64 '\000' in
  for k = 0 to word_bits - 1 do
    Bytes.set tbl ((de_bruijn lsl k) lsr 57) (Char.chr k)
  done;
  Bytes.to_string tbl

let ctz b = Char.code (String.unsafe_get ctz_table ((b * de_bruijn) lsr 57)) (* lint: ok R1 — wraps by design *)

(* Leftmost start minimising the window peak, over runs of equal load.
   If load (s−1) = load s, the window at s−1 holds no column above the
   window at s, so the leftmost minimiser is 0 or a breakpoint
   b <= n − len: only those starts are candidates.

   One walk over the set bits of [bits] accumulates the loads (bit 0
   is folded in first: run 0 starts at column 0 whatever its load).
   The runs seen so far sit on a stack of strictly decreasing loads; a
   new run pops every entry whose load is <= its own.  An entry is a
   (load, candidate) pair: its group is its own run plus the runs it
   popped, all at or below its load, and its candidate is the group's
   leftmost start still waiting for a score.  A later waiting start of
   the group never sees a lower peak (its window holds the entry's run
   too), so one candidate per entry suffices: a new run inherits the
   candidate of the lowest entry it popped, else takes its own start.

   A candidate g is scored at the first breakpoint x >= g + len, or
   after the walk.  Its window then holds the rest of its group and
   the entries above it, whose loads are lower, so its peak is its
   entry's load.  Entries below [p] are scored, in column order, so a
   strict [<] keeps the leftmost minimiser.  A new run that popped a
   scored entry counts as scored ([p] is clamped to [top]): that
   entry's candidate scored a peak <= the new load, which every
   waiting start of the merged group sees.

   Unchecked indices: [st] holds (load, candidate) at cells (2i,
   2i+1), one entry per run, so [top] <= 2 * runs <= 2n = its length,
   and [k], [p] stay in [0, top]; a cell read at [k] or [p] is below
   [top].  A set bit names a column x < n, the length of [diff]; [wi]
   is a word index. *)
let best_start_i t ~len =
  Dsp_util.Instr.bump c_best_start;
  if len < 1 || len > t.n then -1
  else begin
    let diff = t.diff and bits = t.bits and st = t.stack in
    let cur = ref (Array.unsafe_get diff 0) in
    Array.unsafe_set st 0 !cur;
    Array.unsafe_set st 1 0;
    let top = ref 2 and p = ref 0 in
    let best_s = ref 0 and best_peak = ref max_int in
    for wi = 0 to Array.length bits - 1 do
      let w = ref (Array.unsafe_get bits wi) in
      if wi = 0 then w := !w land lnot 1;
      let base = wi * word_bits in (* lint: ok R1 — column index < n *)
      while !w <> 0 do
        let b = !w land (0 - !w) in (* the lowest set bit *)
        w := !w lxor b;
        let x = base + ctz b in (* lint: ok R1 — column index < n *)
        (* Score the candidates whose windows end at or before x. *)
        let lim = x - len in (* lint: ok R1 — 1 <= len <= n, 0 < x < n *)
        while !p < !top && Array.unsafe_get st (!p + 1) <= lim do
          let pk = Array.unsafe_get st !p in
          if pk < !best_peak then begin
            best_peak := pk;
            best_s := Array.unsafe_get st (!p + 1)
          end;
          p := !p + 2
        done;
        cur := !cur + Array.unsafe_get diff x; (* lint: ok R1 — modulo 2^63, header *)
        let l = !cur in
        let k = ref !top in
        while !k > 0 && Array.unsafe_get st (!k - 2) <= l do
          k := !k - 2
        done;
        Array.unsafe_set st (!k + 1) (if !k < !top then Array.unsafe_get st (!k + 1) else x);
        Array.unsafe_set st !k l;
        top := !k + 2;
        if !p > !top then p := !top
      done
    done;
    let last = t.n - len in (* lint: ok R1 — 1 <= len <= n *)
    while !p < !top && Array.unsafe_get st (!p + 1) <= last do
      let pk = Array.unsafe_get st !p in
      if pk < !best_peak then begin
        best_peak := pk;
        best_s := Array.unsafe_get st (!p + 1)
      end;
      p := !p + 2
    done;
    t.peak <- !best_peak;
    !best_s
  end

let best_peak t = t.peak

let best_start t ~len =
  let s = best_start_i t ~len in
  if s < 0 then None else Some (s, t.peak)
