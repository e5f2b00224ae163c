(** Lazy segment tree with range-add updates and range-max queries —
    the packing kernel behind {!Profile} and the placement loops.

    The incremental DSP algorithms (first-fit placement, branch and
    bound) repeatedly ask "what is the peak load in this window?",
    "add h to this window", and "where is the leftmost window whose
    peak stays under a budget?".  All three are O(log width) here
    versus O(width) on a flat load array; {!first_fit_from} further
    skips past the column that caused a violation instead of advancing
    one start at a time.  The kernel micro-experiment
    ([bench/main.exe -- kernel]) measures it against the flat-array
    {!Profile.Naive} and writes the result to [BENCH.json].

    It is the only packing kernel: a flat, implicit-layout tree over
    a single native-[int] [Bigarray], with iterative traversals and
    preallocated scratch, so the steady-state operations ({!range_add},
    {!range_max}, {!find_last_above_i}, {!first_fit_from_i}) allocate
    nothing.  Each public operation bumps its [segtree.*]
    instrumentation counter.  The tests check it against linear scans
    of a plain load array. *)

type t

val create : int -> t
(** [create n] is the all-zero tree over columns [0, n). *)

val size : t -> int

val copy : t -> t
(** Independent snapshot (for backtracking searches that fork). *)

val range_add : t -> lo:int -> hi:int -> int -> unit
(** Add a value to all columns in [lo, hi) — [hi] exclusive. *)

val reset : t -> unit
(** Zero every column in place, reusing the allocated storage.  Also
    discards any outstanding checkpoints.  O(size), allocation-free —
    cheaper than [create] for session reuse. *)

val checkpoint : t -> int
(** Open a transactional region and return its mark.  While at least
    one checkpoint is outstanding, every {!range_add} is journaled
    ((lo, hi, value) triples) so it can be undone without copying the
    tree.  Checkpoints nest with LIFO discipline: resolve the most
    recent mark first, via {!rollback} or {!commit}. *)

val rollback : t -> int -> unit
(** [rollback t mark] undoes every {!range_add} performed since
    [checkpoint t] returned [mark] (newest first) and closes that
    checkpoint.  O(updates since the mark) — independent of tree
    size.  Raises [Invalid_argument] when no checkpoint is outstanding
    or the mark does not match the LIFO discipline. *)

val commit : t -> int -> unit
(** [commit t mark] keeps every update since [mark] and closes the
    checkpoint.  The journal is retained while outer checkpoints
    remain open (so an enclosing {!rollback} still undoes the
    committed inner region) and dropped when the last one closes. *)

val range_max : t -> lo:int -> hi:int -> int
(** Maximum over [lo, hi); 0 when the range is empty. *)

val max_all : t -> int
val get : t -> int -> int
val of_array : int array -> t

val to_array : t -> int array
(** Flatten to per-column values in O(n) (single lazy-accumulating
    walk, not n point queries). *)

val find_last_above : t -> lo:int -> hi:int -> int -> int option
(** [find_last_above t ~lo ~hi threshold] is the rightmost column in
    [lo, hi) whose value is strictly greater than [threshold]; [None]
    if the whole window is at most [threshold].  O(log n) tree
    descent. *)

val find_last_above_i : t -> lo:int -> hi:int -> int -> int
(** {!find_last_above} with a [-1] sentinel instead of [None] — the
    allocation-free form for hot loops (an option result boxes). *)

val first_fit_from : t -> from:int -> len:int -> height:int -> limit:int -> int option
(** [first_fit_from t ~from ~len ~height ~limit] is the smallest start
    [s >= from] such that [range_max t s (s+len) + height <= limit],
    or [None].  Skip-ahead descent: a failed window jumps directly
    past its last violating column, so a whole scan is
    O((violations + 1) log n) amortized rather than O(n * len). *)

val first_fit_from_i : t -> from:int -> len:int -> height:int -> limit:int -> int
(** {!first_fit_from} with a [-1] sentinel instead of [None] — the
    allocation-free form for hot loops (an option result boxes). *)

val first_fit_pos : t -> len:int -> height:int -> limit:int -> int option
(** [first_fit_from] with [from = 0]. *)

val best_start : t -> len:int -> (int * int) option
(** [best_start t ~len] is [(s, peak)] where [s] is the leftmost start
    minimizing the window peak [range_max t s (s+len)] and [peak] that
    minimum; [None] when no window of length [len] fits.  O(n) via a
    sliding-window maximum over a flattened snapshot. *)
