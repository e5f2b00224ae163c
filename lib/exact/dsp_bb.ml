open Dsp_core

type outcome = Feasible of Packing.t | Infeasible | Node_budget_exhausted

exception Out_of_nodes

(* Every visited node bumps the global "bb.nodes" counter
   (Dsp_util.Instr); a solve's node count is that counter's delta. *)
let c_nodes = Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_nodes

(* Greedy best-fit by descending height: place each item at the start
   column minimizing the resulting window peak.  Upper bound for the
   binary search, and the incumbent seed of the parallel search. *)
let greedy_packing (inst : Instance.t) =
  let profile = Profile.create inst.Instance.width in
  let starts = Array.make (Instance.n_items inst) (-1) in
  let order =
    Array.to_list inst.Instance.items |> List.sort Item.compare_by_height_desc
  in
  List.iter
    (fun (it : Item.t) ->
      match Profile.best_start profile ~len:it.w with
      | Some (s, _) ->
          Profile.add_item profile it ~start:s;
          starts.(it.id) <- s
      | None -> invalid_arg "Dsp_bb.greedy_height: item wider than strip")
    order;
  Packing.make inst starts

let greedy_height inst = Packing.height (greedy_packing inst)

(* ----- the node expander ----------------------------------------- *)

(* Every exact driver searches the same tree: items in descending area
   order, one level per item, and as children of a node the next
   item's feasible start columns in increasing order.  [prep] is the
   per-instance part (read-only, shared by all workers), [state] the
   per-worker part, and [expand] the one depth-first expander over
   both; the drivers differ only in the bound they pass, what a node
   charges and what a complete packing does. *)

type prep = {
  inst : Instance.t;
  width : int;
  n : int;
  order : Item.t array;  (* items by descending area *)
  remaining : int array;  (* remaining.(k) = total area of order.(k..) *)
}

let prepare (inst : Instance.t) =
  let n = Instance.n_items inst in
  let order = Array.copy inst.Instance.items in
  Array.sort Item.compare_by_area_desc order;
  let remaining = Array.make (n + 1) 0 in
  for k = n - 1 downto 0 do
    remaining.(k) <- remaining.(k + 1) + Item.area order.(k)
  done;
  { inst; width = inst.Instance.width; n; order; remaining }

(* Load profile on the segment-tree kernel: place/unplace are
   O(log W) range adds (incremental undo on backtrack), and start
   enumeration skips infeasible columns via the kernel's first-fit
   descent instead of stepping one column at a time. *)
type state = {
  loads : Segtree.t;
  starts : int array;  (* start column by item id; -1 = unplaced *)
  cursor : int array;  (* by depth: the next start column to try *)
  mutable used : int;  (* total placed area *)
  mutable peak_bound : int;  (* >= the profile peak; max_int = unknown *)
}

let create_state p =
  {
    loads = Segtree.create p.width;
    starts = Array.make p.n (-1);
    cursor = Array.make p.n 0;
    used = 0;
    peak_bound = 0;
  }

let place st (it : Item.t) s =
  Segtree.range_add st.loads ~lo:s ~hi:(s + it.w) it.h;
  st.used <- st.used + Item.area it;
  st.starts.(it.id) <- s

let unplace st (it : Item.t) =
  let s = st.starts.(it.id) in
  Segtree.range_add st.loads ~lo:s ~hi:(s + it.w) (-it.h);
  st.used <- st.used - Item.area it;
  st.starts.(it.id) <- -1

(* The start-bounds rule.  Mirror symmetry confines the first item to
   the left half of the strip; identical consecutive items take
   non-decreasing starts. *)
let max_start p k =
  let it = p.order.(k) in
  if k = 0 then (p.width - it.w) / 2 else p.width - it.w

let min_start p st k =
  let it = p.order.(k) in
  if k > 0 && p.order.(k - 1).Item.w = it.w && p.order.(k - 1).Item.h = it.h
  then st.starts.(p.order.(k - 1).Item.id)
  else 0

(* The first start >= [from] where order.(k) fits under peak [lim]
   within the start bounds, or -1.  Infeasible gaps are skipped in
   O(log W); every feasible start is still visited, in order. *)
let next_start p st k ~from ~lim =
  let it = p.order.(k) in
  let s =
    Segtree.first_fit_from_i st.loads ~from ~len:it.w ~height:it.h ~limit:lim
  in
  if s > max_start p k then -1 else s

(* Cut the node at depth [k] under peak [lim]: the remaining area must
   fit into the free capacity below [lim], and the profile must not
   already exceed it.  The profile can only exceed [lim] when the bound
   fell since its placements were checked, so a fixed bound never pays
   for the O(log W) peak query. *)
let pruned p st k ~lim =
  if p.remaining.(k) > (lim * p.width) - st.used then true
  else if st.peak_bound <= lim then false
  else begin
    st.peak_bound <- Segtree.max_all st.loads;
    st.peak_bound > lim
  end

(* Visit the node at depth [k] (its prefix placed): charge it, then
   report a complete packing to [leaf], cut it, or open it for
   enumeration from its first allowed start. *)
type visit = Open | Cut | Stop

let visit p st ~bound ~charge ~leaf k =
  charge ();
  if k = p.n then if leaf st then Stop else Cut
  else if pruned p st k ~lim:(Atomic.get bound - 1) then Cut
  else begin
    st.cursor.(k) <- min_start p st k;
    Open
  end

(* Depth-first search of the subtree below the placed prefix
   order.(0..root-1), on an explicit stack: [st.cursor.(d)] is the next
   start to try at open depth [d], and order.(d) stays placed while its
   subtree is searched.  Packings must have peak < [Atomic.get bound],
   re-read at every node and candidate so that a shared bound falling
   mid-search prunes at once.  [charge ()] runs once per node (node
   accounting, budget; it may raise); [leaf st] runs at each complete
   packing and returns true to stop the search with that packing still
   placed.  Returns whether a leaf stopped it; otherwise [st] is back at
   the root prefix. *)
let expand p st ~bound ~charge ~leaf ~root =
  match visit p st ~bound ~charge ~leaf root with
  | Stop -> true
  | Cut -> false
  | Open ->
      let found = ref false in
      let d = ref root in
      while (not !found) && !d >= root do
        let k = !d in
        let it = p.order.(k) in
        if st.starts.(it.id) >= 0 then unplace st it;
        let lim = Atomic.get bound - 1 in
        let s = next_start p st k ~from:st.cursor.(k) ~lim in
        if s < 0 then d := k - 1
        else begin
          place st it s;
          (* Its window now peaks at most [lim]; nothing else rose. *)
          if lim > st.peak_bound then st.peak_bound <- lim;
          st.cursor.(k) <- s + 1;
          match visit p st ~bound ~charge ~leaf (k + 1) with
          | Open -> d := k + 1
          | Cut -> ()
          | Stop -> found := true
        end
      done;
      !found

(* ----- serial drivers --------------------------------------------- *)

let default_node_limit = 20_000_000

(* Node accounting of one serial solve: the native node cap keeps its
   first-class error, the budget adds the wall-clock deadline and
   cooperative cancellation (and a node cap for engine-driven
   solves). *)
let serial_charge ~node_limit ~budget =
  let nodes = ref 0 in
  fun () ->
    incr nodes;
    Dsp_util.Instr.bump c_nodes;
    if !nodes > node_limit then raise Out_of_nodes;
    Dsp_util.Budget.check_opt budget

(* "Is there a packing with peak <= height?": the expander from the
   root under a fixed bound, the first complete packing winning. *)
let decide_prepared p ~charge ~height =
  if Instance.total_area p.inst > height * p.width then Infeasible
  else if Instance.max_height p.inst > height then Infeasible
  else begin
    let st = create_state p in
    let bound = Atomic.make (height + 1) in
    match expand p st ~bound ~charge ~leaf:(fun _ -> true) ~root:0 with
    | true -> Feasible (Packing.make p.inst st.starts)
    | false -> Infeasible
    | exception Out_of_nodes -> Node_budget_exhausted
  end

let decide ?(node_limit = default_node_limit) ?budget inst ~height =
  decide_prepared (prepare inst)
    ~charge:(serial_charge ~node_limit ~budget)
    ~height

let solve ?(node_limit = default_node_limit) ?budget inst =
  let p = prepare inst in
  (* One node cap across every probe of the binary search. *)
  let charge = serial_charge ~node_limit ~budget in
  let lo = Instance.lower_bound inst and hi = greedy_height inst in
  let best = ref None in
  (* Binary search on the peak: decision is monotone in [height]. *)
  let rec search lo hi =
    if lo > hi then true
    else
      let mid = lo + ((hi - lo) / 2) in
      match decide_prepared p ~charge ~height:mid with
      | Feasible pk ->
          best := Some pk;
          search lo (mid - 1)
      | Infeasible -> search (mid + 1) hi
      | Node_budget_exhausted -> false
  in
  if Instance.n_items inst = 0 then Some (Packing.make inst [||])
  else if search lo hi then !best
  else None

let optimal_height ?node_limit ?budget inst =
  Option.map (fun pk -> Packing.height pk) (solve ?node_limit ?budget inst)

(* ----- parallel search -------------------------------------------- *)

(* The parallel solver runs the same expander but swaps the binary
   search on the height for incumbent-driven minimization: the greedy
   packing seeds a shared atomic incumbent, passed to the expander as
   its bound, so every worker enumerates completions that beat the
   *current* incumbent (re-read at every node and candidate), publishing
   improvements through one mutex-guarded cell.
   Pruning against the global best means one worker's lucky find
   immediately tightens everyone else's search; on adversarial
   instances this makes the portfolio superlinear, on easy ones it
   degenerates to the serial node count.

   Scheduling: work-stealing over per-domain {!Dsp_util.Wsdeque}s of
   search-frontier units.  A unit is the flat int record
   [depth; start of order.(0); ...; start of order.(depth-1)] — a
   prefix of placements identifying one subtree.  The root start
   columns (confined to the left half by mirror symmetry) are dealt
   round-robin as depth-1 seed units; from there each worker pops its
   own deque LIFO (depth-first, cache-warm), pushes the children of
   shallow nodes (depth < [split_depth]) back as new units, and hands
   deeper subtrees to the expander.  An idle worker steals FIFO from a
   random victim, taking the victim's {e shallowest} — largest —
   subtree, which is what re-balances a skewed tree that the deal
   alone would serialize on one domain.  A full deque never blocks:
   the child is expanded inline instead.

   Termination detection: [pending] counts units that exist (queued in
   any deque or being expanded), incremented {e before} each push and
   decremented only after the unit's expansion completes, so
   [pending = 0] proves no unit is queued, running, or still able to
   spawn children.  Idle workers spin (with budget polls and a short
   sleep backoff, so spinning domains don't starve the busy ones on
   few-core machines) until work appears, [pending] hits zero, or
   [stop] is set.

   Shared state and its discipline:
   - [incumbent : int Atomic.t] — read lock-free in the hot loop,
     written only under [best_m] (monotone decreasing);
   - [total_nodes : int Atomic.t] — the node cap is global, so k
     workers cannot multiply the budget by k;
   - [stop : bool Atomic.t] — set on proven optimality (incumbent hit
     the lower bound), node exhaustion, or a worker dying; every
     worker polls it per node and unwinds with [Stop_search];
   - the deques' own top/bottom indices are Atomics inside
     {!Dsp_util.Wsdeque}; unit payloads are published by its SC
     ordering, never read unvalidated;
   - per-domain tallies ([dom_nodes], [dom_steals], ...) are written
     each by its owning worker only and read after the join;
   - wall-clock deadline and external cancellation ride each worker's
     [Budget.child] of the caller's budget. *)

exception Stop_search

type par_stats = {
  domains : int;
  nodes_per_domain : int array;
  steals : int;
  steal_fails : int;
  units : int;
}

let c_steals = Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_steals

let c_steal_fails =
  Dsp_util.Instr.counter Dsp_util.Instr.Sites.bb_steal_fails

let no_stats ~domains =
  {
    domains;
    nodes_per_domain = Array.make (max domains 0) 0;
    steals = 0;
    steal_fails = 0;
    units = 0;
  }

let sum = Array.fold_left ( + ) 0

let resolve_jobs ~pool ~jobs =
  match pool with
  | Some p -> Dsp_util.Pool.size p
  | None -> (
      match jobs with
      | Some j when j >= 1 -> j
      | Some _ -> invalid_arg "Dsp_bb.solve_par: jobs must be >= 1"
      | None -> Dsp_util.Pool.default_jobs ())

let solve_par ?(node_limit = default_node_limit) ?budget ?jobs ?pool ?stats
    (inst : Instance.t) =
  let put_stats v = match stats with Some r -> r := Some v | None -> () in
  let n = Instance.n_items inst in
  if n = 0 then begin
    put_stats (no_stats ~domains:0);
    Some (Packing.make inst [||])
  end
  else begin
    let lb = Instance.lower_bound inst in
    let seed = greedy_packing inst in
    if Packing.height seed <= lb then begin
      put_stats (no_stats ~domains:0);
      Some seed
    end
    else begin
      let jobs = resolve_jobs ~pool ~jobs in
      let p = prepare inst in
      let incumbent = Atomic.make (Packing.height seed) in
      let best_m = Mutex.create () in
      let best = ref seed in
      let stop = Atomic.make false in
      let exhausted = Atomic.make false in
      let total_nodes = Atomic.make 0 in
      let record peak starts =
        Mutex.lock best_m;
        if peak < Atomic.get incumbent then begin
          Atomic.set incumbent peak;
          best := Packing.make inst (Array.copy starts);
          (* The lower bound is tight: nothing can beat it, stop the
             whole portfolio. *)
          if peak <= lb then Atomic.set stop true
        end;
        Mutex.unlock best_m
      in
      let max0 = max_start p 0 in
      (* Frontier units are [depth; starts...]: n + 1 ints. *)
      let rw = n + 1 in
      (* Shallow nodes become stealable units; deeper subtrees are
         expanded inline by the expander.  Depth 3 gives up to
         (roots * branching^2) units — ample balance granularity
         without paying replay cost in the deep tree. *)
      let split_depth = min n 3 in
      let slots = max 256 ((max0 / jobs) + 8) in
      let deques =
        Array.init jobs (fun _ -> Dsp_util.Wsdeque.create ~slots ~record_width:rw)
      in
      let pending = Atomic.make 0 in
      let dom_nodes = Array.make jobs 0 in
      let dom_steals = Array.make jobs 0 in
      let dom_steal_fails = Array.make jobs 0 in
      let dom_units = Array.make jobs 0 in
      (* Seed the deques before any worker starts (the pool's task
         handoff is the synchronization point): the root start columns
         as depth-1 units, dealt round-robin — stealing repairs
         whatever imbalance the deal hides. *)
      let seed_buf = Array.make rw 0 in
      for s = 0 to max0 do
        seed_buf.(0) <- 1;
        seed_buf.(1) <- s;
        Atomic.incr pending;
        if not (Dsp_util.Wsdeque.push deques.(s mod jobs) seed_buf) then
          (* Unreachable: [slots] is sized to hold every seed. *)
          invalid_arg "Dsp_bb.solve_par: seed overflow"
      done;
      let work wid () =
        let wbudget = Option.map Dsp_util.Budget.child budget in
        let st = create_state p in
        (* [placed] is the depth of the prefix currently on [st];
           [unit_buf] receives popped/stolen units; [child_buf] stages
           pushes.  All fixed-size, reused for the whole solve. *)
        let placed = ref 0 in
        let unit_buf = Array.make rw 0 in
        let child_buf = Array.make rw 0 in
        let rng = Dsp_util.Rng.create (0x57ea1 + wid) in
        let my_dq = deques.(wid) in
        let charge () =
          Dsp_util.Instr.bump c_nodes;
          dom_nodes.(wid) <- dom_nodes.(wid) + 1;
          if 1 + Atomic.fetch_and_add total_nodes 1 > node_limit then begin
            Atomic.set exhausted true;
            Atomic.set stop true
          end;
          if Atomic.get stop then raise Stop_search;
          Dsp_util.Budget.check_opt wbudget
        in
        let leaf st =
          record (Segtree.max_all st.loads) st.starts;
          false
        in
        let expand_from k =
          ignore (expand p st ~bound:incumbent ~charge ~leaf ~root:k)
        in
        (* Swap the placed prefix for the unit in [unit_buf]: unplace
           the old prefix, replay the new one.  Prefixes are shallow
           (depth <= split_depth), so the replay is a handful of
           O(log W) range-adds.  The replayed placements were checked
           against an older bound, if at all, so the peak bound is
           unknown until the unit's node re-checks it. *)
        let load_unit () =
          for j = !placed - 1 downto 0 do
            unplace st p.order.(j)
          done;
          let k = unit_buf.(0) in
          for j = 0 to k - 1 do
            place st p.order.(j) unit_buf.(1 + j)
          done;
          placed := k;
          st.peak_bound <- max_int;
          k
        in
        (* Run one unit.  A deep one is a subtree for the expander; a
           shallow one visits its node and pushes each child start as
           a new (stealable) unit.  The push-side [pending] increment
           happens before the push so the counter never under-reports
           live work. *)
        let execute () =
          dom_units.(wid) <- dom_units.(wid) + 1;
          let k = load_unit () in
          if k >= split_depth || k + 1 >= n then expand_from k
          else
            match visit p st ~bound:incumbent ~charge ~leaf k with
            | Cut | Stop -> ()
            | Open ->
                let it = p.order.(k) in
                Array.blit unit_buf 0 child_buf 0 (k + 1);
                child_buf.(0) <- k + 1;
                let next () =
                  next_start p st k ~from:st.cursor.(k)
                    ~lim:(Atomic.get incumbent - 1)
                in
                let s = ref (next ()) in
                while !s >= 0 do
                  child_buf.(1 + k) <- !s;
                  Atomic.incr pending;
                  if not (Dsp_util.Wsdeque.push my_dq child_buf) then begin
                    (* Full deque: keep the subtree, expand inline. *)
                    ignore (Atomic.fetch_and_add pending (-1));
                    place st it !s;
                    st.peak_bound <- max_int;
                    expand_from (k + 1);
                    unplace st it
                  end;
                  st.cursor.(k) <- !s + 1;
                  s := next ()
                done
        in
        (* Steal FIFO from random victims: the oldest unit in a deque
           is the shallowest subtree the victim owns — the biggest
           chunk of work available. *)
        let steal_round () =
          (* Bounded retry (2*(jobs-1) tries), not search recursion;
             the idle loop around it polls the budget.  lint: ok R3 *)
          let rec attempt tries =
            if tries = 0 || jobs = 1 then false
            else begin
              let r = Dsp_util.Rng.int rng (jobs - 1) in
              let v = if r >= wid then r + 1 else r in
              if Dsp_util.Wsdeque.steal deques.(v) unit_buf then true
              else attempt (tries - 1)
            end
          in
          attempt (2 * (jobs - 1))
        in
        let finish_unit () =
          execute ();
          (* Only reached on normal completion; every exceptional exit
             sets [stop], after which [pending] is irrelevant. *)
          ignore (Atomic.fetch_and_add pending (-1))
        in
        let rec loop idle =
          if Atomic.get stop then ()
          else if Dsp_util.Wsdeque.pop my_dq unit_buf then begin
            finish_unit ();
            loop 0
          end
          else if steal_round () then begin
            dom_steals.(wid) <- dom_steals.(wid) + 1;
            Dsp_util.Instr.bump c_steals;
            finish_unit ();
            loop 0
          end
          else if Atomic.get pending = 0 then ()
          else begin
            dom_steal_fails.(wid) <- dom_steal_fails.(wid) + 1;
            Dsp_util.Instr.bump c_steal_fails;
            (* Nothing to run right now, but some unit is in flight
               and may spawn children.  Poll the budget so deadlines
               and cancellation reach idle workers too, then back off:
               busy-spinning here would starve the very workers we
               are waiting on when domains outnumber cores. *)
            Dsp_util.Budget.poll_opt wbudget;
            Domain.cpu_relax ();
            if idle >= 16 then Unix.sleepf 0.0002;
            loop (min (idle + 1) 16)
          end
        in
        match loop 0 with
        | () -> ()
        | exception Stop_search -> ()
        | exception e ->
            (* A real failure (deadline, cancellation, injected fault):
               bring the siblings down too, then let the pool carry the
               exception back to the caller. *)
            Atomic.set stop true;
            raise e
      in
      let tasks = List.init jobs (fun wid -> work wid) in
      let results =
        match pool with
        | Some p -> Dsp_util.Pool.run_all p tasks
        | None ->
            Dsp_util.Pool.with_pool ~jobs (fun p -> Dsp_util.Pool.run_all p tasks)
      in
      List.iter (function Ok () -> () | Error e -> raise e) results;
      put_stats
        {
          domains = jobs;
          nodes_per_domain = dom_nodes;
          steals = sum dom_steals;
          steal_fails = sum dom_steal_fails;
          units = sum dom_units;
        };
      if Atomic.get exhausted then None else Some !best
    end
  end

let optimal_height_par ?node_limit ?budget ?jobs ?pool inst =
  Option.map
    (fun pk -> Packing.height pk)
    (solve_par ?node_limit ?budget ?jobs ?pool inst)
