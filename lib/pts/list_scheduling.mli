(** Greedy list scheduling for Parallel Task Scheduling.

    Jobs are taken in a configurable order; each is started at the
    earliest time at which enough machines are simultaneously free for
    its whole duration (first fit on the machine-availability
    profile).  This is the classical resource-constrained list
    scheduling of Garey–Graham, a 2-approximation for parallel tasks;
    the order only changes the constant in practice.  Used as the
    implementable stand-in for the Jansen–Thöle (3/2+ε) inner solver
    of Corollary 2 (DESIGN.md §3).

    {!start_times} is the first fit alone: start times only, no
    machine sets.  By Theorem 1 the start times with peak at most m
    already are the schedule, so callers that only decide (the
    [pts-duality] solver's probes, {!makespan}) stop there and recover
    machine sets once, for the answer they keep.  {!schedule} adds
    that recovery: the paper's Figure 3 sweep
    ({!Dsp_transform.Transform.packing_to_schedule}). *)

open Dsp_core

type order = Input | Longest_first | Widest_first | Work_first

val start_times : ?order:order -> Pts.Inst.t -> horizon:int -> int array option
(** [start_times ~order inst ~horizon] first-fits the jobs, in [order]
    (default [Work_first]), on a profile of [horizon] columns with
    limit [machines], and returns each job's start time, indexed by
    job id.  [None] as soon as a job has no start in
    [[0, horizon - p]]; that happens exactly when the unbounded list
    schedule's makespan exceeds [horizon], and otherwise the start
    times are the unbounded schedule's. *)

val schedule : ?order:order -> Pts.Inst.t -> Pts.Schedule.t
(** The list schedule over the sequential horizon Σp, with machine
    sets recovered by the Figure 3 sweep and validated by
    {!Pts.Schedule.make}.  @raise Invalid_argument never; always
    succeeds. *)

val makespan : ?order:order -> Pts.Inst.t -> int
(** The makespan of {!schedule}, computed from {!start_times} alone
    (no machine sets are built). *)

val makespan_bound : Pts.Inst.t -> int
(** ⌈work/m⌉ + max p: a lower bound on twice the optimum and in
    practice an upper bound on the greedy's makespan for jobs needing
    a single machine; the greedy itself is always correct regardless
    (it schedules within the sequential horizon Σp). *)
