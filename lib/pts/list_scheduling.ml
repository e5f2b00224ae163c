open Dsp_core

type order = Input | Longest_first | Widest_first | Work_first

let comparator = function
  | Input -> fun (a : Pts.Job.t) (b : Pts.Job.t) -> compare a.id b.id
  | Longest_first ->
      fun (a : Pts.Job.t) (b : Pts.Job.t) ->
        (match compare b.p a.p with 0 -> compare a.id b.id | c -> c)
  | Widest_first ->
      fun (a : Pts.Job.t) (b : Pts.Job.t) ->
        (match compare b.q a.q with 0 -> compare a.id b.id | c -> c)
  | Work_first ->
      fun (a : Pts.Job.t) (b : Pts.Job.t) ->
        (match compare (Pts.Job.work b) (Pts.Job.work a) with
        | 0 -> compare a.id b.id
        | c -> c)

let makespan_bound (inst : Pts.Inst.t) =
  Pts.Inst.work_lower_bound inst + Pts.Inst.max_time inst

let start_times ?(order = Work_first) (inst : Pts.Inst.t) ~horizon =
  let m = inst.Pts.Inst.machines in
  let sigma = Array.make (Pts.Inst.n_jobs inst) 0 in
  let profile = Segtree.create (max 1 horizon) in
  let jobs = Array.copy inst.Pts.Inst.jobs in
  Array.stable_sort (comparator order) jobs;
  (* Stop at the first job without a start in [0, horizon - p]. *)
  let rec place k =
    if k = Array.length jobs then Some sigma
    else
      let j = jobs.(k) in
      let t = Segtree.first_fit_from_i profile ~from:0 ~len:j.p ~height:j.q ~limit:m in
      if t < 0 then None
      else begin
        sigma.(j.id) <- t;
        Segtree.range_add profile ~lo:t ~hi:(t + j.p) j.q;
        place (k + 1)
      end
  in
  place 0

(* First fit always succeeds within the sequential horizon Σp: a job
   can start once every earlier one has finished. *)
let sequential_starts ?order (inst : Pts.Inst.t) =
  let horizon = Array.fold_left (fun acc (j : Pts.Job.t) -> acc + j.p) 0 inst.Pts.Inst.jobs in
  match start_times ?order inst ~horizon with
  | Some sigma -> sigma
  | None -> assert false

let finish (inst : Pts.Inst.t) sigma =
  let f = ref 0 in
  Array.iteri (fun i s -> f := max !f (s + (Pts.Inst.job inst i).Pts.Job.p)) sigma;
  !f

let schedule ?order (inst : Pts.Inst.t) =
  let sigma = sequential_starts ?order inst in
  (* Recover machine sets via the Figure 3 sweep on the dual
     packing. *)
  let dual =
    Dsp_transform.Transform.pts_to_dsp_instance inst ~width:(max 1 (finish inst sigma))
  in
  match
    Dsp_transform.Transform.packing_to_schedule (Packing.make dual sigma)
      ~machines:inst.Pts.Inst.machines
  with
  | Ok (sched, _) ->
      Pts.Schedule.make inst ~sigma:sched.Pts.Schedule.sigma ~rho:sched.Pts.Schedule.rho
  | Error msg -> invalid_arg ("List_scheduling.schedule: " ^ msg)

let makespan ?order inst = finish inst (sequential_starts ?order inst)
