(* What one benchmark run reports, and the context it ran in. *)

type metric = { name : string; value : float; unit : string; samples : int }

type outcome = {
  checks : (string * bool) list;  (** every correctness check, by name *)
  attempted : int;
  failed : int;
  end_to_end : metric list;  (** untraced runs *)
  layers : metric list;  (** traced runs *)
  notes : (string * string) list;  (** run context specific to the workload *)
}

let m ?(samples = 1) name value unit = { name; value; unit; samples }

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (In_channel.with_open_text path In_channel.input_lines)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Effective parallelism: the same spin loop on 1 domain, then on
   [domains] domains at once; perfect scaling gives [domains]. *)
let spin_parallelism ~domains =
  let spin () =
    let x = ref 0 in
    for i = 1 to 30_000_000 do
      x := !x lxor (i * 7)
    done;
    Sys.opaque_identity !x |> ignore
  in
  let time f =
    let t0 = Clock.now_ns () in
    f ();
    Clock.seconds_between t0 (Clock.now_ns ())
  in
  let one = time spin in
  let many =
    time (fun () ->
        List.init domains (fun _ -> Domain.spawn spin) |> List.iter Domain.join)
  in
  float_of_int domains *. one /. many

(* Type of the filesystem holding [dir]: the longest mount point in
   /proc/mounts that is a prefix of its real path. *)
let fs_type dir =
  let real = Unix.realpath dir in
  let prefix p = p = "/" || p = real || String.starts_with ~prefix:(p ^ "/") real in
  let best = ref ("", "unknown") in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | _ :: mnt :: fs :: _ when prefix mnt && String.length mnt >= String.length (fst !best) ->
          best := (mnt, fs)
      | _ -> ())
    (In_channel.with_open_text "/proc/mounts" In_channel.input_lines);
  snd !best

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* A fresh directory for this run's files, inside the checkout. *)
let fresh_dir path =
  let rec mkdir_p p =
    if not (Sys.file_exists p) then begin
      mkdir_p (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists path then rm path;
  mkdir_p path;
  path
