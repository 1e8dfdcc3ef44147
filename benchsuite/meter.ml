(* Clocks, order statistics and small file-system helpers shared by the
   suite. Every time the suite reports is taken here, outside the
   program under test. *)

(* CLOCK_MONOTONIC, in seconds: immune to wall-clock steps mid-run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU seconds of this process plus every child it has reaped — the
   supervised pipeline does most of its work in forked workers, which
   [Sys.time] never sees. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

type span = { wall : float; cpu : float }

let timed f =
  let w0 = now () and c0 = cpu () in
  let r = f () in
  (r, { wall = now () -. w0; cpu = cpu () -. c0 })

let wall f =
  let r, s = timed f in
  (r, s.wall)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let rec waitpid pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* [f x] for every [x], each in its own forked child, all at once; the
   results come back marshalled through a pipe, and nothing [f]
   allocates stays in this process. A child leaves by [Unix._exit], so
   it must flush what it writes itself. *)
let fork_map f xs =
  let spawn x =
    let r, w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let res = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e) in
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc res [];
        close_out oc;
        Unix._exit 0
    | pid ->
        Unix.close w;
        (pid, Unix.in_channel_of_descr r)
  in
  let await (pid, ic) =
    let res =
      match Marshal.from_channel ic with
      | res -> res
      | exception End_of_file -> Error "child died before answering"
    in
    close_in ic;
    waitpid pid;
    res
  in
  List.map await (List.map spawn xs)
  |> List.map (function Ok v -> v | Error e -> failwith e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size
