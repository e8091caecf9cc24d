(** Shared helpers: clocks, statistics, files, and the GC discipline. *)

let now = Unix.gettimeofday

(** Quantile by linear interpolation between closest ranks. *)
let quantile (l : float list) (q : float) : float =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

let geomean (l : float list) : float =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(** Settle the heap before a timed stage, so one stage's garbage is not
    collected on the next stage's clock. *)
let settle () = Gc.compact ()

(** Allocation counters around [f]: (result, minor words, major words). *)
let with_alloc (f : unit -> 'a) : 'a * float * float =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_words -. s0.Gc.major_words)

(** Peak resident set of this process in MiB ([VmHWM]). *)
let peak_rss_mb () : float =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> go ()
      in
      go ()

(** Restart the peak-resident-set count ([VmHWM]) at the current size, so
    the next {!peak_rss_mb} reports the peak of the work since. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** A scratch directory of this run under [.bench_build/work], removed by
    {!with_workdir} when the run ends. *)
let with_workdir (name : string) (f : string -> 'a) : 'a =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf ".bench_build/work/%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(** Seeded choices: every input the program sees derives from [--seed]. *)
let shuffle (rng : Random.State.t) (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Total size in bytes of the regular files under [dir] whose name ends
    in [suffix]. *)
let rec bytes_under ~suffix dir : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc n ->
          let p = Filename.concat dir n in
          if Sys.is_directory p then acc + bytes_under ~suffix p
          else if Filename.check_suffix n suffix then acc + (Unix.stat p).Unix.st_size
          else acc)
        0 names
