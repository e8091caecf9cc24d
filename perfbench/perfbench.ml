(** The repository benchmark.

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    runs one workload (run-figs, build-project or serve-mixed) from the
    root of a checkout, prints a human-readable report, and prints as its
    last line one JSON object: [correct], [attempted], [failed] and
    [metrics] — the end-to-end metrics (trace 0, the median over
    {!processes} measuring processes, each started with
    [--part-seconds]) or the per-layer metrics of one traced run
    (trace 1).  The full per-layer ledger of a traced run is also written
    to [.bench_build/reports/].
    [perfbench --make-expected] prints the expected-output file of the
    figure programs, cross-checked by the naive evaluator. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench --workload run-figs|build-project|serve-mixed --seed N --seconds S --trace 0|1\n\
    \       perfbench --make-expected";
  exit 64

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_str s = Liblang_core.Core.Json.to_string (Liblang_core.Core.Json.Str s)

let result_line ~correct ~attempted ~failed (metrics : (string * float * string) list) extra =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}%s}" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v) (json_str u))
          metrics))
    extra

(** Untraced runs are split over {!processes} fresh processes run one
    after another, and each metric is the median of theirs: one process
    can run the same work 30% slower than the next (its memory placement),
    and a single process per run would carry that into the run's figure. *)
let processes = 4

module Json = Liblang_core.Core.Json

let coordinate ~workload ~seed ~seconds =
  let parts =
    List.init processes (fun i ->
        let args =
          [|
            Sys.executable_name; "--workload"; workload; "--seed"; string_of_int ((seed * processes) + i);
            "--part-seconds"; Printf.sprintf "%.3f" (seconds /. float_of_int processes);
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ ->
            prerr_endline ("perfbench: a measuring process of " ^ workload ^ " failed");
            exit 2);
        List.iter
          (fun l ->
            Printf.printf "[process %d] %s\n" i l;
            (* failures also go to stderr, where a caller keeping only the
               tail of the output still sees which check failed *)
            if String.starts_with ~prefix:"FAILED: " l then Printf.eprintf "perfbench: [process %d] %s\n%!" i l)
          (List.filteri (fun j _ -> j < List.length lines - 1) lines);
        match Json.parse (List.nth lines (List.length lines - 1)) with
        | Ok j -> j
        | Error e ->
            prerr_endline ("perfbench: unreadable result of a measuring process: " ^ e);
            exit 2)
  in
  let num k j = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_num) in
  let values section name =
    List.filter_map
      (fun j -> Option.bind (Json.member section j) (fun m -> Option.map (num "value") (Json.member name m)))
      parts
  in
  let median_of section name = median (values section name) in
  let named =
    List.filter_map
      (fun (n, _) -> match values "named" n with [] -> None | _ -> Some (n, median_of "named" n))
      Workload.named_metrics
  in
  print_string (Workload.render_named named);
  Printf.printf "(median of %d measuring processes)\n" processes;
  let attempted = List.fold_left (fun a j -> a + int_of_float (num "attempted" j)) 0 parts in
  let failed = List.fold_left (fun a j -> a + int_of_float (num "failed" j)) 0 parts in
  print_endline
    (result_line ~correct:(failed = 0) ~attempted ~failed
       (List.map (fun (n, u) -> (n, median_of "metrics" n, u)) Workload.e2e_units)
       "")

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--make-expected" args then (Figs.make_expected (); exit 0);
  let rec get k = function
    | k' :: v :: _ when String.equal k k' -> Some v
    | _ :: rest -> get k rest
    | [] -> None
  in
  let int_arg k = Option.bind (get k args) int_of_string_opt in
  let workload = match get "--workload" args with Some w -> w | None -> usage () in
  let seed = match int_arg "--seed" with Some s -> s | None -> usage () in
  let run =
    match workload with
    | "run-figs" -> Figs.run
    | "build-project" -> Project.run
    | "serve-mixed" -> Serve.run
    | _ -> usage ()
  in
  match Option.bind (get "--part-seconds" args) float_of_string_opt with
  | Some seconds ->
      (* one measuring process of an untraced run *)
      let r = run { Workload.seed; seconds; trace = false } in
      print_string r.Workload.report;
      List.iter (fun f -> Printf.printf "FAILED: %s\n" f) r.Workload.failures;
      let failed = List.length r.Workload.failures in
      print_endline
        (result_line ~correct:(failed = 0) ~attempted:r.Workload.attempted ~failed r.Workload.metrics
           (Printf.sprintf ", \"named\": {%s}"
              (String.concat ", "
                 (List.map
                    (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v) (json_str u))
                    r.Workload.ledger))))
  | None -> (
      let seconds = match int_arg "--seconds" with Some s when s > 0 -> s | _ -> usage () in
      match int_arg "--trace" with
      | Some 0 -> coordinate ~workload ~seed ~seconds:(float_of_int seconds)
      | Some 1 ->
          Ledger.reset ();
          let r = run { Workload.seed; seconds = float_of_int seconds; trace = true } in
          print_string r.Workload.report;
          List.iter
            (fun f ->
              Printf.printf "FAILED: %s\n" f;
              Printf.eprintf "perfbench: FAILED: %s\n%!" f)
            r.Workload.failures;
          let dir = ".bench_build/reports" in
          mkdir_p dir;
          let path = Printf.sprintf "%s/%s-seed%d-trace.json" dir workload seed in
          write_file path
            ("{"
            ^ String.concat ", "
                (List.map
                   (fun (n, v, u) -> Printf.sprintf "%s: [%s, %s]" (json_str n) (json_num v) (json_str u))
                   r.Workload.ledger)
            ^ "}\n");
          Printf.printf "ledger written to %s\n" path;
          let failed = List.length r.Workload.failures in
          print_endline (result_line ~correct:(failed = 0) ~attempted:r.Workload.attempted ~failed r.Workload.metrics "")
      | _ -> usage ())
