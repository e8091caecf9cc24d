(** Benchmark driver: regenerates the paper's figures 6–9, the §7.3 prose
    numbers, the optimizer ablations, and the boundary-contract overhead
    table.

    Usage:
    [dune exec bench/main.exe -- [fig6|fig7|fig8|fig9|prose|ablate|boundary|all] [--quick]]

    [--quick] runs 3 rounds per variant instead of 9.  The process exits
    1 if any variant's checksum diverges from its siblings: a
    mis-optimization is a correctness failure, not a perf artifact.
    Per-layer timings, parallel builds and the compile server are
    measured by the repository benchmark (perfbench/README.md). *)

module Core = Liblang_core.Core
open Harness

let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let rounds = if quick then 3 else 9

let fig6 () =
  run_figure ~rounds
    ~title:
      "Figure 6: Gabriel & Larceny benchmarks — naive backend stands in for the\n\
       other Scheme systems measured in the paper (see DESIGN.md)"
    ~figure:"fig6"
    ~variants:[ Naive_backend; Base; Typed ]
    ()

let fig7 () =
  run_figure ~rounds ~title:"Figure 7: Computer Language Benchmarks Game" ~figure:"fig7"
    ~variants:[ Base; Typed ] ()

let fig8 () =
  run_figure ~rounds ~title:"Figure 8: pseudoknot (float-intensive)" ~figure:"fig8"
    ~variants:[ Naive_backend; Base; Typed ]
    ()

let fig9 () =
  run_figure ~rounds ~title:"Figure 9: large benchmarks" ~figure:"fig9" ~variants:[ Base; Typed ] ()

let prose () =
  Printf.printf "\n%s\n§7.3 prose checkpoints (speedup %% = (untyped - typed)/typed)\n%s\n" line
    line;
  let one name paper =
    let b = Programs.find name in
    let results = measure_variants ~rounds b [ Base; Typed ] in
    let base = List.assoc Base results and typed = List.assoc Typed results in
    let speedup = (base.mean_ms -. typed.mean_ms) /. typed.mean_ms *. 100.0 in
    Printf.printf "%-12s paper: +%3.0f%%   measured: %+5.0f%%  (untyped %.1fms, typed %.1fms)\n"
      name paper speedup base.mean_ms typed.mean_ms
  in
  one "fft" 33.0;
  one "pseudoknot" 123.0;
  flush stdout

let ablate () =
  Printf.printf
    "\n%s\nAblation: what the unsafe primitives buy (normalized to untyped = 1.00)\n\
     typed-O0 = typecheck only; typed-noubx = rewrites without backend unboxing;\n\
     typed-nocfa = optimizer on, 0CFA flow facts off\n%s\n"
    line line;
  Printf.printf "%-14s %12s %12s %12s %12s %12s\n" "benchmark" "untyped" "typed-O0"
    "typed-noubx" "typed-nocfa" "typed";
  List.iter
    (fun name ->
      let b = Programs.find name in
      let results =
        measure_variants ~rounds b [ Base; Typed_O0; Typed_no_unbox; Typed_no_cfa; Typed ]
      in
      let base = List.assoc Base results in
      let o0 = List.assoc Typed_O0 results in
      let noubx = List.assoc Typed_no_unbox results in
      let nocfa = List.assoc Typed_no_cfa results in
      let full = List.assoc Typed results in
      check_agreement name results;
      Printf.printf "%-14s %12.2f %12.2f %12.2f %12.2f %12.2f\n" name 1.0
        (o0.mean_ms /. base.mean_ms) (noubx.mean_ms /. base.mean_ms)
        (nocfa.mean_ms /. base.mean_ms) (full.mean_ms /. base.mean_ms);
      flush stdout)
    [ "sumfp"; "fibfp"; "mbrot"; "nbody"; "spectralnorm"; "fft"; "pseudoknot" ]

(* Contract overhead at the typed/untyped boundary (§6): a typed module
   calling an untyped function through require/typed pays a contract per
   call; the same function inside the typed module does not. *)
let boundary () =
  Printf.printf "\n%s\nBoundary-contract overhead (§6): cost of require/typed per call\n%s\n" line
    line;
  let umod = "#lang racket\n(provide step)\n(define (step x) (+ x 1))\n" in
  ignore (Core.Modsys.declare ~name:"bench-untyped-step" umod);
  let crossing =
    "#lang typed/racket\n\
     (require/typed bench-untyped-step [step (Integer -> Integer)])\n\
     (define (main) : Integer\n\
    \  (let loop : Integer ([i : Integer 0] [acc : Integer 0])\n\
    \    (if (= i 100000) acc (loop (+ i 1) (step acc)))))\n\
     (display (main))\n"
  in
  let local =
    "#lang typed/racket\n\
     (define (step [x : Integer]) : Integer (+ x 1))\n\
     (define (main) : Integer\n\
    \  (let loop : Integer ([i : Integer 0] [acc : Integer 0])\n\
    \    (if (= i 100000) acc (loop (+ i 1) (step acc)))))\n\
     (display (main))\n"
  in
  let typed_to_typed_server =
    "#lang typed/racket\n(provide step)\n(define (step [x : Integer]) : Integer (+ x 1))\n"
  in
  ignore (Core.Modsys.declare ~name:"bench-typed-step" typed_to_typed_server);
  let typed_to_typed =
    "#lang typed/racket\n\
     (require bench-typed-step)\n\
     (define (main) : Integer\n\
    \  (let loop : Integer ([i : Integer 0] [acc : Integer 0])\n\
    \    (if (= i 100000) acc (loop (+ i 1) (step acc)))))\n\
     (display (main))\n"
  in
  let untyped_to_typed =
    "#lang racket\n\
     (require bench-typed-step)\n\
     (define (main)\n\
    \  (let loop ([i 0] [acc 0])\n\
    \    (if (= i 100000) acc (loop (+ i 1) (step acc)))))\n\
     (display (main))\n"
  in
  let time_mod name source =
    let m = Core.Modsys.declare ~name source in
    m.Core.Modsys.instantiated <- false;
    let _ = Core.Prims.with_captured_output (fun () -> Core.Modsys.instantiate m) in
    let runs = if quick then 3 else 10 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to runs do
      m.Core.Modsys.instantiated <- false;
      ignore (Core.Prims.with_captured_output (fun () -> Core.Modsys.instantiate m))
    done;
    1000.0 *. (Unix.gettimeofday () -. t0) /. float_of_int runs
  in
  let t_local = time_mod "bench-boundary-local" local in
  let t_tt = time_mod "bench-boundary-tt" typed_to_typed in
  let t_cross = time_mod "bench-boundary-cross" crossing in
  let t_ut = time_mod "bench-boundary-ut" untyped_to_typed in
  Printf.printf "typed calls its own function:             %8.1f ms  (1.00x)\n" t_local;
  Printf.printf "typed calls typed import (no contract):   %8.1f ms  (%.2fx)\n" t_tt
    (t_tt /. t_local);
  Printf.printf "typed calls untyped import (contracted):  %8.1f ms  (%.2fx)\n" t_cross
    (t_cross /. t_local);
  Printf.printf "untyped calls typed export (contracted):  %8.1f ms  (%.2fx)\n" t_ut
    (t_ut /. t_local);
  flush stdout

(* A checksum disagreement between variants of the same benchmark means a
   mis-optimization, not noise — fail the process. *)
let finish () =
  match !Harness.checksum_mismatches with
  | [] -> ()
  | ms ->
      Printf.eprintf "FAIL: %d variant checksum mismatch%s (see table output above)\n"
        (List.length ms)
        (if List.length ms = 1 then "" else "es");
      exit 1

let sections =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("prose", prose);
    ("ablate", ablate);
    ("boundary", boundary);
  ]

let () =
  Core.init ();
  (match List.find_opt (fun (name, _) -> Array.mem name Sys.argv) sections with
  | Some (_, run) -> run ()
  | None ->
      List.iter (fun (_, run) -> run ()) sections;
      Printf.printf "\nDone. See EXPERIMENTS.md for the paper-vs-measured discussion.\n");
  finish ()
