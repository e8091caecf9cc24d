(** The [run-figs] workload: the 24 programs of Figs. 6–9 plus the §6
    boundary pair, each compiled once as typed and as untyped during
    set-up, then instantiated in a seeded round-robin order on one domain
    with the default engine. *)

open Common
module Core = Liblang_core.Core
module Modsys = Core.Modsys
module Compiled = Core.Compiled
module Prims = Core.Prims

type kind = {
  name : string;  (** [<program>/<variant>] *)
  program : string;
  variant : string;  (** typed | untyped | cross | local *)
  file : string;  (** file name under the work directory *)
  source : string;
}

let boundary_loop =
  "(define (main) : Integer\n\
  \  (let loop : Integer ([i : Integer 0] [acc : Integer 0])\n\
  \    (if (= i 200000) acc (loop (+ i 1) (step acc)))))\n\
   (display (main))\n"

(** The §6 pair: a typed module calling an untyped function through
    [require/typed] (one contract check per call), and its contract-free
    twin that defines the same function itself. *)
let boundary_step = "#lang racket\n(provide step)\n(define (step x) (+ x 1))\n"

(** The Figs. 6–9 programs (the expansion stress family is not a figure). *)
let fig_programs =
  List.filter
    (fun (p : Programs.t) -> not (List.exists (fun (e, _) -> e == p) Programs.expand_family))
    Programs.all

let kinds : kind list =
  let fig =
    List.concat_map
      (fun (p : Programs.t) ->
        List.map
          (fun (variant, lang, body) ->
            let name = p.Programs.name ^ "/" ^ variant in
            {
              name;
              program = p.Programs.name;
              variant;
              file = Printf.sprintf "%s-%s.scm" p.Programs.name variant;
              source = Printf.sprintf "#lang %s\n%s" lang body;
            })
          [ ("typed", "typed/racket", p.Programs.typed); ("untyped", "racket", p.Programs.untyped) ])
      fig_programs
  in
  let b variant body =
    {
      name = "boundary/" ^ variant;
      program = "boundary";
      variant;
      file = "boundary-" ^ variant ^ ".scm";
      source = "#lang typed/racket\n" ^ body ^ boundary_loop;
    }
  in
  fig
  @ [
      b "cross" "(require/typed \"boundary-step.scm\" [step (Integer -> Integer)])\n";
      b "local" "(define (step [x : Integer]) : Integer (+ x 1))\n";
    ]

let expected_path = "perfbench/expected_figs.txt"

(** The committed expected outputs ([kind<TAB>output] per line). *)
let load_expected () : (string, string) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.index_opt l '\t' with
      | Some i -> Hashtbl.replace t (String.sub l 0 i) (String.sub l (i + 1) (String.length l - i - 1))
      | None -> ())
    (String.split_on_char '\n' (read_file expected_path));
  t

let write_sources dir =
  write_file (Filename.concat dir "boundary-step.scm") boundary_step;
  List.iter (fun k -> write_file (Filename.concat dir k.file) k.source) kinds

(** Instantiate [m] once (its requires already ran); returns its output
    and the seconds it took. *)
let run_once (m : Modsys.t) : string * float =
  Modsys.reset_instantiated m;
  Prims.with_captured_output (fun () ->
      let t0 = now () in
      Ledger.span ~layer:"modules" "Modsys.instantiate" (fun () ->
          Ledger.derived_of (fun () -> Modsys.instantiate m));
      now () -. t0)

(** Set-up: compile every kind through a cold artifact store, then load
    them back as a fresh process would ([Compiled.compile_file] after a
    session reset).  Returns the loaded modules. *)
let artifact_bytes = ref 0

let setup (dir : string) : (kind * Modsys.t) list =
  let cache = Filename.concat dir "cache" in
  rm_rf cache;
  Compiled.reset_session ();
  let path k = Filename.concat dir k.file in
  Compiled.with_cache_dir cache (fun () ->
      Ledger.span ~layer:"compiled" "Compiled.compile_file (cold)" (fun () ->
          Ledger.derived_of (fun () ->
              Liblang_core.Pipeline.with_stx_counters (fun () ->
                  List.iter (fun k -> ignore (Compiled.compile_file (path k))) kinds)));
      artifact_bytes := bytes_under ~suffix:".lart" cache;
      Compiled.reset_session ();
      Ledger.span ~layer:"compiled" "Compiled.compile_file (load)" (fun () ->
          Ledger.derived_of (fun () ->
              List.map (fun k -> (k, Compiled.compile_file (path k))) kinds)))

type sample = { ms : float; minor : float; major : float }

(** One timed stage: settle the GC, run, check the output. *)
let timed (expected : (string, string) Hashtbl.t) (k, m) ~(fail : string -> unit) : sample =
  Ledger.span ~layer:"bench" "Gc.compact" settle;
  let (out, dt), minor, major = with_alloc (fun () -> run_once m) in
  if Hashtbl.find_opt expected k.name <> Some out then
    fail (Printf.sprintf "%s printed %S, expected %S" k.name out
            (Option.value ~default:"<none>" (Hashtbl.find_opt expected k.name)));
  { ms = 1000.0 *. dt; minor; major }

let med f l = median (List.map f l)

(** Geometric mean over programs of the median run time of [variant]. *)
let gm_variant (samples : (kind * sample list) list) variant =
  geomean
    (List.filter_map
       (fun (k, l) -> if String.equal k.variant variant then Some (med (fun s -> s.ms) l) else None)
       samples)

let variant_speedup samples =
  geomean
    (List.filter_map
       (fun (k, l) ->
         if String.equal k.variant "typed" then
           match List.find_opt (fun (k', _) -> k'.program = k.program && k'.variant = "untyped") samples with
           | Some (_, lu) -> Some (med (fun s -> s.ms) lu /. med (fun s -> s.ms) l)
           | None -> None
         else None)
       samples)

let ms_of_kinds samples = List.map (fun (_, l) -> med (fun s -> s.ms) l) samples

(** The naive evaluator, cross-checking the interpreter once: prints the
    expected-output file. *)
let make_expected () =
  with_workdir "expected" @@ fun dir ->
  write_sources dir;
  let mods = setup dir in
  List.iter
    (fun (k, m) ->
      let interp, _ = run_once m in
      let naive, _ = Ledger.with_evaluator Core.Naive.eval_top (fun () -> run_once m) in
      if not (String.equal interp naive) then begin
        Printf.eprintf "%s: interp printed %S, naive %S\n" k.name interp naive;
        exit 1
      end;
      Printf.printf "%s\t%s\n" k.name interp)
    mods

let run (cfg : Workload.cfg) : Workload.result =
  let expected = load_expected () in
  with_workdir "run-figs" @@ fun dir ->
  let rng = Random.State.make [| cfg.seed |] in
  let failures = ref [] in
  let attempted = ref 0 in
  let fail msg = failures := msg :: !failures in
  (* set-up: write, compile, load *)
  let t0 = now () in
  let mods =
    Ledger.segment_if cfg.trace "setup" (fun () ->
        Ledger.span ~layer:"bench" "write sources" (fun () -> write_sources dir);
        setup dir)
  in
  let setup_s = now () -. t0 in
  reset_peak_rss ();
  let round ~(record : kind -> sample -> unit) =
    List.iter
      (fun (k, m) ->
        incr attempted;
        record k (timed expected (k, m) ~fail))
      (shuffle rng mods)
  in
  let samples = Hashtbl.create 64 in
  let record k s = Hashtbl.replace samples k.name (s :: Option.value ~default:[] (Hashtbl.find_opt samples k.name)) in
  let collect () = List.map (fun (k, _) -> (k, Option.value ~default:[] (Hashtbl.find_opt samples k.name))) mods in
  if not cfg.trace then begin
    let deadline = now () +. cfg.seconds in
    while now () < deadline || Hashtbl.length samples = 0 do
      round ~record
    done;
    let s = collect () in
    let all_ms = List.concat_map (fun (_, l) -> List.map (fun x -> x.ms) l) s in
    let n = List.length all_ms in
    Workload.finish ~attempted:!attempted ~failures:(List.rev !failures)
      ~e2e:
        [
          ("setup_s", setup_s);
          ("op_ms", geomean (ms_of_kinds s));
          ("fast_path_ms", gm_variant s "typed");
          ("slow_path_ms", gm_variant s "untyped");
          ("tail_ms", List.fold_left Float.max 0.0 (ms_of_kinds s));
          ("ops_per_s", float_of_int n /. (List.fold_left ( +. ) 0.0 all_ms /. 1000.0));
          ("peak_rss_mb", peak_rss_mb ());
        ]
      ~named:
        [
          ("run_typed_ms", gm_variant s "typed", "ms");
          ("run_untyped_ms", gm_variant s "untyped", "ms");
        ]
  end
  else begin
    (* traced run: one untraced and one traced pass over the same order,
       then the engine comparison (interp vs vm) *)
    let order = shuffle rng mods in
    let pass () =
      let t0 = now () in
      List.iter (fun (k, m) -> incr attempted; record k (timed expected (k, m) ~fail)) order;
      now () -. t0
    in
    let untraced = pass () in
    Hashtbl.reset samples;
    let traced = Ledger.segment "measure" pass in
    let interp_rows = collect () in
    let vm = Hashtbl.create 64 and interp = Hashtbl.create 64 in
    let add tbl k s = Hashtbl.replace tbl k.name (s :: Option.value ~default:[] (Hashtbl.find_opt tbl k.name)) in
    Ledger.segment "engines" (fun () ->
        for _ = 1 to 3 do
          List.iter
            (fun (k, m) ->
              attempted := !attempted + 2;
              add interp k (timed expected (k, m) ~fail);
              Ledger.span ~layer:"backend" "Vm.eval_top" (fun () ->
                  Ledger.with_evaluator ~layer:"backend" Core.Vm.eval_top (fun () ->
                      let saved = !Core.Vm.Engine.current in
                      Core.Vm.Engine.current := Core.Vm.Engine.Vm;
                      Fun.protect
                        ~finally:(fun () -> Core.Vm.Engine.current := saved)
                        (fun () -> add vm k (timed expected (k, m) ~fail)))))
            order
        done);
    let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k.name) in
    let engine_rows = List.map (fun (k, _) -> (k, get interp k)) mods in
    let vm_rows = List.map (fun (k, _) -> (k, get vm k)) mods in
    let vm_over_interp =
      geomean (List.map2 (fun (_, a) (_, b) -> med (fun s -> s.ms) b /. med (fun s -> s.ms) a) engine_rows vm_rows)
    in
    let crossing =
      let m v = med (fun s -> s.ms) (List.assoc v (List.map (fun (k, l) -> (k.variant, l)) (List.filter (fun (k, _) -> k.program = "boundary") engine_rows))) in
      m "cross" -. m "local"
    in
    let rows =
      List.map2
        (fun (k, l) (_, lv) ->
          Printf.sprintf
            "runtime.run_ms[%s] = %.3f ms (minor %.0f, major %.0f words); backend.vm_run_ms = %.3f ms (minor %.0f words)"
            k.name (med (fun s -> s.ms) l) (med (fun s -> s.minor) l) (med (fun s -> s.major) l)
            (med (fun s -> s.ms) lv) (med (fun s -> s.minor) lv))
        engine_rows vm_rows
    in
    let sum f rows = List.fold_left (fun acc (_, l) -> acc +. med f l) 0.0 rows in
    Workload.traced ~attempted:!attempted ~failures:(List.rev !failures) ~untraced ~traced
      ~extra:
        [
          ("compiled.artifact_kb", float_of_int !artifact_bytes /. 1024.0, "KiB");
          ("runtime.minor_words", sum (fun s -> s.minor) interp_rows, "words");
          ("runtime.major_words", sum (fun s -> s.major) interp_rows, "words");
          ("typed.speedup", variant_speedup engine_rows, "x");
          ("contracts.crossing_ms", crossing, "ms");
          ("backend.vm_run_ms", sum (fun s -> s.ms) vm_rows, "ms");
          ("backend.vm_over_interp", vm_over_interp, "x");
          ("backend.vm_minor_words", sum (fun s -> s.minor) vm_rows, "words");
        ]
      ~rows
  end
