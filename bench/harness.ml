(** Benchmark harness: reproduces the shape of the paper's figures 6–9.

    Each benchmark program is compiled once per (variant) and then its module
    body is re-instantiated repeatedly under a monotonic wall clock, after a
    warmup run — the moral equivalent of the paper's 20-run averages.
    Checksums (the program's printed output) are compared across every
    variant so a mis-optimization cannot masquerade as a speedup. *)

module Core = Liblang_core.Core
module Modsys = Core.Modsys
module Interp = Core.Interp
module Naive = Core.Naive
module Optimize = Core.Optimize
module Zcfa = Core.Zcfa
module Prims = Core.Prims

type variant =
  | Naive_backend  (** AST-walking evaluator: the "other compiler" series *)
  | Base  (** untyped, closure-compiling evaluator *)
  | Typed  (** typed, optimizer + unboxing backend *)
  | Typed_O0  (** typed, optimizer disabled (ablation) *)
  | Typed_no_unbox  (** typed, rewrites on, backend unboxing off (ablation) *)
  | Typed_no_cfa  (** typed, optimizer on but 0CFA facts off (flow-analysis ablation) *)

let variant_name = function
  | Naive_backend -> "naive"
  | Base -> "untyped"
  | Typed -> "typed"
  | Typed_O0 -> "typed-O0"
  | Typed_no_unbox -> "typed-noubx"
  | Typed_no_cfa -> "typed-nocfa"

let is_typed = function
  | Typed | Typed_O0 | Typed_no_unbox | Typed_no_cfa -> true
  | _ -> false

type result = { mean_ms : float; checksum : string }

let now () = Unix.gettimeofday ()

(** Compile one variant of a benchmark under its optimizer settings. *)
let declare_variant (b : Programs.t) (v : variant) : Modsys.t =
  let lang, body = if is_typed v then ("typed/racket", b.Programs.typed) else ("racket", b.Programs.untyped) in
  let source = "#lang " ^ lang ^ "\n" ^ body in
  let name = Printf.sprintf "%s/%s" b.Programs.name (variant_name v) in
  let saved = !Optimize.enabled in
  let saved_cfa = !Zcfa.enabled in
  Optimize.enabled := (v <> Typed_O0);
  Zcfa.enabled := (v <> Typed_no_cfa);
  Fun.protect
    ~finally:(fun () ->
      Optimize.enabled := saved;
      Zcfa.enabled := saved_cfa)
    (fun () -> Modsys.declare ~name source)

(* Run the module body once, under the variant's evaluation regime, and
   return (checksum, elapsed seconds). *)
let run_once (m : Modsys.t) (v : variant) : string * float =
  let saved_eval = !Modsys.evaluator in
  let saved_unbox = !Interp.unboxing_enabled in
  (match v with
  | Naive_backend -> Modsys.evaluator := Naive.eval_top
  | _ -> Modsys.evaluator := Interp.eval_top);
  (match v with
  | Typed_no_unbox -> Interp.unboxing_enabled := false
  | _ -> Interp.unboxing_enabled := true);
  Fun.protect
    ~finally:(fun () ->
      Modsys.evaluator := saved_eval;
      Interp.unboxing_enabled := saved_unbox)
    (fun () ->
      m.Modsys.instantiated <- false;
      Prims.with_captured_output (fun () ->
          let t0 = now () in
          Modsys.instantiate m;
          now () -. t0))

(** Measure one benchmark under several variants at once: warmup each,
    then alternate single runs round-robin (so machine noise affects all
    variants alike) and report the median — the moral equivalent of the
    paper's 20-run averages. *)
let measure_variants ?(rounds = 9) (b : Programs.t) (variants : variant list)
    : (variant * result) list =
  let ms = List.map (fun v -> (v, declare_variant b v)) variants in
  let firsts = List.map (fun (v, m) -> (v, fst (run_once m v))) ms in
  let samples = List.map (fun v -> (v, ref [])) variants in
  for _ = 1 to rounds do
    List.iter
      (fun (v, m) ->
        let l = List.assoc v samples in
        l := snd (run_once m v) :: !l)
      ms
  done;
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  List.map
    (fun v ->
      (v, { mean_ms = 1000.0 *. median !(List.assoc v samples); checksum = List.assoc v firsts }))
    variants

(* -- reporting --------------------------------------------------------------- *)

let line = String.make 78 '-'

(** Checksum mismatches observed across every figure run so far; the
    driver exits nonzero when this is nonempty (a divergent variant is a
    correctness failure, not a perf artifact). *)
let checksum_mismatches : (string * variant) list ref = ref []

let check_agreement name (results : (variant * result) list) =
  match results with
  | [] -> ()
  | (_, r0) :: rest ->
      List.iter
        (fun (v, r) ->
          if not (String.equal r.checksum r0.checksum) then begin
            checksum_mismatches := (name, v) :: !checksum_mismatches;
            Printf.printf "!! %s: checksum mismatch under %s: %s vs %s\n" name (variant_name v)
              r.checksum r0.checksum
          end)
        rest

(** Run every benchmark of [figure] under [variants]; print a table of
    runtimes normalized to the [Base] series (smaller is better, as in the
    paper's figures). *)
let run_figure ?rounds ~title ~figure ~(variants : variant list) () : unit =
  Printf.printf "\n%s\n%s (normalized to untyped = 1.00; smaller is better)\n%s\n" line title line;
  Printf.printf "%-14s %-10s" "benchmark" "suite";
  List.iter (fun v -> Printf.printf "%14s" (variant_name v)) variants;
  Printf.printf "%14s\n" "untyped(ms)";
  List.iter
    (fun (b : Programs.t) ->
      let results = measure_variants ?rounds b variants in
      check_agreement b.Programs.name results;
      let base_ms =
        match List.assoc_opt Base results with
        | Some r -> r.mean_ms
        | None -> (snd (List.hd results)).mean_ms
      in
      Printf.printf "%-14s %-10s" b.Programs.name b.Programs.suite;
      List.iter
        (fun v ->
          let r = List.assoc v results in
          Printf.printf "%14.2f" (r.mean_ms /. base_ms))
        variants;
      Printf.printf "%14.1f\n" base_ms;
      flush stdout)
    (Programs.by_figure figure)
