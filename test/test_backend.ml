(** The bytecode backend (lib/backend/): engine parity against the
    closure-tree interpreter, the IL's encode/decode round-trip, and the
    VM's observability counters.

    Parity is the backend's prime directive (docs/backend.md): the
    cases here pin the quirks the lowerer reproduces on purpose —
    evaluation order, fuel accounting, binding errors — on top of the
    whole-corpus differential gate in tools/crashcheck. *)

open Liblang_core.Core
open Test_util
module Pipeline = Liblang_core.Pipeline
module Il = Liblang_backend.Il

let run_vm (src : string) : string =
  Pipeline.with_engine Pipeline.Vm (fun () -> run src)

(** Run [src] under both engines and assert byte-identical output. *)
let t_par name src =
  Alcotest.test_case name `Quick (fun () ->
      let interp = run src in
      let vm = run_vm src in
      check_s name interp vm)

let parity =
  [
    t_par "float loop (register lane)"
      "#lang typed/racket\n\
       (: run (Float -> Float))\n\
       (define (run n)\n\
      \  (let loop : Float ([i : Float 0.0] [s : Float 0.0])\n\
      \    (if (< i n) (loop (+ i 1.0) (+ s i)) s)))\n\
       (display (run 1000.0))\n";
    t_par "int loop counter keeps exactness"
      "#lang typed/racket\n\
       (: count (Integer -> Integer))\n\
       (define (count n)\n\
      \  (let loop : Integer ([i : Integer 0])\n\
      \    (if (< i n) (loop (+ i 1)) i)))\n\
       (display (count 10))\n";
    t_par "one-arg application: argument effect before callee effect"
      "#lang racket\n\
       (define (pick) (display \"c\") (lambda (x) x))\n\
       (display ((pick) (begin (display \"a\") 7)))\n";
    t_par "multi-arg application: callee first, args left to right"
      "#lang racket\n\
       (define (f a b) (+ a b))\n\
       (display ((begin (display \"c\") f)\n\
      \          (begin (display \"1\") 1)\n\
      \          (begin (display \"2\") 2)))\n";
    t_par "closure capture over loop-coalesced locals"
      "#lang racket\n\
       (define (adders)\n\
      \  (let ([a (let ([x 1]) (lambda (y) (+ x y)))]\n\
      \        [b (let ([x 10]) (lambda (y) (+ x y)))])\n\
      \    (+ (a 100) (b 100))))\n\
       (display (adders))\n";
    t_par "letrec forward reference through a closure"
      "#lang racket\n\
       (define (go) (letrec ([x (lambda () y)] [y 2]) (x)))\n\
       (display (go))\n";
    t_par "named let over generic (non-register) values"
      "#lang racket\n\
       (display (let loop ([l '(1 2 3)] [acc '()])\n\
      \  (if (null? l) acc (loop (cdr l) (cons (car l) acc)))))\n";
  ]

(* Fuel parity: both engines must exhaust the same budget at the same
   observable point — the diagnostics must render identically. *)
let fuel_exhaustion_point () =
  let src = "#lang racket\n(define (f) (f))\n(f)\n" in
  let under engine =
    Modsys.reset_user_modules_for_tests ();
    let out, r =
      Prims.with_captured_output (fun () ->
          Pipeline.run ~fuel:5_000 ~engine ~name:"fuelpar" src)
    in
    let ds =
      match r with
      | Ok _ -> []
      | Error ds -> List.map Pipeline.Diagnostic.to_string ds
    in
    (out, String.concat "\n" ds)
  in
  let oi, di = under Pipeline.Interp in
  let ov, dv = under Pipeline.Vm in
  check_s "fuel: output identical" oi ov;
  check_s "fuel: diagnostics identical" di dv;
  check_b "fuel: the budget actually ran out" true (contains di "fuel")

(* The vm.* and lower.* counters: a float loop under the VM must
   actually retire bytecode, not silently fall back to the tree walker
   (fallback is observably identical by design -- docs/backend.md). *)
let vm_counters () =
  Modsys.reset_user_modules_for_tests ();
  let c = Metrics.create () in
  let src =
    "#lang typed/racket\n\
     (: run (Float -> Float))\n\
     (define (run n)\n\
    \  (let loop : Float ([i : Float 0.0] [s : Float 0.0])\n\
    \    (if (< i n) (loop (+ i 1.0) (+ s i)) s)))\n\
     (display (run 1000.0))\n"
  in
  let expected = run src in
  let out, r =
    Prims.with_captured_output (fun () ->
        Pipeline.run ~engine:Pipeline.Vm
          ~observe:{ Observe.metrics = Some c; trace = None }
          ~name:"vmcounters" src)
  in
  (match r with
  | Ok _ -> ()
  | Error ds ->
      Alcotest.failf "vm run failed: %s"
        (String.concat "; " (List.map Pipeline.Diagnostic.to_string ds)));
  check_s "vm: same answer as the interpreter" expected out;
  check_b "vm.instructions > 0" true (Metrics.get c "vm.instructions" > 0);
  check_b "lower.protos > 0" true (Metrics.get c "lower.protos" > 0);
  check_b "lower.instructions > 0" true (Metrics.get c "lower.instructions" > 0)

(* -- allocation budgets ------------------------------------------------------

   Per-run minor-word budgets for the typed float kernels under the
   bytecode VM, read with [Gc.minor_words] (which counts the current
   minor heap; [Gc.quick_stat] only sees words up to the last minor
   collection, so any run allocating less than one minor heap reads as
   0 there).  sumfp and mbrot run their inner loops entirely on the float
   registers, vs ~12.6M (sumfp) / ~4.5M (mbrot) words for the unboxing
   interpreter -- the budget only needs to be far below the boxed
   figure.  sumfp measures ~1.8k words.  mbrot measures ~132k: its 2304
   calls to [iterations] each pay the VM's per-call frame and register
   arrays (~57 words); the inner loop itself allocates nothing, and a
   loop falling back to boxed floats costs millions of words.  heapsort's
   sift loops are register-resident too, but its residue is structural:
   ~30k generic sift-down! activations plus fill-random!'s per-slot
   boxing put the measured floor at ~7.1M words (vs ~23.6M interp); the
   10M budget still fails if the loops fall back to boxed locals. *)
let vm_alloc_budgets =
  [
    ("sumfp", 50_000.0);
    ("mbrot", 200_000.0);
    ("heapsort", 10_000_000.0);
    (* the 0CFA vector kernels: direct calls + closure unboxing +
       bound-check elision put typed/vm at ~3.2M (nbody) / ~4.6M
       (spectralnorm) minor words, vs ~7.1M / ~5.5M for typed-nocfa --
       the budgets sit between the two, so losing the flow-driven wins
       trips the gate *)
    ("nbody", 5_000_000.0);
    ("spectralnorm", 5_000_000.0);
  ]

(* Minor words of one VM instantiation of [name]'s typed variant, after
   one warm-up run. *)
let vm_minor_words (name : string) : float =
  let b = Programs.find name in
  let m = Modsys.declare ~name:(fresh name) ("#lang typed/racket\n" ^ b.Programs.typed) in
  let run () =
    m.Modsys.instantiated <- false;
    ignore (Prims.with_captured_output (fun () -> Modsys.instantiate m))
  in
  Pipeline.with_engine Pipeline.Vm (fun () ->
      run ();
      let w0 = Gc.minor_words () in
      run ();
      Gc.minor_words () -. w0)

let alloc_budgets =
  List.map
    (fun (name, budget) ->
      Alcotest.test_case ("allocation budget: typed/vm " ^ name) `Slow (fun () ->
          let words = vm_minor_words name in
          if words > budget then
            Alcotest.failf "%s: typed/vm allocated %.0f minor words, budget %.0f" name words
              budget))
    vm_alloc_budgets

(* -- the IL's flat-int serialization ------------------------------------- *)

let every_instr : Il.instr array =
  [|
    Il.Const 3; Il.Pop; Il.Lref (0, 2); Il.Lset (1, 4); Il.Gref 0; Il.Gset 1;
    Il.Jump 9; Il.Jfalse 10; Il.JcmpGen (0, 11); Il.MkClosure 1; Il.Call 2;
    Il.TailCall 3; Il.Fast1 0; Il.Fast2 1; Il.Step; Il.StepJump 4; Il.Return;
    Il.BindE (0, 5, Il.bind_short); Il.BindEV (0, 6, 2); Il.ClearE (0, 7);
    Il.FlConst (0, 1); Il.FlLoad (1, 0, 2); Il.FlPop 0; Il.FlPush 1;
    Il.FlBin (Il.FAdd, 0, 1, 2); Il.FlUn (Il.FSqrt, 0, 1);
    Il.FlCmp (Il.Clt, 0, 1); Il.FlJcmp (Il.Cge, 0, 1, 12); Il.FlMov (0, 1);
    Il.FlOfI (0, 1); Il.FxConst (0, 42); Il.FxPush 0;
    Il.FxBin (Il.XAdd, 0, 1, 2); Il.FxCmp (Il.Ceq, 0, 1);
    Il.FxJcmp (Il.Cgt, 0, 1, 13); Il.FxMov (0, 1); Il.FxToFl 0;
  |]

let il_round_trip () =
  let decoded = Il.decode_code (Il.encode_code every_instr) in
  check_b "every opcode round-trips" true (decoded = every_instr)

let il_bad_opcode () =
  match Il.decode_code [ 99; 0 ] with
  | _ -> Alcotest.fail "bad opcode must not decode"
  | exception Il.Decode_error _ -> ()

let il_truncated_stream () =
  (* an operand-hungry opcode cut short must fail cleanly, not read junk *)
  match Il.decode_code [ 26; 0; 1 ] with
  | _ -> Alcotest.fail "truncated stream must not decode"
  | exception Il.Decode_error _ -> ()

let t name f = Alcotest.test_case name `Quick f

let suite =
  parity
  @ [
      t "fuel: same exhaustion point under both engines" fuel_exhaustion_point;
      t "metrics: vm.* and lower.* counters" vm_counters;
      t "il: every opcode round-trips through the int stream" il_round_trip;
      t "il: unknown opcode is a decode error" il_bad_opcode;
      t "il: truncated stream is a decode error" il_truncated_stream;
    ]
  @ alloc_budgets
