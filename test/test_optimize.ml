(** Optimizer tests (paper §7, fig. 5): the right rewrites fire, wrong ones
    don't, and — most importantly — optimization never changes observable
    behaviour (typed and untyped twins print the same). *)

open Liblang_core.Core
open Test_util
module Pipeline = Liblang_core.Pipeline

(* Count rewrites triggered by compiling one typed module. *)
let rewrites_of body =
  Optimize.reset_stats ();
  declare ~name:(fresh "opt-probe") ("#lang typed/racket\n" ^ body);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Optimize.stats ()) []

let expect_stat name body key count =
  Alcotest.test_case name `Quick (fun () ->
      let stats = rewrites_of body in
      let got = Option.value (List.assoc_opt key stats) ~default:0 in
      check_i (name ^ " [" ^ key ^ "]") count got)

let expect_no_rewrites name body =
  Alcotest.test_case name `Quick (fun () ->
      let stats = rewrites_of body in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 stats in
      if total <> 0 then
        Alcotest.failf "%s: expected no rewrites, got %s" name
          (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) stats)))

let firing =
  [
    expect_stat "float + rewrites" "(define (f [x : Float]) : Float (+ x 1.0))" "fl:+" 1;
    expect_stat "float * rewrites" "(define (f [x : Float]) : Float (* x x))" "fl:*" 1;
    expect_stat "n-ary + folds into binary rewrites"
      "(define (f [x : Float]) : Float (+ x x x))" "fl:+" 1;
    expect_stat "float comparison" "(define (f [x : Float]) : Boolean (< x 1.0))" "fl:<" 1;
    expect_stat "sqrt specializes" "(define (f [x : Float]) : Float (sqrt x))" "fl:sqrt" 1;
    expect_stat "sin specializes" "(define (f [x : Float]) : Float (sin x))" "fl:sin" 1;
    expect_stat "unary minus" "(define (f [x : Float]) : Float (- x))" "fl:-" 1;
    expect_stat "add1 on float" "(define (f [x : Float]) : Float (add1 x))" "fl:add1" 1;
    expect_stat "exact->inexact on Integer" "(define (f [n : Integer]) : Float (exact->inexact n))"
      "fl:fx->fl" 1;
    expect_stat "complex multiply (the paper's count example)"
      "(define (f [z : Float-Complex]) : Float-Complex (* z z))" "cpx:*" 1;
    expect_stat "complex divide"
      "(define (f [z : Float-Complex]) : Float-Complex (/ z 2.0+2.0i))" "cpx:/" 1;
    expect_stat "magnitude of complex"
      "(define (f [z : Float-Complex]) : Float (magnitude z))" "cpx:magnitude" 1;
    expect_stat "make-rectangular from floats"
      "(define (f [x : Float]) : Float-Complex (make-rectangular x x))" "cpx:make-rectangular" 1;
    expect_stat "first on a fixed-shape list (§3.2)"
      "(define p : (List Integer Integer Integer) (list 1 2 3))\n(define (f) : Integer (first p))"
      "pair:car" 1;
    expect_stat "car on a Pairof" "(define (f [p : (Pairof Integer Integer)]) : Integer (car p))"
      "pair:car" 1;
    expect_stat "vector-ref on known vector"
      "(define (f [v : (Vectorof Float)] [i : Integer]) : Float (vector-ref v i))" "vec:ref" 1;
    expect_stat "vector-set! on known vector"
      "(define (f [v : (Vectorof Float)] [i : Integer]) : Void (vector-set! v i 0.0))" "vec:set" 1;
    expect_stat "floats through let bindings"
      "(define (f [x : Float]) : Float (let ([y (* x 2.0)]) (+ y 1.0)))" "fl:+" 1;
  ]

let not_firing =
  [
    expect_no_rewrites "integers are not specialized"
      "(define (f [x : Integer]) : Integer (+ x 1))";
    expect_no_rewrites "Real is not enough for float ops"
      "(define (f [x : Real]) : Real (+ x 1.0))";
    expect_no_rewrites "mixed int/float stays generic"
      "(define (f [x : Float] [n : Integer]) : Float (* x n))";
    expect_no_rewrites "Any never triggers (dynamic type)"
      "(define (f [x : Any] [y : Any]) : Any (+ x y))";
    expect_no_rewrites "car on Listof keeps its check (may be empty)"
      "(define (f [l : (Listof Integer)]) : Integer (car l))";
    expect_no_rewrites "vector-ref with Any index stays safe"
      "(define (f [v : (Vectorof Float)] [i : Any]) : Float (vector-ref v i))";
    (* the shadowing definition is itself a legitimate monomorphic callee,
       so the flow analysis MAY mark the call direct — what must not fire
       is the float specialization of racket's + *)
    expect_stat "shadowed + is not racket's +"
      "(define (+ [a : Float] [b : Float]) : Float 0.0)\n(define (f [x : Float]) : Float (+ x x))"
      "fl:+" 0;
    Alcotest.test_case "optimizer disabled (O0)" `Quick (fun () ->
        Optimize.enabled := false;
        Fun.protect
          ~finally:(fun () -> Optimize.enabled := true)
          (fun () ->
            Optimize.reset_stats ();
            declare ~name:(fresh "opt-off")
              "#lang typed/racket\n(define (f [x : Float]) : Float (+ x 1.0))";
            check_i "no rewrites" 0 (Optimize.total_rewrites ())));
  ]

(* Semantic preservation: typed (optimized) and untyped twins agree. *)
let preservation =
  [
    t_agree "float kernel"
      ~untyped:
        "(define (f x) (- (* 1.1 x) (/ (sqrt x) (+ x 0.5))))\n(display (f 2.0))(display \" \")(display (f 9.0))"
      ~typed:
        "(define (f [x : Float]) : Float (- (* 1.1 x) (/ (sqrt x) (+ x 0.5))))\n(display (f 2.0))(display \" \")(display (f 9.0))";
    t_agree "float loop"
      ~untyped:
        "(display (let loop ([i 0] [acc 0.0]) (if (= i 100) acc (loop (+ i 1) (+ acc (* 0.5 (exact->inexact i)))))))"
      ~typed:
        "(display (let loop : Float ([i : Integer 0] [acc : Float 0.0]) (if (= i 100) acc (loop (+ i 1) (+ acc (* 0.5 (exact->inexact i)))))))";
    t_agree "complex iteration (paper §3.2 count)"
      ~untyped:
        "(define (count f) (let loop ([f f] [n 0]) (if (< (magnitude f) 0.001) n (loop (/ f 2.0+2.0i) (+ n 1)))))\n(display (count 1.0+1.0i))"
      ~typed:
        "(define (count [f : Float-Complex]) : Integer (let loop : Integer ([f : Float-Complex f] [n : Integer 0]) (if (< (magnitude f) 0.001) n (loop (/ f 2.0+2.0i) (+ n 1)))))\n(display (count 1.0+1.0i))";
    t_agree "vector sums"
      ~untyped:
        "(define v (build-vector 10 (lambda (i) (exact->inexact i))))\n(display (let loop ([i 0] [s 0.0]) (if (= i 10) s (loop (+ i 1) (+ s (vector-ref v i))))))"
      ~typed:
        "(define v : (Vectorof Float) (build-vector 10 (lambda ([i : Integer]) (exact->inexact i))))\n(display (let loop : Float ([i : Integer 0] [s : Float 0.0]) (if (= i 10) s (loop (+ i 1) (+ s (vector-ref v i))))))";
    t_agree "list car/cdr specialization"
      ~untyped:"(define p (list 1 2 3))\n(display (+ (first p) (second p)))"
      ~typed:
        "(define p : (List Integer Integer Integer) (list 1 2 3))\n(display (+ (first p) (second p)))";
    t_agree "min/max/abs/floor on floats"
      ~untyped:"(display (list (min 1.5 2.5) (max 1.5 2.5) (abs -1.5) (floor 1.7) (ceiling 1.2)))"
      ~typed:
        "(define (go [a : Float] [b : Float]) (list (min a b) (max a b) (abs (- a)) (floor (+ a 0.2)) (ceiling (- b 1.3))))\n(display (go 1.5 2.5))";
    t_agree "float special values"
      ~untyped:"(display (list (/ 1.0 0.0) (/ -1.0 0.0) (sqrt (* 1.0 4.0))))"
      ~typed:
        "(define (f [z : Float]) (list (/ 1.0 z) (/ -1.0 z) (sqrt (* 1.0 4.0))))\n(display (f 0.0))";
  ]

(* Every benchmark program prints the same checksum under every way of
   running it: the naive AST walker on the untyped source (the reference
   semantics), the interpreter on untyped, typed, and typed with the 0CFA
   facts off, and the bytecode VM on untyped and typed.  A
   mis-optimization or a divergent engine cannot masquerade as a speedup. *)
let run_vm src = Pipeline.with_engine Pipeline.Vm (fun () -> run src)

let benchmarks_agree =
  List.map
    (fun (b : Programs.t) ->
      Alcotest.test_case ("benchmark agrees: " ^ b.Programs.name) `Slow (fun () ->
          let untyped = "#lang racket\n" ^ b.Programs.untyped in
          let typed = "#lang typed/racket\n" ^ b.Programs.typed in
          let reference = with_ref Modsys.evaluator Naive.eval_top (fun () -> run untyped) in
          let variants =
            [
              ("untyped", fun () -> run untyped);
              ("typed", fun () -> run typed);
              ("untyped/vm", fun () -> run_vm untyped);
            ]
            (* the expansion stress family's typed twin is its unannotated
               untyped body, so its flow facts and VM lowering are the
               untyped ones: only the fig programs pay for the typed
               ablation and typed VM runs *)
            @
            if not (String.starts_with ~prefix:"fig" b.Programs.figure) then []
            else
              [
                ("typed-nocfa", fun () -> with_ref Zcfa.enabled false (fun () -> run typed));
                ("typed/vm", fun () -> run_vm typed);
              ]
          in
          List.iter
            (fun (variant, out) -> check_s (b.Programs.name ^ " " ^ variant) reference (out ()))
            variants))
    Programs.all

let suite = firing @ not_firing @ preservation @ benchmarks_agree
