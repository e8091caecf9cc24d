(** The 0CFA flow analysis (lib/analysis): qcheck soundness properties —
    the abstract facts must over-approximate what the concrete
    interpreter actually does — plus pinned parity cases asserting the
    fact-driven rewrites never change observable behavior under either
    engine. *)

open Liblang_core.Core
open Test_util
module Pipeline = Liblang_core.Pipeline
module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* Expand an (untyped) module and run the analysis over its core forms —
   the programmatic twin of [liblang analyze].  Untyped so the optimizer
   has not rewritten anything: the facts describe the program as
   written. *)
let analyze_src (src : string) : Facts.t =
  let forms = Modsys.expand_source ~name:(fresh "analysis-prop") src in
  Zcfa.analyze_module forms

(* Run [src] with the flow analysis toggled off (the optimizer still
   runs, so this isolates exactly the fact-driven rewrites). *)
let run_nocfa (src : string) : string =
  let saved = !Zcfa.enabled in
  Zcfa.enabled := false;
  Fun.protect ~finally:(fun () -> Zcfa.enabled := saved) (fun () -> run src)

let run_vm (src : string) : string = Pipeline.with_engine Pipeline.Vm (fun () -> run src)

let run_vm_nocfa (src : string) : string =
  Pipeline.with_engine Pipeline.Vm (fun () -> run_nocfa src)

(* -- soundness: monomorphic call facts ----------------------------------------

   Generated chain programs where the generator knows the ground truth:
   every worker is called by name exactly once, so every call site is
   concretely monomorphic and the abstract facts must agree — and the
   typed twin, whose call sites the optimizer rewrites to direct calls
   on the strength of those facts, must print the same closed-form
   answer as the untyped original under both engines, analyzed or
   not. *)

let gen_chain = Q.Gen.(pair (int_range 1 4) (list_size (return 4) (int_range (-9) 9)))

let chain_soundness =
  Q.Test.make ~name:"0cfa: chain programs are all-monomorphic and parity holds" ~count:25
    (Q.make
       ~print:(fun (k, cs) ->
         Printf.sprintf "k=%d cs=%s" k (String.concat "," (List.map string_of_int cs)))
       gen_chain)
    (fun (k, cs) ->
      let cs = List.filteri (fun i _ -> i < k) cs in
      let defs ann =
        String.concat "\n"
          (List.mapi
             (fun i c ->
               if ann then
                 Printf.sprintf "(define (f%d [x : Integer]) : Integer (+ x %d))" i c
               else Printf.sprintf "(define (f%d x) (+ x %d))" i c)
             cs)
      in
      let call =
        List.fold_left (fun acc i -> Printf.sprintf "(f%d %s)" i acc) "100"
          (List.init k (fun i -> i))
      in
      let untyped = Printf.sprintf "#lang racket\n%s\n(display %s)\n" (defs false) call in
      let typed =
        Printf.sprintf "#lang typed/racket\n%s\n(display %s)\n" (defs true) call
      in
      let expected = string_of_int (List.fold_left ( + ) 100 cs) in
      let facts = analyze_src untyped in
      (* abstract = concrete here: every site has exactly one callee *)
      facts.Facts.call_sites = k
      && Facts.NodeTbl.length facts.Facts.direct = k
      && run untyped = expected
      && run typed = expected
      && run_nocfa typed = expected
      && run_vm typed = expected
      && run_vm_nocfa typed = expected)

(* -- soundness: in-bounds proofs ----------------------------------------------

   A literal index against a vector of generated length: the analysis
   may prove the access in-bounds exactly when the concrete semantics
   can never trap — [i < len] — and must refuse the proof whenever the
   concrete run would raise.  (Here the rule is complete too, so the
   iff is pinned, not just the sound direction.) *)

let inbounds_soundness =
  Q.Test.make ~name:"0cfa: in-bounds proof iff the concrete index cannot trap" ~count:40
    (Q.pair (Q.int_range 1 6) (Q.int_range 0 8))
    (fun (len, i) ->
      let src =
        Printf.sprintf "#lang racket\n(define v (make-vector %d 7))\n(display (vector-ref v %d))\n"
          len i
      in
      let facts = analyze_src src in
      let proved = Facts.NodeTbl.length facts.Facts.ref_inbounds in
      if i < len then proved = 1 && run src = "7"
      else
        proved = 0
        && (match run src with
           | exception Value.Scheme_error _ -> true
           | _ -> false))

(* -- soundness: polymorphic merge points -------------------------------------- *)

(* A function value that flows from both branches of an opaque
   conditional: the abstract callee set at the call site has two
   elements, so the site must NOT be claimed monomorphic — a direct
   fact here would be exactly the unsoundness the property hunts. *)
let polymorphic_not_direct () =
  let src =
    "#lang racket\n\
     (define (f0 x) 1)\n\
     (define (f1 x) 2)\n\
     (define h (if (zero? (string-length \"a\")) f0 f1))\n\
     (display (h 5))\n"
  in
  let facts = analyze_src src in
  Alcotest.(check int)
    "no direct fact at the two-callee merge point" 0
    (Facts.NodeTbl.length facts.Facts.direct);
  Alcotest.(check string) "concrete run picks one branch" "2" (run src)

(* A provided lambda reaches code the analysis cannot see, so it must be
   flagged escaping and never unboxable, even with a single local call
   site.  (A closure stored into a tracked vector does NOT escape — the
   element flow stays visible — which is exactly the precision the
   escape bit exists to preserve.) *)
let escaping_not_unboxable () =
  let src =
    "#lang racket\n\
     (provide esc)\n\
     (define esc (lambda (x) (* x x)))\n\
     (display (esc 6))\n"
  in
  let facts = analyze_src src in
  Alcotest.(check bool) "provided lambda escapes" true (facts.Facts.escaping > 0);
  Alcotest.(check int) "not unboxable" 0 (Facts.NodeTbl.length facts.Facts.unboxable);
  Alcotest.(check string) "still runs" "36" (run src)

(* -- pinned parity: analyzed vs unanalyzed, interp vs vm ----------------------

   The fact-driven rewrites (direct calls, closure unboxing, bound-check
   elision) must be observationally invisible: byte-identical output
   with the analysis on and off, under the tree-walking interpreter and
   the bytecode VM alike. *)

let kernel =
  "#lang typed/racket\n\
   (define (A [i : Integer] [j : Integer]) : Float\n\
  \  (/ 1.0 (exact->inexact (+ (* i 3) (+ j 1)))))\n\
   (define (sweep [n : Integer] [v : (Vectorof Float)]) : Float\n\
  \  (let ([elt (lambda ([k : Integer]) (* (A k k) (vector-ref v k)))])\n\
  \    (let loop : Float ([k : Integer 0] [acc : Float 0.0])\n\
  \      (if (< k n) (loop (+ k 1) (+ acc (elt k))) acc))))\n\
   (define (main) : Float\n\
  \  (let* ([n 12] [v (make-vector n 2.0)])\n\
  \    (let fill : Void ([k : Integer 0])\n\
  \      (when (< k n) (vector-set! v k (exact->inexact (+ k 1))) (fill (+ k 1))))\n\
  \    (sweep n v)))\n\
   (display (main))\n"

let counted_loop =
  "#lang typed/racket\n\
   (define (sum [v : (Vectorof Integer)]) : Integer\n\
  \  (let ([n (vector-length v)])\n\
  \    (let loop : Integer ([j : Integer 0] [acc : Integer 0])\n\
  \      (if (< j n) (loop (+ j 1) (+ acc (vector-ref v j))) acc))))\n\
   (display (sum (make-vector 16 3)))\n"

let t_parity name src =
  Alcotest.test_case name `Quick (fun () ->
      let reference = run_nocfa src in
      Alcotest.(check string) "analyzed interp" reference (run src);
      Alcotest.(check string) "analyzed vm" reference (run_vm src);
      Alcotest.(check string) "unanalyzed vm" reference (run_vm_nocfa src))

(* -- pinned fixpoint: the Figs. 6-9 fact tables --------------------------------

   Every fact [liblang analyze] proves over the 48 figure variants, line
   for line against test/analysis_facts.expected.  The summary line is
   dropped: its sweep and transfer counts measure the solver, not the
   fixpoint.  Each module gets a fixed name so the source locations in
   the fact lines are stable.  On a mismatch the current report is
   written to analysis_facts.actual in the test's build directory
   (_build/default/test/); copy it over the expected file to accept it. *)

let fig_facts_report () =
  List.concat_map
    (fun (p : Programs.t) ->
      List.concat_map
        (fun (variant, lang, body) ->
          let name = Printf.sprintf "facts-%s-%s" p.name variant in
          let header = Printf.sprintf "%s %s" p.name variant in
          match Pipeline.analyze ~name (Printf.sprintf "#lang %s\n%s" lang body) with
          | Ok (_summary :: facts) -> header :: facts
          | Ok [] -> Alcotest.failf "%s: empty report" header
          | Error ds ->
              Alcotest.failf "%s: %s" header
                (String.concat "; " (List.map Diagnostic.to_string ds)))
        [ ("untyped", "racket", p.untyped); ("typed", "typed/racket", p.typed) ])
    (List.filter (fun (p : Programs.t) -> String.starts_with ~prefix:"fig" p.figure) Programs.all)

let fig_facts_pinned () =
  let actual = String.concat "\n" (fig_facts_report ()) ^ "\n" in
  let expected = In_channel.with_open_bin "analysis_facts.expected" In_channel.input_all in
  if actual <> expected then
    Out_channel.with_open_bin "analysis_facts.actual" (fun oc -> output_string oc actual);
  Alcotest.(check string) "fact lines match test/analysis_facts.expected" expected actual

(* -- the expected-rewrite gate --------------------------------------------------

   The 0CFA-fed rewrite classes must fire on the typed variant of the
   kernels below (a silently inert analysis cannot pass), and must all
   stay at zero with the analysis off on every figure program (facts
   leaking past the ablation switch cannot pass either). *)

(** Every rewrite rule fed by the 0CFA facts table (as opposed to the
    type-driven rules like [fl:+] or [vec:ref]). *)
let cfa_rules = [ "opt:direct-call"; "opt:closure-unbox"; "vec:ref!"; "vec:set!" ]

(** Per-benchmark floors: rules that must fire at least once on the
    typed variant.  spectralnorm's [mulAv] keeps its matrix-element
    accessor as a single-call-site [let]-bound lambda precisely so
    closure unboxing has a benchmarked target. *)
let expected_rewrites =
  [
    ("spectralnorm", [ "opt:direct-call"; "opt:closure-unbox"; "vec:ref!"; "vec:set!" ]);
    ("nbody", [ "opt:direct-call" ]);
  ]

(* The optimizer's per-rule rewrite counts for [p]'s typed variant. *)
let typed_rewrites (p : Programs.t) : string -> int =
  Optimize.reset_stats ();
  ignore (Modsys.declare ~name:(fresh p.name) ("#lang typed/racket\n" ^ p.typed));
  let stats = Optimize.stats_alist () in
  fun rule -> Option.value ~default:0 (List.assoc_opt rule stats)

let expected_rewrites_fire () =
  List.iter
    (fun (name, rules) ->
      let count = typed_rewrites (Programs.find name) in
      List.iter
        (fun rule ->
          if count rule = 0 then
            Alcotest.failf "%s: expected rewrite %s did not fire on typed" name rule)
        rules)
    expected_rewrites

let cfa_rules_silent_without_facts () =
  with_ref Zcfa.enabled false @@ fun () ->
  List.iter
    (fun (p : Programs.t) ->
      let count = typed_rewrites p in
      List.iter
        (fun rule ->
          if count rule > 0 then
            Alcotest.failf "%s: 0CFA-fed rewrite %s fired %d times with the analysis off"
              p.name rule (count rule))
        cfa_rules)
    (List.filter (fun (p : Programs.t) -> String.starts_with ~prefix:"fig" p.figure) Programs.all)

let suite =
  [
    Alcotest.test_case "0cfa: Figs. 6-9 fact tables match the pinned fixpoint" `Quick
      fig_facts_pinned;
    to_alcotest chain_soundness;
    to_alcotest inbounds_soundness;
    Alcotest.test_case "0cfa: polymorphic merge point is not direct" `Quick
      polymorphic_not_direct;
    Alcotest.test_case "0cfa: escaping lambda is not unboxable" `Quick
      escaping_not_unboxable;
    t_parity "parity: unboxed-closure float kernel" kernel;
    t_parity "parity: counted loop with elided bound checks" counted_loop;
    Alcotest.test_case "rewrite gate: 0CFA rules fire on the vector kernels" `Quick
      expected_rewrites_fire;
    Alcotest.test_case "rewrite gate: 0CFA rules stay silent with the analysis off" `Quick
      cfa_rules_silent_without_facts;
  ]
