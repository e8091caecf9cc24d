(** Tests for the observability subsystem (lib/observe/): exact metric
    counters on known programs, JSON round-trips, trace output shape, and
    the zero-cost-when-off guarantee on the interpreter's hot path. *)

open Test_util
module Pipeline = Liblang_core.Pipeline
module Observe = Liblang_observe.Observe
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module Json = Liblang_observe.Json

(** Run [src] as a #lang program under a fresh metrics collector; return
    the collector.  Fails the test if the program itself fails. *)
let metrics_of ?name src : Metrics.t =
  let c = Metrics.create () in
  let name = match name with Some n -> n | None -> fresh "observe" in
  (match
     Pipeline.run ~name ~observe:{ Observe.metrics = Some c; trace = None } src
   with
  | Ok _ -> ()
  | Error ds ->
      Alcotest.failf "program failed: %s"
        (String.concat "; " (List.map Liblang_core.Core.Diagnostic.to_string ds)));
  c

(* total JSON accessors (Json.member/to_num/to_str are optional) *)
let mem key j =
  match Json.member key j with Some v -> v | None -> Alcotest.failf "missing JSON key %S" key

let num j = match Json.to_num j with Some f -> f | None -> Alcotest.fail "expected JSON number"
let str j = match Json.to_str j with Some s -> s | None -> Alcotest.fail "expected JSON string"

(* -- exact counters on known programs ---------------------------------------- *)

(* A macro used exactly 3 times expands exactly 3 times (plus whatever
   recursive uses the expansion itself introduces: none here). *)
let macro_counts_exact () =
  let c =
    metrics_of
      "#lang racket\n\
       (define-syntax-rule (twice e) (begin e e))\n\
       (twice (void))\n\
       (twice (void))\n\
       (twice (void))\n"
  in
  check_i "expand.macro.twice" 3 (Metrics.get c "expand.macro.twice")

(* A recursive macro: (rep n e) unfolds n+1 times (n recursive steps plus
   the base case). *)
let recursive_macro_counts () =
  let c =
    metrics_of
      "#lang racket\n\
       (define-syntax rep\n\
      \  (syntax-rules ()\n\
      \    [(_ 0 e) (void)]\n\
      \    [(_ n e) (begin e (rep 0 e))]))\n\
       (rep 5 (void))\n"
  in
  (* (rep 5 e) -> (begin e (rep 0 e)) -> (void): 2 applications *)
  check_i "expand.macro.rep" 2 (Metrics.get c "expand.macro.rep")

(* Optimizer rewrites are mirrored one-for-one into optimize.<rule>
   counters: one flonum addition in a typed module fires fl:+ exactly
   once. *)
let optimizer_counts_exact () =
  let c =
    metrics_of
      "#lang typed/racket\n\
       (define (f [x : Float]) : Float (+ x 1.0))\n\
       (display (f 1.0))\n"
  in
  check_i "optimize.fl:+" 1 (Metrics.get c "optimize.fl:+")

(* Phase timers exist for every pipeline phase the program exercises. *)
let phase_timers_present () =
  let c =
    metrics_of
      "#lang typed/racket\n(define (f [x : Float]) : Float (+ x 1.0))\n(display (f 1.0))\n"
  in
  List.iter
    (fun phase ->
      let key = "phase." ^ phase in
      if Metrics.get_ms c key <= 0.0 then Alcotest.failf "no time recorded under %s" key)
    [ "read"; "expand"; "typecheck"; "optimize"; "compile"; "instantiate" ]

(* Module-system counters: one compile, one instantiation; re-declaring
   the same module name counts a re-expansion. *)
let module_counters () =
  let name = fresh "observe-mod" in
  let src = "#lang racket\n(display 1)\n" in
  let c1 = metrics_of ~name src in
  check_i "module.compiles" 1 (Metrics.get c1 "module.compiles");
  check_i "module.instantiations" 1 (Metrics.get c1 "module.instantiations");
  check_i "module.reexpansions" 0 (Metrics.get c1 "module.reexpansions");
  (* same name again: a cache-less re-expansion *)
  let c2 = metrics_of ~name src in
  check_i "module.reexpansions" 1 (Metrics.get c2 "module.reexpansions")

(* The interpreter's hot-path counter records runtime applications. *)
let interp_apps_counted () =
  let c = metrics_of "#lang racket\n(define (f x) (if (= x 0) 0 (f (- x 1))))\n(display (f 100))\n" in
  let apps = c.Metrics.interp_apps in
  if apps < 100 then Alcotest.failf "expected >= 100 interp apps, got %d" apps

(* The memoized binding resolver only caches multi-binder symbols, so a
   shadowing-heavy program must record cache hits: zero means the cache
   is bypassed by the single-binder fast path. *)
let resolver_cache_exercised () =
  let c =
    metrics_of
      "#lang racket\n\
       (define x 1)\n\
       (define (f x)\n\
      \  (let ([x (+ x 10)])\n\
      \    (let ([x (+ x 100)])\n\
      \      (+ x x))))\n\
       (define (g x) (+ x (f x)))\n\
       (display (g x))\n"
  in
  check_b "expand.resolve_hits > 0" true (Metrics.get c "expand.resolve_hits" > 0)

(* Every call in this typed program is monomorphic, so the 0CFA pass must
   report call sites and the optimizer must turn at least one into a
   direct call.  Parity tests cannot see an inert analysis: an
   unoptimized program is observably identical by design. *)
let cfa_facts_consumed () =
  let c =
    metrics_of
      "#lang typed/racket\n\
       (define (add2 [x : Integer]) : Integer (+ x 2))\n\
       (define (go [v : (Vectorof Integer)]) : Integer\n\
      \  (let ([n (vector-length v)])\n\
      \    (let loop : Integer ([j : Integer 0] [acc : Integer 0])\n\
      \      (if (< j n) (loop (+ j 1) (+ acc (vector-ref v j))) acc))))\n\
       (display (add2 (go (make-vector 16 3))))\n"
  in
  check_b "analysis.call_sites > 0" true (Metrics.get c "analysis.call_sites" > 0);
  check_b "opt.direct_calls > 0" true (Metrics.get c "opt.direct_calls" > 0)

(* -- JSON -------------------------------------------------------------------- *)

(* Metrics.to_json round-trips through the parser with counters intact —
   the same path `liblang run --profile=json` output takes. *)
let profile_json_roundtrip () =
  let c =
    metrics_of
      "#lang racket\n(define-syntax-rule (twice e) (begin e e))\n(twice (void))\n(twice (void))\n"
  in
  let text = Json.to_string ~pretty:true (Metrics.to_json c) in
  match Json.parse text with
  | Error m -> Alcotest.failf "profile JSON does not parse: %s" m
  | Ok j ->
      let n = num (mem "expand.macro.twice" (mem "counters" j)) in
      check_i "round-tripped counter" 2 (int_of_float n)

let json_parser_basics () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("-2.5", Json.Num (-2.5));
      ({|"a\nb"|}, Json.Str "a\nb");
      ("[1,2]", Json.Arr [ Json.Num 1.0; Json.Num 2.0 ]);
      ({|{"k":"v"}|}, Json.Obj [ ("k", Json.Str "v") ]);
    ]
  in
  List.iter
    (fun (text, expect) ->
      match Json.parse text with
      | Ok j when j = expect -> ()
      | Ok j -> Alcotest.failf "%s parsed to %s" text (Json.to_string j)
      | Error m -> Alcotest.failf "%s: %s" text m)
    cases;
  (match Json.parse "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted")

(* -- tracing ----------------------------------------------------------------- *)

(* An NDJSON trace of a run is one JSON object per line, with balanced
   enter/exit events and macro events at -vv. *)
let ndjson_trace_shape () =
  let path = Filename.temp_file "liblang-trace" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let sink = Trace.make_sink ~format:Trace.Ndjson ~verbosity:2 oc in
      (match
         Pipeline.run ~name:(fresh "observe-trace")
           ~observe:{ Observe.metrics = None; trace = Some sink }
           "#lang racket\n(define-syntax-rule (twice e) (begin e e))\n(twice (void))\n"
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "traced program failed");
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let events =
        List.rev_map
          (fun line ->
            match Json.parse line with
            | Ok j -> j
            | Error m -> Alcotest.failf "trace line is not JSON: %s (%s)" line m)
          !lines
      in
      let ev_of j = str (mem "ev" j) in
      let count p = List.length (List.filter p events) in
      let enters = count (fun j -> ev_of j = "enter")
      and exits = count (fun j -> ev_of j = "exit")
      and macros = count (fun j -> ev_of j = "macro") in
      check_i "enter/exit balanced" enters exits;
      if enters = 0 then Alcotest.fail "no spans traced";
      if macros < 1 then Alcotest.fail "no -vv macro events traced";
      (* the macro event names the macro *)
      let named =
        List.exists
          (fun j -> ev_of j = "macro" && str (mem "name" j) = "twice")
          events
      in
      check_b "macro event names 'twice'" true named)

(* -- zero-cost-when-off ------------------------------------------------------- *)

(* With no collector installed, the hot-path hooks must not allocate: the
   whole point of the ambient-ref design is that instrumentation left in
   shipping code costs a compare-and-branch, not garbage. *)
let off_means_no_allocation () =
  Metrics.with_opt None (fun () ->
      (* warm up (first call may trigger lazy init elsewhere) *)
      for _ = 1 to 100 do
        Metrics.bump_apps ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 100_000 do
        Metrics.bump_apps ()
      done;
      let dw = Gc.minor_words () -. w0 in
      (* tolerance: the two Gc.minor_words calls themselves box a float *)
      if dw > 64.0 then
        Alcotest.failf "bump_apps with no collector allocated %.0f words per 100k calls" dw)

(* ...and a full program run with observation off leaves the ambient slots
   empty (nothing installed globally as a side effect). *)
let off_leaves_no_residue () =
  ignore (run "#lang racket\n(display 1)\n");
  check_b "no ambient collector" false (Metrics.installed ());
  check_b "no ambient trace sink" false (Trace.installed ())

(* -- suite -------------------------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "macro counters are exact" `Quick macro_counts_exact;
    Alcotest.test_case "recursive macro counters" `Quick recursive_macro_counts;
    Alcotest.test_case "optimizer rewrite counters are exact" `Quick optimizer_counts_exact;
    Alcotest.test_case "all phase timers recorded" `Quick phase_timers_present;
    Alcotest.test_case "module compile/instantiate/re-expand counters" `Quick module_counters;
    Alcotest.test_case "interpreter applications counted" `Quick interp_apps_counted;
    Alcotest.test_case "resolver cache exercised by shadowing" `Quick resolver_cache_exercised;
    Alcotest.test_case "0CFA call sites become direct calls" `Quick cfa_facts_consumed;
    Alcotest.test_case "profile JSON round-trips" `Quick profile_json_roundtrip;
    Alcotest.test_case "JSON parser basics" `Quick json_parser_basics;
    Alcotest.test_case "NDJSON trace is well-formed" `Quick ndjson_trace_shape;
    Alcotest.test_case "hooks allocate nothing when off" `Quick off_means_no_allocation;
    Alcotest.test_case "observation leaves no ambient residue" `Quick off_leaves_no_residue;
  ]
