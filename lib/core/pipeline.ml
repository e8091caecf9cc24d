(** The fault-contained pipeline: compile and run a [#lang] program,
    delivering every failure — reader, expander, typechecker, module
    system, runtime — as a list of {!Diagnostic.t} values instead of a
    zoo of exceptions (and never letting an exception escape).

    - Multiple independent errors are reported in one invocation: the
      reader resynchronizes after a parse error and the typechecker
      continues past a type error, so a file with three bad datums or
      three type errors yields three located diagnostics.
    - Divergent computations are cut off by fuel: macro transformers by
      the expander's step budget, compile-time and runtime evaluation by
      the interpreter's step counter ([?fuel]).
    - Anything unrecognized is wrapped as an [Internal] diagnostic (the
      CLI maps those to exit code 2). *)

module Diagnostic = Liblang_diagnostics.Diagnostic
module Reporter = Liblang_diagnostics.Reporter
module Sources = Liblang_diagnostics.Sources
module Render = Liblang_diagnostics.Render
module Reader = Core.Reader
module Srcloc = Core.Srcloc
module Stx = Core.Stx
module Binding = Liblang_stx.Binding
module Value = Core.Value
module Interp = Core.Interp
module Expander = Core.Expander
module Compile = Core.Compile
module Syntax_rules = Core.Syntax_rules
module Contracts = Core.Contracts
module Modsys = Core.Modsys
module Types = Core.Types
module Check = Core.Check
module Observe = Liblang_observe.Observe
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace

(** Step budget for compile-time evaluation when the caller does not give
    one: generous enough for any sane macro, small enough that a divergent
    phase-1 loop is cut off in well under a second. *)
let default_compile_fuel = 10_000_000

(** Which evaluation backend instantiates modules: the closure-tree
    interpreter (the default) or the bytecode VM ({!Core.Vm}, with
    per-form fallback to the interpreter — see docs/backend.md).  The
    two are observably identical; [Vm] exists for speed and for the
    differential gate that proves the equivalence. *)
type engine = Interp | Vm

let engine_of_string = function
  | "interp" -> Some Interp
  | "vm" -> Some Vm
  | _ -> None

let engine_to_string = function Interp -> "interp" | Vm -> "vm"

(** Run [f] with the chosen engine installed as the module system's
    evaluator (restored after — the setting is per-entry-point, not
    global, so a server can honor a per-request engine). *)
let with_engine (engine : engine) (f : unit -> 'a) : 'a =
  match engine with
  | Interp -> f ()
  | Vm ->
      let saved = !Modsys.evaluator in
      let saved_engine = !Core.Vm.Engine.current in
      Modsys.evaluator := Core.Vm.eval_top;
      Core.Vm.Engine.current := Core.Vm.Engine.Vm;
      Fun.protect
        ~finally:(fun () ->
          Modsys.evaluator := saved;
          Core.Vm.Engine.current := saved_engine)
        f

let in_note (s : Stx.t) = [ Diagnostic.note ("in: " ^ Diagnostic.truncated (Stx.to_string s)) ]

(* The hygiene engine (lib/stx) keeps plain monotonic int counters for its
   hot paths — per-domain resolver cache hits/misses and lazy scope pushes
   — so the expander's inner loop never hashes a metric name.  This wrapper
   flushes the deltas accumulated during [f] into the ambient collector as
   the ["expand.resolve_hits"]/["expand.resolve_misses"]/
   ["stx.scope_pushes"] metrics (plus interning gauges); it is a no-op
   without a collector.

   The bracket is {e reentrant per domain}: pipeline entry points nest
   (e.g. [run_file] over a module whose requires route back through
   [compile_file]-style machinery, or the parallel driver running worker
   tasks inside an outer profiled run), and if both the outer and the inner
   bracket flushed, the inner delta window would land twice in the merged
   [--profile].  Only the outermost bracket of each domain flushes.

   The per-domain deltas (resolver hits/misses) flush on every domain; the
   {e process-wide} gauges (scope pushes, interned symbols / scope sets)
   flush only from the main domain — concurrent worker windows overlap the
   main window, so per-worker deltas of a shared counter would double-
   count. *)
let stx_flush_depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let with_stx_counters (f : unit -> 'a) : 'a =
  if not (Metrics.installed ()) then f ()
  else begin
    let depth = Domain.DLS.get stx_flush_depth_key in
    if !depth > 0 then f () (* nested bracket: let the outermost flush *)
    else begin
      incr depth;
      let h0 = Binding.resolve_hits ()
      and m0 = Binding.resolve_misses ()
      and p0 = !Stx.scope_pushes
      and sy0 = Stx.Symbol.interned_count ()
      and sc0 = Liblang_stx.Scope.Set.interned_count () in
      Fun.protect
        ~finally:(fun () ->
          decr depth;
          Metrics.countn "expand.resolve_hits" (Binding.resolve_hits () - h0);
          Metrics.countn "expand.resolve_misses" (Binding.resolve_misses () - m0);
          if Domain.is_main_domain () then begin
            Metrics.countn "stx.scope_pushes" (!Stx.scope_pushes - p0);
            Metrics.countn "stx.symbols_interned" (Stx.Symbol.interned_count () - sy0);
            Metrics.countn "stx.scope_sets_interned"
              (Liblang_stx.Scope.Set.interned_count () - sc0)
          end)
        f
    end
  end

(** Translate a known pipeline exception to a located diagnostic;
    [None] for foreign exceptions (the caller wraps those as [Internal]). *)
let diagnostic_of_exn : exn -> Diagnostic.t option = function
  | Reader.Error (m, loc) -> Some (Diagnostic.error ~phase:Reader ~loc m)
  | Expander.Expand_error (m, stx) ->
      Some (Diagnostic.error ~phase:Expander ~loc:(Stx.loc stx) m ~notes:(in_note stx))
  | Syntax_rules.Bad_syntax (m, stx) ->
      Some (Diagnostic.error ~phase:Expander ~loc:(Stx.loc stx) m ~notes:(in_note stx))
  | Binding.Ambiguous id ->
      Some
        (Diagnostic.error ~phase:Expander ~loc:(Stx.loc id)
           ("ambiguous identifier: " ^ Stx.to_string id))
  | Compile.Compile_error (m, stx) ->
      Some (Diagnostic.error ~phase:Compile ~loc:(Stx.loc stx) m ~notes:(in_note stx))
  | Modsys.Module_error (m, loc) -> Some (Diagnostic.error ~phase:Module ~loc m)
  | Check.Type_error (m, s) -> Some (Check.diagnostic_of m s)
  | Types.Parse_error (m, loc) ->
      Some (Diagnostic.error ~phase:Typecheck ~loc ("type syntax: " ^ m))
  | Value.Scheme_error m -> Some (Diagnostic.error ~phase:Runtime m)
  | Contracts.Contract_violation { blame; contract; value } ->
      Some
        (Diagnostic.error ~phase:Runtime
           (Printf.sprintf "contract violation: %s, blaming %s" contract blame)
           ~notes:[ Diagnostic.note ("value: " ^ Value.write_string value) ])
  | Interp.Out_of_fuel ->
      Some
        (Diagnostic.error ~phase:Runtime
           "evaluation exhausted its fuel budget (the program probably diverges)")
  | Stack_overflow ->
      Some (Diagnostic.error ~phase:Runtime "stack overflow (runaway non-tail recursion)")
  | Liblang_fault.Fault.Injected (site, mode) ->
      Some
        (Diagnostic.error ~phase:Module
           (Printf.sprintf "injected fault at %s (%s)" site mode))
  | Liblang_fault.Fault.Timeout budget ->
      Some
        (Diagnostic.error ~phase:Module
           (Printf.sprintf "task exceeded its %gs wall-clock deadline" budget))
  | Liblang_fault.Fault.Cancelled ->
      (* the compile server's [cancel] op aborted this request at a
         cooperative checkpoint; exit 1 on the wire, like any ordinary
         diagnostic (docs/server.md) *)
      Some (Diagnostic.error ~phase:Module "request cancelled")
  | _ -> None

(** Run [f] under a fresh reporter with fuel limits armed; every failure
    mode — accumulated diagnostics, a [Diagnostic.Failed] batch, a known
    pipeline exception, or a foreign exception — comes back as [Error]. *)
let contain ?fuel (f : unit -> 'a) : ('a, Diagnostic.t list) result =
  let reporter = Reporter.create () in
  let fuel_cell = Interp.fuel () in
  let saved_fuel = !fuel_cell in
  let finish r =
    fuel_cell := saved_fuel;
    r
  in
  fuel_cell := (match fuel with Some n -> n | None -> default_compile_fuel);
  Expander.reset_limits ();
  let pending () = Reporter.diagnostics reporter in
  match Reporter.with_reporter reporter f with
  | v ->
      finish (if Reporter.has_errors reporter then Error (pending ()) else Ok v)
  | exception Diagnostic.Failed more -> finish (Error (pending () @ more))
  | exception e ->
      let d =
        match diagnostic_of_exn e with
        | Some d -> d
        | None ->
            Diagnostic.error ~phase:Internal
              ("uncaught exception: " ^ Printexc.to_string e)
      in
      finish (Error (pending () @ [ d ]))

let read_module_body ~name source =
  match Reader.split_lang_line source with
  | None ->
      raise
        (Modsys.Module_error
           ( Printf.sprintf "module %s: source must start with #lang <language>" name,
             Srcloc.none ))
  | Some (lang, rest) -> (
      match Reader.read_all_recovering ~file:name rest with
      | datums, [] -> (lang, datums)
      | _, errs ->
          raise
            (Diagnostic.Failed
               (List.map (fun (m, loc) -> Diagnostic.error ~phase:Reader ~loc m) errs)))

(** Compile and instantiate a [#lang] program.  [?fuel] bounds the number
    of evaluation steps (compile-time and runtime); without it, runtime
    evaluation is unbounded and only compile-time evaluation is capped.
    The source is registered with {!Sources} so rendered diagnostics can
    show source-line excerpts.

    [?observe] installs an observability context (metrics collector and/or
    trace sink, see {!Liblang_observe.Observe.ctx}) around the whole run:
    every phase reports per-phase wall time, per-macro expansion counts and
    fuel, optimizer rewrite-rule firings, and module-system activity into
    it.  The default context observes nothing and costs nothing (see
    docs/observability.md). *)
let run ?fuel ?name ?(observe = Observe.nothing) ?(engine = Interp) (source : string) :
    (Value.value, Diagnostic.t list) result =
  Core.init ();
  let name = match name with Some n -> n | None -> Core.fresh_module_name "program" in
  Sources.register ~file:name source;
  Observe.with_ctx observe (fun () ->
      with_stx_counters @@ fun () ->
      Trace.span "run" ~detail:name (fun () ->
          contain ?fuel (fun () ->
              with_engine engine (fun () ->
                  let lang, datums = read_module_body ~name source in
                  let m = Modsys.compile_module ~name ~lang datums in
                  (* compilation done: switch the step counter to the runtime allotment *)
                  Interp.fuel ()
                  := (match fuel with Some n -> n | None -> Interp.unlimited);
                  Modsys.instantiate m;
                  Value.Void))))

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [f] with an artifact store rooted at [cache_dir] when one is
   requested; otherwise plain. *)
let with_optional_cache (cache_dir : string option) (f : unit -> 'a) : 'a =
  match cache_dir with
  | None -> f ()
  | Some dir -> Core.Compiled.with_cache_dir dir f

(* Raise the failures (and poisoned skips) of a parallel build as one
   [Diagnostic.Failed] batch; no-op when every task built. *)
let raise_build_failures (r : Core.Compiled.Build.result) : unit =
  let ds =
    List.concat_map
      (fun (key, o) ->
        match o with
        | Core.Compiled.Build.Built -> []
        | Core.Compiled.Build.Failed ds -> ds
        | Core.Compiled.Build.Skipped dep ->
            [
              Diagnostic.make ~severity:Diagnostic.Note ~phase:Diagnostic.Module
                (Printf.sprintf "%s not built: its require %s failed" key dep);
            ])
      r.Core.Compiled.Build.outcomes
  in
  if ds <> [] then raise (Diagnostic.Failed ds)

(** Build [paths] — and everything they require — with [jobs] worker
    domains over the artifact store (see {!Liblang_compiled.Build}).
    [jobs = 1] (the default) compiles serially on the calling domain.
    Returns the build result (scheduling stats included) or the combined
    diagnostics of every failed task. *)
let build_files ?fuel ?cache_dir ?(jobs = 1) ?(observe = Observe.nothing)
    (paths : string list) : (Core.Compiled.Build.result, Diagnostic.t list) result =
  Core.init ();
  Observe.with_ctx observe (fun () ->
      with_stx_counters @@ fun () ->
      Trace.span "build" (fun () ->
          contain ?fuel (fun () ->
              with_optional_cache cache_dir (fun () ->
                  let r = Core.Compiled.Build.build ~diagnostic_of_exn ~jobs paths in
                  raise_build_failures r;
                  r))))

(** Compile (without instantiating) the module in [path] and everything it
    requires, through the file resolver — and, when [?cache_dir] is given,
    through the artifact store rooted there (reading valid artifacts instead
    of re-compiling, and persisting fresh ones).  [?jobs > 1] distributes
    the module graph over that many worker domains (see
    {!Liblang_compiled.Build}).  See docs/compilation.md. *)
let compile_file ?fuel ?cache_dir ?(jobs = 1) ?(observe = Observe.nothing) (path : string) :
    (unit, Diagnostic.t list) result =
  if jobs > 1 then
    match build_files ?fuel ?cache_dir ~jobs ~observe [ path ] with
    | Ok _ -> Ok ()
    | Error ds -> Error ds
  else begin
    Core.init ();
    Observe.with_ctx observe (fun () ->
        with_stx_counters @@ fun () ->
        Trace.span "compile" ~detail:path (fun () ->
            contain ?fuel (fun () ->
                with_optional_cache cache_dir (fun () ->
                    ignore (Core.Compiled.compile_file path)))))
  end

let run_file ?fuel ?cache_dir ?(jobs = 1) ?(observe = Observe.nothing) ?(engine = Interp)
    (path : string) : (Value.value, Diagnostic.t list) result =
  match cache_dir with
  | None -> (
      match slurp path with
      | source ->
          (* relative (require "path.scm") forms resolve against the
             file's own directory, exactly as under the cached path *)
          Core.Compiled.with_source_dir path (fun () ->
              run ?fuel ~observe ~engine
                ~name:(Filename.remove_extension (Filename.basename path))
                source)
      | exception Sys_error m ->
          Error [ Diagnostic.error ~phase:Module ("cannot read file: " ^ m) ])
  | Some _ ->
      (* cached runs route through the file resolver: the module is
         registered under its canonical absolute path and may be loaded
         from its artifact instead of compiled.  With [jobs > 1] the
         module graph is first built in parallel (artifacts written by the
         pool), then the main domain acquires the program from the warm
         store and instantiates it serially — instantiation order is the
         language's observable semantics and is never parallelized. *)
      Core.init ();
      Observe.with_ctx observe (fun () ->
      with_stx_counters @@ fun () ->
          Trace.span "run" ~detail:path (fun () ->
              contain ?fuel (fun () ->
                  with_engine engine (fun () ->
                      with_optional_cache cache_dir (fun () ->
                          if jobs > 1 then
                            raise_build_failures
                              (Core.Compiled.Build.build ~diagnostic_of_exn ~jobs [ path ]);
                          let m = Core.Compiled.compile_file path in
                          Interp.fuel ()
                          := (match fuel with Some n -> n | None -> Interp.unlimited);
                          Modsys.instantiate m;
                          Value.Void)))))

(** Expand a module to core forms (each rendered as text). *)
let expand ?fuel ?name ?(observe = Observe.nothing) (source : string) :
    (string list, Diagnostic.t list) result =
  Core.init ();
  let name = match name with Some n -> n | None -> Core.fresh_module_name "program" in
  Sources.register ~file:name source;
  Observe.with_ctx observe (fun () ->
      with_stx_counters @@ fun () ->
      contain ?fuel (fun () ->
          match Reader.split_lang_line source with
          | None -> ignore (read_module_body ~name source); assert false
          | Some _ -> List.map Stx.to_string (Modsys.expand_source ~name source)))

(** Expand a module to core forms and run the 0CFA flow analysis
    ({!Core.Zcfa}) over them, returning the rendered fact report — a
    summary line plus one line per proved fact.  The analysis itself
    emits [analysis.*] metrics and a [phase.analyze] timer into
    [?observe]. *)
let analyze ?fuel ?name ?(observe = Observe.nothing) (source : string) :
    (string list, Diagnostic.t list) result =
  Core.init ();
  let name = match name with Some n -> n | None -> Core.fresh_module_name "program" in
  Sources.register ~file:name source;
  Observe.with_ctx observe (fun () ->
      with_stx_counters @@ fun () ->
      contain ?fuel (fun () ->
          match Reader.split_lang_line source with
          | None -> ignore (read_module_body ~name source); assert false
          | Some _ ->
              let forms = Modsys.expand_source ~name source in
              let facts = Core.Zcfa.analyze_module forms in
              Core.Facts.render facts))

(** Evaluate one expression in [lang]'s environment; [?fuel] bounds its
    evaluation steps (default: unbounded, as befits a REPL). *)
let eval ?fuel ?(lang = "racket") ?(observe = Observe.nothing) ?(engine = Interp)
    (src : string) : (Value.value, Diagnostic.t list) result =
  Core.init ();
  Observe.with_ctx observe (fun () ->
      with_stx_counters @@ fun () ->
      contain ?fuel (fun () ->
          with_engine engine (fun () ->
              Interp.fuel ()
              := (match fuel with Some n -> n | None -> Interp.unlimited);
              Core.eval_expr ~lang src)))

(** Render a diagnostic batch for the terminal. *)
let render_errors ?color (ds : Diagnostic.t list) : string = Render.render_all ?color ds
