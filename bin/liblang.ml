(** The [liblang] command-line tool.

    {v
    liblang run [--fuel N] [--profile[=json]] [--trace FILE] [-v|-vv]
                [--cache | --cache-dir DIR] [--engine interp|vm] FILE ...
                                      run #lang programs (later files may
                                      require modules declared by earlier
                                      ones); --fuel bounds evaluation steps;
                                      --profile reports per-phase wall time,
                                      per-macro expansion counts and
                                      per-rule optimizer rewrites (as JSON
                                      on stdout with --profile=json);
                                      --trace streams span/macro events to
                                      FILE (NDJSON if FILE ends in .json or
                                      .ndjson, indented text otherwise;
                                      -vv adds per-macro-step syntax);
                                      --cache compiles through the artifact
                                      store (docs/compilation.md)
    liblang compile [--cache-dir DIR] FILE ...
                                      compile files (and their requires)
                                      through the artifact store without
                                      running them; one summary line each
    liblang expand FILE               print a module's fully-expanded core forms
    liblang analyze [--profile[=json]] FILE
                                      run the 0CFA flow analysis and print the
                                      proved facts (docs/analysis.md)
    liblang eval [-l LANG] EXPR       evaluate one expression
    liblang repl [-l LANG]            interactive read-eval-print loop
    liblang serve [--socket PATH] [--cache-dir DIR]
                                      start the compile-server daemon
                                      (protocol: docs/server.md)
    liblang client [--socket PATH] (run|compile|expand|analyze) FILE...
    liblang client [--socket PATH] (status|shutdown)
                                      talk to a running compile server
    liblang langs                     list the registered languages
    liblang help | --help             print this usage (exit 0)
    v}

    All failures are rendered as diagnostics (with source excerpts and
    caret underlines when the terminal is a TTY, in color).  Exit codes:
    0 = success, 1 = the program had diagnostics, 2 = internal error in
    the platform itself, 64 = usage error (unknown subcommand, malformed
    flags, or missing arguments).

    See docs/observability.md for the profile/trace model. *)

module Pipeline = Liblang_core.Pipeline
module Diagnostic = Pipeline.Diagnostic
module Render = Pipeline.Render
module Observe = Pipeline.Observe
module Metrics = Pipeline.Metrics
module Trace = Pipeline.Trace
module Json = Liblang_core.Core.Json
module Value = Liblang_core.Core.Value
module Server = Liblang_server.Server
module Client = Liblang_server.Client
module Sproto = Liblang_server.Protocol

let color_stderr = lazy (Unix.isatty Unix.stderr)

let exit_code ds = if List.exists Diagnostic.is_internal ds then 2 else 1

(** Print a diagnostic batch to stderr; return the exit code it implies. *)
let report ds =
  prerr_endline (Render.render_all ~color:(Lazy.force color_stderr) ds);
  exit_code ds

let fail ds = exit (report ds)

let usage_text =
  "usage: liblang <command> [options]\n\n\
   commands:\n\
  \  run [--fuel N] [--profile[=json]] [--trace FILE] [-v|-vv] FILE...\n\
  \                          run #lang programs (later files may require\n\
  \                          modules declared by earlier ones)\n\
  \      --fuel N            bound evaluation to N steps (compile time and runtime)\n\
  \      --profile           print a profile report (per-phase wall time,\n\
  \                          per-macro expansion counts, per-rule optimizer\n\
  \                          rewrites) to stderr after the run\n\
  \      --profile=json      same, as one JSON object on stdout\n\
  \      --trace FILE        stream trace events to FILE as the pipeline runs\n\
  \                          (NDJSON if FILE ends in .json/.ndjson, else text)\n\
  \      -v | -vv            trace verbosity: -vv adds each macro step with\n\
  \                          the syntax before/after the rewrite\n\
  \      --cache             compile through the artifact store in .liblang-cache/\n\
  \      --cache-dir DIR     same, rooted at DIR\n\
  \      -j N                compile the require graph on N worker domains\n\
  \                          (needs --cache/--cache-dir for run; artifacts\n\
  \                          are byte-identical to a -j1 build)\n\
  \      --faults PLAN       inject deterministic faults at store/build/loader\n\
  \                          sites for chaos testing, e.g.\n\
  \                          'seed=7;store.write=torn@64~0.3;build.task=error~0.2'\n\
  \                          (docs/robustness.md has the site catalogue)\n\
  \      --via-server PATH   route the command through the compile server\n\
  \                          listening on socket PATH instead of compiling\n\
  \                          locally (also accepted by compile)\n\
  \      --engine interp|vm  evaluation backend: the closure-tree interpreter\n\
  \                          (default) or the bytecode VM (docs/backend.md);\n\
  \                          the two are observably identical\n\
  \  compile [--cache-dir DIR] [--fuel N] [-j N] [--profile[=json]]\n\
  \          [--trace FILE] [-v|-vv] FILE...\n\
  \                          compile each file (and its requires) through the\n\
  \                          artifact store without running it; prints one\n\
  \                          summary line per file:\n\
  \                          compiled FILE: modules=N hits=H compiles=C stale=S misses=M\n\
  \                          (default cache dir: .liblang-cache)\n\
  \  gen-modules [--dir DIR] [--shape wide|diamond|chain] N\n\
  \                          write an N-module synthetic project (macro-heavy\n\
  \                          modules over a require graph of the given shape)\n\
  \                          for exercising the parallel build; prints the\n\
  \                          root file and its expected output\n\
  \  expand FILE             print a module's fully-expanded core forms\n\
  \  analyze [--profile[=json]] FILE\n\
  \                          expand FILE and run the 0CFA flow analysis over\n\
  \                          its core forms; prints a fact summary plus one\n\
  \                          line per proved fact (call-site callees, escape\n\
  \                          status, in-bounds accesses — docs/analysis.md);\n\
  \                          --profile adds analysis.* metrics and the\n\
  \                          phase.analyze timer\n\
  \  eval [-l LANG] [--engine interp|vm] EXPR\n\
  \                          evaluate one expression (default language: racket)\n\
  \  repl [-l LANG]          interactive read-eval-print loop\n\
  \  serve [--socket PATH] [--cache-dir DIR] [--fuel N] [-j N] [--workers N]\n\
  \        [--session-ttl SECS] [--max-sessions N] [--faults PLAN]\n\
  \        [--engine interp|vm]\n\
  \                          start the compile server: a persistent daemon on\n\
  \                          a unix socket (default .liblang-server.sock) that\n\
  \                          keeps compiled state warm across requests and\n\
  \                          recompiles only modules whose files changed;\n\
  \                          --workers sizes the request-dispatch domain pool\n\
  \                          (default: cores-1 capped at 4), -j the per-request\n\
  \                          build jobs, --session-ttl/--max-sessions the idle-\n\
  \                          session eviction policy; clients may pipeline and\n\
  \                          cancel requests — protocol in docs/server.md\n\
  \  client [--socket PATH] (run|compile|expand|analyze) FILE...\n\
  \  client [--socket PATH] (status|shutdown)\n\
  \                          send requests to a running compile server; run,\n\
  \                          compile and expand mirror the local subcommands\n\
  \                          (same output, same exit codes); status prints the\n\
  \                          daemon's counters as JSON\n\
  \  langs                   list the registered languages\n\
  \  help                    print this message\n\n\
   exit codes: 0 success; 1 program diagnostics; 2 internal platform error;\n\
   64 usage error (unknown subcommand, malformed flags, missing arguments).\n\n\
   docs: docs/observability.md (profiling/tracing), docs/diagnostics.md (errors),\n\
  \ docs/architecture.md (pipeline map)."

let usage () =
  prerr_endline usage_text;
  exit 64

let help () =
  print_endline usage_text;
  exit 0

(* -- run -------------------------------------------------------------------- *)

type profile_mode = Profile_off | Profile_text | Profile_json

type run_opts = {
  mutable fuel : int option;
  mutable profile : profile_mode;
  mutable trace_file : string option;
  mutable verbosity : int;
  mutable cache_dir : string option;
  mutable jobs : int option;  (** [-j N]: worker domains for the build *)
  mutable faults : string option;  (** [--faults PLAN]: chaos testing *)
  mutable via_server : string option;
      (** [--via-server PATH]: route through the compile server on PATH *)
  mutable engine : Pipeline.engine;  (** [--engine interp|vm] *)
  mutable paths : string list;  (** reversed *)
}

let parse_run_opts args =
  let o =
    {
      fuel = None;
      profile = Profile_off;
      trace_file = None;
      verbosity = 1;
      cache_dir = None;
      jobs = None;
      faults = None;
      via_server = None;
      engine = Pipeline.Interp;
      paths = [];
    }
  in
  let set_jobs n =
    match int_of_string_opt n with Some n when n > 0 -> o.jobs <- Some n | _ -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--fuel" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            o.fuel <- Some n;
            go rest
        | _ -> usage ())
    | "--fuel" :: [] -> usage ()
    | "-j" :: n :: rest ->
        set_jobs n;
        go rest
    | "-j" :: [] -> usage ()
    | flag :: rest when String.length flag > 2 && String.sub flag 0 2 = "-j" ->
        set_jobs (String.sub flag 2 (String.length flag - 2));
        go rest
    | "--profile" :: rest ->
        o.profile <- Profile_text;
        go rest
    | "--profile=json" :: rest ->
        o.profile <- Profile_json;
        go rest
    | "--trace" :: file :: rest ->
        o.trace_file <- Some file;
        go rest
    | "--trace" :: [] -> usage ()
    | "--cache" :: rest ->
        if o.cache_dir = None then o.cache_dir <- Some Liblang_core.Core.Compiled.Store.default_dir;
        go rest
    | "--cache-dir" :: dir :: rest ->
        o.cache_dir <- Some dir;
        go rest
    | "--cache-dir" :: [] -> usage ()
    | "--faults" :: plan :: rest ->
        o.faults <- Some plan;
        go rest
    | "--faults" :: [] -> usage ()
    | "--via-server" :: sock :: rest ->
        o.via_server <- Some sock;
        go rest
    | "--via-server" :: [] -> usage ()
    | "--engine" :: e :: rest -> (
        match Pipeline.engine_of_string e with
        | Some eng ->
            o.engine <- eng;
            go rest
        | None -> usage ())
    | "--engine" :: [] -> usage ()
    | "-v" :: rest ->
        o.verbosity <- max o.verbosity 1;
        go rest
    | "-vv" :: rest ->
        o.verbosity <- 2;
        go rest
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' -> usage ()
    | path :: rest ->
        o.paths <- path :: o.paths;
        go rest
  in
  go args;
  if o.paths = [] then usage ();
  (* install the fault plan before anything touches the store or spawns a
     pool; a malformed plan is a usage error, not a diagnostic *)
  (match o.faults with
  | None -> ()
  | Some spec -> (
      match Liblang_core.Core.Fault.parse spec with
      | Ok plan -> Liblang_core.Core.Fault.install (Some plan)
      | Error m ->
          Printf.eprintf "liblang: bad --faults plan: %s\n" m;
          exit 64));
  { o with paths = List.rev o.paths }

let has_suffix suf s =
  let ls = String.length s and l = String.length suf in
  ls >= l && String.sub s (ls - l) l = suf

(* Build the trace sink (if requested) and arrange for the profile and the
   trace to reach the user even when a file fails and we exit through
   [fail]. *)
let setup_observe (o : run_opts) =
  let metrics =
    match o.profile with Profile_off -> None | _ -> Some (Metrics.create ())
  in
  let trace =
    match o.trace_file with
    | None -> None
    | Some file ->
        let oc = open_out file in
        let format =
          if has_suffix ".json" file || has_suffix ".ndjson" file then Trace.Ndjson
          else Trace.Text
        in
        Some (Trace.make_sink ~format ~verbosity:o.verbosity oc)
  in
  at_exit (fun () ->
      (match (metrics, o.profile) with
      | Some c, Profile_json -> print_endline (Json.to_string ~pretty:true (Metrics.to_json c))
      | Some c, Profile_text -> prerr_string (Metrics.render c)
      | _ -> ());
      match trace with Some s -> flush s.Trace.out; close_out_noerr s.Trace.out | None -> ());
  (metrics, trace)

(* -- talking to a compile server --------------------------------------------- *)

let client_connect socket =
  match Client.connect socket with
  | Ok c -> c
  | Error m ->
      Printf.eprintf "liblang: %s\n" m;
      exit 2

(* The daemon resolves paths against its own cwd; canonicalize here so a
   client in any directory names the same module. *)
let abs_path p = Liblang_core.Core.Compiled.Resolver.module_key p

(* Print a response the way the equivalent local command would — raw
   program output to stdout, the rendered diagnostic report to stderr —
   and return the exit code it implies. *)
let print_response ~(print_output : bool) (r : (Json.t, string) result) : int =
  match r with
  | Error m ->
      Printf.eprintf "liblang: %s\n" m;
      2
  | Ok j ->
      if print_output then begin
        print_string (Client.output_of j);
        flush stdout
      end;
      if Client.ok_of j then 0
      else begin
        (match Client.rendered_of j with
        | Some r when r <> "" -> prerr_endline r
        | _ -> (
            match Client.error_of j with
            | Some e -> Printf.eprintf "liblang: %s\n" e
            | None -> ()));
        Client.exit_of j
      end

(* [run]/[expand] through a server connection: like the local commands,
   stop at the first failing file. *)
let run_via_server conn ~fuel paths =
  List.iter
    (fun path ->
      let code =
        print_response ~print_output:true
          (Client.request conn (Sproto.Run { path = abs_path path; fuel }))
      in
      if code <> 0 then exit code)
    paths

let expand_via_server conn paths =
  List.iter
    (fun path ->
      let code =
        print_response ~print_output:true
          (Client.request conn (Sproto.Expand { path = abs_path path }))
      in
      if code <> 0 then exit code)
    paths

let analyze_via_server conn paths =
  List.iter
    (fun path ->
      let code =
        print_response ~print_output:true
          (Client.request conn (Sproto.Analyze { path = abs_path path }))
      in
      if code <> 0 then exit code)
    paths

(* [compile] through a server connection: the same per-file summary line
   as the local command, built from the response's [summary] object. *)
let compile_via_server conn ~jobs paths =
  let worst = ref 0 in
  List.iter
    (fun path ->
      match Client.request conn (Sproto.Compile { path = abs_path path; jobs }) with
      | Ok j when Client.ok_of j ->
          let s = Client.summary_count j in
          Printf.printf "compiled %s: modules=%d hits=%d compiles=%d stale=%d misses=%d\n"
            path (s "modules") (s "hits") (s "compiles") (s "stale") (s "misses")
      | r -> worst := max !worst (print_response ~print_output:false r))
    paths;
  if !worst > 0 then exit !worst

let cmd_run args =
  let o = parse_run_opts args in
  match o.via_server with
  | Some sock ->
      let conn = client_connect sock in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () -> run_via_server conn ~fuel:o.fuel o.paths)
  | None ->
      let metrics, trace = setup_observe o in
      let observe = { Observe.metrics; trace } in
      List.iter
        (fun path ->
          match
            Pipeline.run_file ?fuel:o.fuel ?cache_dir:o.cache_dir ?jobs:o.jobs ~observe
              ~engine:o.engine path
          with
          | Ok _ -> ()
          | Error ds -> fail ds)
        o.paths

(* -- compile ---------------------------------------------------------------- *)

(** [liblang compile]: compile each file (and everything it requires)
    through the artifact store, without instantiating, and print one
    machine-checkable summary line per file:
    [compiled FILE: modules=N hits=H compiles=C stale=S misses=M]. *)
let cmd_compile args =
  let o = parse_run_opts args in
  match o.via_server with
  | Some sock ->
      let conn = client_connect sock in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () -> compile_via_server conn ~jobs:o.jobs o.paths)
  | None ->
  let cache_dir =
    match o.cache_dir with
    | Some d -> d
    | None -> Liblang_core.Core.Compiled.Store.default_dir
  in
  let profile_c, trace = setup_observe o in
  let worst = ref 0 in
  List.iter
    (fun path ->
      (* a private collector per file, so the summary line reflects just
         this file's compilation; folded into the --profile report after *)
      let c = Metrics.create () in
      let observe = { Observe.metrics = Some c; trace } in
      (match Pipeline.compile_file ?fuel:o.fuel ~cache_dir ?jobs:o.jobs ~observe path with
      | Ok () ->
          let g = Metrics.get c in
          Printf.printf "compiled %s: modules=%d hits=%d compiles=%d stale=%d misses=%d\n"
            path
            (g "module.compiles" + g "module.cache_hits")
            (g "module.cache_hits") (g "module.compiles") (g "cache.stale")
            (g "cache.misses")
      | Error ds -> worst := max !worst (report ds));
      match profile_c with Some into -> Metrics.merge ~into c | None -> ())
    o.paths;
  if !worst > 0 then exit !worst

(* -- gen-modules ------------------------------------------------------------- *)

(** [liblang gen-modules [--dir DIR] [--shape wide|diamond|chain] N]:
    write an [N]-module synthetic project (macro-heavy modules over a
    require graph of the given shape) and print the root file and the
    number it displays when compiled and run correctly — the input for
    the parallel-build benchmarks and for trying [-j] by hand. *)
let cmd_gen_modules args =
  let module Genproj = Liblang_core.Core.Compiled.Genproj in
  let dir = ref "." and shape = ref Genproj.Wide and n = ref None in
  let rec go = function
    | [] -> ()
    | "--dir" :: d :: rest ->
        dir := d;
        go rest
    | "--dir" :: [] -> usage ()
    | "--shape" :: s :: rest -> (
        match Genproj.shape_of_string s with
        | Some sh ->
            shape := sh;
            go rest
        | None -> usage ())
    | "--shape" :: [] -> usage ()
    | arg :: rest -> (
        match int_of_string_opt arg with
        | Some k when k >= 1 && !n = None ->
            n := Some k;
            go rest
        | _ -> usage ())
  in
  go args;
  match !n with
  | None -> usage ()
  | Some n ->
      let root, checksum = Genproj.generate ~dir:!dir ~shape:!shape ~n () in
      Printf.printf "generated %d modules (%s) under %s\nroot: %s\nexpected output: %d\n" n
        (Genproj.shape_to_string !shape) !dir root checksum

(* -- serve / client ----------------------------------------------------------- *)

(** [liblang serve]: run the compile-server daemon in the foreground until
    a [shutdown] request arrives (see docs/server.md). *)
let cmd_serve args =
  let socket = ref Server.default_socket
  and cache = ref Liblang_core.Core.Compiled.Store.default_dir
  and fuel = ref None
  and jobs = ref 1
  and workers = ref (Server.default_workers ())
  and session_ttl = ref None
  and max_sessions = ref None
  and engine = ref Pipeline.Interp in
  let rec go = function
    | [] -> ()
    | "--socket" :: s :: rest ->
        socket := s;
        go rest
    | "--cache-dir" :: d :: rest ->
        cache := d;
        go rest
    | "--fuel" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            fuel := Some n;
            go rest
        | _ -> usage ())
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            jobs := n;
            go rest
        | _ -> usage ())
    | ("--workers" | "-w") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            workers := n;
            go rest
        | _ -> usage ())
    | "--session-ttl" :: s :: rest -> (
        match float_of_string_opt s with
        | Some t when t > 0.0 ->
            session_ttl := Some t;
            go rest
        | _ -> usage ())
    | "--max-sessions" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            max_sessions := Some n;
            go rest
        | _ -> usage ())
    | "--faults" :: plan :: rest -> (
        match Liblang_core.Core.Fault.parse plan with
        | Ok p ->
            Liblang_core.Core.Fault.install (Some p);
            go rest
        | Error m ->
            Printf.eprintf "liblang: bad --faults plan: %s\n" m;
            exit 64)
    | "--engine" :: e :: rest -> (
        match Pipeline.engine_of_string e with
        | Some eng ->
            engine := eng;
            go rest
        | None -> usage ())
    | _ -> usage ()
  in
  go args;
  let cfg =
    {
      Server.socket_path = !socket;
      cache_dir = !cache;
      workers = !workers;
      default_jobs = !jobs;
      fuel = !fuel;
      engine = !engine;
      session_ttl = !session_ttl;
      max_sessions = !max_sessions;
    }
  in
  match
    Server.serve
      ~on_ready:(fun _ ->
        Printf.printf "liblang server: listening on %s (cache %s, %d workers, pid %d)\n%!"
          !socket !cache (max 1 !workers) (Unix.getpid ()))
      cfg
  with
  | () -> print_endline "liblang server: shut down"
  | exception Failure m ->
      Printf.eprintf "liblang: %s\n" m;
      exit 2

(** [liblang client]: one-shot requests against a running daemon. *)
let cmd_client args =
  let socket = ref Server.default_socket in
  let rec flags = function
    | "--socket" :: s :: rest ->
        socket := s;
        flags rest
    | "--socket" :: [] -> usage ()
    | rest -> rest
  in
  let rest = flags args in
  let with_conn f =
    let conn = client_connect !socket in
    Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)
  in
  (* an ok:false reply (a faulted session, a protocol error) is a failed
     command: report it and exit with the response's code, never pretend
     the request took effect *)
  let failed_reply j =
    Printf.eprintf "liblang: %s\n"
      (match Client.error_of j with Some m -> m | None -> "request failed");
    exit (Client.exit_of j)
  in
  match rest with
  | [ "status" ] ->
      with_conn (fun conn ->
          match Client.request conn Sproto.Status with
          | Ok j when Client.ok_of j ->
              let body =
                match Json.member "status" j with Some s -> s | None -> j
              in
              print_endline (Json.to_string ~pretty:true body)
          | Ok j -> failed_reply j
          | Error m ->
              Printf.eprintf "liblang: %s\n" m;
              exit 2)
  | [ "shutdown" ] ->
      with_conn (fun conn ->
          match Client.request conn Sproto.Shutdown with
          | Ok j when Client.ok_of j -> print_endline "liblang server: shut down"
          | Ok j -> failed_reply j
          | Error m ->
              Printf.eprintf "liblang: %s\n" m;
              exit 2)
  | "run" :: (_ :: _ as paths) -> with_conn (fun conn -> run_via_server conn ~fuel:None paths)
  | "compile" :: (_ :: _ as paths) ->
      with_conn (fun conn -> compile_via_server conn ~jobs:None paths)
  | "expand" :: (_ :: _ as paths) -> with_conn (fun conn -> expand_via_server conn paths)
  | "analyze" :: (_ :: _ as paths) -> with_conn (fun conn -> analyze_via_server conn paths)
  | _ -> usage ()

(* -- other subcommands ------------------------------------------------------- *)

let cmd_expand path =
  match Pipeline.slurp path with
  | exception Sys_error m ->
      (* like every other failure: a located diagnostic through the
         renderer, not a bare eprintf *)
      fail [ Diagnostic.error ~phase:Diagnostic.Module ("cannot read file: " ^ m) ]
  | source -> (
      let name = Filename.remove_extension (Filename.basename path) in
      match Pipeline.expand ~name source with
      | Ok forms -> List.iter print_endline forms
      | Error ds -> fail ds)

(* [analyze]: expand to core forms, run the 0CFA flow analysis, print the
   fact report.  Diagnostics only — the analysis never rejects a program,
   so the exit code is 0 unless expansion itself failed. *)
let cmd_analyze args =
  let profile = ref Profile_off and path = ref None in
  let rec go = function
    | [] -> ()
    | "--profile" :: rest ->
        profile := Profile_text;
        go rest
    | "--profile=json" :: rest ->
        profile := Profile_json;
        go rest
    | p :: rest when !path = None && (p = "" || p.[0] <> '-') ->
        path := Some p;
        go rest
    | _ -> usage ()
  in
  go args;
  match !path with
  | None -> usage ()
  | Some path -> (
      match Pipeline.slurp path with
      | exception Sys_error m ->
          fail [ Diagnostic.error ~phase:Diagnostic.Module ("cannot read file: " ^ m) ]
      | source -> (
          let metrics =
            match !profile with Profile_off -> None | _ -> Some (Metrics.create ())
          in
          at_exit (fun () ->
              match (metrics, !profile) with
              | Some c, Profile_json ->
                  print_endline (Json.to_string ~pretty:true (Metrics.to_json c))
              | Some c, Profile_text -> prerr_string (Metrics.render c)
              | _ -> ());
          let observe = { Observe.metrics; trace = None } in
          let name = Filename.remove_extension (Filename.basename path) in
          match Pipeline.analyze ~name ~observe source with
          | Ok lines -> List.iter print_endline lines
          | Error ds -> fail ds))

let cmd_eval args =
  let lang = ref "racket" and engine = ref Pipeline.Interp and expr = ref None in
  let rec go = function
    | [] -> ()
    | "-l" :: l :: rest ->
        lang := l;
        go rest
    | "-l" :: [] -> usage ()
    | "--engine" :: e :: rest -> (
        match Pipeline.engine_of_string e with
        | Some eng ->
            engine := eng;
            go rest
        | None -> usage ())
    | "--engine" :: [] -> usage ()
    | e :: rest when !expr = None ->
        expr := Some e;
        go rest
    | _ -> usage ()
  in
  go args;
  match !expr with
  | None -> usage ()
  | Some expr -> (
      match Pipeline.eval ~lang:!lang ~engine:!engine expr with
      | Ok v -> print_endline (Value.write_string v)
      | Error ds -> fail ds)

let cmd_langs () =
  (* every builtin language *)
  List.iter print_endline
    [ "racket"; "typed/racket (aliases: typed, simple-type)"; "count"; "lazy"; "limited" ]

let cmd_repl lang =
  Printf.printf "liblang repl (#lang %s); ctrl-d to exit\n" lang;
  let buf = Buffer.create 256 in
  let balanced s =
    let depth = ref 0 and in_str = ref false in
    String.iteri
      (fun i c ->
        if !in_str then (if c = '"' && (i = 0 || s.[i - 1] <> '\\') then in_str := false)
        else
          match c with
          | '"' -> in_str := true
          | '(' | '[' -> incr depth
          | ')' | ']' -> decr depth
          | _ -> ())
      s;
    !depth <= 0 && not !in_str
  in
  try
    while true do
      if Buffer.length buf = 0 then print_string "> " else print_string "  ";
      flush stdout;
      let line = input_line stdin in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      let text = Buffer.contents buf in
      if String.trim text <> "" && balanced text then begin
        Buffer.clear buf;
        match Pipeline.eval ~lang text with
        | Ok v -> if v <> Value.Void then print_endline (Value.write_string v)
        | Error ds -> ignore (report ds)
      end
    done
  with End_of_file -> print_newline ()

let () =
  Liblang_core.Core.init ();
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "run" :: (_ :: _ as rest) -> cmd_run rest
  | _ :: "compile" :: (_ :: _ as rest) -> cmd_compile rest
  | _ :: "gen-modules" :: (_ :: _ as rest) -> cmd_gen_modules rest
  | _ :: "serve" :: rest -> cmd_serve rest
  | _ :: "client" :: (_ :: _ as rest) -> cmd_client rest
  | [ _; "expand"; path ] -> cmd_expand path
  | _ :: "analyze" :: (_ :: _ as rest) -> cmd_analyze rest
  | _ :: "eval" :: (_ :: _ as rest) -> cmd_eval rest
  | [ _; "repl"; "-l"; lang ] -> cmd_repl lang
  | [ _; "repl" ] -> cmd_repl "racket"
  | [ _; "langs" ] -> cmd_langs ()
  | [ _; "help" ] | [ _; "--help" ] | [ _; "-h" ] -> help ()
  | _ -> usage ()
