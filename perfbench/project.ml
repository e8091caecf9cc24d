(** Generated projects, and the [build-project] workload over them.

    A project is a seeded {!Liblang_compiled.Genproj} diamond of
    macro-tower modules whose [main.scm] also requires a set of figure
    programs as modules (typed and untyped, their [(display (main))] line
    dropped so requiring them defines and runs nothing).  [main] displays
    the diamond's closed-form value; {!expected} recomputes it after every
    edit. *)

open Common
module Core = Liblang_core.Core
module Compiled = Core.Compiled
module Genproj = Compiled.Genproj
module Pipeline = Liblang_core.Pipeline

type t = {
  dir : string;
  n : int;  (** diamond modules, [main.scm] included *)
  depth : int;
  deltas : int array;  (** per-module constant added to [v<i>]; edits change it *)
  figs : string list;  (** fig module files, relative to [dir] *)
  mutable fig_edits : int;
}

let nvars = 16
let copies = 2

let diamond_source (p : t) i =
  let src = Genproj.module_source ~shape:Genproj.Diamond ~n:p.n ~depth:p.depth ~nvars ~copies i in
  let needle = Printf.sprintf "(define v%d (+ tower " i in
  match Str.search_forward (Str.regexp_string needle) src 0 with
  | pos ->
      let cut = pos + String.length needle in
      String.sub src 0 cut ^ string_of_int p.deltas.(i) ^ " " ^ String.sub src cut (String.length src - cut)
  | exception Not_found -> failwith "diamond_source: generator output changed shape"

let fig_module (p : Programs.t) ~typed =
  let body = if typed then p.Programs.typed else p.Programs.untyped in
  let drop = "(display (main))" in
  let body =
    match Str.search_forward (Str.regexp_string drop) body 0 with
    | pos -> String.sub body 0 pos ^ String.sub body (pos + String.length drop) (String.length body - pos - String.length drop)
    | exception Not_found -> body
  in
  Printf.sprintf "#lang %s\n%s" (if typed then "typed/racket" else "racket") body

let root (p : t) = Filename.concat p.dir "main.scm"

(** The number [main.scm] must display. *)
let expected (p : t) : string =
  let tower = copies * ((1 lsl p.depth) + nvars) in
  let vals = Array.make p.n 0 in
  for i = p.n - 1 downto 0 do
    vals.(i) <-
      tower + p.deltas.(i)
      + List.fold_left (fun acc j -> acc + vals.(j)) 0 (Genproj.deps_of ~shape:Genproj.Diamond ~n:p.n i)
  done;
  string_of_int vals.(0)

let write_module (p : t) i =
  let src = diamond_source p i in
  let src =
    if i = 0 then
      (* main also requires every fig module, importing nothing *)
      let reqs = List.map (Printf.sprintf "(require (only-in \"%s\"))\n") p.figs in
      match String.index_opt src '\n' with
      | Some nl -> String.sub src 0 (nl + 1) ^ String.concat "" reqs ^ String.sub src (nl + 1) (String.length src - nl - 1)
      | None -> src
    else src
  in
  write_file (Filename.concat p.dir (Genproj.file_of i)) src

(** Write a project: an [n]-module diamond of [depth]-deep towers plus the
    given figure programs, each as a typed and an untyped module.  The
    seed sets the initial per-module constants. *)
let generate ~(rng : Random.State.t) ~dir ~n ~depth (programs : Programs.t list) : t =
  rm_rf dir;
  mkdir_p (Filename.concat dir "figs");
  let figs =
    List.concat_map
      (fun (p : Programs.t) ->
        List.map
          (fun typed ->
            let rel = Printf.sprintf "figs/%s-%s.scm" p.Programs.name (if typed then "typed" else "untyped") in
            write_file (Filename.concat dir rel) (fig_module p ~typed);
            rel)
          [ true; false ])
      programs
  in
  let p = { dir; n; depth; deltas = Array.init n (fun _ -> Random.State.int rng 1000); figs; fig_edits = 0 } in
  for i = 0 to n - 1 do
    write_module p i
  done;
  p

type edit = Diamond of int * int  (** module, increment of its constant *) | Fig of string

(** The edit strata, by the size of the dirty cone: the shared base (every
    diamond module), a mid module (itself and [main]), [main] alone, and a
    fig module (itself and [main]). *)
let stratum (p : t) = function
  | Diamond (i, _) when i = p.n - 1 -> "base"
  | Diamond (0, _) -> "main"
  | Diamond _ -> "mid"
  | Fig _ -> "fig"

(** A stratified set of latencies ([(stratum, seconds)]): the geometric
    mean over strata of each stratum's median, so the figure does not hop
    between strata as the seed changes the mix. *)
let strata_median (l : (string * float) list) : float =
  let keys = List.sort_uniq compare (List.map fst l) in
  geomean (List.map (fun k -> median (List.filter_map (fun (k', v) -> if k = k' then Some v else None) l)) keys)

let edit_name = function Diamond (i, _) -> Genproj.file_of i | Fig f -> f

(** Record an edit in the project's state (the closed form changes with a
    diamond module's constant); {!apply} also writes it. *)
let note (p : t) = function
  | Diamond (i, d) -> p.deltas.(i) <- p.deltas.(i) + d
  | Fig _ -> p.fig_edits <- p.fig_edits + 1

(** Apply one edit: a diamond module gets a new constant; a fig module
    gets a new trailing comment (its digest changes, its meaning does
    not). *)
let apply (p : t) e =
  note p e;
  match e with
  | Diamond (i, _) -> write_module p i
  | Fig f ->
      let path = Filename.concat p.dir f in
      let src = read_file path in
      write_file path (src ^ Printf.sprintf "; edit %d\n" p.fig_edits)

(** An edit of stratum [k mod 4]: the shared base, a seeded mid module,
    [main], a seeded fig module. *)
let stratum_edit ~(rng : Random.State.t) (p : t) k : edit =
  let d () = 1 + Random.State.int rng 1000 in
  match k mod 4 with
  | 0 -> Diamond (p.n - 1, d ())
  | 1 ->
      let i = 1 + Random.State.int rng (max 1 (p.n - 2)) in
      Diamond (i, d ())
  | 2 -> Diamond (0, d ())
  | _ -> Fig (List.nth p.figs (Random.State.int rng (List.length p.figs)))

(** A round's edits, one per stratum so every seed edits the same mix of
    cone sizes. *)
let round_edits ~(rng : Random.State.t) (p : t) : edit list =
  shuffle rng (List.init 4 (stratum_edit ~rng p))

(* Artifact files of a store: (name, inode, size).  An artifact is written
   by a fresh temp file and a rename, so a written artifact has a new inode. *)
let store_state cache : (string * int * int) list =
  match Sys.readdir cache with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".lart")
      |> List.sort compare
      |> List.map (fun n ->
             let st = Unix.stat (Filename.concat cache n) in
             (n, st.Unix.st_ino, st.Unix.st_size))

(** Artifacts written between two store states: the modules compiled. *)
let written before after = List.length (List.filter (fun x -> not (List.mem x before)) after)

(** The main domain's binding table as a fresh process has it. *)
let initial_bindings = lazy (Core.Binding.snapshot ())

(** Forget this session's modules and bindings, as a new process would
    start without them. *)
let fresh_process () =
  Compiled.reset_session ();
  Core.Binding.restore (Lazy.force initial_bindings)

(** Run the project's root from its artifact store as a fresh process
    would, and return what it printed. *)
let run_root (p : t) ~cache : string =
  fresh_process ();
  Compiled.with_cache_dir cache (fun () ->
      let m = Compiled.compile_file (root p) in
      fst
        (Core.Prims.with_captured_output (fun () ->
             Ledger.span ~layer:"modules" "Modsys.instantiate" (fun () ->
                 Ledger.derived_of (fun () -> Core.Modsys.instantiate m)))))

let jobs = 2

(** One [-j 2] build of the project as a fresh process would run it;
    returns (seconds, error message if the build failed). *)
let build (p : t) ~cache : float * string option =
  fresh_process ();
  Ledger.span ~layer:"bench" "Gc.compact" settle;
  let t0 = now () in
  let r =
    Ledger.span ~layer:"compiled" "Pipeline.build_files" (fun () ->
        Ledger.derived_of ~ways:jobs (fun () -> Pipeline.build_files ~jobs ~cache_dir:cache [ root p ]))
  in
  let dt = now () -. t0 in
  ( dt,
    match r with
    | Ok _ -> None
    | Error ds -> Some (String.concat "; " (List.map (fun d -> d.Core.Diagnostic.message) ds)) )

(* -- the build-project workload ---------------------------------------------- *)

(** Run [f] in a forked child and return its result (and its ledger).
    Every build runs in a child, so each round starts from the same process
    image, as a fresh process would, instead of inheriting the tables and
    heap that earlier builds grew.  The parent never starts a domain, which
    is what allows it to fork. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let since = !Ledger.next_id in
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (r, Ledger.export ~since) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        match (Marshal.from_channel ic : ('a, string) Stdlib.result * Ledger.export) with
        | r, e ->
            Ledger.import e;
            r
        | exception End_of_file -> Error "round process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match r with Ok v -> v | Error e -> failwith e)

type round = {
  cold : float;
  warm : float;
  edits : (string * float * int) list;  (** stratum, seconds, artifacts written *)
  rss : float;  (** peak resident set of the round, MiB *)
  attempted : int;
  failures : string list;
  artifact_bytes : int;  (** written by the cold build *)
  minor : float;
  major : float;
}

(** One round: cold build, warm rebuild, then one rebuild per edit; every
    build is checked, and the project's output after every edit. *)
let round (p : t) ~cache (edits : edit list) : round =
  let attempted = ref 0 and failures = ref [] in
  let fail m = failures := m :: !failures in
  let check_build what (dt, err) =
    incr attempted;
    (match err with Some e -> fail (what ^ " build failed: " ^ e) | None -> ());
    dt
  in
  let verify what =
    incr attempted;
    let out =
      Ledger.span ~layer:"bench" "verify" (fun () ->
          try run_root p ~cache with e -> "exception: " ^ Printexc.to_string e)
    in
    if not (String.equal out (expected p)) then
      fail (Printf.sprintf "%s: main printed %S, expected %S" what out (expected p))
  in
  let body () =
    rm_rf cache;
    reset_peak_rss ();
    let cold = check_build "cold" (build p ~cache) in
    let artifact_bytes = bytes_under ~suffix:".lart" cache in
    verify "cold build";
    let before = store_state cache in
    let warm = check_build "warm" (build p ~cache) in
    let w = written before (store_state cache) in
    incr attempted;
    if w <> 0 then fail (Printf.sprintf "warm rebuild compiled %d modules, expected 0" w);
    let edits =
      List.map
        (fun e ->
          Ledger.span ~layer:"bench" "edit" (fun () -> apply p e);
          let before = store_state cache in
          let dt = check_build ("edit " ^ edit_name e) (build p ~cache) in
          let w = written before (store_state cache) in
          verify ("after editing " ^ edit_name e);
          (stratum p e, dt, w))
        edits
    in
    (cold, warm, edits, peak_rss_mb (), artifact_bytes)
  in
  let (cold, warm, edits, rss, artifact_bytes), minor, major = with_alloc body in
  { cold; warm; edits; rss; attempted = !attempted; failures = List.rev !failures; artifact_bytes; minor; major }

let run (cfg : Workload.cfg) : Workload.result =
  with_workdir "build-project" @@ fun work ->
  ignore (Lazy.force initial_bindings);
  let rng = Random.State.make [| cfg.seed |] in
  let cache = Filename.concat work "cache" in
  let rounds = ref [] and setup_failures = ref [] in
  (* set-up: generate the project and prime it with one cold build *)
  let t0 = now () in
  let p =
    Ledger.segment_if cfg.trace "setup" (fun () ->
        let p =
          Ledger.span ~layer:"bench" "generate" (fun () ->
              generate ~rng ~dir:(Filename.concat work "proj") ~n:12 ~depth:9 Figs.fig_programs)
        in
        (match in_child (fun () -> build p ~cache) with
        | _, Some e -> setup_failures := [ "priming build failed: " ^ e ]
        | _, None -> ());
        p)
  in
  let setup_s = now () -. t0 in
  (* the edits are drawn here, so the seed alone fixes them *)
  let next_round () =
    let edits = round_edits ~rng p in
    let r = in_child (fun () -> round p ~cache edits) in
    List.iter (note p) edits;
    rounds := r :: !rounds;
    r
  in
  let all f = List.concat_map f !rounds in
  let attempted () = List.length !setup_failures + List.fold_left (fun a r -> a + r.attempted) 0 !rounds in
  let failures () = List.rev !setup_failures @ all (fun r -> r.failures) in
  let artifact_kb () = match !rounds with [] -> 0.0 | l -> float_of_int (List.nth l (List.length l - 1)).artifact_bytes /. 1024.0 in
  let edit_times () = all (fun r -> List.map (fun (k, dt, _) -> (k, dt)) r.edits) in
  let recompiles_per_edit () =
    let w = all (fun r -> List.map (fun (_, _, w) -> w) r.edits) in
    float_of_int (List.fold_left ( + ) 0 w) /. float_of_int (max 1 (List.length w))
  in
  if not cfg.trace then begin
    let deadline = now () +. cfg.seconds in
    while now () < deadline || !rounds = [] do
      ignore (next_round ())
    done;
    let cold = all (fun r -> [ r.cold ]) and warm = all (fun r -> [ r.warm ]) in
    let ms l = 1000.0 *. median l in
    let edit = 1000.0 *. strata_median (edit_times ()) in
    let builds = cold @ warm @ List.map snd (edit_times ()) in
    Workload.finish ~attempted:(attempted ()) ~failures:(failures ())
      ~e2e:
        [
          ("setup_s", setup_s);
          ("op_ms", geomean [ ms cold; ms warm; edit ]);
          ("fast_path_ms", ms warm);
          ("slow_path_ms", edit);
          ("tail_ms", ms cold);
          ("ops_per_s", float_of_int (List.length builds) /. List.fold_left ( +. ) 0.0 builds);
          ("peak_rss_mb", median (all (fun r -> [ r.rss ])));
        ]
      ~named:
        [
          ("cold_build_s", median cold, "s");
          ("warm_build_ms", ms warm, "ms");
          ("edit_rebuild_ms", edit, "ms");
          ("artifact_kb", artifact_kb (), "KiB");
        ]
    |> fun res ->
    {
      res with
      Workload.report =
        res.Workload.report
        ^ String.concat ""
            (List.rev_map
               (fun r ->
                 Printf.sprintf "round: cold %.1f ms, warm %.1f ms, edits %s\n" (1000.0 *. r.cold)
                   (1000.0 *. r.warm)
                   (String.concat ", " (List.map (fun (k, dt, w) -> Printf.sprintf "%s %.1f ms (%d compiled)" k (1000.0 *. dt) w) r.edits)))
               !rounds);
    }
  end
  else begin
    (* an untraced round, then a traced one with the same strata *)
    let untraced =
      let t0 = now () in
      ignore (next_round ());
      now () -. t0
    in
    rounds := [];
    let c0 = Option.map Ledger.snap !Ledger.collector in
    let traced =
      Ledger.segment "measure" (fun () ->
          let t0 = now () in
          ignore (next_round ());
          now () -. t0)
    in
    let r = List.hd !rounds in
    let builds = r.cold :: r.warm :: List.map (fun (_, dt, _) -> dt) r.edits in
    let busy =
      match (c0, !Ledger.collector) with
      | Some a, Some c ->
          let b = Ledger.snap c in
          List.fold_left (fun acc k -> acc +. Ledger.timer_delta a b k) 0.0
            [ "phase.read"; "phase.expand"; "phase.compile"; "phase.lower"; "phase.load" ]
      | _ -> nan
    in
    let cnt k = match !Ledger.collector with Some c -> float_of_int (Core.Metrics.get c k) | None -> 0.0 in
    Workload.traced ~attempted:(attempted ()) ~failures:(failures ()) ~untraced ~traced
      ~extra:
        [
          ("compiled.artifact_kb", artifact_kb (), "KiB");
          ("runtime.minor_words", r.minor, "words");
          ("runtime.major_words", r.major, "words");
          ("compiled.recompiles_per_edit", recompiles_per_edit (), "count");
          ("compiled.busy_ratio", busy /. (float_of_int jobs *. List.fold_left ( +. ) 0.0 builds), "ratio");
          ("compiled.retries", cnt "par.retries", "count");
          ("build.cold_ms", 1000.0 *. r.cold, "ms");
          ("build.warm_ms", 1000.0 *. r.warm, "ms");
          ("build.edit_ms", 1000.0 *. strata_median (edit_times ()), "ms");
        ]
      ~rows:[]
  end
