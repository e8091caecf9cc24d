(** Pipeline metrics: named counters and accumulating wall-clock timers,
    collected by an {e ambient collector} that mirrors the diagnostics
    layer's [Reporter] pattern (install with {!with_collector}; phases
    report through the module-level hooks below).

    The design constraint is {e zero cost when off}: every hook first loads
    {!current} and returns immediately when no collector is installed — no
    allocation, no hashing, no string building.  The hot-interpreter hook
    ({!bump_apps}) is a single load-compare-increment so it can sit inside
    the evaluator's application path without moving the benchmarks.

    Metric names are dotted paths; the conventions (documented in
    [docs/observability.md]) are:

    - ["phase.<name>"]    timers: wall time per pipeline phase
                          (read, expand, typecheck, optimize, compile,
                          instantiate)
    - ["expand.macro.<m>"] counter {e and} timer: applications of macro [m]
                          and the wall time spent inside its transformer
    - ["expand.fuel.<m>"] counter: compile-time evaluation steps burned by
                          macro [m]'s phase-1 procedure
    - ["optimize.<rule>"] counter: firings of one optimizer rewrite rule
    - ["reader.datums"]   counter: top-level datums read
    - ["module.*"]        counters: compiles, instantiations, re-expansions *)

type timer = { mutable total_s : float; mutable calls : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  mutable interp_apps : int;  (** procedure applications in the evaluator *)
}

let create () = { counters = Hashtbl.create 32; timers = Hashtbl.create 16; interp_apps = 0 }

let now () = Unix.gettimeofday ()

(* -- the ambient collector --------------------------------------------------

   Domain-local: the ambient collector slot lives in [Domain.DLS], so each
   parallel-build worker collects into its own [t] and the driver merges
   them on join ({!merge}).  To keep the zero-cost-when-off promise on the
   evaluator's hot path, a process-wide atomic count of installed
   collectors gates every hook: when it is zero (the benchmark case — no
   collector anywhere), the hook is one uncontended [Atomic.get] and a
   branch, with no DLS access at all. *)

let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Collectors installed across all domains; 0 = every hook is off. *)
let installed_count = Atomic.make 0

let[@inline] current () : t option =
  if Atomic.get installed_count = 0 then None else Domain.DLS.get current_key

let installed () = Option.is_some (current ())

(** Install [c] for the extent of [f] (properly nested). *)
let with_collector (c : t) (f : unit -> 'a) : 'a =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some c);
  Atomic.incr installed_count;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed_count;
      Domain.DLS.set current_key saved)
    f

let with_opt (c : t option) (f : unit -> 'a) : 'a =
  match c with None -> f () | Some c -> with_collector c f

(* -- hooks (call sites live throughout lib/) -------------------------------- *)

let count_in c key n =
  match Hashtbl.find_opt c.counters key with
  | Some r -> r := !r + n
  | None -> Hashtbl.add c.counters key (ref n)

(** Add [n] (default 1) to counter [key] of the ambient collector. *)
let countn key n = match current () with None -> () | Some c -> count_in c key n

let count key = countn key 1

(** Accumulate [dt] seconds into timer [key]. *)
let add_time key dt =
  match current () with
  | None -> ()
  | Some c -> (
      match Hashtbl.find_opt c.timers key with
      | Some t ->
          t.total_s <- t.total_s +. dt;
          t.calls <- t.calls + 1
      | None -> Hashtbl.add c.timers key { total_s = dt; calls = 1 })

(** Time [f] into timer [key]; when no collector is installed this is just
    [f ()] — no clock reads. *)
let time key f =
  match current () with
  | None -> f ()
  | Some _ ->
      let t0 = now () in
      Fun.protect ~finally:(fun () -> add_time key (now () -. t0)) f

(** The hot-path hook: one evaluator procedure application.  Kept free of
    allocation and hashing so the evaluator can call it unconditionally —
    with no collector installed anywhere it is one atomic load and a
    branch. *)
let[@inline] bump_apps () =
  if Atomic.get installed_count > 0 then
    match Domain.DLS.get current_key with
    | None -> ()
    | Some c -> c.interp_apps <- c.interp_apps + 1

(* -- reading a collector ---------------------------------------------------- *)

let get (c : t) key = match Hashtbl.find_opt c.counters key with Some r -> !r | None -> 0

let get_ms (c : t) key =
  match Hashtbl.find_opt c.timers key with Some t -> 1000.0 *. t.total_s | None -> 0.0

let counters_alist (c : t) : (string * int) list =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) c.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let timers_alist (c : t) : (string * timer) list =
  Hashtbl.fold (fun k t acc -> (k, t) :: acc) c.timers []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Counters matching a dotted prefix, with the prefix stripped:
    [by_prefix c "optimize."] is the rewrite-rule histogram. *)
let by_prefix (c : t) prefix : (string * int) list =
  let pl = String.length prefix in
  List.filter_map
    (fun (k, n) ->
      if String.length k > pl && String.sub k 0 pl = prefix then
        Some (String.sub k pl (String.length k - pl), n)
      else None)
    (counters_alist c)

let reset (c : t) =
  Hashtbl.reset c.counters;
  Hashtbl.reset c.timers;
  c.interp_apps <- 0

(** Fold collector [c] into [into] (counters, timers, interpreter
    applications).  Used by the CLI to aggregate per-file collectors into a
    session-wide profile, and by the parallel build driver to merge each
    worker domain's collector into the main collector on join. *)
let merge ~(into : t) (c : t) : unit =
  List.iter (fun (k, n) -> count_in into k n) (counters_alist c);
  List.iter
    (fun (k, (t : timer)) ->
      match Hashtbl.find_opt into.timers k with
      | Some dst ->
          dst.total_s <- dst.total_s +. t.total_s;
          dst.calls <- dst.calls + t.calls
      | None -> Hashtbl.add into.timers k { total_s = t.total_s; calls = t.calls })
    (timers_alist c);
  into.interp_apps <- into.interp_apps + c.interp_apps

(* -- reports ---------------------------------------------------------------- *)

(** The canonical phase order of the pipeline (see docs/architecture.md). *)
let phase_order =
  [ "read"; "expand"; "typecheck"; "analyze"; "optimize"; "compile"; "lower"; "load"; "instantiate" ]

(** Human-readable profile report (what [--profile] prints): the phase
    table, then every counter, grouped under the dotted prefix before its
    first ['.'].  A counter with a same-named timer (each
    ["expand.macro.<m>"]) also shows that timer's inclusive ms. *)
let render (c : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== profile ==\n";
  Buffer.add_string buf "phase wall time:\n";
  List.iter
    (fun p ->
      let key = "phase." ^ p in
      match Hashtbl.find_opt c.timers key with
      | Some t -> Buffer.add_string buf (Printf.sprintf "  %-12s %10.3f ms  (%d call%s)\n" p (1000.0 *. t.total_s) t.calls (if t.calls = 1 then "" else "s"))
      | None -> ())
    phase_order;
  let group k = match String.index_opt k '.' with Some i -> String.sub k 0 i | None -> k in
  ignore
    (List.fold_left
       (fun prev (k, n) ->
         let g = group k in
         if prev <> Some g then Buffer.add_string buf (g ^ ":\n");
         let ms = get_ms c k in
         Buffer.add_string buf
           (if ms > 0.0 then Printf.sprintf "  %-36s %8d  %10.3f ms\n" k n ms
            else Printf.sprintf "  %-36s %8d\n" k n);
         Some g)
       None (counters_alist c));
  if c.interp_apps > 0 then
    Buffer.add_string buf (Printf.sprintf "interpreter applications: %d\n" c.interp_apps);
  Buffer.contents buf

(** Machine-readable profile (what [--profile=json] prints); schema in
    docs/observability.md. *)
let to_json (c : t) : Json.t =
  let phases =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt c.timers ("phase." ^ p) with
        | Some t ->
            Some
              ( p,
                Json.Obj
                  [ ("ms", Json.Num (1000.0 *. t.total_s)); ("calls", Json.Num (float_of_int t.calls)) ] )
        | None -> None)
      phase_order
  in
  let other_timers =
    List.filter_map
      (fun (k, (t : timer)) ->
        if String.length k > 6 && String.sub k 0 6 = "phase." then None
        else
          Some
            ( k,
              Json.Obj
                [ ("ms", Json.Num (1000.0 *. t.total_s)); ("calls", Json.Num (float_of_int t.calls)) ] ))
      (timers_alist c)
  in
  Json.Obj
    [
      ("phases", Json.Obj phases);
      ("counters", Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) (counters_alist c)));
      ("timers", Json.Obj other_timers);
      ("interp_apps", Json.Num (float_of_int c.interp_apps));
    ]
