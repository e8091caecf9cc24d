(** The traced-run ledger: the benchmark's own spans around its calls into
    each [lib/] layer, kept in memory and reduced at the end to per-layer
    self and inclusive times whose sum, with an explicit [unattributed]
    row, is the traced wall time.

    Layers that run nested inside another layer's public call — typecheck
    and optimize inside the typed [#%module-begin], the analysis, the
    worker-domain phases of a parallel build, the daemon's request phases —
    are not visible as calls from here.  For those the ledger attaches
    {e derived} children to the enclosing span, computed from the
    [phase.*] timers the program already keeps (read through the public
    [Metrics] collector).  When [n] domains run the nested work (a [-j n]
    build, an [n]-worker daemon), a derived child gets [1/n] of its summed
    time: each domain holds [1/n] of the pool's wall time.  The enclosing
    span keeps the remainder as its own self time. *)

open Common

let layers =
  [
    "reader"; "expander"; "typed"; "analysis"; "modules"; "runtime"; "contracts"; "backend";
    "compiled"; "server"; "bench";
  ]

type span = {
  id : int;
  parent : int;  (** -1: a top-level span of its segment *)
  name : string;
  layer : string;
  t0 : float;
  mutable t1 : float;
  mutable derived : (string * string * float) list;  (** (layer, name, seconds) *)
}

type segment = { seg_name : string; s0 : float; mutable s1 : float }

let on = ref false

(** The collector installed for every traced segment; the per-layer
    counters and the [phase.*] timers of the whole traced run. *)
let collector : Liblang_core.Core.Metrics.t option ref = ref None

let spans : span list ref = ref []
let segments : segment list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let reset () =
  collector := None;
  spans := [];
  segments := [];
  stack := [];
  next_id := 0

(* -- accumulators for calls made through the program's public hooks ------- *)

(** A time accumulator safe to bump from any domain. *)
type acc = { mu : Mutex.t; mutable total : float }

let acc () = { mu = Mutex.create (); total = 0.0 }

let bump (a : acc) dt =
  Mutex.lock a.mu;
  a.total <- a.total +. dt;
  Mutex.unlock a.mu

let read_acc (a : acc) =
  Mutex.lock a.mu;
  let r = a.total in
  Mutex.unlock a.mu;
  r

(** Time spent evaluating module bodies ([Modsys.evaluator], the runtime's
    entry point) and in file requires resolved during expansion
    ([Modsys.file_require_handler], the compiled layer's entry point). *)
let eval_acc = acc ()
let require_acc = acc ()

(** The layer that evaluation belongs to: the runtime, or the backend while
    the bytecode VM is the evaluator. *)
let eval_layer = ref "runtime"

let require_depth : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

module Modsys = Liblang_core.Core.Modsys

(** [ev] with each call's time added to [eval_acc]. *)
let timed_eval ev ast =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> bump eval_acc (now () -. t0)) (fun () -> ev ast)

(** Wrap the module system's two hooks so calls through them are timed;
    restored when [f] returns. *)
let with_hooks (f : unit -> 'a) : 'a =
  let saved_eval = !Modsys.evaluator and saved_req = !Modsys.file_require_handler in
  Modsys.evaluator := timed_eval saved_eval;
  (Modsys.file_require_handler :=
     fun ~path ~loc ->
       let d = Domain.DLS.get require_depth in
       incr d;
       let t0 = now () in
       Fun.protect
         ~finally:(fun () ->
           decr d;
           (* only the outermost require: a nested one is inside it *)
           if !d = 0 then bump require_acc (now () -. t0))
         (fun () -> saved_req ~path ~loc));
  Fun.protect
    ~finally:(fun () ->
      Modsys.evaluator := saved_eval;
      Modsys.file_require_handler := saved_req)
    f

(** Run [f] under a temporarily swapped evaluator, keeping the timing
    wrapper when one is installed. *)
let with_evaluator ?(layer = "runtime") ev (f : unit -> 'a) : 'a =
  let saved = !Modsys.evaluator and saved_layer = !eval_layer in
  eval_layer := layer;
  Modsys.evaluator := if !on then timed_eval ev else ev;
  Fun.protect
    ~finally:(fun () ->
      Modsys.evaluator := saved;
      eval_layer := saved_layer)
    f

(** A traced segment: the ledger's wall time is the sum of its segments,
    so untraced passes between them stay out of the trace. *)
let segment (name : string) (f : unit -> 'a) : 'a =
  let c =
    match !collector with
    | Some c -> c
    | None ->
        let c = Liblang_core.Core.Metrics.create () in
        collector := Some c;
        c
  in
  let s = { seg_name = name; s0 = now (); s1 = nan } in
  on := true;
  Fun.protect
    ~finally:(fun () ->
      s.s1 <- now ();
      on := false;
      segments := s :: !segments)
    (fun () -> Liblang_core.Core.Metrics.with_collector c (fun () -> with_hooks f))

(** [segment] when [trace] holds, else a plain call. *)
let segment_if (trace : bool) name f = if trace then segment name f else f ()

(** Record a span of [layer] around [f] (the caller's call into that
    layer).  Free when tracing is off. *)
let span ~(layer : string) (name : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s = { id = !next_id; parent; name; layer; t0 = now (); t1 = nan; derived = [] } in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(** Attach derived children to the innermost open span. *)
let attach (children : (string * string * float) list) : unit =
  if !on then
    match !stack with
    | s :: _ -> s.derived <- s.derived @ List.filter (fun (_, _, t) -> t > 0.0) children
    | [] -> ()

(* -- derived children from the program's phase timers ----------------------- *)

module Metrics = Liblang_core.Core.Metrics

type snap = {
  timers : (string * float) list;
  counters : (string * int) list;
  eval : float;
  req : float;
}

let snap (c : Metrics.t) : snap =
  {
    timers = List.map (fun (k, (t : Metrics.timer)) -> (k, t.Metrics.total_s)) (Metrics.timers_alist c);
    counters = Metrics.counters_alist c;
    eval = read_acc eval_acc;
    req = read_acc require_acc;
  }

let timer_delta (a : snap) (b : snap) key =
  let g s = Option.value ~default:0.0 (List.assoc_opt key s.timers) in
  g b -. g a

(** Add what another collector counted and timed between snapshots [a] and
    [b] (the daemon's, around a traced pass) to the traced run's collector. *)
let absorb (a : snap) (b : snap) : unit =
  match !collector with
  | None -> ()
  | Some c ->
      Metrics.with_collector c (fun () ->
          List.iter
            (fun (k, n) -> Metrics.countn k (n - Option.value ~default:0 (List.assoc_opt k a.counters)))
            b.counters;
          List.iter (fun (k, _) -> Metrics.add_time k (timer_delta a b k)) b.timers)

(** The layer split of the work done between snapshots [a] and [b],
    divided by [ways] domains: the phase timers nest as
    [expand ⊃ {typecheck, optimize, analyze, file requires}] and
    [instantiate ⊃ evaluation]; every other phase is a sibling. *)
let derive ?(ways = 1) (a : snap) (b : snap) : (string * string * float) list =
  let d = timer_delta a b in
  let w = float_of_int (max 1 ways) in
  let read = d "phase.read"
  and expand = d "phase.expand"
  and check = d "phase.typecheck"
  and opt = d "phase.optimize"
  and analyze = d "phase.analyze"
  and compile = d "phase.compile"
  and lower = d "phase.lower"
  and load = d "phase.load"
  and inst = d "phase.instantiate" in
  let eval = b.eval -. a.eval and req = b.req -. a.req in
  let expander_self = Float.max 0.0 (expand -. check -. opt -. analyze -. req) in
  let modules_inst = Float.max 0.0 (inst -. eval) in
  List.map
    (fun (l, n, t) -> (l, n, t /. w))
    [
      ("reader", "phase.read", read);
      ("expander", "phase.expand (self)", expander_self);
      ("typed", "phase.typecheck", check);
      ("typed", "phase.optimize", opt);
      ("analysis", "phase.analyze", analyze);
      ("modules", "phase.compile", compile);
      ("modules", "phase.instantiate (self)", modules_inst);
      (!eval_layer, "evaluation", eval);
      ("backend", "phase.lower", lower);
      ("compiled", "phase.load", load);
    ]

(** [derived_of f]: a call whose nested layers are read from the traced
    run's collector and attached as derived children of the innermost open
    span. *)
let derived_of ?ways (f : unit -> 'a) : 'a =
  match !collector with
  | Some c when !on ->
      let a = snap c in
      let r = f () in
      attach (derive ?ways a (snap c));
      r
  | _ -> f ()

(* -- moving a ledger out of a child process ------------------------------------ *)

(** What a forked child recorded: its new spans, and its collector and
    accumulators (which started as copies of the parent's). *)
type export = {
  e_spans : span list;
  e_collector : Metrics.t option;
  e_eval : float;
  e_req : float;
  e_next : int;
}

let export ~(since : int) : export =
  {
    e_spans = List.filter (fun s -> s.id > since) !spans;
    e_collector = !collector;
    e_eval = read_acc eval_acc;
    e_req = read_acc require_acc;
    e_next = !next_id;
  }

let import (e : export) =
  spans := e.e_spans @ !spans;
  (* the child's collector started as a copy of ours: take its contents,
     keeping our (installed) collector object *)
  (match (!collector, e.e_collector) with
  | Some c, Some child ->
      Metrics.reset c;
      Metrics.merge ~into:c child
  | _, child -> collector := child);
  eval_acc.total <- e.e_eval;
  require_acc.total <- e.e_req;
  next_id := e.e_next

(* -- reduction --------------------------------------------------------------- *)

type row = { layer : string; self_s : float; incl_s : float }

type report = {
  wall_s : float;
  rows : row list;  (** one per layer, in {!layers} order *)
  unattributed_s : float;
  paths : (string * int * float * float) list;  (** span path, count, inclusive, self *)
  segment_walls : (string * float) list;
}

let reduce () : report =
  let all = List.rev !spans in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace children s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    all;
  let self_by = Hashtbl.create 16 and incl_by = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let paths = Hashtbl.create 64 in
  let add_path p incl self =
    let n, i, s = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt paths p) in
    Hashtbl.replace paths p (n + 1, i +. incl, s +. self)
  in
  let rec path s =
    if s.parent < 0 then s.name
    else match Hashtbl.find_opt by_id s.parent with Some p -> path p ^ " > " ^ s.name | None -> s.name
  in
  let rec inside_same_layer s =
    s.parent >= 0
    &&
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> String.equal p.layer s.layer || inside_same_layer p
    | None -> false
  in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let real = List.fold_left (fun acc k -> acc +. (k.t1 -. k.t0)) 0.0 kids in
      let room = Float.max 0.0 (dur -. real) in
      let derived_total = List.fold_left (fun acc (_, _, t) -> acc +. t) 0.0 s.derived in
      (* derived children never exceed the time their span left them *)
      let scale = if derived_total > room && derived_total > 0.0 then room /. derived_total else 1.0 in
      let p = path s in
      List.iter
        (fun (l, n, t) ->
          let t = t *. scale in
          add self_by l t;
          if not (String.equal l s.layer) then add incl_by l t;
          add_path (p ^ " > [" ^ l ^ "] " ^ n) t t)
        s.derived;
      let self = room -. (derived_total *. scale) in
      add self_by s.layer self;
      if not (inside_same_layer s) then add incl_by s.layer dur;
      add_path (Printf.sprintf "%s [%s]" p s.layer) dur self)
    all;
  let segs = List.rev !segments in
  let wall = List.fold_left (fun acc g -> acc +. (g.s1 -. g.s0)) 0.0 segs in
  let top = List.fold_left (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc) 0.0 all in
  let get tbl l = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
  {
    wall_s = wall;
    rows = List.map (fun l -> { layer = l; self_s = get self_by l; incl_s = get incl_by l }) layers;
    unattributed_s = wall -. top;
    segment_walls = List.map (fun g -> (g.seg_name, g.s1 -. g.s0)) segs;
    paths =
      Hashtbl.fold (fun p (n, i, s) acc -> (p, n, i, s) :: acc) paths []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b);
  }

let self_ms (r : report) layer =
  match List.find_opt (fun row -> String.equal row.layer layer) r.rows with
  | Some row -> 1000.0 *. row.self_s
  | None -> 0.0

let render (r : report) ~(overhead_ms : float) ~(untraced_ms : float) ~(traced_ms : float) : string =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "== traced run: wall %.3f ms (%s) ==\n" (1000.0 *. r.wall_s)
    (String.concat ", " (List.map (fun (n, w) -> Printf.sprintf "%s %.3f ms" n (1000.0 *. w)) r.segment_walls));
  pr "%-12s %12s %12s %7s\n" "layer" "self ms" "incl ms" "self%";
  List.iter
    (fun row ->
      pr "%-12s %12.3f %12.3f %6.1f%%\n" row.layer (1000.0 *. row.self_s) (1000.0 *. row.incl_s)
        (100.0 *. row.self_s /. r.wall_s))
    r.rows;
  pr "%-12s %12.3f %12s %6.1f%%\n" "unattributed" (1000.0 *. r.unattributed_s) ""
    (100.0 *. r.unattributed_s /. r.wall_s);
  let sum = List.fold_left (fun acc row -> acc +. row.self_s) r.unattributed_s r.rows in
  pr "%-12s %12.3f   (traced wall %.3f ms)\n" "sum" (1000.0 *. sum) (1000.0 *. r.wall_s);
  pr "tracing overhead: %.3f ms (measured pass traced %.3f ms, untraced %.3f ms)\n" overhead_ms
    traced_ms untraced_ms;
  pr "span tree (path, count, inclusive ms, self ms):\n";
  List.iter (fun (p, n, i, s) -> pr "  %-90s %6d %12.3f %12.3f\n" p n (1000.0 *. i) (1000.0 *. s)) r.paths;
  Buffer.contents b
