(** The domain-parallelism gate: process-wide switches and gated locks for
    the multicore build driver ([Liblang_compiled.Build]).

    The front end's shared read-mostly tables — the {!Liblang_symbol.Symbol}
    intern table and the {!Liblang_stx.Scope} hash-cons table — must stay
    {e globally} shared across domains (their whole point is one canonical
    representative per name / per scope set, so pointer equality works), which
    means they need mutual exclusion while several domains run.  But the
    single-domain case is the common one, and those tables sit on the
    expander's hot paths, so the locks are {e gated}: {!with_gate} is a plain
    call when no domain pool is active (one uncontended [Atomic.get]), and a
    real mutex acquisition only while one is.

    Protocol: the build driver calls {!with_active} around the whole
    spawn…join window.  [Domain.spawn] happens-after {!enter} and
    [Domain.join] happens-before {!leave}, so every moment at which two
    domains can actually race is a moment at which {!active} is true in all
    of them — the gate cannot be seen "off" by one racing domain and "on" by
    another.  Long-lived pools follow the same bracket at a larger scale:
    the compile server ([Liblang_server.Server]) holds the gate open for
    its worker pool's whole lifetime — {!enter} before the first worker
    domain spawns, {!leave} after the last one joins at shutdown — so
    every request served concurrently runs with the gated locks live.

    The module also hosts the pool-level counters ({!tasks}, {!lock_waits})
    that the build driver reports as [par.tasks] / [par.lock_waits]. *)

(* Number of nested/concurrent activations; > 0 while any domain pool runs. *)
let activations = Atomic.make 0

let[@inline] active () = Atomic.get activations > 0
let enter () = Atomic.incr activations
let leave () = Atomic.decr activations

(** Run [f] with the parallelism gate held open (exception-safe, nestable). *)
let with_active (f : unit -> 'a) : 'a =
  enter ();
  Fun.protect ~finally:leave f

(** Per-worker-domain GC tuning, shared by every domain pool (the build
    driver's task workers, the compile server's request workers).  OCaml 5
    minor collections are stop-the-world across every running domain, so N
    allocation-heavy expanders on default-size nurseries spend most of
    their time in global sync pauses (measured ~4x per-module CPU
    inflation at -j4).  A larger per-worker minor heap amortizes the sync
    points.  [Gc.set] is per-domain and does not propagate through
    [Domain.spawn], so each worker calls this itself, first thing. *)
let tune_worker_gc () : unit =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < 4 * 1024 * 1024 then
    Gc.set { g with Gc.minor_heap_size = 4 * 1024 * 1024 }

(* -- pool counters ----------------------------------------------------------

   Plain atomics (never behind a collector): the driver reads deltas around a
   build and reports them as the [par.*] metrics. *)

(** Tasks executed by domain pools (one per scheduled module compilation or
    bench cell). *)
let tasks = Atomic.make 0

(** Contended lock acquisitions under {!with_lock} — a direct measure of how
    much the shared front-end tables serialize the pool. *)
let lock_waits = Atomic.make 0

(** Task attempts re-run after a transient failure (injected fault,
    [Sys_error], [Unix_error]) — the build driver's retry loop; reported
    as [par.retries]. *)
let retries = Atomic.make 0

(** Tasks killed by their wall-clock deadline — reported as
    [par.timeouts]. *)
let timeouts = Atomic.make 0

(** Acquire [m] for the extent of [f], counting contention in
    {!lock_waits}. *)
let with_lock (m : Mutex.t) (f : unit -> 'a) : 'a =
  if not (Mutex.try_lock m) then begin
    Atomic.incr lock_waits;
    Mutex.lock m
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(** [with_gate m f]: run [f] under [m] while a pool is {!active}, plain
    otherwise.  Safe because activation brackets spawn…join (see above). *)
let[@inline] with_gate (m : Mutex.t) (f : unit -> 'a) : 'a =
  if active () then with_lock m f else f ()
