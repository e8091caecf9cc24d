(** The [serve-mixed] workload: the compile server ([Server.serve], two
    request workers) over primed projects, one per connection so expected
    outputs stay fixed, driven in a closed loop by one thread holding two
    connections.  About 95% of requests are warm [run]s of the root
    (reads); the rest rewrite a seeded module of the connection's project
    and then [run] the root (writes). *)

open Common
module Core = Liblang_core.Core
module Server = Liblang_server.Server
module Client = Liblang_server.Client
module P = Liblang_server.Protocol
module Metrics = Core.Metrics

let workers = 2
let connections = 2

(** One request in [write_every] is a write (5%). *)
let write_every = 20

type conn = {
  client : Client.t;
  project : Project.t;
  mutable sent_at : float;
  mutable write : string option;  (** the stratum of the edit before this request *)
  mutable sent : int;  (** requests sent on this connection *)
  phase : int;  (** seeded offset of the connection's writes *)
  mutable expected : string;
}

type daemon = { domain : unit Domain.t; srv : Server.t; socket : string }

let start_daemon ~socket ~cache : daemon =
  let ready = Atomic.make None in
  let cfg =
    {
      Server.socket_path = socket;
      cache_dir = cache;
      workers;
      default_jobs = 1;
      fuel = None;
      engine = Liblang_core.Pipeline.Interp;
      session_ttl = None;
      max_sessions = None;
    }
  in
  let domain = Domain.spawn (fun () -> Server.serve ~on_ready:(fun srv -> Atomic.set ready (Some srv)) cfg) in
  let rec wait n =
    match Atomic.get ready with
    | Some srv -> srv
    | None when n > 0 ->
        Unix.sleepf 0.005;
        wait (n - 1)
    | None -> failwith "compile server did not start"
  in
  { domain; srv = wait 2000; socket }

let stop_daemon (d : daemon) =
  (match Client.connect ~retries:50 d.socket with
  | Ok c ->
      ignore (Client.request c P.Shutdown);
      Client.close c
  | Error _ -> ());
  Domain.join d.domain

(** The daemon's own counters and timers.  Read only while every
    connection is idle and after the last reply's merge has landed. *)
let daemon_snap (d : daemon) = Ledger.snap (Server.metrics d.srv)

let daemon_count (d : daemon) k = Metrics.get (Server.metrics d.srv) k

type stats = {
  mutable reads : float list;
  mutable writes : (string * float) list;
  mutable write_compiles : int list;
  mutable attempted : int;
  mutable failures : string list;
}

let artifact_bytes = ref 0

let run (cfg : Workload.cfg) : Workload.result =
  let g0 = Gc.quick_stat () in
  with_workdir "serve-mixed" @@ fun work ->
  let rng = Random.State.make [| cfg.seed |] in
  let st = { reads = []; writes = []; write_compiles = []; attempted = 0; failures = [] } in
  let fail m = st.failures <- m :: st.failures in
  (* unix socket paths are short: bind relative to the checkout root *)
  let socket = Printf.sprintf ".bench_build/serve-%d.sock" (Unix.getpid ()) in
  let cache = Filename.concat work "cache" in
  let programs =
    List.filter (fun (p : Programs.t) -> List.mem p.Programs.name [ "fib"; "nbody"; "deriv" ]) Programs.all
  in
  let check_reply (c : conn) (r : (Core.Json.t, string) result) =
    st.attempted <- st.attempted + 1;
    match r with
    | Ok j when Client.ok_of j && String.equal (Client.output_of j) c.expected -> Some j
    | Ok j ->
        fail
          (Printf.sprintf "run of %s: ok=%b output %S, expected %S (%s)" (Project.root c.project)
             (Client.ok_of j) (Client.output_of j) c.expected
             (Option.value ~default:"" (Client.error_of j)));
        None
    | Error e ->
        fail ("request failed: " ^ e);
        None
  in
  let send (c : conn) =
    c.expected <- Project.expected c.project;
    c.sent_at <- now ();
    match Client.send c.client (P.Run { path = Project.root c.project; fuel = None }) with
    | Ok _ -> ()
    | Error e -> fail ("send failed: " ^ e)
  in
  (* set-up: generate the projects, build them into the shared store,
     start the daemon, connect, and prime each session with one run *)
  let setup () =
    rm_rf cache;
    let projects =
      Ledger.span ~layer:"bench" "generate" (fun () ->
          List.init connections (fun i ->
              Project.generate ~rng ~dir:(Filename.concat work (Printf.sprintf "p%d" i)) ~n:8 ~depth:8 programs))
    in
    List.iter
      (fun p ->
        match
          Ledger.span ~layer:"compiled" "Pipeline.build_files" (fun () ->
              Ledger.derived_of ~ways:Project.jobs (fun () ->
                  Liblang_core.Pipeline.build_files ~jobs:Project.jobs ~cache_dir:cache [ Project.root p ]))
        with
        | Ok _ -> ()
        | Error _ -> fail "pre-build of a serve project failed")
      projects;
    artifact_bytes := bytes_under ~suffix:".lart" cache;
    Core.Compiled.reset_session ();
    let d = Ledger.span ~layer:"server" "Server.serve (start)" (fun () -> start_daemon ~socket ~cache) in
    let conns =
      List.map
        (fun project ->
          match Client.connect ~retries:200 socket with
          | Ok client -> { client; project; sent_at = 0.0; write = None; sent = 0; phase = Random.State.int rng write_every; expected = "" }
          | Error e -> failwith e)
        projects
    in
    Ledger.span ~layer:"server" "Client.request (prime)" (fun () ->
        List.iter
          (fun c ->
            c.expected <- Project.expected c.project;
            ignore (check_reply c (Client.request c.client (P.Run { path = Project.root c.project; fuel = None }))))
          conns);
    (d, conns)
  in
  let t0 = now () in
  let d, conns = Ledger.segment_if cfg.trace "setup" setup in
  let setup_s = now () -. t0 in
  reset_peak_rss ();
  (* the body returns the result given the words the process allocated,
     known once the daemon's worker domains have exited *)
  let result_of_alloc =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> Client.close c.client) conns;
      stop_daemon d)
  @@ fun () ->
  (* the closed loop: each connection always has one request in flight;
     [next] picks the following request of a connection *)
  let next (c : conn) ~(decide : unit -> Project.edit option) =
    (match decide () with
    | Some e ->
        Ledger.span ~layer:"bench" "edit" (fun () -> Project.apply c.project e);
        c.write <- Some (Project.stratum c.project e)
    | None -> c.write <- None);
    send c
  in
  let loop ~(continue : conn -> bool) ~decide =
    List.iter (fun c -> next c ~decide:(fun () -> decide c)) conns;
    let inflight = ref (List.length conns) in
    while !inflight > 0 do
      let fds = List.map (fun c -> c.client.Client.fd) conns in
      let ready, _, _ = try Unix.select fds [] [] 5.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
      if ready = [] then begin
        fail "no reply within 5 s";
        inflight := 0
      end;
      List.iter
        (fun c ->
          if List.mem c.client.Client.fd ready then begin
            let r = Client.recv c.client in
            let dt = 1000.0 *. (now () -. c.sent_at) in
            decr inflight;
            (match Ledger.span ~layer:"bench" "check reply" (fun () -> check_reply c r) with
            | Some j -> (
                match c.write with
                | Some k ->
                    st.writes <- (k, dt) :: st.writes;
                    st.write_compiles <- Client.summary_count j "compiles" :: st.write_compiles
                | None ->
                    st.reads <- dt :: st.reads;
                    (* a warm read compiles nothing *)
                    let n = Client.summary_count j "compiles" in
                    if n <> 0 then fail (Printf.sprintf "warm run compiled %d modules" n))
            | None -> ());
            if continue c then begin
              incr inflight;
              next c ~decide:(fun () -> decide c)
            end
          end)
        conns
    done
  in
  (* every [write_every]-th request of a connection is a write, and writes
     cycle through the edit strata, so every seed writes the same mix of
     cone sizes at the same rate; the seed picks the phase, the modules and
     the new constants *)
  let random_edit (c : conn) () =
    c.sent <- c.sent + 1;
    if (c.sent + c.phase) mod write_every = 0 then
      Some (Project.stratum_edit ~rng c.project ((c.sent + c.phase) / write_every))
    else None
  in
  if not cfg.trace then begin
    let deadline = now () +. cfg.seconds in
    let t0 = now () in
    loop ~continue:(fun _ -> now () < deadline) ~decide:(fun c -> random_edit c ());
    let wall = now () -. t0 in
    let all = st.reads @ List.map snd st.writes in
    let read50 = median st.reads and write50 = Project.strata_median st.writes in
    let p50 = median all and p99 = quantile all 0.99 in
    let rps = float_of_int (List.length all) /. wall in
    fun _ ->
    Workload.finish ~attempted:st.attempted ~failures:(List.rev st.failures)
      ~e2e:
        [
          ("setup_s", setup_s);
          ("op_ms", geomean [ read50; write50 ]);
          ("fast_path_ms", read50);
          ("slow_path_ms", write50);
          ("tail_ms", p99);
          ("ops_per_s", rps);
          ("peak_rss_mb", peak_rss_mb ());
        ]
      ~named:
        [
          ("req_p50_ms", p50, "ms");
          ("req_p99_ms", p99, "ms");
          ("edit_p50_ms", write50, "ms");
          ("req_per_s", rps, "req/s");
        ]
    |> fun r ->
    {
      r with
      Workload.report =
        r.Workload.report
        ^ Printf.sprintf "requests: %d (%d reads, %d writes), %d beyond p99\n" (List.length all)
            (List.length st.reads) (List.length st.writes)
            (List.length (List.filter (fun x -> x > p99) all));
    }
  end
  else begin
    (* the same decisions for the untraced and the traced pass: each
       connection sends exactly [per_conn] requests of its plan *)
    let per_conn = 300 in
    let plan = List.map (fun c -> (c, Array.init per_conn (fun _ -> random_edit c ()))) conns in
    let pass () =
      let used = List.map (fun c -> (c, ref 0)) conns in
      let t0 = now () in
      loop
        ~continue:(fun c -> !(List.assq c used) < per_conn)
        ~decide:(fun c ->
          let i = List.assq c used in
          incr i;
          (List.assq c plan).(!i - 1));
      now () -. t0
    in
    let settle_merge () = Ledger.span ~layer:"bench" "await reply merges" (fun () -> Unix.sleepf 0.1) in
    settle_merge ();
    let untraced = pass () in
    settle_merge ();
    st.reads <- [];
    st.writes <- [];
    st.write_compiles <- [];
    let s1 = daemon_snap d in
    let inv1 = daemon_count d "server.invalidated" and err1 = daemon_count d "server.errors" in
    let traced, s2 =
      Ledger.segment "measure" (fun () ->
          Ledger.span ~layer:"server" "Client.request loop" (fun () ->
              let t = pass () in
              settle_merge ();
              let s2 = daemon_snap d in
              Ledger.attach (Ledger.derive ~ways:workers s1 s2);
              Ledger.absorb s1 s2;
              (t, s2)))
    in
    let writes = List.length st.writes in
    let per_write n = float_of_int n /. float_of_int (max 1 writes) in
    let requests = List.length st.reads + writes in
    let timer_per_req k = 1000.0 *. Ledger.timer_delta s1 s2 k /. float_of_int (max 1 requests) in
    fun (minor, major) ->
    Workload.traced ~attempted:st.attempted ~failures:(List.rev st.failures) ~untraced ~traced
      ~extra:
        [
          ("runtime.minor_words", minor, "words");
          ("runtime.major_words", major, "words");
          ("server.rtt_ms", median (st.reads @ List.map snd st.writes), "ms");
          ("server.request_ms", timer_per_req "server.request", "ms");
          ("server.queued_ms", timer_per_req "server.queued_ms", "ms");
          ("server.invalidated", per_write (daemon_count d "server.invalidated" - inv1), "count");
          ("server.compiles", per_write (List.fold_left ( + ) 0 st.write_compiles), "count");
          ("server.errors", float_of_int (daemon_count d "server.errors" - err1), "count");
          ("compiled.recompiles_per_edit", per_write (List.fold_left ( + ) 0 st.write_compiles), "count");
          ("server.requests", float_of_int requests, "count");
          ("compiled.artifact_kb", float_of_int !artifact_bytes /. 1024.0, "KiB");
        ]
      ~rows:[]
  end
  in
  let g = Gc.quick_stat () in
  result_of_alloc (g.Gc.minor_words -. g0.Gc.minor_words, g.Gc.major_words -. g0.Gc.major_words)
