(** Tests for the compile server (lib/server/): the frame codec and its
    rejection of malformed input, session isolation between concurrent
    clients, warm requests that compile nothing, incremental invalidation
    of edited files, and fault containment ([server.session] kills one
    session, never the daemon).

    The daemon under test runs in a spawned domain of this process,
    listening on a socket in a fresh temp dir; tests speak to it through
    the real {!Client}.  Each server test ends with a [shutdown] request
    and joins the domain, so no state leaks between tests. *)

open Test_util
module Core = Liblang_core.Core
module Json = Core.Json
module Fault = Core.Fault
module P = Liblang_server.Protocol
module Server = Liblang_server.Server
module Client = Liblang_server.Client

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "liblang-test-server-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ());
  d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* -- the frame codec ----------------------------------------------------------- *)

(* Round-trip [j] through a real pipe (exercising the fd reader, not just
   string functions). *)
let roundtrip (j : Json.t) : P.frame =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      P.write_frame w j;
      P.read_frame r)

let codec_roundtrip () =
  List.iter
    (fun j ->
      match roundtrip j with
      | P.Frame j' -> check_s "round-trip" (Json.to_string j) (Json.to_string j')
      | P.Eof -> Alcotest.fail "unexpected EOF"
      | P.Malformed m -> Alcotest.failf "unexpected malformed: %s" m)
    [
      Json.Null;
      Json.Obj [ ("op", Json.Str "status") ];
      Json.Obj
        [
          ("id", Json.Num 7.0);
          ("op", Json.Str "run");
          ("path", Json.Str "/tmp/weird \"name\"\nwith newline.scm");
        ];
      Json.Arr [ Json.Num 1.0; Json.Bool true; Json.Str "x" ];
    ]

(* Feed raw bytes to the frame reader. *)
let read_raw (bytes : string) : P.frame =
  let r, w = Unix.pipe () in
  let n = Unix.write_substring w bytes 0 (String.length bytes) in
  assert (n = String.length bytes);
  Unix.close w;
  Fun.protect ~finally:(fun () -> try Unix.close r with Unix.Unix_error _ -> ()) (fun () -> P.read_frame r)

let codec_malformed () =
  let expect_malformed label bytes =
    match read_raw bytes with
    | P.Malformed _ -> ()
    | P.Frame j -> Alcotest.failf "%s: accepted as %s" label (Json.to_string j)
    | P.Eof -> Alcotest.failf "%s: reported EOF" label
  in
  expect_malformed "non-digit header" "abc\n{}\n";
  expect_malformed "empty header" "\n{}\n";
  expect_malformed "oversized length" "999999999\n";
  expect_malformed "header too long" "1234567890123\n";
  expect_malformed "truncated payload" "10\n{}";
  expect_malformed "missing terminator" "2\n{}X";
  expect_malformed "payload not JSON" "5\nhello\n";
  expect_malformed "cut mid-header" "12";
  match read_raw "" with
  | P.Eof -> ()
  | _ -> Alcotest.fail "clean EOF not reported as Eof"

let request_parsing () =
  let parse s =
    match Json.parse s with
    | Ok j -> P.request_of_json j
    | Error m -> Alcotest.failf "test JSON does not parse: %s" m
  in
  (match parse {|{"id":3,"op":"run","path":"/x.scm","fuel":100}|} with
  | Ok { P.id = Json.Num 3.0; req = P.Run { path = "/x.scm"; fuel = Some 100 } } -> ()
  | Ok _ -> Alcotest.fail "run request parsed wrong"
  | Error m -> Alcotest.failf "run request rejected: %s" m);
  (match parse {|{"op":"compile","path":"/x.scm"}|} with
  | Ok { P.id = Json.Null; req = P.Compile { path = "/x.scm"; jobs = None } } -> ()
  | _ -> Alcotest.fail "compile request parsed wrong");
  let rejected s =
    match parse s with Error _ -> () | Ok _ -> Alcotest.failf "accepted: %s" s
  in
  rejected {|{"op":"frobnicate"}|};
  rejected {|{"op":"run"}|};
  rejected {|{"op":42}|};
  rejected {|{"path":"/x.scm"}|};
  rejected {|[1,2,3]|}

(* -- a live daemon -------------------------------------------------------------- *)

(* Start a daemon in a spawned domain; run [f socket dir], then shut the
   daemon down and join it (even when [f] raises).  Two worker domains by
   default, so every test exercises the concurrent dispatch path. *)
let with_server ?(workers = 2) ?session_ttl ?max_sessions
    (f : string -> string -> unit) : unit =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "server.sock" in
  let cfg =
    {
      Server.socket_path = socket;
      cache_dir = Filename.concat dir "cache";
      workers;
      default_jobs = 1;
      fuel = None;
      engine = Liblang_core.Pipeline.Interp;
      session_ttl;
      max_sessions;
    }
  in
  let d = Domain.spawn (fun () -> Server.serve cfg) in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect ~retries:20 socket with
      | Ok c ->
          ignore (Client.request c P.Shutdown);
          Client.close c
      | Error _ -> ());
      Domain.join d)
    (fun () -> f socket dir)

let connect socket =
  match Client.connect ~retries:100 socket with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let request c req =
  match Client.request c req with
  | Ok j -> j
  | Error m -> Alcotest.failf "request: %s" m

let run_req c path = request c (P.Run { path; fuel = None })
let compile_req c path = request c (P.Compile { path; jobs = None })

(* The three-module project of the invalidation tests: main requires two
   leaves.  Sources deliberately differ in length across edits so the
   resolver's (mtime, size) fast path cannot mask a same-second rewrite. *)
let project dir =
  write_file (Filename.concat dir "left.scm")
    "#lang racket\n(provide l)\n(define l 10)\n";
  write_file (Filename.concat dir "right.scm")
    "#lang racket\n(provide r)\n(define r 1)\n";
  write_file (Filename.concat dir "main.scm")
    "#lang racket\n(require \"left.scm\")\n(require \"right.scm\")\n(display (+ l r))\n";
  Filename.concat dir "main.scm"

let warm_requests_compile_nothing () =
  with_server (fun socket dir ->
      let main = project dir in
      let c1 = connect socket in
      let j = compile_req c1 main in
      check_b "cold compile ok" true (Client.ok_of j);
      check_i "cold compiles" 3 (Client.summary_count j "compiles");
      (* same session again: everything is in the session memo *)
      let j = compile_req c1 main in
      check_b "warm compile ok" true (Client.ok_of j);
      check_i "warm same-session compiles" 0 (Client.summary_count j "compiles");
      Client.close c1;
      (* a brand-new session: satisfied from the artifact store *)
      let c2 = connect socket in
      let j = compile_req c2 main in
      check_i "warm new-session compiles" 0 (Client.summary_count j "compiles");
      check_i "warm new-session artifact hits" 3 (Client.summary_count j "hits");
      let j = run_req c2 main in
      check_b "warm run ok" true (Client.ok_of j);
      check_s "warm run output" "11" (Client.output_of j);
      check_i "warm run compiles" 0 (Client.summary_count j "compiles");
      Client.close c2)

let invalidation_recompiles_dirty_cone () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      check_s "cold output" "11" (Client.output_of (run_req c main));
      (* edit one leaf (different length, see [project]); only it and its
         dependent cone — main — may recompile *)
      write_file (Filename.concat dir "right.scm")
        "#lang racket\n(provide r)\n(define r 100)\n";
      let j = run_req c main in
      check_s "edited output" "110" (Client.output_of j);
      check_i "only the dirty cone recompiles" 2 (Client.summary_count j "compiles");
      (* untouched project: nothing recompiles, output repeats *)
      let j = run_req c main in
      check_s "steady output" "110" (Client.output_of j);
      check_i "steady compiles" 0 (Client.summary_count j "compiles");
      Client.close c)

let sessions_are_isolated () =
  with_server (fun socket dir ->
      (* two directories declaring the same module names with different
         meanings; one session per directory, requests interleaved *)
      let mk sub tag =
        let d = Filename.concat dir sub in
        (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ());
        write_file (Filename.concat d "decl.scm")
          (Printf.sprintf "#lang racket\n(provide tag)\n(define tag %d)\n" tag);
        write_file (Filename.concat d "prog.scm")
          "#lang racket\n(require \"decl.scm\")\n(display tag)\n";
        Filename.concat d "prog.scm"
      in
      let prog_a = mk "a" 1 and prog_b = mk "b" 2 in
      let ca = connect socket and cb = connect socket in
      check_s "session A" "1" (Client.output_of (run_req ca prog_a));
      check_s "session B" "2" (Client.output_of (run_req cb prog_b));
      (* interleaved warm re-runs: neither session sees the other's
         [decl]/[prog] registrations *)
      check_s "session A again" "1" (Client.output_of (run_req ca prog_a));
      check_s "session B again" "2" (Client.output_of (run_req cb prog_b));
      Client.close ca;
      Client.close cb)

let session_fault_spares_daemon () =
  with_server (fun socket dir ->
      let main = project dir in
      let c1 = connect socket in
      check_s "before fault" "11" (Client.output_of (run_req c1 main));
      (* arm the chaos plan: every request faults at server.session *)
      (match Fault.parse "seed=7;server.session=error" with
      | Ok plan -> Fault.install (Some plan)
      | Error m -> Alcotest.failf "plan: %s" m);
      Fun.protect ~finally:(fun () -> Fault.install None) (fun () ->
          let j = run_req c1 main in
          check_b "faulted request fails" false (Client.ok_of j);
          (match Client.error_of j with
          | Some e -> check_b "error names the fault" true (contains e "injected fault")
          | None -> Alcotest.fail "faulted response carries no error");
          (* the session died with its connection... *)
          match Client.request c1 (P.Run { path = main; fuel = None }) with
          | Ok _ -> Alcotest.fail "killed session still answers"
          | Error _ -> Client.close c1);
      (* ...but the daemon did not: a fresh session works *)
      let c2 = connect socket in
      check_s "daemon survives" "11" (Client.output_of (run_req c2 main));
      Client.close c2)

let malformed_frame_closes_only_that_connection () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      (* speak garbage on a raw socket *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let garbage = "not a frame at all\n" in
      ignore (Unix.write_substring fd garbage 0 (String.length garbage));
      (match P.read_frame fd with
      | P.Frame j ->
          check_b "64 for protocol error" true (Client.exit_of j = 64);
          check_b "not ok" false (Client.ok_of j)
      | _ -> Alcotest.fail "no error response to a malformed frame");
      (* the server closed the offender... *)
      (match P.read_frame fd with
      | P.Eof -> ()
      | _ -> Alcotest.fail "offending connection not closed");
      Unix.close fd;
      (* ...and still serves the well-behaved connection *)
      check_s "daemon survives garbage" "11" (Client.output_of (run_req c main));
      Client.close c)

let errors_are_diagnostics () =
  with_server (fun socket dir ->
      let bad = Filename.concat dir "bad.scm" in
      write_file bad "#lang racket\n(display (+ 1 \"two\"))\n";
      let c = connect socket in
      let j = run_req c bad in
      check_b "runtime error not ok" false (Client.ok_of j);
      check_i "exit 1 for program diagnostics" 1 (Client.exit_of j);
      (match Client.rendered_of j with
      | Some r -> check_b "rendered report present" true (String.length r > 0)
      | None -> Alcotest.fail "no rendered report");
      (* the session survives its program's failure *)
      let main = project dir in
      check_s "session survives a diagnostic" "11" (Client.output_of (run_req c main));
      (* missing file *)
      let j = run_req c (Filename.concat dir "nope.scm") in
      check_b "missing file not ok" false (Client.ok_of j);
      Client.close c)

let status_and_expand () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      ignore (run_req c main);
      let j = request c P.Status in
      check_b "status ok" true (Client.ok_of j);
      (match Json.member "status" j with
      | Some s ->
          let n k =
            match Option.bind (Json.member k s) Json.to_num with
            | Some f -> int_of_float f
            | None -> -1
          in
          check_b "requests counted" true (n "requests" >= 1);
          check_b "sessions counted" true (n "sessions" >= 1);
          check_b "pid is ours" true (n "pid" = Unix.getpid ())
      | None -> Alcotest.fail "status response carries no status object");
      let j = request c (P.Expand { path = main }) in
      check_b "expand ok" true (Client.ok_of j);
      check_b "expand output mentions the require"
        true
        (contains (Client.output_of j) "left");
      Client.close c)

(* -- pipelining, cancellation, lifecycle ---------------------------------------- *)

(* Install [plan] (parsed) for the extent of [f]. *)
let with_plan (spec : string) (f : unit -> unit) : unit =
  (match Fault.parse spec with
  | Ok plan -> Fault.install (Some plan)
  | Error m -> Alcotest.failf "plan: %s" m);
  Fun.protect ~finally:(fun () -> Fault.install None) f

let send_with_id c ~id req =
  match Client.send_with_id c ~id req with
  | Ok () -> ()
  | Error m -> Alcotest.failf "send: %s" m

let recv c =
  match Client.recv c with
  | Ok j -> j
  | Error m -> Alcotest.failf "recv: %s" m

(* Read [n] responses and return them keyed by echoed id. *)
let recv_by_id c n : (Json.t * Json.t) list =
  List.init n (fun _ ->
      let j = recv c in
      (Client.id_of j, j))

let find_response (label : string) (rs : (Json.t * Json.t) list) (id : Json.t) :
    Json.t =
  match List.assoc_opt id rs with
  | Some j -> j
  | None -> Alcotest.failf "%s: no response with id %s" label (Json.to_string id)

let pipelined_out_of_order_responses () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      (* hold the run at the server.exec checkpoint so the inline status
         answer observably overtakes it *)
      with_plan "seed=7;server.exec=delay@200" (fun () ->
          send_with_id c ~id:(Json.Str "A") (P.Run { path = main; fuel = None });
          send_with_id c ~id:(Json.Num 42.0) P.Status;
          (* out-of-order: the control op answers first even though it was
             sent second *)
          let first = recv c in
          check_s "status overtakes the queued run" "42"
            (match Client.id_of first with
            | Json.Num f -> string_of_int (int_of_float f)
            | j -> Json.to_string j);
          check_b "status ok" true (Client.ok_of first);
          let second = recv c in
          check_b "run id echoed verbatim" true (Client.id_of second = Json.Str "A");
          check_b "run ok" true (Client.ok_of second);
          check_s "run output" "11" (Client.output_of second));
      (* two session ops pipelined on one connection answer in arrival
         order *)
      send_with_id c ~id:(Json.Str "r1") (P.Run { path = main; fuel = None });
      send_with_id c ~id:(Json.Str "r2") (P.Run { path = main; fuel = None });
      check_b "first run answers first" true (Client.id_of (recv c) = Json.Str "r1");
      check_b "second run answers second" true (Client.id_of (recv c) = Json.Str "r2");
      Client.close c)

let cancel_queued_request () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      ignore (run_req c main);
      (* r1 holds the session at the server.exec checkpoint; r2 queues
         behind it; the cancel kills r2 before it ever executes *)
      with_plan "seed=7;server.exec=delay@300" (fun () ->
          send_with_id c ~id:(Json.Str "r1") (P.Run { path = main; fuel = None });
          send_with_id c ~id:(Json.Str "r2") (P.Run { path = main; fuel = None });
          send_with_id c ~id:(Json.Str "k") (P.Cancel { target = Json.Str "r2" });
          let rs = recv_by_id c 3 in
          let k = find_response "cancel" rs (Json.Str "k") in
          check_b "cancel acknowledged" true (Client.ok_of k);
          (match Json.member "cancelled" k with
          | Some (Json.Str "queued") -> ()
          | Some j -> Alcotest.failf "cancelled a %s request, wanted queued" (Json.to_string j)
          | None -> Alcotest.fail "cancel response carries no cancelled field");
          let r1 = find_response "r1" rs (Json.Str "r1") in
          check_b "uncancelled request unaffected" true (Client.ok_of r1);
          let r2 = find_response "r2" rs (Json.Str "r2") in
          check_b "cancelled request fails" false (Client.ok_of r2);
          check_i "cancelled request exits 1" 1 (Client.exit_of r2);
          match Client.error_of r2 with
          | Some e -> check_b "error says cancelled" true (contains e "cancelled")
          | None -> Alcotest.fail "cancelled response carries no error");
      (* cancelling an id with nothing in flight is an error, not a hang *)
      let j = request c (P.Cancel { target = Json.Str "nope" }) in
      check_b "cancel of unknown id not ok" false (Client.ok_of j);
      check_i "cancel of unknown id exits 1" 1 (Client.exit_of j);
      (* the session is still usable after both *)
      check_s "session survives cancellation" "11" (Client.output_of (run_req c main));
      Client.close c)

let cancel_inflight_request () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      ignore (run_req c main);
      with_plan "seed=7;server.exec=delay@500" (fun () ->
          send_with_id c ~id:(Json.Str "r1") (P.Run { path = main; fuel = None });
          (* let the worker reach the sliced delay, then cancel mid-flight *)
          Unix.sleepf 0.15;
          send_with_id c ~id:(Json.Str "k") (P.Cancel { target = Json.Str "r1" });
          let rs = recv_by_id c 2 in
          let k = find_response "cancel" rs (Json.Str "k") in
          check_b "cancel acknowledged" true (Client.ok_of k);
          (match Json.member "cancelled" k with
          | Some (Json.Str "inflight") -> ()
          | Some j -> Alcotest.failf "cancelled a %s request, wanted inflight" (Json.to_string j)
          | None -> Alcotest.fail "cancel response carries no cancelled field");
          let r1 = find_response "r1" rs (Json.Str "r1") in
          check_b "cancelled request fails" false (Client.ok_of r1);
          check_i "cancelled request exits 1" 1 (Client.exit_of r1);
          match Client.error_of r1 with
          | Some e -> check_b "error says cancelled" true (contains e "cancelled")
          | None -> Alcotest.fail "cancelled response carries no error");
      (* the abort was cooperative: same session, next request is fine and
         still warm *)
      let j = run_req c main in
      check_s "session survives in-flight cancel" "11" (Client.output_of j);
      check_i "still warm after cancel" 0 (Client.summary_count j "compiles");
      Client.close c)

let idle_session_eviction_rebuilds_from_store () =
  with_server ~session_ttl:0.05 (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      let j = compile_req c main in
      check_i "cold compiles" 3 (Client.summary_count j "compiles");
      (* idle past the TTL: the sweep resets the session's warm state *)
      Unix.sleepf 0.3;
      let j = compile_req c main in
      check_b "evicted session still answers" true (Client.ok_of j);
      check_i "rebuild is hit-only" 0 (Client.summary_count j "compiles");
      check_i "rebuild hits the artifact store" 3 (Client.summary_count j "hits");
      (* the eviction is visible in status *)
      let s = request c P.Status in
      (match Json.member "status" s with
      | Some st ->
          let n k =
            match Option.bind (Json.member k st) Json.to_num with
            | Some f -> int_of_float f
            | None -> -1
          in
          check_b "evictions counted" true (n "evictions" >= 1);
          (match Json.member "sessions_detail" st with
          | Some (Json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "status carries no sessions_detail")
      | None -> Alcotest.fail "status response carries no status object");
      Client.close c)

let worker_death_spares_daemon () =
  with_server (fun socket dir ->
      let main = project dir in
      let c = connect socket in
      check_s "before death" "11" (Client.output_of (run_req c main));
      (* kill the worker domain outside the request containment *)
      with_plan "seed=7;server.worker=error" (fun () ->
          let j = run_req c main in
          check_b "orphaned request fails" false (Client.ok_of j);
          check_i "worker death is an internal error" 2 (Client.exit_of j);
          match Client.error_of j with
          | Some e -> check_b "error names the dead worker" true (contains e "worker domain died")
          | None -> Alcotest.fail "response carries no error");
      (* supervision respawned a worker: same connection, same session,
         still warm *)
      let j = run_req c main in
      check_s "daemon survives worker death" "11" (Client.output_of j);
      check_i "still warm after worker death" 0 (Client.summary_count j "compiles");
      Client.close c)

(* Head-of-line isolation: a [store.write] delay holds session A's cold
   compile on its worker; session B, on the other worker (consecutive
   accepts shard round-robin), must get its warm run answered while A is
   still held.  The reply order is asserted, never a latency. *)
let warm_run_not_blocked_by_cold_compile () =
  with_server ~workers:2 (fun socket dir ->
      let main = project dir in
      let warm = connect socket in
      let cold = connect socket in
      check_s "warm-up run" "11" (Client.output_of (run_req warm main));
      let cold_path = Filename.concat dir "cold.scm" in
      write_file cold_path "#lang racket\n(display 7)\n";
      with_plan "seed=1;store.write=delay@250" (fun () ->
          send_with_id cold ~id:(Json.Str "cold") (P.Run { path = cold_path; fuel = None });
          (* let A reach its delayed artifact write *)
          Unix.sleepf 0.03;
          let j = run_req warm main in
          check_b "warm run ok" true (Client.ok_of j);
          check_s "warm run output" "11" (Client.output_of j);
          let held =
            match Unix.select [ cold.Client.fd ] [] [] 0.0 with [], _, _ -> true | _ -> false
          in
          check_b "warm run answers while the cold compile is held" true held;
          let j = recv cold in
          check_b "cold run ok" true (Client.ok_of j);
          check_s "cold run output" "7" (Client.output_of j));
      Client.close warm;
      Client.close cold)

let suite =
  [
    Alcotest.test_case "codec round-trips" `Quick codec_roundtrip;
    Alcotest.test_case "codec rejects malformed frames" `Quick codec_malformed;
    Alcotest.test_case "request parsing" `Quick request_parsing;
    Alcotest.test_case "warm requests compile nothing" `Quick warm_requests_compile_nothing;
    Alcotest.test_case "edits recompile only the dirty cone" `Quick
      invalidation_recompiles_dirty_cone;
    Alcotest.test_case "concurrent sessions are isolated" `Quick sessions_are_isolated;
    Alcotest.test_case "session fault spares the daemon" `Quick session_fault_spares_daemon;
    Alcotest.test_case "malformed frame closes only its connection" `Quick
      malformed_frame_closes_only_that_connection;
    Alcotest.test_case "errors arrive as diagnostics" `Quick errors_are_diagnostics;
    Alcotest.test_case "status and expand" `Quick status_and_expand;
    Alcotest.test_case "pipelined responses arrive out of order" `Quick
      pipelined_out_of_order_responses;
    Alcotest.test_case "cancel kills a queued request" `Quick cancel_queued_request;
    Alcotest.test_case "cancel aborts an in-flight request" `Quick
      cancel_inflight_request;
    Alcotest.test_case "idle sessions evict and rebuild from the store" `Quick
      idle_session_eviction_rebuilds_from_store;
    Alcotest.test_case "worker death spares the daemon" `Quick
      worker_death_spares_daemon;
    Alcotest.test_case "warm run is not blocked by another session's cold compile" `Quick
      warm_run_not_blocked_by_cold_compile;
  ]
