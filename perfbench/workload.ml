(** What every workload shares: its configuration, its result, and the
    per-layer metrics a traced run reports. *)

module Metrics = Liblang_core.Core.Metrics

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
}

type result = {
  attempted : int;
  failures : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  report : string;  (** human-readable lines printed before the result *)
  ledger : (string * float * string) list;
      (** a traced run: every per-layer number, for the report file; an
          untraced one: the metrics by their names in the design *)
}

(** Units of the end-to-end metrics every untraced run reports. *)
let e2e_units =
  [
    ("setup_s", "s");
    ("op_ms", "ms");
    ("fast_path_ms", "ms");
    ("slow_path_ms", "ms");
    ("tail_ms", "ms");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MiB");
  ]

(** The end-to-end metrics by their names in the design, printed for every workload with
    [n/a] where a metric belongs to another workload. *)
let named_metrics =
  [
    ("setup_s", "s");
    ("run_typed_ms", "ms");
    ("run_untyped_ms", "ms");
    ("cold_build_s", "s");
    ("warm_build_ms", "ms");
    ("edit_rebuild_ms", "ms");
    ("artifact_kb", "KiB");
    ("req_p50_ms", "ms");
    ("req_p99_ms", "ms");
    ("edit_p50_ms", "ms");
    ("req_per_s", "req/s");
    ("error_rate", "ratio");
    ("peak_rss_mb", "MiB");
  ]

let finish ~attempted ~failures ~(e2e : (string * float) list)
    ~(named : (string * float * string) list) : result =
  let failed = List.length failures in
  let named =
    named
    @ [
        ("setup_s", List.assoc "setup_s" e2e, "s");
        ("error_rate", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
        ("peak_rss_mb", List.assoc "peak_rss_mb" e2e, "MiB");
      ]
  in
  {
    attempted;
    failures;
    metrics = List.map (fun (n, u) -> (n, List.assoc n e2e, u)) e2e_units;
    report = "";
    ledger = named;
  }

(** The named metrics as a table, [n/a] for those of other workloads. *)
let render_named (named : (string * float) list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "== end-to-end metrics, by their names in the design ==\n";
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n named with
      | Some v -> Printf.bprintf b "%-16s %14.4f %s\n" n v u
      | None -> Printf.bprintf b "%-16s %14s %s (not measured by this workload)\n" n "n/a" u)
    named_metrics;
  Buffer.contents b

(** The per-layer metrics every traced run reports, in this order. *)
let per_layer_units =
  [
    ("reader.ms", "ms");
    ("reader.datums", "count");
    ("expander.self_ms", "ms");
    ("expander.resolve_hit_ratio", "ratio");
    ("expander.scope_pushes", "count");
    ("typed.check_ms", "ms");
    ("typed.optimize_ms", "ms");
    ("typed.rewrites", "count");
    ("analysis.ms", "ms");
    ("analysis.transfers", "count");
    ("analysis.sweeps", "count");
    ("analysis.direct_call_ratio", "ratio");
    ("modules.compile_ms", "ms");
    ("modules.instantiate_ms", "ms");
    ("runtime.run_ms", "ms");
    ("runtime.minor_words", "words");
    ("runtime.major_words", "words");
    ("backend.lower_ms", "ms");
    ("lower.instructions", "count");
    ("compiled.load_ms", "ms");
    ("compiled.hit_ratio", "ratio");
    ("compiled.self_ms", "ms");
    ("compiled.artifact_kb", "KiB");
    ("compiled.lock_waits", "count");
    ("bench.self_ms", "ms");
    ("unattributed_ms", "ms");
    ("traced_wall_ms", "ms");
    ("tracing_overhead_ms", "ms");
  ]

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

(** Per-layer metrics only some workloads have, and why the others do not. *)
let workload_specific =
  [
    ("typed.speedup", "only run-figs runs typed and untyped twins");
    ("contracts.crossing_ms", "only run-figs runs the boundary pair");
    ("backend.vm_run_ms", "only run-figs runs the VM");
    ("backend.vm_over_interp", "only run-figs runs the VM");
    ("backend.vm_minor_words", "only run-figs runs the VM");
    ("compiled.recompiles_per_edit", "this workload makes no edits");
    ("compiled.busy_ratio", "only build-project times -j 2 builds");
    ("compiled.retries", "only build-project times -j 2 builds");
    ("server.rtt_ms", "only serve-mixed runs the compile server");
    ("server.request_ms", "only serve-mixed runs the compile server");
    ("server.queued_ms", "only serve-mixed runs the compile server");
    ("server.invalidated", "only serve-mixed runs the compile server");
    ("server.compiles", "only serve-mixed runs the compile server");
    ("server.errors", "only serve-mixed runs the compile server");
  ]

(** A traced run's result: the ledger reduced to per-layer rows, the
    counters of the traced collector, and the workload's own [extra]
    numbers.  [untraced]/[traced] are the walls of the two passes over the
    same operations; their difference is the tracing overhead. *)
let traced ~attempted ~failures ~(untraced : float) ~(traced : float)
    ~(extra : (string * float * string) list) ~(rows : string list) : result =
  let r = Ledger.reduce () in
  let c = match !Ledger.collector with Some c -> c | None -> Metrics.create () in
  let cnt k = float_of_int (Metrics.get c k) in
  let ms k = Metrics.get_ms c k in
  let rewrites = Metrics.by_prefix c "optimize." in
  let overhead_ms = 1000.0 *. (traced -. untraced) in
  let base =
    [
      ("reader.ms", ms "phase.read");
      ("reader.datums", cnt "reader.datums");
      ("expander.self_ms", Ledger.self_ms r "expander");
      ("expander.resolve_hit_ratio", ratio (cnt "expand.resolve_hits") (cnt "expand.resolve_misses"));
      ("expander.scope_pushes", cnt "stx.scope_pushes");
      ("typed.check_ms", ms "phase.typecheck");
      ("typed.optimize_ms", ms "phase.optimize");
      ("typed.rewrites", float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 rewrites));
      ("analysis.ms", ms "phase.analyze");
      ("analysis.transfers", cnt "analysis.transfers");
      ("analysis.sweeps", cnt "analysis.sweeps");
      ( "analysis.direct_call_ratio",
        let all = cnt "analysis.call_sites" in
        if all > 0.0 then cnt "analysis.direct_call_sites" /. all else 0.0 );
      ("modules.compile_ms", ms "phase.compile");
      ("modules.instantiate_ms", ms "phase.instantiate");
      ("runtime.run_ms", Ledger.self_ms r "runtime");
      ("backend.lower_ms", ms "phase.lower");
      ("lower.instructions", cnt "lower.instructions");
      ("compiled.load_ms", ms "phase.load");
      (* modules acquired without compiling: artifact loads and warm-session stat hits *)
      ("compiled.hit_ratio", ratio (cnt "module.cache_hits" +. cnt "module.stat_hits") (cnt "module.compiles"));
      ("compiled.self_ms", Ledger.self_ms r "compiled");
      ("compiled.lock_waits", cnt "par.lock_waits");
      ("bench.self_ms", Ledger.self_ms r "bench");
      ("unattributed_ms", 1000.0 *. r.Ledger.unattributed_s);
      ("traced_wall_ms", 1000.0 *. r.Ledger.wall_s);
      ("tracing_overhead_ms", overhead_ms);
    ]
  in
  let all =
    List.map (fun (n, v) -> (n, v, List.assoc n per_layer_units)) base
    @ extra
    @ List.map (fun row -> ("self_ms." ^ row.Ledger.layer, 1000.0 *. row.Ledger.self_s, "ms")) r.Ledger.rows
    @ List.map (fun (rule, n) -> ("typed.rewrites." ^ rule, float_of_int n, "count")) rewrites
  in
  let find n = List.find_opt (fun (n', _, _) -> String.equal n n') all in
  let metrics =
    List.map
      (fun (n, u) -> match find n with Some m -> m | None -> (n, 0.0, u))
      per_layer_units
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Ledger.render r ~overhead_ms ~untraced_ms:(1000.0 *. untraced) ~traced_ms:(1000.0 *. traced));
  Buffer.add_string b "== per-layer metrics ==\n";
  List.iter (fun (n, v, u) -> Printf.bprintf b "%-34s %16.4f %s\n" n v u) all;
  List.iter
    (fun (n, why) -> if find n = None then Printf.bprintf b "%-34s %16s (%s)\n" n "n/a" why)
    workload_specific;
  List.iter (fun l -> Buffer.add_string b (l ^ "\n")) rows;
  { attempted; failures; metrics; report = Buffer.contents b; ledger = all }
