(* Metric definitions, their computation from a finished run, and the
   printed result.  BENCHMARK.json lists the same names and units. *)

module W = Workloads

type metric = { name : string; unit : string; exact : bool }

let m name unit = { name; unit; exact = false }

(* [exact]: a count that two runs with the same seed reproduce exactly
   (taken over the fixed exact prefix of the stream).  On shard-flows
   the allocation figures are the feeder domain's only and minor
   collections are shared with the workers, so they are not exact
   there. *)
let x name unit = { name; unit; exact = true }

let end_to_end =
  [
    m "setup_s" "s";
    m "pps" "packets/s";
    m "pkt_ns_p90" "ns";
    x "alloc_words_per_pkt" "words";
    m "heap_mb_peak" "MB";
  ]

let per_layer =
  [
    m "stage.flow_descriptor.ns" "ns";
    x "stage.flow_descriptor.words" "words";
    m "stage.flow_classify.ns" "ns";
    x "stage.flow_classify.words" "words";
    m "stage.app_classify.ns" "ns";
    x "stage.app_classify.words" "words";
    m "base.metadata_union.ns" "ns";
    x "base.metadata_union.words" "words";
    m "enclave.table_lookup.ns" "ns";
    m "enclave.self.ns" "ns";
    x "enclave.cache_hit_ratio" "ratio";
    x "enclave.cache_misses_per_update" "count";
    m "enclave.first_pkt_after_update.ns" "ns";
    x "enclave.invocations_per_pkt" "count";
    x "enclave.steps_per_pkt" "count";
    x "enclave.modelled_ns_per_pkt" "ns";
    m "bytecode.exec.ns" "ns";
    x "bytecode.steps" "count";
    m "lang.compile.ms" "ms";
    m "bytecode.compile.ms" "ms";
    m "enclave.install.ms" "ms";
    m "shard.feed.ns" "ns";
    m "shard.drain.ns" "ns";
    m "shard.backpressure_waits_per_kpkt" "1/kpkt";
    m "shard.consumer_parks_per_kpkt" "1/kpkt";
    m "shard.create.ms" "ms";
    m "controller.set_global_array.us" "us";
    m "controller.install_action.us" "us";
    m "controller.set_global.us" "us";
    m "controller.add_rule.us" "us";
    m "controller.remove_action.us" "us";
    x "controller.sends_per_update" "count";
    m "controller.update_us_p50" "us";
    m "controller.update_us_p90" "us";
    m "controller.collect_reports.us" "us";
    m "telemetry.fleet_scrape.us" "us";
    x "gc.minor_collections_per_mpkt" "1/Mpkt";
    x "gc.promoted_words_per_pkt" "words";
    m "trace.overhead_pct" "%";
    m "pkt_ns_p50" "ns";
    m "pkt_ns_p99" "ns";
    m "pkt_ns_p999" "ns";
  ]

let exact_on ~workload (mt : metric) =
  mt.exact
  && not
       (workload = "shard-flows"
       && List.mem mt.name
            [
              "alloc_words_per_pkt";
              "gc.minor_collections_per_mpkt";
              "gc.promoted_words_per_pkt";
            ])

(* Fill [ctx.out] from a finished run.  Layers a workload does not
   exercise read 0.  setup_s, pps and the pkt_ns quantiles are medians
   over the set-ups or the untraced measured windows, at the reference
   host speed (see [Workloads.window]); a pkt_ns quantile is taken
   within each window.  The other times are raw means. *)
let compute (ctx : W.ctx) ((s0 : W.snap), (sx : W.snap), (s1 : W.snap)) =
  let set name v = Hashtbl.replace ctx.W.out name (if Float.is_finite v then v else 0.0) in
  let layer name = Option.value ~default:(Stat.acc ()) (Hashtbl.find_opt ctx.W.layers name) in
  let ns name = Stat.mean_ns (layer name) in
  let words name = Stat.mean_words (layer (name ^ "#x")) in
  let q h p = float_of_int (Stat.Hist.quantile h p) in
  let window_median f = Stat.median (List.map f ctx.W.wins) in
  set "setup_s" (Stat.median (List.map snd ctx.W.setup));
  set "pps" (window_median (fun w -> w.W.w_pps));
  set "pkt_ns_p90" (window_median (fun w -> w.W.p90));
  set "alloc_words_per_pkt" (Stat.per ctx.W.x_pkts ctx.W.x_words);
  set "heap_mb_peak" (float_of_int (ctx.W.heap_words * (Sys.word_size / 8)) /. 1e6);
  set "controller.update_us_p50" (q ctx.W.upd 0.5 /. 1e3);
  set "controller.update_us_p90" (q ctx.W.upd 0.9 /. 1e3);
  List.iter
    (fun stem ->
      set (stem ^ ".ns") (ns stem);
      set (stem ^ ".words") (words stem))
    [
      "stage.flow_descriptor";
      "stage.flow_classify";
      "stage.app_classify";
      "base.metadata_union";
    ];
  set "enclave.table_lookup.ns" (ns "enclave.table_lookup");
  set "enclave.self.ns" (ns "enclave.self");
  let pkts = sx.W.packets - s0.W.packets in
  let hits = sx.W.hits - s0.W.hits and misses = sx.W.misses - s0.W.misses in
  set "enclave.cache_hit_ratio" (Stat.per (hits + misses) hits);
  set "enclave.cache_misses_per_update" (Stat.per ctx.W.x_edits misses);
  set "enclave.first_pkt_after_update.ns" (ns "enclave.first_pkt_after_update");
  set "enclave.invocations_per_pkt" (Stat.per pkts (sx.W.invocations - s0.W.invocations));
  set "enclave.steps_per_pkt" (Stat.per pkts (sx.W.steps - s0.W.steps));
  set "enclave.modelled_ns_per_pkt"
    (Stat.per (sx.W.modelled_n - s0.W.modelled_n) (sx.W.modelled_ns - s0.W.modelled_ns));
  set "bytecode.exec.ns" (ns "bytecode.exec");
  set "bytecode.steps" (Stat.mean_ns (layer "bytecode.steps#x"));
  List.iter
    (fun stem -> set (stem ^ ".ms") (ns stem /. 1e6))
    [ "lang.compile"; "bytecode.compile"; "enclave.install"; "shard.create" ];
  set "shard.feed.ns" (ns "shard.feed");
  set "shard.drain.ns" (ns "shard.drain");
  let run_pkts = s1.W.packets - s0.W.packets in
  set "shard.backpressure_waits_per_kpkt" (1e3 *. Stat.per run_pkts (s1.W.waits - s0.W.waits));
  set "shard.consumer_parks_per_kpkt" (1e3 *. Stat.per run_pkts (s1.W.parks - s0.W.parks));
  List.iter
    (fun stem -> set (stem ^ ".us") (ns stem /. 1e3))
    [
      "controller.set_global_array";
      "controller.install_action";
      "controller.set_global";
      "controller.add_rule";
      "controller.remove_action";
      "controller.collect_reports";
      "telemetry.fleet_scrape";
    ];
  set "controller.sends_per_update" (Stat.per ctx.W.x_edits ctx.W.x_sends);
  set "gc.minor_collections_per_mpkt" (1e6 *. Stat.per ctx.W.gc_pkts ctx.W.gc_minor);
  set "gc.promoted_words_per_pkt" (ctx.W.gc_promoted /. float_of_int (max 1 ctx.W.gc_pkts));
  (* Whole-window wall time on both sides, so that the recording and
     replays of traced windows count. *)
  let traced = W.wall_throughput ctx.W.traced_total in
  set "trace.overhead_pct"
    (if traced > 0.0 then 100.0 *. ((W.wall_throughput ctx.W.plain_total /. traced) -. 1.0)
     else 0.0);
  set "pkt_ns_p50" (window_median (fun w -> w.W.p50));
  set "pkt_ns_p99" (window_median (fun w -> w.W.p99));
  set "pkt_ns_p999" (window_median (fun w -> w.W.p999))

let value (ctx : W.ctx) name = Option.value ~default:0.0 (Hashtbl.find_opt ctx.W.out name)

(* Stage time measured by the replays beside the Cost model's figure
   for the same stage (ROADMAP item 1's measured-vs-modelled split). *)
let print_measured_vs_modelled (ctx : W.ctx) =
  let c = Eden_enclave.Cost.os_model in
  let v = value ctx in
  let classify =
    v "stage.flow_descriptor.ns" +. v "stage.flow_classify.ns" +. v "base.metadata_union.ns"
  in
  let steps = v "bytecode.steps" in
  Printf.printf "# %-34s %12s %12s\n" "stage (ns/packet)" "measured" "modelled";
  Printf.printf "# %-34s %12.1f %12.1f\n" "classify (descriptor+flow+union)" classify
    c.Eden_enclave.Cost.classify_ns;
  Printf.printf "# %-34s %12.1f %12s\n" "match (table lookup)"
    (v "enclave.table_lookup.ns") "-";
  Printf.printf "# %-34s %12.1f %12.1f\n" "action (compiled exec)" (v "bytecode.exec.ns")
    (c.Eden_enclave.Cost.marshal_ns +. (steps *. c.Eden_enclave.Cost.compiled_step_ns));
  Printf.printf "# %-34s %12.1f %12.1f\n" "enclave total (p50 call / modelled)" (v "pkt_ns_p50")
    (v "enclave.modelled_ns_per_pkt")

let json_metrics (ctx : W.ctx) metrics =
  String.concat ", "
    (List.map
       (fun mt ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name (value ctx mt.name)
           mt.unit)
       metrics)

let print ~workload (ctx : W.ctx) =
  let o = ctx.W.oracle in
  let shown = if ctx.W.trace then per_layer else end_to_end in
  List.iter
    (fun mt ->
      Printf.printf "# %-36s %16.4f %-9s%s\n" mt.name (value ctx mt.name) mt.unit
        (if exact_on ~workload mt then " (exact)" else ""))
    shown;
  if ctx.W.trace then begin
    print_measured_vs_modelled ctx;
    Printf.printf "# spans recorded %d, dropped %d\n" (Spans.length ctx.W.spans)
      (Spans.dropped ctx.W.spans)
  end;
  let slow = List.map (fun w -> w.W.w_slow) ctx.W.wins in
  Printf.printf
    "# speed probe: slowness median %.4f over %d windows, set-up median %.4f (1 = reference, \
     probe %d ns)\n"
    (Stat.median slow) (List.length slow)
    (Stat.median (List.map fst ctx.W.setup))
    Clock.probe_ref_ns;
  Printf.printf "# pps over all untraced windows at host speed %.1f packets/s\n"
    (W.throughput ctx.W.plain_total);
  Printf.printf "# op_fail_ratio %.6g (%d of %d operations failed)%s\n"
    (Stat.per o.Oracle.checked o.Oracle.failed)
    o.Oracle.failed o.Oracle.checked
    (match o.Oracle.first with Some s -> "; first: " ^ s | None -> "");
  Printf.printf
    "# host nproc=%d ocaml=%s workload=%s shards=%d windows=%d window_packets=%d \
     exact_windows=%d run_seconds=%g seed=%Ld stream_digest=%012x\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version workload ctx.W.shards ctx.W.windows W.window_packets W.exact_windows
    ctx.W.seconds ctx.W.seed ctx.W.digest;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.Oracle.failed = 0) (max 1 o.Oracle.checked) o.Oracle.failed (json_metrics ctx shown)
