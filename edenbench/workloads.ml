(* The four workloads.  Each is a closed loop with one caller: a window
   of fresh seeded inputs is generated (untimed), served through the
   workload's data-path entry point with every call timed, then checked
   by the oracles (untimed).  End-to-end figures come from untraced
   windows; in a traced run every second window also records spans and
   replays the steps inside [process] for sampled packets. *)

module Enclave = Eden_enclave.Enclave
module Shard = Eden_enclave.Shard
module Table = Eden_enclave.Table
module Controller = Eden_controller.Controller
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Metadata = Eden_base.Metadata
module Packet = Eden_base.Packet
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Compiled = Eden_bytecode.Compiled
module Interp = Eden_bytecode.Interp
module Program = Eden_bytecode.Program
module Registry = Eden_telemetry.Registry

let window_packets = 2048
let warmup_windows = 8

(* Exact counts (words, steps, cache probes, sends) are taken over the
   first [exact_windows] measured windows, a fixed prefix of the seeded
   stream, so they do not depend on how many windows fit in the run. *)
let exact_windows = 32

(* Set-up is timed once before the first packet and once more (on a
   system built and torn down at once) after every [resetup_every]
   measured windows, so that its samples cover the host speeds the run
   saw, as the windows' do. *)
let resetup_every = 32

(* A traced run times each action's compilation this many times. *)
let compile_reps = 31

(* The heap peak is read after [heap_windows] measured windows (2M
   packets), so that it reflects a fixed amount of work: on shard-flows
   the replicas keep every flow they have seen, and a run-end reading
   would grow with the host's speed. *)
let heap_windows = 1024

(* Traced windows record spans for every [sample_every]th packet (and
   message) and replay the steps inside its data-path call. *)
let sample_every = 16L
let concurrent_flows = 256
let churn_enclaves = 8
let batch_packets = 32

type phase = { traced : bool; exact : bool; measured : bool }

let unmeasured = { traced = false; exact = false; measured = false }

(* Packets, busy ns and wall ns summed over measured windows, with and
   without tracing.  Busy ns add up the data-path calls only (on every
   workload); wall ns are the whole of each window's [serve], bookkeeping
   and tracing included. *)
type total = { mutable t_pkts : int; mutable t_busy : int; mutable t_wall : int }

let total () = { t_pkts = 0; t_busy = 0; t_wall = 0 }

let throughput t = Stat.per t.t_busy t.t_pkts *. 1e9
let wall_throughput t = Stat.per t.t_wall t.t_pkts *. 1e9

(* Host speed.  Each measured window and each set-up is bracketed by two
   probes (see [Clock.probe]), and the shorter one gives its slowness;
   the end-to-end figures divide the durations by it.  On shard-flows
   the first probe runs after the workers have drained the previous
   window and parked; it sees only the feeder's core, so a host that
   starves the workers' core shows in shard-flows' figures. *)
type window = {
  w_slow : float;
  w_pps : float;  (** packets over busy ns, at the reference speed *)
  p50 : float;  (** quantiles of the window's data-path call ns, at the reference speed *)
  p90 : float;
  p99 : float;
  p999 : float;
}

type ctx = {
  seed : int64;
  seconds : float;
  trace : bool;
  spans : Spans.t;
  oracle : Oracle.t;
  win_lat : int array;  (** this window's raw data-path call ns *)
  mutable n_lat : int;
  mutable wins : window list;  (** untraced measured windows *)
  upd : Stat.Hist.t;  (** policy-churn: edit issued to applied everywhere, ns *)
  layers : (string, Stat.acc) Hashtbl.t;
  mutable busy : int;
  plain_total : total;  (** measured windows without tracing *)
  traced_total : total;
  mutable windows : int;
  mutable x_pkts : int;
  mutable x_words : int;
  mutable x_edits : int;
  mutable x_sends : int;
  mutable gc_pkts : int;
  mutable gc_minor : int;
  mutable gc_promoted : float;
  mutable setup : (float * float) list;  (** slowness, seconds at the reference speed *)
  mutable shards : int;
  mutable digest : int;
  mutable heap_words : int;
  out : (string, float) Hashtbl.t;
}

let create ~seed ~seconds ~trace =
  {
    seed;
    seconds;
    trace;
    spans = Spans.create ~enabled:trace;
    oracle = Oracle.create ();
    win_lat = Array.make window_packets 0;
    n_lat = 0;
    wins = [];
    upd = Stat.Hist.create ();
    layers = Hashtbl.create 64;
    busy = 0;
    plain_total = total ();
    traced_total = total ();
    windows = 0;
    x_pkts = 0;
    x_words = 0;
    x_edits = 0;
    x_sends = 0;
    gc_pkts = 0;
    gc_minor = 0;
    gc_promoted = 0.0;
    setup = [];
    shards = 0;
    digest = 0;
    heap_words = 0;
    out = Hashtbl.create 64;
  }

let layer ctx name =
  match Hashtbl.find_opt ctx.layers name with
  | Some a -> a
  | None ->
    let a = Stat.acc () in
    Hashtbl.add ctx.layers name a;
    a

(* One timed call into a layer, outside the data-path accounting. *)
let span ctx ph name ?parent ~key ~t0 ~t1 ~w0 ~w1 () =
  Stat.add (layer ctx name) ~ns:(t1 - t0) ~words:(w1 - w0);
  if ph.exact then Stat.add (layer ctx (name ^ "#x")) ~ns:(t1 - t0) ~words:(w1 - w0);
  if ph.traced then
    Spans.record ctx.spans ~name ?parent ~key ~start:t0 ~stop:t1 ~words:(w1 - w0) ()
  else -1

(* One timed data-path call. *)
let[@inline] call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency =
  ctx.busy <- ctx.busy + (t1 - t0);
  if latency && ph.measured && not ph.traced then begin
    ctx.win_lat.(ctx.n_lat) <- t1 - t0;
    ctx.n_lat <- ctx.n_lat + 1
  end;
  if ph.exact then ctx.x_words <- ctx.x_words + (w1 - w0)

let slowness p0 = Clock.slowness_of (min p0 (Clock.probe ()))

let sampled (pkt : Packet.t) = Int64.rem pkt.Packet.id sample_every = 0L

(* ------------------------------------------------------------------ *)
(* Set-up *)

let setup_phase ctx ~make ~teardown =
  let timer =
    {
      Systems.time =
        (fun name f ->
          let t0 = Clock.ns () in
          let r = f () in
          let t1 = Clock.ns () in
          let ph = { unmeasured with traced = ctx.trace } in
          ignore (span ctx ph name ~key:0 ~t0 ~t1 ~w0:0 ~w1:0 ());
          r);
    }
  in
  let build () =
    let p0 = Clock.probe () in
    (* Every set-up starts from an empty minor heap. *)
    Gc.minor ();
    let t0 = Clock.ns () in
    let s = make timer in
    let t1 = Clock.ns () in
    let slow = slowness p0 in
    ctx.setup <- (slow, float_of_int (t1 - t0) /. 1e9 /. slow) :: ctx.setup;
    s
  in
  (build (), fun () -> teardown (build ()))

(* ------------------------------------------------------------------ *)
(* Replaying the steps inside [process] for one sampled packet, through
   the same public functions, as child spans of its data-path call.
   Nothing here changes enclave state: the flow stage is classified with
   an explicit message id, lookups are pure, and the action runs on a
   private compiled copy over a private environment. *)

type replayer = {
  r_enclave : Enclave.t;
  compiled : (string, Compiled.t) Hashtbl.t;
  r_rng : Rng.t;
}

let compile_program ctx (p : Program.t) =
  let t0 = Clock.ns () in
  let c = Compiled.compile p in
  let t1 = Clock.ns () in
  Stat.add (layer ctx "bytecode.compile") ~ns:(t1 - t0) ~words:0;
  match c with Ok c -> c | Error _ -> failwith ("Compiled.compile " ^ p.Program.name)

let replayer ctx e =
  let r = { r_enclave = e; compiled = Hashtbl.create 4; r_rng = Rng.create 7L } in
  if ctx.trace then
    List.iter
      (fun name ->
        match Enclave.action_program e name with
        | None -> ()
        | Some p ->
          for _ = 2 to compile_reps do
            ignore (compile_program ctx p)
          done;
          Hashtbl.replace r.compiled name (compile_program ctx p))
      (Enclave.action_names e);
  r

let packet_field (pkt : Packet.t) = function
  | "Size" -> Int64.of_int (Packet.wire_size pkt)
  | "PayloadSize" -> Int64.of_int pkt.Packet.payload
  | "Priority" -> Int64.of_int pkt.Packet.priority
  | "SrcHost" -> Int64.of_int pkt.Packet.flow.src.host
  | "SrcPort" -> Int64.of_int pkt.Packet.flow.src.port
  | "DstHost" -> Int64.of_int pkt.Packet.flow.dst.host
  | "DstPort" -> Int64.of_int pkt.Packet.flow.dst.port
  | "Proto" -> 6L
  | "IsData" -> 1L
  | "Path" | "Queue" | "Charge" | "GotoTable" -> -1L
  | _ -> 0L

let env_for r ~action (p : Program.t) pkt ~msg_field =
  let e = r.r_enclave in
  let scalars =
    Array.map
      (fun (s : Program.scalar_slot) ->
        match s.Program.s_entity with
        | Program.Packet -> packet_field pkt s.Program.s_name
        | Program.Message -> msg_field s.Program.s_name
        | Program.Global ->
          Option.value ~default:0L (Enclave.get_global e ~action s.Program.s_name))
      p.Program.scalar_slots
  in
  let arrays =
    Array.map
      (fun (a : Program.array_slot) ->
        match a.Program.a_entity with
        | Program.Global ->
          Option.value ~default:[||] (Enclave.get_global_array e ~action a.Program.a_name)
        | Program.Packet | Program.Message -> Array.make a.Program.a_min_len 0L)
      p.Program.array_slots
  in
  Interp.make_env p ~scalars ~arrays

(* Returns the ns the replayed children took, for the parent's self time. *)
let replay ctx ph r ~parent ~(pkt : Packet.t) ~stage_md ~msg_field ~now =
  let key = Int64.to_int pkt.Packet.id in
  let e = r.r_enclave in
  let child = ref 0 in
  let sp name ~t0 ~t1 ~w0 ~w1 =
    child := !child + (t1 - t0);
    ignore (span ctx ph name ~parent ~key ~t0 ~t1 ~w0 ~w1 ())
  in
  let w0 = Clock.words () in
  let t0 = Clock.ns () in
  let desc = Builtin.flow_descriptor pkt.Packet.flow in
  let t1 = Clock.ns () in
  let w1 = Clock.words () in
  sp "stage.flow_descriptor" ~t0 ~t1 ~w0 ~w1;
  let msg_id = Option.value ~default:0L (Metadata.msg_id pkt.Packet.metadata) in
  let stage = Enclave.flow_stage e in
  let w0 = Clock.words () in
  let t0 = Clock.ns () in
  let flow_md = Stage.classify ~msg_id stage desc in
  let t1 = Clock.ns () in
  let w1 = Clock.words () in
  sp "stage.flow_classify" ~t0 ~t1 ~w0 ~w1;
  let w0 = Clock.words () in
  let t0 = Clock.ns () in
  let md = Metadata.union flow_md stage_md in
  let t1 = Clock.ns () in
  let w1 = Clock.words () in
  sp "base.metadata_union" ~t0 ~t1 ~w0 ~w1;
  let classes = Metadata.classes md in
  let tables = Enclave.tables e in
  let w0 = Clock.words () in
  let t0 = Clock.ns () in
  let rules = List.map (fun tbl -> Table.lookup tbl classes) tables in
  let t1 = Clock.ns () in
  let w1 = Clock.words () in
  sp "enclave.table_lookup" ~t0 ~t1 ~w0 ~w1;
  (match rules with
  | Some rule :: _ -> (
    let action = rule.Table.action in
    match Enclave.action_program e action with
    | None -> ()
    | Some p ->
      let c =
        match Hashtbl.find_opt r.compiled action with
        | Some c -> c
        | None ->
          let c = compile_program ctx p in
          Hashtbl.replace r.compiled action c;
          c
      in
      let env = env_for r ~action p pkt ~msg_field in
      let w0 = Clock.words () in
      let t0 = Clock.ns () in
      let fault = Compiled.exec c ~env ~now ~rng:r.r_rng in
      let t1 = Clock.ns () in
      let w1 = Clock.words () in
      sp "bytecode.exec" ~t0 ~t1 ~w0 ~w1;
      if fault <> None then Oracle.fail ctx.oracle ("replayed " ^ action ^ " faulted");
      let steps = Compiled.last_steps c in
      Stat.add (layer ctx "bytecode.steps") ~ns:steps ~words:0;
      if ph.exact then Stat.add (layer ctx "bytecode.steps#x") ~ns:steps ~words:0)
  | _ -> ());
  !child

let pias_fields (f : Gen.flow) = function
  | "Size" -> Int64.of_int f.Gen.pias_bytes
  | _ -> 0L

(* ------------------------------------------------------------------ *)
(* Counters, snapshotted around the exact prefix *)

type snap = {
  packets : int;
  invocations : int;
  steps : int;
  hits : int;
  misses : int;
  modelled_ns : int;
  modelled_n : int;
  waits : int;
  parks : int;
}

let modelled samples =
  List.fold_left
    (fun (s, n) (x : Registry.sample) ->
      match x.Registry.s_value with
      | Registry.Histogram h when x.Registry.s_name = "eden_enclave_process_ns" ->
        (s + h.sum, n + h.count)
      | _ -> (s, n))
    (0, 0) samples

let snap_of ~(counters : Enclave.counters list) ~samples ~waits ~parks =
  let sum f = List.fold_left (fun a c -> a + f c) 0 counters in
  let modelled_ns, modelled_n = modelled samples in
  {
    packets = sum (fun c -> c.Enclave.packets);
    invocations = sum (fun c -> c.Enclave.invocations);
    steps = sum (fun c -> c.Enclave.interp_steps);
    hits = sum (fun c -> c.Enclave.cache_hits);
    misses = sum (fun c -> c.Enclave.cache_misses);
    modelled_ns;
    modelled_n;
    waits;
    parks;
  }

let enclaves_snap es =
  snap_of
    ~counters:(List.map Enclave.counters es)
    ~samples:(List.concat_map Enclave.scrape es)
    ~waits:0 ~parks:0

(* ------------------------------------------------------------------ *)
(* The window loop *)

let run_windows ctx ~prepare ~serve ~check ~between ~snap ~digest ~resetup =
  for _ = 1 to warmup_windows do
    let w = prepare window_packets in
    ignore (serve unmeasured w);
    check w;
    between unmeasured
  done;
  let s0 = snap () in
  let sx = ref s0 in
  let deadline = Clock.ns () + int_of_float (ctx.seconds *. 1e9) in
  let i = ref 0 in
  while !i < exact_windows || Clock.ns () < deadline do
    let ph =
      { traced = ctx.trace && !i land 1 = 1; exact = !i < exact_windows; measured = true }
    in
    let w = prepare window_packets in
    ctx.busy <- 0;
    ctx.n_lat <- 0;
    let p0 = Clock.probe () in
    let gc0 = Gc.quick_stat () in
    let s0 = Clock.ns () in
    let n = serve ph w in
    let s1 = Clock.ns () in
    let gc1 = Gc.quick_stat () in
    let slow = slowness p0 in
    if ph.exact then begin
      ctx.x_pkts <- ctx.x_pkts + n;
      if not ph.traced then begin
        ctx.gc_pkts <- ctx.gc_pkts + n;
        ctx.gc_minor <- ctx.gc_minor + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
        ctx.gc_promoted <- ctx.gc_promoted +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words
      end
    end;
    let t = if ph.traced then ctx.traced_total else ctx.plain_total in
    t.t_pkts <- t.t_pkts + n;
    t.t_busy <- t.t_busy + ctx.busy;
    t.t_wall <- t.t_wall + (s1 - s0);
    if not ph.traced then begin
      let lat = Array.sub ctx.win_lat 0 ctx.n_lat in
      Array.sort compare lat;
      (* Nearest rank. *)
      let q p =
        let rank = int_of_float (Float.ceil (p *. float_of_int ctx.n_lat)) in
        if ctx.n_lat = 0 then 0.0 else float_of_int lat.(max 0 (rank - 1)) /. slow
      in
      ctx.wins <-
        {
          w_slow = slow;
          w_pps = Stat.per ctx.busy n *. 1e9 *. slow;
          p50 = q 0.5;
          p90 = q 0.9;
          p99 = q 0.99;
          p999 = q 0.999;
        }
        :: ctx.wins
    end;
    check w;
    between ph;
    incr i;
    if !i mod resetup_every = 0 then resetup ();
    if !i <= heap_windows then ctx.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
    if !i = exact_windows then begin
      sx := snap ();
      ctx.digest <- digest ()
    end
  done;
  ctx.windows <- !i;
  (s0, !sx, snap ())

(* A retune scales every PIAS threshold by one factor in [0.5, 2). *)
let retune rng =
  let f = 0.5 +. Rng.float rng 1.5 in
  Array.map (fun t -> Int64.of_float (Int64.to_float t *. f)) Systems.thresholds

(* ------------------------------------------------------------------ *)
(* Metadata-less flows (flows, policy-churn, shard-flows share these) *)

type fwin = { items : Gen.item array; decisions : Enclave.decision array; now : Time.t }

let no_decision = Enclave.Forward { queue = None; charge = 0 }

let flow_prepare g =
  let windows = ref 0 in
  fun n ->
    incr windows;
    {
      items = Gen.flow_window g n;
      decisions = Array.make n no_decision;
      now = Time.ms !windows;
    }

(* [fresh.(i)] marks enclave [i] as not yet having served a packet
   since the last edit. *)
let flow_serve ctx ~enclaves ~replayers ~fresh ph w =
  let n = Array.length w.items in
  for i = 0 to n - 1 do
    let it = w.items.(i) in
    let pkt = it.Gen.pkt in
    let home = it.Gen.flow.Gen.home in
    let e = enclaves.(home) in
    let w0 = Clock.words () in
    let t0 = Clock.ns () in
    let d = Enclave.process e ~now:w.now pkt in
    let t1 = Clock.ns () in
    let w1 = Clock.words () in
    call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:true;
    w.decisions.(i) <- d;
    if fresh.(home) then begin
      fresh.(home) <- false;
      if ph.measured then
        Stat.add (layer ctx "enclave.first_pkt_after_update") ~ns:(t1 - t0) ~words:0
    end;
    if ph.traced && sampled pkt then begin
      let key = Int64.to_int pkt.Packet.id in
      let parent = span ctx ph "enclave.process" ~key ~t0 ~t1 ~w0 ~w1 () in
      let child =
        replay ctx ph replayers.(home) ~parent ~pkt ~stage_md:Metadata.empty
          ~msg_field:(pias_fields it.Gen.flow) ~now:w.now
      in
      Stat.add (layer ctx "enclave.self") ~ns:(t1 - t0 - child) ~words:0
    end;
    if it.Gen.last then begin
      let w0 = Clock.words () in
      let t0 = Clock.ns () in
      Enclave.note_flow_closed e it.Gen.flow.Gen.tuple;
      let t1 = Clock.ns () in
      let w1 = Clock.words () in
      call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:false;
      if ph.traced && sampled pkt then
        ignore
          (span ctx ph "enclave.note_flow_closed" ~key:(Int64.to_int pkt.Packet.id) ~t0 ~t1
             ~w0 ~w1 ())
    end
  done;
  n

(* Every packet must be forwarded with the priority the configuration
   in force decides: PIAS over the flow's bytes, or the alternative
   action's fixed priority while it is installed. *)
let flow_check ctx ~thresholds ~alt w =
  Array.iteri
    (fun i (it : Gen.item) ->
      Oracle.forwarded ctx.oracle it.Gen.pkt w.decisions.(i);
      if alt () then Oracle.priority ctx.oracle ~want:Systems.alt_priority it.Gen.pkt
      else Oracle.pias ctx.oracle ~thresholds:!thresholds it)
    w.items

let flows ctx =
  let e, resetup =
    setup_phase ctx
      ~make:(fun timer -> Systems.pias_enclave timer ~seed:ctx.seed)
      ~teardown:ignore
  in
  let g = Gen.flows ~seed:ctx.seed ~concurrent:concurrent_flows ~homes:1 in
  let thresholds = ref Systems.thresholds in
  let prepare = flow_prepare g in
  let serve =
    flow_serve ctx ~enclaves:[| e |] ~replayers:[| replayer ctx e |] ~fresh:[| false |]
  in
  let check = flow_check ctx ~thresholds ~alt:(fun () -> false) in
  run_windows ctx ~prepare ~serve ~check ~between:ignore ~resetup
    ~snap:(fun () -> enclaves_snap [ e ])
    ~digest:(fun () -> Gen.flows_digest g)

(* ------------------------------------------------------------------ *)
(* kv-rpc *)

type kwin = {
  msgs : Gen.msg array;
  msg_pkts : Packet.t list array;
  mds : Metadata.t array;
  flat : Packet.t array;
  owner : int array;  (** message index of each packet in [flat] *)
  batches : Packet.t list array;
  ends : int list array;  (** messages whose last packet is in batch b *)
  kdecisions : Enclave.decision list array;
  know : Time.t;
}

let kv_prepare g =
  let windows = ref 0 in
  fun n ->
    incr windows;
    let msgs = Gen.messages g n in
    let msg_pkts = Array.map (fun m -> Gen.msg_packets g m Metadata.empty) msgs in
    let owner =
      Array.concat
        (Array.to_list (Array.mapi (fun j ps -> Array.make (List.length ps) j) msg_pkts))
    in
    let flat = Array.concat (List.map Array.of_list (Array.to_list msg_pkts)) in
    let nb = (Array.length flat + batch_packets - 1) / batch_packets in
    let batches =
      Array.init nb (fun b ->
          Array.to_list
            (Array.sub flat (b * batch_packets)
               (min batch_packets (Array.length flat - (b * batch_packets)))))
    in
    let ends = Array.make nb [] in
    let last = ref (-1) in
    Array.iteri
      (fun j ps ->
        last := !last + List.length ps;
        let b = !last / batch_packets in
        ends.(b) <- j :: ends.(b))
      msg_pkts;
    {
      msgs;
      msg_pkts;
      mds = Array.make (Array.length msgs) Metadata.empty;
      flat;
      owner;
      batches;
      ends = Array.map List.rev ends;
      kdecisions = Array.make nb [];
      know = Time.ms !windows;
    }

let kv_fields (m : Gen.msg) = function
  | "KeyHash" -> Int64.of_int m.Gen.key_hash
  | "IsMatch" -> if m.Gen.op = `Put then 1L else 0L
  | _ -> 0L

let kv_serve ctx (sys : Systems.kv) r ph w =
  let e = sys.Systems.kv_enclave in
  Array.iteri
    (fun j (m : Gen.msg) ->
      let w0 = Clock.words () in
      let t0 = Clock.ns () in
      let md = Stage.classify sys.Systems.stage m.Gen.desc in
      let t1 = Clock.ns () in
      let w1 = Clock.words () in
      call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:false;
      if ph.traced && Int64.rem (Int64.of_int j) sample_every = 0L then
        ignore (span ctx ph "stage.app_classify" ~key:j ~t0 ~t1 ~w0 ~w1 ());
      w.mds.(j) <- md;
      List.iter (fun (p : Packet.t) -> p.Packet.metadata <- md) w.msg_pkts.(j))
    w.msgs;
  Array.iteri
    (fun b batch ->
      let w0 = Clock.words () in
      let t0 = Clock.ns () in
      let ds = Enclave.process_batch e ~now:w.know batch in
      let t1 = Clock.ns () in
      let w1 = Clock.words () in
      call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:true;
      w.kdecisions.(b) <- ds;
      if ph.traced then begin
        let base = b * batch_packets in
        let len = List.length batch in
        let parent =
          span ctx ph "enclave.process_batch" ~key:(Int64.to_int w.flat.(base).Packet.id) ~t0
            ~t1 ~w0 ~w1 ()
        in
        for k = base to base + len - 1 do
          let pkt = w.flat.(k) in
          if sampled pkt then begin
            let j = w.owner.(k) in
            let child =
              replay ctx ph r ~parent ~pkt ~stage_md:w.mds.(j) ~msg_field:(kv_fields w.msgs.(j))
                ~now:w.know
            in
            Stat.add (layer ctx "enclave.self") ~ns:(((t1 - t0) / len) - child) ~words:0
          end
        done
      end;
      List.iter
        (fun j ->
          let msg_id = Option.value ~default:0L (Metadata.msg_id w.mds.(j)) in
          let tuple = w.msgs.(j).Gen.tuple in
          let w0 = Clock.words () in
          let t0 = Clock.ns () in
          Enclave.note_message_end e ~msg_id;
          Enclave.note_flow_closed e tuple;
          let t1 = Clock.ns () in
          let w1 = Clock.words () in
          call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:false)
        w.ends.(b))
    w.batches;
  Array.length w.flat

let kv_check ctx w =
  let k = ref 0 in
  Array.iter
    (fun ds ->
      List.iter
        (fun d ->
          let pkt = w.flat.(!k) in
          let m = w.msgs.(w.owner.(!k)) in
          Oracle.forwarded ctx.oracle pkt d;
          (match m.Gen.op with
          | `Get ->
            Oracle.replica ctx.oracle ~labels:Systems.replica_labels
              ~key_hash:m.Gen.key_hash pkt
          | `Put ->
            Oracle.priority ctx.oracle ~want:Systems.put_priority pkt;
            Oracle.expect ctx.oracle (pkt.Packet.route_label = None) (fun () ->
                Printf.sprintf "PUT packet %Ld was label-routed" pkt.Packet.id));
          incr k)
        ds)
    w.kdecisions;
  Oracle.expect ctx.oracle (!k = Array.length w.flat) (fun () -> "process_batch lost packets")

let kv_rpc ctx =
  let sys, resetup =
    setup_phase ctx ~make:(fun timer -> Systems.kv_system timer ~seed:ctx.seed) ~teardown:ignore
  in
  let e = sys.Systems.kv_enclave in
  let g = Gen.kv ~seed:ctx.seed ~keys:10_000 in
  let prepare = kv_prepare g in
  let serve = kv_serve ctx sys (replayer ctx e) in
  let check = kv_check ctx in
  run_windows ctx ~prepare ~serve ~check ~between:ignore ~resetup
    ~snap:(fun () -> enclaves_snap [ e ])
    ~digest:(fun () -> Gen.kv_digest g)

(* ------------------------------------------------------------------ *)
(* policy-churn *)

let policy_churn ctx =
  let sys, resetup =
    setup_phase ctx
      ~make:(fun timer -> Systems.churn_system timer ~seed:ctx.seed ~n:churn_enclaves)
      ~teardown:ignore
  in
  let ctl = sys.Systems.ctl in
  let enclaves = sys.Systems.enclaves in
  let g = Gen.flows ~seed:ctx.seed ~concurrent:concurrent_flows ~homes:churn_enclaves in
  let thresholds = ref Systems.thresholds in
  let alt_on = ref false in
  let fresh = Array.make churn_enclaves false in
  let serve =
    flow_serve ctx ~enclaves ~replayers:(Array.map (replayer ctx) enclaves) ~fresh
  in
  let check = flow_check ctx ~thresholds ~alt:(fun () -> !alt_on) in
  let rng = Rng.create (Int64.add ctx.seed 1L) in
  let edits = ref 0 in
  (* Each push is timed on its own; spans are recorded after the edit so
     that recording does not count towards its latency. *)
  let between ph =
    let timed = ref [] in
    let push name f =
      let t0 = Clock.ns () in
      let r = f () in
      let t1 = Clock.ns () in
      timed := (name, t0, t1) :: !timed;
      Oracle.ok ctx.oracle name r
    in
    let sends0 = (Controller.stats ctl).Controller.rs_attempts in
    let t0 = Clock.ns () in
    if Rng.int rng 10 < 2 then begin
      if !alt_on then push "controller.remove_action" (fun () ->
          Controller.remove_action_everywhere ctl Systems.alt_name)
      else begin
        push "controller.install_action" (fun () ->
            Controller.install_action_everywhere ctl sys.Systems.alt);
        push "controller.set_global" (fun () ->
            Controller.set_global_everywhere ctl ~action:Systems.alt_name "OtherPriority"
              (Int64.of_int Systems.alt_priority));
        push "controller.add_rule" (fun () ->
            Controller.add_rule_everywhere ctl ~pattern:Systems.alt_pattern
              ~action:Systems.alt_name ())
      end;
      alt_on := not !alt_on
    end
    else begin
      let th = retune rng in
      push "controller.set_global_array" (fun () ->
          Controller.set_global_array_everywhere ctl ~action:"pias" "Thresholds" th);
      thresholds := th
    end;
    let t1 = Clock.ns () in
    let sends = (Controller.stats ctl).Controller.rs_attempts - sends0 in
    Array.fill fresh 0 churn_enclaves true;
    Oracle.expect ctx.oracle (Controller.converged ctl) (fun () ->
        "controller not converged after an edit");
    if ph.measured then begin
      Stat.Hist.add ctx.upd (t1 - t0);
      List.iter
        (fun (name, t0, t1) ->
          ignore (span ctx ph name ~key:!edits ~t0 ~t1 ~w0:0 ~w1:0 ()))
        !timed
    end;
    if ph.exact then begin
      ctx.x_edits <- ctx.x_edits + 1;
      ctx.x_sends <- ctx.x_sends + sends
    end;
    incr edits;
    if !edits mod 4 = 0 then begin
      let t0 = Clock.ns () in
      let reports = Controller.collect_reports ctl in
      let t1 = Clock.ns () in
      let samples = Controller.scrape ctl in
      let t2 = Clock.ns () in
      Oracle.expect ctx.oracle (List.length reports = churn_enclaves) (fun () ->
          "collect_reports missed an enclave");
      ignore samples;
      if ph.measured then begin
        ignore (span ctx ph "controller.collect_reports" ~key:!edits ~t0 ~t1 ~w0:0 ~w1:0 ());
        ignore (span ctx ph "telemetry.fleet_scrape" ~key:!edits ~t0:t1 ~t1:t2 ~w0:0 ~w1:0 ())
      end
    end
  in
  run_windows ctx ~prepare:(flow_prepare g) ~serve ~check ~between ~resetup
    ~snap:(fun () -> enclaves_snap (Array.to_list enclaves))
    ~digest:(fun () -> Gen.flows_digest g)

(* ------------------------------------------------------------------ *)
(* shard-flows *)

let shard_flows ctx =
  (* One domain feeds; the rest of the cores run replicas. *)
  let shards = max 1 (Domain.recommended_domain_count () - 1) in
  ctx.shards <- shards;
  let (e, s), resetup =
    setup_phase ctx
      ~make:(fun timer ->
        let e = Systems.pias_enclave timer ~seed:ctx.seed in
        (e, Systems.shard timer e ~shards))
      ~teardown:(fun (_, s) -> Shard.stop s)
  in
  let g = Gen.flows ~seed:ctx.seed ~concurrent:concurrent_flows ~homes:1 in
  let thresholds = ref Systems.thresholds in
  let prepare = flow_prepare g in
  let check = flow_check ctx ~thresholds ~alt:(fun () -> false) in
  (* The checked window: the same packets through the parallel shard
     and through a parallel:false serial-replay reference built from the
     same source, both fresh. *)
  let w = prepare window_packets in
  let pkts = Array.map (fun (it : Gen.item) -> it.Gen.pkt) w.items in
  let copies = Array.map (fun (p : Packet.t) -> { p with Packet.id = p.Packet.id }) pkts in
  let events pkts = Array.map (fun p -> Shard.Ev_packet (w.now, p)) pkts in
  let reference = Systems.get "reference shard" (Shard.create ~shards ~parallel:false e) in
  let expected = Shard.process_stream reference (events copies) in
  Shard.stop reference;
  let actual = Shard.process_stream s (events pkts) in
  let with_prio ds pkts = Array.map2 (fun d (p : Packet.t) -> (d, p.Packet.priority)) ds pkts in
  Oracle.same_decisions ctx.oracle ~reference:(with_prio expected copies)
    ~actual:(with_prio actual pkts);
  Array.iteri (fun i d -> match d with Some d -> w.decisions.(i) <- d | None -> ()) actual;
  check w;
  let r = replayer ctx e in
  let errors = ref 0 in
  let serve ph w =
    let n = Array.length w.items in
    let parents = if ph.traced then Array.make n (-1) else [||] in
    for i = 0 to n - 1 do
      let pkt = w.items.(i).Gen.pkt in
      let w0 = Clock.words () in
      let t0 = Clock.ns () in
      Shard.feed s ~now:w.now pkt;
      let t1 = Clock.ns () in
      let w1 = Clock.words () in
      call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:true;
      if ph.traced then begin
        Stat.add (layer ctx "shard.feed") ~ns:(t1 - t0) ~words:(w1 - w0);
        if sampled pkt then
          parents.(i) <-
            Spans.record ctx.spans ~name:"shard.feed" ~key:(Int64.to_int pkt.Packet.id)
              ~start:t0 ~stop:t1 ~words:(w1 - w0) ()
      end
    done;
    let w0 = Clock.words () in
    let t0 = Clock.ns () in
    Shard.drain s;
    let t1 = Clock.ns () in
    let w1 = Clock.words () in
    call ctx ph ~t0 ~t1 ~w0 ~w1 ~latency:false;
    if ph.traced then begin
      ignore (span ctx ph "shard.drain" ~key:0 ~t0 ~t1 ~w0 ~w1 ());
      Array.iteri
        (fun i (it : Gen.item) ->
          if sampled it.Gen.pkt then
            ignore
              (replay ctx ph r ~parent:parents.(i) ~pkt:it.Gen.pkt ~stage_md:Metadata.empty
                 ~msg_field:(pias_fields it.Gen.flow) ~now:w.now))
        w.items
    end;
    n
  in
  (* [feed] returns no decision; the oracle reads each packet's priority
     after the drain, and worker exceptions count as failures. *)
  let check w =
    flow_check ctx ~thresholds ~alt:(fun () -> false) w;
    let now_errors = Shard.worker_errors s in
    if now_errors > !errors then
      Oracle.fail ctx.oracle (Printf.sprintf "%d worker errors" (now_errors - !errors));
    errors := now_errors
  in
  let snap () =
    snap_of ~counters:[ Shard.counters s ] ~samples:(Shard.scrape s)
      ~waits:(Shard.backpressure_waits s) ~parks:(Shard.consumer_parks s)
  in
  let result =
    run_windows ctx ~prepare ~serve ~check ~between:ignore ~snap ~resetup
      ~digest:(fun () -> Gen.flows_digest g)
  in
  Shard.stop s;
  result

let all =
  [
    ("flows", flows);
    ("kv-rpc", kv_rpc);
    ("policy-churn", policy_churn);
    ("shard-flows", shard_flows);
  ]
