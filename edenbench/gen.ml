(* Seeded input generators.  Every packet they return is a fresh value
   that no earlier data-path call has seen: the enclave writes merged
   metadata back into [pkt.metadata], so a reused packet would re-enter
   as stage-tagged and take a different path.  The same seed gives the
   same stream; [flows_digest] and [kv_digest] fingerprint what has been
   generated so far. *)

module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Rng = Eden_base.Rng
module Builtin = Eden_stage.Builtin
module Flowsize = Eden_workloads.Flowsize

let mss = 1460
let mix d x = (d lxor (x land 0xffff_ffff)) * 0x0100_0193 land 0xffff_ffff_ffff

(* ---- Metadata-less TCP egress: [concurrent] flows with web-search
   sizes; a finished flow is replaced by a new one.  Flow [n] belongs to
   enclave [n mod homes]. *)

type flow = {
  tuple : Addr.five_tuple;
  home : int;
  mutable remaining : int;
  mutable seq : int;
  mutable pias_bytes : int;
      (** Wire bytes the flow's PIAS message state has accumulated;
          kept by the oracle, which replays what the enclave should do. *)
}

type item = { pkt : Packet.t; flow : flow; last : bool (* flow ends with it *) }

type flows = {
  f_rng : Rng.t;
  mutable slots : flow array;
  homes : int;
  mutable started : int;
  mutable f_next_id : int;
  mutable f_digest : int;
}

let new_flow g =
  let n = g.started in
  g.started <- n + 1;
  let home = n mod g.homes in
  let tuple =
    Addr.five_tuple
      ~src:(Addr.endpoint (1 + home) (1024 + (n mod 64_000)))
      ~dst:(Addr.endpoint (100 + (n / 64_000 mod 10_000)) 80)
      ~proto:Addr.Tcp
  in
  let size = Flowsize.sample Flowsize.web_search g.f_rng in
  { tuple; home; remaining = max 1 size; seq = 0; pias_bytes = 0 }

let flows ~seed ~concurrent ~homes =
  let g =
    { f_rng = Rng.create seed; slots = [||]; homes; started = 0; f_next_id = 1; f_digest = 0 }
  in
  g.slots <- Array.init concurrent (fun _ -> new_flow g);
  g

let next_flow_packet g =
  let i = Rng.int g.f_rng (Array.length g.slots) in
  let f = g.slots.(i) in
  let payload = min mss f.remaining in
  let id = g.f_next_id in
  g.f_next_id <- id + 1;
  let pkt =
    Packet.make ~id:(Int64.of_int id) ~flow:f.tuple ~kind:Packet.Data ~seq:f.seq ~payload ()
  in
  g.f_digest <- mix (mix (mix g.f_digest (Addr.hash_five_tuple f.tuple)) payload) f.seq;
  f.seq <- f.seq + payload;
  f.remaining <- f.remaining - payload;
  let last = f.remaining = 0 in
  if last then g.slots.(i) <- new_flow g;
  { pkt; flow = f; last }

let flow_window g n = Array.init n (fun _ -> next_flow_packet g)
let flows_digest g = g.f_digest

(* ---- memcached GET/PUT messages, every message on its own short-lived
   connection.  The wire model is the repo's memcached application
   (Eden_workloads.Memcached_app): a GET is one ~100-byte request whose
   descriptor carries the key's stored value size; a PUT carries its
   value and stores the new size.  The mix comes from published
   key-value workloads:
   - 95% GETs and Zipfian key popularity with constant 0.99: YCSB
     workload B (Cooper et al., SoCC 2010);
   - value sizes: the generalized Pareto fit (theta 0, sigma 214.476,
     xi 0.348238) to Facebook's ETC memcached pool (Atikoglu et al.,
     SIGMETRICS 2012), capped at three full packets, so a PUT is 1-3
     packets. *)

type msg = {
  op : [ `Get | `Put ];
  key_hash : int;
  desc : Eden_stage.Classifier.Descriptor.t;
  tuple : Addr.five_tuple;
  payloads : int list;
}

type kv = {
  k_rng : Rng.t;
  zipf : Eden_base.Dist.Zipf.t;
  keys : string array;
  values : int array;  (** each key's stored value size, bytes *)
  mutable msgs : int;
  mutable k_next_id : int;
  mutable k_digest : int;
}

let get_share = 0.95
let get_request_bytes = 100
let max_value_bytes = 3 * mss

let value_size rng =
  let sigma = 214.476 and xi = 0.348238 in
  let u = Rng.float rng 1.0 in
  let v = sigma /. xi *. (Float.pow (1.0 -. u) (-.xi) -. 1.0) in
  max 1 (min max_value_bytes (int_of_float v))

let kv ~seed ~keys =
  let k_rng = Rng.create seed in
  {
    k_rng;
    zipf = Eden_base.Dist.Zipf.create ~n:keys ~alpha:0.99;
    keys = Array.init keys (Printf.sprintf "user:%d");
    values = Array.init keys (fun _ -> value_size k_rng);
    msgs = 0;
    k_next_id = 1;
    k_digest = 0;
  }

let next_msg g =
  let n = g.msgs in
  g.msgs <- n + 1;
  let op = if Rng.float g.k_rng 1.0 < get_share then `Get else `Put in
  let k = Eden_base.Dist.Zipf.sample g.zipf g.k_rng in
  let key = g.keys.(k) in
  let size, wire =
    match op with
    | `Get -> (g.values.(k), get_request_bytes)
    | `Put ->
      let v = value_size g.k_rng in
      g.values.(k) <- v;
      (v, v)
  in
  let rec split s = if s <= mss then [ s ] else mss :: split (s - mss) in
  let tuple =
    Addr.five_tuple
      ~src:(Addr.endpoint 1 (1024 + (n mod 64_000)))
      ~dst:(Addr.endpoint (200 + (n / 64_000 mod 10_000)) 11211)
      ~proto:Addr.Tcp
  in
  let desc = Builtin.memcached_descriptor ~op ~key ~size in
  let key_hash =
    match Eden_stage.Classifier.Descriptor.find Builtin.Field.key_hash desc with
    | Some (Eden_base.Metadata.Int h) -> Int64.to_int h
    | Some (Eden_base.Metadata.Str _) | None -> -1
  in
  g.k_digest <- mix (mix g.k_digest key_hash) (if op = `Get then size else -size);
  {
    op;
    key_hash;
    desc;
    tuple;
    payloads = split wire;
  }

(* Whole messages, at least [n] packets in all. *)
let messages g n =
  let rec go acc pkts =
    if pkts >= n then Array.of_list (List.rev acc)
    else
      let m = next_msg g in
      go (m :: acc) (pkts + List.length m.payloads)
  in
  go [] 0

(* The packets of one message, carrying the metadata its stage attached. *)
let msg_packets g m metadata =
  let seq = ref 0 in
  List.map
    (fun payload ->
      let id = g.k_next_id in
      g.k_next_id <- id + 1;
      let p =
        Packet.make ~id:(Int64.of_int id) ~flow:m.tuple ~kind:Packet.Data ~seq:!seq ~payload
          ~metadata ()
      in
      seq := !seq + payload;
      p)
    m.payloads

let kv_digest g = g.k_digest
