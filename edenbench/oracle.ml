(* Output oracles.  Every decision the benchmark gets back is checked
   against a reference model of what the configured action must do; a
   mismatch, an exception or a failed control operation is one failed
   operation out of [checked]. *)

module Enclave = Eden_enclave.Enclave
module Packet = Eden_base.Packet

type t = { mutable checked : int; mutable failed : int; mutable first : string option }

let create () = { checked = 0; failed = 0; first = None }

let fail t what =
  t.checked <- t.checked + 1;
  t.failed <- t.failed + 1;
  if t.first = None then t.first <- Some what

let expect t ok what = if ok then t.checked <- t.checked + 1 else fail t (what ())

let forwarded t (pkt : Packet.t) = function
  | Enclave.Forward _ -> ()
  | Enclave.Dropped why ->
    fail t (Printf.sprintf "packet %Ld dropped: %s" pkt.Packet.id why)

(* PIAS (paper Fig. 7): the priority follows the wire bytes the flow's
   message state has accumulated, this packet included. *)
let pias t ~thresholds (it : Gen.item) =
  let pkt = it.Gen.pkt in
  it.Gen.flow.Gen.pias_bytes <- it.Gen.flow.Gen.pias_bytes + Packet.wire_size pkt;
  let want =
    Eden_functions.Pias.priority_for ~thresholds
      ~size:(Int64.of_int it.Gen.flow.Gen.pias_bytes)
  in
  expect t (pkt.Packet.priority = want) (fun () ->
      Printf.sprintf "pias: packet %Ld priority %d, want %d" pkt.Packet.id
        pkt.Packet.priority want)

let priority t ~want (pkt : Packet.t) =
  expect t (pkt.Packet.priority = want) (fun () ->
      Printf.sprintf "packet %Ld priority %d, want %d" pkt.Packet.id pkt.Packet.priority want)

(* Replica selection: the GET is label-routed to the replica its key
   hash picks. *)
let replica t ~labels ~key_hash (pkt : Packet.t) =
  let want =
    if key_hash < 0 then None
    else
      Some
        labels.(Eden_functions.Replica_select.replica_for
                  ~n_replicas:(Array.length labels) ~key_hash)
  in
  expect t (pkt.Packet.route_label = want) (fun () ->
      let s = function None -> "none" | Some l -> string_of_int l in
      Printf.sprintf "replica-select: packet %Ld label %s, want %s" pkt.Packet.id
        (s pkt.Packet.route_label) (s want))

(* The sharded run must decide exactly as the serial-replay reference. *)
let same_decisions t ~reference ~actual =
  expect t (reference = actual) (fun () ->
      "shard: parallel decisions differ from the parallel:false reference")

let ok t what = function
  | Ok _ -> t.checked <- t.checked + 1
  | Error e -> fail t (what ^ ": " ^ e)
