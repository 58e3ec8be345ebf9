(* Checks on the benchmark itself: the oracles reject a wrong decision,
   the counts flagged exact repeat exactly across two runs with the same
   seed, and BENCHMARK.json names exactly the metrics the driver prints. *)

open Edenbench
module Json = Eden_telemetry.Json
module Packet = Eden_base.Packet
module Addr = Eden_base.Addr

let exe = "./main.exe"

(* ---- oracles must not pass vacuously ---- *)

let test_pias_oracle () =
  let g = Gen.flows ~seed:3L ~concurrent:4 ~homes:1 in
  let it = Gen.next_flow_packet g in
  let o = Oracle.create () in
  let want =
    Eden_functions.Pias.priority_for ~thresholds:Systems.thresholds
      ~size:(Int64.of_int (Packet.wire_size it.Gen.pkt))
  in
  it.Gen.pkt.Packet.priority <- (want + 1) mod 8;
  Oracle.pias o ~thresholds:Systems.thresholds it;
  Alcotest.(check int) "wrong PIAS priority is a failure" 1 o.Oracle.failed;
  let it = Gen.next_flow_packet g in
  let o = Oracle.create () in
  it.Gen.pkt.Packet.priority <- 7;
  Oracle.pias o ~thresholds:Systems.thresholds it;
  Alcotest.(check int) "a small flow's first packet is at priority 7" 0 o.Oracle.failed

let test_replica_oracle () =
  let o = Oracle.create () in
  let pkt =
    Packet.make ~id:1L
      ~flow:
        (Addr.five_tuple ~src:(Addr.endpoint 1 1) ~dst:(Addr.endpoint 2 2) ~proto:Addr.Tcp)
      ~kind:Packet.Data ()
  in
  let labels = Systems.replica_labels in
  let right = labels.(Eden_functions.Replica_select.replica_for ~n_replicas:4 ~key_hash:42) in
  pkt.Packet.route_label <- Some (if right = 301 then 302 else 301);
  Oracle.replica o ~labels ~key_hash:42 pkt;
  pkt.Packet.route_label <- Some right;
  Oracle.replica o ~labels ~key_hash:42 pkt;
  Alcotest.(check (pair int int))
    "one of two GET routes wrong" (1, 2) (o.Oracle.failed, o.Oracle.checked)

let test_shard_oracle () =
  let o = Oracle.create () in
  let fwd q = Some (Eden_enclave.Enclave.Forward { queue = q; charge = 100 }) in
  Oracle.same_decisions o
    ~reference:[| fwd None; fwd None |]
    ~actual:[| fwd None; fwd (Some 1) |];
  Alcotest.(check int) "parallel decision differing from reference" 1 o.Oracle.failed

(* ---- exact counts repeat ---- *)

let run_bench ~workload ~trace =
  let args =
    [| exe; "--workload"; workload; "--seed"; "11"; "--seconds"; "0"; "--trace"; trace |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s --trace %s exited abnormally" workload trace);
  let lines = List.filter (fun l -> l <> "") lines in
  let digest =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "# host") lines
    |> String.split_on_char ' '
    |> List.find (fun w -> String.length w > 14 && String.sub w 0 14 = "stream_digest=")
  in
  match Json.parse (List.nth lines (List.length lines - 1)) with
  | Error e -> Alcotest.failf "result line: %s" e
  | Ok j -> (digest, j)

let exact_values ~workload metrics (_, j) =
  let ms = Option.get (Json.member "metrics" j) in
  List.filter_map
    (fun (mt : Report.metric) ->
      if Report.exact_on ~workload mt then
        Option.bind (Json.member mt.Report.name ms) (Json.member "value")
        |> Option.map (fun v -> (mt.Report.name, Option.get (Json.to_float v)))
      else None)
    metrics

let test_repeat workload () =
  List.iter
    (fun (trace, metrics) ->
      let a = run_bench ~workload ~trace and b = run_bench ~workload ~trace in
      Alcotest.(check string) "stream digest" (fst a) (fst b);
      Alcotest.(check bool) "correct" true
        (Option.bind (Json.member "correct" (snd a)) Json.to_bool = Some true);
      let va = exact_values ~workload metrics a in
      Alcotest.(check bool) "has exact metrics" true (va <> [] || trace = "0");
      Alcotest.(check (list (pair string (float 0.0)))) "exact counts" va
        (exact_values ~workload metrics b))
    [ ("0", Report.end_to_end); ("1", Report.per_layer) ]

(* ---- BENCHMARK.json and the printed metrics agree ---- *)

let test_benchmark_json () =
  let j =
    match Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let pairs key =
    Option.get (Option.bind (Json.member key j) Json.to_list)
    |> List.map (fun m ->
           let s k = Option.get (Option.bind (Json.member k m) Json.to_str) in
           (s "name", s "unit"))
  in
  let ours l = List.map (fun (mt : Report.metric) -> (mt.Report.name, mt.Report.unit)) l in
  let same = Alcotest.(check (list (pair string string))) in
  same "end_to_end" (ours Report.end_to_end) (pairs "end_to_end");
  same "per_layer" (ours Report.per_layer) (pairs "per_layer");
  let workloads =
    Option.get (Option.bind (Json.member "workloads" j) Json.to_list)
    |> List.map (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_str))
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Workloads.all) workloads

let () =
  Alcotest.run "edenbench"
    [
      ( "oracle",
        [
          Alcotest.test_case "pias" `Quick test_pias_oracle;
          Alcotest.test_case "replica-select" `Quick test_replica_oracle;
          Alcotest.test_case "shard reference" `Quick test_shard_oracle;
        ] );
      ( "exact",
        List.map (fun (w, _) -> Alcotest.test_case w `Slow (test_repeat w)) Workloads.all );
      ("benchmark.json", [ Alcotest.test_case "names" `Quick test_benchmark_json ]);
    ]
