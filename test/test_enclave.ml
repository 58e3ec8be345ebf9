(* Tests for the enclave: state store, tables, queueing, cost accounting,
   and the full process() pipeline with interpreted and native actions. *)

module Enclave = Eden_enclave.Enclave
module State = Eden_enclave.State
module Table = Eden_enclave.Table
module Queueing = Eden_enclave.Queueing
module Cost = Eden_enclave.Cost
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Class_name = Eden_base.Class_name
module Time = Eden_base.Time
module Stage = Eden_stage.Stage
module Ruleset = Eden_stage.Ruleset
module Classifier = Eden_stage.Classifier
module Builtin = Eden_stage.Builtin
open Eden_lang

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let flow ?(src_port = 1000) ?(dst_port = 80) () =
  Addr.five_tuple ~src:(Addr.endpoint 1 src_port) ~dst:(Addr.endpoint 2 dst_port)
    ~proto:Addr.Tcp

let data_packet ?(id = 0L) ?(payload = 1000) ?(metadata = Metadata.empty) ?(seq = 0) f =
  Packet.make ~id ~flow:f ~kind:Packet.Data ~seq ~payload ~metadata ()

let cls name = Class_name.v ~stage:"test" ~ruleset:"r" ~name
let pat s = Option.get (Class_name.Pattern.of_string s)

let tagged_metadata ?(msg_id = 1L) ?(extra = []) names =
  let md = Metadata.with_msg_id msg_id Metadata.empty in
  let md = List.fold_left (fun md n -> Metadata.add_class (cls n) md) md names in
  List.fold_left (fun md (k, v) -> Metadata.add k v md) md extra

(* ------------------------------------------------------------------ *)
(* State store *)

let test_state_globals () =
  let s = State.create () in
  check_i64 "default" 0L (State.global_get s "x");
  State.global_set s "x" 42L;
  check_i64 "set" 42L (State.global_get s "x");
  check_bool "array default" true (State.global_array s "a" = [||]);
  State.global_array_set s "a" [| 1L; 2L |];
  check_i64 "array" 2L (State.global_array s "a").(1)

let test_state_messages () =
  let s = State.create () in
  let now = Time.us 1 in
  check_i64 "default seeded" 7L (State.msg_get s ~msg:1L ~field:"Size" ~default:7L ~now);
  State.msg_set s ~msg:1L ~field:"Size" 100L ~now;
  check_i64 "updated" 100L (State.msg_get s ~msg:1L ~field:"Size" ~default:7L ~now);
  check_i64 "other message isolated" 7L
    (State.msg_get s ~msg:2L ~field:"Size" ~default:7L ~now);
  check_int "two messages" 2 (State.msg_count s);
  State.msg_end s ~msg:1L;
  check_int "one left" 1 (State.msg_count s);
  check_bool "gone" false (State.msg_known s ~msg:1L)

let test_state_expiry () =
  let s = State.create () in
  ignore (State.msg_get s ~msg:1L ~field:"x" ~default:0L ~now:(Time.us 1));
  ignore (State.msg_get s ~msg:2L ~field:"x" ~default:0L ~now:(Time.ms 5));
  let dropped = State.expire s ~now:(Time.ms 6) ~idle:(Time.ms 2) in
  check_int "one expired" 1 dropped;
  check_bool "recent kept" true (State.msg_known s ~msg:2L)

(* The store remembers the last message touched; ending or expiring
   that message must forget it, and field names match by content. *)
let test_state_last_message () =
  let s = State.create () in
  let now = Time.us 1 in
  State.msg_set s ~msg:1L ~field:"Size" 100L ~now;
  State.msg_set s ~msg:1L ~field:(String.concat "" [ "De"; "sired" ]) 5L ~now;
  State.msg_set s ~msg:2L ~field:"Size" 200L ~now;
  check_i64 "first message" 100L (State.msg_get s ~msg:1L ~field:"Size" ~default:0L ~now);
  check_i64 "field by content" 5L (State.msg_get s ~msg:1L ~field:"Desired" ~default:0L ~now);
  check_i64 "second message" 200L (State.msg_get s ~msg:2L ~field:"Size" ~default:0L ~now);
  State.msg_end s ~msg:2L;
  check_i64 "ended message restarts" 7L
    (State.msg_get s ~msg:2L ~field:"Size" ~default:7L ~now);
  check_int "entries" 2 (State.msg_count s);
  ignore (State.msg_get s ~msg:1L ~field:"Size" ~default:0L ~now);
  check_int "expired" 2 (State.expire s ~now:(Time.ms 5) ~idle:(Time.ms 1));
  check_i64 "expired message restarts" 9L
    (State.msg_get s ~msg:1L ~field:"Size" ~default:9L ~now:(Time.ms 5));
  check_int "one entry" 1 (State.msg_count s)

(* ------------------------------------------------------------------ *)
(* Tables *)

let test_table_specificity_order () =
  let tbl = Table.create ~id:0 in
  ignore (Table.add_rule tbl ~pattern:(pat "*.*.*") ~action:"fallback");
  ignore (Table.add_rule tbl ~pattern:(pat "test.r.GET") ~action:"get_action");
  ignore (Table.add_rule tbl ~pattern:(pat "test.r.*") ~action:"stage_action");
  (match Table.lookup tbl [ cls "GET" ] with
  | Some r -> Alcotest.(check string) "most specific" "get_action" r.Table.action
  | None -> Alcotest.fail "no match");
  (match Table.lookup tbl [ cls "PUT" ] with
  | Some r -> Alcotest.(check string) "prefix" "stage_action" r.Table.action
  | None -> Alcotest.fail "no match");
  match Table.lookup tbl [ Class_name.v ~stage:"other" ~ruleset:"r" ~name:"X" ] with
  | Some r -> Alcotest.(check string) "fallback" "fallback" r.Table.action
  | None -> Alcotest.fail "no match"

let test_table_multi_class_packet () =
  let tbl = Table.create ~id:0 in
  ignore (Table.add_rule tbl ~pattern:(pat "test.r.PUT") ~action:"put_action");
  match Table.lookup tbl [ cls "GET"; cls "PUT" ] with
  | Some r -> Alcotest.(check string) "matches any class" "put_action" r.Table.action
  | None -> Alcotest.fail "no match"

let test_table_remove () =
  let tbl = Table.create ~id:0 in
  let r = Table.add_rule tbl ~pattern:(pat "*.*.*") ~action:"a" in
  check_bool "removed" true (Table.remove_rule tbl r.Table.rule_id);
  check_bool "no match" true (Table.lookup tbl [ cls "GET" ] = None)

(* ------------------------------------------------------------------ *)
(* Queueing *)

let test_token_bucket_rate () =
  (* 8 Mbps = 1 MB/s; after the burst is spent, 1000-byte packets leave
     1 ms apart. *)
  let tb = Queueing.Token_bucket.create ~rate_bps:8e6 ~burst_bytes:1000 in
  let d0 = Queueing.Token_bucket.consume tb ~now:Time.zero ~cost_bytes:1000 in
  check_bool "burst departs immediately" true (Time.compare d0 Time.zero = 0);
  let d1 = Queueing.Token_bucket.consume tb ~now:Time.zero ~cost_bytes:1000 in
  check_bool "second waits ~1ms" true
    (Float.abs (Time.to_ms d1 -. 1.0) < 0.01);
  let d2 = Queueing.Token_bucket.consume tb ~now:Time.zero ~cost_bytes:1000 in
  check_bool "third waits ~2ms" true (Float.abs (Time.to_ms d2 -. 2.0) < 0.01)

let test_token_bucket_refill () =
  let tb = Queueing.Token_bucket.create ~rate_bps:8e6 ~burst_bytes:1000 in
  let _ = Queueing.Token_bucket.consume tb ~now:Time.zero ~cost_bytes:1000 in
  (* After 1 ms the bucket holds 1000 bytes again. *)
  let d = Queueing.Token_bucket.consume tb ~now:(Time.ms 1) ~cost_bytes:1000 in
  check_bool "no extra wait" true (Time.compare d (Time.ms 1) <= 0)

let test_priority_queue_order () =
  let q = Queueing.Priority.create () in
  ignore (Queueing.Priority.push q ~prio:0 ~size:10 "low");
  ignore (Queueing.Priority.push q ~prio:7 ~size:10 "high");
  ignore (Queueing.Priority.push q ~prio:3 ~size:10 "mid");
  ignore (Queueing.Priority.push q ~prio:7 ~size:10 "high2");
  Alcotest.(check (option string)) "high first" (Some "high") (Queueing.Priority.pop q);
  Alcotest.(check (option string)) "fifo within level" (Some "high2") (Queueing.Priority.pop q);
  Alcotest.(check (option string)) "then mid" (Some "mid") (Queueing.Priority.pop q);
  Alcotest.(check (option string)) "then low" (Some "low") (Queueing.Priority.pop q);
  Alcotest.(check (option string)) "empty" None (Queueing.Priority.pop q)

let test_priority_queue_drop_tail () =
  let q = Queueing.Priority.create ~capacity_bytes:25 () in
  check_bool "fits" true (Queueing.Priority.push q ~prio:0 ~size:10 "a");
  check_bool "fits" true (Queueing.Priority.push q ~prio:0 ~size:10 "b");
  check_bool "level full -> dropped" false (Queueing.Priority.push q ~prio:0 ~size:10 "c");
  check_bool "other level has its own budget" true
    (Queueing.Priority.push q ~prio:7 ~size:10 "d");
  check_int "drops counted" 1 (Queueing.Priority.drops q);
  check_int "bytes" 30 (Queueing.Priority.bytes q)

(* ------------------------------------------------------------------ *)
(* Enclave pipeline with interpreted actions *)

let pias_like_schema =
  Schema.with_standard_packet
    ~message:[ Schema.field "Size" ~access:Schema.Read_write ]
    ~global_arrays:[ Schema.array "Limits" ]
    ()

(* PIAS: accumulate message size, look up priority by threshold. *)
let pias_action () =
  let open Dsl in
  let search =
    fn "search" [ "i" ]
      (if_ (var "i" >= glob_arr_len "Limits") (int 0)
         (if_ (msg "Size" <= glob_arr "Limits" (var "i"))
            (int 7 - var "i")
            (call "search" [ var "i" + int 1 ])))
  in
  action ~funs:[ search ] "pias"
    (set_msg "Size" (msg "Size" + pkt "Size") ^^ set_pkt "Priority" (call "search" [ int 0 ]))

let compiled_pias () = get_ok (Result.map_error Compile.error_to_string
  (Compile.compile pias_like_schema (pias_action ())))

let installed_enclave () =
  let e = Enclave.create ~host:1 () in
  get_ok
    (Enclave.install_action e
       {
         Enclave.i_name = "pias";
         i_impl = Enclave.Interpreted (compiled_pias ());
         i_msg_sources = [ ("Size", Enclave.Stateful 0L) ];
       });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"pias" ()));
  get_ok (Enclave.set_global_array e ~action:"pias" "Limits" [| 10_000L; 1_000_000L |]);
  e

let test_process_sets_priority () =
  let e = installed_enclave () in
  let f = flow () in
  let pkt = data_packet ~payload:1000 f in
  (match Enclave.process e ~now:(Time.us 1) pkt with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped r -> Alcotest.failf "dropped: %s" r);
  (* 1058 bytes accumulated <= 10KB: highest priority (7). *)
  check_int "small flow high prio" 7 pkt.Packet.priority

let test_process_accumulates_message_state () =
  let e = installed_enclave () in
  let f = flow () in
  (* Push ~20 KB through: priority must drop to 6 once size > 10 KB. *)
  let final_prio = ref 7 in
  for i = 0 to 19 do
    let pkt = data_packet ~id:(Int64.of_int i) ~payload:1000 ~seq:(i * 1000) f in
    (match Enclave.process e ~now:(Time.us (i + 1)) pkt with
    | Enclave.Forward _ -> ()
    | Enclave.Dropped r -> Alcotest.failf "dropped: %s" r);
    final_prio := pkt.Packet.priority
  done;
  check_int "demoted" 6 !final_prio

let test_flow_state_isolated_per_flow () =
  let e = installed_enclave () in
  let f1 = flow ~src_port:1000 () in
  let f2 = flow ~src_port:2000 () in
  for i = 0 to 19 do
    ignore (Enclave.process e ~now:(Time.us i) (data_packet ~payload:1000 f1))
  done;
  let pkt = data_packet ~payload:1000 f2 in
  ignore (Enclave.process e ~now:(Time.us 100) pkt);
  check_int "fresh flow still high prio" 7 pkt.Packet.priority

let test_stage_metadata_message_id_used () =
  let e = installed_enclave () in
  let f = flow () in
  (* Two packets of the same application message (metadata msg id),
     different flows: state accumulates under the message id. *)
  let md = tagged_metadata ~msg_id:5L [ "GET" ] in
  for i = 0 to 19 do
    let pkt = data_packet ~id:(Int64.of_int i) ~payload:1000 ~metadata:md f in
    ignore (Enclave.process e ~now:(Time.us i) pkt)
  done;
  let pkt = data_packet ~payload:1000 ~metadata:md (flow ~src_port:9999 ()) in
  ignore (Enclave.process e ~now:(Time.us 100) pkt);
  check_int "accumulated across flows" 6 pkt.Packet.priority

let test_note_message_end_clears_state () =
  let e = installed_enclave () in
  let md = tagged_metadata ~msg_id:5L [ "GET" ] in
  let f = flow () in
  for i = 0 to 19 do
    ignore (Enclave.process e ~now:(Time.us i) (data_packet ~payload:1000 ~metadata:md f))
  done;
  Enclave.note_message_end e ~msg_id:5L;
  let pkt = data_packet ~payload:1000 ~metadata:md f in
  ignore (Enclave.process e ~now:(Time.us 100) pkt);
  check_int "state reset" 7 pkt.Packet.priority

let test_unmatched_class_means_no_action () =
  let e = Enclave.create ~host:1 () in
  get_ok
    (Enclave.install_action e
       {
         Enclave.i_name = "pias";
         i_impl = Enclave.Interpreted (compiled_pias ());
         i_msg_sources = [];
       });
  ignore
    (get_ok (Enclave.add_table_rule e ~pattern:(pat "test.r.GET") ~action:"pias" ()));
  let pkt = data_packet (flow ()) in
  (match Enclave.process e ~now:Time.zero pkt with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped _ -> Alcotest.fail "dropped");
  check_int "untouched" 0 pkt.Packet.priority;
  check_int "no invocation" 0 (Enclave.counters e).Enclave.invocations

let test_drop_action () =
  let e = Enclave.create ~host:1 () in
  let schema = Schema.with_standard_packet () in
  let drop_put =
    let open Dsl in
    action "drop_all" (set_pkt "Drop" (int 1))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema drop_put)) in
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "drop_all"; i_impl = Enclave.Interpreted p; i_msg_sources = [] });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"drop_all" ()));
  (match Enclave.process e ~now:Time.zero (data_packet (flow ())) with
  | Enclave.Dropped _ -> ()
  | Enclave.Forward _ -> Alcotest.fail "expected drop");
  check_int "counted" 1 (Enclave.counters e).Enclave.dropped

let test_queue_and_charge_outputs () =
  let e = Enclave.create ~host:1 () in
  let schema =
    Schema.with_standard_packet ~message:[ Schema.field "OpSize" ] ()
  in
  (* Pulsar-style: steer to queue 3, charge the operation size. *)
  let act =
    let open Dsl in
    action "pulsar" (set_pkt "Queue" (int 3) ^^ set_pkt "Charge" (msg "OpSize"))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema act)) in
  get_ok
    (Enclave.install_action e
       {
         Enclave.i_name = "pulsar";
         i_impl = Enclave.Interpreted p;
         i_msg_sources = [ ("OpSize", Enclave.Metadata_int "msg_size") ];
       });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"pulsar" ()));
  let md = tagged_metadata ~msg_id:9L ~extra:[ ("msg_size", Metadata.int 65536) ] [ "READ" ] in
  let pkt = data_packet ~payload:100 ~metadata:md (flow ()) in
  match Enclave.process e ~now:Time.zero pkt with
  | Enclave.Forward { queue = Some 3; charge = 65536 } -> ()
  | Enclave.Forward { queue; charge } ->
    Alcotest.failf "wrong outputs: queue=%s charge=%d"
      (match queue with Some q -> string_of_int q | None -> "-")
      charge
  | Enclave.Dropped _ -> Alcotest.fail "dropped"

let test_metadata_flag_source () =
  let e = Enclave.create ~host:1 () in
  let schema = Schema.with_standard_packet ~message:[ Schema.field "IsRead" ] () in
  let act =
    let open Dsl in
    action "flagtest"
      (if_ (msg "IsRead" = int 1) (set_pkt "Priority" (int 6)) (set_pkt "Priority" (int 1)))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema act)) in
  get_ok
    (Enclave.install_action e
       {
         Enclave.i_name = "flagtest";
         i_impl = Enclave.Interpreted p;
         i_msg_sources = [ ("IsRead", Enclave.Metadata_flag ("operation", "READ")) ];
       });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"flagtest" ()));
  let md_read = tagged_metadata ~msg_id:1L ~extra:[ ("operation", Metadata.str "READ") ] [] in
  let pkt = data_packet ~metadata:md_read (flow ()) in
  ignore (Enclave.process e ~now:Time.zero pkt);
  check_int "read" 6 pkt.Packet.priority;
  let md_write = tagged_metadata ~msg_id:2L ~extra:[ ("operation", Metadata.str "WRITE") ] [] in
  let pkt2 = data_packet ~metadata:md_write (flow ~src_port:2000 ()) in
  ignore (Enclave.process e ~now:Time.zero pkt2);
  check_int "write" 1 pkt2.Packet.priority

let test_enforce_off_leaves_packet_untouched () =
  let e = installed_enclave () in
  Enclave.set_enforce e false;
  let pkt = data_packet (flow ()) in
  ignore (Enclave.process e ~now:Time.zero pkt);
  check_int "priority unchanged" 0 pkt.Packet.priority;
  check_int "but action ran" 1 (Enclave.counters e).Enclave.invocations

let test_fault_isolation_and_fail_open () =
  let e = Enclave.create ~host:1 () in
  let schema =
    Schema.with_standard_packet ~global_arrays:[ Schema.array "Empty" ] ()
  in
  (* Reads Empty[5] — faults at run time because the array is empty. *)
  let act =
    let open Dsl in
    action "faulty" (set_pkt "Priority" (glob_arr "Empty" (int 5)))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema act)) in
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "faulty"; i_impl = Enclave.Interpreted p; i_msg_sources = [] });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"faulty" ()));
  let pkt = data_packet (flow ()) in
  (match Enclave.process e ~now:Time.zero pkt with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped _ -> Alcotest.fail "fail-open expected");
  check_int "fault recorded" 1 (Enclave.counters e).Enclave.faults;
  check_int "packet untouched" 0 pkt.Packet.priority;
  match Enclave.faults e with
  | { Enclave.fr_action = "faulty"; _ } :: _ -> ()
  | _ -> Alcotest.fail "fault record missing"

let test_install_rejects_bad_packet_field () =
  let e = Enclave.create ~host:1 () in
  let schema = Schema.make ~packet:[ Schema.field "Bogus" ~access:Schema.Read_write ] () in
  let act =
    let open Dsl in
    action "bad" (set_pkt "Bogus" (int 1))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema act)) in
  match
    Enclave.install_action e
      { Enclave.i_name = "bad"; i_impl = Enclave.Interpreted p; i_msg_sources = [] }
  with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error msg -> check_bool "mentions field" true (String.length msg > 0)

let test_install_rejects_writable_metadata_source () =
  let e = Enclave.create ~host:1 () in
  let schema =
    Schema.with_standard_packet
      ~message:[ Schema.field "OpSize" ~access:Schema.Read_write ]
      ()
  in
  let act =
    let open Dsl in
    action "bad" (set_msg "OpSize" (int 1))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema act)) in
  match
    Enclave.install_action e
      {
        Enclave.i_name = "bad";
        i_impl = Enclave.Interpreted p;
        i_msg_sources = [ ("OpSize", Enclave.Metadata_int "msg_size") ];
      }
  with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_duplicate_install_rejected () =
  let e = installed_enclave () in
  match
    Enclave.install_action e
      {
        Enclave.i_name = "pias";
        i_impl = Enclave.Interpreted (compiled_pias ());
        i_msg_sources = [];
      }
  with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_concurrency_levels () =
  let e = installed_enclave () in
  check_bool "pias per-message" true (Enclave.concurrency_of e "pias" = Some `Per_message);
  let schema = Schema.with_standard_packet ~global:[ Schema.field "N" ~access:Schema.Read_write ] () in
  let act =
    let open Dsl in
    action "counter" (set_glob "N" (glob "N" + int 1))
  in
  let p = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema act)) in
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "counter"; i_impl = Enclave.Interpreted p; i_msg_sources = [] });
  check_bool "global writer serial" true (Enclave.concurrency_of e "counter" = Some `Serial);
  let ro =
    let open Dsl in
    action "mirror" (set_pkt "Priority" (pkt "PayloadSize" % int 8))
  in
  let p2 =
    get_ok
      (Result.map_error Compile.error_to_string
         (Compile.compile (Schema.with_standard_packet ()) ro))
  in
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "mirror"; i_impl = Enclave.Interpreted p2; i_msg_sources = [] });
  check_bool "packet-only parallel" true (Enclave.concurrency_of e "mirror" = Some `Parallel)

let test_goto_table_chain () =
  let e = Enclave.create ~host:1 () in
  let schema = Schema.with_standard_packet () in
  let jump =
    let open Dsl in
    action "jump" (set_pkt "GotoTable" (int 1))
  in
  let mark =
    let open Dsl in
    action "mark" (set_pkt "Priority" (int 5))
  in
  let pj = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema jump)) in
  let pm = get_ok (Result.map_error Compile.error_to_string (Compile.compile schema mark)) in
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "jump"; i_impl = Enclave.Interpreted pj; i_msg_sources = [] });
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "mark"; i_impl = Enclave.Interpreted pm; i_msg_sources = [] });
  let t1 = Enclave.add_table e in
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"jump" ()));
  ignore (get_ok (Enclave.add_table_rule e ~table:t1 ~pattern:(pat "*.*.*") ~action:"mark" ()));
  let pkt = data_packet (flow ()) in
  ignore (Enclave.process e ~now:Time.zero pkt);
  check_int "chained action applied" 5 pkt.Packet.priority;
  check_int "two invocations" 2 (Enclave.counters e).Enclave.invocations

let test_batch_processing_equivalent () =
  (* Same packet stream via process() and process_batch(): identical
     priorities and state evolution, cheaper classification. *)
  let mk () = installed_enclave () in
  let e1 = mk () and e2 = mk () in
  let f = flow () in
  let stream () =
    List.init 30 (fun i -> data_packet ~id:(Int64.of_int i) ~payload:1000 ~seq:(i * 1000) f)
  in
  let s1 = stream () and s2 = stream () in
  List.iter (fun pkt -> ignore (Enclave.process e1 ~now:(Time.us 1) pkt)) s1;
  ignore (Enclave.process_batch e2 ~now:(Time.us 1) s2);
  List.iter2
    (fun p1 p2 -> check_int "same priority" p1.Packet.priority p2.Packet.priority)
    s1 s2;
  let c1 = Cost.Accum.enclave_ns (Enclave.cost e1) in
  let c2 = Cost.Accum.enclave_ns (Enclave.cost e2) in
  check_bool (Printf.sprintf "batching cheaper (%.0f < %.0f)" c2 c1) true (c2 < c1)

let test_batch_multi_message_split () =
  (* A batch mixing two messages still charges classification once per
     message run, and decisions are per packet. *)
  let e = installed_enclave () in
  let md1 = tagged_metadata ~msg_id:1L [ "A" ] in
  let md2 = tagged_metadata ~msg_id:2L [ "B" ] in
  let batch =
    [
      data_packet ~id:0L ~metadata:md1 (flow ());
      data_packet ~id:1L ~metadata:md1 (flow ());
      data_packet ~id:2L ~metadata:md2 (flow ());
      data_packet ~id:3L ~metadata:md2 (flow ());
      data_packet ~id:4L ~metadata:md1 (flow ());
    ]
  in
  let decisions = Enclave.process_batch e ~now:Time.zero batch in
  check_int "five decisions" 5 (List.length decisions);
  check_int "five packets" 5 (Enclave.counters e).Enclave.packets

(* ------------------------------------------------------------------ *)
(* Per-flow classification cache: each test first caches a flow, then
   checks that an edit shows on that flow's next packet. *)

(* A native action that gives every packet the same priority. *)
let marker name prio =
  {
    Enclave.i_name = name;
    i_impl = Enclave.Native (fun ctx -> Enclave.Native_ctx.set_priority ctx prio);
    i_msg_sources = [];
  }

(* Process a fresh packet on [f] and return it as the enclave left it. *)
let send e f =
  let pkt = data_packet f in
  (match Enclave.process e ~now:Time.zero pkt with
  | Enclave.Forward _ -> ()
  | Enclave.Dropped r -> Alcotest.failf "dropped: %s" r);
  pkt

let check_classes msg want (pkt : Packet.t) =
  Alcotest.(check (list string))
    msg want
    (List.map Class_name.to_string (Metadata.classes pkt.Packet.metadata))

let check_msg_id msg want (pkt : Packet.t) =
  Alcotest.(check (option int64)) msg want (Metadata.msg_id pkt.Packet.metadata)

let all_cls = "enclave.flows.ALL"
let http_cls = "enclave.web.HTTP"
let port_is n = [ (Builtin.Field.dst_port, Classifier.eq_int n) ]

(* Table 0 runs "base" (priority 1) on every class and "web" (priority
   6) on [enclave.web.HTTP]. *)
let web_enclave () =
  let e = Enclave.create ~host:1 () in
  get_ok (Enclave.install_action e (marker "base" 1));
  get_ok (Enclave.install_action e (marker "web" 6));
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"base" ()));
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat http_cls) ~action:"web" ()));
  e

let test_flow_stage_api_edit () =
  let e = web_enclave () in
  let f = flow ~dst_port:80 () in
  let first = send e f in
  check_classes "built-in class" [ all_cls ] (send e f);
  let id = Metadata.msg_id first.Packet.metadata in
  let stage = Enclave.flow_stage e in
  let rule_id =
    get_ok
      (Stage.Api.create_stage_rule stage ~ruleset:"web" ~classifier:(port_is 80)
         ~class_name:"HTTP" ~metadata_fields:[])
  in
  let p = send e f in
  check_classes "new class on the next packet" [ all_cls; http_cls ] p;
  check_int "its action" 6 p.Packet.priority;
  check_msg_id "same message" id p;
  check_bool "rule removed" true (Stage.Api.remove_stage_rule stage ~ruleset:"web" ~rule_id);
  let p = send e f in
  check_classes "old classes back" [ all_cls ] p;
  check_int "old action back" 1 p.Packet.priority;
  check_msg_id "still the same message" id p

let test_flow_stage_ruleset_edit () =
  let e = web_enclave () in
  let f = flow ~dst_port:80 () in
  let stage = Enclave.flow_stage e in
  ignore
    (get_ok
       (Stage.Api.create_stage_rule stage ~ruleset:"web" ~classifier:(port_is 443)
          ~class_name:"TLS" ~metadata_fields:[]));
  ignore (send e f);
  check_classes "443 rule misses" [ all_cls ] (send e f);
  let rs = Option.get (Stage.find_ruleset stage "web") in
  let rule = Ruleset.add_rule rs ~classifier:(port_is 80) ~class_name:"HTTP" ~metadata_fields:[] in
  let p = send e f in
  check_classes "direct add shows" [ all_cls; http_cls ] p;
  check_int "its action" 6 p.Packet.priority;
  check_bool "rule removed" true (Ruleset.remove_rule rs rule.Ruleset.rule_id);
  let p = send e f in
  check_classes "direct remove shows" [ all_cls ] p;
  check_int "old action back" 1 p.Packet.priority

(* A rule that reads no descriptor field tags every flow alike; the
   enclave shares one classification between flows, so check a cached
   flow and a new one. *)
let test_flow_stage_catch_all_edit () =
  let e = web_enclave () in
  let f1 = flow ~src_port:1000 () and f2 = flow ~src_port:2000 () in
  ignore (send e f1);
  ignore (send e f1);
  ignore
    (get_ok
       (Stage.Api.create_stage_rule (Enclave.flow_stage e) ~ruleset:"tenant" ~classifier:[]
          ~class_name:"T" ~metadata_fields:[]));
  check_classes "cached flow" [ all_cls; "enclave.tenant.T" ] (send e f1);
  let p1 = send e f1 and p2 = send e f2 in
  check_classes "new flow" [ all_cls; "enclave.tenant.T" ] p2;
  check_bool "own msg ids" true
    (Metadata.msg_id p1.Packet.metadata <> Metadata.msg_id p2.Packet.metadata)

let test_table_edits_take_effect () =
  let e = Enclave.create ~host:1 () in
  let f = flow () in
  (* Writing a table directly is the one way a rule can name an action
     that is not installed; it resolves to no action until the install. *)
  ignore (Table.add_rule (List.hd (Enclave.tables e)) ~pattern:(pat "*.*.*") ~action:"base");
  ignore (send e f);
  check_int "no action yet" 0 (send e f).Packet.priority;
  get_ok (Enclave.install_action e (marker "base" 1));
  check_int "install_action" 1 (send e f).Packet.priority;
  get_ok (Enclave.install_action e (marker "web" 6));
  let rule = get_ok (Enclave.add_table_rule e ~pattern:(pat all_cls) ~action:"web" ()) in
  check_int "add_table_rule" 6 (send e f).Packet.priority;
  check_bool "rule removed" true (Enclave.remove_table_rule e rule);
  check_int "remove_table_rule" 1 (send e f).Packet.priority;
  Alcotest.(check (option int)) "one rule dropped" (Some 1) (Enclave.remove_action e "base");
  check_int "remove_action" 0 (send e f).Packet.priority

let test_flow_close_and_restart () =
  let e = web_enclave () in
  let f = flow () in
  let first = Metadata.msg_id (send e f).Packet.metadata in
  check_msg_id "stable while open" first (send e f);
  Enclave.note_flow_closed e f;
  let reopened = send e f in
  check_bool "fresh msg id after close" true (Metadata.msg_id reopened.Packet.metadata <> first);
  check_int "same action" 1 reopened.Packet.priority;
  Enclave.restart e;
  let p = send e f in
  check_int "no action after restart" 0 p.Packet.priority;
  check_classes "flow stage kept" [ all_cls ] p;
  check_msg_id "flow ids start over" first p;
  let c = Enclave.counters e in
  check_int "one packet since restart" 1 c.Enclave.packets;
  check_int "one cold lookup" 1 c.Enclave.cache_misses;
  check_int "no hit" 0 c.Enclave.cache_hits

(* Differential: random packets interleaved with random flow-stage and
   table edits, each packet checked against a classification and lookup
   recomputed from scratch through the public API. *)

type diff_op =
  | Plain of int  (** fresh packet, no stage metadata, on flow [i] *)
  | Tagged of int * int64 * string  (** fresh packet of an app message *)
  | Again  (** the previous packet, processed again *)
  | Close of int
  | Stage_add of bool * string * int  (** via [Api]?, rule-set, classifier *)
  | Stage_remove of bool * int
  | Rule_add of int * string * string  (** table, pattern, action *)
  | Rule_remove of int
  | Toggle_a2  (** remove "a2" if installed, else install it *)

let diff_flows =
  [|
    flow ~src_port:1001 ~dst_port:80 ();
    flow ~src_port:1002 ~dst_port:443 ();
    flow ~src_port:1003 ~dst_port:80 ();
  |]

let diff_classifiers =
  [|
    [];
    port_is 80;
    port_is 443;
    [ (Builtin.Field.src_port, Classifier.eq_int 1002) ];
  |]

let diff_patterns =
  [| "*.*.*"; "enclave.*.*"; "enclave.web.*"; "enclave.x.C1"; "test.r.GET"; all_cls |]

let diff_op_to_string = function
  | Plain i -> Printf.sprintf "plain %d" i
  | Tagged (i, id, c) -> Printf.sprintf "tagged %d/%Ld/%s" i id c
  | Again -> "again"
  | Close i -> Printf.sprintf "close %d" i
  | Stage_add (api, rs, c) -> Printf.sprintf "stage_add %b %s C%d" api rs c
  | Stage_remove (api, k) -> Printf.sprintf "stage_remove %b %d" api k
  | Rule_add (tb, p, a) -> Printf.sprintf "rule_add %d %s %s" tb p a
  | Rule_remove k -> Printf.sprintf "rule_remove %d" k
  | Toggle_a2 -> "toggle a2"

let gen_diff_op =
  let open QCheck.Gen in
  let flow_ix = int_bound (Array.length diff_flows - 1) in
  frequency
    [
      (6, map (fun i -> Plain i) flow_ix);
      ( 2,
        map3
          (fun i id c -> Tagged (i, Int64.of_int id, c))
          flow_ix (int_range 1 3) (oneofl [ "GET"; "PUT" ]) );
      (2, return Again);
      (1, map (fun i -> Close i) flow_ix);
      ( 2,
        map3
          (fun api rs c -> Stage_add (api, rs, c))
          bool
          (oneofl [ "flows"; "web"; "x" ])
          (int_bound (Array.length diff_classifiers - 1)) );
      (1, map2 (fun api k -> Stage_remove (api, k)) bool small_nat);
      ( 2,
        map3
          (fun tb p a -> Rule_add (tb, p, a))
          (int_bound 1) (oneofa diff_patterns)
          (oneofl [ "a1"; "a2"; "jump" ]) );
      (1, map (fun k -> Rule_remove k) small_nat);
      (1, return Toggle_a2);
    ]

let jump_program =
  lazy
    (get_ok
       (Result.map_error Compile.error_to_string
          (Compile.compile (Schema.with_standard_packet ())
             Dsl.(action "jump" (set_pkt "Priority" (int 7) ^^ set_pkt "GotoTable" (int 1))))))

(* The priority a walk from [table] leaves on a packet that had [prio]:
   "jump" sets 7 and continues at table 1. *)
let rec expected_priority e classes table prio hops =
  let tbl = List.find (fun tb -> Table.id tb = table) (Enclave.tables e) in
  match Table.lookup tbl classes with
  | None -> prio
  | Some r when not (List.mem r.Table.action (Enclave.action_names e)) -> prio
  | Some r -> (
    match r.Table.action with
    | "a1" -> 1
    | "a2" -> 2
    | _ -> if table = 1 || hops >= 7 then 7 else expected_priority e classes 1 7 (hops + 1))

let run_diff ops =
  let e = Enclave.create ~host:1 () in
  get_ok (Enclave.install_action e (marker "a1" 1));
  get_ok (Enclave.install_action e (marker "a2" 2));
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "jump"; i_impl = Enclave.Compiled (Lazy.force jump_program);
         i_msg_sources = [] });
  ignore (Enclave.add_table e);
  let stage = Enclave.flow_stage e in
  let flow_ids = Hashtbl.create 4 and seen_ids = Hashtbl.create 16 in
  let rules = ref [] and last = ref None in
  let process i (pkt : Packet.t) =
    let stage_md = pkt.Packet.metadata and prio = pkt.Packet.priority in
    let flow = pkt.Packet.flow in
    let want =
      Metadata.union
        (Stage.classify ~msg_id:0L stage (Builtin.flow_descriptor flow))
        stage_md
    in
    let classes = Metadata.classes want in
    let want_prio = expected_priority e classes 0 prio 0 in
    (match Enclave.process e ~now:Time.zero pkt with
    | Enclave.Forward _ -> ()
    | Enclave.Dropped r -> QCheck.Test.fail_reportf "dropped: %s" r);
    let got = pkt.Packet.metadata in
    if not (List.equal Class_name.equal (Metadata.classes got) classes) then
      QCheck.Test.fail_reportf "classes %a, want %a" Metadata.pp got Metadata.pp want;
    if pkt.Packet.priority <> want_prio then
      QCheck.Test.fail_reportf "priority %d, want %d (%a)" pkt.Packet.priority want_prio
        Metadata.pp got;
    (match (Metadata.msg_id stage_md, Metadata.msg_id got) with
    | Some id, Some got_id ->
      if got_id <> id then QCheck.Test.fail_reportf "msg id %Ld, want stage id %Ld" got_id id
    | None, Some got_id -> (
      match Hashtbl.find_opt flow_ids i with
      | Some id ->
        if got_id <> id then QCheck.Test.fail_reportf "flow %d msg id %Ld, was %Ld" i got_id id
      | None ->
        if Hashtbl.mem seen_ids got_id then
          QCheck.Test.fail_reportf "flow %d reused msg id %Ld" i got_id;
        Hashtbl.replace flow_ids i got_id;
        Hashtbl.replace seen_ids got_id ())
    | _, None -> QCheck.Test.fail_reportf "no msg id");
    last := Some (i, pkt)
  in
  List.iter
    (function
      | Plain i -> process i (data_packet diff_flows.(i))
      | Tagged (i, id, c) -> process i (data_packet ~metadata:(tagged_metadata ~msg_id:id [ c ]) diff_flows.(i))
      | Again -> Option.iter (fun (i, pkt) -> process i pkt) !last
      | Close i ->
        Enclave.note_flow_closed e diff_flows.(i);
        Hashtbl.remove flow_ids i
      | Stage_add (true, rs, c) ->
        ignore
          (Stage.Api.create_stage_rule stage ~ruleset:rs ~classifier:diff_classifiers.(c)
             ~class_name:(Printf.sprintf "C%d" c) ~metadata_fields:[])
      | Stage_add (false, rs, c) -> (
        match Stage.find_ruleset stage rs with
        | None -> ()
        | Some r ->
          ignore
            (Ruleset.add_rule r ~classifier:diff_classifiers.(c)
               ~class_name:(Printf.sprintf "C%d" c) ~metadata_fields:[]))
      | Stage_remove (api, k) -> (
        let all =
          List.concat_map
            (fun rs -> List.map (fun r -> (rs, r)) (Ruleset.rules rs))
            (Stage.rulesets stage)
        in
        match all with
        | [] -> ()
        | _ ->
          let rs, r = List.nth all (k mod List.length all) in
          let rule_id = r.Ruleset.rule_id in
          ignore
            (if api then Stage.Api.remove_stage_rule stage ~ruleset:(Ruleset.id rs) ~rule_id
             else Ruleset.remove_rule rs rule_id))
      | Rule_add (table, p, a) -> (
        match Enclave.add_table_rule e ~table ~pattern:(pat p) ~action:a () with
        | Ok id -> rules := (table, id) :: !rules
        | Error _ -> ())
      | Rule_remove k -> (
        match !rules with
        | [] -> ()
        | rs ->
          let table, id = List.nth rs (k mod List.length rs) in
          ignore (Enclave.remove_table_rule e ~table id);
          rules := List.filter (fun r -> r <> (table, id)) rs)
      | Toggle_a2 ->
        if List.mem "a2" (Enclave.action_names e) then ignore (Enclave.remove_action e "a2")
        else get_ok (Enclave.install_action e (marker "a2" 2)))
    ops;
  true

let prop_flow_cache_differential =
  QCheck.Test.make ~name:"flow cache matches a from-scratch classification" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map diff_op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_diff_op))
    run_diff

(* ------------------------------------------------------------------ *)
(* Native actions *)

let test_native_action_equivalent () =
  let e = Enclave.create ~host:1 () in
  let native ctx =
    let pkt = Enclave.Native_ctx.packet ctx in
    let size =
      Int64.add
        (Enclave.Native_ctx.msg_get ctx "Size" ~default:0L)
        (Int64.of_int (Packet.wire_size pkt))
    in
    Enclave.Native_ctx.msg_set ctx "Size" size;
    let limits = Enclave.Native_ctx.global_array ctx "Limits" in
    let rec search i =
      if i >= Array.length limits then 0
      else if Int64.compare size limits.(i) <= 0 then 7 - i
      else search (i + 1)
    in
    Enclave.Native_ctx.set_priority ctx (search 0)
  in
  get_ok
    (Enclave.install_action e
       { Enclave.i_name = "pias_native"; i_impl = Enclave.Native native; i_msg_sources = [] });
  ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"pias_native" ()));
  get_ok (Enclave.set_global_array e ~action:"pias_native" "Limits" [| 10_000L; 1_000_000L |]);
  (* Compare against the interpreted enclave on the same packet series. *)
  let e_interp = installed_enclave () in
  let f = flow () in
  for i = 0 to 19 do
    let p1 = data_packet ~id:(Int64.of_int i) ~payload:1000 f in
    let p2 = data_packet ~id:(Int64.of_int i) ~payload:1000 f in
    ignore (Enclave.process e ~now:(Time.us i) p1);
    ignore (Enclave.process e_interp ~now:(Time.us i) p2);
    check_int
      (Printf.sprintf "packet %d same priority" i)
      p2.Packet.priority p1.Packet.priority
  done

(* ------------------------------------------------------------------ *)
(* Cost accounting *)

let test_cost_accounting () =
  let e = installed_enclave () in
  let f = flow () in
  for i = 0 to 9 do
    ignore (Enclave.process e ~now:(Time.us i) (data_packet ~payload:1000 f))
  done;
  let c = Enclave.cost e in
  check_int "10 packets" 10 (Cost.Accum.packets c);
  check_bool "interp time accrued" true (Cost.Accum.interp_ns c > 0.0);
  check_bool "enclave time accrued" true (Cost.Accum.enclave_ns c > 0.0);
  let pct = Cost.Accum.overhead_pct c ~api:true ~enclave:true ~interp:true in
  check_bool "overhead positive" true (pct > 0.0);
  check_bool "overhead sane (<100%)" true (pct < 100.0)

let test_nic_placement_costs_more () =
  let run placement =
    let e = Enclave.create ~placement ~host:1 () in
    get_ok
      (Enclave.install_action e
         {
           Enclave.i_name = "pias";
           i_impl = Enclave.Interpreted (compiled_pias ());
           i_msg_sources = [];
         });
    ignore (get_ok (Enclave.add_table_rule e ~pattern:(pat "*.*.*") ~action:"pias" ()));
    get_ok (Enclave.set_global_array e ~action:"pias" "Limits" [| 10_000L |]);
    let f = flow () in
    for i = 0 to 9 do
      ignore (Enclave.process e ~now:(Time.us i) (data_packet ~payload:1000 f))
    done;
    Cost.Accum.overhead_pct (Enclave.cost e) ~api:true ~enclave:true ~interp:true
  in
  check_bool "nic interp dearer than os" true (run Enclave.Nic > run Enclave.Os)

let () =
  Alcotest.run "eden_enclave"
    [
      ( "state",
        [
          Alcotest.test_case "globals" `Quick test_state_globals;
          Alcotest.test_case "messages" `Quick test_state_messages;
          Alcotest.test_case "expiry" `Quick test_state_expiry;
          Alcotest.test_case "last message" `Quick test_state_last_message;
        ] );
      ( "table",
        [
          Alcotest.test_case "specificity" `Quick test_table_specificity_order;
          Alcotest.test_case "multi-class" `Quick test_table_multi_class_packet;
          Alcotest.test_case "remove" `Quick test_table_remove;
        ] );
      ( "queueing",
        [
          Alcotest.test_case "token bucket rate" `Quick test_token_bucket_rate;
          Alcotest.test_case "token bucket refill" `Quick test_token_bucket_refill;
          Alcotest.test_case "priority order" `Quick test_priority_queue_order;
          Alcotest.test_case "drop tail" `Quick test_priority_queue_drop_tail;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "sets priority" `Quick test_process_sets_priority;
          Alcotest.test_case "accumulates msg state" `Quick
            test_process_accumulates_message_state;
          Alcotest.test_case "per-flow isolation" `Quick test_flow_state_isolated_per_flow;
          Alcotest.test_case "stage msg id" `Quick test_stage_metadata_message_id_used;
          Alcotest.test_case "message end clears" `Quick test_note_message_end_clears_state;
          Alcotest.test_case "no class no action" `Quick test_unmatched_class_means_no_action;
          Alcotest.test_case "drop output" `Quick test_drop_action;
          Alcotest.test_case "queue/charge outputs" `Quick test_queue_and_charge_outputs;
          Alcotest.test_case "metadata flag" `Quick test_metadata_flag_source;
          Alcotest.test_case "enforce off" `Quick test_enforce_off_leaves_packet_untouched;
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation_and_fail_open;
          Alcotest.test_case "goto table" `Quick test_goto_table_chain;
          Alcotest.test_case "batch equivalent" `Quick test_batch_processing_equivalent;
          Alcotest.test_case "batch multi-message" `Quick test_batch_multi_message_split;
        ] );
      ( "flow cache",
        [
          Alcotest.test_case "stage api edit" `Quick test_flow_stage_api_edit;
          Alcotest.test_case "ruleset edit" `Quick test_flow_stage_ruleset_edit;
          Alcotest.test_case "catch-all stage rule" `Quick test_flow_stage_catch_all_edit;
          Alcotest.test_case "table edits" `Quick test_table_edits_take_effect;
          Alcotest.test_case "flow close and restart" `Quick test_flow_close_and_restart;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 11 |])
            prop_flow_cache_differential;
        ] );
      ( "api",
        [
          Alcotest.test_case "bad packet field" `Quick test_install_rejects_bad_packet_field;
          Alcotest.test_case "writable metadata source" `Quick
            test_install_rejects_writable_metadata_source;
          Alcotest.test_case "duplicate install" `Quick test_duplicate_install_rejected;
          Alcotest.test_case "concurrency levels" `Quick test_concurrency_levels;
        ] );
      ("native", [ Alcotest.test_case "equivalent to interpreted" `Quick test_native_action_equivalent ]);
      ( "cost",
        [
          Alcotest.test_case "accounting" `Quick test_cost_accounting;
          Alcotest.test_case "nic dearer" `Quick test_nic_placement_costs_more;
        ] );
    ]
