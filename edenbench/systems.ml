(* Building each workload's system through the public API: compile the
   action functions from their source, install (verify + cost admission
   + engine translation), program tables and stages, push through the
   controller, spawn shard domains.  Everything here counts as set-up. *)

module Enclave = Eden_enclave.Enclave
module Shard = Eden_enclave.Shard
module Controller = Eden_controller.Controller
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Classifier = Eden_stage.Classifier
module Pattern = Eden_base.Class_name.Pattern
module Pias = Eden_functions.Pias
module Replica_select = Eden_functions.Replica_select
module App_priority = Eden_functions.App_priority
module Compile = Eden_lang.Compile

(* Times a named set-up step; the traced run records it as a span. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let get what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let compile timer schema action =
  timer.time "lang.compile" (fun () ->
      match Compile.compile schema action with
      | Ok p -> p
      | Error e -> failwith (Compile.error_to_string e))

(* Seven demotion thresholds from the web-search flow-size CDF — what the
   paper's controller computes for PIAS. *)
let thresholds =
  Controller.pias_thresholds
    ~cdf:Eden_workloads.Flowsize.(cdf web_search)
    ~levels:8

let pias_spec timer =
  let p = compile timer Pias.schema Pias.action in
  (* [`Native] only to borrow the message sources without forcing the
     library's memoised program: every set-up compiles afresh. *)
  { (Pias.spec ~variant:`Native ()) with Enclave.i_impl = Enclave.Compiled p }

let install timer e spec =
  timer.time "enclave.install" (fun () ->
      get "install" (Enclave.install_action e spec))

(* flows, shard-flows: compiled PIAS on one enclave. *)
let pias_enclave timer ~seed =
  let e = Enclave.create ~host:1 ~seed () in
  install timer e (pias_spec timer);
  get "thresholds" (Enclave.set_global_array e ~action:"pias" "Thresholds" thresholds);
  ignore (get "rule" (Enclave.add_table_rule e ~pattern:Pias.rule_pattern ~action:"pias" ()));
  e

let shard timer e ~shards =
  timer.time "shard.create" (fun () -> get "shard" (Shard.create ~shards ~parallel:true e))

(* kv-rpc: the memcached stage puts GETs and PUTs in their own classes;
   GETs go through replica-select, PUTs through app-priority. *)
type kv = { kv_enclave : Enclave.t; stage : Stage.t }

let replica_labels = [| 301; 302; 303; 304 |]
let put_priority = 1

let kv_system timer ~seed =
  let stage = Builtin.memcached () in
  let klass op fields =
    ignore
      (get "stage rule"
         (Stage.Api.create_stage_rule stage ~ruleset:"r1"
            ~classifier:[ (Builtin.Field.msg_type, Classifier.eq_str op) ]
            ~class_name:op ~metadata_fields:fields));
    Pattern.exact (Stage.qualified_class stage ~ruleset:"r1" op)
  in
  let get_class = klass "GET" Builtin.Field.[ msg_type; key_hash; msg_size ] in
  let put_class = klass "PUT" Builtin.Field.[ msg_type; msg_size ] in
  let e = Enclave.create ~host:1 ~seed () in
  let rs = compile timer Replica_select.schema Replica_select.action in
  install timer e
    {
      Enclave.i_name = "replica_select";
      i_impl = Enclave.Compiled rs;
      i_msg_sources = [ ("KeyHash", Enclave.Metadata_int Builtin.Field.key_hash) ];
    };
  get "labels"
    (Enclave.set_global_array e ~action:"replica_select" "ReplicaLabels"
       (Array.map Int64.of_int replica_labels));
  ignore (get "rule" (Enclave.add_table_rule e ~pattern:get_class ~action:"replica_select" ()));
  let ap = compile timer App_priority.schema App_priority.action in
  install timer e
    {
      Enclave.i_name = "app_priority";
      i_impl = Enclave.Compiled ap;
      i_msg_sources =
        [ ("IsMatch", Enclave.Metadata_flag (Builtin.Field.msg_type, "PUT")) ];
    };
  get "prio"
    (Enclave.set_global e ~action:"app_priority" "MatchPriority" (Int64.of_int put_priority));
  get "prio" (Enclave.set_global e ~action:"app_priority" "OtherPriority" 6L);
  ignore (get "rule" (Enclave.add_table_rule e ~pattern:put_class ~action:"app_priority" ()));
  { kv_enclave = e; stage }

(* policy-churn: [n] enclaves behind one controller, each over its own
   fault-free channel, programmed with compiled PIAS by controller
   pushes.  [alt] is the second action the churn installs and removes:
   a fixed priority for every flow, on a rule more specific than PIAS's. *)
type churn = { ctl : Controller.t; enclaves : Enclave.t array; alt : Enclave.install_spec }

let alt_name = "app_prio"
let alt_priority = 3

let alt_pattern =
  match Pattern.of_string "enclave.flows.*" with Some p -> p | None -> assert false

let churn_system timer ~seed ~n =
  let ctl = Controller.create ~seed () in
  let enclaves = Array.init n (fun i -> Enclave.create ~host:(i + 1) ~seed ()) in
  Array.iter (Controller.register_enclave ctl) enclaves;
  let spec = pias_spec timer in
  (* Here the install is the controller's push to all [n] enclaves. *)
  timer.time "enclave.install" (fun () ->
      get "push" (Controller.install_action_everywhere ctl spec));
  get "push"
    (Controller.set_global_array_everywhere ctl ~action:"pias" "Thresholds" thresholds);
  get "push" (Controller.add_rule_everywhere ctl ~pattern:Pias.rule_pattern ~action:"pias" ());
  let ap = compile timer App_priority.schema App_priority.action in
  let alt =
    {
      Enclave.i_name = alt_name;
      i_impl = Enclave.Compiled ap;
      i_msg_sources = [ ("IsMatch", Enclave.Metadata_flag (Builtin.Field.msg_type, "PUT")) ];
    }
  in
  { ctl; enclaves; alt }
