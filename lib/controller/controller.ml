module Enclave = Eden_enclave.Enclave
module Table = Eden_enclave.Table
module Stage = Eden_stage.Stage
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Tel = Eden_telemetry

type retry_policy = {
  rp_max_attempts : int;
  rp_base_backoff : Time.t;
  rp_max_backoff : Time.t;
}

let default_retry =
  { rp_max_attempts = 5; rp_base_backoff = Time.us 50; rp_max_backoff = Time.ms 5 }

type retry_stats = {
  mutable rs_ops : int;
  mutable rs_attempts : int;
  mutable rs_retries : int;
  mutable rs_giveups : int;
  mutable rs_backoff : Time.t;
}

type t = {
  topo : Topology.t;
  mutable chans : Channel.t list;  (* newest first *)
  mutable stgs : Stage.t list;
  desired : Desired.t;
  retry : retry_policy;
  jitter : Rng.t;
  mutable next_op : int64;
  stats : retry_stats;
  (* Retry/generation cells are synced from [stats] and the desired
     store at scrape time; reconcile cells are bumped live (they have no
     other home). *)
  tel : Tel.Registry.t;
  cm_push_ops : Tel.Counter.t;
  cm_attempts : Tel.Counter.t;
  cm_retries : Tel.Counter.t;
  cm_giveups : Tel.Counter.t;
  cg_backoff_ns : Tel.Gauge.t;
  cm_reconcile_rounds : Tel.Counter.t;
  cm_reconcile_replayed : Tel.Counter.t;
  cg_generation : Tel.Gauge.t;
  cg_generation_lag : Tel.Gauge.t;
  cg_divergent : Tel.Gauge.t;
}

let create ?topology ?(retry = default_retry) ?(seed = 0xC0DEL) () =
  let topo = match topology with Some t -> t | None -> Topology.create () in
  if retry.rp_max_attempts < 1 then invalid_arg "Controller.create: max_attempts must be >= 1";
  let tel = Tel.Registry.create () in
  {
    topo;
    chans = [];
    stgs = [];
    desired = Desired.create ();
    retry;
    jitter = Rng.create seed;
    next_op = 1L;
    stats = { rs_ops = 0; rs_attempts = 0; rs_retries = 0; rs_giveups = 0; rs_backoff = Time.zero };
    tel;
    cm_push_ops =
      Tel.Registry.counter tel ~help:"Logical push ops" "eden_controller_push_ops_total";
    cm_attempts =
      Tel.Registry.counter tel ~help:"Channel sends incl. retries"
        "eden_controller_send_attempts_total";
    cm_retries = Tel.Registry.counter tel ~help:"Retried sends" "eden_controller_retries_total";
    cm_giveups =
      Tel.Registry.counter tel ~help:"Sends that exhausted the retry budget"
        "eden_controller_giveups_total";
    cg_backoff_ns =
      Tel.Registry.gauge tel ~help:"Total simulated backoff (ns)" "eden_controller_backoff_ns";
    cm_reconcile_rounds =
      Tel.Registry.counter tel ~help:"Anti-entropy rounds run"
        "eden_controller_reconcile_rounds_total";
    cm_reconcile_replayed =
      Tel.Registry.counter tel ~help:"Ops replayed by reconciliation"
        "eden_controller_reconcile_ops_replayed_total";
    cg_generation =
      Tel.Registry.gauge tel ~help:"Desired-state generation" "eden_controller_generation";
    cg_generation_lag =
      Tel.Registry.gauge tel ~help:"Desired generation minus lowest acked watermark"
        "eden_controller_generation_lag";
    cg_divergent =
      Tel.Registry.gauge tel ~help:"Enclaves marked divergent" "eden_controller_divergent_hosts";
  }

let topology t = t.topo
let register_enclave t e = t.chans <- Channel.create e :: t.chans
let register_stage t s = t.stgs <- s :: t.stgs
let channels t = List.rev t.chans
let enclaves t = List.rev_map Channel.enclave t.chans
let stages t = List.rev t.stgs
let find_stage t name = List.find_opt (fun s -> String.equal (Stage.name s) name) t.stgs
let generation t = Desired.generation t.desired
let desired t = t.desired
let stats t = t.stats

let channel_for t host =
  List.find_opt (fun ch -> Channel.host ch = host) t.chans

let divergent_hosts t =
  List.filter_map
    (fun ch -> if Channel.divergent ch then Some (Channel.host ch) else None)
    (channels t)

let fresh_op t =
  let id = t.next_op in
  t.next_op <- Int64.add id 1L;
  id

(* Capped exponential backoff with seeded jitter.  The controller runs in
   simulated time, so backoff is accounted, not slept: [rs_backoff] is
   the control-plane latency a real deployment would have paid. *)
let backoff_for t ~attempt =
  let base = Int64.to_float (Time.to_ns t.retry.rp_base_backoff) in
  let cap = Int64.to_float (Time.to_ns t.retry.rp_max_backoff) in
  let exp = base *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min cap exp in
  let jitter = 0.5 +. (0.5 *. Rng.float t.jitter 1.0) in
  Time.of_float_ns (capped *. jitter)

type push_error =
  [ `Rejected of string  (** The enclave refused the op; retrying is pointless. *)
  | `Unreachable of string  (** Transient failures exhausted the retry budget. *)
  ]

let send_with_retry t ch ~gen op : (int64, push_error) result =
  let op_id = fresh_op t in
  t.stats.rs_ops <- t.stats.rs_ops + 1;
  let rec go attempt =
    t.stats.rs_attempts <- t.stats.rs_attempts + 1;
    match Channel.send ch ~op_id ~gen op with
    | Ok payload -> Ok payload
    | Error (Channel.Rejected msg) -> Error (`Rejected msg)
    | Error e ->
      if attempt >= t.retry.rp_max_attempts then begin
        t.stats.rs_giveups <- t.stats.rs_giveups + 1;
        Error (`Unreachable (Channel.error_to_string e))
      end
      else begin
        t.stats.rs_retries <- t.stats.rs_retries + 1;
        t.stats.rs_backoff <- Time.add t.stats.rs_backoff (backoff_for t ~attempt);
        go (attempt + 1)
      end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Anti-entropy reconciliation: the one path that moves a host back to
   the desired state, whether it drifted (restart, partition, lost
   push) or applied a change that was then refused elsewhere. *)

type drift = {
  df_missing_actions : string list;
  df_extra_actions : string list;
  df_missing_rules : Desired.rule list;
  df_extra_rules : (int * int) list;  (* table, enclave rule id *)
  df_stale_globals : (string * string) list;
  df_stale_arrays : (string * string) list;
  df_desired_generation : int;
  df_acked_generation : int;
}

let drift_in_sync d =
  d.df_missing_actions = [] && d.df_extra_actions = [] && d.df_missing_rules = []
  && d.df_extra_rules = [] && d.df_stale_globals = [] && d.df_stale_arrays = []
  && d.df_desired_generation = d.df_acked_generation

(* Multiset difference of [xs] over [ys]: every occurrence in [xs] not
   matched one-for-one by an occurrence in [ys] with the same key. *)
let multiset_diff kx ky xs ys =
  let remaining = Hashtbl.create 16 in
  List.iter
    (fun y ->
      let k = ky y in
      Hashtbl.replace remaining k (1 + Option.value ~default:0 (Hashtbl.find_opt remaining k)))
    ys;
  List.filter
    (fun x ->
      let k = kx x in
      match Hashtbl.find_opt remaining k with
      | Some n when n > 0 ->
        Hashtbl.replace remaining k (n - 1);
        false
      | _ -> true)
    xs

let diff_against_desired t (sn : Enclave.snapshot) ~acked =
  let d = t.desired in
  let absent_from specs =
    let keys = List.map Enclave.action_key specs in
    fun s -> not (List.mem (Enclave.action_key s) keys)
  in
  let names = List.map (fun s -> s.Enclave.i_name) in
  let actual_rules =
    List.concat_map (fun (table, rs) -> List.map (fun r -> (table, r)) rs) sn.Enclave.sn_rules
  in
  let desired_key (r : Desired.rule) =
    (r.dr_table, Enclave.rule_key r.dr_pattern r.dr_action)
  in
  let actual_key (table, (r : Table.rule)) =
    (table, Enclave.rule_key r.Table.pattern r.Table.action)
  in
  let stale actual bindings_of =
    List.concat_map
      (fun name ->
        let have = Option.value ~default:[] (List.assoc_opt name actual) in
        List.filter_map
          (fun (k, v) -> if List.assoc_opt k have = Some v then None else Some (name, k))
          (bindings_of d name))
      (Desired.action_names d)
  in
  {
    df_missing_actions =
      names (List.filter (absent_from sn.Enclave.sn_actions) (Desired.actions d));
    df_extra_actions =
      names (List.filter (absent_from (Desired.actions d)) sn.Enclave.sn_actions);
    df_missing_rules = multiset_diff desired_key actual_key (Desired.rules d) actual_rules;
    df_extra_rules =
      multiset_diff actual_key desired_key actual_rules (Desired.rules d)
      |> List.map (fun (table, (r : Table.rule)) -> (table, r.Table.rule_id));
    df_stale_globals = stale sn.Enclave.sn_globals Desired.globals_of;
    df_stale_arrays = stale sn.Enclave.sn_arrays Desired.arrays_of;
    df_desired_generation = Desired.generation d;
    df_acked_generation = acked;
  }

let pp_drift fmt d =
  Format.fprintf fmt
    "@[<v>missing actions: [%s]@,extra actions: [%s]@,missing rules: %d@,extra rules: %d@,\
     stale globals: %d@,stale arrays: %d@,generation: desired %d, acked %d@]"
    (String.concat "," d.df_missing_actions)
    (String.concat "," d.df_extra_actions)
    (List.length d.df_missing_rules) (List.length d.df_extra_rules)
    (List.length d.df_stale_globals) (List.length d.df_stale_arrays)
    d.df_desired_generation d.df_acked_generation

type reconcile_outcome =
  | In_sync
  | Repaired of int  (** ops replayed *)
  | Unreachable of string
  | Repair_failed of string

let reconcile_outcome_to_string = function
  | In_sync -> "in sync"
  | Repaired n -> Printf.sprintf "repaired (%d ops)" n
  | Unreachable msg -> "unreachable: " ^ msg
  | Repair_failed msg -> "repair failed: " ^ msg

(* The ops that take an enclave with configuration [sn] and [drift] to
   the desired state.  Order matters: extra rules go before extra
   actions (removing an action drops its rules at the enclave), missing
   actions before their state and rules (the enclave refuses rules and
   state for unknown actions — which is also why a packet can never
   match a half-installed action: the rule that would route to it cannot
   exist before the install has fully succeeded).  Spare tables at the
   enclave are harmless (empty tables match nothing), so tables are only
   ever added. *)
let repair_ops d (sn : Enclave.snapshot) drift =
  let desired_state lookup mk =
    List.filter_map (fun (action, name) -> Option.map (mk action name) (lookup d ~action name))
  in
  List.concat
    [
      List.map
        (fun (table, rule_id) -> Channel.Remove_rule { table; rule_id })
        drift.df_extra_rules;
      List.map (fun name -> Channel.Remove_action name) drift.df_extra_actions;
      List.init
        (max 0 (Desired.tables d - List.length sn.Enclave.sn_rules))
        (fun _ -> Channel.Add_table);
      List.filter_map
        (fun spec ->
          if List.mem spec.Enclave.i_name drift.df_missing_actions then
            Some (Channel.Install_action spec)
          else None)
        (Desired.actions d);
      desired_state Desired.global
        (fun action name value -> Channel.Set_global { action; name; value })
        drift.df_stale_globals;
      desired_state Desired.global_array
        (fun action name value -> Channel.Set_global_array { action; name; value })
        drift.df_stale_arrays;
      List.map
        (fun (r : Desired.rule) ->
          Channel.Add_rule { table = r.dr_table; pattern = r.dr_pattern; action = r.dr_action })
        drift.df_missing_rules;
      [ Channel.Commit_generation ];
    ]

(* One anti-entropy round for one enclave: pull its configuration and
   generation watermark, diff against desired, replay the delta, commit
   the generation, and verify by re-pulling. *)
let reconcile_enclave t ch =
  Tel.Counter.inc t.cm_reconcile_rounds;
  let gen = Desired.generation t.desired in
  match Channel.pull_state ch with
  | Error e -> Unreachable (Channel.error_to_string e)
  | Ok (sn, acked) -> (
    let drift = diff_against_desired t sn ~acked in
    if drift_in_sync drift then begin
      Channel.clear_divergent ch;
      In_sync
    end
    else
      let ops = repair_ops t.desired sn drift in
      let rec replay = function
        | [] -> Ok ()
        | op :: rest -> (
          match send_with_retry t ch ~gen op with
          | Ok _ -> replay rest
          | Error (`Rejected msg) -> Error (Channel.op_to_string op ^ ": rejected: " ^ msg)
          | Error (`Unreachable msg) -> Error (Channel.op_to_string op ^ ": " ^ msg))
      in
      match replay ops with
      | Error msg -> Repair_failed msg
      | Ok () -> (
        (* Verify: the proof of convergence is the re-pulled config, not
           the ops having been acked. *)
        match Channel.pull_state ch with
        | Error e -> Unreachable (Channel.error_to_string e)
        | Ok (sn, acked) ->
          let drift = diff_against_desired t sn ~acked in
          if drift_in_sync drift then begin
            Channel.clear_divergent ch;
            Tel.Counter.add t.cm_reconcile_replayed (List.length ops);
            Repaired (List.length ops)
          end
          else Repair_failed (Format.asprintf "residual drift: %a" pp_drift drift)))

let reconcile t =
  List.map (fun ch -> (Channel.host ch, reconcile_enclave t ch)) (channels t)

let converged t =
  List.for_all
    (fun ch ->
      match Channel.pull_state ch with
      | Error _ -> false
      | Ok (sn, acked) -> drift_in_sync (diff_against_desired t sn ~acked))
    (channels t)

(* ------------------------------------------------------------------ *)
(* Broadcast pushes.

   A push is accepted or refused at the *desired-state* level:

   - if any enclave [`Rejected] the op (a permanent refusal — e.g. the
     bytecode fails verification there), the change is abandoned: it is
     not recorded in the desired state, and the enclaves that did apply
     it are reconciled back to that unchanged desired state;
   - transient failures ([`Unreachable] after retries) do NOT abandon the
     change: the desired state is committed, the unreachable enclaves are
     marked divergent, and {!reconcile} converges them later.  This is
     the paper's consistency model — enclaves forward on stale policy
     until the controller reaches them (§2.2), rather than the fleet
     being held hostage by its least reachable member. *)

(* The one driver every change goes through, two-phase so that no
   enclave ever acknowledges a generation that did not commit:
   1. broadcast [op] at the *current* generation;
   2. on acceptance run [commit] (the desired-state edit), then bump;
   3. send [Commit_generation] to the enclaves that applied [op].
   On rejection the desired state has not been touched, so rollback is
   reconciliation of the enclaves that applied [op]: the diff finds the
   inverse delta (for a rule, its per-enclave id) on its own.  A failed
   rollback does not stop the others; its host is left divergent.  The
   aborted change never advanced a watermark, preserving
   acked <= desired. *)
let push t op ~commit =
  let gen = Desired.generation t.desired in
  let rec broadcast applied = function
    | [] ->
      commit ();
      Desired.bump t.desired;
      let gen = Desired.generation t.desired in
      List.iter
        (fun ch ->
          match send_with_retry t ch ~gen Channel.Commit_generation with
          | Ok _ -> ()
          | Error _ -> Channel.mark_divergent ch)
        (List.rev applied);
      Ok ()
    | ch :: rest -> (
      match send_with_retry t ch ~gen op with
      | Ok _ -> broadcast (ch :: applied) rest
      | Error (`Unreachable _) ->
        Channel.mark_divergent ch;
        broadcast applied rest
      | Error (`Rejected msg) -> (
        let rejected =
          Printf.sprintf "host %d rejected %s: %s" (Channel.host ch)
            (Channel.op_to_string op) msg
        in
        let rollback_failed ch =
          match reconcile_enclave t ch with
          | In_sync | Repaired _ -> None
          | Unreachable _ | Repair_failed _ ->
            Channel.mark_divergent ch;
            Some (string_of_int (Channel.host ch))
        in
        match List.filter_map rollback_failed (List.rev applied) with
        | [] -> Error rejected
        | hosts ->
          Error
            (Printf.sprintf
               "%s; rollback failed on hosts [%s], left divergent pending reconciliation"
               rejected (String.concat "," hosts))))
  in
  broadcast [] (channels t)

let require_action t name k =
  if Desired.has_action t.desired name then k ()
  else Error (Printf.sprintf "action %S is not in the desired state" name)

let install_action_everywhere t spec =
  if Desired.has_action t.desired spec.Enclave.i_name then
    Error (Printf.sprintf "action %S is already in the desired state" spec.Enclave.i_name)
  else
    push t (Channel.Install_action spec) ~commit:(fun () ->
        ignore (Desired.add_action t.desired spec))

let remove_action_everywhere t name =
  require_action t name (fun () ->
      push t (Channel.Remove_action name) ~commit:(fun () ->
          ignore (Desired.remove_action t.desired name)))

let add_table_everywhere t =
  let id = Desired.tables t.desired in
  push t Channel.Add_table ~commit:(fun () -> ignore (Desired.add_table t.desired))
  |> Result.map (fun () -> id)

let add_rule_everywhere t ?(table = 0) ~pattern ~action () =
  require_action t action (fun () ->
      if table < 0 || table >= Desired.tables t.desired then
        Error (Printf.sprintf "table %d is not in the desired state" table)
      else
        push t (Channel.Add_rule { table; pattern; action }) ~commit:(fun () ->
            ignore (Desired.add_rule t.desired ~table ~pattern ~action)))

let set_global_everywhere t ~action name value =
  require_action t action (fun () ->
      push t (Channel.Set_global { action; name; value }) ~commit:(fun () ->
          ignore (Desired.set_global t.desired ~action name value)))

let set_global_array_everywhere t ~action name value =
  require_action t action (fun () ->
      push t (Channel.Set_global_array { action; name; value }) ~commit:(fun () ->
          ignore (Desired.set_global_array t.desired ~action name value)))

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let sync_telemetry t =
  Tel.Counter.set t.cm_push_ops t.stats.rs_ops;
  Tel.Counter.set t.cm_attempts t.stats.rs_attempts;
  Tel.Counter.set t.cm_retries t.stats.rs_retries;
  Tel.Counter.set t.cm_giveups t.stats.rs_giveups;
  Tel.Gauge.set t.cg_backoff_ns (Int64.to_float (Time.to_ns t.stats.rs_backoff));
  let gen = Desired.generation t.desired in
  Tel.Gauge.set_int t.cg_generation gen;
  let min_acked =
    List.fold_left (fun acc ch -> min acc (Channel.acked_generation ch)) max_int t.chans
  in
  let lag = if t.chans = [] then 0 else max 0 (gen - min_acked) in
  Tel.Gauge.set_int t.cg_generation_lag lag;
  Tel.Gauge.set_int t.cg_divergent (List.length (divergent_hosts t))

let telemetry t =
  sync_telemetry t;
  t.tel

let scrape t =
  sync_telemetry t;
  Tel.Registry.merge
    (Tel.Registry.scrape t.tel :: List.map Channel.scrape (channels t))

(* ------------------------------------------------------------------ *)
(* Monitoring *)

type enclave_report = {
  er_host : Eden_base.Addr.host;
  er_placement : Enclave.placement;
  er_packets : int;
  er_invocations : int;
  er_dropped : int;
  er_faults : int;
  er_interp_steps : int;
  er_actions : string list;
  er_overhead_pct : float;
  er_generation : int;
  er_restarts : int;
  er_quarantined : int;
}

let collect_reports t =
  List.filter_map
    (fun ch ->
      match
        Channel.read ch (fun e ->
            let c = Enclave.counters e in
            {
              er_host = Enclave.host e;
              er_placement = Enclave.placement e;
              er_packets = c.Enclave.packets;
              er_invocations = c.Enclave.invocations;
              er_dropped = c.Enclave.dropped;
              er_faults = c.Enclave.faults;
              er_interp_steps = c.Enclave.interp_steps;
              er_actions = Enclave.action_names e;
              er_overhead_pct =
                Eden_enclave.Cost.Accum.overhead_pct (Enclave.cost e) ~api:true ~enclave:true
                  ~interp:true;
              er_generation = Channel.acked_generation ch;
              er_restarts = Enclave.restarts e;
              er_quarantined = c.Enclave.quarantined;
            })
      with
      | Ok r -> Some r
      | Error _ -> None)
    (channels t)

let pp_reports fmt reports =
  Format.fprintf fmt "@[<v>%-6s %-4s %10s %10s %7s %7s %9s %7s %4s %4s  %s@,"
    "host" "plc" "packets" "invocs" "drops" "faults" "steps" "ovh%" "gen" "rst" "actions";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-6d %-4s %10d %10d %7d %7d %9d %6.2f%% %4d %4d  %s@," r.er_host
        (Enclave.placement_to_string r.er_placement)
        r.er_packets r.er_invocations r.er_dropped r.er_faults r.er_interp_steps
        r.er_overhead_pct r.er_generation r.er_restarts
        (String.concat "," r.er_actions))
    reports;
  Format.fprintf fmt "@]"

(* Equal-split quantile thresholds (the PIAS control plane recomputes
   these periodically from the observed flow-size distribution). *)
let pias_thresholds ~cdf ~levels =
  if levels < 2 then invalid_arg "Controller.pias_thresholds: need >= 2 levels";
  let dist = Eden_base.Dist.Empirical_cdf.create cdf in
  Array.init (levels - 1) (fun i ->
      let q = float_of_int (i + 1) /. float_of_int levels in
      Int64.of_float (Eden_base.Dist.Empirical_cdf.quantile dist q))

let wcmp_path_matrix t ~src ~dst ~labels =
  let weighted = Topology.wcmp_weights t.topo ~src ~dst in
  let entries =
    List.filter_map
      (fun (path, w) ->
        match
          List.find_opt (fun (p, _) -> List.equal String.equal p path) labels
        with
        | Some (_, label) -> Some (label, w)
        | None -> None)
      weighted
  in
  let arr = Array.make (2 * List.length entries) 0L in
  List.iteri
    (fun i (label, w) ->
      arr.(2 * i) <- Int64.of_int label;
      arr.((2 * i) + 1) <- Int64.of_float (Float.round (w *. 1000.0)))
    entries;
  arr
