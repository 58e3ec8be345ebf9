module Enclave = Eden_enclave.Enclave
module Pattern = Eden_base.Class_name.Pattern

type rule = {
  dr_table : int;
  dr_pattern : Pattern.t;
  dr_action : string;
}

type t = {
  mutable d_actions : Enclave.install_spec list;  (* install order *)
  mutable d_rules : rule list;  (* oldest first *)
  mutable d_tables : int;  (* table ids 0 .. d_tables - 1 exist *)
  d_globals : (string * string, int64) Hashtbl.t;  (* (action, name) *)
  d_arrays : (string * string, int64 array) Hashtbl.t;
  mutable d_generation : int;
}

let create () =
  {
    d_actions = [];
    d_rules = [];
    d_tables = 1;
    d_globals = Hashtbl.create 16;
    d_arrays = Hashtbl.create 16;
    d_generation = 0;
  }

let generation t = t.d_generation
let bump t = t.d_generation <- t.d_generation + 1

let actions t = t.d_actions
let action_names t = List.map (fun s -> s.Enclave.i_name) t.d_actions
let has_action t name = List.exists (fun s -> String.equal s.Enclave.i_name name) t.d_actions
let tables t = t.d_tables
let rules t = t.d_rules

let add_action t spec =
  if has_action t spec.Enclave.i_name then
    Error (Printf.sprintf "action %S is already in the desired state" spec.Enclave.i_name)
  else begin
    t.d_actions <- t.d_actions @ [ spec ];
    Ok ()
  end

(* Dropping an action drops everything hanging off it, mirroring the
   enclave's own no-dangling-references rule. *)
let remove_action t name =
  if not (has_action t name) then false
  else begin
    t.d_actions <- List.filter (fun s -> not (String.equal s.Enclave.i_name name)) t.d_actions;
    t.d_rules <- List.filter (fun r -> not (String.equal r.dr_action name)) t.d_rules;
    let drop tbl =
      let keys =
        Hashtbl.fold (fun (a, k) _ acc -> if String.equal a name then (a, k) :: acc else acc) tbl []
      in
      List.iter (Hashtbl.remove tbl) keys
    in
    drop t.d_globals;
    drop t.d_arrays;
    true
  end

let add_table t =
  let id = t.d_tables in
  t.d_tables <- id + 1;
  id

let add_rule t ~table ~pattern ~action =
  if not (has_action t action) then
    Error (Printf.sprintf "action %S is not in the desired state" action)
  else if table < 0 || table >= t.d_tables then
    Error (Printf.sprintf "table %d is not in the desired state" table)
  else begin
    let r = { dr_table = table; dr_pattern = pattern; dr_action = action } in
    t.d_rules <- t.d_rules @ [ r ];
    Ok r
  end

let set_global t ~action name v =
  if not (has_action t action) then
    Error (Printf.sprintf "action %S is not in the desired state" action)
  else begin
    Hashtbl.replace t.d_globals (action, name) v;
    Ok ()
  end

let set_global_array t ~action name arr =
  if not (has_action t action) then
    Error (Printf.sprintf "action %S is not in the desired state" action)
  else begin
    Hashtbl.replace t.d_arrays (action, name) (Array.copy arr);
    Ok ()
  end

let global t ~action name = Hashtbl.find_opt t.d_globals (action, name)
let global_array t ~action name = Hashtbl.find_opt t.d_arrays (action, name)

let bindings_of tbl action =
  Hashtbl.fold (fun (a, k) v acc -> if String.equal a action then (k, v) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let globals_of t action = bindings_of t.d_globals action
let arrays_of t action = bindings_of t.d_arrays action

