(** The controller's persistent desired-state store.

    Production SDN controllers do not treat a push as the truth — they
    keep the intended switch configuration and reconcile devices against
    it.  This store holds, per fleet (every enclave is programmed
    identically by the broadcast API), the intended actions (in install
    order), tables, rules and controller-owned state bindings, stamped
    with the generation counter.  The anti-entropy pass in
    {!Controller.reconcile} diffs an enclave's reported configuration
    against this and replays the delta.

    The store only covers controller-owned keys: globals an action
    function writes at run time (counters, caches) are expected to
    diverge and are not reconciled. *)

type rule = {
  dr_table : int;
  dr_pattern : Eden_base.Class_name.Pattern.t;
  dr_action : string;
}

type t

val create : unit -> t

val generation : t -> int
val bump : t -> unit

val actions : t -> Eden_enclave.Enclave.install_spec list
(** In install order. *)

val action_names : t -> string list
val has_action : t -> string -> bool

val add_action : t -> Eden_enclave.Enclave.install_spec -> (unit, string) result
(** Fails on a duplicate name. *)

val remove_action : t -> string -> bool
(** Also drops the action's rules and state bindings. *)

val tables : t -> int
(** Number of tables; ids [0 .. tables - 1]. *)

val add_table : t -> int

val rules : t -> rule list
(** Oldest first. *)

val add_rule :
  t ->
  table:int ->
  pattern:Eden_base.Class_name.Pattern.t ->
  action:string ->
  (rule, string) result

val set_global : t -> action:string -> string -> int64 -> (unit, string) result
val set_global_array : t -> action:string -> string -> int64 array -> (unit, string) result
val global : t -> action:string -> string -> int64 option
val global_array : t -> action:string -> string -> int64 array option

val globals_of : t -> string -> (string * int64) list
(** Controller-owned scalars of one action, sorted by name. *)

val arrays_of : t -> string -> (string * int64 array) list

