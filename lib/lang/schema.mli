(** State-variable annotations.

    The paper's compiler relies on three kinds of type annotations supplied
    by the programmer (§3.4.4): the lifetime of each state variable (packet
    / message / function), its access permissions, and its mapping onto
    packet-header values (Fig. 8).  A [Schema.t] is the OCaml rendition of
    those annotated type declarations: it lists, for each entity, the
    scalar fields and arrays an action function may touch. *)

type access = Read_only | Read_write

type header_map = { hm_protocol : string; hm_field : string }
(** e.g. [{ hm_protocol = "802.1q"; hm_field = "PriorityCodePoint" }]. *)

type field = {
  f_name : string;
  f_access : access;
  f_header_maps : header_map list;  (** only meaningful on packet fields *)
  f_default : int64;  (** value when the backing state does not exist yet *)
}

type array_decl = {
  a_name : string;
  a_access : access;
  a_min_length : int option;
      (** Declared lower bound on the backing array's length.  Becomes the
          program's [a_min_len] contract, which the enclave enforces
          before every invocation. *)
  a_max_length : int option;
      (** Declared upper bound; only used to tighten static cost bounds on
          loops that walk the array. *)
}

type entity_schema = { fields : field list; arrays : array_decl list }

type t = {
  packet : entity_schema;
  message : entity_schema;
  global : entity_schema;
}

val field :
  ?access:access -> ?header_maps:header_map list -> ?default:int64 -> string -> field
(** Defaults: read-only, no header maps, default value 0. *)

val array : ?access:access -> ?min_length:int -> ?max_length:int -> string -> array_decl
(** @raise Invalid_argument on negative lengths or [min_length > max_length]. *)

val empty_entity : entity_schema
val empty : t

val make :
  ?packet:field list ->
  ?message:field list ->
  ?global:field list ->
  ?message_arrays:array_decl list ->
  ?global_arrays:array_decl list ->
  unit ->
  t
(** Packet entities never carry arrays, so there is no [?packet_arrays]. *)

val entity : t -> Ast.entity -> entity_schema
val find_field : t -> Ast.entity -> string -> field option
val find_array : t -> Ast.entity -> string -> array_decl option

(** The standard packet schema shared by all action functions: the fields
    the enclave knows how to marshal from and to a {!Eden_base.Packet.t}.

    - [Size] (ro): wire size; maps to IPv4 TotalLength.
    - [PayloadSize] (ro).
    - [Priority] (rw): maps to 802.1q PriorityCodePoint.
    - [Path] (rw): source-route label; maps to the 802.1q VLAN id.
    - [SrcHost], [SrcPort], [DstHost], [DstPort], [Proto] (ro).
    - [IsData] (ro): 1 for payload-bearing segments.
    - [Drop] (rw): set non-zero to discard the packet.
    - [Queue] (rw, default -1): rate-limited queue to place the packet in.
    - [Charge] (rw, default -1): bytes to charge against that queue;
      -1 means the wire size (Pulsar-style cost accounting).
    - [GotoTable] (rw, default -1): continue matching at another
      match-action table. *)
val standard_packet_fields : field list

val infer : Ast.t -> t
(** The most permissive schema consistent with an action's usage:
    standard packet fields plus read-write message/global scalars and
    arrays for whatever the action touches.  Meant for tooling (e.g.
    compiling operator-supplied source from the CLI); production installs
    should declare access explicitly so the concurrency analysis and
    read-only enforcement mean something. *)

val with_standard_packet :
  ?message:field list ->
  ?global:field list ->
  ?message_arrays:array_decl list ->
  ?global_arrays:array_decl list ->
  unit ->
  t
