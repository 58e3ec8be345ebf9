(** Classification rule-sets (paper §3.3).

    A rule maps a classifier to a class name and the metadata fields to
    attach: [<classifier> -> \[class_name, {meta-data}\]].  Rules are
    arranged in rule-sets so that a message matches at most one rule per
    rule-set — implemented as ordered first-match.  A message can belong
    to one class per rule-set, so installing several rule-sets tags it
    with several classes (Fig. 6's [r1]/[r2]/[r3]). *)

type rule = {
  rule_id : int;
  classifier : Classifier.t;
  class_name : string;  (** Unqualified; qualified by stage and rule-set. *)
  qualified : Eden_base.Class_name.t;
      (** [stage.rule_set.class_name], built once when the rule is added. *)
  metadata_fields : string list;
      (** Descriptor fields to copy into the message metadata, e.g.
          [\["msg_size"; "msg_type"\]].  The message identifier is always
          attached, as in every example of Fig. 6. *)
}

type t

val create : stage:string -> string -> t
(** [create ~stage id] makes an empty rule-set named [id] (e.g. ["r1"])
    whose classes are qualified by [stage]. *)

val id : t -> string

val version : t -> int
(** Counts the rule-set's mutations: every {!add_rule} and every
    {!remove_rule} that removed a rule bumps it. *)

val add_rule :
  t -> classifier:Classifier.t -> class_name:string -> metadata_fields:string list -> rule
(** Appends a rule (lowest priority so far) and returns it.
    @raise Invalid_argument when the stage, rule-set id or class name is
    empty or contains a dot (see {!Eden_base.Class_name.v}). *)

val remove_rule : t -> int -> bool
(** [remove_rule t rule_id] returns whether a rule was removed. *)

val rules : t -> rule list
(** In match order. *)

val classify : t -> Classifier.Descriptor.t -> rule option
(** First matching rule, if any. *)

val pp : Format.formatter -> t -> unit
