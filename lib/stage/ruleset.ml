module Class_name = Eden_base.Class_name

type rule = {
  rule_id : int;
  classifier : Classifier.t;
  class_name : string;
  qualified : Class_name.t;
  metadata_fields : string list;
}

type t = {
  stage : string;
  id : string;
  mutable rules : rule list;
  mutable next_rule_id : int;
  mutable version : int;
}

let create ~stage id = { stage; id; rules = []; next_rule_id = 0; version = 0 }
let id t = t.id
let version t = t.version

let add_rule t ~classifier ~class_name ~metadata_fields =
  let qualified = Class_name.v ~stage:t.stage ~ruleset:t.id ~name:class_name in
  let rule = { rule_id = t.next_rule_id; classifier; class_name; qualified; metadata_fields } in
  t.next_rule_id <- t.next_rule_id + 1;
  t.rules <- t.rules @ [ rule ];
  t.version <- t.version + 1;
  rule

let remove_rule t rule_id =
  let before = List.length t.rules in
  t.rules <- List.filter (fun r -> r.rule_id <> rule_id) t.rules;
  let removed = List.length t.rules < before in
  if removed then t.version <- t.version + 1;
  removed

let rules t = t.rules
let classify t descriptor = List.find_opt (fun r -> Classifier.matches r.classifier descriptor) t.rules

let pp fmt t =
  Format.fprintf fmt "@[<v>rule-set %s:@," t.id;
  List.iter
    (fun r ->
      Format.fprintf fmt "  %s -> [%s, {msg_id%s}]@,"
        (Classifier.to_string r.classifier)
        r.class_name
        (match r.metadata_fields with
        | [] -> ""
        | fs -> ", " ^ String.concat ", " fs))
    t.rules;
  Format.fprintf fmt "@]"
