module Time = Eden_base.Time

(* Message-id keys hash and compare without the polymorphic primitives;
   the multiplicative hash spreads ids whose low bits repeat. *)
module Msg_table = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash x = Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x9E3779B97F4A7C15L) 32)
end)

(* A message holds the few fields its action declares, so a short list
   scanned by name (physically equal first: callers pass the program's
   own slot names) beats a per-message hash table. *)
type field = { name : string; mutable value : int64 }

type msg_entry = {
  mutable fields : field list;
  mutable last_touch : Time.t;
}

type t = {
  global_scalars : (string, int64) Hashtbl.t;
  global_arrays : (string, int64 array) Hashtbl.t;
  messages : msg_entry Msg_table.t;
  mutable array_version : int;
  (* The last message touched: an invocation reads and writes its
     message's fields back to back. *)
  mutable last_id : int64;
  mutable last : msg_entry;
}

(* [last] when no message is remembered; never touched or returned. *)
let no_entry = { fields = []; last_touch = 0L }

let create () =
  {
    global_scalars = Hashtbl.create 16;
    global_arrays = Hashtbl.create 8;
    messages = Msg_table.create 256;
    array_version = 0;
    last_id = 0L;
    last = no_entry;
  }

(* Reads use [Hashtbl.find] + [Not_found] rather than [find_opt]: these
   run per packet per slot and must not allocate an option each time. *)
let global_get t name =
  match Hashtbl.find t.global_scalars name with v -> v | exception Not_found -> 0L

let global_set t name v = Hashtbl.replace t.global_scalars name v

let global_array t name =
  match Hashtbl.find t.global_arrays name with a -> a | exception Not_found -> [||]

let global_array_set t name a =
  t.array_version <- t.array_version + 1;
  Hashtbl.replace t.global_arrays name a

let array_version t = t.array_version

let global_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.global_scalars []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let global_array_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.global_arrays []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let msg_entry t msg now =
  let e =
    if t.last != no_entry && Int64.equal t.last_id msg then t.last
    else begin
      let e =
        match Msg_table.find t.messages msg with
        | e -> e
        | exception Not_found ->
          let e = { fields = []; last_touch = now } in
          Msg_table.replace t.messages msg e;
          e
      in
      t.last_id <- msg;
      t.last <- e;
      e
    end
  in
  e.last_touch <- now;
  e

(* [no_field] when absent: the per-packet reads allocate no option. *)
let no_field = { name = ""; value = 0L }

let rec find_field name = function
  | [] -> no_field
  | f :: rest ->
    if f.name == name || String.equal f.name name then f else find_field name rest

let msg_get t ~msg ~field ~default ~now =
  let e = msg_entry t msg now in
  let f = find_field field e.fields in
  if f != no_field then f.value
  else begin
    e.fields <- { name = field; value = default } :: e.fields;
    default
  end

let msg_set t ~msg ~field v ~now =
  let e = msg_entry t msg now in
  let f = find_field field e.fields in
  if f != no_field then f.value <- v else e.fields <- { name = field; value = v } :: e.fields

let msg_known t ~msg = Msg_table.mem t.messages msg
let msg_count t = Msg_table.length t.messages

let msg_end t ~msg =
  Msg_table.remove t.messages msg;
  if Int64.equal t.last_id msg then t.last <- no_entry

let expire t ~now ~idle =
  let cutoff = Time.sub now idle in
  let stale =
    Msg_table.fold
      (fun id e acc -> if Time.( < ) e.last_touch cutoff then id :: acc else acc)
      t.messages []
  in
  List.iter (Msg_table.remove t.messages) stale;
  t.last <- no_entry;
  List.length stale
