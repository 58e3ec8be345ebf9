(* In-memory span log of the traced run.  A span is one timed call the
   benchmark made into a layer: name, start, end, parent span, and the
   packet or edit id it carried.  Spans are appended to preallocated
   arrays and written out once, when the run ends. *)

type t = {
  cap : int;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  name : int array;
  parent : int array;
  key : int array;
  start : int array;
  stop : int array;
  words : int array;
  mutable len : int;
  mutable dropped : int;
  origin : int;
}

let create ~enabled =
  let cap = if enabled then 1 lsl 19 else 0 in
  let arr () = Array.make cap 0 in
  {
    cap;
    ids = Hashtbl.create 64;
    names = [||];
    name = arr ();
    parent = arr ();
    key = arr ();
    start = arr ();
    stop = arr ();
    words = arr ();
    len = 0;
    dropped = 0;
    origin = Clock.ns ();
  }

let name_id t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.add t.ids s i;
    t.names <- Array.append t.names [| s |];
    i

(* Returns the span's index, the [parent] of its children; -1 once the
   log is full (the span is then only counted as dropped). *)
let record t ~name ?(parent = -1) ~key ~start ~stop ~words () =
  if t.len >= t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.len in
    t.name.(i) <- name_id t name;
    t.parent.(i) <- parent;
    t.key.(i) <- key;
    t.start.(i) <- start - t.origin;
    t.stop.(i) <- stop - t.origin;
    t.words.(i) <- words;
    t.len <- i + 1;
    i
  end

let length t = t.len
let dropped t = t.dropped

let write t path =
  let oc = open_out path in
  output_string oc "span\tname\tparent\tkey\tstart_ns\tend_ns\tminor_words\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" i t.names.(t.name.(i)) t.parent.(i)
      t.key.(i) t.start.(i) t.stop.(i) t.words.(i)
  done;
  close_out oc
