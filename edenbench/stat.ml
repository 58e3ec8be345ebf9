(* Order statistics and running sums for the benchmark's own samples. *)

(* Latency histogram with 1 ns buckets up to [limit] and exact overflow
   samples beyond it, so quantiles are exact to the nanosecond.  The
   buckets live in a Bigarray, outside the OCaml heap, so they do not
   show up in the heap figures the benchmark reports. *)
module Hist = struct
  open Bigarray

  type t = {
    buckets : (int, int_elt, c_layout) Array1.t;
    mutable over : int array;
    mutable n_over : int;
    mutable count : int;
  }

  let limit = 1 lsl 20

  let create () =
    let buckets = Array1.create Int C_layout limit in
    Array1.fill buckets 0;
    { buckets; over = Array.make 64 0; n_over = 0; count = 0 }

  let add t v =
    t.count <- t.count + 1;
    if v >= 0 && v < limit then
      Array1.unsafe_set t.buckets v (Array1.unsafe_get t.buckets v + 1)
    else begin
      if t.n_over = Array.length t.over then begin
        let bigger = Array.make (2 * t.n_over) 0 in
        Array.blit t.over 0 bigger 0 t.n_over;
        t.over <- bigger
      end;
      t.over.(t.n_over) <- max 0 v;
      t.n_over <- t.n_over + 1
    end

  (* Nearest-rank quantile; 0 when empty. *)
  let quantile t q =
    if t.count = 0 then 0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
      let seen = ref 0 and i = ref 0 in
      while !i < limit && !seen + Array1.unsafe_get t.buckets !i < rank do
        seen := !seen + Array1.unsafe_get t.buckets !i;
        incr i
      done;
      if !i < limit then !i
      else begin
        let over = Array.sub t.over 0 t.n_over in
        Array.sort compare over;
        over.(min (t.n_over - 1) (rank - !seen - 1))
      end
    end
end

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Sum of durations (and words) over some calls. *)
type acc = { mutable n : int; mutable ns : int; mutable words : int }

let acc () = { n = 0; ns = 0; words = 0 }

let[@inline] add a ~ns ~words =
  a.n <- a.n + 1;
  a.ns <- a.ns + ns;
  a.words <- a.words + words

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n
let mean_ns a = per a.n a.ns
let mean_words a = per a.n a.words
