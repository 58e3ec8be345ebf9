(* Monotonic nanoseconds and minor-heap words, both read without
   allocating so they can bracket every timed call without adding to
   what they measure.  The clock stub (clock_gettime(CLOCK_MONOTONIC))
   is the one bechamel.monotonic_clock links in. *)

external now : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] ns () = Int64.to_int (now ())

(* [Gc.minor_words] counts this domain's minor allocation exactly. *)
let[@inline] words () = int_of_float (Gc.minor_words ())

(* Host speed probe.  The shared host the benchmark was tuned on (2
   vCPUs, x86-64) switches between speeds up to about 1.8x apart, for
   stretches of seconds to tens of minutes, as other tenants come and go;
   a run can spend all of its time at either speed.  [probe] times fixed
   work of two kinds: an integer loop that touches no memory, which slows
   more than the workloads do when the host is slow, and hash-table
   churn on small allocated keys, which slows less.  Their sum slowed as
   the kv-rpc data path did over a 90 s run that crossed the host's
   speeds.  [slowness_of] is the probe's time over [probe_ref_ns], its
   time on that host at its faster speed.  Dividing a duration by the
   slowness probed beside it states the duration at the reference speed.
   The correction is approximate: on that host, runs spent mostly at the
   slower speed read up to about 15% better than runs spent mostly at the
   faster one, where uncorrected figures differ by up to 1.6x.  A window
   is probed before and after and the shorter probe is used, so that a
   probe that was preempted does not count. *)
let probe_iters = 100_000
let probe_table_ops = 1000
let probe_ref_ns = 180_000
let probe_table : (int * int, int) Hashtbl.t = Hashtbl.create 1024

let probe () =
  let t0 = ns () in
  let r = ref 0 in
  for k = 1 to probe_iters do
    r := !r + ((k * k) land 7)
  done;
  for i = 0 to probe_table_ops - 1 do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace probe_table (k, k + 1) i;
    r := !r + Option.value ~default:0 (Hashtbl.find_opt probe_table (k - 3, k - 2));
    if i land 1 = 0 then begin
      let j = (k * 31) land 1023 in
      Hashtbl.remove probe_table (j, j + 1)
    end
  done;
  ignore (Sys.opaque_identity !r);
  ns () - t0

let slowness_of probe_ns = float_of_int probe_ns /. float_of_int probe_ref_ns
