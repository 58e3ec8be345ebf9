type model = {
  vanilla_ns : float;
  api_ns : float;
  classify_ns : float;
  marshal_ns : float;
  per_step_ns : float;
  compiled_step_ns : float;
  native_ns : float;
  budget_ns : float;
}

(* Rough calibration against the paper's setting: a vanilla stack spends on
   the order of a microsecond of CPU per packet end to end; Eden's reported
   total overhead at 10 Gbps line rate is under ~10% (Fig. 12), split
   across API, enclave and interpreter.  The bench harness re-measures
   [per_step_ns] with Bechamel on the actual interpreter. *)
let os_model =
  {
    vanilla_ns = 2000.0;
    api_ns = 40.0;
    classify_ns = 30.0;
    marshal_ns = 20.0;
    per_step_ns = 2.0;
    compiled_step_ns = 0.5;
    native_ns = 12.0;
    budget_ns = 250_000.0;
  }

(* NFP-style NIC cores are individually slower but plentiful; per-packet
   costs are higher while the host CPU is relieved entirely. *)
let nic_model =
  {
    vanilla_ns = 2000.0;
    api_ns = 40.0;
    classify_ns = 90.0;
    marshal_ns = 60.0;
    per_step_ns = 6.0;
    compiled_step_ns = 1.5;
    native_ns = 35.0;
    budget_ns = 700_000.0;
  }

let admission_ns m ~steps =
  m.classify_ns +. m.marshal_ns +. (float_of_int steps *. m.per_step_ns)

module Accum = struct
  (* All-float, so OCaml stores the fields flat and a charge updates them
     in place; one int field would box every float written.  The packet
     count is exact up to 2^53. *)
  type t = {
    mutable vanilla : float;
    mutable api : float;
    mutable classify : float;
    mutable marshal : float;
    mutable interp : float;
    mutable native : float;
    mutable packets : float;
  }

  let create () =
    { vanilla = 0.0; api = 0.0; classify = 0.0; marshal = 0.0; interp = 0.0;
      native = 0.0; packets = 0.0 }

  let add_vanilla t m =
    t.vanilla <- t.vanilla +. m.vanilla_ns;
    t.packets <- t.packets +. 1.0

  let add_api t m = t.api <- t.api +. m.api_ns
  let add_classify t m = t.classify <- t.classify +. m.classify_ns
  let add_marshal t m = t.marshal <- t.marshal +. m.marshal_ns
  let add_interp t m ~steps = t.interp <- t.interp +. (float_of_int steps *. m.per_step_ns)

  let add_compiled t m ~steps =
    t.interp <- t.interp +. (float_of_int steps *. m.compiled_step_ns)
  let add_native t m = t.native <- t.native +. m.native_ns
  let packets t = int_of_float t.packets

  let overhead_total_ns t = t.api +. t.classify +. t.marshal +. t.interp +. t.native

  let vanilla_ns t = t.vanilla
  let api_ns t = t.api
  let enclave_ns t = t.classify +. t.marshal
  let interp_ns t = t.interp
  let native_ns t = t.native

  let overhead_pct t ~api ~enclave ~interp =
    if t.vanilla <= 0.0 then 0.0
    else begin
      let sel = ref 0.0 in
      if api then sel := !sel +. t.api;
      if enclave then sel := !sel +. t.classify +. t.marshal;
      if interp then sel := !sel +. t.interp;
      !sel /. t.vanilla *. 100.0
    end

  let merge a b =
    {
      vanilla = a.vanilla +. b.vanilla;
      api = a.api +. b.api;
      classify = a.classify +. b.classify;
      marshal = a.marshal +. b.marshal;
      interp = a.interp +. b.interp;
      native = a.native +. b.native;
      packets = a.packets +. b.packets;
    }
end
