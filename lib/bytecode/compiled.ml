(* Install-time closure compilation of verified bytecode (threaded code).

   [Interp.run] pays a per-step tax that has nothing to do with the
   action function's logic: an opcode [match] dispatch, a heap-allocated
   [next] ref per retired instruction, pc/sp ref-cell bookkeeping and a
   step-limit test on every instruction.  Installation is the natural
   place to spend one-off work removing it (the same trade eBPF makes:
   verify once, then run native), so this module translates a verified
   program into nested OCaml closures — one chain per basic block,
   direct calls between blocks — fixing at compile time everything the
   verifier proved static:

   - the verifier guarantees a single consistent operand-stack depth per
     pc, so the stack becomes direct slot addressing: no sp, no
     push/pop, every operand read and written at a byte offset known at
     compile time (and below [stack_limit], so accesses are unchecked);
   - the operand stack, locals and constants live in one [Bytes.t] of
     unboxed 8-byte slots accessed through the [%caml_bytes_get64u]/[set64u]
     primitives.  An [int64 array] would box every arithmetic result
     and run the write barrier on every store; with raw slots the
     native compiler keeps whole operand chains unboxed, so straight-
     line arithmetic neither allocates nor touches the GC;
   - steps are bulk-charged per basic block (one add + compare instead
     of one per instruction), with the charge corrected at fault sites
     so accounting matches the interpreter exactly;
   - the peak-stack statistic is a per-block constant, folded in at
     block exit;
   - locals indices and array-slot numbers were range-checked by the
     verifier, so those accesses are unchecked too;
   - operands are fused into their consumers: a [Load]/[Push] feeding a
     binary operation or an array load inside the same block becomes a
     direct read of the local or of a constant slot, a [Store] right
     after such an operation becomes its destination, and a comparison
     ending in [Jz]/[Jnz] becomes the branch's condition.  Locals,
     stack slots and constants share one buffer, so every fused operand
     is one unboxed read at an offset fixed at compile time.  Steps
     are still charged per source instruction.

   Faults, stats and published state are bit-identical to [Interp.run]
   on the same env/now/rng: test/test_compiled.ml enforces this
   differentially on every example function and on randomized programs.

   When a block's remaining step budget cannot cover the whole block,
   execution falls back to [slow_run], a per-instruction twin of
   [Interp.run] over the same machine state, so step-limit faults land
   on exactly the same instruction with exactly the same partial
   effects. *)

module P = Program
module Rng = Eden_base.Rng

(* [mem] holds unboxed 8-byte slots: the locals from offset 0, the
   operand stack from [sbase], then the constants fused operands read. *)
type state = {
  mem : Bytes.t;
  sbase : int;
  mutable env_scalars : int64 array;
  mutable env_arrays : int64 array array;
  mutable heap : int64 array array;
  mutable n_heap : int;
  mutable heap_cells : int;
  mutable steps : int;
  mutable max_sp : int;
  mutable now_ns : int64;
  mutable rng : Rng.t;
}

exception F of Interp.fault

external b64get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b64set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Keep this alias monomorphic: with a polymorphic scheme the
   generic-array primitive can specialise wrongly for unboxable
   elements on OCaml 5.1 and read garbage. *)
let aget : int64 array array -> int -> int64 array = Array.unsafe_get

(* ------------------------------------------------------------------ *)
(* Slow path: per-instruction execution from an arbitrary pc, used when
   the remaining step budget cannot cover a whole block.  Mirrors
   [Interp.run] exactly (fault sites, step accounting, stack peaks). *)

let slow_run (p : P.t) (st : state) pc0 sp0 =
  let code = p.P.code in
  let len = Array.length code in
  let mem = st.mem and sbase = st.sbase in
  let pc = ref pc0 in
  let sp = ref sp0 in
  let push v =
    b64set mem (sbase + (!sp lsl 3)) v;
    incr sp;
    if !sp > st.max_sp then st.max_sp <- !sp
  in
  let pop () =
    decr sp;
    b64get mem (sbase + (!sp lsl 3))
  in
  let to_bool v = if Int64.equal v 0L then 0L else 1L in
  let env_array s = st.env_arrays.(s) in
  let check_index arr i =
    let n = Array.length arr in
    if i < 0 || i >= n then raise (F (Interp.Array_bounds { pc = !pc; index = i; length = n }))
  in
  let heap_get r =
    let r = Int64.to_int r in
    if r < 0 || r >= st.n_heap then raise (F (Interp.Invalid_reference { pc = !pc }));
    st.heap.(r)
  in
  let alloc n =
    if n < 0 then raise (F (Interp.Negative_array_length { pc = !pc; length = n }));
    if st.heap_cells + n > p.P.heap_limit then
      raise (F (Interp.Heap_exhausted { pc = !pc; requested = n; limit = p.P.heap_limit }));
    if st.n_heap = Array.length st.heap then begin
      let bigger = Array.make (2 * st.n_heap) [||] in
      Array.blit st.heap 0 bigger 0 st.n_heap;
      st.heap <- bigger
    end;
    st.heap.(st.n_heap) <- Array.make n 0L;
    st.heap_cells <- st.heap_cells + n;
    let r = st.n_heap in
    st.n_heap <- r + 1;
    Int64.of_int r
  in
  while !pc < len do
    if st.steps >= p.P.step_limit then
      raise (F (Interp.Step_limit_exceeded { limit = p.P.step_limit }));
    st.steps <- st.steps + 1;
    let op = code.(!pc) in
    let next = ref (!pc + 1) in
    (match op with
    | Opcode.Push v -> push v
    | Opcode.Pop -> ignore (pop ())
    | Opcode.Dup ->
      let v = pop () in
      push v;
      push v
    | Opcode.Swap ->
      let b = pop () in
      let a = pop () in
      push b;
      push a
    | Opcode.Load i -> push (b64get mem (i lsl 3))
    | Opcode.Store i -> b64set mem (i lsl 3) (pop ())
    | Opcode.Add ->
      let b = pop () and a = pop () in
      push (Int64.add a b)
    | Opcode.Sub ->
      let b = pop () and a = pop () in
      push (Int64.sub a b)
    | Opcode.Mul ->
      let b = pop () and a = pop () in
      push (Int64.mul a b)
    | Opcode.Div ->
      let b = pop () and a = pop () in
      if Int64.equal b 0L then raise (F (Interp.Division_by_zero { pc = !pc }));
      push (Int64.div a b)
    | Opcode.Rem ->
      let b = pop () and a = pop () in
      if Int64.equal b 0L then raise (F (Interp.Division_by_zero { pc = !pc }));
      push (Int64.rem a b)
    | Opcode.Neg -> push (Int64.neg (pop ()))
    | Opcode.Band ->
      let b = pop () and a = pop () in
      push (Int64.logand a b)
    | Opcode.Bor ->
      let b = pop () and a = pop () in
      push (Int64.logor a b)
    | Opcode.Bxor ->
      let b = pop () and a = pop () in
      push (Int64.logxor a b)
    | Opcode.Shl ->
      let b = pop () and a = pop () in
      push (Int64.shift_left a (Int64.to_int b land 63))
    | Opcode.Shr ->
      let b = pop () and a = pop () in
      push (Int64.shift_right_logical a (Int64.to_int b land 63))
    | Opcode.Not -> push (if Int64.equal (pop ()) 0L then 1L else 0L)
    | Opcode.Eq ->
      let b = pop () and a = pop () in
      push (if Int64.equal a b then 1L else 0L)
    | Opcode.Ne ->
      let b = pop () and a = pop () in
      push (if Int64.equal a b then 0L else 1L)
    | Opcode.Lt ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b < 0 then 1L else 0L)
    | Opcode.Le ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b <= 0 then 1L else 0L)
    | Opcode.Gt ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b > 0 then 1L else 0L)
    | Opcode.Ge ->
      let b = pop () and a = pop () in
      push (if Int64.compare a b >= 0 then 1L else 0L)
    | Opcode.Jmp t -> next := t
    | Opcode.Jz t -> if Int64.equal (to_bool (pop ())) 0L then next := t
    | Opcode.Jnz t -> if not (Int64.equal (to_bool (pop ())) 0L) then next := t
    | Opcode.Gaload s ->
      let i = Int64.to_int (pop ()) in
      let arr = env_array s in
      check_index arr i;
      push arr.(i)
    | Opcode.Gastore s ->
      let v = pop () in
      let i = Int64.to_int (pop ()) in
      let arr = env_array s in
      check_index arr i;
      arr.(i) <- v
    | Opcode.Galen s -> push (Int64.of_int (Array.length (env_array s)))
    | Opcode.Newarr -> push (alloc (Int64.to_int (pop ())))
    | Opcode.Aload ->
      let i = Int64.to_int (pop ()) in
      let arr = heap_get (pop ()) in
      check_index arr i;
      push arr.(i)
    | Opcode.Astore ->
      let v = pop () in
      let i = Int64.to_int (pop ()) in
      let arr = heap_get (pop ()) in
      check_index arr i;
      arr.(i) <- v
    | Opcode.Alen -> push (Int64.of_int (Array.length (heap_get (pop ()))))
    | Opcode.Rand ->
      let bound = pop () in
      if Int64.compare bound 0L <= 0 then
        raise (F (Interp.Bad_random_bound { pc = !pc; bound }));
      push (Int64.of_int (Rng.int st.rng (Int64.to_int bound)))
    | Opcode.Clock -> push st.now_ns
    | Opcode.Hashmix ->
      let b = pop () and a = pop () in
      let m =
        Int64.mul (Int64.logxor (Int64.mul a 0x9E3779B97F4A7C15L) b) 0xBF58476D1CE4E5B9L
      in
      push (Int64.logxor m (Int64.shift_right_logical m 31))
    | Opcode.Halt -> next := len);
    pc := !next
  done

(* ------------------------------------------------------------------ *)
(* Fast path: one closure per instruction, or per fused group, chained
   within a basic block; blocks linked through patchable refs.  [d] is
   the statically known operand-stack depth before the instruction.  A
   binary operation reads its operands at memory offsets [a] and [b] and
   writes its result at [dst]; an array load reads its index at [b] and
   writes at [dst].  Unfused, these are the stack slots the instruction
   pops and pushes.  [k] is the next closure; [die] corrects the block's
   bulk step charge and the deferred stack peak before raising a
   mid-block fault.  Every offset is fixed here, at compile time. *)

let comp_instr (p : P.t) ~sbase ~pc ~d ~a ~b ~dst ~(k : state -> unit)
    ~(die : state -> Interp.fault -> unit) : state -> unit =
  let heap_limit = p.P.heap_limit in
  (* Offsets of the stack slot at depth d and the one/two/three below. *)
  let o0 = sbase + (d lsl 3) in
  let o1 = sbase + ((d - 1) lsl 3) in
  let o2 = sbase + ((d - 2) lsl 3) in
  let o3 = sbase + ((d - 3) lsl 3) in
  match p.P.code.(pc) with
  | Opcode.Push v ->
    fun st ->
      b64set st.mem o0 v;
      k st
  | Opcode.Pop -> k (* the value simply drops below the live depth *)
  | Opcode.Dup ->
    fun st ->
      b64set st.mem o0 (b64get st.mem o1);
      k st
  | Opcode.Swap ->
    fun st ->
      let m = st.mem in
      let x = b64get m o2 and y = b64get m o1 in
      b64set m o2 y;
      b64set m o1 x;
      k st
  | Opcode.Load i ->
    let oi = i lsl 3 in
    fun st ->
      b64set st.mem o0 (b64get st.mem oi);
      k st
  | Opcode.Store i ->
    let oi = i lsl 3 in
    fun st ->
      b64set st.mem oi (b64get st.mem o1);
      k st
  | Opcode.Add ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.add (b64get m a) (b64get m b));
      k st
  | Opcode.Sub ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.sub (b64get m a) (b64get m b));
      k st
  | Opcode.Mul ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.mul (b64get m a) (b64get m b));
      k st
  | Opcode.Div ->
    fun st ->
      let m = st.mem in
      let y = b64get m b in
      if Int64.equal y 0L then die st (Interp.Division_by_zero { pc })
      else begin
        b64set m dst (Int64.div (b64get m a) y);
        k st
      end
  | Opcode.Rem ->
    fun st ->
      let m = st.mem in
      let y = b64get m b in
      if Int64.equal y 0L then die st (Interp.Division_by_zero { pc })
      else begin
        b64set m dst (Int64.rem (b64get m a) y);
        k st
      end
  | Opcode.Neg ->
    fun st ->
      b64set st.mem o1 (Int64.neg (b64get st.mem o1));
      k st
  | Opcode.Band ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.logand (b64get m a) (b64get m b));
      k st
  | Opcode.Bor ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.logor (b64get m a) (b64get m b));
      k st
  | Opcode.Bxor ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.logxor (b64get m a) (b64get m b));
      k st
  | Opcode.Shl ->
    fun st ->
      let m = st.mem in
      b64set m dst (Int64.shift_left (b64get m a) (Int64.to_int (b64get m b) land 63));
      k st
  | Opcode.Shr ->
    fun st ->
      let m = st.mem in
      b64set m dst
        (Int64.shift_right_logical (b64get m a) (Int64.to_int (b64get m b) land 63));
      k st
  | Opcode.Not ->
    fun st ->
      b64set st.mem o1 (if Int64.equal (b64get st.mem o1) 0L then 1L else 0L);
      k st
  | Opcode.Eq ->
    fun st ->
      let m = st.mem in
      b64set m dst (if Int64.equal (b64get m a) (b64get m b) then 1L else 0L);
      k st
  | Opcode.Ne ->
    fun st ->
      let m = st.mem in
      b64set m dst (if Int64.equal (b64get m a) (b64get m b) then 0L else 1L);
      k st
  | Opcode.Lt ->
    fun st ->
      let m = st.mem in
      b64set m dst (if Int64.compare (b64get m a) (b64get m b) < 0 then 1L else 0L);
      k st
  | Opcode.Le ->
    fun st ->
      let m = st.mem in
      b64set m dst (if Int64.compare (b64get m a) (b64get m b) <= 0 then 1L else 0L);
      k st
  | Opcode.Gt ->
    fun st ->
      let m = st.mem in
      b64set m dst (if Int64.compare (b64get m a) (b64get m b) > 0 then 1L else 0L);
      k st
  | Opcode.Ge ->
    fun st ->
      let m = st.mem in
      b64set m dst (if Int64.compare (b64get m a) (b64get m b) >= 0 then 1L else 0L);
      k st
  | Opcode.Gaload s ->
    fun st ->
      let arr = aget st.env_arrays s in
      let i = Int64.to_int (b64get st.mem b) in
      if i < 0 || i >= Array.length arr then
        die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
      else begin
        b64set st.mem dst (Array.unsafe_get arr i);
        k st
      end
  | Opcode.Gastore s ->
    fun st ->
      let arr = aget st.env_arrays s in
      let i = Int64.to_int (b64get st.mem o2) in
      if i < 0 || i >= Array.length arr then
        die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
      else begin
        Array.unsafe_set arr i (b64get st.mem o1);
        k st
      end
  | Opcode.Galen s ->
    fun st ->
      b64set st.mem o0 (Int64.of_int (Array.length (aget st.env_arrays s)));
      k st
  | Opcode.Newarr ->
    fun st ->
      let n = Int64.to_int (b64get st.mem o1) in
      if n < 0 then die st (Interp.Negative_array_length { pc; length = n })
      else if st.heap_cells + n > heap_limit then
        die st (Interp.Heap_exhausted { pc; requested = n; limit = heap_limit })
      else begin
        if st.n_heap = Array.length st.heap then begin
          let bigger = Array.make (2 * st.n_heap) [||] in
          Array.blit st.heap 0 bigger 0 st.n_heap;
          st.heap <- bigger
        end;
        st.heap.(st.n_heap) <- Array.make n 0L;
        st.heap_cells <- st.heap_cells + n;
        b64set st.mem o1 (Int64.of_int st.n_heap);
        st.n_heap <- st.n_heap + 1;
        k st
      end
  | Opcode.Aload ->
    fun st ->
      let r = Int64.to_int (b64get st.mem o2) in
      if r < 0 || r >= st.n_heap then die st (Interp.Invalid_reference { pc })
      else begin
        let arr = aget st.heap r in
        let i = Int64.to_int (b64get st.mem o1) in
        if i < 0 || i >= Array.length arr then
          die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
        else begin
          b64set st.mem o2 (Array.unsafe_get arr i);
          k st
        end
      end
  | Opcode.Astore ->
    fun st ->
      let r = Int64.to_int (b64get st.mem o3) in
      if r < 0 || r >= st.n_heap then die st (Interp.Invalid_reference { pc })
      else begin
        let arr = aget st.heap r in
        let i = Int64.to_int (b64get st.mem o2) in
        if i < 0 || i >= Array.length arr then
          die st (Interp.Array_bounds { pc; index = i; length = Array.length arr })
        else begin
          Array.unsafe_set arr i (b64get st.mem o1);
          k st
        end
      end
  | Opcode.Alen ->
    fun st ->
      let r = Int64.to_int (b64get st.mem o1) in
      if r < 0 || r >= st.n_heap then die st (Interp.Invalid_reference { pc })
      else begin
        b64set st.mem o1 (Int64.of_int (Array.length (aget st.heap r)));
        k st
      end
  | Opcode.Rand ->
    fun st ->
      let bound = b64get st.mem o1 in
      if Int64.compare bound 0L <= 0 then die st (Interp.Bad_random_bound { pc; bound })
      else begin
        b64set st.mem o1 (Int64.of_int (Rng.int st.rng (Int64.to_int bound)));
        k st
      end
  | Opcode.Clock ->
    fun st ->
      b64set st.mem o0 st.now_ns;
      k st
  | Opcode.Hashmix ->
    fun st ->
      let m = st.mem in
      let h =
        Int64.mul
          (Int64.logxor (Int64.mul (b64get m a) 0x9E3779B97F4A7C15L) (b64get m b))
          0xBF58476D1CE4E5B9L
      in
      b64set m dst (Int64.logxor h (Int64.shift_right_logical h 31));
      k st
  | Opcode.Jmp _ | Opcode.Jz _ | Opcode.Jnz _ | Opcode.Halt ->
    (* Block terminators are compiled by [build], never here. *)
    assert false

(* A conditional branch on [a CMP b], [cmp] one of the comparisons:
   [tt] when it holds, [ff] when not. *)
let comp_branch cmp ~a ~b ~upd ~(tt : (state -> unit) ref) ~(ff : (state -> unit) ref) :
    state -> unit =
  match cmp with
  | Opcode.Eq ->
    fun st ->
      upd st;
      if Int64.equal (b64get st.mem a) (b64get st.mem b) then !tt st else !ff st
  | Opcode.Ne ->
    fun st ->
      upd st;
      if Int64.equal (b64get st.mem a) (b64get st.mem b) then !ff st else !tt st
  | Opcode.Lt ->
    fun st ->
      upd st;
      if Int64.compare (b64get st.mem a) (b64get st.mem b) < 0 then !tt st else !ff st
  | Opcode.Le ->
    fun st ->
      upd st;
      if Int64.compare (b64get st.mem a) (b64get st.mem b) <= 0 then !tt st else !ff st
  | Opcode.Gt ->
    fun st ->
      upd st;
      if Int64.compare (b64get st.mem a) (b64get st.mem b) > 0 then !tt st else !ff st
  | Opcode.Ge ->
    fun st ->
      upd st;
      if Int64.compare (b64get st.mem a) (b64get st.mem b) >= 0 then !tt st else !ff st
  | _ -> invalid_arg "Compiled.comp_branch: not a comparison"

(* ------------------------------------------------------------------ *)
(* Block discovery, operand fusion and threading *)

let is_binary = function
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem | Opcode.Band | Opcode.Bor
  | Opcode.Bxor | Opcode.Shl | Opcode.Shr | Opcode.Eq | Opcode.Ne | Opcode.Lt | Opcode.Le
  | Opcode.Gt | Opcode.Ge | Opcode.Hashmix ->
    true
  | _ -> false

let is_comparison = function
  | Opcode.Eq | Opcode.Ne | Opcode.Lt | Opcode.Le | Opcode.Gt | Opcode.Ge -> true
  | _ -> false

(* Returns the entry closure and the constants fused operands read, in
   slot order from [cbase]. *)
let build (p : P.t) ~sbase ~cbase : (state -> unit) * int64 list =
  let code = p.P.code in
  let len = Array.length code in
  (* Static operand-stack depth before each reachable pc (the verifier
     proved it unique); -1 marks unreachable instructions, which get no
     closure because control can never arrive there. *)
  let depth = Array.make len (-1) in
  let q = Queue.create () in
  let sched pc dpt =
    if pc < len && depth.(pc) < 0 then begin
      depth.(pc) <- dpt;
      Queue.add pc q
    end
  in
  sched 0 0;
  while not (Queue.is_empty q) do
    let pc = Queue.pop q in
    let op = code.(pc) in
    let pops, pushes = Opcode.stack_effect op in
    let d' = depth.(pc) - pops + pushes in
    (match Opcode.jump_target op with Some t -> sched t d' | None -> ());
    if not (Opcode.is_terminator op) then sched (pc + 1) d'
  done;
  let dafter pc =
    let pops, pushes = Opcode.stack_effect code.(pc) in
    depth.(pc) - pops + pushes
  in
  let leader = Array.make len false in
  leader.(0) <- true;
  for pc = 0 to len - 1 do
    if depth.(pc) >= 0 then begin
      (match Opcode.jump_target code.(pc) with
      | Some t when t < len -> leader.(t) <- true
      | Some _ | None -> ());
      match code.(pc) with
      | (Opcode.Jz _ | Opcode.Jnz _) when pc + 1 < len -> leader.(pc + 1) <- true
      | _ -> ()
    end
  done;
  let entries = Array.init len (fun _ -> ref (fun (_ : state) -> assert false)) in
  let finish = ref (fun (_ : state) -> ()) in
  (* Control transfer to pc [t]; [t = len] is normal completion. *)
  let target t = if t >= len then finish else entries.(t) in
  let slot d = sbase + (d lsl 3) in
  let consts = ref [] and n_consts = ref 0 in
  let const v =
    let o = cbase + (!n_consts lsl 3) in
    consts := v :: !consts;
    incr n_consts;
    o
  in
  (* Operand fusion, per block: [absorbed.(pc)] marks an instruction
     folded into a neighbour; [fa]/[fb]/[fdst] are the operand and
     result offsets of each binary operation and array load. *)
  let absorbed = Array.make len false in
  let fa = Array.make len 0 and fb = Array.make len 0 and fdst = Array.make len 0 in
  let leaf pc =
    match code.(pc) with
    | Opcode.Load i -> Some (i lsl 3)
    | Opcode.Push v -> Some (const v)
    | _ -> None
  in
  let block_end l =
    let rec go pc =
      match code.(pc) with
      | Opcode.Jmp _ | Opcode.Halt | Opcode.Jz _ | Opcode.Jnz _ -> pc
      | _ -> if pc + 1 >= len || leader.(pc + 1) then pc else go (pc + 1)
    in
    go l
  in
  (* First pc of the fused group ending at each pc. *)
  let first = Array.init len Fun.id in
  let fuse l e =
    (* An operand's producer sits right before its consumer; the left
       operand's producer right before the right one's group. *)
    let take pc = if pc >= l && not absorbed.(pc) then leaf pc else None in
    (* The group ending at [pc], if it only pushes one value and writes
       no local: the left operand's producer may then precede it. *)
    let pushes_one pc =
      pc >= l
      && (not absorbed.(pc))
      &&
      match code.(pc) with
      | Opcode.Galen _ | Opcode.Clock -> true
      | Opcode.Gaload _ -> first.(pc) < pc && fdst.(pc) >= sbase
      | op -> is_binary op && first.(pc) < pc - 1 && fdst.(pc) >= sbase
    in
    let store_after pc =
      if pc + 1 <= e then
        match code.(pc + 1) with
        | Opcode.Store j ->
          absorbed.(pc + 1) <- true;
          fdst.(pc) <- j lsl 3
        | _ -> ()
    in
    for i = l to e do
      let d = depth.(i) in
      let op = code.(i) in
      if is_binary op then begin
        fa.(i) <- slot (d - 2);
        fb.(i) <- slot (d - 1);
        fdst.(i) <- slot (d - 2);
        (match take (i - 1) with
        | Some o ->
          absorbed.(i - 1) <- true;
          first.(i) <- i - 1;
          fb.(i) <- o
        | None -> ());
        let g =
          if first.(i) < i then i - 1 else if pushes_one (i - 1) then first.(i - 1) else -1
        in
        (if g >= 0 then
           match take (g - 1) with
           | Some o ->
             absorbed.(g - 1) <- true;
             if first.(i) < i then first.(i) <- g - 1;
             fa.(i) <- o
           | None -> ());
        store_after i
      end
      else begin
        match op with
        | Opcode.Gaload _ ->
          fb.(i) <- slot (d - 1);
          fdst.(i) <- slot (d - 1);
          (match take (i - 1) with
          | Some o ->
            absorbed.(i - 1) <- true;
            first.(i) <- i - 1;
            fb.(i) <- o
          | None -> ());
          store_after i
        | _ -> ()
      end
    done
  in
  let compile_block l =
    let e = block_end l in
    let n = e - l + 1 in
    fuse l e;
    (* Peak depth inside the block and its per-instruction prefixes; the
       peak is folded into [max_sp] once, at block exit (or, corrected,
       at a fault site), never per push. *)
    let pmax = Array.make (n + 1) (-1) in
    for k = 1 to n do
      pmax.(k) <- max pmax.(k - 1) (dafter (l + k - 1))
    done;
    let bmax = pmax.(n) in
    let upd st = if bmax > st.max_sp then st.max_sp <- bmax in
    let die_for idx =
      let rollback = n - (idx + 1) in
      let mupto = pmax.(idx) in
      fun st f ->
        st.steps <- st.steps - rollback;
        if mupto > st.max_sp then st.max_sp <- mupto;
        raise (F f)
    in
    let goto r =
      fun st ->
        upd st;
        !r st
    in
    let exit_k, body_end =
      match code.(e) with
      | Opcode.Jmp t -> (goto (target t), e - 1)
      | Opcode.Halt -> (upd, e - 1)
      | (Opcode.Jz t | Opcode.Jnz t) as op ->
        let g = target t and h = target (e + 1) in
        (* Continuations when the popped value is non-zero / zero. *)
        let tt, ff = match op with Opcode.Jz _ -> (h, g) | _ -> (g, h) in
        if e > l && is_comparison code.(e - 1) && not absorbed.(e - 1) then begin
          absorbed.(e - 1) <- true;
          (comp_branch code.(e - 1) ~a:fa.(e - 1) ~b:fb.(e - 1) ~upd ~tt ~ff, e - 1)
        end
        else begin
          let o1 = slot (depth.(e) - 1) in
          ( (fun st ->
              upd st;
              if Int64.equal (b64get st.mem o1) 0L then !ff st else !tt st),
            e - 1 )
        end
      | _ -> ((if e + 1 >= len then upd else goto (target (e + 1))), e)
    in
    let body = ref exit_k in
    for pc = body_end downto l do
      if not absorbed.(pc) then
        body :=
          comp_instr p ~sbase ~pc ~d:depth.(pc) ~a:fa.(pc) ~b:fb.(pc) ~dst:fdst.(pc) ~k:!body
            ~die:(die_for (pc - l))
    done;
    let body = !body in
    let entry_depth = depth.(l) in
    let limit = p.P.step_limit in
    entries.(l) :=
      fun st ->
        let s = st.steps + n in
        if s <= limit then begin
          st.steps <- s;
          body st
        end
        else slow_run p st l entry_depth
  in
  for pc = 0 to len - 1 do
    if leader.(pc) && depth.(pc) >= 0 then compile_block pc
  done;
  (!(entries.(0)), List.rev !consts)

(* ------------------------------------------------------------------ *)
(* Public interface *)

type t = { cp_program : P.t; cp_entry : state -> unit; cp_state : state }

let program t = t.cp_program

let compile ?strict (p : P.t) =
  match Verifier.analyse ?strict p with
  | Error e -> Error e
  | Ok _ ->
    let sbase = 8 * max p.P.n_locals 1 in
    let cbase = sbase + (8 * max p.P.stack_limit 1) in
    let entry, consts = build p ~sbase ~cbase in
    let mem = Bytes.make (cbase + (8 * List.length consts)) '\000' in
    List.iteri (fun i v -> b64set mem (cbase + (i lsl 3)) v) consts;
    let st =
      {
        mem;
        sbase;
        env_scalars = [||];
        env_arrays = [||];
        heap = Array.make 16 [||];
        n_heap = 0;
        heap_cells = 0;
        steps = 0;
        max_sp = 0;
        now_ns = 0L;
        rng = Rng.create 0L;
      }
    in
    Ok { cp_program = p; cp_entry = entry; cp_state = st }

let exec t ~(env : Interp.env) ~now ~rng =
  let p = t.cp_program in
  let st = t.cp_state in
  if
    Array.length env.Interp.scalars <> Array.length p.P.scalar_slots
    || Array.length env.Interp.arrays <> Array.length p.P.array_slots
  then invalid_arg "Compiled.exec: env does not match the program's slot tables";
  st.env_scalars <- env.Interp.scalars;
  st.env_arrays <- env.Interp.arrays;
  st.now_ns <- Eden_base.Time.to_ns now;
  st.rng <- rng;
  Array.fill st.heap 0 st.n_heap [||];
  st.n_heap <- 0;
  st.heap_cells <- 0;
  st.steps <- 0;
  st.max_sp <- 0;
  Bytes.fill st.mem 0 st.sbase '\000';
  let scalar_slots = p.P.scalar_slots in
  for i = 0 to Array.length scalar_slots - 1 do
    b64set st.mem ((Array.unsafe_get scalar_slots i).P.s_local lsl 3)
      (Array.unsafe_get env.Interp.scalars i)
  done;
  match t.cp_entry st with
  | () ->
    (* Successful completion: publish writable scalar slots, as
       [Interp.run] does. *)
    for i = 0 to Array.length scalar_slots - 1 do
      let s = Array.unsafe_get scalar_slots i in
      if s.P.s_access = P.Read_write then
        Array.unsafe_set env.Interp.scalars i (b64get st.mem (s.P.s_local lsl 3))
    done;
    None
  | exception F f -> Some f

let last_steps t = t.cp_state.steps
let last_max_stack t = t.cp_state.max_sp
let last_heap_cells t = t.cp_state.heap_cells

let stats t =
  {
    Interp.steps = t.cp_state.steps;
    max_stack = t.cp_state.max_sp;
    heap_cells = t.cp_state.heap_cells;
  }

let run t ~env ~now ~rng =
  match exec t ~env ~now ~rng with
  | None -> Ok (stats t)
  | Some f -> Error (f, stats t)
