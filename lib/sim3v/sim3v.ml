open Rfn_circuit
open Rfn_obs

type v = Gate.ternary = V0 | V1 | VX

let of_bool b = if b then V1 else V0
let to_bool = function V0 -> Some false | V1 -> Some true | VX -> None

let conflicts a b =
  match (a, b) with V0, V1 | V1, V0 -> true | _, _ -> false

let pp ppf = function
  | V0 -> Format.pp_print_char ppf '0'
  | V1 -> Format.pp_print_char ppf '1'
  | VX -> Format.pp_print_char ppf 'X'

let eval_gate = Gate.eval3

let eval view ~free ~state =
  let c = view.Sview.circuit in
  let values = Array.make (Circuit.num_signals c) VX in
  let get s = values.(s) in
  Array.iter
    (fun s ->
      if Sview.mem view s then
        values.(s) <-
          (if Sview.is_free view s then free s
           else
             match Circuit.node c s with
             | Circuit.Const b -> of_bool b
             | Circuit.Reg _ -> state s
             | Circuit.Gate (kind, fanins) -> eval_gate kind get fanins
             | Circuit.Input -> assert false (* inputs are free in views *)))
    c.Circuit.topo;
  values

let step view ~free ~state =
  let values = eval view ~free ~state in
  let next r =
    match Circuit.node view.Sview.circuit r with
    | Circuit.Reg { next; _ } -> values.(next)
    | _ -> invalid_arg "Sim3v.step: not a register"
  in
  (values, next)

let run view ~init ~inputs ~cycles =
  let state = ref init in
  let frames = Array.make (cycles + 1) [||] in
  for cycle = 0 to cycles do
    let values, next =
      step view ~free:(fun s -> inputs ~cycle s) ~state:!state
    in
    frames.(cycle) <- values;
    state := next
  done;
  frames

(* ------------------------------------------------------------------ *)
(* Bit-parallel packed ternary simulation                              *)
(* ------------------------------------------------------------------ *)

module Packed = struct
  (* One ternary value per bit lane, across two planes:
     [ones] has a lane's bit set iff the value is 1, [unks] iff it is
     X, and a lane that is clear in both planes is 0. The invariant
     [ones land unks = 0] holds for every word this module builds.

     Lanes fill the native OCaml int — [Sys.int_size] bits (63 on
     64-bit hosts), so every bit of the word is a usable lane and no
     masking is needed: [-1] is "all lanes". Boxed [Int64] would give
     the headline 64 but costs an allocation per gate per word; the
     unboxed 63-lane representation is strictly faster. *)

  let lanes = Sys.int_size

  type w = { ones : int; unks : int }

  let zero = { ones = 0; unks = 0 }
  let splat = function V0 -> zero | V1 -> { ones = -1; unks = 0 } | VX -> { ones = 0; unks = -1 }

  let get w lane =
    if w.ones land (1 lsl lane) <> 0 then V1
    else if w.unks land (1 lsl lane) <> 0 then VX
    else V0

  let set w lane v =
    let bit = 1 lsl lane in
    match v with
    | V0 -> { ones = w.ones land lnot bit; unks = w.unks land lnot bit }
    | V1 -> { ones = w.ones lor bit; unks = w.unks land lnot bit }
    | VX -> { ones = w.ones land lnot bit; unks = w.unks lor bit }

  let of_fun f =
    let w = ref zero in
    for lane = 0 to lanes - 1 do
      w := set !w lane (f lane)
    done;
    !w

  (* Plane of lanes holding 0. *)
  let zeros_plane ~ones ~unks = lnot (ones lor unks)

  let vnot w = { ones = zeros_plane ~ones:w.ones ~unks:w.unks; unks = w.unks }

  let vand a b =
    let ones = a.ones land b.ones in
    let zero =
      zeros_plane ~ones:a.ones ~unks:a.unks
      lor zeros_plane ~ones:b.ones ~unks:b.unks
    in
    { ones; unks = lnot (ones lor zero) }

  let vor a b =
    let ones = a.ones lor b.ones in
    let zero =
      zeros_plane ~ones:a.ones ~unks:a.unks
      land zeros_plane ~ones:b.ones ~unks:b.unks
    in
    { ones; unks = lnot (ones lor zero) }

  let vxor a b =
    let unks = a.unks lor b.unks in
    { ones = (a.ones lxor b.ones) land lnot unks; unks }

  let vmux sel d0 d1 =
    let s0 = zeros_plane ~ones:sel.ones ~unks:sel.unks in
    let d0z = zeros_plane ~ones:d0.ones ~unks:d0.unks in
    let d1z = zeros_plane ~ones:d1.ones ~unks:d1.unks in
    let ones =
      (s0 land d0.ones) lor (sel.ones land d1.ones)
      lor (sel.unks land d0.ones land d1.ones)
    in
    let zero =
      (s0 land d0z) lor (sel.ones land d1z) lor (sel.unks land d0z land d1z)
    in
    { ones; unks = lnot (ones lor zero) }

  let fold_w op unit_w value fanins =
    let acc = ref unit_w in
    for i = 0 to Array.length fanins - 1 do
      acc := op !acc (value fanins.(i))
    done;
    !acc

  let eval_gate kind value fanins =
    match kind with
    | Gate.Not -> vnot (value fanins.(0))
    | Gate.Buf -> value fanins.(0)
    | Gate.And -> fold_w vand (splat V1) value fanins
    | Gate.Nand -> vnot (fold_w vand (splat V1) value fanins)
    | Gate.Or -> fold_w vor (splat V0) value fanins
    | Gate.Nor -> vnot (fold_w vor (splat V0) value fanins)
    | Gate.Xor -> fold_w vxor (splat V0) value fanins
    | Gate.Xnor -> vnot (fold_w vxor (splat V0) value fanins)
    | Gate.Mux ->
      vmux (value fanins.(0)) (value fanins.(1)) (value fanins.(2))

  (* Per-signal planes for a whole view evaluation. Signals outside
     the view read as X in every lane, matching the scalar [eval]. *)
  type vec = { vones : int array; vunks : int array }

  let read vec s = { ones = vec.vones.(s); unks = vec.vunks.(s) }
  let read_lane vec s ~lane = get (read vec s) lane

  let c_packed_words = Telemetry.counter "sim.packed_words"

  let eval view ~free ~state =
    let c = view.Sview.circuit in
    let n = Circuit.num_signals c in
    let vones = Array.make n 0 and vunks = Array.make n (-1) in
    let store s (w : w) =
      vones.(s) <- w.ones;
      vunks.(s) <- w.unks
    in
    let get s = { ones = vones.(s); unks = vunks.(s) } in
    let words = ref 0 in
    Array.iter
      (fun s ->
        if Sview.mem view s then begin
          incr words;
          store s
            (if Sview.is_free view s then free s
             else
               match Circuit.node c s with
               | Circuit.Const b -> splat (of_bool b)
               | Circuit.Reg _ -> state s
               | Circuit.Gate (kind, fanins) -> eval_gate kind get fanins
               | Circuit.Input -> assert false (* inputs are free in views *))
        end)
      c.Circuit.topo;
    Telemetry.add c_packed_words !words;
    { vones; vunks }

  let step view ~free ~state =
    let vec = eval view ~free ~state in
    let next r =
      match Circuit.node view.Sview.circuit r with
      | Circuit.Reg { next; _ } -> read vec next
      | _ -> invalid_arg "Sim3v.Packed.step: not a register"
    in
    (vec, next)

  let run view ~init ~inputs ~cycles =
    let state = ref init in
    let frames =
      Array.make (cycles + 1) { vones = [||]; vunks = [||] }
    in
    for cycle = 0 to cycles do
      let vec, next =
        step view ~free:(fun s -> inputs ~cycle s) ~state:!state
      in
      frames.(cycle) <- vec;
      state := next
    done;
    frames
end

let replay c trace =
  let view = Sview.whole c ~roots:[] in
  let k = Trace.length trace in
  let cube_value cube s ~default =
    match Cube.value cube s with Some b -> of_bool b | None -> default
  in
  (* Deterministic single-pattern replay, run through the packed
     evaluator (lane 0; all lanes carry the same splatted value). The
     scalar evaluator above is kept byte-for-byte as the differential
     oracle for this path — see test_sim3v. *)
  let init r =
    Packed.splat
      (match Circuit.node c r with
      | Circuit.Reg { init = `Zero; _ } -> V0
      | Circuit.Reg { init = `One; _ } -> V1
      | Circuit.Reg { init = `Free; _ } ->
        cube_value (Trace.state trace 0) r ~default:V0
      | _ -> VX)
  in
  let inputs ~cycle s =
    Packed.splat
      (if cycle < k then cube_value (Trace.input trace cycle) s ~default:V0
       else V0)
  in
  Packed.run view ~init ~inputs ~cycles:(k - 1)

let replay_concrete c trace ~bad =
  Array.exists
    (fun vec -> Packed.read_lane vec bad ~lane:0 = V1)
    (replay c trace)
