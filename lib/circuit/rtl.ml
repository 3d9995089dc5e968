module B = Circuit.Builder

type word = int array

let width = Array.length

let input b name w =
  Array.init w (fun i -> B.input b (Printf.sprintf "%s_%d" name i))

let regs b ?(init = 0) name w =
  Array.init w (fun i ->
      let bit = if init land (1 lsl i) <> 0 then `One else `Zero in
      B.reg b ~init:bit (Printf.sprintf "%s_%d" name i))

let connect b r d =
  if width r <> width d then invalid_arg "Rtl.connect: width mismatch";
  Array.iteri (fun i ri -> B.connect b ri d.(i)) r

let const b ~width:w v =
  Array.init w (fun i -> B.const b (v land (1 lsl i) <> 0))

let map2 name f a bword =
  if width a <> width bword then
    invalid_arg (Printf.sprintf "Rtl.%s: width mismatch" name);
  Array.init (width a) (fun i -> f a.(i) bword.(i))

let not_ b a = Array.map (B.not_ b) a
let xor_ b a c = map2 "xor_" (B.xor2 b) a c
let mux b sel d0 d1 = map2 "mux" (fun x y -> B.mux b sel x y) d0 d1

let add b ?cin a c =
  if width a <> width c then invalid_arg "Rtl.add: width mismatch";
  let carry = ref (match cin with Some s -> s | None -> B.const b false) in
  Array.init (width a) (fun i ->
      let x = a.(i) and y = c.(i) and ci = !carry in
      let s = B.xor2 b (B.xor2 b x y) ci in
      carry := B.or2 b (B.and2 b x y) (B.and2 b ci (B.or2 b x y));
      s)

let sub b a c =
  (* a - c = a + ~c + 1 *)
  add b ~cin:(B.const b true) a (not_ b c)

let incr b a = add b ~cin:(B.const b true) a (const b ~width:(width a) 0)
let decr b a = sub b a (const b ~width:(width a) 1)

let eq b a c =
  B.and_l b (Array.to_list (map2 "eq" (B.eq2 b) a c))

let eq_const b a k = eq b a (const b ~width:(width a) k)

let lt b a c =
  if width a <> width c then invalid_arg "Rtl.lt: width mismatch";
  (* From LSB to MSB: lt_i = (~a_i & c_i) | ((a_i == c_i) & lt_{i-1}) *)
  let lt_acc = ref (B.const b false) in
  for i = 0 to width a - 1 do
    let less_here = B.and2 b (B.not_ b a.(i)) c.(i) in
    let same = B.eq2 b a.(i) c.(i) in
    lt_acc := B.or2 b less_here (B.and2 b same !lt_acc)
  done;
  !lt_acc

let ge_const b a k = B.not_ b (lt b a (const b ~width:(width a) k))
let is_zero b a = B.not_ b (B.or_l b (Array.to_list a))
let any b a = B.or_l b (Array.to_list a)
let all b a = B.and_l b (Array.to_list a)

let counter b ?(init = 0) ?clear ~name ~width:w ~enable () =
  let q = regs b ~init name w in
  let bumped = mux b enable q (incr b q) in
  let next =
    match clear with
    | None -> bumped
    | Some clr -> mux b clr bumped (const b ~width:w 0)
  in
  connect b q next;
  q

let shift_reg b ~name ~length ~din ~enable () =
  let q =
    Array.init length (fun i -> B.reg b (Printf.sprintf "%s_%d" name i))
  in
  for i = 0 to length - 1 do
    let shifted_in = if i = 0 then din else q.(i - 1) in
    B.connect b q.(i) (B.mux b enable q.(i) shifted_in)
  done;
  q
