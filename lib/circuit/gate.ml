type kind = And | Or | Nand | Nor | Xor | Xnor | Not | Buf | Mux

let arity_ok kind n =
  match kind with
  | Not | Buf -> n = 1
  | Mux -> n = 3
  | And | Or | Nand | Nor | Xor | Xnor -> n >= 1

let eval kind value fanins =
  match kind with
  | Not -> not (value fanins.(0))
  | Buf -> value fanins.(0)
  | Mux -> if value fanins.(0) then value fanins.(2) else value fanins.(1)
  | And | Nand ->
    let v = Array.for_all (fun s -> value s) fanins in
    if kind = And then v else not v
  | Or | Nor ->
    let v = Array.exists (fun s -> value s) fanins in
    if kind = Or then v else not v
  | Xor | Xnor ->
    let parity = Array.fold_left (fun p s -> p <> value s) false fanins in
    if kind = Xor then parity else not parity

type ternary = V0 | V1 | VX

let tnot = function V0 -> V1 | V1 -> V0 | VX -> VX

(* n-ary AND over the ternary values of [fanins.(pos .. stop - 1)]:
   0 dominates, X taints. Loops rather than local recursive functions,
   so an evaluation allocates nothing. *)
let and3 value fanins pos stop =
  let acc = ref V1 and i = ref pos in
  while !i < stop do
    (match value fanins.(!i) with
    | V0 ->
      acc := V0;
      i := stop
    | VX -> acc := VX
    | V1 -> ());
    incr i
  done;
  !acc

let or3 value fanins pos stop =
  let acc = ref V0 and i = ref pos in
  while !i < stop do
    (match value fanins.(!i) with
    | V1 ->
      acc := V1;
      i := stop
    | VX -> acc := VX
    | V0 -> ());
    incr i
  done;
  !acc

let xor3 value fanins pos stop =
  let acc = ref V0 and i = ref pos in
  while !i < stop do
    (match value fanins.(!i) with
    | VX ->
      acc := VX;
      i := stop
    | V1 -> acc := tnot !acc
    | V0 -> ());
    incr i
  done;
  !acc

let eval3_slice kind value fanins ~pos ~len =
  let stop = pos + len in
  match kind with
  | Not -> tnot (value fanins.(pos))
  | Buf -> value fanins.(pos)
  | And -> and3 value fanins pos stop
  | Nand -> tnot (and3 value fanins pos stop)
  | Or -> or3 value fanins pos stop
  | Nor -> tnot (or3 value fanins pos stop)
  | Xor -> xor3 value fanins pos stop
  | Xnor -> tnot (xor3 value fanins pos stop)
  | Mux -> (
    let d0 = value fanins.(pos + 1) and d1 = value fanins.(pos + 2) in
    match value fanins.(pos) with
    | V0 -> d0
    | V1 -> d1
    | VX -> if d0 = d1 && d0 <> VX then d0 else VX)

let eval3 kind value fanins =
  eval3_slice kind value fanins ~pos:0 ~len:(Array.length fanins)

let to_string = function
  | And -> "AND"
  | Or -> "OR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUF"
  | Mux -> "MUX"

let of_string s =
  match String.uppercase_ascii s with
  | "AND" -> Some And
  | "OR" -> Some Or
  | "NAND" -> Some Nand
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "NOT" | "INV" -> Some Not
  | "BUF" | "BUFF" -> Some Buf
  | "MUX" -> Some Mux
  | _ -> None
