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

(* n-ary AND over ternary values: 0 dominates, X taints. *)
let and3 value fanins =
  let rec go i acc =
    if i >= Array.length fanins then acc
    else
      match value fanins.(i) with
      | V0 -> V0
      | VX -> go (i + 1) VX
      | V1 -> go (i + 1) acc
  in
  go 0 V1

let or3 value fanins =
  let rec go i acc =
    if i >= Array.length fanins then acc
    else
      match value fanins.(i) with
      | V1 -> V1
      | VX -> go (i + 1) VX
      | V0 -> go (i + 1) acc
  in
  go 0 V0

let xor3 value fanins =
  let rec go i acc =
    if i >= Array.length fanins then acc
    else
      match (value fanins.(i), acc) with
      | VX, _ | _, VX -> VX
      | V1, a -> go (i + 1) (tnot a)
      | V0, a -> go (i + 1) a
  in
  go 0 V0

let eval3 kind value fanins =
  match kind with
  | Not -> tnot (value fanins.(0))
  | Buf -> value fanins.(0)
  | And -> and3 value fanins
  | Nand -> tnot (and3 value fanins)
  | Or -> or3 value fanins
  | Nor -> tnot (or3 value fanins)
  | Xor -> xor3 value fanins
  | Xnor -> tnot (xor3 value fanins)
  | Mux -> (
    let d0 = value fanins.(1) and d1 = value fanins.(2) in
    match value fanins.(0) with
    | V0 -> d0
    | V1 -> d1
    | VX -> if d0 = d1 && d0 <> VX then d0 else VX)

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
