type t = { mutable card : int; bits : Bytes.t; len : int }

let create len =
  { card = 0; bits = Bytes.make ((len + 7) / 8) '\000'; len }

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.len)

let mem t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if byte land bit = 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte lor bit));
    t.card <- t.card + 1
  end

let remove t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if byte land bit <> 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte land lnot bit));
    t.card <- t.card - 1
  end

let copy t = { t with bits = Bytes.copy t.bits }

let cardinal t = t.card

let iter f t =
  for b = 0 to Bytes.length t.bits - 1 do
    let byte = Char.code (Bytes.get t.bits b) in
    if byte <> 0 then
      for j = 0 to 7 do
        if byte land (1 lsl j) <> 0 then f ((b lsl 3) + j)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list len l =
  let t = create len in
  List.iter (add t) l;
  t

let union_into dst src = iter (add dst) src

let equal a b = a.len = b.len && Bytes.equal a.bits b.bits
