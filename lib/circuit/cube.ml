type t = (int * bool) list

let empty = []

let of_list l =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec dedup = function
    | (s1, v1) :: ((s2, v2) :: _ as rest) when s1 = s2 ->
      if v1 = v2 then dedup rest
      else
        invalid_arg
          (Printf.sprintf "Cube.of_list: contradictory literals on signal %d"
             s1)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  dedup sorted

let to_list t = t
let is_empty t = t = []
let size = List.length

let value t s =
  match List.assoc_opt s t with Some v -> Some v | None -> None

let assign t s v =
  let rec ins = function
    | [] -> [ (s, v) ]
    | (s', v') :: rest when s' = s ->
      if v' = v then (s', v') :: rest
      else
        invalid_arg
          (Printf.sprintf "Cube.assign: contradictory literal on signal %d" s)
    | ((s', _) as hd) :: rest when s' < s -> hd :: ins rest
    | rest -> (s, v) :: rest
  in
  ins t

let meet a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> Some (List.rev_append acc rest)
    | ((sa, va) as ha) :: ta, ((sb, vb) as hb) :: tb ->
      if sa < sb then go ta b (ha :: acc)
      else if sb < sa then go a tb (hb :: acc)
      else if va = vb then go ta tb (ha :: acc)
      else None
  in
  go a b []

let conflicts a b = meet a b = None
let signals t = List.map fst t
let restrict t ~keep = List.filter (fun (s, _) -> keep s) t
let pp ~names ppf t =
  Format.fprintf ppf "@[<hov 1>{";
  List.iteri
    (fun i (s, v) ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%s=%d" (names s) (if v then 1 else 0))
    t;
  Format.fprintf ppf "}@]"
