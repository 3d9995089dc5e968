type t = int

exception Limit_exceeded

module Telemetry = Rfn_obs.Telemetry

(* Process-global engine metrics; incrementing is an unboxed integer
   write, cheap enough for the op hot paths even with telemetry off. *)
let c_alloc = Telemetry.counter "bdd.nodes_allocated"
let c_hit = Telemetry.counter "bdd.cache_hits"
let c_miss = Telemetry.counter "bdd.cache_misses"
let c_gc = Telemetry.counter "bdd.gc_runs"
let g_nodes = Telemetry.gauge "bdd.live_nodes"

type man = {
  mutable nvars : int;
  limit : int;
  mutable var_ : int array;
  mutable low_ : int array;
  mutable high_ : int array;
  mutable n : int;
  mutable free : int list;  (* slots reclaimed by gc, reused by mk *)
  mutable free_n : int;
  protected : (int, int) Hashtbl.t;  (* refcounted gc roots *)
  unique : (int * int * int, int) Hashtbl.t;
  cache : (int * int * int * int, int) Hashtbl.t;
}

(* Terminals. Their [var_] is [max_int] so that every real variable
   sits above them in the order. *)
let f0 = 0
let f1 = 1

let create ?(node_limit = max_int) ~nvars () =
  let cap = 1024 in
  let m =
    {
      nvars;
      limit = node_limit;
      var_ = Array.make cap max_int;
      low_ = Array.make cap 0;
      high_ = Array.make cap 0;
      n = 2;
      free = [];
      free_n = 0;
      protected = Hashtbl.create 256;
      unique = Hashtbl.create 4096;
      cache = Hashtbl.create 4096;
    }
  in
  m.low_.(f1) <- 1;
  m.high_.(f1) <- 1;
  m

let nvars m = m.nvars

let add_vars m k =
  let first = m.nvars in
  m.nvars <- m.nvars + k;
  first

let num_nodes m = m.n - m.free_n
let node_limit m = m.limit

let zero _ = f0
let one _ = f1
let is_zero f = f = f0
let is_one f = f = f1
let is_terminal f = f <= 1

let vr m f = m.var_.(f)

let topvar m f =
  if is_terminal f then invalid_arg "Bdd.topvar: terminal" else m.var_.(f)

let low m f = m.low_.(f)
let high m f = m.high_.(f)
let equal (a : t) (b : t) = a = b

let grow m =
  let cap = Array.length m.var_ in
  if m.n >= cap then begin
    let cap' = 2 * cap in
    let extend a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    m.var_ <- extend m.var_ max_int;
    m.low_ <- extend m.low_ 0;
    m.high_ <- extend m.high_ 0
  end

let mk m v lo hi =
  if lo = hi then lo
  else
    let key = (v, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      if m.n - m.free_n >= m.limit then raise Limit_exceeded;
      let id =
        match m.free with
        | slot :: rest ->
          m.free <- rest;
          m.free_n <- m.free_n - 1;
          slot
        | [] ->
          grow m;
          let id = m.n in
          m.n <- id + 1;
          id
      in
      m.var_.(id) <- v;
      m.low_.(id) <- lo;
      m.high_.(id) <- hi;
      Hashtbl.add m.unique key id;
      Telemetry.incr c_alloc;
      Telemetry.record g_nodes (m.n - m.free_n);
      id

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var: out of range";
  mk m i f0 f1

let nvar m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.nvar: out of range";
  mk m i f1 f0

(* Operation tags for the shared cache. *)
let op_and = 0
let op_not = 1
let op_ite = 2
let op_or = 3
let op_diff = 4

let rec dnot m f =
  if f = f0 then f1
  else if f = f1 then f0
  else
    let key = (op_not, f, 0, 0) in
    match Hashtbl.find_opt m.cache key with
    | Some r ->
      Telemetry.incr c_hit;
      r
    | None ->
      Telemetry.incr c_miss;
      let r = mk m (vr m f) (dnot m (low m f)) (dnot m (high m f)) in
      Hashtbl.add m.cache key r;
      r

let cofactors m v f =
  if is_terminal f || vr m f > v then (f, f) else (low m f, high m f)

let rec dand m a b =
  if a = b then a
  else if a = f0 || b = f0 then f0
  else if a = f1 then b
  else if b = f1 then a
  else
    let x = min a b and y = max a b in
    let key = (op_and, x, y, 0) in
    match Hashtbl.find_opt m.cache key with
    | Some r ->
      Telemetry.incr c_hit;
      r
    | None ->
      Telemetry.incr c_miss;
      let v = min (vr m a) (vr m b) in
      let a0, a1 = cofactors m v a and b0, b1 = cofactors m v b in
      let r = mk m v (dand m a0 b0) (dand m a1 b1) in
      Hashtbl.add m.cache key r;
      r

let rec ite m f g h =
  if f = f1 then g
  else if f = f0 then h
  else if g = h then g
  else if g = f1 && h = f0 then f
  else
    let key = (op_ite, f, g, h) in
    match Hashtbl.find_opt m.cache key with
    | Some r ->
      Telemetry.incr c_hit;
      r
    | None ->
      Telemetry.incr c_miss;
      let v = min (vr m f) (min (vr m g) (vr m h)) in
      let f0c, f1c = cofactors m v f
      and g0, g1 = cofactors m v g
      and h0, h1 = cofactors m v h in
      let r = mk m v (ite m f0c g0 h0) (ite m f1c g1 h1) in
      Hashtbl.add m.cache key r;
      r

let rec dor m a b =
  if a = b then a
  else if a = f1 || b = f1 then f1
  else if a = f0 then b
  else if b = f0 then a
  else
    let x = min a b and y = max a b in
    let key = (op_or, x, y, 0) in
    match Hashtbl.find_opt m.cache key with
    | Some r ->
      Telemetry.incr c_hit;
      r
    | None ->
      Telemetry.incr c_miss;
      let v = min (vr m a) (vr m b) in
      let a0, a1 = cofactors m v a and b0, b1 = cofactors m v b in
      let r = mk m v (dor m a0 b0) (dor m a1 b1) in
      Hashtbl.add m.cache key r;
      r

let rec diff m a b =
  if a = b || a = f0 || b = f1 then f0
  else if b = f0 then a
  else if a = f1 then dnot m b
  else
    let key = (op_diff, a, b, 0) in
    match Hashtbl.find_opt m.cache key with
    | Some r ->
      Telemetry.incr c_hit;
      r
    | None ->
      Telemetry.incr c_miss;
      let v = min (vr m a) (vr m b) in
      let a0, a1 = cofactors m v a and b0, b1 = cofactors m v b in
      let r = mk m v (diff m a0 b0) (diff m a1 b1) in
      Hashtbl.add m.cache key r;
      r

let dxor m a b = ite m a (dnot m b) b

let varset_of m vars =
  let set = Array.make m.nvars false in
  let maxv = ref (-1) in
  List.iter
    (fun v ->
      if v < 0 || v >= m.nvars then invalid_arg "Bdd: variable out of range";
      set.(v) <- true;
      if v > !maxv then maxv := v)
    vars;
  (set, !maxv)

let exists m vars f =
  let set, maxv = varset_of m vars in
  let memo = Hashtbl.create 256 in
  let rec ex f =
    if is_terminal f || vr m f > maxv then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = vr m f in
        let lo = ex (low m f) and hi = ex (high m f) in
        let r = if set.(v) then dor m lo hi else mk m v lo hi in
        Hashtbl.add memo f r;
        r
  in
  ex f

let and_exists m vars a b =
  let set, maxv = varset_of m vars in
  let memo = Hashtbl.create 256 in
  let rec ae a b =
    if a = f0 || b = f0 then f0
    else if is_terminal a && is_terminal b then f1
    else if (is_terminal a || vr m a > maxv) && (is_terminal b || vr m b > maxv)
    then dand m a b
    else
      let x = min a b and y = max a b in
      match Hashtbl.find_opt memo (x, y) with
      | Some r -> r
      | None ->
        let v = min (vr m a) (vr m b) in
        let a0, a1 = cofactors m v a and b0, b1 = cofactors m v b in
        let r =
          if set.(v) then begin
            (* ∃v. (a∧b) = (a0∧b0) ∨ (a1∧b1); short-circuit when the
               first disjunct is already true. *)
            let r0 = ae a0 b0 in
            if r0 = f1 then f1 else dor m r0 (ae a1 b1)
          end
          else mk m v (ae a0 b0) (ae a1 b1)
        in
        Hashtbl.add memo (x, y) r;
        r
  in
  ae a b

let vector_compose m subst f =
  let memo = Hashtbl.create 256 in
  let rec vc f =
    if is_terminal f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = vr m f in
        let lo = vc (low m f) and hi = vc (high m f) in
        let g = match subst v with Some g -> g | None -> var m v in
        let r = ite m g hi lo in
        Hashtbl.add memo f r;
        r
  in
  vc f

let support m f =
  let seen = Hashtbl.create 256 in
  let vars = Hashtbl.create 64 in
  let rec walk f =
    if (not (is_terminal f)) && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      Hashtbl.replace vars (vr m f) ();
      walk (low m f);
      walk (high m f)
    end
  in
  walk f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let rename m map f =
  let sup = support m f in
  let monotone =
    let rec check = function
      | a :: (b :: _ as rest) -> map a < map b && check rest
      | _ -> true
    in
    check sup
  in
  if monotone then begin
    let memo = Hashtbl.create 256 in
    let rec rn f =
      if is_terminal f then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let r = mk m (map (vr m f)) (rn (low m f)) (rn (high m f)) in
          Hashtbl.add memo f r;
          r
    in
    rn f
  end
  else
    let subst =
      let tbl = Hashtbl.create 64 in
      List.iter (fun v -> Hashtbl.replace tbl v (var m (map v))) sup;
      fun v -> Hashtbl.find_opt tbl v
    in
    vector_compose m subst f

let cube m literals =
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) literals in
  List.fold_left
    (fun acc (v, b) -> if b then mk m v f0 acc else mk m v acc f0)
    f1 sorted

let cube_of m f =
  let rec walk f acc =
    if f = f1 then List.rev acc
    else if f = f0 then invalid_arg "Bdd.cube_of: zero"
    else
      let v = vr m f in
      if low m f = f0 then walk (high m f) ((v, true) :: acc)
      else if high m f = f0 then walk (low m f) ((v, false) :: acc)
      else invalid_arg "Bdd.cube_of: not a cube"
  in
  walk f []

let fattest_cube m f =
  if f = f0 then raise Not_found;
  (* Cost of a node: fewest literals on any path to the 1-terminal. *)
  let memo = Hashtbl.create 256 in
  let rec cost f =
    if f = f1 then 0
    else if f = f0 then max_int / 2
    else
      match Hashtbl.find_opt memo f with
      | Some c -> c
      | None ->
        let c = 1 + min (cost (low m f)) (cost (high m f)) in
        Hashtbl.add memo f c;
        c
  in
  let rec walk f acc =
    if f = f1 then List.rev acc
    else
      let v = vr m f in
      if cost (low m f) <= cost (high m f) then
        walk (low m f) ((v, false) :: acc)
      else walk (high m f) ((v, true) :: acc)
  in
  walk f []

let size m f =
  let seen = Hashtbl.create 256 in
  let rec walk f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      if not (is_terminal f) then begin
        walk (low m f);
        walk (high m f)
      end
    end
  in
  walk f;
  Hashtbl.length seen

let density m f =
  let memo = Hashtbl.create 256 in
  let rec dens f =
    if f = f0 then 0.0
    else if f = f1 then 1.0
    else
      match Hashtbl.find_opt memo f with
      | Some d -> d
      | None ->
        let d = 0.5 *. (dens (low m f) +. dens (high m f)) in
        Hashtbl.add memo f d;
        d
  in
  dens f

let count_minterms m ~over f = density m f *. (2.0 ** float_of_int over)

let eval m f assignment =
  let rec walk f =
    if f = f1 then true
    else if f = f0 then false
    else if assignment (vr m f) then walk (high m f)
    else walk (low m f)
  in
  walk f

let rebuild ~src ~dst ~map f =
  let memo = Hashtbl.create 256 in
  let rec rb f =
    if f = f0 then zero dst
    else if f = f1 then one dst
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let lo = rb (low src f) and hi = rb (high src f) in
        let r = ite dst (var dst (map (vr src f))) hi lo in
        Hashtbl.add memo f r;
        r
  in
  rb f

let protect m f =
  if f > 1 then
    Hashtbl.replace m.protected f
      (1 + Option.value ~default:0 (Hashtbl.find_opt m.protected f));
  f

let unprotect m f =
  if f > 1 then
    match Hashtbl.find_opt m.protected f with
    | None -> ()
    | Some n when n <= 1 -> Hashtbl.remove m.protected f
    | Some n -> Hashtbl.replace m.protected f (n - 1)

let protected m = Hashtbl.fold (fun f n acc -> (f, n) :: acc) m.protected []

let gc m ~roots =
  Telemetry.incr c_gc;
  let marked = Bytes.make m.n '\000' in
  Bytes.set marked 0 '\001';
  Bytes.set marked 1 '\001';
  let rec mark f =
    if Bytes.get marked f = '\000' then begin
      Bytes.set marked f '\001';
      mark m.low_.(f);
      mark m.high_.(f)
    end
  in
  List.iter mark roots;
  Hashtbl.iter (fun f _ -> mark f) m.protected;
  (* Sweep: drop dead nodes from the unique table and recycle their
     slots. The operation caches may reference dead nodes, so they are
     cleared wholesale. *)
  let already_free = Bytes.make m.n '\000' in
  List.iter (fun slot -> Bytes.set already_free slot '\001') m.free;
  for id = 2 to m.n - 1 do
    if Bytes.get marked id = '\000' && Bytes.get already_free id = '\000' then begin
      Hashtbl.remove m.unique (m.var_.(id), m.low_.(id), m.high_.(id));
      m.var_.(id) <- max_int;
      m.free <- id :: m.free;
      m.free_n <- m.free_n + 1
    end
  done;
  Hashtbl.reset m.cache;
  Telemetry.record g_nodes (m.n - m.free_n)

let subset_heavy m ~max_size f =
  if max_size < 1 then invalid_arg "Bdd.subset_heavy: max_size < 1";
  (* Keep the denser branch at every node once over budget; the lighter
     branch is dropped outright (this aggressiveness is the point: the
     paper found subsetting "too drastic to produce useful results"). *)
  let rec go f budget =
    if is_terminal f then f
    else if size m f <= budget then f
    else if budget < 3 then f0 (* can't afford any nonterminal node *)
    else
      let v = vr m f and lo = low m f and hi = high m f in
      (* budget - 2 leaves room for this node and the zero terminal *)
      if density m lo >= density m hi then mk m v (go lo (budget - 2)) f0
      else mk m v f0 (go hi (budget - 2))
  in
  go f max_size
