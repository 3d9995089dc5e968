(* A MiniSat-style CDCL solver (Eén & Sörensson, SAT 2003), kept small
   but honest: two-watched-literal propagation, first-UIP learning,
   VSIDS activities with phase saving, Luby restarts, activity-driven
   learned-clause deletion, and incremental solving under assumptions
   (Eén–Mishchenko–Amla's single-instance formulation).

   Clauses live in one flat [int array] arena, each laid out as
   [size; flags; lit_0 .. lit_{size-1}] and named by the index of its
   header (a "clause reference"). Watch lists, the learnt list and the
   per-variable reasons hold these references, so an implication costs
   no allocation. Learned-clause deletion only flags clauses removed;
   the arena is compacted once removed clauses take more than half of
   it. *)

module Telemetry = Rfn_obs.Telemetry
module F = Rfn_failure

let c_conflicts = Telemetry.counter "sat.conflicts"
let c_propagations = Telemetry.counter "sat.propagations"
let c_learned = Telemetry.counter "sat.learned"
let c_restarts = Telemetry.counter "sat.restarts"
let c_solves = Telemetry.counter "sat.solves"
let c_reductions = Telemetry.counter "sat.reduce_db"
let c_compactions = Telemetry.counter "sat.compactions"

(* per-solve conflict burst: the distribution tells bursty guided
   queries apart from a steadily hard instance *)
let h_burst = Telemetry.histogram "sat.conflict_burst"

(* problem + live learned clauses; sampled by the resource sampler at
   phase boundaries *)
let g_clause_db = Telemetry.gauge "sat.clause_db"

type lit = int

let lit v sign = (v lsl 1) lor (if sign then 0 else 1)
let neg l = l lxor 1
let var_of l = l lsr 1
let sign_of l = l land 1 = 0

(* ---- clause arena layout ---------------------------------------------
   arena.(c) = size, arena.(c + 1) = flags, arena.(c + hdr + k) = lit k.
   Flags: bit 0 learnt, bit 1 removed, bits 2.. the learnt clause's slot
   in [learnts]/[acts]. *)

let hdr = 2
let learnt_bit = 1
let removed_bit = 2
let no_reason = -1

type t = {
  (* per-variable state, grown by doubling *)
  mutable assigns : int array;  (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* clause reference, [no_reason] if none *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;
  mutable model : int array;
  (* per literal: clause references watching it, allocated on first
     use ([||] until then), and the live prefix length *)
  mutable watches : int array array;
  mutable wsz : int array;
  mutable heap : int array;  (* max-activity heap of variables *)
  mutable hsz : int;
  mutable hindex : int array;  (* heap position per var, -1 if absent *)
  mutable nvars : int;
  (* trail *)
  mutable trail : int array;
  mutable trail_sz : int;
  mutable trail_lim : int array;
  mutable trail_lim_sz : int;
  mutable qhead : int;
  (* clause DB *)
  mutable arena : int array;
  mutable arena_sz : int;
  mutable wasted : int;  (* arena words held by removed clauses *)
  mutable learnts : int array;  (* live learnt clauses, by slot *)
  mutable acts : float array;  (* their activities, by slot *)
  mutable nlearnts : int;
  mutable nclauses : int;
  mutable max_learnts : float;
  mutable ok : bool;
  (* activities *)
  mutable var_inc : float;
  mutable cla_inc : float;
  (* stats *)
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_decisions : int;
  mutable n_learned : int;
  mutable n_restarts : int;
  (* DRAT-style learnt log (tests only) *)
  log_learnts : bool;
  mutable learnt_log : int array list;
}

type limits = { max_conflicts : int; max_seconds : float option }

let no_limits = { max_conflicts = max_int; max_seconds = None }

type result = Sat | Unsat | Unknown of F.resource

type stats = {
  conflicts : int;
  propagations : int;
  decisions : int;
  learned : int;
  restarts : int;
  max_vars : int;
}

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

let create ?(log_learnts = false) () =
  {
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 no_reason;
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    model = Array.make 16 (-1);
    watches = Array.make 32 [||];
    wsz = Array.make 32 0;
    heap = Array.make 16 0;
    hsz = 0;
    hindex = Array.make 16 (-1);
    nvars = 0;
    trail = Array.make 16 0;
    trail_sz = 0;
    trail_lim = Array.make 16 0;
    trail_lim_sz = 0;
    qhead = 0;
    arena = Array.make 1024 0;
    arena_sz = 0;
    wasted = 0;
    learnts = Array.make 16 0;
    acts = Array.make 16 0.0;
    nlearnts = 0;
    nclauses = 0;
    max_learnts = 2000.0;
    ok = true;
    var_inc = 1.0;
    cla_inc = 1.0;
    n_conflicts = 0;
    n_propagations = 0;
    n_decisions = 0;
    n_learned = 0;
    n_restarts = 0;
    log_learnts;
    learnt_log = [];
  }

let nvars t = t.nvars

(* ---- heap (max-activity order) --------------------------------------- *)

let heap_lt t a b = t.activity.(a) > t.activity.(b)

let percolate_up t i0 =
  let x = t.heap.(i0) in
  let i = ref i0 in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    heap_lt t x t.heap.(p)
  do
    let p = (!i - 1) / 2 in
    t.heap.(!i) <- t.heap.(p);
    t.hindex.(t.heap.(p)) <- !i;
    i := p
  done;
  t.heap.(!i) <- x;
  t.hindex.(x) <- !i

let percolate_down t i0 =
  let x = t.heap.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue && (2 * !i) + 1 < t.hsz do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < t.hsz && heap_lt t t.heap.(l + 1) t.heap.(l) then l + 1
      else l
    in
    if heap_lt t t.heap.(c) x then begin
      t.heap.(!i) <- t.heap.(c);
      t.hindex.(t.heap.(!i)) <- !i;
      i := c
    end
    else continue := false
  done;
  t.heap.(!i) <- x;
  t.hindex.(x) <- !i

let heap_insert t v =
  if t.hindex.(v) < 0 then begin
    t.heap.(t.hsz) <- v;
    t.hindex.(v) <- t.hsz;
    t.hsz <- t.hsz + 1;
    percolate_up t (t.hsz - 1)
  end

let heap_pop t =
  let x = t.heap.(0) in
  t.hindex.(x) <- -1;
  t.hsz <- t.hsz - 1;
  if t.hsz > 0 then begin
    t.heap.(0) <- t.heap.(t.hsz);
    t.hindex.(t.heap.(0)) <- 0;
    percolate_down t 0
  end;
  x

(* ---- variables -------------------------------------------------------- *)

let grow a ncap fill =
  let a' = Array.make ncap fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_var_arrays t =
  let cap = Array.length t.assigns in
  if t.nvars = cap then begin
    let ncap = 2 * cap in
    t.assigns <- grow t.assigns ncap (-1);
    t.level <- grow t.level ncap 0;
    t.reason <- grow t.reason ncap no_reason;
    t.activity <- grow t.activity ncap 0.0;
    t.polarity <- grow t.polarity ncap false;
    t.seen <- grow t.seen ncap false;
    t.model <- grow t.model ncap (-1);
    t.heap <- grow t.heap ncap 0;
    t.hindex <- grow t.hindex ncap (-1);
    t.trail <- grow t.trail ncap 0;
    t.trail_lim <- grow t.trail_lim ncap 0;
    t.watches <- grow t.watches (2 * ncap) [||];
    t.wsz <- grow t.wsz (2 * ncap) 0
  end

let new_var t =
  grow_var_arrays t;
  let v = t.nvars in
  t.nvars <- v + 1;
  heap_insert t v;
  v

let check_var t l =
  if var_of l >= t.nvars then
    invalid_arg
      (Printf.sprintf "Rfn_sat.Solver: literal %d names unallocated variable %d"
         l (var_of l))

(* ---- assignment ------------------------------------------------------- *)

(* 1 = true, 0 = false, -1 = unassigned *)
let lit_value t l =
  let a = t.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = t.trail_lim_sz

let enqueue t l reason =
  t.assigns.(l lsr 1) <- 1 - (l land 1);
  t.level.(l lsr 1) <- decision_level t;
  t.reason.(l lsr 1) <- reason;
  t.trail.(t.trail_sz) <- l;
  t.trail_sz <- t.trail_sz + 1

let new_decision_level t =
  t.trail_lim.(t.trail_lim_sz) <- t.trail_sz;
  t.trail_lim_sz <- t.trail_lim_sz + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    for c = t.trail_sz - 1 downto t.trail_lim.(lvl) do
      let l = t.trail.(c) in
      let v = l lsr 1 in
      t.polarity.(v) <- t.assigns.(v) = 1;
      t.assigns.(v) <- -1;
      t.reason.(v) <- no_reason;
      heap_insert t v
    done;
    t.trail_sz <- t.trail_lim.(lvl);
    t.qhead <- t.trail_sz;
    t.trail_lim_sz <- lvl
  end

(* ---- activities ------------------------------------------------------- *)

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.hindex.(v) >= 0 then percolate_up t t.hindex.(v)

let cla_bump t c =
  let s = t.arena.(c + 1) lsr 2 in
  t.acts.(s) <- t.acts.(s) +. t.cla_inc;
  if t.acts.(s) > 1e20 then begin
    for i = 0 to t.nlearnts - 1 do
      t.acts.(i) <- t.acts.(i) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

(* ---- clauses ---------------------------------------------------------- *)

(* Append a clause to the arena; returns its reference. *)
let alloc t lits flags =
  let n = Array.length lits in
  let top = t.arena_sz + hdr + n in
  if top > Array.length t.arena then
    t.arena <- grow t.arena (max top (Array.length t.arena * 3 / 2)) 0;
  let c = t.arena_sz in
  t.arena.(c) <- n;
  t.arena.(c + 1) <- flags;
  Array.blit lits 0 t.arena (c + hdr) n;
  t.arena_sz <- top;
  c

let watch t l c =
  let n = t.wsz.(l) in
  if n = Array.length t.watches.(l) then
    t.watches.(l) <- grow t.watches.(l) (max 4 (2 * n)) 0;
  t.watches.(l).(n) <- c;
  t.wsz.(l) <- n + 1

let attach t c =
  watch t (neg t.arena.(c + hdr)) c;
  watch t (neg t.arena.(c + hdr + 1)) c

let add_clause t lits =
  List.iter (check_var t) lits;
  if t.ok then begin
    assert (decision_level t = 0);
    (* simplify against the top-level assignment *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (neg l) lits) lits
      || List.exists (fun l -> lit_value t l = 1) lits
    in
    if not tautology then begin
      match List.filter (fun l -> lit_value t l <> 0) lits with
      | [] -> t.ok <- false
      | [ l ] -> enqueue t l no_reason
      | lits ->
        t.nclauses <- t.nclauses + 1;
        attach t (alloc t (Array.of_list lits) 0)
    end
  end

let iter_clauses t f =
  let a = t.arena in
  let c = ref 0 in
  while !c < t.arena_sz do
    let n = a.(!c) in
    if a.(!c + 1) land removed_bit = 0 then f (Array.sub a (!c + hdr) n);
    c := !c + hdr + n
  done

(* ---- propagation ------------------------------------------------------ *)

let propagate t =
  let confl = ref no_reason in
  let a = t.arena in
  while !confl < 0 && t.qhead < t.trail_sz do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let np = neg p in
    (* new watches never land on [p]'s own list (their literal is not
       false), so [ws] stays this list's storage throughout *)
    let ws = t.watches.(p) in
    let n = t.wsz.(p) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      if a.(c + 1) land removed_bit = 0 then begin
        let w0 = c + hdr in
        (* put the falsified watch at position 1 *)
        if a.(w0) = np then begin
          a.(w0) <- a.(w0 + 1);
          a.(w0 + 1) <- np
        end;
        if lit_value t a.(w0) = 1 then begin
          (* satisfied by the other watch; keep watching *)
          ws.(!j) <- c;
          incr j
        end
        else begin
          let stop = w0 + a.(c) in
          let k = ref (w0 + 2) in
          while !k < stop && lit_value t a.(!k) = 0 do
            incr k
          done;
          if !k < stop then begin
            (* found a replacement watch *)
            a.(w0 + 1) <- a.(!k);
            a.(!k) <- np;
            watch t (neg a.(w0 + 1)) c
          end
          else begin
            (* unit or conflicting *)
            ws.(!j) <- c;
            incr j;
            if lit_value t a.(w0) = 0 then begin
              (* conflict: keep the remaining watchers and stop *)
              while !i < n do
                ws.(!j) <- ws.(!i);
                incr j;
                incr i
              done;
              t.qhead <- t.trail_sz;
              confl := c
            end
            else enqueue t a.(w0) c
          end
        end
      end
    done;
    t.wsz.(p) <- !j
  done;
  !confl

(* ---- conflict analysis (first UIP) ------------------------------------ *)

let analyze t confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_sz - 1) in
  let confl = ref confl in
  let stop = ref false in
  while not !stop do
    let c = !confl in
    assert (c >= 0);
    let a = t.arena in
    if a.(c + 1) land learnt_bit <> 0 then cla_bump t c;
    for k = c + hdr + (if !p < 0 then 0 else 1) to c + hdr + a.(c) - 1 do
      let q = a.(k) in
      let v = q lsr 1 in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- true;
        if t.level.(v) >= decision_level t then incr path
        else learnt := q :: !learnt
      end
    done;
    while not t.seen.(t.trail.(!index) lsr 1) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    confl := t.reason.(!p lsr 1);
    t.seen.(!p lsr 1) <- false;
    decr path;
    if !path <= 0 then stop := true
  done;
  let learnt = Array.of_list (neg !p :: !learnt) in
  Array.iter (fun q -> t.seen.(q lsr 1) <- false) learnt;
  (* backtrack level: highest level below the asserting literal's *)
  let blevel = ref 0 in
  for k = 1 to Array.length learnt - 1 do
    let lv = t.level.(learnt.(k) lsr 1) in
    if lv > !blevel then begin
      blevel := lv;
      let tmp = learnt.(1) in
      learnt.(1) <- learnt.(k);
      learnt.(k) <- tmp
    end
  done;
  (learnt, !blevel)

let record_learnt t learnt =
  t.n_learned <- t.n_learned + 1;
  if t.log_learnts then t.learnt_log <- Array.copy learnt :: t.learnt_log;
  if Array.length learnt = 1 then begin
    cancel_until t 0;
    if lit_value t learnt.(0) = -1 then enqueue t learnt.(0) no_reason
    else if lit_value t learnt.(0) = 0 then t.ok <- false
  end
  else begin
    let s = t.nlearnts in
    if s = Array.length t.learnts then begin
      t.learnts <- grow t.learnts (2 * s) 0;
      t.acts <- grow t.acts (2 * s) 0.0
    end;
    let c = alloc t learnt ((s lsl 2) lor learnt_bit) in
    t.learnts.(s) <- c;
    t.acts.(s) <- 0.0;
    t.nlearnts <- s + 1;
    cla_bump t c;
    attach t c;
    enqueue t learnt.(0) c
  end

(* ---- learned-clause DB reduction -------------------------------------- *)

(* A clause is locked while it is the reason of its first literal. *)
let is_reason t c =
  let v = t.arena.(c + hdr) lsr 1 in
  t.assigns.(v) >= 0 && t.reason.(v) = c

(* Copy the live clauses into a fresh arena and redirect every
   reference: watch lists (dropping removed clauses), the reasons of
   assigned variables (never removed: [reduce_db] keeps reasons) and
   the learnt slots. The old arena's flags word carries each clause's
   new reference while redirecting, -1 for removed ones. *)
let compact t =
  let old = t.arena in
  let live = t.arena_sz - t.wasted in
  let a = Array.make (max 1024 (live + (live / 2))) 0 in
  let c = ref 0 and top = ref 0 in
  while !c < t.arena_sz do
    let n = old.(!c) in
    if old.(!c + 1) land removed_bit = 0 then begin
      Array.blit old !c a !top (hdr + n);
      old.(!c + 1) <- !top;
      top := !top + hdr + n
    end
    else old.(!c + 1) <- -1;
    c := !c + hdr + n
  done;
  let moved c = old.(c + 1) in
  for l = 0 to (2 * t.nvars) - 1 do
    let ws = t.watches.(l) in
    let j = ref 0 in
    for i = 0 to t.wsz.(l) - 1 do
      let c = moved ws.(i) in
      if c >= 0 then begin
        ws.(!j) <- c;
        incr j
      end
    done;
    t.wsz.(l) <- !j
  done;
  for i = 0 to t.trail_sz - 1 do
    let v = t.trail.(i) lsr 1 in
    if t.reason.(v) >= 0 then t.reason.(v) <- moved t.reason.(v)
  done;
  for s = 0 to t.nlearnts - 1 do
    t.learnts.(s) <- moved t.learnts.(s)
  done;
  t.arena <- a;
  t.arena_sz <- !top;
  t.wasted <- 0;
  Telemetry.incr c_compactions

(* Drop the less active half of the learnt clauses (binary and locked
   ones are kept); the survivors take slots 0.. in activity order. *)
let reduce_db t =
  let a = t.arena in
  let n = t.nlearnts in
  let order = Array.init n (fun s -> s) in
  Array.sort (fun x y -> Float.compare t.acts.(x) t.acts.(y)) order;
  let learnts = Array.make (Array.length t.learnts) 0 in
  let acts = Array.make (Array.length t.acts) 0.0 in
  let kept = ref 0 in
  Array.iteri
    (fun i s ->
      let c = t.learnts.(s) in
      if i >= n / 2 || a.(c) <= 2 || is_reason t c then begin
        learnts.(!kept) <- c;
        acts.(!kept) <- t.acts.(s);
        a.(c + 1) <- (!kept lsl 2) lor learnt_bit;
        incr kept
      end
      else begin
        a.(c + 1) <- a.(c + 1) lor removed_bit;
        t.wasted <- t.wasted + hdr + a.(c)
      end)
    order;
  t.learnts <- learnts;
  t.acts <- acts;
  t.nlearnts <- !kept;
  Telemetry.incr c_reductions;
  if 2 * t.wasted > t.arena_sz then compact t

(* ---- Luby restart sequence -------------------------------------------- *)

let luby i =
  (* the i-th term (1-based) of 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* ---- search ----------------------------------------------------------- *)

let solve ?(limits = no_limits) ?(assumptions = []) t =
  List.iter (check_var t) assumptions;
  Telemetry.incr c_solves;
  let started = Telemetry.now () in
  let c0 = t.n_conflicts
  and p0 = t.n_propagations
  and l0 = t.n_learned
  and r0 = t.n_restarts in
  let finish result =
    cancel_until t 0;
    Telemetry.add c_conflicts (t.n_conflicts - c0);
    Telemetry.add c_propagations (t.n_propagations - p0);
    Telemetry.add c_learned (t.n_learned - l0);
    Telemetry.add c_restarts (t.n_restarts - r0);
    Telemetry.observe h_burst (float_of_int (t.n_conflicts - c0));
    Telemetry.record g_clause_db (t.nclauses + t.nlearnts);
    result
  in
  if not t.ok then finish Unsat
  else begin
    let assumptions = Array.of_list assumptions in
    let out_of_time () =
      match limits.max_seconds with
      | None -> false
      | Some s -> Telemetry.now () -. started >= s
    in
    let conflict_c = ref 0 in
    let restart_limit = ref (100 * luby 0) in
    let result = ref None in
    while !result = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.n_conflicts <- t.n_conflicts + 1;
        incr conflict_c;
        if decision_level t = 0 then begin
          t.ok <- false;
          result := Some Unsat
        end
        else begin
          let learnt, blevel = analyze t confl in
          cancel_until t blevel;
          record_learnt t learnt;
          t.var_inc <- t.var_inc *. var_decay;
          t.cla_inc <- t.cla_inc *. cla_decay;
          if t.n_conflicts - c0 >= limits.max_conflicts then
            result := Some (Unknown F.Conflicts)
          else if !conflict_c land 127 = 0 && out_of_time () then
            result := Some (Unknown F.Time)
        end
      end
      else if !conflict_c >= !restart_limit then begin
        t.n_restarts <- t.n_restarts + 1;
        conflict_c := 0;
        restart_limit := 100 * luby (t.n_restarts - r0);
        cancel_until t 0
      end
      else if
        float (t.nlearnts - (t.trail_sz - t.qhead)) >= t.max_learnts
      then begin
        reduce_db t;
        t.max_learnts <- t.max_learnts *. 1.1
      end
      else if decision_level t < Array.length assumptions then begin
        (* place the next assumption as a decision *)
        let p = assumptions.(decision_level t) in
        match lit_value t p with
        | 1 -> new_decision_level t (* already holds: dummy level *)
        | 0 -> result := Some Unsat
        | _ ->
          new_decision_level t;
          enqueue t p no_reason
      end
      else begin
        t.n_decisions <- t.n_decisions + 1;
        if t.n_decisions land 255 = 0 && out_of_time () then
          result := Some (Unknown F.Time)
        else begin
          (* VSIDS decision with saved phase *)
          let v = ref (-1) in
          while !v < 0 && t.hsz > 0 do
            let x = heap_pop t in
            if t.assigns.(x) < 0 then v := x
          done;
          if !v < 0 then begin
            (* full model *)
            Array.blit t.assigns 0 t.model 0 t.nvars;
            result := Some Sat
          end
          else begin
            new_decision_level t;
            enqueue t (lit !v t.polarity.(!v)) no_reason
          end
        end
      end
    done;
    finish (match !result with Some r -> r | None -> assert false)
  end

let value t v = t.model.(v) = 1
let value_lit t l = t.model.(l lsr 1) lxor (l land 1) = 1

let stats t =
  {
    conflicts = t.n_conflicts;
    propagations = t.n_propagations;
    decisions = t.n_decisions;
    learned = t.n_learned;
    restarts = t.n_restarts;
    max_vars = t.nvars;
  }

let learnt_clauses t =
  List.rev_map Array.to_list t.learnt_log
