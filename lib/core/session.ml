open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Reorder = Rfn_bdd.Reorder
module Varmap = Rfn_mc.Varmap
module Symbolic = Rfn_mc.Symbolic
module Image = Rfn_mc.Image
module Telemetry = Rfn_obs.Telemetry

let src = Logs.Src.create "session" ~doc:"RFN verification session"

module Log = (val Logs.src_log src : Logs.LOG)

let c_cones_reused = Telemetry.counter "session.cones_reused"
let c_cones_recompiled = Telemetry.counter "session.cones_recompiled"
let c_clusters_reused = Telemetry.counter "session.clusters_reused"
let c_clusters_rebuilt = Telemetry.counter "session.clusters_rebuilt"
let c_grow_in_place = Telemetry.counter "session.grow_in_place"
let c_grow_sifted = Telemetry.counter "session.grow_sifted"
let c_grow_rebuilds = Telemetry.counter "session.grow_rebuilds"
let c_resets = Telemetry.counter "session.resets"
let c_retargets = Telemetry.counter "session.retargets"
let c_retargets_warm = Telemetry.counter "session.retargets_warm"
let g_nodes_carried = Telemetry.gauge "session.nodes_carried"

type policy = {
  reuse : bool;
  grow_blowup : float;
  min_nodes : int;
  sift_passes : int;
}

let default_policy =
  { reuse = true; grow_blowup = 8.0; min_nodes = 100_000; sift_passes = 1 }

type prepared = {
  vm : Varmap.t;
  fn : int -> Bdd.t;
  img : Image.t;
}

type t = {
  policy : policy;
  mutable node_limit : int;
  mutable abstraction : Abstraction.t;
  mutable vm : Varmap.t option;
  mutable seed : Varmap.t option;
      (* order seed for the next from-scratch varmap, kept across a
         non-fresh-order reset *)
  mutable memo : (int, Bdd.t) Hashtbl.t;
  cache : Image.cache;
  mutable prepared : prepared option;
  mutable grew : bool;  (* an in-place grow since the last prepare *)
  mutable baseline_nodes : int;
      (* node count after the last accepted prepare — what the
         grow-blowup threshold is relative to *)
  mutable analysis : Rfn_analysis.Analysis.t option;
      (* concrete-design invariants, computed once per session and
         reused across properties (they are facts about the circuit,
         not about any abstraction) *)
}

let create ?(node_limit = max_int) ?(policy = default_policy) circuit ~roots =
  {
    policy;
    node_limit;
    abstraction = Abstraction.initial circuit ~roots;
    vm = None;
    seed = None;
    memo = Hashtbl.create 997;
    cache = Image.cache ();
    prepared = None;
    grew = false;
    baseline_nodes = 0;
    analysis = None;
  }

let abstraction t = t.abstraction
let analysis t = t.analysis
let set_analysis t a = t.analysis <- Some a
let circuit t = t.abstraction.Abstraction.circuit
let policy t = t.policy
let varmap t = t.vm
let cone_signals t = Hashtbl.fold (fun s _ acc -> s :: acc) t.memo []
let cache t = t.cache

(* Drop every per-manager structure. The old manager (if any) is
   released wholesale, so nothing needs unprotecting. *)
let forget_manager t =
  t.vm <- None;
  t.memo <- Hashtbl.create 997;
  Image.clear_cache t.cache;
  t.prepared <- None;
  t.grew <- false;
  t.baseline_nodes <- 0

let reset ?(fresh_order = false) ?node_limit t =
  Telemetry.incr c_resets;
  (* a reset is a resource cliff (the manager is dropped wholesale) —
     snapshot memory and engine gauges on both sides of it *)
  Rfn_obs.Sampler.tick "session.reset";
  (match node_limit with Some l -> t.node_limit <- l | None -> ());
  t.seed <- (if fresh_order then None else t.vm);
  forget_manager t

(* Point the session at a different property of the same circuit. With
   reuse on and a live manager, the varmap is rebased to the new
   property's initial view (every carried value-now variable is
   preserved, so the memoized cones of signals the views share stay
   valid verbatim); memo entries for signals outside the new view are
   dropped — the cone-cache invariant demands exact coverage — and the
   cluster cache is rebuilt from scratch (a retarget rarely preserves
   an entry prefix, and stale clusters would pin dead nodes). In
   reference mode the session forgets everything including the order
   seed, so a retargeted run is bit-identical to a cold one. *)
let retarget t ~roots =
  Telemetry.incr c_retargets;
  let abstraction = Abstraction.initial (circuit t) ~roots in
  t.abstraction <- abstraction;
  match t.vm with
  | None -> t.prepared <- None
  | Some vm when t.policy.reuse ->
    Telemetry.incr c_retargets_warm;
    let view = abstraction.Abstraction.view in
    let vm = Varmap.rebase vm ~view in
    t.vm <- Some vm;
    let man = Varmap.man vm in
    let stale =
      Hashtbl.fold
        (fun s f acc -> if Sview.mem view s then acc else (s, f) :: acc)
        t.memo []
    in
    List.iter
      (fun (s, f) ->
        Bdd.unprotect man f;
        Hashtbl.remove t.memo s)
      stale;
    Array.iter (Bdd.unprotect man) t.cache.Image.clusters;
    Image.clear_cache t.cache;
    (* the next prepare collects the previous property's garbage (the
       protected carried cones survive) and applies the blow-up policy *)
    t.grew <- true;
    t.prepared <- None
  | Some _ ->
    t.seed <- None;
    forget_manager t

let refine t ~add =
  let abstraction, delta = Abstraction.refine_delta t.abstraction ~add in
  t.abstraction <- abstraction;
  let view = abstraction.Abstraction.view in
  (match t.vm with
  | None -> () (* next prepare builds from scratch anyway *)
  | Some vm when t.policy.reuse ->
    t.vm <- Some (Varmap.grow vm ~view delta);
    t.grew <- true
  | Some vm ->
    (* From-scratch reference mode: a fresh manager, but the replica
       keeps the exact variable assignment, so growth allocates the
       same indices the in-place path would — behaviour stays
       bit-identical while nothing is reused. *)
    t.vm <- Some (Varmap.grow (Varmap.replica vm) ~view delta);
    t.memo <- Hashtbl.create 997;
    Image.clear_cache t.cache);
  t.prepared <- None;
  delta

(* Compile the missing cones and (re)cluster the relation over the
   current manager; returns the prepared triple. *)
let compile t vm =
  let view = t.abstraction.Abstraction.view in
  let compiled = Symbolic.compile_view vm view ~memo:t.memo in
  let in_view = Bitset.cardinal view.Sview.inside in
  Telemetry.add c_cones_recompiled compiled;
  Telemetry.add c_cones_reused (in_view - compiled);
  let fn s =
    match Hashtbl.find_opt t.memo s with
    | Some f -> f
    | None -> invalid_arg "Session: signal outside the view"
  in
  let img, stats = Image.build ~fn ~cache:t.cache vm in
  Telemetry.add c_clusters_reused stats.Image.clusters_reused;
  Telemetry.add c_clusters_rebuilt stats.Image.clusters_rebuilt;
  { vm; fn; img }

(* From-scratch (re)build: fresh manager, FORCE order seeded with
   [t.seed]'s order when present. *)
let rebuild t =
  let view = t.abstraction.Abstraction.view in
  let vm = Varmap.make ~node_limit:t.node_limit ?previous:t.seed view in
  t.vm <- Some vm;
  t.seed <- None;
  t.memo <- Hashtbl.create 997;
  Image.clear_cache t.cache;
  compile t vm

(* Rebuild the session's protected structures in the manager produced
   by a reordering pass: [roots'] are the translations of
   [memo values @ clusters] in that order, [map] the variable
   permutation. The new manager starts with an empty protected set, so
   every carried handle is re-protected. *)
let translate_root tr ~what f =
  match Hashtbl.find_opt tr f with
  | Some f' -> f'
  | None ->
    invalid_arg
      (Printf.sprintf
         "Session.adopt_sifted: %s missing from the sift translation" what)

let adopt_sifted t vm ~man' ~old_roots ~roots' ~map =
  let tr = Hashtbl.create 997 in
  List.iter2 (fun o n -> Hashtbl.replace tr o n) old_roots roots';
  let memo' = Hashtbl.create (Hashtbl.length t.memo) in
  Hashtbl.iter
    (fun s f ->
      let what =
        Printf.sprintf "cone of signal %d (%S)" s (Circuit.name (circuit t) s)
      in
      Hashtbl.replace memo' s (Bdd.protect man' (translate_root tr ~what f)))
    t.memo;
  t.memo <- memo';
  t.cache.Image.entries <-
    Array.mapi
      (fun i (r, v, f) ->
        let what = Printf.sprintf "relation entry %d" i in
        (r, map v, translate_root tr ~what f))
      t.cache.Image.entries;
  t.cache.Image.clusters <-
    Array.mapi
      (fun i c ->
        let what = Printf.sprintf "transition cluster %d" i in
        Bdd.protect man' (translate_root tr ~what c))
      t.cache.Image.clusters;
  let vm' = Varmap.remap vm ~man:man' ~map in
  t.vm <- Some vm';
  vm'

let prepare t =
  match t.prepared with
  | Some p -> p
  | None ->
    let p =
      match t.vm with
      | None -> rebuild t
      | Some vm when not t.grew -> compile t vm
      | Some vm ->
        (* In-place growth happened: collect the previous iteration's
           garbage (the protected memo and clusters survive), measure
           what is carried, then apply the grow-vs-rebuild policy. *)
        let man = Varmap.man vm in
        Bdd.gc man ~roots:[];
        Telemetry.record g_nodes_carried (Bdd.num_nodes man);
        let p = compile t vm in
        let threshold =
          max t.policy.min_nodes
            (int_of_float
               (t.policy.grow_blowup *. float_of_int t.baseline_nodes))
        in
        if t.baseline_nodes = 0 || Bdd.num_nodes man <= threshold then begin
          Telemetry.incr c_grow_in_place;
          p
        end
        else begin
          (* Appending variables at the bottom of the order hurt: try
             to recover by sifting, and if the sifted size is still
             past the threshold give up on the carried order entirely
             and rebuild under a fresh FORCE order seeded by it. *)
          Log.info (fun m ->
              m "grow blow-up: %d nodes > threshold %d; sifting"
                (Bdd.num_nodes man) threshold);
          let old_roots =
            Hashtbl.fold (fun _ f acc -> f :: acc) t.memo []
            @ Array.to_list t.cache.Image.clusters
          in
          let man', roots', map =
            Reorder.sift ~max_passes:t.policy.sift_passes man ~roots:old_roots
          in
          let p =
            if man' == man then p
            else begin
              let vm' = adopt_sifted t vm ~man' ~old_roots ~roots' ~map in
              compile t vm'
            end
          in
          if Bdd.num_nodes (Varmap.man p.vm) <= threshold then begin
            Telemetry.incr c_grow_sifted;
            p
          end
          else begin
            Telemetry.incr c_grow_rebuilds;
            Log.info (fun m ->
                m "sifting left %d nodes; rebuilding with a fresh order"
                  (Bdd.num_nodes (Varmap.man p.vm)));
            t.seed <- Some p.vm;
            rebuild t
          end
        end
    in
    t.baseline_nodes <- Bdd.num_nodes (Varmap.man p.vm);
    t.grew <- false;
    t.prepared <- Some p;
    p
