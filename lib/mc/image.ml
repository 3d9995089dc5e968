open Rfn_circuit
module Bdd = Rfn_bdd.Bdd
module Telemetry = Rfn_obs.Telemetry

let c_post = Telemetry.counter "mc.post_images"
let h_step = Telemetry.histogram "mc.image_seconds"

type t = {
  vm : Varmap.t;
  clusters : Bdd.t array;  (* cluster-local inputs already quantified *)
  schedule : int list array;
      (* schedule.(0): quantified before any cluster;
         schedule.(i+1): quantified together with cluster i *)
}

type cache = {
  mutable entries : (int * int * Bdd.t) array;
  mutable clusters : Bdd.t array;
  mutable quantified : (Bdd.man * Bdd.t array) option;
}

type build_stats = { clusters_reused : int; clusters_rebuilt : int }

let cache () = { entries = [||]; clusters = [||]; quantified = None }

(* The quantified copies are released in the manager that protected
   them, whichever manager the caller has moved on to. *)
let release_quantified c =
  Option.iter
    (fun (man, qs) -> Array.iter (Bdd.unprotect man) qs)
    c.quantified;
  c.quantified <- None

let clear_cache c =
  c.entries <- [||];
  c.clusters <- [||];
  release_quantified c

let build ?(cluster_size = 5000) ~fn ~cache vm =
  let view = Varmap.view vm in
  let man = Varmap.man vm in
  (* One bit-relation source per register, ordered by next-state
     variable so that FORCE-adjacent state bits cluster together.
     Appended variables sort after every carried one, so after an
     in-place grow the carried registers form a verbatim prefix. *)
  let entries =
    Array.to_list view.Sview.regs
    |> List.map (fun r ->
           let next =
             match Circuit.node view.Sview.circuit r with
             | Circuit.Reg { next; _ } -> next
             | _ -> assert false
           in
           (r, Varmap.nxt_var vm r, fn next))
    |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
    |> Array.of_list
  in
  (* The cached clusters are reusable iff the old bit list is an exact
     prefix of the new one — same register, same next-state variable,
     same cone (handle equality is sound under hash-consing within one
     manager). Growth only appends, so this holds across refinements;
     any other change (a retarget, or a caller that switched managers
     without clearing the cache) invalidates the whole cache. *)
  let old = cache.entries in
  let prefix_ok =
    Array.length old <= Array.length entries
    &&
    let ok = ref true in
    Array.iteri
      (fun i (r, v, f) ->
        let r', v', f' = entries.(i) in
        if r <> r' || v <> v' || f <> f' then ok := false)
      old;
    !ok
  in
  let reused_clusters, start =
    if prefix_ok then (Array.to_list cache.clusters, Array.length old)
    else begin
      Array.iter (fun c -> Bdd.unprotect man c) cache.clusters;
      ([], 0)
    end
  in
  let bits =
    Array.sub entries start (Array.length entries - start)
    |> Array.to_list
    |> List.map (fun (_, v, f) ->
           Bdd.dnot man (Bdd.dxor man (Bdd.var man v) f))
  in
  let new_clusters =
    let rec go acc current = function
      | [] -> List.rev (match current with None -> acc | Some c -> c :: acc)
      | rel :: rest -> (
        match current with
        | None -> go acc (Some rel) rest
        | Some c ->
          let c' = Bdd.dand man c rel in
          if Bdd.size man c' <= cluster_size then go acc (Some c') rest
          else go (c :: acc) (Some rel) rest)
    in
    List.map (Bdd.protect man) (go [] None bits)
  in
  let clusters = Array.of_list (reused_clusters @ new_clusters) in
  cache.entries <- entries;
  cache.clusters <- clusters;
  release_quantified cache;
  (* Last cluster mentioning each quantifiable variable, and how many
     clusters mention it. The schedule is recomputed from scratch on
     every build: it is cheap (support scans) and must cover variables
     appended since the last one — and refinement can make a local
     input shared, or turn it into a [Cur] variable. *)
  let quantifiable v =
    match Varmap.role vm v with
    | Varmap.Cur _ | Varmap.Inp _ -> true
    | Varmap.Nxt _ -> false
    | exception Not_found -> false
  in
  let last = Hashtbl.create 97 in
  Array.iteri
    (fun i c ->
      List.iter
        (fun v ->
          if quantifiable v then
            let n =
              match Hashtbl.find_opt last v with Some (_, n) -> n | None -> 0
            in
            Hashtbl.replace last v (i, n + 1))
        (Bdd.support man c))
    clusters;
  (* An input that only cluster i reads is quantified out of cluster i
     here, once per build: the state set an image starts from never
     mentions an input, so [post] need not see it. *)
  let schedule = Array.make (Array.length clusters + 1) [] in
  let local = Array.make (Array.length clusters) [] in
  let place ~input v =
    match Hashtbl.find_opt last v with
    | Some (i, 1) when input -> local.(i) <- v :: local.(i)
    | Some (i, _) -> schedule.(i + 1) <- v :: schedule.(i + 1)
    | None -> schedule.(0) <- v :: schedule.(0)
  in
  List.iter (place ~input:false) (Varmap.cur_vars vm);
  List.iter (place ~input:true) (Varmap.inp_vars vm);
  let quantified =
    Array.mapi
      (fun i c -> if local.(i) = [] then c else Bdd.exists man local.(i) c)
      clusters
  in
  (* protected only once all are built: no collection runs in between,
     and a [Limit_exceeded] above leaves no protection behind *)
  Array.iter (fun q -> ignore (Bdd.protect man q)) quantified;
  cache.quantified <- Some (man, quantified);
  ( { vm; clusters = quantified; schedule },
    {
      clusters_reused = List.length reused_clusters;
      clusters_rebuilt = List.length new_clusters;
    } )

let make ?cluster_size vm =
  fst (build ?cluster_size ~fn:(Symbolic.functions vm) ~cache:(cache ()) vm)

let post t q =
  Telemetry.incr c_post;
  Telemetry.time_hist h_step @@ fun () ->
  Telemetry.with_span "mc.image" (fun () ->
      let man = Varmap.man t.vm in
      let r = ref (Bdd.exists man t.schedule.(0) q) in
      Array.iteri
        (fun i c -> r := Bdd.and_exists man t.schedule.(i + 1) !r c)
        t.clusters;
      Varmap.rename_next_to_cur t.vm !r)

let pre_via_compose vm ~fn q =
  let man = Varmap.man vm in
  let view = Varmap.view vm in
  let subst = Hashtbl.create 97 in
  Array.iter
    (fun r ->
      match Circuit.node view.Sview.circuit r with
      | Circuit.Reg { next; _ } ->
        Hashtbl.replace subst (Varmap.cur_var vm r) (fn next)
      | _ -> assert false)
    view.Sview.regs;
  Bdd.vector_compose man (fun v -> Hashtbl.find_opt subst v) q
