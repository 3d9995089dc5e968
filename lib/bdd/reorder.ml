module Telemetry = Rfn_obs.Telemetry

let c_invocations = Telemetry.counter "bdd.reorder.invocations"
let c_saved = Telemetry.counter "bdd.reorder.nodes_saved"

let total_size man roots =
  let seen = Hashtbl.create 1024 in
  let rec walk f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      if not (Bdd.is_terminal f) then begin
        walk (Bdd.low man f);
        walk (Bdd.high man f)
      end
    end
  in
  List.iter walk roots;
  Hashtbl.length seen

(* Rebuild [roots] from [man] into a fresh manager under [map]. *)
let rebuild_under man ~roots ~map =
  let dst = Bdd.create ~node_limit:(Bdd.node_limit man) ~nvars:(Bdd.nvars man) () in
  let memo = Hashtbl.create 1024 in
  let rec rb f =
    if Bdd.is_zero f then Bdd.zero dst
    else if Bdd.is_one f then Bdd.one dst
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let lo = rb (Bdd.low man f) and hi = rb (Bdd.high man f) in
        let r = Bdd.ite dst (Bdd.var dst map.(Bdd.topvar man f)) hi lo in
        Hashtbl.add memo f r;
        r
  in
  let roots' = List.map rb roots in
  (dst, roots')

let sift ?(max_passes = 4) man ~roots =
  Telemetry.incr c_invocations;
  let nvars = Bdd.nvars man in
  (* accumulated map: old variable -> current level *)
  let perm = Array.init nvars (fun i -> i) in
  let cur_man = ref man and cur_roots = ref roots in
  let size0 = total_size man roots in
  let cur_size = ref size0 in
  let passes = ref 0 in
  let improved = ref true in
  while !improved && !passes < max_passes do
    incr passes;
    improved := false;
    for level = 0 to nvars - 2 do
      (* candidate: transpose the variables at [level] and [level+1] *)
      let swap = Array.init nvars (fun v ->
          if perm.(v) = level then level + 1
          else if perm.(v) = level + 1 then level
          else perm.(v))
      in
      let dst, roots' = rebuild_under man ~roots ~map:swap in
      let size' = total_size dst roots' in
      if size' < !cur_size then begin
        Array.blit swap 0 perm 0 nvars;
        cur_man := dst;
        cur_roots := roots';
        cur_size := size';
        improved := true
      end
    done
  done;
  Telemetry.add c_saved (size0 - !cur_size);
  (!cur_man, !cur_roots, fun v -> perm.(v))
