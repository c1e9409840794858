type fn = {
  fname : string;
  fty : Minic.Ast.fun_ty;
  faddr : int;
  faddress_taken : bool;
}

type site =
  | Sreturn of { fn : string }
  | Sicall of { fn : string; ty : Minic.Ast.fun_ty; ret_addr : int }
  | Sitail of { fn : string; ty : Minic.Ast.fun_ty }
  | Sjumptable of { fn : string; target_addrs : int list }
  | Slongjmp of { fn : string }
  | Splt of { symbol : string }

type input = {
  env : Minic.Types.env;
  functions : fn list;
  sites : site array;
  direct_calls : (string * string * int) list;
  tail_calls : (string * string) list;
  setjmp_addrs : int list;
}

type output = {
  tary : (int * int) list;
  bary : (int * int) list;
  stats : stats;
}

and stats = { n_ibs : int; n_ibts : int; n_eqcs : int }

exception Too_many_classes of int

module SS = Set.Make (String)
module IS = Set.Make (Int)

(* Address-taken functions whose type matches an indirect-call site. *)
let matched_functions input ty =
  List.filter
    (fun fn ->
      fn.faddress_taken && Minic.Types.callable input.env ~site:ty ~fn:fn.fty)
    input.functions

(* Tail-call closure: TC(g) = functions reachable from g through tail
   calls (including g itself).  A call that lands in g may eventually
   return from any member of TC(g). *)
let tail_closure input =
  (* direct tail edges, plus indirect tail edges resolved by type *)
  let edges = Hashtbl.create 16 in
  let add_edge a b =
    let old = Option.value ~default:SS.empty (Hashtbl.find_opt edges a) in
    Hashtbl.replace edges a (SS.add b old)
  in
  List.iter (fun (a, b) -> add_edge a b) input.tail_calls;
  Array.iter
    (function
      | Sitail { fn; ty } ->
        List.iter (fun g -> add_edge fn g.fname) (matched_functions input ty)
      | Sreturn _ | Sicall _ | Sjumptable _ | Slongjmp _ | Splt _ -> ())
    input.sites;
  fun g ->
    let rec go visited frontier =
      match frontier with
      | [] -> visited
      | x :: rest ->
        if SS.mem x visited then go visited rest
        else begin
          let next =
            Option.value ~default:SS.empty (Hashtbl.find_opt edges x)
          in
          go (SS.add x visited) (SS.elements next @ rest)
        end
    in
    go SS.empty [ g ]

(* Return sites of each function: for every call that can invoke g (by
   symbol or by type matching), every member of TC(g) may return to the
   call's return site. *)
let return_sites input =
  let tc = tail_closure input in
  let sites = Hashtbl.create 16 in
  let add fn addr =
    let old = Option.value ~default:IS.empty (Hashtbl.find_opt sites fn) in
    Hashtbl.replace sites fn (IS.add addr old)
  in
  let add_call callee ret_addr =
    SS.iter (fun h -> add h ret_addr) (tc callee)
  in
  List.iter (fun (_, callee, ret) -> add_call callee ret) input.direct_calls;
  Array.iter
    (function
      | Sicall { ty; ret_addr; _ } ->
        List.iter
          (fun g -> add_call g.fname ret_addr)
          (matched_functions input ty)
      | Sreturn _ | Sitail _ | Sjumptable _ | Slongjmp _ | Splt _ -> ())
    input.sites;
  fun fn -> Option.value ~default:IS.empty (Hashtbl.find_opt sites fn)

let targets_of_site input site =
  let rs = return_sites input in
  match site with
  | Sreturn { fn } -> IS.elements (rs fn)
  | Sicall { ty; _ } | Sitail { ty; _ } ->
    List.map (fun f -> f.faddr) (matched_functions input ty)
  | Sjumptable { target_addrs; _ } -> target_addrs
  | Slongjmp _ -> input.setjmp_addrs
  | Splt { symbol } ->
    List.filter_map
      (fun f -> if f.fname = symbol then Some f.faddr else None)
      input.functions

(* ------------------------------------------------------------------ *)
(* Incremental generation.

   The merge state maintains, across dlopen boundaries, everything
   [generate] recomputes from scratch: the type-equivalence classes
   (memoized per structural site type), the tail-call closure and
   return-site sets (as grow-only relations with event propagation),
   and a growable union-find over the target universe plus one node
   per branch site.  All facts are monotone — functions, sites, edges
   and target sets only grow — so [merge] only has to propagate the
   new module's contributions.

   [merge] mutates the state in place.  Every write — hashtable,
   type-class field, state field, union-find parent/rank (path
   compression included) — is logged on a trail while a checkpoint is
   open, and [rollback] replays the trail backwards.  [merge] runs under
   its own checkpoint, so a merge that raises part-way undoes itself;
   the loader holds an outer one for the whole load and commits it on
   success, which drops the trail.

   ECNs follow [generate]'s canonical rule, applied per class instead
   of per element: the union-find roots that hold a target are ranked by
   their least target address, and the sites whose root holds none
   (empty sites) follow in slot order.  The state keeps, per root, its
   least address, so a merge ranks ~classes, not targets.  Because new
   code is appended at higher addresses, the ranks — hence ECNs — of
   untouched classes are stable, and the delta only has to visit the
   new module's keys and the members of classes whose ECN moved. *)

module UFD = Mcfi_util.Union_find.Dynamic

type module_input = {
  m_env : Minic.Types.env;
  m_functions : fn list;
  m_extern_taken : string list;
  m_sites : site array;
  m_slot_base : int;
  m_direct_calls : (string * string * int) list;
  m_tail_calls : (string * string) list;
  m_setjmp_addrs : int list;
}

type donor = Donor_tary of int | Donor_bary of int

type delta = {
  d_tary : (int * int) list;
  d_bary : (int * int) list;
  d_tary_grow : (int * int * donor) list;
  d_bary_grow : (int * int * donor) list;
  d_stats : stats;
}

type tyclass = {
  tc_ty : Minic.Ast.fun_ty;
  mutable tc_members : (string * int) list;  (* live AT matches: name, addr *)
  mutable tc_slots : int list;               (* icall + itail slots *)
  mutable tc_icall_rets : IS.t;
  mutable tc_itail_fns : SS.t;
  (* The class's anchor node in the union-find.  [generate] unions every
     slot of a class with every member, which connects {slots} ∪
     {members} whenever the class has at least one member (every class
     has at least one slot — classes are only created by sites).  The
     anchor realizes the same component in O(1) unions per arrival:
     slots and members union with the anchor instead of with each other.
     While the class has no members its slots stay singletons, exactly
     as [generate]'s per-slot unions over an empty member list leave
     them; the first member to arrive anchors the accumulated slots. *)
  tc_node : int;
  (* Anchor for the class's *return-site* component.  [generate] puts
     the class's icall return addresses into rs(h) for every h in the
     tail closure of every member, and unions each of h's return slots
     with each of those addresses — a clique over {rets} ∪ {return
     slots of inflow fns}.  The anchor realizes the same component with
     one union per arriving ret and per inflow return slot.  The
     component only exists in [generate] once the class has a member,
     a ret AND an actual return slot on some inflow fn: rets
     interconnect only *through* slots (no member ⇒ the rets never
     enter any rs set; no slot ⇒ they stay singleton targets; no ret ⇒
     there is nothing connecting the slots).  Anchoring is deferred
     until all three are present and the accumulated facts are
     replayed at that activation point. *)
  tc_ret_node : int;
  (* fns whose return slots receive this class's icall rets: the union
     of members' forward tail closures, extended as edges arrive *)
  mutable tc_inflow_fns : SS.t;
  (* some inflow fn has a return slot (monotone) *)
  mutable tc_has_ret_slot : bool;
}

(* The installed ECN assignment.  Immutable: a merge builds a new one. *)
type assignment = {
  a_ecn_of_root : (int, int) Hashtbl.t;  (* target classes only *)
  a_empty : int array;  (* empty sites, ascending; [a_empty.(i)] has ECN
                           [n_eqcs + i] *)
  (* ECN -> one installed member: the class's least address, or the
     empty site itself.  Every installed member of a class carries the
     class's version, so this is the donor a grow entry reads. *)
  a_rep : donor array;
  a_stats : stats;
}

type state = {
  mutable st_env : Minic.Types.env;
  st_defined : (string, fn) Hashtbl.t;
  st_taken : (string, unit) Hashtbl.t;       (* names ever address-taken *)
  mutable st_classes : tyclass list;
  st_tail_succ : (string, SS.t) Hashtbl.t;
  st_call_rets : (string, IS.t) Hashtbl.t;   (* callee -> direct-call rets *)
  st_rs : (string, IS.t) Hashtbl.t;   (* fn -> direct-call-derived rs;
                                         icall rets ride the ret anchors *)
  st_fn_inflow : (string, IS.t) Hashtbl.t;   (* fn -> tc_ret_node anchors *)
  st_return_slots : (string, int list) Hashtbl.t;
  st_plt_slots : (string, int list) Hashtbl.t;
  mutable st_longjmp_slots : int list;
  mutable st_setjmps : IS.t;
  mutable st_nsites : int;
  st_uf : UFD.t;
  st_addr_node : (int, int) Hashtbl.t;
  mutable st_targets : IS.t;
  mutable st_ntargets : int;
  (* Slot -> union-find node, and node -> the table key it stands for:
     [2 * addr] for a target, [2 * slot + 1] for a site, [-1] for a
     class anchor.  Entries are only written for a fresh slot or node,
     so they need no trail: a rollback drops the slot or node, and the
     entry is rewritten when it is allocated again. *)
  mutable st_site_node : int array;
  mutable st_node_key : int array;
  (* root -> least target address in its set, for roots holding one *)
  st_min : (int, int) Hashtbl.t;
  mutable st_asg : assignment;
  (* undo closures, newest first, while a checkpoint is open *)
  mutable st_trail : (unit -> unit) list;
  mutable st_open : int;  (* open checkpoints *)
}

type checkpoint = { cp_trail : (unit -> unit) list; cp_uf : UFD.mark }

let empty_state () =
  {
    st_env = Minic.Types.empty;
    st_defined = Hashtbl.create 64;
    st_taken = Hashtbl.create 64;
    st_classes = [];
    st_tail_succ = Hashtbl.create 16;
    st_call_rets = Hashtbl.create 64;
    st_rs = Hashtbl.create 64;
    st_fn_inflow = Hashtbl.create 64;
    st_return_slots = Hashtbl.create 64;
    st_plt_slots = Hashtbl.create 16;
    st_longjmp_slots = [];
    st_setjmps = IS.empty;
    st_nsites = 0;
    st_uf = UFD.create ();
    st_addr_node = Hashtbl.create 256;
    st_targets = IS.empty;
    st_ntargets = 0;
    st_site_node = Array.make 64 0;
    st_node_key = Array.make 256 (-1);
    st_min = Hashtbl.create 256;
    st_asg =
      {
        a_ecn_of_root = Hashtbl.create 1;
        a_empty = [||];
        a_rep = [||];
        a_stats = { n_ibs = 0; n_ibts = 0; n_eqcs = 0 };
      };
    st_trail = [];
    st_open = 0;
  }

(* ---- the trail ---- *)

let checkpoint s =
  s.st_open <- s.st_open + 1;
  { cp_trail = s.st_trail; cp_uf = UFD.mark s.st_uf }

let rollback s cp =
  let rec undo = function
    | l when l == cp.cp_trail -> ()
    | [] -> invalid_arg "Cfggen.rollback: checkpoint is not open"
    | u :: rest ->
      u ();
      undo rest
  in
  undo s.st_trail;
  s.st_trail <- cp.cp_trail;
  s.st_open <- s.st_open - 1;
  UFD.undo s.st_uf cp.cp_uf

let commit s cp =
  UFD.release s.st_uf cp.cp_uf;
  s.st_open <- s.st_open - 1;
  (* the outermost commit: nothing can be undone any more *)
  if s.st_open = 0 then s.st_trail <- []

let log s undo = s.st_trail <- undo :: s.st_trail

let tbl_set s tbl k v =
  (match Hashtbl.find_opt tbl k with
  | Some old -> log s (fun () -> Hashtbl.replace tbl k old)
  | None -> log s (fun () -> Hashtbl.remove tbl k));
  Hashtbl.replace tbl k v

let tbl_remove s tbl k =
  match Hashtbl.find_opt tbl k with
  | Some old ->
    log s (fun () -> Hashtbl.replace tbl k old);
    Hashtbl.remove tbl k
  | None -> ()

(* [a] with [a.(i) <- v], reallocated at twice the size if [i] is past
   its end *)
let grow_set a i v =
  let a =
    if i < Array.length a then a
    else begin
      let a' = Array.make (max (2 * Array.length a) (i + 1)) (-1) in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end
  in
  a.(i) <- v;
  a

let new_node s key =
  let n = UFD.add s.st_uf in
  s.st_node_key <- grow_set s.st_node_key n key;
  n

(* ---- reading the installed assignment (never writes the state, so a
   forensic namer running on another domain cannot corrupt it) ---- *)

let rec bsearch a x lo hi =
  if lo >= hi then None
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) = x then Some mid
    else if a.(mid) < x then bsearch a x (mid + 1) hi
    else bsearch a x lo mid

let ecn_in s asg = function
  | Donor_tary a ->
    Hashtbl.find asg.a_ecn_of_root
      (UFD.root s.st_uf (Hashtbl.find s.st_addr_node a))
  | Donor_bary slot -> (
    match
      Hashtbl.find_opt asg.a_ecn_of_root
        (UFD.root s.st_uf s.st_site_node.(slot))
    with
    | Some e -> e
    | None -> (
      match bsearch asg.a_empty slot 0 (Array.length asg.a_empty) with
      | Some i -> asg.a_stats.n_eqcs + i
      | None -> invalid_arg "Cfggen: slot has no ECN"))

let state_stats s = s.st_asg.a_stats
let state_sites s = s.st_nsites

(* Current ECN maps, in [generate]'s output order. *)
let state_tables s =
  let ecn = ecn_in s s.st_asg in
  let tary =
    IS.fold (fun addr acc -> (addr, ecn (Donor_tary addr)) :: acc) s.st_targets []
    |> List.rev
  in
  let bary = List.init s.st_nsites (fun slot -> (slot, ecn (Donor_bary slot))) in
  (tary, bary)

(* Human name for an ECN of the installed assignment: a class with live
   members names its ECN after its lexicographically smallest member
   (with a +N cardinality suffix), so a forensic bundle can say which
   type-equivalence class a violating transfer crossed rather than just
   its number.  Memberless classes (empty sites, anonymous return
   components) stay unnamed — consumers fall back to "ecn-<n>". *)
let class_name s e =
  List.find_map
    (fun c ->
      match c.tc_members with
      | (n0, a0) :: rest when ecn_in s s.st_asg (Donor_tary a0) = e ->
        let rep =
          List.fold_left (fun acc (n, _) -> if n < acc then n else acc) n0 rest
        in
        let k = List.length rest in
        Some (if k = 0 then rep else Printf.sprintf "%s+%d" rep k)
      | _ -> None)
    s.st_classes

(* The canonical assignment of the current partition, and the delta
   against the installed one, closed over equivalence classes.

   A class is *clean-grown* when every key it had before still maps to
   the same ECN and no key left it: then only its new keys need
   writing, and they can carry the class's current version (read off a
   donor) — concurrent checks on that class never see version skew, so
   nothing else must be rewritten.  Any other change (a key changing
   class, classes merging, renumbering) dirties the ECNs involved, and
   every key of a dirty class is rewritten at the new version so the
   class stays version-uniform.  The leaving side is dirtied too:
   without it an ECN abandoned by one class and re-assigned to another
   could carry a stale version and let an old Bary id pair with a new
   Tary id.

   Old classes only grow, so all installed keys of old ECN [e] share
   one new ECN, read off [e]'s representative: the dirty set costs one
   lookup per old ECN.  Rewrites list the members of dirty classes
   (walked through the union-find's set cycles); everything else is a
   new key of this merge. *)
let reassign s ~new_targets ~first_slot =
  let old = s.st_asg in
  let classes =
    Hashtbl.fold (fun r m acc -> (m, r) :: acc) s.st_min []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> Array.of_list
  in
  let n_eqcs = Array.length classes in
  let ecn_of_root = Hashtbl.create (2 * n_eqcs) in
  Array.iteri (fun e (_, r) -> Hashtbl.add ecn_of_root r e) classes;
  let site_root slot = UFD.find s.st_uf s.st_site_node.(slot) in
  let empty =
    let fresh = List.init (s.st_nsites - first_slot) (fun i -> first_slot + i) in
    Array.of_list
      (List.filter
         (fun slot -> not (Hashtbl.mem s.st_min (site_root slot)))
         (Array.to_list old.a_empty @ fresh))
  in
  let total = n_eqcs + Array.length empty in
  if total > Idtables.Id.max_ecn then raise (Too_many_classes Idtables.Id.max_ecn);
  let asg =
    {
      a_ecn_of_root = ecn_of_root;
      a_empty = empty;
      a_rep =
        Array.init total (fun e ->
            if e < n_eqcs then Donor_tary (fst classes.(e))
            else Donor_bary empty.(e - n_eqcs));
      a_stats = { n_ibs = s.st_nsites; n_ibts = s.st_ntargets; n_eqcs };
    }
  in
  let ecn = ecn_in s asg in
  let old_total = Array.length old.a_rep in
  let dirty = Array.make (max total old_total) false in
  Array.iteri
    (fun e rep ->
      let e' = ecn rep in
      if e' <> e then begin
        dirty.(e) <- true;
        dirty.(e') <- true
      end)
    old.a_rep;
  let tary_rw = ref [] and bary_rw = ref [] in
  let tary_gr = ref [] and bary_gr = ref [] in
  for e = 0 to total - 1 do
    if dirty.(e) then
      if e < n_eqcs then
        UFD.iter_set s.st_uf (snd classes.(e)) (fun n ->
            let key = s.st_node_key.(n) in
            if key >= 0 then
              if key land 1 = 0 then tary_rw := (key lsr 1, e) :: !tary_rw
              else bary_rw := (key lsr 1, e) :: !bary_rw)
      else bary_rw := (empty.(e - n_eqcs), e) :: !bary_rw
  done;
  let fresh rw gr key e =
    if not dirty.(e) then
      if e < old_total then gr := (key, e, old.a_rep.(e)) :: !gr
      else rw := (key, e) :: !rw (* brand-new class *)
  in
  List.iter (fun a -> fresh tary_rw tary_gr a (ecn (Donor_tary a))) new_targets;
  for slot = first_slot to s.st_nsites - 1 do
    fresh bary_rw bary_gr slot (ecn (Donor_bary slot))
  done;
  let by_key (a, _) (b, _) = compare a b in
  let by_key3 (a, _, _) (b, _, _) = compare a b in
  ( asg,
    {
      d_tary = List.sort by_key !tary_rw;
      d_bary = List.sort by_key !bary_rw;
      d_tary_grow = List.sort by_key3 !tary_gr;
      d_bary_grow = List.sort by_key3 !bary_gr;
      d_stats = asg.a_stats;
    } )

(* Split a delta into per-shard slices for sharded tables.  The routing
   unit is the equivalence class: every entry of a class — rewrites and
   grow entries alike — lands on [route ecn], and a grow entry's donor
   holds the same ECN by construction ([compute_delta] picks donors from
   the class's installed slots), so donor resolution never crosses a
   shard boundary.  Entry order within each slice preserves the delta's
   sorted order; slices come out in ascending shard order, ready for
   [Shards.update_multi]. *)
let shard_delta ~shards ~route d =
  let shards = max shards 1 in
  let clamp e =
    let s = route e in
    if s < 0 || s >= shards then
      invalid_arg
        (Printf.sprintf "Cfggen.shard_delta: route sent ECN %d to shard %d" e s)
    else s
  in
  let parts = Array.make shards None in
  let slice s =
    match parts.(s) with
    | Some p -> p
    | None ->
      let p = (ref [], ref [], ref [], ref []) in
      parts.(s) <- Some p;
      p
  in
  let add2 pick (key, e) =
    let cell = pick (slice (clamp e)) in
    cell := (key, e) :: !cell
  in
  let add3 pick (key, e, don) =
    let cell = pick (slice (clamp e)) in
    cell := (key, e, don) :: !cell
  in
  List.iter (add2 (fun (t, _, _, _) -> t)) d.d_tary;
  List.iter (add2 (fun (_, b, _, _) -> b)) d.d_bary;
  List.iter (add3 (fun (_, _, tg, _) -> tg)) d.d_tary_grow;
  List.iter (add3 (fun (_, _, _, bg) -> bg)) d.d_bary_grow;
  let out = ref [] in
  for s = shards - 1 downto 0 do
    match parts.(s) with
    | None -> ()
    | Some (t, b, tg, bg) ->
      out :=
        ( s,
          {
            d_tary = List.rev !t;
            d_bary = List.rev !b;
            d_tary_grow = List.rev !tg;
            d_bary_grow = List.rev !bg;
            d_stats = d.d_stats;
          } )
        :: !out
  done;
  !out

let fun_ty_equal env a b =
  Minic.Types.equal env (Minic.Ast.Tfun a) (Minic.Ast.Tfun b)

(* Log a class's mutable fields before writing any of them. *)
let save_class s c =
  let members = c.tc_members and slots = c.tc_slots in
  let rets = c.tc_icall_rets and itail = c.tc_itail_fns in
  let inflow = c.tc_inflow_fns and has_ret_slot = c.tc_has_ret_slot in
  log s (fun () ->
      c.tc_members <- members;
      c.tc_slots <- slots;
      c.tc_icall_rets <- rets;
      c.tc_itail_fns <- itail;
      c.tc_inflow_fns <- inflow;
      c.tc_has_ret_slot <- has_ret_slot)

let merge_into s m =
  let class_by_ret_node = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.add class_by_ret_node c.tc_ret_node c) s.st_classes;
  if m.m_slot_base <> s.st_nsites then
    invalid_arg
      (Printf.sprintf "Cfggen.merge: slot base %d, expected %d" m.m_slot_base
         s.st_nsites);
  let env = s.st_env in
  s.st_env <- Minic.Types.merge [ env; m.m_env ];
  log s (fun () -> s.st_env <- env);
  let new_targets = ref [] in
  let node_of_addr a =
    match Hashtbl.find_opt s.st_addr_node a with
    | Some n -> n
    | None ->
      let n = new_node s (2 * a) in
      tbl_set s s.st_addr_node a n;
      tbl_set s s.st_min n a;
      let targets = s.st_targets and ntargets = s.st_ntargets in
      log s (fun () ->
          s.st_targets <- targets;
          s.st_ntargets <- ntargets);
      s.st_targets <- IS.add a targets;
      s.st_ntargets <- ntargets + 1;
      new_targets := a :: !new_targets;
      n
  in
  (* every union goes through here, to keep each root's least target *)
  let union a b =
    let ra = UFD.find s.st_uf a and rb = UFD.find s.st_uf b in
    if ra <> rb then begin
      let r = UFD.union s.st_uf ra rb in
      let gone = if r = ra then rb else ra in
      match Hashtbl.find_opt s.st_min gone with
      | None -> ()
      | Some least -> (
        tbl_remove s s.st_min gone;
        match Hashtbl.find_opt s.st_min r with
        | Some least' when least' <= least -> ()
        | _ -> tbl_set s s.st_min r least)
    end
  in
  let site_node slot = s.st_site_node.(slot) in
  let union_site_target slot addr = union (site_node slot) (node_of_addr addr) in
  let tc_forward g =
    (* forward tail closure of g in the current edge set, incl. g *)
    let rec go visited frontier =
      match frontier with
      | [] -> visited
      | x :: rest ->
        if SS.mem x visited then go visited rest
        else
          let next =
            Option.value ~default:SS.empty (Hashtbl.find_opt s.st_tail_succ x)
          in
          go (SS.add x visited) (SS.elements next @ rest)
    in
    go SS.empty [ g ]
  in
  let return_slots n =
    Option.value ~default:[] (Hashtbl.find_opt s.st_return_slots n)
  in
  let rs n = Option.value ~default:IS.empty (Hashtbl.find_opt s.st_rs n) in
  let call_rets n =
    Option.value ~default:IS.empty (Hashtbl.find_opt s.st_call_rets n)
  in
  (* --- class return-site anchors --- *)
  let fn_inflow n =
    Option.value ~default:IS.empty (Hashtbl.find_opt s.st_fn_inflow n)
  in
  (* inflow fns only exist once the class has members, so the member
     condition is implied *)
  let ret_active c = c.tc_has_ret_slot && not (IS.is_empty c.tc_icall_rets) in
  let union_ret_slots_with c n =
    List.iter (fun slot -> union (site_node slot) c.tc_ret_node) (return_slots n)
  in
  (* first time the class has a member, a ret and an inflow return
     slot: connect the facts accumulated while the component didn't
     exist yet *)
  let activate_ret c =
    IS.iter (fun r -> union (node_of_addr r) c.tc_ret_node) c.tc_icall_rets;
    SS.iter (fun n -> union_ret_slots_with c n) c.tc_inflow_fns
  in
  let add_inflow c n =
    if not (SS.mem n c.tc_inflow_fns) then begin
      save_class s c;
      c.tc_inflow_fns <- SS.add n c.tc_inflow_fns;
      tbl_set s s.st_fn_inflow n (IS.add c.tc_ret_node (fn_inflow n));
      if c.tc_has_ret_slot then begin
        if ret_active c then union_ret_slots_with c n
      end
      else if return_slots n <> [] then begin
        c.tc_has_ret_slot <- true;
        if ret_active c then activate_ret c
      end
    end
  in
  (* the class's rets flow into every fn of g's forward tail closure *)
  let add_inflow_closure c g =
    if Hashtbl.mem s.st_tail_succ g then
      SS.iter (fun h -> add_inflow c h) (tc_forward g)
    else add_inflow c g
  in
  let add_rs n addrs =
    let old = rs n in
    let fresh = IS.diff addrs old in
    if not (IS.is_empty fresh) then begin
      tbl_set s s.st_rs n (IS.union old fresh);
      List.iter
        (fun slot -> IS.iter (fun a -> union_site_target slot a) fresh)
        (return_slots n)
    end
  in
  (* Direct-call rets arrive one address at a time: skip the set
     arithmetic, and the closure walk for tail-call-free callees. *)
  let add_rs1 h addr =
    let old = rs h in
    if not (IS.mem addr old) then begin
      tbl_set s s.st_rs h (IS.add addr old);
      List.iter (fun slot -> union_site_target slot addr) (return_slots h)
    end
  in
  let add_call_rets1 g addr =
    let old = call_rets g in
    if not (IS.mem addr old) then begin
      tbl_set s s.st_call_rets g (IS.add addr old);
      if Hashtbl.mem s.st_tail_succ g then
        SS.iter (fun h -> add_rs1 h addr) (tc_forward g)
      else add_rs1 g addr
    end
  in
  let add_tail_edge a b =
    let succ =
      Option.value ~default:SS.empty (Hashtbl.find_opt s.st_tail_succ a)
    in
    if not (SS.mem b succ) then begin
      tbl_set s s.st_tail_succ a (SS.add b succ);
      (* everything now reachable from b inherits the return addrs that
         could land in a (rs a already folds in a's reverse closure) *)
      let contrib = IS.union (rs a) (call_rets a) in
      let anchors = fn_inflow a in
      if not (IS.is_empty contrib && IS.is_empty anchors) then begin
        let closure = tc_forward b in
        if not (IS.is_empty contrib) then
          SS.iter (fun h -> add_rs h contrib) closure;
        (* class rets flowing into a now flow into b's closure too *)
        IS.iter
          (fun anchor ->
            let c = Hashtbl.find class_by_ret_node anchor in
            SS.iter (fun h -> add_inflow c h) closure)
          anchors
      end
    end
  in
  let on_newly_at (f : fn) =
    ignore (node_of_addr f.faddr);
    List.iter
      (fun c ->
        if Minic.Types.callable s.st_env ~site:c.tc_ty ~fn:f.fty then begin
          let first_member = c.tc_members = [] in
          save_class s c;
          c.tc_members <- (f.fname, f.faddr) :: c.tc_members;
          (* the first member connects the slots accumulated while the
             class was empty; later slots/members anchor in O(1) *)
          if first_member then
            List.iter (fun slot -> union (site_node slot) c.tc_node) c.tc_slots;
          union (node_of_addr f.faddr) c.tc_node;
          add_inflow_closure c f.fname;
          SS.iter (fun sfn -> add_tail_edge sfn f.fname) c.tc_itail_fns
        end)
      s.st_classes
  in
  let on_taken n =
    if not (Hashtbl.mem s.st_taken n) then begin
      tbl_set s s.st_taken n ();
      match Hashtbl.find_opt s.st_defined n with
      | Some f -> on_newly_at f
      | None -> ()
    end
  in
  let on_defined (f : fn) =
    if Hashtbl.mem s.st_defined f.fname then
      invalid_arg ("Cfggen.merge: duplicate definition of " ^ f.fname);
    tbl_set s s.st_defined f.fname f;
    (match Hashtbl.find_opt s.st_plt_slots f.fname with
    | Some slots -> List.iter (fun slot -> union_site_target slot f.faddr) slots
    | None -> ());
    if Hashtbl.mem s.st_taken f.fname then on_newly_at f
  in
  let live_at n =
    Hashtbl.mem s.st_taken n
    &&
    match Hashtbl.find_opt s.st_defined n with Some _ -> true | None -> false
  in
  let find_or_create_class ty =
    match
      List.find_opt (fun c -> fun_ty_equal s.st_env c.tc_ty ty) s.st_classes
    with
    | Some c -> c
    | None ->
      let members =
        Hashtbl.fold
          (fun n f acc ->
            if live_at n && Minic.Types.callable s.st_env ~site:ty ~fn:f.fty
            then (f.fname, f.faddr) :: acc
            else acc)
          s.st_defined []
      in
      let c =
        {
          tc_ty = ty;
          tc_members = members;
          tc_slots = [];
          tc_icall_rets = IS.empty;
          tc_itail_fns = SS.empty;
          tc_node = new_node s (-1);
          tc_ret_node = new_node s (-1);
          tc_inflow_fns = SS.empty;
          tc_has_ret_slot = false;
        }
      in
      Hashtbl.add class_by_ret_node c.tc_ret_node c;
      List.iter (fun (_, addr) -> union (node_of_addr addr) c.tc_node) members;
      (* no rets yet, so this only records where they will flow *)
      List.iter (fun (g, _) -> add_inflow_closure c g) members;
      let classes = s.st_classes in
      log s (fun () -> s.st_classes <- classes);
      s.st_classes <- c :: classes;
      c
  in
  (* 1. functions (definitions, then address-taken transitions) *)
  List.iter
    (fun (f : fn) ->
      on_defined f;
      if f.faddress_taken then on_taken f.fname)
    m.m_functions;
  List.iter on_taken m.m_extern_taken;
  (* 2. setjmp continuations feed all existing longjmp sites *)
  List.iter
    (fun a ->
      if not (IS.mem a s.st_setjmps) then begin
        let setjmps = s.st_setjmps in
        log s (fun () -> s.st_setjmps <- setjmps);
        s.st_setjmps <- IS.add a setjmps;
        ignore (node_of_addr a);
        List.iter (fun slot -> union_site_target slot a) s.st_longjmp_slots
      end)
    m.m_setjmp_addrs;
  (* 3. sites, in global slot order *)
  Array.iteri
    (fun i site ->
      let slot = m.m_slot_base + i in
      let n = new_node s ((2 * slot) + 1) in
      s.st_site_node <- grow_set s.st_site_node slot n;
      match site with
      | Sreturn { fn } ->
        tbl_set s s.st_return_slots fn (slot :: return_slots fn);
        IS.iter (fun a -> union_site_target slot a) (rs fn);
        IS.iter
          (fun anchor ->
            let c = Hashtbl.find class_by_ret_node anchor in
            if c.tc_has_ret_slot then begin
              if ret_active c then union n c.tc_ret_node
            end
            else begin
              (* first return slot on this class's inflow *)
              save_class s c;
              c.tc_has_ret_slot <- true;
              if ret_active c then activate_ret c
            end)
          (fn_inflow fn)
      | Sicall { ty; ret_addr; _ } ->
        ignore (node_of_addr ret_addr);
        let c = find_or_create_class ty in
        save_class s c;
        c.tc_slots <- slot :: c.tc_slots;
        if c.tc_members <> [] then union n c.tc_node;
        let was_active = ret_active c in
        c.tc_icall_rets <- IS.add ret_addr c.tc_icall_rets;
        if ret_active c then
          if was_active then union (node_of_addr ret_addr) c.tc_ret_node
          else activate_ret c
      | Sitail { fn; ty } ->
        let c = find_or_create_class ty in
        save_class s c;
        c.tc_slots <- slot :: c.tc_slots;
        c.tc_itail_fns <- SS.add fn c.tc_itail_fns;
        if c.tc_members <> [] then union n c.tc_node;
        List.iter (fun (g, _) -> add_tail_edge fn g) c.tc_members
      | Sjumptable { target_addrs; _ } ->
        List.iter (fun a -> union_site_target slot a) target_addrs
      | Slongjmp _ ->
        let slots = s.st_longjmp_slots in
        log s (fun () -> s.st_longjmp_slots <- slots);
        s.st_longjmp_slots <- slot :: slots;
        IS.iter (fun a -> union_site_target slot a) s.st_setjmps
      | Splt { symbol } ->
        tbl_set s s.st_plt_slots symbol
          (slot
          :: Option.value ~default:[] (Hashtbl.find_opt s.st_plt_slots symbol));
        (match Hashtbl.find_opt s.st_defined symbol with
        | Some f -> union_site_target slot f.faddr
        | None -> ()))
    m.m_sites;
  let nsites = s.st_nsites in
  log s (fun () -> s.st_nsites <- nsites);
  s.st_nsites <- nsites + Array.length m.m_sites;
  (* 4. direct call and tail-call edges *)
  List.iter
    (fun (_caller, callee, ret) ->
      ignore (node_of_addr ret);
      add_call_rets1 callee ret)
    m.m_direct_calls;
  List.iter (fun (a, b) -> add_tail_edge a b) m.m_tail_calls;
  (* 5. canonical assignment, delta vs installed, commit *)
  let asg, delta =
    reassign s ~new_targets:!new_targets ~first_slot:m.m_slot_base
  in
  let installed = s.st_asg in
  log s (fun () -> s.st_asg <- installed);
  s.st_asg <- asg;
  delta

let merge s m =
  let cp = checkpoint s in
  match merge_into s m with
  | delta ->
    commit s cp;
    delta
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    rollback s cp;
    Printexc.raise_with_backtrace e bt

let generate input =
  let rs = return_sites input in
  let site_targets =
    Array.map
      (function
        | Sreturn { fn } -> IS.elements (rs fn)
        | Sicall { ty; _ } | Sitail { ty; _ } ->
          List.map (fun f -> f.faddr) (matched_functions input ty)
        | Sjumptable { target_addrs; _ } -> target_addrs
        | Slongjmp _ -> input.setjmp_addrs
        | Splt { symbol } ->
          List.filter_map
            (fun f -> if f.fname = symbol then Some f.faddr else None)
            input.functions)
      input.sites
  in
  (* The universe of possible indirect-branch targets (the paper's IBTs):
     address-taken function entries, return sites, jump-table targets and
     setjmp continuations — whether or not some branch currently reaches
     them. *)
  let ibts = ref IS.empty in
  List.iter
    (fun f -> if f.faddress_taken then ibts := IS.add f.faddr !ibts)
    input.functions;
  List.iter (fun (_, _, ret) -> ibts := IS.add ret !ibts) input.direct_calls;
  Array.iter
    (function
      | Sicall { ret_addr; _ } -> ibts := IS.add ret_addr !ibts
      | Sjumptable { target_addrs; _ } ->
        List.iter (fun a -> ibts := IS.add a !ibts) target_addrs
      | Sreturn _ | Sitail _ | Slongjmp _ | Splt _ -> ())
    input.sites;
  List.iter (fun a -> ibts := IS.add a !ibts) input.setjmp_addrs;
  Array.iter
    (fun targets -> List.iter (fun a -> ibts := IS.add a !ibts) targets)
    site_targets;
  let target_list = IS.elements !ibts in
  let index_of =
    let tbl = Hashtbl.create (List.length target_list) in
    List.iteri (fun i a -> Hashtbl.add tbl a i) target_list;
    fun a -> Hashtbl.find tbl a
  in
  (* Classic-CFI equivalence classes: merge each site's target set. *)
  let uf = Mcfi_util.Union_find.create (List.length target_list) in
  Array.iter
    (fun targets ->
      match targets with
      | [] -> ()
      | anchor :: rest ->
        List.iter
          (fun t ->
            ignore
              (Mcfi_util.Union_find.union uf (index_of anchor) (index_of t)))
          rest)
    site_targets;
  (* ECN per union-find root. *)
  let ecn_of_root = Hashtbl.create 64 in
  let next_ecn = ref 0 in
  let fresh_ecn () =
    let e = !next_ecn in
    incr next_ecn;
    if e >= Idtables.Id.max_ecn then raise (Too_many_classes e);
    e
  in
  let ecn_of_target addr =
    let root = Mcfi_util.Union_find.find uf (index_of addr) in
    match Hashtbl.find_opt ecn_of_root root with
    | Some e -> e
    | None ->
      let e = fresh_ecn () in
      Hashtbl.add ecn_of_root root e;
      e
  in
  let tary = List.map (fun addr -> (addr, ecn_of_target addr)) target_list in
  let bary =
    Array.to_list
      (Array.mapi
         (fun slot targets ->
           match targets with
           | anchor :: _ -> (slot, ecn_of_target anchor)
           | [] ->
             (* no allowed target: a class no address belongs to, so the
                check always fails (the paper's broken-by-missing-edges
                case, kind K1, surfaces exactly like this) *)
             (slot, fresh_ecn ()))
         site_targets)
  in
  let n_eqcs = Hashtbl.length ecn_of_root in
  {
    tary;
    bary;
    stats =
      {
        n_ibs = Array.length input.sites;
        n_ibts = List.length target_list;
        n_eqcs;
      };
  }
