(* Differential oracle for incremental CFG generation (cfggen level),
   and the randomized dlopen-chain test (process level).

   The cfggen half builds random synthetic module streams and checks,
   after every [Cfggen.merge], that the maintained state is bit-identical
   to a from-scratch [Cfggen.generate] over the union of the modules —
   ECN maps and stats — that the returned delta is exactly the
   whole-program diff of consecutive assignments, and that replaying it
   over a model table reproduces the full maps.  Merges undone through
   the trail (cleanly, or by raising part-way) must leave a state
   indistinguishable from a twin that never saw them.

   The process half compiles real MiniC modules, loads them through
   [Process.load] with the incremental path on, and compares the live
   tables against full regeneration after every dlopen, including a
   mid-chain load that fails and must roll back; it also gates the
   per-load allocation of a long chain, which must not grow with the
   loaded program. *)

open Cfg.Cfggen
module Ast = Minic.Ast

let ft params ret : Ast.fun_ty = { params; varargs = false; ret }
let vft params ret : Ast.fun_ty = { params; varargs = true; ret }

let ty_pool =
  [|
    ft [ Ast.Tint ] Ast.Tint;
    ft [ Ast.Tint; Ast.Tint ] Ast.Tint;
    ft [ Ast.Tptr Ast.Tchar ] Ast.Tint;
    ft [] Ast.Tvoid;
    vft [ Ast.Tint ] Ast.Tint;
    ft [ Ast.Tptr Ast.Tint ] Ast.Tvoid;
  |]

(* ---------- synthetic module streams ---------- *)

(* Module [k] defines functions "m<k>f<i>"; every module has at least
   one, so "m<j>f0" is a valid cross-module reference for any [j] in the
   chain — including modules not loaded yet, which exercises the
   defined-later / taken-earlier transitions. *)
let gen_module rng ~nmodules k =
  let base = 0x10000 * (k + 1) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let name j i = Printf.sprintf "m%df%d" j i in
  let nfns = 1 + Random.State.int rng 4 in
  let functions =
    List.init nfns (fun i ->
        {
          fname = name k i;
          fty = pick ty_pool;
          faddr = base + (i * 0x40);
          faddress_taken = Random.State.bool rng;
        })
  in
  let any_name () = name (Random.State.int rng nmodules) 0 in
  let extern_taken =
    List.init (Random.State.int rng 3) (fun _ -> any_name ())
  in
  let next_addr = ref (base + 0x800) in
  let fresh_addr () =
    let a = !next_addr in
    next_addr := a + 8;
    a
  in
  let own () = (List.nth functions (Random.State.int rng nfns)).fname in
  let sites = ref [] in
  let add s = sites := s :: !sites in
  List.iter
    (fun f -> if Random.State.bool rng then add (Sreturn { fn = f.fname }))
    functions;
  for _ = 1 to Random.State.int rng 4 do
    add (Sicall { fn = own (); ty = pick ty_pool; ret_addr = fresh_addr () })
  done;
  for _ = 1 to Random.State.int rng 2 do
    add (Sitail { fn = own (); ty = pick ty_pool })
  done;
  if Random.State.int rng 3 = 0 then
    add
      (Sjumptable
         {
           fn = own ();
           target_addrs =
             List.init
               (1 + Random.State.int rng 3)
               (fun _ -> fresh_addr ());
         });
  if Random.State.int rng 4 = 0 then add (Slongjmp { fn = own () });
  for _ = 1 to Random.State.int rng 2 do
    add (Splt { symbol = any_name () })
  done;
  let direct_calls =
    List.init (Random.State.int rng 3) (fun _ ->
        (own (), any_name (), fresh_addr ()))
  in
  let tail_calls =
    List.init (Random.State.int rng 3) (fun _ -> (own (), any_name ()))
  in
  let setjmp_addrs =
    List.init (Random.State.int rng 2) (fun _ -> fresh_addr ())
  in
  {
    m_env = Minic.Types.empty;
    m_functions = functions;
    m_extern_taken = extern_taken;
    m_sites = Array.of_list (List.rev !sites);
    m_slot_base = 0 (* fixed up by the caller *);
    m_direct_calls = direct_calls;
    m_tail_calls = tail_calls;
    m_setjmp_addrs = setjmp_addrs;
  }

module SSet = Set.Make (String)

(* The union view [generate] expects: address-taken is a program-wide
   property, so a function is flagged if any module so far takes it. *)
let combined_input modules =
  let taken =
    List.fold_left
      (fun acc m ->
        let acc =
          List.fold_left
            (fun acc f ->
              if f.faddress_taken then SSet.add f.fname acc else acc)
            acc m.m_functions
        in
        List.fold_left (fun acc n -> SSet.add n acc) acc m.m_extern_taken)
      SSet.empty modules
  in
  {
    env = Minic.Types.empty;
    functions =
      List.concat_map
        (fun m ->
          List.map
            (fun f -> { f with faddress_taken = SSet.mem f.fname taken })
            m.m_functions)
        modules;
    sites = Array.concat (List.map (fun m -> m.m_sites) modules);
    direct_calls = List.concat_map (fun m -> m.m_direct_calls) modules;
    tail_calls = List.concat_map (fun m -> m.m_tail_calls) modules;
    setjmp_addrs = List.concat_map (fun m -> m.m_setjmp_addrs) modules;
  }

let pairs = Alcotest.(list (pair int int))

(* Replay a delta over a model of the installed tables; grow entries
   must name a donor that exists and already carries the same ECN. *)
let apply_delta (mt, mb) delta =
  List.iter (fun (a, e) -> Hashtbl.replace mt a e) delta.d_tary;
  List.iter (fun (s, e) -> Hashtbl.replace mb s e) delta.d_bary;
  let donor_ecn = function
    | Donor_tary a -> Hashtbl.find_opt mt a
    | Donor_bary s -> Hashtbl.find_opt mb s
  in
  List.iter
    (fun (a, e, d) ->
      Alcotest.(check (option int)) "tary donor carries class ECN" (Some e)
        (donor_ecn d);
      Hashtbl.replace mt a e)
    delta.d_tary_grow;
  List.iter
    (fun (s, e, d) ->
      Alcotest.(check (option int)) "bary donor carries class ECN" (Some e)
        (donor_ecn d);
      Hashtbl.replace mb s e)
    delta.d_bary_grow

(* The delta's specification: the whole-program diff of two consecutive
   full assignments, closed over classes.  Keys whose ECN changed dirty
   the old and the new ECN; every key of a dirty ECN is rewritten; a new
   key of a clean ECN that was installed before grows (carries a donor's
   version), one of a brand-new ECN is rewritten.  Returns the rewrite
   lists and the grow lists without donors, all sorted by key. *)
let expected_delta (pt, pb) (nt, nb) =
  let dirty = Hashtbl.create 16 and installed = Hashtbl.create 64 in
  let scan prev next =
    let prev_tbl = Hashtbl.of_seq (List.to_seq prev) in
    List.iter (fun (_, e) -> Hashtbl.replace installed e ()) prev;
    List.iter
      (fun (k, e) ->
        match Hashtbl.find_opt prev_tbl k with
        | Some e0 when e0 <> e ->
          Hashtbl.replace dirty e ();
          Hashtbl.replace dirty e0 ()
        | _ -> ())
      next;
    prev_tbl
  in
  let pt_tbl = scan pt nt and pb_tbl = scan pb nb in
  let split prev_tbl next =
    List.fold_right
      (fun (k, e) (rw, gr) ->
        if Hashtbl.mem dirty e then ((k, e) :: rw, gr)
        else if Hashtbl.mem prev_tbl k then (rw, gr)
        else if Hashtbl.mem installed e then (rw, (k, e) :: gr)
        else ((k, e) :: rw, gr))
      next ([], [])
  in
  (split pt_tbl nt, split pb_tbl nb)

let check_delta what prev (next : output) delta =
  let (trw, tgr), (brw, bgr) = expected_delta prev (next.tary, next.bary) in
  let drop = List.map (fun (k, e, _) -> (k, e)) in
  Alcotest.check pairs (what ^ ": tary rewrites") trw delta.d_tary;
  Alcotest.check pairs (what ^ ": bary rewrites") brw delta.d_bary;
  Alcotest.check pairs (what ^ ": tary grows") tgr (drop delta.d_tary_grow);
  Alcotest.check pairs (what ^ ": bary grows") bgr (drop delta.d_bary_grow)

let sorted_of_tbl tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let run_chain seed nmodules =
  let rng = Random.State.make [| seed |] in
  let modules =
    List.init nmodules (fun k -> gen_module rng ~nmodules k)
  in
  let mt = Hashtbl.create 64 and mb = Hashtbl.create 64 in
  let state = empty_state () in
  let _final =
    List.fold_left
      (fun (prev, loaded) m ->
        let m = { m with m_slot_base = state_sites state } in
        let delta = merge state m in
        let loaded = loaded @ [ m ] in
        let reference = generate (combined_input loaded) in
        check_delta
          (Printf.sprintf "seed %d: delta of module %d" seed
             (List.length loaded))
          prev reference delta;
        let inc_tary, inc_bary = state_tables state in
        Alcotest.check pairs
          (Printf.sprintf "seed %d: tary after module %d" seed
             (List.length loaded))
          reference.tary inc_tary;
        Alcotest.check pairs
          (Printf.sprintf "seed %d: bary after module %d" seed
             (List.length loaded))
          reference.bary inc_bary;
        Alcotest.(check (triple int int int))
          "stats"
          ( reference.stats.n_ibs,
            reference.stats.n_ibts,
            reference.stats.n_eqcs )
          ( (state_stats state).n_ibs,
            (state_stats state).n_ibts,
            (state_stats state).n_eqcs );
        apply_delta (mt, mb) delta;
        Alcotest.check pairs "delta replay reproduces tary" reference.tary
          (sorted_of_tbl mt);
        Alcotest.check pairs "delta replay reproduces bary" reference.bary
          (sorted_of_tbl mb);
        ((reference.tary, reference.bary), loaded))
      (([], []), [])
      modules
  in
  ()

let test_random_chains () =
  for seed = 1 to 25 do
    run_chain seed (3 + (seed mod 5))
  done

let test_merge_misuse () =
  let m =
    {
      m_env = Minic.Types.empty;
      m_functions =
        [ { fname = "f"; fty = ty_pool.(0); faddr = 0x100; faddress_taken = true } ];
      m_extern_taken = [];
      m_sites = [| Sreturn { fn = "f" } |];
      m_slot_base = 0;
      m_direct_calls = [];
      m_tail_calls = [];
      m_setjmp_addrs = [];
    }
  in
  let s = empty_state () in
  ignore (merge s m);
  Alcotest.check_raises "slot base mismatch"
    (Invalid_argument "Cfggen.merge: slot base 0, expected 1") (fun () ->
      ignore (merge s m));
  Alcotest.check_raises "duplicate definition"
    (Invalid_argument "Cfggen.merge: duplicate definition of f") (fun () ->
      ignore (merge s { m with m_slot_base = 1 }))

(* Rollback restores the pre-merge state.  Over seeded module streams,
   [state] and a twin merge the same modules; before some merges [state]
   first takes in a merge that is then undone — a clean merge rolled
   back through a checkpoint, as the loader does, or a merge that raises
   part-way and undoes itself: a duplicate definition after earlier
   functions of the same module were merged, a slot-base mismatch, or
   ECN exhaustion after every site was merged.  After each undo the
   tables and stats must equal the twin's, and so must the next merge's
   delta. *)
let test_rollback_restores () =
  let stats_triple s =
    let st = state_stats s in
    (st.n_ibs, st.n_ibts, st.n_eqcs)
  in
  let same what s twin =
    let t, b = state_tables s and t', b' = state_tables twin in
    Alcotest.check pairs (what ^ ": tary") t' t;
    Alcotest.check pairs (what ^ ": bary") b' b;
    Alcotest.(check (triple int int int)) (what ^ ": stats")
      (stats_triple twin) (stats_triple s)
  in
  for seed = 1 to 20 do
    let rng = Random.State.make [| 0xB0B; seed |] in
    let nmodules = 4 + (seed mod 4) in
    let modules = List.init nmodules (fun k -> gen_module rng ~nmodules k) in
    let s = empty_state () and twin = empty_state () in
    List.iteri
      (fun k m ->
        let what kind = Printf.sprintf "seed %d, module %d, %s" seed k kind in
        let m = { m with m_slot_base = state_sites s } in
        let raises kind bad =
          match merge s bad with
          | _ -> Alcotest.failf "%s: merge did not raise" (what kind)
          | exception Invalid_argument _ when kind <> "ECN exhaustion" ->
            same (what kind) s twin
          | exception Too_many_classes _ when kind = "ECN exhaustion" ->
            same (what kind) s twin
        in
        (match Random.State.int rng 4 with
        | 0 ->
          let cp = checkpoint s in
          ignore (merge s m);
          rollback s cp;
          same (what "clean merge undone") s twin
        | 1 when k > 0 ->
          (* the module's own functions merge first, then a definition
             of a name an earlier module owns *)
          let dup = List.hd (List.hd modules).m_functions in
          raises "duplicate definition"
            { m with m_functions = m.m_functions @ [ dup ] }
        | 2 -> raises "slot-base mismatch" { m with m_slot_base = m.m_slot_base + 1 }
        | 3 when k > 0 ->
          (* every site merges, then the assignment runs out of ECNs:
             one jump table per fresh address is one class each *)
          raises "ECN exhaustion"
            {
              m with
              m_sites =
                Array.append m.m_sites
                  (Array.init Idtables.Id.max_ecn (fun i ->
                       Sjumptable
                         { fn = "x"; target_addrs = [ 0x4000_0000 + (8 * i) ] }));
            }
        | _ -> ());
        let d = merge s m and d' = merge twin m in
        Alcotest.(check bool) (what "next delta equals the twin's") true (d = d');
        same (what "after the next merge") s twin)
      modules
  done

let cfggen_tests =
  [
    Alcotest.test_case "randomized chains: merge ≡ generate" `Quick
      test_random_chains;
    Alcotest.test_case "merge misuse raises" `Quick test_merge_misuse;
    Alcotest.test_case "rollback restores pre-merge state" `Quick
      test_rollback_restores;
  ]

(* ---------- process level: real modules through [Process.load] ---------- *)

module Process = Mcfi_runtime.Process

(* A random self-contained MiniC module: int(int) functions (sometimes
   also an int(int,int)) taken through local pointer arrays and called
   indirectly, so type classes overlap across every module of a chain. *)
let module_src rng k =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let nf = 1 + Random.State.int rng 3 in
  for i = 0 to nf - 1 do
    p "int m%d_f%d(int x) { return x * %d + %d; }\n" k i
      (1 + Random.State.int rng 5)
      (Random.State.int rng 100)
  done;
  let two = Random.State.bool rng in
  if two then
    p "int m%d_g0(int x, int y) { return x + y * %d; }\n" k
      (1 + Random.State.int rng 3);
  p "int m%d_go(int n) {\n" k;
  p "  int (*fp[%d])(int);\n" nf;
  if two then p "  int (*gp)(int, int);\n";
  p "  int s;\n  int i;\n";
  for i = 0 to nf - 1 do
    p "  fp[%d] = m%d_f%d;\n" i k i
  done;
  if two then p "  gp = m%d_g0;\n" k;
  p "  s = 0;\n";
  p "  for (i = 0; i < n; i = i + 1) {\n";
  p "    s = s + fp[i %% %d](i);\n" nf;
  if two then p "    s = s + gp(s, i);\n";
  p "  }\n  return s;\n}\n";
  Buffer.contents b

let obj_of = Testlib.obj_of
let check_oracle = Testlib.check_oracle

let test_process_chain () =
  for seed = 1 to 4 do
    let rng = Random.State.make [| 0xC0FFEE + seed |] in
    let exe =
      Mcfi.Pipeline.link_executable
        ~sources:[ ("main", "int main() { return 0; }") ]
        ()
    in
    let inc = Process.create ~incremental:true () in
    let full = Process.create ~incremental:false () in
    Process.load inc exe;
    Process.load full exe;
    let nmods = 4 + Random.State.int rng 3 in
    (* one load fails and must roll back somewhere mid-chain *)
    let fail_at = 1 + Random.State.int rng (nmods - 1) in
    for k = 0 to nmods - 1 do
      if k = fail_at then begin
        (* redefines m0_f0, which module 0 already owns: the load dies
           after layout and must leave no trace *)
        let bad =
          obj_of
            (Printf.sprintf "bad%d" seed)
            ("int m0_f0(int x) { return x; }\n" ^ module_src rng 99)
        in
        let names_before = Process.loaded_names inc in
        (match Process.load inc bad with
        | () -> Alcotest.fail "duplicate-symbol load unexpectedly succeeded"
        | exception _ -> ());
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: rollback leaves modules intact" seed)
          names_before
          (Process.loaded_names inc);
        check_oracle inc "after mid-chain rollback"
      end;
      let src = module_src rng k in
      Process.load inc (obj_of (Printf.sprintf "m%d" k) src);
      Process.load full (obj_of (Printf.sprintf "m%d" k) src);
      (* incremental tables ≡ a from-scratch generate over everything *)
      check_oracle inc (Printf.sprintf "seed %d after module %d" seed k);
      (* and the merged state agrees with the full-regeneration twin *)
      match (Process.cfg_stats inc, Process.cfg_stats full) with
      | Some a, Some b ->
        Alcotest.(check (triple int int int))
          (Printf.sprintf "seed %d: stats vs full twin after module %d" seed k)
          (b.n_ibs, b.n_ibts, b.n_eqcs)
          (a.n_ibs, a.n_ibts, a.n_eqcs)
      | _ -> Alcotest.fail "missing cfg stats"
    done
  done

(* The cost of a load must scale with the module, not the program.  A
   64-module chain shaped like the benchmark's dlopen workload — 24
   functions per module over three function-pointer types shared by
   every module, each module's entry reached from main through the PLT —
   is loaded one module at a time, and the heap allocation of each load
   is counted.  Allocation is an exact, deterministic count, so the gate
   does not depend on host speed: the mean over loads 49–64 must stay
   within 1.25x of the mean over loads 9–24.  Work proportional to the
   loaded program (copying the merge state or the symbol maps,
   reassigning every ECN, diffing every slot) makes it grow ~1.7x. *)
let chain_modules = 64
let chain_fns = 24

let chain_module rng k =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let params = [| ""; "int"; "int, int"; "int, int, int" |] in
  let arity =
    Array.init chain_fns (fun i ->
        if i < 6 then 1 + (i mod 3) else 1 + Random.State.int rng 3)
  in
  Array.iteri
    (fun i a ->
      let args = List.init a (fun j -> Printf.sprintf "x%d" j) in
      p "int m%d_f%d(%s) { return %s + %d; }
" k i
        (String.concat ", " (List.map (( ^ ) "int ") args))
        (String.concat " + " args) (1 + Random.State.int rng 9))
    arity;
  p "int m%d_go(int n) {
  int s;
" k;
  List.iter
    (fun a ->
      let fs = List.filter (fun i -> arity.(i) = a) (List.init chain_fns Fun.id) in
      p "  int (*t%d[%d])(%s);
" a (List.length fs) params.(a);
      List.iteri (fun j i -> p "  t%d[%d] = m%d_f%d;
" a j k i) fs;
      p "  s = s + t%d[n %% %d](%s);
" a (List.length fs)
        (String.concat ", " (List.init a (fun _ -> "n"))))
    [ 1; 2; 3 ];
  p "  return s;
}
";
  Buffer.contents b

let test_load_allocation_scales () =
  let rng = Random.State.make [| 1 |] in
  let chain =
    List.init chain_modules (fun k ->
        (Printf.sprintf "m%d" k, chain_module rng k))
  in
  let main =
    String.concat ""
      (List.init chain_modules (Printf.sprintf "extern int m%d_go(int n);\n"))
    ^ "int main() {\n  int s;\n  s = 0;\n"
    ^ String.concat ""
        (List.init chain_modules (fun k -> Printf.sprintf "  s = s + m%d_go(%d);\n" k k))
    ^ "  return s;\n}\n"
  in
  let exe =
    Mcfi.Pipeline.link_executable ~sources:[ ("main", main) ] ~dynamic:chain ()
  in
  let objs = List.map (fun (name, src) -> obj_of name src) chain in
  let proc = Process.create () in
  Process.load proc exe;
  let words =
    Array.of_list
      (List.map
         (fun obj ->
           let before = Gc.allocated_bytes () in
           Process.load proc obj;
           Gc.allocated_bytes () -. before)
         objs)
  in
  check_oracle proc "after the chain";
  (* loads are numbered from 1 *)
  let mean first last =
    let sum = ref 0.0 in
    for i = first to last do
      sum := !sum +. words.(i - 1)
    done;
    !sum /. float_of_int (last - first + 1)
  in
  let early = mean 9 24 and late = mean 49 64 in
  if late > 1.25 *. early then
    Alcotest.failf
      "per-load allocation grows with the program: %.0f bytes over loads \
       9-24, %.0f over loads 49-64 (%.2fx > 1.25x)"
      early late (late /. early)

(* The flight recorder's class names describe the installed classes,
   never a merge that was undone.  Module B joins "alpha" to the int(int)
   class that module A's "zeta" started, which would rename its ECN
   "alpha+1"; but B's load fails its self-check (the version of A's
   call site in that class was corrupted first, B's delta grows the
   class without rewriting it, so the class is not version-uniform) and
   rolls back, so the class must still be named "zeta". *)
let test_namer_after_failed_load () =
  let proc = Process.create ~self_check:true () in
  Process.load proc
    (obj_of "a"
       "int zeta(int x) { return x; }\n\
        int a_go(int n) { int (*fp)(int); fp = zeta; return fp(n); }\n");
  let n_eqcs =
    match Process.cfg_stats proc with
    | Some st -> st.n_eqcs
    | None -> Alcotest.fail "no cfg stats"
  in
  let e =
    match
      List.find_opt
        (fun e -> Obs.Flightrec.ecn_name e = "zeta")
        (List.init n_eqcs Fun.id)
    with
    | Some e -> e
    | None -> Alcotest.fail "no class is named after zeta"
  in
  let tables = Option.get (Process.tables proc) in
  List.iter
    (fun (slot, id) ->
      if Idtables.Id.ecn id = e then
        Idtables.Tables.bary_set tables slot
          (Idtables.Id.pack ~ecn:e ~version:(Idtables.Id.version id + 1)))
    (Idtables.Tables.bary_entries tables);
  (match
     Process.load proc
       (obj_of "b"
          "int alpha(int x) { return x + 1; }\n\
           int b_go(int n) { int (*fp)(int); fp = alpha; return fp(n); }\n")
   with
  | () -> Alcotest.fail "load over corrupted tables passed its self-check"
  | exception Process.Error _ -> ());
  Alcotest.(check (list string)) "b rolled back" [ "a" ] (Process.loaded_names proc);
  Alcotest.(check string) "class keeps its installed name" "zeta"
    (Obs.Flightrec.ecn_name e)

let process_tests =
  [
    Alcotest.test_case "namer after a failed self-check" `Quick
      test_namer_after_failed_load;
    Alcotest.test_case "randomized dlopen chains with rollback" `Quick
      test_process_chain;
    Alcotest.test_case "per-load allocation is flat"
      `Quick test_load_allocation_scales;
  ]

let () =
  Alcotest.run "incremental"
    [ ("cfggen-oracle", cfggen_tests); ("process-oracle", process_tests) ]
