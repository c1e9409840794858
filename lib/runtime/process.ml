module Instr = Vmisa.Instr
module Asm = Vmisa.Asm
module Abi = Vmisa.Abi
module Objfile = Mcfi_compiler.Objfile
module Tables = Idtables.Tables
module Tx = Idtables.Tx

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---- install-span telemetry ----

   Each phase of the dynamic-linking protocol is bracketed by
   Span_begin/Span_end trace events (balanced even when a phase dies on
   an injected fault — the end is emitted on the unwind) and feeds a
   per-phase duration histogram, so a slow install can be attributed to
   extraction, merge, journalling, table writes or the oracle. *)
let m_load_extract = Telemetry.Metrics.histogram "mcfi_load_extract_ns"
let m_load_merge = Telemetry.Metrics.histogram "mcfi_load_merge_ns"
let m_load_journal = Telemetry.Metrics.histogram "mcfi_load_journal_ns"
let m_load_table_write = Telemetry.Metrics.histogram "mcfi_load_table_write_ns"
let m_load_oracle = Telemetry.Metrics.histogram "mcfi_load_oracle_ns"
let m_load_total = Telemetry.Metrics.histogram "mcfi_load_total_ns"

let span phase hist ~load f =
  if not (Telemetry.enabled ()) then f ()
  else begin
    Telemetry.emit Telemetry.Event.Span_begin ~a:phase ~b:load ~c:0;
    let t0 = Telemetry.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let ns = Telemetry.now_ns () - t0 in
        Telemetry.Metrics.observe hist ns;
        Telemetry.emit Telemetry.Event.Span_end ~a:phase ~b:load ~c:ns)
      f
  end

(* What a process keeps per loaded module: its name and its CFG
   contribution.  The object file and the assembled program are dead
   once [load] returns, so they are not retained. *)
type loaded = {
  lm_name : string;
  (* the module's CFG contribution, extracted once at load time — both
     the incremental merge and full regeneration (the differential
     oracle, the analyzers) consume this memo instead of re-walking the
     object file *)
  lm_input : Cfg.Cfggen.module_input;
}

type t = {
  instrumented : bool;
  sandbox : Abi.sandbox;
  verify : bool;
  incremental : bool;
  self_check : bool;
  registry : string -> Objfile.t option;
  mach : Machine.t;
  tables : Tables.t option;
  mutable loaded : loaded list; (* reverse load order *)
  code_symbols : (string, int) Hashtbl.t;
  data_symbols : (string, int) Hashtbl.t;
  mutable next_slot : int;
  mutable pending_got : (string * int) list; (* symbol, got data address *)
  cfg_state : Cfg.Cfggen.state;
  mutable last_stats : Cfg.Cfggen.stats option;
  mutable cfg_ms : float;
  mutable n_updates : int;
}

let create ?(instrumented = true) ?(sandbox = Abi.Mask) ?verify
    ?(incremental = true) ?(self_check = false) ?(registry = fun _ -> None)
    ?(code_capacity = 1 lsl 22) ?(data_words = Abi.sandbox_words)
    ?(bary_slots = 8192) ?dispatch ?(seed = 1L) () =
  let tables =
    if instrumented then
      (* coverage starts empty and grows as modules load *)
      Some
        (Tables.create ~covered:0 ~code_base:Abi.code_base
           ~capacity:code_capacity ~bary_slots ())
    else None
  in
  let mach =
    Machine.create ?tables ?dispatch ~seed ~code_base:Abi.code_base
      ~code_capacity ~data_words ()
  in
  Machine.set_brk mach 1 (* word 0 is the unmapped NULL page *);
  let t =
    {
      instrumented;
      sandbox;
      verify = Option.value verify ~default:instrumented;
      incremental;
      self_check;
      registry;
      mach;
      tables;
      loaded = [];
      code_symbols = Hashtbl.create 128;
      data_symbols = Hashtbl.create 128;
      next_slot = 0;
      pending_got = [];
      cfg_state = Cfg.Cfggen.empty_state ();
      last_stats = None;
      cfg_ms = 0.0;
      n_updates = 0;
    }
  in
  t

let machine t = t.mach
let tables t = t.tables
let lookup_code t s = Hashtbl.find_opt t.code_symbols s
let lookup_data t s = Hashtbl.find_opt t.data_symbols s
let cfg_stats t = t.last_stats
let cfg_gen_time_ms t = t.cfg_ms
let updates t = t.n_updates

let bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let code_symbol_bindings t = bindings t.code_symbols
let data_symbol_bindings t = bindings t.data_symbols
let loaded_names t = List.rev_map (fun lm -> lm.lm_name) t.loaded

(* ---- the load journal (failure-atomic dynamic linking) ----

   Everything [load] mutates, captured before the protocol touches the
   process, or logged as the protocol goes (the symbols it publishes,
   the CFG merge state's trail).  On any failure — verifier rejection,
   symbol clash, capacity overflow, injected fault, even one that
   strikes between the update transaction's two phases — [rollback]
   reinstates this record, so a failed load is observationally a no-op.
   Capturing and committing cost O(1) in the loaded program. *)
type load_journal = {
  pj_code_end : int;
  pj_brk : int;
  pj_next_slot : int;
  pj_loaded : loaded list;
  (* symbols this load published; load never rebinds an existing one *)
  mutable pj_code_added : string list;
  mutable pj_data_added : string list;
  pj_pending_got : (string * int) list;
  pj_got_words : (int * int) list; (* unresolved GOT slot -> word before *)
  (* Table rollback state.  The full-regeneration path snapshots both
     complete tables ([pj_tables], the historical behaviour).  The
     incremental path snapshots only what its delta install touches:
     [pj_base_slots] captures the scalar state (version, code size, ABA
     counter, journal) with no slots at load start, and the install's
     [pre_install] hook — under the update lock, after recovery and
     validation — fills [pj_touched] with the raw words of exactly the
     slots about to be written. *)
  pj_tables : Idtables.Tables.snapshot option;
  pj_base_slots : Idtables.Tables.slot_snapshot option;
  pj_touched : Idtables.Tables.slot_snapshot option ref;
  (* the merge state is mutated in place; rollback undoes its trail *)
  pj_cfg : Cfg.Cfggen.checkpoint;
  pj_n_updates : int;
  pj_last_stats : Cfg.Cfggen.stats option;
  pj_cfg_ms : float;
}

let capture_journal t =
  {
    pj_code_end = Machine.code_end t.mach;
    pj_brk = Machine.brk t.mach;
    pj_next_slot = t.next_slot;
    pj_loaded = t.loaded;
    pj_code_added = [];
    pj_data_added = [];
    pj_pending_got = t.pending_got;
    pj_got_words =
      List.map
        (fun (_, addr) -> (addr, Machine.read_data t.mach addr))
        t.pending_got;
    pj_tables =
      (if t.incremental then None
       else Option.map Idtables.Tables.snapshot t.tables);
    pj_base_slots =
      (if t.incremental then
         Option.map
           (fun tables -> Idtables.Tables.snapshot_slots tables ~tary:[] ~bary:[])
           t.tables
       else None);
    pj_touched = ref None;
    pj_cfg = Cfg.Cfggen.checkpoint t.cfg_state;
    pj_n_updates = t.n_updates;
    pj_last_stats = t.last_stats;
    pj_cfg_ms = t.cfg_ms;
  }

let rollback t j =
  Telemetry.emit Telemetry.Event.Update_rollback
    ~a:(List.length t.loaded - List.length j.pj_loaded)
    ~b:0 ~c:0;
  (* data words the failed load allocated revert to zero *)
  for a = j.pj_brk to Machine.brk t.mach - 1 do
    Machine.write_data t.mach a 0
  done;
  Machine.set_brk t.mach j.pj_brk;
  (* GOT slots the interrupted update transaction may have bound *)
  List.iter (fun (addr, v) -> Machine.write_data t.mach addr v) j.pj_got_words;
  Machine.truncate_code t.mach ~code_end:j.pj_code_end;
  (match (t.tables, j.pj_tables) with
  | Some tables, Some s -> Idtables.Tables.restore tables s
  | _ -> ());
  (match (t.tables, j.pj_base_slots) with
  | Some tables, Some base ->
    (* The touched-slot capture reflects the table just before the delta
       install's first write (post-recovery of any torn predecessor,
       which rollback must not undo); the code size must come from the
       load-start capture — the extend happened in between. *)
    let ss =
      match !(j.pj_touched) with
      | Some touched ->
        { touched with Idtables.Tables.ss_code_size = base.ss_code_size }
      | None -> base
    in
    Idtables.Tables.restore_slots tables ss
  | _ -> ());
  t.next_slot <- j.pj_next_slot;
  t.loaded <- j.pj_loaded;
  List.iter (Hashtbl.remove t.code_symbols) j.pj_code_added;
  List.iter (Hashtbl.remove t.data_symbols) j.pj_data_added;
  t.pending_got <- j.pj_pending_got;
  Cfg.Cfggen.rollback t.cfg_state j.pj_cfg;
  t.n_updates <- j.pj_n_updates;
  t.last_stats <- j.pj_last_stats;
  t.cfg_ms <- j.pj_cfg_ms;
  Faults.Stats.count_rollback ()

(* Extract one module's CFG contribution — the per-module memo cached in
   [loaded] at load time, consumed by both the incremental merge and the
   full-regeneration view below.  Needs the module's assembled labels and
   the (just published) global code symbols for function addresses. *)
let extract_module_input t (obj : Objfile.t) (prog : Asm.program) ~slot_base :
    Cfg.Cfggen.module_input =
  let label_addr l =
    match Hashtbl.find_opt prog.Asm.labels l with
    | Some a -> a
    | None -> fail "internal: missing label %s in module %s" l obj.Objfile.o_name
  in
  let functions =
    List.filter_map
      (fun (fi : Objfile.fn_info) ->
        if not fi.fi_defined then None
        else
          match Hashtbl.find_opt t.code_symbols fi.fi_name with
          | Some addr ->
            Some
              {
                Cfg.Cfggen.fname = fi.fi_name;
                fty = fi.fi_ty;
                faddr = addr;
                faddress_taken = fi.fi_address_taken;
              }
          | None -> None)
      obj.Objfile.o_functions
  in
  let extern_taken =
    List.filter_map
      (fun (fi : Objfile.fn_info) ->
        if fi.fi_address_taken && not fi.fi_defined then Some fi.fi_name
        else None)
      obj.Objfile.o_functions
  in
  let sites =
    Array.of_list
      (List.map
         (function
           | Objfile.Site_return { fn } -> Cfg.Cfggen.Sreturn { fn }
           | Objfile.Site_icall { fn; ty; ret_label } ->
             Cfg.Cfggen.Sicall { fn; ty; ret_addr = label_addr ret_label }
           | Objfile.Site_itail { fn; ty } -> Cfg.Cfggen.Sitail { fn; ty }
           | Objfile.Site_jumptable { fn; targets } ->
             Cfg.Cfggen.Sjumptable
               { fn; target_addrs = List.map label_addr targets }
           | Objfile.Site_longjmp { fn } -> Cfg.Cfggen.Slongjmp { fn }
           | Objfile.Site_plt { symbol } -> Cfg.Cfggen.Splt { symbol })
         obj.Objfile.o_sites)
  in
  {
    Cfg.Cfggen.m_env = obj.Objfile.o_tyenv;
    m_functions = functions;
    m_extern_taken = extern_taken;
    m_sites = sites;
    m_slot_base = slot_base;
    m_direct_calls =
      List.map
        (fun (dc : Objfile.direct_call) ->
          (dc.dc_caller, dc.dc_callee, label_addr dc.dc_ret))
        obj.Objfile.o_direct_calls;
    m_tail_calls = obj.Objfile.o_tail_calls;
    m_setjmp_addrs = List.map label_addr obj.Objfile.o_setjmp_sites;
  }

module SSet = Set.Make (String)

(* Build the whole-program CFG-generator view from the per-module memos.
   Address-taken is a union across modules (any taker flags the defining
   module's function), exactly what [Cfggen.merge] computes internally. *)
let cfg_input t : Cfg.Cfggen.input =
  let inputs = List.rev_map (fun lm -> lm.lm_input) t.loaded in
  let taken =
    List.fold_left
      (fun acc (m : Cfg.Cfggen.module_input) ->
        let acc =
          List.fold_left
            (fun acc (f : Cfg.Cfggen.fn) ->
              if f.faddress_taken then SSet.add f.fname acc else acc)
            acc m.m_functions
        in
        List.fold_left (fun acc n -> SSet.add n acc) acc m.m_extern_taken)
      SSet.empty inputs
  in
  {
    Cfg.Cfggen.env =
      Minic.Types.merge
        (List.map (fun (m : Cfg.Cfggen.module_input) -> m.m_env) inputs);
    functions =
      List.concat_map
        (fun (m : Cfg.Cfggen.module_input) ->
          List.map
            (fun (f : Cfg.Cfggen.fn) ->
              { f with Cfg.Cfggen.faddress_taken = SSet.mem f.fname taken })
            m.m_functions)
        inputs;
    sites =
      Array.concat
        (List.map (fun (m : Cfg.Cfggen.module_input) -> m.m_sites) inputs);
    direct_calls =
      List.concat_map
        (fun (m : Cfg.Cfggen.module_input) -> m.m_direct_calls)
        inputs;
    tail_calls =
      List.concat_map
        (fun (m : Cfg.Cfggen.module_input) -> m.m_tail_calls)
        inputs;
    setjmp_addrs =
      List.concat_map
        (fun (m : Cfg.Cfggen.module_input) -> m.m_setjmp_addrs)
        inputs;
  }

(* The differential oracle: a from-scratch [Cfggen.generate] over the
   union view must agree bit-for-bit with (a) the incrementally
   maintained assignment and (b) the ECNs actually installed in the live
   tables — and every equivalence class must be version-uniform (the
   carry rule's invariant: a class is readable iff all its slots agree
   on version). *)
let oracle_check t =
  match t.tables with
  | None -> Ok ()
  | Some tables ->
    let out = Cfg.Cfggen.generate (cfg_input t) in
    let inc_tary, inc_bary = Cfg.Cfggen.state_tables t.cfg_state in
    let live_tary =
      List.map
        (fun (a, id) -> (a, Idtables.Id.ecn id))
        (Tables.tary_entries tables)
    in
    let live_bary =
      List.map
        (fun (k, id) -> (k, Idtables.Id.ecn id))
        (Tables.bary_entries tables)
    in
    let versions = Hashtbl.create 64 in
    let uniform = ref true in
    List.iter
      (fun (_, id) ->
        let e = Idtables.Id.ecn id and v = Idtables.Id.version id in
        match Hashtbl.find_opt versions e with
        | Some v' when v' <> v -> uniform := false
        | Some _ -> ()
        | None -> Hashtbl.add versions e v)
      (Tables.tary_entries tables @ Tables.bary_entries tables);
    if t.incremental && inc_tary <> out.Cfg.Cfggen.tary then
      Error "incremental Tary assignment diverges from full regeneration"
    else if t.incremental && inc_bary <> out.Cfg.Cfggen.bary then
      Error "incremental Bary assignment diverges from full regeneration"
    else if
      t.incremental
      && Some (Cfg.Cfggen.state_stats t.cfg_state) <> t.last_stats
    then Error "incremental stats diverge"
    else if live_tary <> out.Cfg.Cfggen.tary then
      Error "live Tary table diverges from full regeneration"
    else if live_bary <> out.Cfg.Cfggen.bary then
      Error "live Bary table diverges from full regeneration"
    else if not !uniform then
      Error "an equivalence class is not version-uniform"
    else Ok ()

(* Install the new CFG with one update transaction, binding newly
   resolvable GOT entries between the two phases (paper §5.2).

   Full mode regenerates from scratch and rewrites both tables
   ([Tx.update]); incremental mode merges only the new module into the
   long-lived merge state and installs the returned delta ([Tx.update_delta]),
   journalling the touched slots into the load journal's partial
   snapshot from the transaction's [pre_install] hook. *)
let update_cfg t j new_module =
  match t.tables with
  | None -> ()
  | Some tables ->
    let got_update () =
      Faults.hit Faults.Plan.During_got_update;
      t.pending_got <-
        List.filter
          (fun (symbol, got_addr) ->
            match Hashtbl.find_opt t.code_symbols symbol with
            | Some addr ->
              Machine.write_data t.mach got_addr addr;
              false
            | None -> true)
          t.pending_got
    in
    let load = t.n_updates in
    (if t.incremental then begin
       let t0 = Unix.gettimeofday () in
       let delta =
         span Telemetry.Event.phase_merge m_load_merge ~load (fun () ->
             Cfg.Cfggen.merge t.cfg_state new_module)
       in
       t.cfg_ms <- t.cfg_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
       t.last_stats <- Some delta.Cfg.Cfggen.d_stats;
       let source = function
         | Cfg.Cfggen.Donor_tary a -> Tx.From_tary a
         | Cfg.Cfggen.Donor_bary k -> Tx.From_bary k
       in
       let tary_carry =
         List.map (fun (a, e, d) -> (a, e, source d)) delta.Cfg.Cfggen.d_tary_grow
       in
       let bary_carry =
         List.map (fun (k, e, d) -> (k, e, source d)) delta.Cfg.Cfggen.d_bary_grow
       in
       let pre_install () =
         span Telemetry.Event.phase_journal m_load_journal ~load (fun () ->
             j.pj_touched :=
               Some
                 (Tables.snapshot_slots tables
                    ~tary:
                      (List.map fst delta.Cfg.Cfggen.d_tary
                      @ List.map
                          (fun (a, _, _) -> a)
                          delta.Cfg.Cfggen.d_tary_grow)
                    ~bary:
                      (List.map fst delta.Cfg.Cfggen.d_bary
                      @ List.map
                          (fun (k, _, _) -> k)
                          delta.Cfg.Cfggen.d_bary_grow)))
       in
       span Telemetry.Event.phase_table_write m_load_table_write ~load
         (fun () ->
           ignore
             (Tx.update_delta ~got_update ~pre_install tables
                ~tary:delta.Cfg.Cfggen.d_tary ~bary:delta.Cfg.Cfggen.d_bary
                ~tary_carry ~bary_carry))
     end
     else begin
       let t0 = Unix.gettimeofday () in
       let out =
         span Telemetry.Event.phase_merge m_load_merge ~load (fun () ->
             Cfg.Cfggen.generate (cfg_input t))
       in
       t.cfg_ms <- t.cfg_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
       t.last_stats <- Some out.Cfg.Cfggen.stats;
       span Telemetry.Event.phase_table_write m_load_table_write ~load
         (fun () ->
           ignore
             (Tx.update ~got_update tables ~tary:out.Cfg.Cfggen.tary
                ~bary:out.Cfg.Cfggen.bary))
     end);
    t.n_updates <- t.n_updates + 1;
    if t.self_check then
      match
        span Telemetry.Event.phase_oracle m_load_oracle ~load (fun () ->
            oracle_check t)
      with
      | Ok () -> ()
      | Error msg -> fail "differential oracle: %s" msg

(* The unprotected body of the dynamic-linking protocol.  Callers go
   through [load], which journals the process first; [j] is that journal
   (the delta install stashes its touched-slot snapshot there). *)
let load_protocol t j (obj : Objfile.t) =
  if obj.o_instrumented <> t.instrumented then
    fail "module %s is %sinstrumented but the process is %s" obj.o_name
      (if obj.o_instrumented then "" else "not ")
      (if t.instrumented then "MCFI" else "plain");
  (* 1. slot re-basing *)
  let slot_base = t.next_slot in
  let nsites = List.length obj.o_sites in
  let items =
    if slot_base = 0 then obj.o_items
    else
      List.map
        (function
          | Asm.I (Instr.Bary_load (r, k)) ->
            Asm.I (Instr.Bary_load (r, k + slot_base))
          | item -> item)
        obj.o_items
  in
  let obj = { obj with Objfile.o_items = items } in
  (* 2. data layout: globals (and GOT slots) go to fresh data words *)
  let new_data =
    List.map
      (fun (d : Objfile.data_def) ->
        if Hashtbl.mem t.data_symbols d.d_name then
          fail "duplicate global %s" d.d_name;
        let addr = Machine.sbrk t.mach (List.length d.d_words) in
        (d, addr))
      obj.o_data
  in
  List.iter
    (fun ((d : Objfile.data_def), addr) ->
      Hashtbl.replace t.data_symbols d.d_name addr;
      j.pj_data_added <- d.d_name :: j.pj_data_added)
    new_data;
  (* 3. code layout at the next free (16-aligned) code address *)
  let base =
    let e = Machine.code_end t.mach in
    (e + 15) land lnot 15
  in
  let resolve_code s = Hashtbl.find_opt t.code_symbols s in
  let resolve_data s = Hashtbl.find_opt t.data_symbols s in
  let prog =
    match Asm.assemble ~base ~resolve_code ~resolve_data obj.o_items with
    | Ok prog -> prog
    | Error e -> fail "module %s: %s" obj.o_name (Fmt.str "%a" Asm.pp_error e)
  in
  (* 4. verification before the code becomes executable *)
  if t.verify && t.instrumented then begin
    Faults.hit Faults.Plan.During_verification;
    match
      Verifier.verify ~sandbox:t.sandbox ~obj ~prog ~slot_base
        ~slot_count:nsites ()
    with
    | Ok () -> ()
    | Error issues ->
      fail "module %s failed verification: %s" obj.o_name
        (String.concat "; "
           (List.map (fun i -> Fmt.str "%a" Verifier.pp_issue i) issues))
  end;
  (* 5. publish symbols *)
  Hashtbl.iter
    (fun label addr ->
      if Hashtbl.mem t.code_symbols label then
        fail "duplicate code symbol %s" label;
      Hashtbl.replace t.code_symbols label addr;
      j.pj_code_added <- label :: j.pj_code_added)
    prog.Asm.labels;
  (* 6. initialize data (relocations resolve against the updated tables) *)
  List.iter
    (fun ((d : Objfile.data_def), addr) ->
      List.iteri
        (fun k word ->
          let v =
            match word with
            | Objfile.Dint v -> v
            | Objfile.Dsym_code s -> begin
              match Hashtbl.find_opt t.code_symbols s with
              | Some a -> a
              | None -> fail "module %s: unresolved code symbol %s" obj.o_name s
            end
            | Objfile.Dsym_data s -> begin
              match Hashtbl.find_opt t.data_symbols s with
              | Some a -> a
              | None -> fail "module %s: unresolved data symbol %s" obj.o_name s
            end
          in
          Machine.write_data t.mach (addr + k) v)
        d.d_words)
    new_data;
  (* 7. map the code: pad up to the module base, then the image *)
  let pad = base - Machine.code_end t.mach in
  if pad > 0 then ignore (Machine.append_code t.mach (String.make pad '\x01'));
  ignore (Machine.append_code t.mach prog.Asm.image);
  (match t.tables with
  | Some tables ->
    let covered = Tables.code_size tables in
    let need = Machine.code_end t.mach - Abi.code_base in
    if need > covered then Tables.extend tables (need - covered)
  | None -> ());
  (* 8. register GOT slots awaiting resolution *)
  List.iter
    (function
      | Objfile.Site_plt { symbol } -> begin
        match
          Hashtbl.find_opt t.data_symbols
            (Instrument.Rewriter.got_symbol symbol)
        with
        | Some got_addr -> t.pending_got <- (symbol, got_addr) :: t.pending_got
        | None -> fail "PLT entry for %s without a GOT slot" symbol
      end
      | _ -> ())
    obj.o_sites;
  t.next_slot <- slot_base + nsites;
  let lm_input =
    span Telemetry.Event.phase_extract m_load_extract ~load:t.n_updates
      (fun () -> extract_module_input t obj prog ~slot_base)
  in
  t.loaded <- { lm_name = obj.o_name; lm_input } :: t.loaded;
  (* 9. generate and install the CFG (one update transaction): merge the
     new module into the merge state, or regenerate from scratch *)
  update_cfg t j lm_input

let load t obj =
  let j = capture_journal t in
  match
    span Telemetry.Event.phase_load m_load_total ~load:t.n_updates (fun () ->
        load_protocol t j obj)
  with
  | () ->
    Cfg.Cfggen.commit t.cfg_state j.pj_cfg;
    (* Hand the flight recorder human names for the classes the tables
       now hold, so a bundle says "ecn 7 (qsort_cmp+2)" instead of just
       the number.  The namer reads the live merge state on demand, so
       it always describes what is installed — a later load that rolls
       back leaves nothing behind in it.  The regenerate path keeps the
       last namer and unknown classes fall back to "ecn-<n>". *)
    if t.incremental && Option.is_some t.tables then
      Obs.Flightrec.set_ecn_namer (Cfg.Cfggen.class_name t.cfg_state)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    rollback t j;
    Printexc.raise_with_backtrace e bt

let start t =
  match Hashtbl.find_opt t.code_symbols "_start" with
  | Some entry ->
    Machine.set_pc t.mach entry;
    (* wire the dynamic linker *)
    Machine.set_dl_handler t.mach (fun _m num name ->
        if num = Abi.sys_dlopen then begin
          match
            Faults.hit Faults.Plan.Registry_lookup;
            t.registry name
          with
          | Some obj -> (
            (* [load] has already rolled the process back when any of
               these surface: dlopen reports failure, nothing changed *)
            match load t obj with
            | () -> 0
            | exception
                ( Error _ | Faults.Injected _ | Invalid_argument _
                | Idtables.Tx.Version_space_exhausted
                | Cfg.Cfggen.Too_many_classes _ ) ->
              -1)
          | None -> -1
          | exception Faults.Injected _ -> -1
        end
        else
          match Hashtbl.find_opt t.code_symbols name with
          | Some addr -> addr
          | None -> 0)
  | None -> fail "no _start symbol: link Linker.start_module"

let run ?fuel t =
  start t;
  Machine.run ?fuel t.mach

(* Crash-only teardown: release the epoch registration first (a corpse
   must never gate quiescence), then complete any install transaction
   this process died inside of — the journal redo takes the update lock,
   so a live peer updater is waited out, and a dead holder's lock was
   already released by [with_update_lock]'s unwind. *)
let teardown t =
  Machine.release t.mach;
  match t.tables with
  | None -> ()
  | Some tables -> ignore (Tx.recover tables)
