(* The fault-injection differential oracle.

   For every trigger point in [Faults.Plan], a fault is injected into the
   dynamic-linking protocol and the oracle asserts one of exactly two
   outcomes: the operation raised cleanly and the process state (code,
   tables, symbol maps, data break) equals the pre-operation snapshot, or
   the operation completed and the state equals the no-fault run's.  Never
   a third.  On top of the sweep: torn-update detection and recovery at
   the transaction level, the bounded-retry escalation policy, and
   regression coverage for the pre-existing unhappy paths (each must leave
   the process usable). *)

module Process = Mcfi_runtime.Process
module Machine = Mcfi_runtime.Machine
module Linker = Mcfi_runtime.Linker
module Tables = Idtables.Tables
module Tx = Idtables.Tx
module Id = Idtables.Id
module Objfile = Mcfi_compiler.Objfile
module Plan = Faults.Plan
module Instr = Vmisa.Instr
module Asm = Vmisa.Asm

(* ------------------------------------------------------------------ *)
(* scenario: an exe that dlopens a plugin through the PLT, so the plugin
   load resolves a pending GOT slot between the two update phases *)

let main_src =
  {|
extern int plugin_val(int x);
int main() {
  if (dlopen("plugin") != 0) { print_str("no"); return 1; }
  print_int(plugin_val(21));
  return 0;
}|}

let plugin_src = {|
int plugin_val(int x) { return x * 2; }
|}

let plugin_obj =
  lazy
    (Mcfi.Pipeline.instrument
       (Mcfi.Pipeline.compile_module ~name:"plugin"
          (Suite.Libc.header ^ plugin_src)))

let mk_proc () =
  Mcfi.Pipeline.build_process ~sources:[ ("main", main_src) ]
    ~dynamic:[ ("plugin", plugin_src) ] ()

(* ------------------------------------------------------------------ *)
(* the observable process state the oracle compares *)

type obs = {
  o_code_end : int;
  o_brk : int;
  o_version : int option;
  o_code_size : int option;
  o_tary : (int * int) list;
  o_bary : (int * int) list;
  o_code_syms : (string * int) list;
  o_data_syms : (string * int) list;
  o_loaded : string list;
  o_updates : int;
}

let observe proc =
  let m = Process.machine proc in
  let tb = Process.tables proc in
  {
    o_code_end = Machine.code_end m;
    o_brk = Machine.brk m;
    o_version = Option.map Tables.version tb;
    o_code_size = Option.map Tables.code_size tb;
    o_tary = (match tb with None -> [] | Some t -> Tables.tary_entries t);
    o_bary = (match tb with None -> [] | Some t -> Tables.bary_entries t);
    o_code_syms = Process.code_symbol_bindings proc;
    o_data_syms = Process.data_symbol_bindings proc;
    o_loaded = Process.loaded_names proc;
    o_updates = Process.updates proc;
  }

let check_obs name a b =
  if a <> b then
    Alcotest.failf
      "%s: states differ (code_end 0x%x vs 0x%x, brk %d vs %d, version %s \
       vs %s, %d vs %d tary entries, %d vs %d code syms, modules [%s] vs \
       [%s])"
      name a.o_code_end b.o_code_end a.o_brk b.o_brk
      (match a.o_version with None -> "-" | Some v -> string_of_int v)
      (match b.o_version with None -> "-" | Some v -> string_of_int v)
      (List.length a.o_tary) (List.length b.o_tary)
      (List.length a.o_code_syms)
      (List.length b.o_code_syms)
      (String.concat "," a.o_loaded)
      (String.concat "," b.o_loaded)

(* the no-fault reference: state before and after a clean plugin load *)
let reference =
  lazy
    (let proc = mk_proc () in
     let pre = observe proc in
     Process.load proc (Lazy.force plugin_obj);
     (pre, observe proc))

(* ------------------------------------------------------------------ *)
(* the sweep *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

type outcome = Completed | Raised of exn

let try_load proc obj =
  match Process.load proc obj with () -> Completed | exception e -> Raised e

let sweep_oracle name plan =
  let pre_ref, ok_ref = Lazy.force reference in
  let proc = mk_proc () in
  check_obs (name ^ ": fresh process matches reference") (observe proc) pre_ref;
  Faults.arm plan;
  let r = try_load proc (Lazy.force plugin_obj) in
  Faults.disarm ();
  match r with
  | Raised (Faults.Injected _) ->
    check_obs (name ^ ": rolled back to pre-state") (observe proc) pre_ref;
    (* the process must be fully usable: the same load now succeeds and
       converges on the exact no-fault state *)
    Process.load proc (Lazy.force plugin_obj);
    check_obs (name ^ ": reload reaches no-fault state") (observe proc) ok_ref
  | Raised e ->
    Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
  | Completed ->
    (* the plan never fired (e.g. fewer hook crossings than [hit]) — then
       the run must be indistinguishable from the no-fault one *)
    check_obs (name ^ ": completed = no-fault state") (observe proc) ok_ref

let sweep_cases =
  [
    ("nth-tary-write hit 1", Plan.At { point = Plan.Nth_tary_write; hit = 1 });
    ("nth-tary-write hit 7", Plan.At { point = Plan.Nth_tary_write; hit = 7 });
    ( "between-tary-and-bary",
      Plan.At { point = Plan.Between_tary_and_bary; hit = 1 } );
    ("after-code-append hit 1", Plan.At { point = Plan.After_code_append; hit = 1 });
    ("after-code-append hit 2", Plan.At { point = Plan.After_code_append; hit = 2 });
    ("during-verification", Plan.At { point = Plan.During_verification; hit = 1 });
    ("during-got-update", Plan.At { point = Plan.During_got_update; hit = 1 });
  ]

let test_sweep () =
  List.iter (fun (name, plan) -> sweep_oracle name plan) sweep_cases

(* The same sweep in the middle of a chain: eight modules whose
   function-pointer types overlap are loaded first, so the faulted ninth
   load grows classes that already have members and installs carries,
   and its rollback undoes the CFG merge over a grown state. *)
let chain_len = 8

let chain_src k =
  let b = Buffer.create 512 in
  let p fmt = Printf.bprintf b fmt in
  p "int c%d_f0(int x) { return x + %d; }\n" k k;
  p "int c%d_f1(int x) { return x * %d; }\n" k (k + 2);
  p "int c%d_g0(int x, int y) { return x - y + %d; }\n" k k;
  p "int c%d_go(int n) {\n" k;
  p "  int (*t[2])(int);\n  int (*g)(int, int);\n";
  p "  t[0] = c%d_f0;\n  t[1] = c%d_f1;\n  g = c%d_g0;\n" k k k;
  p "  return g(t[n %% 2](n), n);\n}\n";
  Buffer.contents b

let chain_main =
  String.concat ""
    (List.init (chain_len + 1) (Printf.sprintf "extern int c%d_go(int n);\n"))
  ^ "int main() {\n  int s;\n  s = 0;\n"
  ^ String.concat ""
      (List.init (chain_len + 1) (fun k -> Printf.sprintf "  s = s + c%d_go(%d);\n" k k))
  ^ "  print_int(s);\n  return 0;\n}\n"

let chain_objs =
  lazy
    (let chain =
       List.init (chain_len + 1) (fun k -> (Printf.sprintf "c%d" k, chain_src k))
     in
     let exe =
       Mcfi.Pipeline.link_executable ~sources:[ ("main", chain_main) ]
         ~dynamic:chain ()
     in
     ( exe,
       List.map
         (fun (name, src) ->
           Mcfi.Pipeline.instrument (Mcfi.Pipeline.compile_module ~name src))
         chain ))

(* a process with the first [chain_len] modules loaded, and the next one *)
let mid_chain () =
  let exe, objs = Lazy.force chain_objs in
  let proc = Process.create () in
  Process.load proc exe;
  List.iteri (fun k obj -> if k < chain_len then Process.load proc obj) objs;
  (proc, List.nth objs chain_len)

let chain_reference =
  lazy
    (let proc, next = mid_chain () in
     let pre = observe proc in
     Process.load proc next;
     (pre, observe proc))

let test_mid_chain_sweep () =
  let pre_ref, ok_ref = Lazy.force chain_reference in
  List.iter
    (fun (name, plan) ->
      let name = "mid-chain " ^ name in
      let proc, next = mid_chain () in
      check_obs (name ^ ": chain matches reference") (observe proc) pre_ref;
      Faults.arm plan;
      let r = try_load proc next in
      Faults.disarm ();
      match r with
      | Raised (Faults.Injected _) ->
        check_obs (name ^ ": rolled back to pre-state") (observe proc) pre_ref;
        (* the merge state was undone too: it agrees with a from-scratch
           generation over the modules still loaded *)
        Testlib.check_oracle proc (name ^ ": after rollback");
        Process.load proc next;
        check_obs (name ^ ": reload reaches no-fault state") (observe proc)
          ok_ref
      | Raised e ->
        Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
      | Completed ->
        check_obs (name ^ ": completed = no-fault state") (observe proc) ok_ref)
    sweep_cases

let test_random_sweep () =
  let pre_ref, ok_ref = Lazy.force reference in
  for seed = 1 to 25 do
    let proc = mk_proc () in
    Faults.arm (Plan.Random { seed = Int64.of_int seed; one_in = 4 });
    let r = try_load proc (Lazy.force plugin_obj) in
    Faults.disarm ();
    let name = Printf.sprintf "random seed %d" seed in
    match r with
    | Raised (Faults.Injected _) ->
      check_obs (name ^ ": rolled back") (observe proc) pre_ref;
      Process.load proc (Lazy.force plugin_obj);
      check_obs (name ^ ": reload converges") (observe proc) ok_ref
    | Raised e ->
      Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
    | Completed -> check_obs (name ^ ": clean run") (observe proc) ok_ref
  done

(* the dlopen syscall path: an injected fault makes dlopen report failure
   and the running process is otherwise untouched *)
let run_with_plan plan =
  let proc = mk_proc () in
  let pre = observe proc in
  Faults.arm plan;
  let reason = Process.run proc in
  Faults.disarm ();
  (proc, pre, reason, Machine.output (Process.machine proc))

let test_registry_lookup_fault () =
  let proc, pre, reason, out =
    run_with_plan (Plan.At { point = Plan.Registry_lookup; hit = 1 })
  in
  (match reason with
  | Machine.Exited 1 -> ()
  | r -> Alcotest.failf "expected exit 1, got %a" Machine.pp_exit_reason r);
  Alcotest.(check string) "program saw the failure" "no" out;
  check_obs "registry-lookup: process unchanged" (observe proc) pre

let test_dlopen_injected_fault_is_noop () =
  let proc, pre, reason, out =
    run_with_plan (Plan.At { point = Plan.During_verification; hit = 1 })
  in
  (match reason with
  | Machine.Exited 1 -> ()
  | r -> Alcotest.failf "expected exit 1, got %a" Machine.pp_exit_reason r);
  Alcotest.(check string) "program saw the failure" "no" out;
  check_obs "dlopen fault: process unchanged" (observe proc) pre

let test_dlopen_clean_run () =
  (* control: without a plan the same program loads the plugin and runs *)
  let proc, _, reason, out = run_with_plan (Plan.At { point = Plan.Link_merge; hit = 99 }) in
  (match reason with
  | Machine.Exited 0 -> ()
  | r -> Alcotest.failf "expected exit 0, got %a" Machine.pp_exit_reason r);
  Alcotest.(check string) "output" "42" out;
  ignore proc

(* ------------------------------------------------------------------ *)
(* Process.load failure paths: verifier rejection pins the acceptance
   criterion fields (code_end, table version, symbol map) explicitly *)

(* replace the first committing indirect jump with a naked Ret — the
   verifier must reject the module *)
let drop_commit (obj : Objfile.t) =
  let replaced = ref false in
  let items =
    List.map
      (fun item ->
        match item with
        | Asm.I (Instr.Jmp_r _) when not !replaced ->
          replaced := true;
          Asm.I Instr.Ret
        | item -> item)
      obj.Objfile.o_items
  in
  { obj with Objfile.o_items = items }

let test_verifier_rejection_rolls_back () =
  let pre_ref, ok_ref = Lazy.force reference in
  let proc = mk_proc () in
  let code_end0 = Machine.code_end (Process.machine proc) in
  let version0 = Option.map Tables.version (Process.tables proc) in
  let syms0 = Process.code_symbol_bindings proc in
  let bad = drop_commit (Lazy.force plugin_obj) in
  (match Process.load proc bad with
  | () -> Alcotest.fail "expected a verifier rejection"
  | exception Process.Error msg ->
    Alcotest.(check bool)
      "rejection mentions verification" true
      (contains msg "verif"));
  Alcotest.(check int) "code_end unchanged" code_end0
    (Machine.code_end (Process.machine proc));
  Alcotest.(check bool)
    "table version unchanged" true
    (Option.map Tables.version (Process.tables proc) = version0);
  Alcotest.(check bool)
    "symbol map unchanged" true
    (Process.code_symbol_bindings proc = syms0);
  check_obs "verifier rejection: full state" (observe proc) pre_ref;
  (* the genuine module still loads afterwards *)
  Process.load proc (Lazy.force plugin_obj);
  check_obs "verifier rejection: recovery" (observe proc) ok_ref

(* ------------------------------------------------------------------ *)
(* torn-update detection and recovery at the transaction level *)

let mk_tables () = Tables.create ~code_base:0x1000 ~capacity:256 ~bary_slots:8 ()

let tear_between_phases t =
  (* CFG1 is live; die after CFG2's Tary phase, before any Bary write *)
  ignore (Tx.update t ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ]);
  match
    Faults.with_plan
      (Plan.At { point = Plan.Between_tary_and_bary; hit = 1 })
      (fun () -> Tx.update t ~tary:[ (0x1004, 1) ] ~bary:[ (0, 1) ])
  with
  | _ -> Alcotest.fail "expected the injected fault"
  | exception Faults.Injected _ -> ()

let test_torn_update_never_passes () =
  let t = mk_tables () in
  tear_between_phases t;
  (* mixed-version tables: bounded checks retry and exhaust, never pass *)
  Alcotest.(check bool) "old CFG target does not pass" true
    (Tx.check t ~max_retries:50 ~bary_index:0 ~target:0x1000 <> Tx.Pass);
  Alcotest.(check bool) "new CFG target does not pass yet" true
    (Tx.check t ~max_retries:50 ~bary_index:0 ~target:0x1004 <> Tx.Pass);
  Alcotest.(check bool) "journal marks the torn update" true
    (Tables.journal t <> None)

let test_torn_update_explicit_recover () =
  let t = mk_tables () in
  tear_between_phases t;
  let before = (Faults.Stats.snapshot ()).Faults.Stats.recoveries in
  Alcotest.(check bool) "recover reports work done" true (Tx.recover t);
  Alcotest.(check int) "recovery counted" (before + 1)
    (Faults.Stats.snapshot ()).Faults.Stats.recoveries;
  Alcotest.(check bool) "journal cleared" true (Tables.journal t = None);
  Alcotest.(check bool) "idempotent" false (Tx.recover t);
  (* the interrupted install is now complete: the new CFG answers checks *)
  Alcotest.(check bool) "new CFG passes" true
    (Tx.check t ~bary_index:0 ~target:0x1004 = Tx.Pass);
  Alcotest.(check bool) "old CFG target violates" true
    (Tx.check t ~bary_index:0 ~target:0x1000 = Tx.Violation)

let test_torn_update_recovered_by_next_updater () =
  let t = mk_tables () in
  tear_between_phases t;
  let v_torn = Tables.version t in
  let before = (Faults.Stats.snapshot ()).Faults.Stats.recoveries in
  (* the next updater redoes the torn install, then applies its own *)
  let v3 = Tx.update t ~tary:[ (0x1008, 2) ] ~bary:[ (0, 2) ] in
  Alcotest.(check int) "recovery ran first" (before + 1)
    (Faults.Stats.snapshot ()).Faults.Stats.recoveries;
  Alcotest.(check int) "fresh version after the redone one" (v_torn + 1) v3;
  Alcotest.(check bool) "journal cleared" true (Tables.journal t = None);
  Alcotest.(check bool) "latest CFG passes" true
    (Tx.check t ~bary_index:0 ~target:0x1008 = Tx.Pass);
  Alcotest.(check bool) "torn CFG target violates" true
    (Tx.check t ~bary_index:0 ~target:0x1004 = Tx.Violation)

let test_torn_mid_tary_recovers () =
  (* die inside phase 1, with only part of the Tary image published *)
  let t = mk_tables () in
  ignore (Tx.update t ~tary:[ (0x1000, 0); (0x1010, 0) ] ~bary:[ (0, 0) ]);
  (match
     Faults.with_plan
       (Plan.At { point = Plan.Nth_tary_write; hit = 3 })
       (fun () ->
         Tx.update t ~tary:[ (0x1004, 1); (0x1020, 1) ] ~bary:[ (0, 1) ])
   with
  | _ -> Alcotest.fail "expected the injected fault"
  | exception Faults.Injected _ -> ());
  (* no Bary write happened, so the old CFG is still the live one: a
     not-yet-overwritten old slot may keep passing (0x1010), while slots
     the dead updater already rewrote fail closed — new-CFG targets skew
     (0x1004) and removed targets violate (0x1000).  What must never
     happen is a new-CFG edge passing before recovery. *)
  Alcotest.(check bool) "surviving old-CFG target still passes" true
    (Tx.check t ~max_retries:50 ~bary_index:0 ~target:0x1010 = Tx.Pass);
  Alcotest.(check bool) "no new-CFG target passes before recovery" true
    (List.for_all
       (fun target ->
         Tx.check t ~max_retries:50 ~bary_index:0 ~target <> Tx.Pass)
       [ 0x1000; 0x1004; 0x1020 ]);
  Alcotest.(check bool) "recovered" true (Tx.recover t);
  Alcotest.(check bool) "new CFG passes after recovery" true
    (Tx.check t ~bary_index:0 ~target:0x1004 = Tx.Pass
    && Tx.check t ~bary_index:0 ~target:0x1020 = Tx.Pass)

(* ------------------------------------------------------------------ *)
(* the bounded-retry escalation policy *)

let skew_without_journal t =
  (* manual skew with no journal: an updater stuck alive, not dead *)
  ignore (Tx.update t ~tary:[ (0x1000, 0) ] ~bary:[ (0, 0) ]);
  let stale_bid = Tables.bary_read t 0 in
  Tables.set_version t (Tables.version t + 1);
  Tables.tary_set t 0x1000 (Id.pack ~ecn:0 ~version:(Tables.version t));
  Tables.bary_set t 0 stale_bid

let test_escalation_fail_check () =
  let t = mk_tables () in
  skew_without_journal t;
  Alcotest.(check bool) "fail-check surfaces exhaustion" true
    (Tx.check t ~max_retries:5 ~escalation:Tx.Fail_check ~bary_index:0
       ~target:0x1000
    = Tx.Retries_exhausted)

let test_escalation_halt_process () =
  let t = mk_tables () in
  skew_without_journal t;
  Alcotest.(check bool) "halt-process fails closed" true
    (Tx.check t ~max_retries:5 ~escalation:Tx.Halt_process ~bary_index:0
       ~target:0x1000
    = Tx.Violation)

let test_escalation_wait_recovers_torn_update () =
  let t = mk_tables () in
  tear_between_phases t;
  (* waiting takes the update lock, redoes the dead updater's journal and
     re-attempts: the check must then pass on the new CFG *)
  Alcotest.(check bool) "wait-for-updater completes the update" true
    (Tx.check t ~max_retries:5 ~escalation:Tx.Wait_for_updater ~bary_index:0
       ~target:0x1004
    = Tx.Pass);
  Alcotest.(check bool) "journal cleared by the wait" true
    (Tables.journal t = None)

let test_escalation_wait_without_updater_exhausts () =
  let t = mk_tables () in
  skew_without_journal t;
  (* no journal to redo and the skew persists: one extra bounded round,
     then exhaustion — no infinite loop *)
  Alcotest.(check bool) "wait without journal exhausts" true
    (Tx.check t ~max_retries:5 ~escalation:Tx.Wait_for_updater ~bary_index:0
       ~target:0x1000
    = Tx.Retries_exhausted)

let test_retry_counter_counts () =
  let t = mk_tables () in
  skew_without_journal t;
  let before = (Faults.Stats.snapshot ()).Faults.Stats.retries in
  ignore (Tx.check t ~max_retries:7 ~bary_index:0 ~target:0x1000);
  Alcotest.(check int) "7 retries counted" (before + 7)
    (Faults.Stats.snapshot ()).Faults.Stats.retries

let test_escalation_outcome_counters () =
  (* each escalation outcome bumps its own robustness counter *)
  let snap () = Faults.Stats.snapshot () in
  let t = mk_tables () in
  skew_without_journal t;
  let before = snap () in
  ignore
    (Tx.check t ~max_retries:5 ~escalation:Tx.Halt_process ~bary_index:0
       ~target:0x1000);
  Alcotest.(check int) "halt counted"
    (before.Faults.Stats.halts + 1)
    (snap ()).Faults.Stats.halts;
  let before = snap () in
  ignore
    (Tx.check t ~max_retries:5 ~escalation:Tx.Fail_check ~bary_index:0
       ~target:0x1000);
  Alcotest.(check int) "failed check counted"
    (before.Faults.Stats.failed_checks + 1)
    (snap ()).Faults.Stats.failed_checks;
  let t2 = mk_tables () in
  tear_between_phases t2;
  let before = snap () in
  ignore
    (Tx.check t2 ~max_retries:5 ~escalation:Tx.Wait_for_updater ~bary_index:0
       ~target:0x1004);
  Alcotest.(check int) "wait counted"
    (before.Faults.Stats.waits + 1)
    (snap ()).Faults.Stats.waits

let test_rollback_counter_counts () =
  let proc = mk_proc () in
  let before = (Faults.Stats.snapshot ()).Faults.Stats.rollbacks in
  (match
     Faults.with_plan
       (Plan.At { point = Plan.During_verification; hit = 1 })
       (fun () -> Process.load proc (Lazy.force plugin_obj))
   with
  | () -> Alcotest.fail "expected the injected fault"
  | exception Faults.Injected _ -> ());
  Alcotest.(check int) "rollback counted" (before + 1)
    (Faults.Stats.snapshot ()).Faults.Stats.rollbacks

(* ------------------------------------------------------------------ *)
(* pre-existing unhappy paths: each must leave the process usable *)

let test_add_plt_address_taken_rejected () =
  (* taking the address of a dynamically deferred symbol is unsupported:
     the PLT synthesis must say so, not emit a bad module *)
  let addr_taken_main =
    {|
typedef int (*cb)(int);
extern int plugin_val(int x);
int main() { cb p; p = plugin_val; return p(2); }
|}
  in
  (match
     Mcfi.Pipeline.link_executable
       ~sources:[ ("main", addr_taken_main) ]
       ~dynamic:[ ("plugin", plugin_src) ]
       ()
   with
  | _ -> Alcotest.fail "expected add_plt to reject"
  | exception Mcfi.Pipeline.Error msg ->
    Alcotest.(check bool)
      "error names the deferred symbol" true (contains msg "deferred"));
  (* statically linking the same program instead still works: nothing was
     corrupted by the failed attempt *)
  let proc =
    Mcfi.Pipeline.build_process
      ~sources:[ ("main", addr_taken_main); ("plugin", plugin_src) ]
      ()
  in
  match Process.run proc with
  | Machine.Exited 4 -> ()
  | r -> Alcotest.failf "static link run: %a" Machine.pp_exit_reason r

let test_mode_mismatch_rolls_back () =
  let pre_ref, _ = Lazy.force reference in
  let proc = mk_proc () in
  let plain =
    (* compiled but never instrumented: the mode check must fire *)
    Mcfi.Pipeline.compile_module ~name:"plain" (Suite.Libc.header ^ plugin_src)
  in
  (match Process.load proc plain with
  | () -> Alcotest.fail "expected a mode mismatch"
  | exception Process.Error _ -> ());
  check_obs "mode mismatch: process unchanged" (observe proc) pre_ref;
  (* still usable end to end: the real dlopen path completes *)
  (match Process.run proc with
  | Machine.Exited 0 -> ()
  | r -> Alcotest.failf "after mismatch: %a" Machine.pp_exit_reason r);
  Alcotest.(check string) "output" "42"
    (Machine.output (Process.machine proc))

let test_machine_append_overflow () =
  let m = Machine.create ~code_base:0x1000 ~code_capacity:16 ~data_words:64 () in
  ignore (Machine.append_code m (String.make 8 '\x01'));
  (match Machine.append_code m (String.make 16 '\x01') with
  | _ -> Alcotest.fail "expected capacity overflow"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "code_end unchanged" (0x1000 + 8) (Machine.code_end m);
  (* the machine still accepts code that fits *)
  ignore (Machine.append_code m (String.make 8 '\x01'));
  Alcotest.(check int) "full now" (0x1000 + 16) (Machine.code_end m)

let test_load_capacity_overflow_rolls_back () =
  let exe =
    Mcfi.Pipeline.link_executable ~sources:[ ("main", main_src) ]
      ~dynamic:[ ("plugin", plugin_src) ]
      ()
  in
  let registry name =
    if name = "plugin" then Some (Lazy.force plugin_obj) else None
  in
  (* measure the exe, then rebuild with capacity for it and nothing more *)
  let probe = Process.create ~registry () in
  Process.load probe exe;
  let exe_size =
    Machine.code_end (Process.machine probe) - Vmisa.Abi.code_base
  in
  let proc = Process.create ~registry ~code_capacity:exe_size () in
  Process.load proc exe;
  let pre = observe proc in
  (match Process.load proc (Lazy.force plugin_obj) with
  | () -> Alcotest.fail "expected capacity overflow"
  | exception Invalid_argument _ -> ());
  check_obs "capacity overflow: rolled back" (observe proc) pre;
  (* the running program sees a clean dlopen failure and finishes *)
  (match Process.run proc with
  | Machine.Exited 1 -> ()
  | r -> Alcotest.failf "after overflow: %a" Machine.pp_exit_reason r);
  Alcotest.(check string) "program saw the failure" "no"
    (Machine.output (Process.machine proc))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "sweep",
        [
          Alcotest.test_case "every trigger point" `Quick test_sweep;
          Alcotest.test_case "random plans" `Quick test_random_sweep;
          Alcotest.test_case "mid-chain sweep" `Quick
            test_mid_chain_sweep;
          Alcotest.test_case "registry lookup" `Quick
            test_registry_lookup_fault;
          Alcotest.test_case "dlopen fault is a no-op" `Quick
            test_dlopen_injected_fault_is_noop;
          Alcotest.test_case "unfired plan = clean run" `Quick
            test_dlopen_clean_run;
        ] );
      ( "load rollback",
        [
          Alcotest.test_case "verifier rejection" `Quick
            test_verifier_rejection_rolls_back;
          Alcotest.test_case "rollback counter" `Quick
            test_rollback_counter_counts;
        ] );
      ( "torn updates",
        [
          Alcotest.test_case "never pass on torn tables" `Quick
            test_torn_update_never_passes;
          Alcotest.test_case "explicit recover" `Quick
            test_torn_update_explicit_recover;
          Alcotest.test_case "next updater recovers" `Quick
            test_torn_update_recovered_by_next_updater;
          Alcotest.test_case "mid-Tary tear" `Quick test_torn_mid_tary_recovers;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "fail-check" `Quick test_escalation_fail_check;
          Alcotest.test_case "halt-process" `Quick
            test_escalation_halt_process;
          Alcotest.test_case "wait recovers torn update" `Quick
            test_escalation_wait_recovers_torn_update;
          Alcotest.test_case "wait without updater exhausts" `Quick
            test_escalation_wait_without_updater_exhausts;
          Alcotest.test_case "retry counter" `Quick test_retry_counter_counts;
          Alcotest.test_case "outcome counters" `Quick
            test_escalation_outcome_counters;
        ] );
      ( "pre-existing unhappy paths",
        [
          Alcotest.test_case "add_plt address-taken deferred" `Quick
            test_add_plt_address_taken_rejected;
          Alcotest.test_case "instrumented/plain mismatch" `Quick
            test_mode_mismatch_rolls_back;
          Alcotest.test_case "append_code overflow" `Quick
            test_machine_append_overflow;
          Alcotest.test_case "load capacity overflow" `Quick
            test_load_capacity_overflow_rolls_back;
        ] );
    ]
