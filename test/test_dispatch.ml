(* Differential tests for the threaded dispatch engine's pre-decode
   invalidation.  Every scenario is a closed program of machine
   operations run once under [Byte] and once under [Threaded]; the two
   engines must produce bit-identical observations — exit reason, final
   pc, retired-step count, program output, and the committed-transfer
   trace — across code-region changes (dlopen append, rollback
   truncate), jumps into unoccupied bytes, and ID-table installs killed
   mid-flight. *)

module Machine = Mcfi_runtime.Machine
module Instr = Vmisa.Instr
module Encode = Vmisa.Encode
module Asm = Vmisa.Asm
module Abi = Vmisa.Abi
module Tables = Idtables.Tables
module Tx = Idtables.Tx

type obs = {
  o_reason : string;
  o_pc : int;
  o_steps : int;
  o_out : string;
  o_trace : string;
}

let pp_obs ppf o =
  Fmt.pf ppf "{%s pc=0x%x steps=%d out=%S trace=%s}" o.o_reason o.o_pc
    o.o_steps o.o_out o.o_trace

let obs_list = Alcotest.(list (testable pp_obs ( = )))

(* Run [m] to completion while recording the committed-transfer trace. *)
let run_obs ?(fuel = 100_000) m =
  let buf = Buffer.create 64 in
  Machine.set_transfer_hook m
    (Some (fun src dst -> Buffer.add_string buf (Printf.sprintf "%x>%x;" src dst)));
  let r = Machine.run ~fuel m in
  Machine.set_transfer_hook m None;
  {
    o_reason = Fmt.str "%a" Machine.pp_exit_reason r;
    o_pc = Machine.pc m;
    o_steps = Machine.steps m;
    o_out = Machine.output m;
    o_trace = Buffer.contents buf;
  }

(* Run [scenario] under both engines and require identical observations. *)
let both name scenario =
  let b = scenario Machine.Byte in
  let t = scenario Machine.Threaded in
  Alcotest.check obs_list name b t

let boot engine instrs =
  let m =
    Machine.create ~dispatch:engine ~code_base:Abi.code_base
      ~code_capacity:4096 ~data_words:4096 ()
  in
  ignore (Machine.append_code m (Encode.encode_all instrs));
  Machine.set_pc m Abi.code_base;
  Machine.set_brk m 16;
  m

let exit_with v = Instr.[ Mov_ri (1, v); Mov_ri (0, Abi.sys_exit); Syscall ]

(* ---- dlopen append mid-run, then a jump into the fresh region ---- *)

let test_dlopen_append_mid_run () =
  both "dlopen append" @@ fun engine ->
  let m =
    boot engine
      Instr.
        [
          Mov_ri (1, 1); (* name address: data word 1 holds 0 = "" *)
          Mov_ri (0, Abi.sys_dlopen);
          Syscall; (* r0 = base of the appended region *)
          Mov_rr (2, 0);
          Jmp_r 2; (* jump into code that did not exist at start *)
          Halt;
        ]
  in
  Machine.set_dl_handler m (fun m _num _name ->
      Machine.append_code m (Encode.encode_all (exit_with 55)));
  [ run_obs m ]

(* ---- rollback truncate + re-append: stale pre-decodes must die ---- *)

let test_truncate_reload () =
  both "truncate + reload" @@ fun engine ->
  let m = boot engine (exit_with 7) in
  let o1 = run_obs m in
  (* roll the whole image back and load different bytes at the same
     addresses; the threaded stream pre-decoded on the first run must
     not replay the old semantics *)
  Machine.truncate_code m ~code_end:Abi.code_base;
  ignore (Machine.append_code m (Encode.encode_all (exit_with 9)));
  Machine.set_pc m Abi.code_base;
  let o2 = run_obs m in
  (* a fully truncated region is unfetchable again *)
  Machine.truncate_code m ~code_end:Abi.code_base;
  Machine.set_pc m Abi.code_base;
  let o3 = run_obs m in
  [ o1; o2; o3 ]

(* ---- jump to an unoccupied byte, then occupy it and jump again ---- *)

let test_jump_to_unoccupied_byte () =
  both "unoccupied byte" @@ fun engine ->
  (* the image is a single Jmp to its own end: past [code_end], so the
     fetch faults — under both engines, at the same pc *)
  let jmp = Instr.Jmp (Abi.code_base + Instr.size (Instr.Jmp 0)) in
  let m = boot engine [ jmp ] in
  let o1 = run_obs m in
  (* appending code at exactly that address makes the same jump land on
     live bytes *)
  ignore (Machine.append_code m (Encode.encode_all (exit_with 3)));
  Machine.set_pc m Abi.code_base;
  let o2 = run_obs m in
  [ o1; o2 ]

let test_mid_instruction_gadget () =
  both "mid-instruction gadget" @@ fun engine ->
  (* jump into the immediate of a Mov_ri whose payload decodes to
     Syscall (0x03): the gadget path must pre-decode at the foreign
     offset and retire identically (cf. the byte-engine test in
     test_machine.ml) *)
  let base = Abi.code_base in
  let m =
    boot engine
      Instr.
        [
          Mov_ri (0, Abi.sys_exit); (* 10 bytes *)
          Mov_ri (1, 99); (* 10 bytes *)
          Mov_ri (2, 0x03); (* 10 bytes; immediate starts at +22 *)
          Jmp (base + 22);
          Halt;
        ]
  in
  [ run_obs m ]

(* ---- truncate + re-append across a decode-memo page boundary ----

   The memo is paged per KiB of code.  A gadget at offset 1022 — inside
   a [Mov_ri]'s immediate — decodes as a [Jmp] whose address bytes
   straddle the page boundary at 1024.  Rolling the code back to the
   boundary and loading different bytes there must change what the
   gadget decodes to, on both engines, though the gadget's own bytes
   never moved: its decode read bytes that did. *)

let test_memo_page_boundary () =
  let base = Abi.code_base in
  let jmp_at a =
    (* a Jmp's encoding, as the low bytes of a Mov_ri immediate *)
    let e = Encode.encode_all [ Instr.Jmp a ] in
    let v = ref 0 in
    for k = String.length e - 1 downto 0 do
      v := (!v lsl 8) lor Char.code e.[k]
    done;
    !v
  in
  let t1 = base + 1030 and t2 = base + 2054 in
  (* same low address byte, so only bytes past the boundary differ *)
  assert (t1 land 0xff = t2 land 0xff);
  let head =
    Instr.[ Mov_ri (0, Abi.sys_exit); Mov_ri (1, 7); Jmp (base + 1022) ]
  in
  let head_len = String.length (Encode.encode_all head) in
  let nops n = List.init n (fun _ -> Instr.Nop) in
  let image1 =
    Encode.encode_all
      (head
      @ nops (1020 - head_len)
      @ Instr.[ Mov_ri (2, jmp_at t1); Syscall ])
  in
  assert (String.length image1 = 1031);
  (* from the boundary on: t2's upper address bytes, a Halt where the
     stale gadget would land, then the exit path at t2 *)
  let image2 =
    let e = Encode.encode_all [ Instr.Jmp t2 ] in
    String.sub e 2 3
    ^ Encode.encode_all
        (nops 3 @ [ Instr.Halt ]
        @ nops (t2 - base - 1031)
        @ Instr.[ Mov_ri (1, 9); Syscall ])
  in
  let scenario engine =
    let m = boot engine [] in
    ignore (Machine.append_code m image1);
    Machine.set_pc m base;
    let o1 = run_obs m in
    Machine.truncate_code m ~code_end:(base + 1024);
    ignore (Machine.append_code m image2);
    Machine.set_pc m base;
    let o2 = run_obs m in
    [ o1; o2 ]
  in
  let b = scenario Machine.Byte and t = scenario Machine.Threaded in
  Alcotest.check obs_list "engines agree" b t;
  Alcotest.(check (list string))
    "the gadget re-decodes" [ "exited(7)"; "exited(9)" ]
    (List.map (fun o -> o.o_reason) b)

(* ---- mid-install kill + recovery under a fused, hoisted check ---- *)

let check_program =
  Asm.
    [
      Mov_sym (12, "target");
      I (Bary_load (13, 0));
      I (Tary_load (11, 12));
      I (Cmp_rr (13, 11));
      Jcc_sym (Instr.Ne, "fail");
      I (Jmp_r 12);
      Label "fail";
      I Halt;
      Align 4;
      Label "target";
      I (Mov_ri (1, 42));
      I (Mov_ri (0, Abi.sys_exit));
      I Syscall;
    ]

let test_mid_install_kill_and_recovery () =
  both "mid-install kill" @@ fun engine ->
  let prog =
    match Asm.assemble ~base:Abi.code_base check_program with
    | Ok p -> p
    | Error e -> Alcotest.failf "assemble: %a" Asm.pp_error e
  in
  let target = Hashtbl.find prog.Asm.labels "target" in
  let tables =
    Tables.create ~code_base:Abi.code_base ~capacity:4096 ~bary_slots:4 ()
  in
  let (_ : int) = Tx.update tables ~tary:[ (target, 5) ] ~bary:[ (0, 5) ] in
  let m =
    Machine.create ~tables ~dispatch:engine ~code_base:Abi.code_base
      ~code_capacity:4096 ~data_words:4096 ()
  in
  ignore (Machine.append_code m prog.Asm.image);
  Machine.set_brk m 16;
  Machine.set_pc m Abi.code_base;
  (* healthy tables: the check passes and the program exits — under
     Threaded this fuses the check+Jmp_r and caches the hoisted pair *)
  let o1 = run_obs m in
  (* kill an update after its first Tary publish: the sequence word is
     left odd and the tables torn.  The hoisted cache must not replay
     its stale Pass — both engines re-read the torn tables and agree. *)
  Faults.arm (Faults.Plan.At { point = Faults.Plan.Nth_tary_write; hit = 1 });
  (match Tx.update tables ~tary:[ (target, 7) ] ~bary:[ (0, 7) ] with
  | (_ : int) -> Alcotest.fail "armed kill never fired"
  | exception Faults.Injected _ -> ());
  Faults.disarm ();
  Machine.set_pc m Abi.code_base;
  let o2 = run_obs m in
  (* journal-assisted recovery redoes the torn install; the check passes
     again at the new version under both engines *)
  Alcotest.(check bool) "recover redoes" true (Tx.recover tables);
  Machine.set_pc m Abi.code_base;
  let o3 = run_obs m in
  Machine.release m;
  [ o1; o2; o3 ]

(* ---- attacker interleaving: the red-team search is engine-blind ---- *)

(* A synthesized in-policy chain embeds an attacker plan that fires
   between specific instruction retirements; the machine pins attacker
   interleaving by stepping through the byte path whenever a hook is
   installed, so the search — benign reference run, walk, confirmation
   re-execution — must produce the identical chain under [Byte] and
   [Threaded] dispatch. *)
let chain_fingerprint (c : Redteam.Search.chain) =
  Fmt.str "%d|%s|%s|0x%x|%b|%s" c.Redteam.Search.c_start
    (String.concat ";"
       (List.map
          (fun (h : Redteam.Search.hop) ->
            Printf.sprintf "%d>%x%s" h.Redteam.Search.h_slot
              h.Redteam.Search.h_target
              (if h.Redteam.Search.h_diverted then "!" else ""))
          c.Redteam.Search.c_hops))
    (Redteam.Search.goal_name c.Redteam.Search.c_goal)
    c.Redteam.Search.c_goal_pc c.Redteam.Search.c_confirmed
    c.Redteam.Search.c_exit

let test_redteam_chain_engine_blind () =
  let sp = Fuzz.Driver.spec_of (Fuzz.Driver.iter_seed 1L 0) in
  let r = Redteam.Search.render_sabotaged sp in
  let search dispatch =
    match
      Redteam.Search.run
        ~build:(fun () ->
          Fuzz.Oracle.build ~dispatch ~instrumented:true
            ~static:r.Fuzz.Spec.r_static ~dynamic:r.Fuzz.Spec.r_dynamic ())
        ()
    with
    | Ok res -> res
    | Error m -> Alcotest.failf "search under %s: %s"
                   (match dispatch with
                   | Machine.Byte -> "byte"
                   | Machine.Threaded -> "threaded")
                   m
  in
  let b = search Machine.Byte in
  let t = search Machine.Threaded in
  Alcotest.(check string)
    "benign run exits identically"
    (Fmt.str "%a" Machine.pp_exit_reason b.Redteam.Search.sr_exit)
    (Fmt.str "%a" Machine.pp_exit_reason t.Redteam.Search.sr_exit);
  Alcotest.(check bool) "byte search finds a chain" true
    (b.Redteam.Search.sr_chains <> []);
  Alcotest.(check (list string))
    "identical chains (slots, hops, goal, confirmation) under both engines"
    (List.map chain_fingerprint b.Redteam.Search.sr_chains)
    (List.map chain_fingerprint t.Redteam.Search.sr_chains);
  Alcotest.(check bool) "the chain confirms under threaded dispatch" true
    (List.exists
       (fun c -> c.Redteam.Search.c_confirmed)
       t.Redteam.Search.sr_chains)

let () =
  Alcotest.run "dispatch"
    [
      ( "invalidation",
        [
          Alcotest.test_case "dlopen append mid-run" `Quick
            test_dlopen_append_mid_run;
          Alcotest.test_case "truncate + reload" `Quick test_truncate_reload;
          Alcotest.test_case "jump to unoccupied byte" `Quick
            test_jump_to_unoccupied_byte;
          Alcotest.test_case "mid-instruction gadget" `Quick
            test_mid_instruction_gadget;
          Alcotest.test_case "memo page boundary" `Quick
            test_memo_page_boundary;
        ] );
      ( "tables",
        [
          Alcotest.test_case "mid-install kill + recovery" `Quick
            test_mid_install_kill_and_recovery;
        ] );
      ( "redteam",
        [
          Alcotest.test_case "synthesized chain is engine-blind" `Slow
            test_redteam_chain_engine_blind;
        ] );
    ]
