(* Direct VM tests: hand-assembled instruction sequences run on the
   machine, asserting register/memory/flag semantics, fault behaviour,
   and the CISC-faithful property that control transfers into the middle
   of an instruction execute whatever those bytes decode to. *)

module Machine = Mcfi_runtime.Machine
module Instr = Vmisa.Instr
module Encode = Vmisa.Encode
module Abi = Vmisa.Abi

let boot ?tables instrs =
  let image = Encode.encode_all instrs in
  let m =
    Machine.create ?tables ~code_base:Abi.code_base ~code_capacity:4096
      ~data_words:4096 ()
  in
  ignore (Machine.append_code m image);
  Machine.set_pc m Abi.code_base;
  Machine.set_brk m 16;
  m

(* exit with the value currently in r0 *)
let exit_r0 = Instr.[ Mov_rr (1, 0); Mov_ri (0, Abi.sys_exit); Syscall ]

let run_expect name instrs expected =
  match Machine.run ~fuel:100_000 (boot instrs) with
  | r when r = expected -> ()
  | r ->
    Alcotest.failf "%s: got %a" name Machine.pp_exit_reason r

let test_arith_and_exit () =
  (* (7 * 6) exits with 42 *)
  run_expect "arith"
    (Instr.
       [ Mov_ri (0, 7); Mov_ri (2, 6); Binop (Mul, 0, 2) ]
    @ exit_r0)
    (Machine.Exited 42)

let test_flags_and_branches () =
  (* 5 < 9: take the branch, exit 1; else exit 0 *)
  let base = Abi.code_base in
  let prologue =
    Instr.[ Mov_ri (0, 5); Mov_ri (1, 9); Cmp_rr (0, 1) ]
  in
  let prologue_size =
    List.fold_left (fun a i -> a + Instr.size i) 0 prologue
  in
  (* layout: prologue; jcc lt taken; [exit 0]; taken: [exit 1] *)
  let exit_seq v =
    Instr.[ Mov_ri (1, v); Mov_ri (0, Abi.sys_exit); Syscall ]
  in
  let exit_size =
    List.fold_left (fun a i -> a + Instr.size i) 0 (exit_seq 0)
  in
  let jcc = Instr.Jcc (Instr.Lt, base + prologue_size + Instr.size (Instr.Jcc (Instr.Lt, 0)) + exit_size) in
  run_expect "flags"
    (prologue @ [ jcc ] @ exit_seq 0 @ exit_seq 1)
    (Machine.Exited 1)

let test_push_pop () =
  run_expect "stack"
    (Instr.[ Mov_ri (0, 40); Push 0; Mov_ri (0, 0); Pop 2; Binop_i (Add, 2, 2);
             Mov_rr (0, 2) ]
    @ Instr.[ Mov_rr (1, 0); Mov_ri (0, Abi.sys_exit); Syscall ])
    (Machine.Exited 42)

let test_wild_store_faults () =
  run_expect "wild store"
    Instr.[ Mov_ri (2, 123456); Mov_ri (3, 7); Store (2, 0, 3) ]
    (Machine.Fault "store to 0x1e240")

let test_null_load_faults () =
  run_expect "null load"
    Instr.[ Mov_ri (2, 0); Load (3, 2, 0) ]
    (Machine.Fault "load from 0x0")

let test_div_zero_faults () =
  run_expect "div0"
    Instr.[ Mov_ri (0, 5); Mov_ri (1, 0); Binop (Div, 0, 1) ]
    (Machine.Fault "division by zero")

let test_fetch_off_code_faults () =
  (* running past the loaded image is a fetch fault *)
  match Machine.run ~fuel:10 (boot Instr.[ Nop ]) with
  | Machine.Fault _ -> ()
  | r -> Alcotest.failf "runs off: got %a" Machine.pp_exit_reason r

let test_mid_instruction_execution () =
  (* jump into the immediate of a Mov_ri: the bytes there are an attacker
     -chosen instruction stream.  Embed the encoding of "Mov_ri(1,7)"...
     simpler: embed a byte sequence decoding to Syscall (0x03) with r0
     pre-set to exit.  Mov_ri (2, 0x03) has its immediate at offset +2,
     whose first byte is 0x03 = Syscall. *)
  let base = Abi.code_base in
  let instrs =
    Instr.
      [
        Mov_ri (0, Abi.sys_exit); (* 10 bytes *)
        Mov_ri (1, 99); (* 10 bytes *)
        Mov_ri (2, 0x03); (* 10 bytes; imm starts at +22 *)
        Jmp (base + 22); (* jump into the immediate *)
        Halt;
      ]
  in
  run_expect "mid-instruction gadget" instrs (Machine.Exited 99)

let test_tary_load_reads_tables () =
  let tables =
    Idtables.Tables.create ~code_base:Abi.code_base ~capacity:4096
      ~bary_slots:4 ()
  in
  ignore
    (Idtables.Tx.update tables
       ~tary:[ (Abi.code_base + 8, 5) ]
       ~bary:[ (2, 5) ]);
  let m =
    boot ~tables
      Instr.
        [
          Mov_ri (3, Abi.code_base + 8);
          Tary_load (4, 3);
          Bary_load (5, 2);
          Cmp_rr (4, 5);
        ]
  in
  (match Machine.run ~fuel:1000 m with
  | Machine.Fault _ -> () (* runs off the end after the loads *)
  | r -> Alcotest.failf "unexpected end: %a" Machine.pp_exit_reason r);
  Alcotest.(check bool) "ids match" true (Machine.reg m 4 = Machine.reg m 5);
  Alcotest.(check bool) "valid id" true (Idtables.Id.valid (Machine.reg m 4))

let test_table_access_without_tables_faults () =
  run_expect "no tables"
    Instr.[ Mov_ri (3, Abi.code_base); Tary_load (4, 3) ]
    (Machine.Fault "table access without ID tables")

let test_attacker_cannot_touch_registers () =
  (* the attacker interface only exposes data writes; a run whose result
     lives purely in registers is immune *)
  let m = boot (Instr.[ Mov_ri (0, 7); Binop_i (Mul, 0, 6) ]
                @ Instr.[ Mov_rr (1, 0); Mov_ri (0, Abi.sys_exit); Syscall ]) in
  Machine.set_attacker m (fun m ->
      (* clobber all of writable memory except the (empty) stack *)
      for a = 1 to 100 do
        Machine.write_data m a 0xdead
      done);
  match Machine.run ~fuel:1000 m with
  | Machine.Exited 42 -> ()
  | r -> Alcotest.failf "attacked run: %a" Machine.pp_exit_reason r

let test_output_capture () =
  let hello = [ Instr.Mov_ri (1, Char.code 'h') ] in
  let m =
    boot
      (hello
      @ Instr.[ Mov_ri (0, Abi.sys_print_int); Syscall ]
      @ Instr.[ Mov_ri (1, 0); Mov_ri (0, Abi.sys_exit); Syscall ])
  in
  (match Machine.run ~fuel:1000 m with
  | Machine.Exited 0 -> ()
  | r -> Alcotest.failf "run: %a" Machine.pp_exit_reason r);
  Alcotest.(check string) "printed" "104" (Machine.output m)

let test_null_page_rejected_everywhere () =
  (* word 0 is the unmapped NULL page for the host-side accessors too:
     [read_data]/[write_data] reject it exactly as [Load]/[Store] trap on
     it, and [read_string] treats it as the end of mapped memory *)
  let m = boot [ Instr.Nop ] in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted address 0" name
  in
  rejects "read_data" (fun () -> Machine.read_data m 0);
  rejects "write_data" (fun () -> Machine.write_data m 0 1);
  rejects "read_data oob" (fun () -> Machine.read_data m (Machine.data_size m));
  Alcotest.(check string) "read_string at 0" "" (Machine.read_string m 0);
  (* address 1 stays accessible *)
  Machine.write_data m 1 (Char.code 'x');
  Machine.write_data m 2 0;
  Alcotest.(check int) "word 1 readable" (Char.code 'x') (Machine.read_data m 1);
  Alcotest.(check string) "string at 1" "x" (Machine.read_string m 1)

let test_decode_cache_invalidation () =
  (* the flat decode memo must forget stale decodings across truncate +
     re-append: run an image, roll it back, load different bytes at the
     same addresses, and check the new bytes' semantics (not the old) *)
  let m = boot Instr.[ Mov_ri (1, 7); Mov_ri (0, Abi.sys_exit); Syscall ] in
  (match Machine.run ~fuel:100 m with
  | Machine.Exited 7 -> ()
  | r -> Alcotest.failf "first image: %a" Machine.pp_exit_reason r);
  Machine.truncate_code m ~code_end:Abi.code_base;
  ignore
    (Machine.append_code m
       (Encode.encode_all
          Instr.[ Mov_ri (1, 9); Mov_ri (0, Abi.sys_exit); Syscall ]));
  Machine.set_pc m Abi.code_base;
  (match Machine.run ~fuel:100 m with
  | Machine.Exited 9 -> ()
  | r -> Alcotest.failf "second image: %a" Machine.pp_exit_reason r);
  (* a fully truncated region is unfetchable again *)
  Machine.truncate_code m ~code_end:Abi.code_base;
  Machine.set_pc m Abi.code_base;
  (match Machine.run ~fuel:100 m with
  | Machine.Fault _ -> ()
  | r -> Alcotest.failf "truncated region: %a" Machine.pp_exit_reason r)

(* ---- footprint: the byte engine's fetch allocates nothing, and a
   process's memory follows the code it loaded ---- *)

let suite_process ?(instrumented = true) name =
  let b = Option.get (Suite.Programs.find name) in
  ( b,
    Mcfi.Pipeline.build_process ~instrumented ~dispatch:Machine.Byte
      ~sources:[ (b.name, b.source) ] () )

(* Minor-heap words per retired instruction once a byte-engine run of a
   suite program is warm: a fetch that boxes its result costs whole
   words per step.  The first [warm] steps decode the hot code into the
   memo (each first decode allocates its instruction) and are not
   counted; what the rest allocates is the program's own output and the
   odd cold decode. *)
let test_byte_run_allocates_nothing () =
  let b, proc = suite_process "perlite" in
  let m = Mcfi_runtime.Process.machine proc in
  let warm = 500_000 in
  (match Mcfi_runtime.Process.run ~fuel:warm proc with
  | Machine.Out_of_fuel -> ()
  | r -> Alcotest.failf "perlite warm-up: %a" Machine.pp_exit_reason r);
  let before = Gc.minor_words () in
  let r = Machine.run m in
  let words = Gc.minor_words () -. before in
  if r <> Machine.Exited b.expected_exit then
    Alcotest.failf "perlite: %a" Machine.pp_exit_reason r;
  let steps = Machine.steps m - warm in
  let per_step = words /. float_of_int steps in
  if per_step >= 0.01 then
    Alcotest.failf
      "byte engine allocates %.4f minor words per step over %d steps \
       (budget < 0.01)"
      per_step steps

(* A freshly loaded suite program's whole process — image, data region,
   ID tables, decode memo, CFG state — in words reachable from it.  A
   decode memo sized to the reserved code capacity (two 4 Mi-entry
   arrays, 64 MiB) cannot fit under the bound. *)
let test_process_sized_to_loaded_code () =
  let _, proc = suite_process "perlite" in
  let mib =
    float_of_int (Obj.reachable_words (Obj.repr proc) * (Sys.word_size / 8))
    /. 1048576.0
  in
  if mib >= 32.0 then
    Alcotest.failf "a loaded perlite process holds %.1f MiB (budget < 32)" mib

let test_sbrk_allocates_monotonically () =
  let m = boot [ Instr.Nop ] in
  let a = Machine.sbrk m 10 in
  let b = Machine.sbrk m 5 in
  Alcotest.(check int) "disjoint" (a + 10) b

let () =
  Alcotest.run "machine"
    [
      ( "semantics",
        [
          Alcotest.test_case "arith & exit" `Quick test_arith_and_exit;
          Alcotest.test_case "flags & branches" `Quick test_flags_and_branches;
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "output capture" `Quick test_output_capture;
          Alcotest.test_case "sbrk" `Quick test_sbrk_allocates_monotonically;
        ] );
      ( "faults",
        [
          Alcotest.test_case "wild store" `Quick test_wild_store_faults;
          Alcotest.test_case "null load" `Quick test_null_load_faults;
          Alcotest.test_case "div by zero" `Quick test_div_zero_faults;
          Alcotest.test_case "runs off code" `Quick test_fetch_off_code_faults;
          Alcotest.test_case "null page rejected everywhere" `Quick
            test_null_page_rejected_everywhere;
          Alcotest.test_case "decode cache invalidation" `Quick
            test_decode_cache_invalidation;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "byte run allocates nothing" `Quick
            test_byte_run_allocates_nothing;
          Alcotest.test_case "process sized to loaded code" `Quick
            test_process_sized_to_loaded_code;
        ] );
      ( "security-relevant",
        [
          Alcotest.test_case "mid-instruction execution" `Quick
            test_mid_instruction_execution;
          Alcotest.test_case "tary/bary loads" `Quick
            test_tary_load_reads_tables;
          Alcotest.test_case "tables required" `Quick
            test_table_access_without_tables_faults;
          Alcotest.test_case "registers out of attacker reach" `Quick
            test_attacker_cannot_touch_registers;
        ] );
    ]
