module Instr = Vmisa.Instr
module Asm = Vmisa.Asm
module Abi = Vmisa.Abi
module Objfile = Mcfi_compiler.Objfile

type issue = { at : int; what : string }

let pp_issue ppf { at; what } = Fmt.pf ppf "0x%x: %s" at what

let r11 = Instr.rscratch0
let r12 = Instr.rscratch1
let r13 = Instr.rscratch2

(* A decoded stream with position/address cross-references:
   [pos_of_off.(addr - base)] is the position of the instruction starting
   at [addr], or -1 when [addr] is mid-instruction. *)
type stream = {
  instrs : (int * Instr.t) array; (* (address, instruction) *)
  base : int;
  pos_of_off : int array;
}

let decode_stream ~base image =
  let decoded, err = Vmisa.Disasm.disassemble ~base image in
  match err with
  | Some (e, at) ->
    Error { at; what = Fmt.str "undecodable byte: %a" Vmisa.Encode.pp_decode_error e }
  | None ->
    let instrs = Array.of_list decoded in
    let pos_of_off = Array.make (String.length image) (-1) in
    Array.iteri (fun i (addr, _) -> pos_of_off.(addr - base) <- i) instrs;
    Ok { instrs; base; pos_of_off }

let instr_at s pos =
  if pos >= 0 && pos < Array.length s.instrs then Some s.instrs.(pos) else None

let pos_of s addr =
  let off = addr - s.base in
  if off >= 0 && off < Array.length s.pos_of_off && s.pos_of_off.(off) >= 0
  then Some s.pos_of_off.(off)
  else None

(* Step backward over alignment nops. *)
let rec skip_nops_back s pos =
  match instr_at s pos with
  | Some (_, Instr.Nop) -> skip_nops_back s (pos - 1)
  | _ -> pos

(* Verify the check/halt block at [check_addr]:
     Test_ri r11, 1; Jcc Eq halt; Cmp_lo r13, r11; Jcc Ne try; Halt
   Returns the retry target address. *)
let verify_check_block s ~check_addr =
  let ( let* ) = Result.bind in
  let err at what = Error { at; what } in
  let* p0 =
    match pos_of s check_addr with
    | Some p -> Ok p
    | None -> err check_addr "check block entry is mid-instruction"
  in
  let at pos =
    match instr_at s pos with
    | Some ai -> Ok ai
    | None -> err check_addr "check block runs off the module"
  in
  let* a0, i0 = at p0 in
  let* () =
    match i0 with
    | Instr.Test_ri (r, 1) when r = r11 -> Ok ()
    | _ -> err a0 "check block does not test target-ID validity"
  in
  let* a1, i1 = at (p0 + 1) in
  let* halt_addr =
    match i1 with
    | Instr.Jcc (Instr.Eq, halt) -> Ok halt
    | _ -> err a1 "invalid-target edge does not branch to halt"
  in
  let* a2, i2 = at (p0 + 2) in
  let* () =
    match i2 with
    | Instr.Cmp_lo (a, b) when a = r13 && b = r11 -> Ok ()
    | _ -> err a2 "check block does not compare versions"
  in
  let* a3, i3 = at (p0 + 3) in
  let* retry_addr =
    match i3 with
    | Instr.Jcc (Instr.Ne, retry) -> Ok retry
    | _ -> err a3 "version mismatch does not retry"
  in
  let* a4, i4 = at (p0 + 4) in
  let* () =
    match i4 with
    | Instr.Halt when a4 = halt_addr -> Ok ()
    | Instr.Halt -> err a4 "halt label does not point at the halt"
    | _ -> err a4 "ECN mismatch does not halt"
  in
  Ok retry_addr

(* Verify the read block ending (via optional alignment nops) at the commit
   branch at position [commit_pos]:
     Bary_load r13 slot; Tary_load r11 r12; Cmp_rr r13 r11; Jcc Ne check
   Returns (bary-load address, slot, check block address). *)
let verify_read_block s ~commit_pos =
  let ( let* ) = Result.bind in
  let err at what = Error { at; what } in
  let commit_addr = fst s.instrs.(commit_pos) in
  let p_jcc = skip_nops_back s (commit_pos - 1) in
  let* check_addr =
    match instr_at s p_jcc with
    | Some (_, Instr.Jcc (Instr.Ne, check)) -> Ok check
    | _ -> err commit_addr "commit is not guarded by an ID comparison branch"
  in
  let* () =
    match instr_at s (p_jcc - 1) with
    | Some (_, Instr.Cmp_rr (a, b)) when a = r13 && b = r11 -> Ok ()
    | _ -> err commit_addr "missing branch-ID/target-ID comparison"
  in
  let* () =
    match instr_at s (p_jcc - 2) with
    | Some (_, Instr.Tary_load (rd, rs)) when rd = r11 && rs = r12 -> Ok ()
    | _ -> err commit_addr "missing Tary read of the branch target"
  in
  let* bary_addr, slot =
    match instr_at s (p_jcc - 3) with
    | Some (addr, Instr.Bary_load (rd, slot)) when rd = r13 -> Ok (addr, slot)
    | _ -> err commit_addr "missing Bary read of the branch ID"
  in
  Ok (bary_addr, slot, check_addr, p_jcc - 3)

let verify ?(sandbox = Abi.Mask) ~obj ~(prog : Asm.program) ~slot_base
    ~slot_count () =
  let issues = ref [] in
  let problem at fmt = Printf.ksprintf (fun what -> issues := { at; what } :: !issues) fmt in
  (match decode_stream ~base:prog.Asm.base prog.Asm.image with
  | Error issue -> issues := [ issue ]
  | Ok s ->
    let n = Array.length s.instrs in
    let commits = ref 0 in
    (* Direct branches are checked statically (paper §2): a target inside
       the module must be an instruction boundary; targets outside are
       cross-module references the linker resolved (calls/jumps to other
       verified modules). *)
    let module_start = prog.Asm.base in
    let module_end = prog.Asm.base + String.length prog.Asm.image in
    let check_direct_target addr target =
      if target >= module_start && target < module_end
         && pos_of s target = None
      then
        problem addr "direct branch into the middle of an instruction (0x%x)"
          target
    in
    for pos = 0 to n - 1 do
      let addr, i = s.instrs.(pos) in
      match i with
      | Instr.Jmp target | Instr.Jcc (_, target) | Instr.Call target ->
        check_direct_target addr target
      | Instr.Ret -> problem addr "naked ret in instrumented code"
      | Instr.Call_r r | Instr.Jmp_r r -> begin
        incr commits;
        if r <> r12 then
          problem addr "indirect branch does not use the checked register"
        else begin
          match verify_read_block s ~commit_pos:pos with
          | Error issue -> issues := issue :: !issues
          | Ok (bary_addr, slot, check_addr, bary_pos) -> begin
            if slot < slot_base || slot >= slot_base + slot_count then
              problem addr "Bary slot %d outside module range [%d,%d)" slot
                slot_base (slot_base + slot_count);
            match verify_check_block s ~check_addr with
            | Error issue -> issues := issue :: !issues
            | Ok retry_addr ->
              if retry_addr = bary_addr then ()
              else begin
                (* PLT flavour: the retry re-enters through the GOT reload
                   two instructions before the Bary load. *)
                let ok_plt =
                  match
                    (instr_at s (bary_pos - 2), instr_at s (bary_pos - 1))
                  with
                  | ( Some (mov_addr, Instr.Mov_ri (rd1, _)),
                      Some (_, Instr.Load (rd2, rs2, 0)) ) ->
                    rd1 = r12 && rd2 = r12 && rs2 = r12
                    && retry_addr = mov_addr
                  | _ -> false
                in
                if not ok_plt then
                  problem addr
                    "retry edge does not re-enter the transaction (0x%x)"
                    retry_addr
              end
          end
        end
      end
      | Instr.Store (rb, off, _) ->
        if sandbox = Abi.Segment then
          (* segmentation hardware confines every store *)
          ()
        else if rb = Instr.rsp || rb = Instr.rfp then ()
        else if rb = r11 && off = 0 then begin
          (* must be the masked-store pattern *)
          let ok =
            match
              (instr_at s (pos - 3), instr_at s (pos - 2), instr_at s (pos - 1))
            with
            | ( Some (_, Instr.Mov_rr (a, _)),
                Some (_, Instr.Binop_i (Instr.Add, b, _)),
                Some (_, Instr.Binop_i (Instr.And, c, mask)) ) ->
              a = r11 && b = r11 && c = r11 && mask = Abi.sandbox_mask
            | _ -> false
          in
          if not ok then problem addr "store is not sandbox-masked"
        end
        else problem addr "store with an unsandboxed base register"
      | _ -> ()
    done;
    let nsites = List.length obj.Objfile.o_sites in
    if !commits <> nsites then
      problem prog.Asm.base
        "%d committing indirect branches but %d site records" !commits nsites;
    (* Alignment of declared indirect-branch targets. *)
    let check_aligned what label =
      match Hashtbl.find_opt prog.Asm.labels label with
      | Some a when a mod 4 <> 0 -> problem a "misaligned %s %s" what label
      | Some _ -> ()
      | None -> problem prog.Asm.base "missing %s label %s" what label
    in
    List.iter
      (fun (fi : Objfile.fn_info) ->
        if fi.fi_defined then check_aligned "function entry" fi.fi_name)
      obj.Objfile.o_functions;
    List.iter
      (function
        | Objfile.Site_jumptable { targets; _ } ->
          List.iter (check_aligned "jump-table target") targets
        | Objfile.Site_icall { ret_label; _ } ->
          check_aligned "return site" ret_label
        | Objfile.Site_return _ | Objfile.Site_itail _ | Objfile.Site_longjmp _
        | Objfile.Site_plt _ -> ())
      obj.Objfile.o_sites;
    List.iter
      (fun (dc : Objfile.direct_call) ->
        check_aligned "return site" dc.dc_ret)
      obj.Objfile.o_direct_calls;
    List.iter (check_aligned "setjmp continuation") obj.Objfile.o_setjmp_sites);
  match !issues with [] -> Ok () | issues -> Error (List.rev issues)
