module Instr = Vmisa.Instr
module Encode = Vmisa.Encode
module Abi = Vmisa.Abi
module Id = Idtables.Id

type exit_reason =
  | Exited of int
  | Cfi_halt
  | Fault of string
  | Out_of_fuel

let pp_exit_reason ppf = function
  | Exited n -> Fmt.pf ppf "exited(%d)" n
  | Cfi_halt -> Fmt.string ppf "cfi-halt"
  | Fault msg -> Fmt.pf ppf "fault(%s)" msg
  | Out_of_fuel -> Fmt.string ppf "out-of-fuel"

type dispatch = Byte | Threaded

let dispatch_name = function Byte -> "byte" | Threaded -> "threaded"

let dispatch_of_string = function
  | "byte" -> Ok Byte
  | "threaded" -> Ok Threaded
  | s -> Error (Printf.sprintf "unknown dispatch engine %S (byte|threaded)" s)

(* A version-hoisted CFI check site: one per fused check superinstruction
   (see the threaded engine below).  The static fields describe the
   decoded sequence — Bary slot, the three registers the rewriter chose,
   the check-block address the [Jcc] mismatch edge targets, alignment-nop
   padding, and the sequence's total byte size.  The mutable fields cache
   the (branch ID, target ID) pair together with the install sequence
   word it was read under; an unchanged even word proves the tables are
   bit-identical to the fill instant, so the cached pair replays without
   touching either table (the [Tx.check_hoisted] argument, inlined here
   because the handler must also replay the register writes and flags
   the interpreted sequence would have produced). *)
type hsite = {
  hs_slot : int;
  hs_rb : int;  (** branch-ID register ([Bary_load]'s destination) *)
  hs_rt : int;  (** target-ID register ([Tary_load]'s destination) *)
  hs_rtgt : int;  (** branch-target register ([Tary_load]'s source) *)
  hs_check : int;  (** check-block address (the [Jcc Ne] edge) *)
  hs_pad : int;  (** alignment [Nop]s between [Jcc] and the branch *)
  hs_size : int;  (** total bytes of the fused sequence *)
  mutable hs_seq : int;
  mutable hs_target : int;
  mutable hs_bid : int;
  mutable hs_tid : int;
}

type t = {
  code_base : int;
  image : Bytes.t; (* reserved capacity; [code_len] bytes are loaded *)
  mutable code_len : int;
  (* per-byte-offset decode memo, in pages of [memo_page] offsets that
     [append_code] maps as code arrives, so a machine holds memo only for
     the code it has loaded; a page is never copied or regrown.  For
     offset [off], in page [p = off / memo_page] at [k = off mod
     memo_page]: the size byte [memo_size.(p).[k]] is the instruction
     size (0 = not decoded yet, [undecodable] = the bytes do not decode),
     a [Bytes] page the GC never scans; [memo_instr.(p).(k)] is the
     instruction, meaningful only when the size is a real size.
     Unmapped pages are empty ([Bytes.empty], [[||]]). *)
  memo_size : Bytes.t array;
  memo_instr : Instr.t array array;
  data : int array;
  regs : int array;
  mutable pc : int;
  mutable zf : bool;
  mutable lt : bool;
  tables : Idtables.Tables.t option;
  (* this machine's registration in the tables' epoch registry: bumped at
     syscalls, where the interpreted program is provably outside any
     check sequence; [release] clears it so a dead machine never gates
     quiescence *)
  mutable reader : Idtables.Tables.reader option;
  mutable nsteps : int;
  out : Buffer.t;
  mutable brk : int;
  prng : Mcfi_util.Prng.t;
  mutable dl_handler : (t -> int -> string -> int) option;
  mutable attacker : (t -> unit) option;
  (* execution profile, filled only while telemetry is enabled: retired
     instructions per class, and executions per Bary slot (i.e. per
     indirect-branch enforcement site).  Plain state — a machine is
     single-domain. *)
  profile : int array;
  branch_counts : (int, int) Hashtbl.t;
  (* committed-transfer hook: called with (branch pc, target) for every
     executed Call_r/Jmp_r/Ret, by both engines — the differential
     dispatch oracle records traces through it *)
  mutable on_transfer : (int -> int -> unit) option;
  (* ---- threaded-code engine state ----
     A flat pre-decoded stream parallel to the byte image: [th_op.(off)]
     is a dense handler index (0 = not pre-decoded, 1 = the bytes do not
     decode) and [th_a/th_b/th_p/th_q] carry the operand words that
     handler reads.  Arrays are grown lazily to cover [code_len] (never
     the reserved capacity).  Entries are filled from the shared decode
     memo on first execution, so the any-byte-offset fetch semantics —
     including mid-instruction decodes — are preserved bit for bit. *)
  mutable dispatch : dispatch;
  mutable th_op : int array;
  mutable th_a : int array;
  mutable th_b : int array;
  mutable th_p : int array;
  mutable th_q : int array;
  mutable th_sites : hsite array;
  mutable th_nsites : int;
  (* threaded-dispatch internals, surfaced via [dispatch_stats]: fused
     superinstruction executions per kind (index = handler - 25),
     hoisted-check cache traffic, and pre-decode / invalidation churn.
     Plain state — a machine is single-domain. *)
  th_fused : int array;
  mutable th_hoist_hits : int;
  mutable th_hoist_misses : int;
  mutable th_hoist_refills : int;
  mutable th_predecodes : int;
  mutable th_invalidations : int;
}

(* instruction classes for the execution profile *)
let n_classes = 12

let class_names =
  [|
    "mov"; "alu"; "mem"; "stack"; "cmp"; "jump"; "call-direct";
    "call-indirect"; "ret"; "syscall"; "table"; "other";
  |]

let instr_class = function
  | Instr.Mov_ri _ | Instr.Mov_rr _ -> 0
  | Instr.Binop _ | Instr.Binop_i _ | Instr.Test_ri _ -> 1
  | Instr.Load _ | Instr.Store _ -> 2
  | Instr.Push _ | Instr.Pop _ -> 3
  | Instr.Cmp_rr _ | Instr.Cmp_ri _ | Instr.Cmp_lo _ -> 4
  | Instr.Jmp _ | Instr.Jcc _ -> 5
  | Instr.Call _ -> 6
  | Instr.Call_r _ | Instr.Jmp_r _ -> 7
  | Instr.Ret -> 8
  | Instr.Syscall -> 9
  | Instr.Tary_load _ | Instr.Bary_load _ -> 10
  | Instr.Nop | Instr.Halt -> 11


(* Decode-memo pages: 1 KiB of code per page, so a memo page costs 9 KiB
   (a 1 KiB size page and a 1 Ki-word instruction page) and a module maps
   about as many pages as it has KiB of code — a small dlopen'd module
   one or two. *)
let memo_bits = 10
let memo_page = 1 lsl memo_bits
let memo_mask = memo_page - 1
let undecodable = 255

(* The longest encoding (a [Binop_i]): a decode at offset [off] reads at
   most the bytes [off, off + max_decode_span), so changing the bytes
   from [from] on stales decodes starting up to this many bytes before
   it, including ones that ran past the end of the loaded code into the
   unoccupied Halt bytes. *)
let max_decode_span = 11

let create ?tables ?(dispatch = Byte) ?(seed = 1L) ~code_base ~code_capacity
    ~data_words () =
  let pages = (code_capacity + memo_page - 1) / memo_page in
  {
    code_base;
    (* unoccupied code bytes hold the Halt opcode (0x01) *)
    image = Bytes.make code_capacity '\x01';
    code_len = 0;
    memo_size = Array.make pages Bytes.empty;
    memo_instr = Array.make pages [||];
    data = Array.make data_words 0;
    regs =
      (let r = Array.make Instr.num_regs 0 in
       r.(Instr.rsp) <- data_words;
       r);
    pc = 0;
    zf = false;
    lt = false;
    tables;
    reader = Option.map Idtables.Tables.register_reader tables;
    nsteps = 0;
    out = Buffer.create 256;
    brk = 1;
    prng = Mcfi_util.Prng.create seed;
    dl_handler = None;
    attacker = None;
    profile = Array.make n_classes 0;
    branch_counts = Hashtbl.create 64;
    on_transfer = None;
    dispatch;
    th_op = [||];
    th_a = [||];
    th_b = [||];
    th_p = [||];
    th_q = [||];
    th_sites = [||];
    th_nsites = 0;
    th_fused = Array.make 6 0;
    th_hoist_hits = 0;
    th_hoist_misses = 0;
    th_hoist_refills = 0;
    th_predecodes = 0;
    th_invalidations = 0;
  }

let set_dispatch m d = m.dispatch <- d
let dispatch m = m.dispatch
let set_transfer_hook m h = m.on_transfer <- h

(* A fused superinstruction beginning up to this many bytes before an
   invalidated region may embed operands decoded from bytes that just
   changed; clearing the guard band forces it to re-pre-decode.  Bounds
   every fused sequence (the longest, the masked-store quad, is 32 B). *)
let max_fuse_span = 64

(* Drop the decodes that read bytes at or after [from]: the memo entries
   of the loaded code from [max_decode_span] bytes before it (entries at
   and after [code_len] are always 0 — fetch never decodes there), and
   the pre-decodings from the wider fused-sequence guard band on.  The
   threaded stream is a cache over the memo, so it goes too. *)
let invalidate m ~from =
  for off = max 0 (from - max_decode_span + 1) to m.code_len - 1 do
    Bytes.set m.memo_size.(off lsr memo_bits) (off land memo_mask) '\000'
  done;
  let cover = Array.length m.th_op in
  if cover > 0 then begin
    let lo = max 0 (from - max_fuse_span) in
    if lo < cover then begin
      Array.fill m.th_op lo (cover - lo) 0;
      m.th_invalidations <- m.th_invalidations + 1
    end
  end

let append_code m img =
  let base = m.code_base + m.code_len in
  let len = m.code_len + String.length img in
  if len > Bytes.length m.image then
    invalid_arg "Machine.append_code: code capacity exceeded";
  Bytes.blit_string img 0 m.image m.code_len (String.length img);
  (* loading code invalidates stale decodings of the region *)
  invalidate m ~from:m.code_len;
  (* map the memo pages the new code reaches (a page left mapped by a
     truncated load is reused as it stands: its sizes are all 0) *)
  for p = m.code_len asr memo_bits to (len - 1) asr memo_bits do
    if Bytes.length m.memo_size.(p) = 0 then begin
      m.memo_size.(p) <- Bytes.make memo_page '\000';
      m.memo_instr.(p) <- Array.make memo_page Instr.Halt
    end
  done;
  m.code_len <- len;
  Faults.hit Faults.Plan.After_code_append;
  base

let code_end m = m.code_base + m.code_len
let code_base m = m.code_base
let code_image m = Bytes.sub_string m.image 0 m.code_len

let release m =
  match (m.tables, m.reader) with
  | Some t, Some r ->
    m.reader <- None;
    Idtables.Tables.unregister_reader t r
  | _ -> ()

let truncate_code m ~code_end =
  let len = code_end - m.code_base in
  if len < 0 || len > m.code_len then
    invalid_arg (Printf.sprintf "Machine.truncate_code: 0x%x" code_end);
  (* scrub back to the unoccupied-byte pattern (Halt) and drop decodings *)
  Bytes.fill m.image len (m.code_len - len) '\x01';
  invalidate m ~from:len;
  m.code_len <- len

let set_pc m addr = m.pc <- addr

let set_brk m addr = m.brk <- addr
let brk m = m.brk

(* word 0 is the unmapped NULL page: rejected here exactly as [load] and
   [store] reject it, so the loader/test/attacker interface cannot reach
   memory the interpreted program cannot *)
let read_data m addr =
  if addr <= 0 || addr >= Array.length m.data then
    invalid_arg (Printf.sprintf "Machine.read_data: address %d" addr);
  m.data.(addr)

let write_data m addr v =
  if addr <= 0 || addr >= Array.length m.data then
    invalid_arg (Printf.sprintf "Machine.write_data: address %d" addr);
  m.data.(addr) <- v

let data_size m = Array.length m.data
let reg m i = m.regs.(i)
let set_reg m i v = m.regs.(i) <- v
let pc m = m.pc
let steps m = m.nsteps
let output m = Buffer.contents m.out
let set_dl_handler m h = m.dl_handler <- Some h
let set_attacker m a = m.attacker <- Some a

let read_string m addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if a <= 0 || a >= Array.length m.data then Buffer.contents buf
    else begin
      let c = m.data.(a) land 0xff in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1)
      end
    end
  in
  go addr

(* Fetch the instruction at code offset [off] — mid-instruction offsets
   decode whatever bytes are there, as on a real CISC.  Returns its size,
   or 0 when [off] is outside the loaded code or the bytes there do not
   decode; the instruction is then [instr_at m off].  Allocates nothing
   once the offset is memoized. *)
let fetch m off =
  if off < 0 || off >= m.code_len then 0
  else begin
    let sizes = m.memo_size.(off lsr memo_bits) and k = off land memo_mask in
    let size = Char.code (Bytes.get sizes k) in
    if size = undecodable then 0
    else if size > 0 then size
    else begin
      match Encode.decode (Bytes.unsafe_to_string m.image) off with
      | Ok (i, off') ->
        m.memo_instr.(off lsr memo_bits).(k) <- i;
        Bytes.set sizes k (Char.chr (off' - off));
        off' - off
      | Error _ ->
        Bytes.set sizes k (Char.chr undecodable);
        0
    end
  end

let instr_at m off = m.memo_instr.(off lsr memo_bits).(off land memo_mask)

exception Trap of exit_reason

let trap r = raise (Trap r)

let load m addr =
  if addr <= 0 || addr >= Array.length m.data then
    trap (Fault (Printf.sprintf "load from 0x%x" addr))
  else m.data.(addr)

let store m addr v =
  if addr <= 0 || addr >= Array.length m.data then
    trap (Fault (Printf.sprintf "store to 0x%x" addr))
  else m.data.(addr) <- v

let push m v =
  let sp = m.regs.(Instr.rsp) - 1 in
  m.regs.(Instr.rsp) <- sp;
  store m sp v

let pop m =
  let sp = m.regs.(Instr.rsp) in
  let v = load m sp in
  m.regs.(Instr.rsp) <- sp + 1;
  v

let binop op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then trap (Fault "division by zero") else a / b
  | Instr.Mod -> if b = 0 then trap (Fault "division by zero") else a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a asr (b land 63)

let set_flags m a b =
  m.zf <- a = b;
  m.lt <- a < b

let cond_holds m = function
  | Instr.Eq -> m.zf
  | Instr.Ne -> not m.zf
  | Instr.Lt -> m.lt
  | Instr.Le -> m.lt || m.zf
  | Instr.Gt -> not (m.lt || m.zf)
  | Instr.Ge -> not m.lt

let sbrk m words =
  if words < 0 then trap (Fault "sbrk with negative size");
  let base = m.brk in
  if base + words >= m.regs.(Instr.rsp) - 1024 then
    trap (Fault "out of heap memory");
  m.brk <- base + words;
  base

let tables m =
  match m.tables with
  | Some t -> t
  | None -> trap (Fault "table access without ID tables")

let syscall m =
  (* a thread at a system call is outside any check transaction: a
     per-reader quiescence point (paper §5.2).  Declaring global
     quiescence directly would be unsound with other checker domains on
     the same tables, so bump this machine's epoch and let the epoch
     machinery declare it when every registered reader agrees; the
     attempt is non-blocking, so a live updater never stalls the VM. *)
  (match (m.tables, m.reader) with
  | Some t, Some r ->
    Idtables.Tables.reader_quiescent r;
    if Idtables.Tables.updates_since_quiesce t > 0 then
      ignore (Idtables.Tables.quiesce_attempt t)
  | _ -> ());
  let num = m.regs.(0) in
  let arg k = m.regs.(k) in
  if num = Abi.sys_exit then trap (Exited (arg 1))
  else if num = Abi.sys_print_int then begin
    Buffer.add_string m.out (string_of_int (arg 1));
    m.regs.(0) <- 0
  end
  else if num = Abi.sys_print_str then begin
    Buffer.add_string m.out (read_string m (arg 1));
    m.regs.(0) <- 0
  end
  else if num = Abi.sys_sbrk then m.regs.(0) <- sbrk m (arg 1)
  else if num = Abi.sys_cycles then m.regs.(0) <- m.nsteps
  else if num = Abi.sys_rand then
    m.regs.(0) <- Mcfi_util.Prng.int m.prng 0x40000000
  else if num = Abi.sys_dlopen || num = Abi.sys_dlsym then begin
    match m.dl_handler with
    | Some h -> m.regs.(0) <- h m num (read_string m (arg 1))
    | None -> trap (Fault "dlopen/dlsym without a dynamic linker")
  end
  else trap (Fault (Printf.sprintf "unknown syscall %d" num))

let exec m i size =
  let next = m.pc + size in
  let r = m.regs in
  match i with
  | Instr.Nop -> m.pc <- next
  | Instr.Halt -> trap Cfi_halt
  | Instr.Mov_ri (rd, v) ->
    r.(rd) <- v;
    m.pc <- next
  | Instr.Mov_rr (rd, rs) ->
    r.(rd) <- r.(rs);
    m.pc <- next
  | Instr.Binop (op, rd, rs) ->
    r.(rd) <- binop op r.(rd) r.(rs);
    m.pc <- next
  | Instr.Binop_i (op, rd, v) ->
    r.(rd) <- binop op r.(rd) v;
    m.pc <- next
  | Instr.Load (rd, rs, off) ->
    r.(rd) <- load m (r.(rs) + off);
    m.pc <- next
  | Instr.Store (rb, off, rs) ->
    store m (r.(rb) + off) r.(rs);
    m.pc <- next
  | Instr.Push rs ->
    push m r.(rs);
    m.pc <- next
  | Instr.Pop rd ->
    r.(rd) <- pop m;
    m.pc <- next
  | Instr.Cmp_rr (a, b) ->
    set_flags m r.(a) r.(b);
    m.pc <- next
  | Instr.Cmp_ri (a, v) ->
    set_flags m r.(a) v;
    m.pc <- next
  | Instr.Cmp_lo (a, b) ->
    set_flags m (r.(a) land 0xffff) (r.(b) land 0xffff);
    m.pc <- next
  | Instr.Test_ri (a, v) ->
    m.zf <- r.(a) land v = 0;
    m.lt <- false;
    m.pc <- next
  | Instr.Jmp a -> m.pc <- a
  | Instr.Jcc (c, a) -> m.pc <- (if cond_holds m c then a else next)
  | Instr.Call a ->
    push m next;
    m.pc <- a
  | Instr.Call_r rs ->
    let pc0 = m.pc in
    push m next;
    let tgt = r.(rs) in
    (match m.on_transfer with Some f -> f pc0 tgt | None -> ());
    m.pc <- tgt
  | Instr.Jmp_r rs ->
    (match m.on_transfer with Some f -> f m.pc r.(rs) | None -> ());
    m.pc <- r.(rs)
  | Instr.Ret ->
    let pc0 = m.pc in
    let tgt = pop m in
    (match m.on_transfer with Some f -> f pc0 tgt | None -> ());
    m.pc <- tgt
  | Instr.Syscall ->
    syscall m;
    m.pc <- next
  | Instr.Tary_load (rd, rs) ->
    r.(rd) <- Idtables.Tables.tary_read (tables m) r.(rs);
    m.pc <- next
  | Instr.Bary_load (rd, idx) -> begin
    match Idtables.Tables.bary_read (tables m) idx with
    | id ->
      r.(rd) <- id;
      m.pc <- next
    | exception Invalid_argument _ ->
      trap (Fault (Printf.sprintf "Bary index %d out of range" idx))
  end

let current_instr m =
  let off = m.pc - m.code_base in
  if fetch m off > 0 then Some (instr_at m off) else None

let profile_count m i =
  let k = instr_class i in
  m.profile.(k) <- m.profile.(k) + 1;
  match i with
  | Instr.Bary_load (_, idx) ->
    let cur = try Hashtbl.find m.branch_counts idx with Not_found -> 0 in
    Hashtbl.replace m.branch_counts idx (cur + 1)
  | _ -> ()

let profile m =
  Array.to_list (Array.mapi (fun k n -> (class_names.(k), n)) m.profile)

let branch_profile m =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.branch_counts [])

(* One instruction; a trap escapes as [Trap] *)
let step_exn m =
  (match m.attacker with Some a -> a m | None -> ());
  let off = m.pc - m.code_base in
  let size = fetch m off in
  if size = 0 then
    trap (Fault (Printf.sprintf "bad instruction fetch at 0x%x" m.pc));
  let i = instr_at m off in
  m.nsteps <- m.nsteps + 1;
  if Telemetry.enabled () then profile_count m i;
  exec m i size

let step m = match step_exn m with () -> None | exception Trap r -> Some r

let run_byte m fuel =
  try
    for _ = 1 to fuel do
      step_exn m
    done;
    Out_of_fuel
  with Trap r -> r

(* ---- the threaded-code engine ----

   The byte engine pays, per retired instruction: a fetch (bounds
   check, a memo probe through the page directory, the instruction read
   from its memo page) and a 23-way constructor match.  The
   threaded engine pre-decodes each byte offset once into a dense
   handler index plus operand words in five parallel int arrays, so
   the steady-state loop is one array load and an integer-dispatch
   jump — no allocation, no re-decode — and the hottest sequence of
   all, the rewriter's CFI check + indirect branch, collapses into a
   single fused handler with a version-hoisted table cache.

   Handler index map (0/1 are sentinels, the rest mirror [exec]):
      0 not pre-decoded          1 bytes do not decode
      2 Nop        3 Halt        4 Mov_ri      5 Mov_rr
      6 Binop      7 Binop_i     8 Load        9 Store
     10 Push      11 Pop        12 Cmp_rr     13 Cmp_ri
     14 Cmp_lo    15 Test_ri    16 Jmp        17 Jcc
     18 Call     19 Call_r     20 Jmp_r      21 Ret
     22 Syscall  23 Tary_load  24 Bary_load
   Fused superinstructions (table+table/table+cmp/cmp+jump pairs
   dominate instrumented runs):
     25 check+Jmp_r   26 check+Call_r   27 Pop+check+Jmp_r
     28 Cmp_rr+Jcc    29 Cmp_ri+Jcc     30 masked-store quad

   Operand layout per handler: [th_q] holds the decoded size for every
   base handler (2-24); immediates/addresses sit in [th_p], register
   numbers in [th_a]/[th_b].  Fused check handlers keep everything in
   an [hsite] record indexed by [th_a]. *)

let binop_code = function
  | Instr.Add -> 0 | Instr.Sub -> 1 | Instr.Mul -> 2 | Instr.Div -> 3
  | Instr.Mod -> 4 | Instr.And -> 5 | Instr.Or -> 6 | Instr.Xor -> 7
  | Instr.Shl -> 8 | Instr.Shr -> 9

let binop_of_code = function
  | 0 -> Instr.Add | 1 -> Instr.Sub | 2 -> Instr.Mul | 3 -> Instr.Div
  | 4 -> Instr.Mod | 5 -> Instr.And | 6 -> Instr.Or | 7 -> Instr.Xor
  | 8 -> Instr.Shl | _ -> Instr.Shr

let cond_code = function
  | Instr.Eq -> 0 | Instr.Ne -> 1 | Instr.Lt -> 2
  | Instr.Le -> 3 | Instr.Gt -> 4 | Instr.Ge -> 5

let cond_of_code = function
  | 0 -> Instr.Eq | 1 -> Instr.Ne | 2 -> Instr.Lt
  | 3 -> Instr.Le | 4 -> Instr.Gt | _ -> Instr.Ge

(* Grow the pre-decode arrays to cover the loaded code — never the
   reserved capacity (a default process reserves 4 MiB; five capacity-
   sized int arrays would be 160 MiB of dead weight). *)
let ensure_th m =
  let need = m.code_len in
  if Array.length m.th_op < need then begin
    let cap = max 256 (max need (2 * Array.length m.th_op)) in
    let grow old =
      let a = Array.make cap 0 in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    m.th_op <- grow m.th_op;
    m.th_a <- grow m.th_a;
    m.th_b <- grow m.th_b;
    m.th_p <- grow m.th_p;
    m.th_q <- grow m.th_q
  end

let new_site m s =
  if m.th_nsites >= Array.length m.th_sites then begin
    let cap = max 16 (2 * Array.length m.th_sites) in
    let a = Array.make cap s in
    Array.blit m.th_sites 0 a 0 m.th_nsites;
    m.th_sites <- a
  end;
  m.th_sites.(m.th_nsites) <- s;
  m.th_nsites <- m.th_nsites + 1;
  m.th_nsites - 1

(* The instruction at code offset [off] for the pre-decode matchers
   below, its size being [fetch m off]: bytes that do not decode read as
   [Halt], which no fusion pattern accepts. *)
let decoded m off = if fetch m off > 0 then instr_at m off else Instr.Halt

(* Match the rewriter's check sequence starting at code offset [off]:
     Bary_load (rb, slot); Tary_load (rt, rtgt); Cmp_rr (rb, rt);
     Jcc (Ne, check); Nop*pad; (Jmp_r rtgt | Call_r rtgt)
   (pad <= 3: the rewriter's [Align_end] pads so the call's return
   address is 4-aligned).  All components come from the shared decode
   memo, so a fused head replays exactly what the byte engine would
   decode at each offset. *)
let match_check m off =
  match decoded m off with
  | Instr.Bary_load (rb, slot) -> begin
    let o1 = off + fetch m off in
    match decoded m o1 with
    | Instr.Tary_load (rt, rtgt) -> begin
      let o2 = o1 + fetch m o1 in
      match decoded m o2 with
      | Instr.Cmp_rr (x, y) when x = rb && y = rt -> begin
        let o3 = o2 + fetch m o2 in
        match decoded m o3 with
        | Instr.Jcc (Instr.Ne, check) ->
          let rec branch o pad =
            if pad > 3 then None
            else begin
              match decoded m o with
              | Instr.Nop -> branch (o + fetch m o) (pad + 1)
              | Instr.Jmp_r r when r = rtgt && pad = 0 ->
                Some (`Jmp, slot, rb, rt, rtgt, check, pad, o + fetch m o - off)
              | Instr.Call_r r when r = rtgt ->
                Some (`Call, slot, rb, rt, rtgt, check, pad, o + fetch m o - off)
              | _ -> None
            end
          in
          branch (o3 + fetch m o3) 0
        | _ -> None
      end
      | _ -> None
    end
    | _ -> None
  end
  | _ -> None

let fuse_check_at m off ~pre_size ~rpop =
  match match_check m (off + pre_size) with
  | Some (kind, slot, rb, rt, rtgt, check, pad, size)
    when rpop < 0 || (rpop = rtgt && kind = `Jmp) ->
    let site =
      {
        hs_slot = slot;
        hs_rb = rb;
        hs_rt = rt;
        hs_rtgt = rtgt;
        hs_check = check;
        hs_pad = pad;
        hs_size = pre_size + size;
        hs_seq = -1;
        hs_target = min_int;
        hs_bid = Id.invalid;
        hs_tid = Id.invalid;
      }
    in
    let op =
      if rpop >= 0 then 27 (* Pop+check+Jmp_r *)
      else if kind = `Jmp then 25 (* check+Jmp_r *)
      else 26 (* check+Call_r *)
    in
    m.th_op.(off) <- op;
    m.th_a.(off) <- new_site m site;
    Some op
  | _ -> None

let install_base m off i size =
  let set op a b p =
    m.th_op.(off) <- op;
    m.th_a.(off) <- a;
    m.th_b.(off) <- b;
    m.th_p.(off) <- p;
    m.th_q.(off) <- size;
    op
  in
  match i with
  | Instr.Nop -> set 2 0 0 0
  | Instr.Halt -> set 3 0 0 0
  | Instr.Mov_ri (rd, v) -> set 4 rd 0 v
  | Instr.Mov_rr (rd, rs) -> set 5 rd rs 0
  | Instr.Binop (op, rd, rs) -> set 6 rd rs (binop_code op)
  | Instr.Binop_i (op, rd, v) -> set 7 rd (binop_code op) v
  | Instr.Load (rd, rs, o) -> set 8 rd rs o
  | Instr.Store (rb, o, rs) -> set 9 rb rs o
  | Instr.Push rs -> set 10 rs 0 0
  | Instr.Pop rd -> set 11 rd 0 0
  | Instr.Cmp_rr (a, b) -> set 12 a b 0
  | Instr.Cmp_ri (a, v) -> set 13 a 0 v
  | Instr.Cmp_lo (a, b) -> set 14 a b 0
  | Instr.Test_ri (a, v) -> set 15 a 0 v
  | Instr.Jmp a -> set 16 0 0 a
  | Instr.Jcc (c, a) -> set 17 (cond_code c) 0 a
  | Instr.Call a -> set 18 0 0 a
  | Instr.Call_r r -> set 19 r 0 0
  | Instr.Jmp_r r -> set 20 r 0 0
  | Instr.Ret -> set 21 0 0 0
  | Instr.Syscall -> set 22 0 0 0
  | Instr.Tary_load (rd, rs) -> set 23 rd rs 0
  | Instr.Bary_load (rd, idx) -> set 24 rd 0 idx

(* Fusions beyond the check sequence: cmp+jcc (the VM's universal
   compare-and-branch idiom) and the sandbox masked-store quad the
   rewriter emits before every instrumented store. *)
let try_fuse m off i size =
  match i with
  | Instr.Bary_load _ -> fuse_check_at m off ~pre_size:0 ~rpop:(-1)
  | Instr.Pop rpop -> fuse_check_at m off ~pre_size:size ~rpop
  | Instr.Cmp_rr (a, b) -> begin
    match decoded m (off + size) with
    | Instr.Jcc (c, addr) ->
      m.th_op.(off) <- 28;
      m.th_a.(off) <- a;
      m.th_b.(off) <- b;
      (* cond and total size packed in one word: both are small *)
      m.th_p.(off) <- (cond_code c * 256) + size + fetch m (off + size);
      m.th_q.(off) <- addr;
      Some 28
    | _ -> None
  end
  | Instr.Cmp_ri (a, v) -> begin
    match decoded m (off + size) with
    | Instr.Jcc (c, addr) ->
      m.th_op.(off) <- 29;
      m.th_a.(off) <- a;
      m.th_b.(off) <- (cond_code c * 256) + size + fetch m (off + size);
      m.th_p.(off) <- v;
      m.th_q.(off) <- addr;
      Some 29
    | _ -> None
  end
  | Instr.Mov_rr (x, rb) -> begin
    let o1 = off + size in
    match decoded m o1 with
    | Instr.Binop_i (Instr.Add, x1, o) when x1 = x -> begin
      let o2 = o1 + fetch m o1 in
      match decoded m o2 with
      | Instr.Binop_i (Instr.And, x2, mask) when x2 = x -> begin
        let o3 = o2 + fetch m o2 in
        match decoded m o3 with
        | Instr.Store (x3, 0, rs) when x3 = x ->
          m.th_op.(off) <- 30;
          m.th_a.(off) <- x lor (rb lsl 4) lor (rs lsl 8)
                          lor ((o3 + fetch m o3 - off) lsl 12);
          m.th_p.(off) <- o;
          m.th_q.(off) <- mask;
          Some 30
        | _ -> None
      end
      | _ -> None
    end
    | _ -> None
  end
  | _ -> None

let predecode m off =
  m.th_predecodes <- m.th_predecodes + 1;
  let size = fetch m off in
  if size = 0 then begin
    m.th_op.(off) <- 1;
    1
  end
  else begin
    let i = instr_at m off in
    match try_fuse m off i size with
    | Some op -> op
    | None -> install_base m off i size
  end

(* The fused check body, shared by handlers 25-27.  Retires the
   Bary_load/Tary_load/Cmp_rr/Jcc components with byte-exact register,
   flag, [nsteps] and trap behaviour; returns [true] when the compare
   passed (fall through to the branch component) and [false] when the
   mismatch edge was taken to the interpreted check block.

   Version hoisting: when the shard's install sequence word is even and
   unchanged since the cache was filled for the same target, the tables
   are provably bit-identical to the fill instant and the cached pair
   replays with no table reads at all.  A miss performs the two reads
   exactly as the byte engine would and refills only if the word stayed
   put across them and the pair is settled (never a version skew). *)
let exec_check m site =
  match m.tables with
  | None ->
    (* Bary_load: the byte engine counts the step before it traps *)
    m.nsteps <- m.nsteps + 1;
    trap (Fault "table access without ID tables")
  | Some t ->
    let tgt = m.regs.(site.hs_rtgt) in
    let s = Idtables.Tables.seq_read t in
    if s land 1 = 0 && s = site.hs_seq && tgt = site.hs_target then begin
      m.th_hoist_hits <- m.th_hoist_hits + 1;
      m.nsteps <- m.nsteps + 4;
      m.regs.(site.hs_rb) <- site.hs_bid;
      m.regs.(site.hs_rt) <- site.hs_tid;
      set_flags m site.hs_bid site.hs_tid;
      if m.zf then true
      else begin
        m.pc <- site.hs_check;
        false
      end
    end
    else begin
      m.th_hoist_misses <- m.th_hoist_misses + 1;
      m.nsteps <- m.nsteps + 1;
      (* Bary_load *)
      let bid =
        match Idtables.Tables.bary_read t site.hs_slot with
        | id -> id
        | exception Invalid_argument _ ->
          trap
            (Fault (Printf.sprintf "Bary index %d out of range" site.hs_slot))
      in
      m.regs.(site.hs_rb) <- bid;
      m.nsteps <- m.nsteps + 1;
      (* Tary_load *)
      let tid = Idtables.Tables.tary_read t tgt in
      m.regs.(site.hs_rt) <- tid;
      m.nsteps <- m.nsteps + 1;
      (* Cmp_rr *)
      set_flags m bid tid;
      m.nsteps <- m.nsteps + 1;
      (* Jcc *)
      if
        s land 1 = 0
        && Idtables.Tables.seq_read t = s
        && (bid = tid || (not (Id.valid tid)) || Id.same_version bid tid)
      then begin
        m.th_hoist_refills <- m.th_hoist_refills + 1;
        site.hs_seq <- s;
        site.hs_target <- tgt;
        site.hs_bid <- bid;
        site.hs_tid <- tid
      end;
      if m.zf then true
      else begin
        m.pc <- site.hs_check;
        false
      end
    end

let step_th m off op =
  let r = m.regs in
  match op with
  | 2 ->
    (* Nop *)
    m.nsteps <- m.nsteps + 1;
    m.pc <- m.pc + m.th_q.(off)
  | 3 ->
    (* Halt *)
    m.nsteps <- m.nsteps + 1;
    trap Cfi_halt
  | 4 ->
    (* Mov_ri *)
    m.nsteps <- m.nsteps + 1;
    r.(m.th_a.(off)) <- m.th_p.(off);
    m.pc <- m.pc + m.th_q.(off)
  | 5 ->
    (* Mov_rr *)
    m.nsteps <- m.nsteps + 1;
    r.(m.th_a.(off)) <- r.(m.th_b.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 6 ->
    (* Binop *)
    m.nsteps <- m.nsteps + 1;
    let rd = m.th_a.(off) in
    r.(rd) <- binop (binop_of_code m.th_p.(off)) r.(rd) r.(m.th_b.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 7 ->
    (* Binop_i *)
    m.nsteps <- m.nsteps + 1;
    let rd = m.th_a.(off) in
    r.(rd) <- binop (binop_of_code m.th_b.(off)) r.(rd) m.th_p.(off);
    m.pc <- m.pc + m.th_q.(off)
  | 8 ->
    (* Load *)
    m.nsteps <- m.nsteps + 1;
    r.(m.th_a.(off)) <- load m (r.(m.th_b.(off)) + m.th_p.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 9 ->
    (* Store *)
    m.nsteps <- m.nsteps + 1;
    store m (r.(m.th_a.(off)) + m.th_p.(off)) r.(m.th_b.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 10 ->
    (* Push *)
    m.nsteps <- m.nsteps + 1;
    push m r.(m.th_a.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 11 ->
    (* Pop *)
    m.nsteps <- m.nsteps + 1;
    r.(m.th_a.(off)) <- pop m;
    m.pc <- m.pc + m.th_q.(off)
  | 12 ->
    (* Cmp_rr *)
    m.nsteps <- m.nsteps + 1;
    set_flags m r.(m.th_a.(off)) r.(m.th_b.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 13 ->
    (* Cmp_ri *)
    m.nsteps <- m.nsteps + 1;
    set_flags m r.(m.th_a.(off)) m.th_p.(off);
    m.pc <- m.pc + m.th_q.(off)
  | 14 ->
    (* Cmp_lo *)
    m.nsteps <- m.nsteps + 1;
    set_flags m
      (r.(m.th_a.(off)) land 0xffff)
      (r.(m.th_b.(off)) land 0xffff);
    m.pc <- m.pc + m.th_q.(off)
  | 15 ->
    (* Test_ri *)
    m.nsteps <- m.nsteps + 1;
    m.zf <- r.(m.th_a.(off)) land m.th_p.(off) = 0;
    m.lt <- false;
    m.pc <- m.pc + m.th_q.(off)
  | 16 ->
    (* Jmp *)
    m.nsteps <- m.nsteps + 1;
    m.pc <- m.th_p.(off)
  | 17 ->
    (* Jcc *)
    m.nsteps <- m.nsteps + 1;
    m.pc <-
      (if cond_holds m (cond_of_code m.th_a.(off)) then m.th_p.(off)
       else m.pc + m.th_q.(off))
  | 18 ->
    (* Call *)
    m.nsteps <- m.nsteps + 1;
    push m (m.pc + m.th_q.(off));
    m.pc <- m.th_p.(off)
  | 19 ->
    (* Call_r *)
    m.nsteps <- m.nsteps + 1;
    let pc0 = m.pc in
    push m (pc0 + m.th_q.(off));
    let tgt = r.(m.th_a.(off)) in
    (match m.on_transfer with Some f -> f pc0 tgt | None -> ());
    m.pc <- tgt
  | 20 ->
    (* Jmp_r *)
    m.nsteps <- m.nsteps + 1;
    (match m.on_transfer with Some f -> f m.pc r.(m.th_a.(off)) | None -> ());
    m.pc <- r.(m.th_a.(off))
  | 21 ->
    (* Ret *)
    m.nsteps <- m.nsteps + 1;
    let pc0 = m.pc in
    let tgt = pop m in
    (match m.on_transfer with Some f -> f pc0 tgt | None -> ());
    m.pc <- tgt
  | 22 ->
    (* Syscall — may reach the dynamic linker, which appends code and
       invalidates pre-decodings; the size was captured at install *)
    m.nsteps <- m.nsteps + 1;
    let next = m.pc + m.th_q.(off) in
    syscall m;
    m.pc <- next
  | 23 ->
    (* Tary_load *)
    m.nsteps <- m.nsteps + 1;
    r.(m.th_a.(off)) <- Idtables.Tables.tary_read (tables m) r.(m.th_b.(off));
    m.pc <- m.pc + m.th_q.(off)
  | 24 ->
    (* Bary_load *)
    m.nsteps <- m.nsteps + 1;
    let idx = m.th_p.(off) in
    (match Idtables.Tables.bary_read (tables m) idx with
    | id ->
      r.(m.th_a.(off)) <- id;
      m.pc <- m.pc + m.th_q.(off)
    | exception Invalid_argument _ ->
      trap (Fault (Printf.sprintf "Bary index %d out of range" idx)))
  | 25 ->
    (* check + Jmp_r *)
    let site = m.th_sites.(m.th_a.(off)) in
    if exec_check m site then begin
      m.nsteps <- m.nsteps + 1;
      let pc0 = m.pc + site.hs_size - 2 in
      let tgt = r.(site.hs_rtgt) in
      (match m.on_transfer with Some f -> f pc0 tgt | None -> ());
      m.pc <- tgt
    end
  | 26 ->
    (* check + Call_r *)
    let site = m.th_sites.(m.th_a.(off)) in
    let base = m.pc in
    if exec_check m site then begin
      m.nsteps <- m.nsteps + site.hs_pad;
      (* alignment Nops *)
      m.nsteps <- m.nsteps + 1;
      (* a trapping push must leave [pc] at the Call_r, as byte would *)
      m.pc <- base + site.hs_size - 2;
      push m (base + site.hs_size);
      let tgt = r.(site.hs_rtgt) in
      (match m.on_transfer with
      | Some f -> f (base + site.hs_size - 2) tgt
      | None -> ());
      m.pc <- tgt
    end
  | 27 ->
    (* Pop + check + Jmp_r (the return sequence) *)
    let site = m.th_sites.(m.th_a.(off)) in
    let base = m.pc in
    m.nsteps <- m.nsteps + 1;
    r.(site.hs_rtgt) <- pop m;
    (* byte would have advanced past the Pop before the Bary_load can
       trap; keep trap-time [pc] identical *)
    m.pc <- base + 2;
    if exec_check m site then begin
      m.nsteps <- m.nsteps + 1;
      let pc0 = base + site.hs_size - 2 in
      let tgt = r.(site.hs_rtgt) in
      (match m.on_transfer with Some f -> f pc0 tgt | None -> ());
      m.pc <- tgt
    end
  | 28 ->
    (* Cmp_rr + Jcc *)
    m.nsteps <- m.nsteps + 2;
    set_flags m r.(m.th_a.(off)) r.(m.th_b.(off));
    let packed = m.th_p.(off) in
    m.pc <-
      (if cond_holds m (cond_of_code (packed / 256)) then m.th_q.(off)
       else m.pc + (packed land 255))
  | 29 ->
    (* Cmp_ri + Jcc *)
    m.nsteps <- m.nsteps + 2;
    set_flags m r.(m.th_a.(off)) m.th_p.(off);
    let packed = m.th_b.(off) in
    m.pc <-
      (if cond_holds m (cond_of_code (packed / 256)) then m.th_q.(off)
       else m.pc + (packed land 255))
  | 30 ->
    (* masked store: Mov_rr; Add; And; Store *)
    let packed = m.th_a.(off) in
    let x = packed land 15 in
    let rb = (packed lsr 4) land 15 in
    let rs = (packed lsr 8) land 15 in
    let size = packed lsr 12 in
    let base = m.pc in
    m.nsteps <- m.nsteps + 1;
    r.(x) <- r.(rb);
    m.nsteps <- m.nsteps + 1;
    r.(x) <- r.(x) + m.th_p.(off);
    m.nsteps <- m.nsteps + 1;
    r.(x) <- r.(x) land m.th_q.(off);
    m.nsteps <- m.nsteps + 1;
    (* a trapping store must leave [pc] at the Store, as byte would *)
    m.pc <- base + size - 7;
    store m r.(x) r.(rs);
    m.pc <- base + size
  | _ ->
    (* unreachable: callers hand only installed handler indices here *)
    trap (Fault (Printf.sprintf "bad instruction fetch at 0x%x" m.pc))

(* When exactness demands per-instruction granularity — an attacker hook
   must run between every two instructions, telemetry profiling counts
   every retired instruction, or fewer than [max-superinstruction]
   steps of fuel remain (a fused handler must not overshoot the fuel
   the byte engine would exhaust mid-sequence) — the loop defers to the
   byte-path [step_exn].  Everything it computes stays valid because both
   engines share the decode memo and all machine state. *)
let run_threaded m fuel =
  (* fuel is retired instructions, so the budget is just a ceiling on
     [nsteps] — no per-iteration delta bookkeeping *)
  let limit = m.nsteps + fuel in
  try
    while true do
      let remaining = limit - m.nsteps in
      if remaining <= 0 then trap Out_of_fuel;
      if remaining < 8 || m.attacker <> None || Telemetry.enabled () then
        step_exn m
      else begin
        let off = m.pc - m.code_base in
        if off < 0 || off >= m.code_len then
          trap (Fault (Printf.sprintf "bad instruction fetch at 0x%x" m.pc));
        if off >= Array.length m.th_op then ensure_th m;
        let op = m.th_op.(off) in
        let op = if op = 0 then predecode m off else op in
        if op = 1 then
          trap (Fault (Printf.sprintf "bad instruction fetch at 0x%x" m.pc));
        if op >= 25 then m.th_fused.(op - 25) <- m.th_fused.(op - 25) + 1;
        step_th m off op
      end
    done;
    assert false
  with Trap r -> r

let run ?(fuel = 100_000_000) m =
  match m.dispatch with Byte -> run_byte m fuel | Threaded -> run_threaded m fuel

(* ---- threaded-dispatch internals (observability) ---- *)

let fused_names =
  [|
    "check_jmp"; "check_call"; "pop_check_jmp"; "cmp_jcc"; "cmpi_jcc";
    "masked_store";
  |]

let dispatch_stats m =
  Array.to_list
    (Array.mapi (fun k n -> ("fused_" ^ fused_names.(k), n)) m.th_fused)
  @ [
      ("hoist_hits", m.th_hoist_hits);
      ("hoist_misses", m.th_hoist_misses);
      ("hoist_refills", m.th_hoist_refills);
      ("predecodes", m.th_predecodes);
      ("invalidations", m.th_invalidations);
    ]

let publish_dispatch_stats m =
  List.iter
    (fun (n, v) ->
      if v > 0 then
        Telemetry.Metrics.add (Telemetry.Metrics.counter ("mcfi_dispatch_" ^ n)) v)
    (dispatch_stats m)
