open Instr

type decode_error =
  | Bad_opcode of int
  | Bad_register of int
  | Bad_binop of int
  | Bad_cond of int
  | Truncated

let pp_decode_error ppf = function
  | Bad_opcode b -> Fmt.pf ppf "bad opcode 0x%02x" b
  | Bad_register r -> Fmt.pf ppf "bad register %d" r
  | Bad_binop b -> Fmt.pf ppf "bad binop code %d" b
  | Bad_cond c -> Fmt.pf ppf "bad cond code %d" c
  | Truncated -> Fmt.string ppf "truncated instruction"

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9

let binop_of_code = function
  | 0 -> Some Add | 1 -> Some Sub | 2 -> Some Mul | 3 -> Some Div
  | 4 -> Some Mod | 5 -> Some And | 6 -> Some Or | 7 -> Some Xor
  | 8 -> Some Shl | 9 -> Some Shr | _ -> None

let cond_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let cond_of_code = function
  | 0 -> Some Eq | 1 -> Some Ne | 2 -> Some Lt | 3 -> Some Le
  | 4 -> Some Gt | 5 -> Some Ge | _ -> None

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_i32 buf v =
  put_u8 buf v;
  put_u8 buf (v asr 8);
  put_u8 buf (v asr 16);
  put_u8 buf (v asr 24)

let put_i64 buf v =
  let v64 = Int64.of_int v in
  for k = 0 to 7 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v64 (8 * k)))
  done

let encode buf = function
  | Nop -> put_u8 buf 0x00
  | Halt -> put_u8 buf 0x01
  | Ret -> put_u8 buf 0x02
  | Syscall -> put_u8 buf 0x03
  | Push r -> put_u8 buf 0x10; put_u8 buf r
  | Pop r -> put_u8 buf 0x11; put_u8 buf r
  | Call_r r -> put_u8 buf 0x12; put_u8 buf r
  | Jmp_r r -> put_u8 buf 0x13; put_u8 buf r
  | Mov_rr (rd, rs) -> put_u8 buf 0x20; put_u8 buf rd; put_u8 buf rs
  | Cmp_rr (a, b) -> put_u8 buf 0x21; put_u8 buf a; put_u8 buf b
  | Cmp_lo (a, b) -> put_u8 buf 0x22; put_u8 buf a; put_u8 buf b
  | Tary_load (rd, rs) -> put_u8 buf 0x23; put_u8 buf rd; put_u8 buf rs
  | Binop (op, rd, rs) ->
    put_u8 buf 0x30; put_u8 buf (binop_code op); put_u8 buf rd; put_u8 buf rs
  | Jmp a -> put_u8 buf 0x40; put_i32 buf a
  | Call a -> put_u8 buf 0x41; put_i32 buf a
  | Jcc (c, a) -> put_u8 buf 0x50; put_u8 buf (cond_code c); put_i32 buf a
  | Bary_load (rd, i) -> put_u8 buf 0x51; put_u8 buf rd; put_i32 buf i
  | Load (rd, rs, off) ->
    put_u8 buf 0x60; put_u8 buf rd; put_u8 buf rs; put_i32 buf off
  | Store (rb, off, rs) ->
    put_u8 buf 0x61; put_u8 buf rb; put_u8 buf rs; put_i32 buf off
  | Mov_ri (rd, i) -> put_u8 buf 0x70; put_u8 buf rd; put_i64 buf i
  | Cmp_ri (rd, i) -> put_u8 buf 0x71; put_u8 buf rd; put_i64 buf i
  | Test_ri (rd, i) -> put_u8 buf 0x72; put_u8 buf rd; put_i64 buf i
  | Binop_i (op, rd, i) ->
    put_u8 buf 0x80; put_u8 buf (binop_code op); put_u8 buf rd; put_i64 buf i

let encode_all instrs =
  let buf = Buffer.create 1024 in
  List.iter (encode buf) instrs;
  Buffer.contents buf

(* Decoding reads operands straight out of the string and leaves through
   [Bad] at the first malformed byte, so a decode allocates only the
   instruction and its result pair — the verifier decodes every loaded
   byte, and the VM's fetch every first-executed offset.  Operands are
   read in encoding order, so the first bad byte decides the error. *)
exception Bad of decode_error

let u8 code off =
  if off >= String.length code then raise_notrace (Bad Truncated)
  else Char.code code.[off]

let reg code off =
  let r = u8 code off in
  if r >= num_regs then raise_notrace (Bad (Bad_register r)) else r

let i32 code off =
  if off + 4 > String.length code then raise_notrace (Bad Truncated)
  else begin
    let b k = Char.code code.[off + k] in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    (* sign-extend from 32 bits *)
    (v lxor 0x80000000) - 0x80000000
  end

(* the 64-bit little-endian word, wrapped to a native int exactly as
   [Int64.to_int] would (the top bit is dropped) *)
let i64 code off =
  if off + 8 > String.length code then raise_notrace (Bad Truncated)
  else begin
    let v = ref 0 in
    for k = 7 downto 0 do
      v := (!v lsl 8) lor Char.code code.[off + k]
    done;
    !v
  end

let binop code off =
  let b = u8 code off in
  match binop_of_code b with
  | Some op -> op
  | None -> raise_notrace (Bad (Bad_binop b))

let cond code off =
  let c = u8 code off in
  match cond_of_code c with
  | Some cc -> cc
  | None -> raise_notrace (Bad (Bad_cond c))

let decode_exn code off =
  let o = off + 1 in
  match u8 code off with
  | 0x00 -> (Nop, o)
  | 0x01 -> (Halt, o)
  | 0x02 -> (Ret, o)
  | 0x03 -> (Syscall, o)
  | 0x10 -> (Push (reg code o), o + 1)
  | 0x11 -> (Pop (reg code o), o + 1)
  | 0x12 -> (Call_r (reg code o), o + 1)
  | 0x13 -> (Jmp_r (reg code o), o + 1)
  | (0x20 | 0x21 | 0x22 | 0x23) as opc ->
    let a = reg code o in
    let b = reg code (o + 1) in
    ( (match opc with
      | 0x20 -> Mov_rr (a, b)
      | 0x21 -> Cmp_rr (a, b)
      | 0x22 -> Cmp_lo (a, b)
      | _ -> Tary_load (a, b)),
      o + 2 )
  | 0x30 ->
    let op = binop code o in
    let rd = reg code (o + 1) in
    let rs = reg code (o + 2) in
    (Binop (op, rd, rs), o + 3)
  | 0x40 -> (Jmp (i32 code o), o + 4)
  | 0x41 -> (Call (i32 code o), o + 4)
  | 0x50 ->
    let c = cond code o in
    (Jcc (c, i32 code (o + 1)), o + 5)
  | 0x51 ->
    let rd = reg code o in
    (Bary_load (rd, i32 code (o + 1)), o + 5)
  | 0x60 ->
    let rd = reg code o in
    let rs = reg code (o + 1) in
    (Load (rd, rs, i32 code (o + 2)), o + 6)
  | 0x61 ->
    let rb = reg code o in
    let rs = reg code (o + 1) in
    (Store (rb, i32 code (o + 2), rs), o + 6)
  | (0x70 | 0x71 | 0x72) as opc ->
    let rd = reg code o in
    let i = i64 code (o + 1) in
    ( (match opc with
      | 0x70 -> Mov_ri (rd, i)
      | 0x71 -> Cmp_ri (rd, i)
      | _ -> Test_ri (rd, i)),
      o + 9 )
  | 0x80 ->
    let op = binop code o in
    let rd = reg code (o + 1) in
    (Binop_i (op, rd, i64 code (o + 2)), o + 10)
  | b -> raise_notrace (Bad (Bad_opcode b))

let decode code off =
  match decode_exn code off with
  | r -> Ok r
  | exception Bad e -> Error e

let decode_all code =
  let n = String.length code in
  let rec go acc off =
    if off >= n then Ok (List.rev acc)
    else
      match decode code off with
      | Ok (i, off') -> go ((i, off) :: acc) off'
      | Error e -> Error (e, off)
  in
  go [] 0
