(** The virtual machine: executes an encoded code image against a flat data
    region, the MCFI ID tables, and a syscall interface.

    Faithfulness notes:
    - The fetch path decodes from the raw byte image at {e any} byte
      offset (with a memo cache), so control transfers into the middle of
      an instruction execute whatever those bytes decode to — exactly the
      behaviour ROP gadgets rely on and MCFI's alignment+tables forbid.
    - Code is not writable (the loader owns the image: W^X); data is not
      executable (fetches only touch the code region).
    - [Tary_load]/[Bary_load] read the shared {!Idtables.Tables.t}, which
      may be concurrently updated by another thread's update transaction.
    - An attacker hook may corrupt any writable data between any two
      instructions, but not registers, code, or the tables — the paper's
      concurrent-attacker threat model (§4). *)

type exit_reason =
  | Exited of int        (** the program called the exit syscall *)
  | Cfi_halt             (** a [Halt] was executed — check-failure sink *)
  | Fault of string      (** decode error, wild memory access, … *)
  | Out_of_fuel          (** the step budget ran out *)

val pp_exit_reason : Format.formatter -> exit_reason -> unit

(** Which execution engine {!run} uses.  [Byte] is the reference
    interpreter: fetch/decode/execute per instruction from the raw byte
    image.  [Threaded] pre-decodes each executed byte offset once into a
    flat handler-index stream (plus fused superinstructions for the CFI
    check+branch sequence, compare+branch pairs and the sandbox
    masked-store quad, the hottest pairs in the telemetry fusion
    profile) and dispatches on integer handler indices — observationally
    identical to [Byte]: same traps, same [pc] at every trap, same
    retired-instruction counts, same committed transfers.  Pre-decodings
    are invalidated when the code region changes (dlopen append,
    rollback truncate), so any-byte-offset fetch semantics are
    preserved. *)
type dispatch = Byte | Threaded

val dispatch_name : dispatch -> string

(** Parses ["byte" | "threaded"]. *)
val dispatch_of_string : string -> (dispatch, string) result

type t

(** [create ~code_base ~code_capacity ~data_words] builds a machine with an
    empty code region (capacity reserved up front, like the paper's
    reserved code range; the decode memo grows with the loaded code, a
    page per KiB). [tables] enables the table-read instructions.
    [dispatch] (default [Byte]) selects the execution engine.
    The stack pointer starts at [data_words] (the stack grows down).
    Unoccupied code bytes hold the [Halt] opcode. *)
val create :
  ?tables:Idtables.Tables.t ->
  ?dispatch:dispatch ->
  ?seed:int64 ->
  code_base:int ->
  code_capacity:int ->
  data_words:int ->
  unit ->
  t

val set_dispatch : t -> dispatch -> unit
val dispatch : t -> dispatch

(** [append_code m image] loads [image] at the next free code address and
    returns that base address — a loader/runtime-only operation (W^X: user
    code has no way to reach it). Raises [Invalid_argument] when the
    capacity is exceeded. Hosts the [After_code_append] fault-injection
    point (fires after the image is in place — rollback is the loader
    journal's job, via {!truncate_code}). *)
val append_code : t -> string -> int

(** Next free code address. *)
val code_end : t -> int

(** The base address code is loaded at (the [create] parameter). *)
val code_base : t -> int

(** A copy of the currently loaded code bytes (addresses
    [code_base, code_end)) — read-only by construction, so handing it to
    an analysis (the gadget scanner, the redteam reachability pass) never
    violates W^X. *)
val code_image : t -> string

(** [release m] unregisters the machine's reader from the tables' epoch
    registry, so a machine that will never run again stops gating
    {!Idtables.Tables.try_quiesce}.  Idempotent; a no-op for machines
    without tables.  Part of tenant teardown ({!Process.teardown}): a
    dead tenant left registered would wedge quiescence — and with it the
    version-space budget — for every other tenant on the tables. *)
val release : t -> unit

(** [truncate_code m ~code_end] rolls the code region back so that
    {!code_end} is [code_end] again: the dropped suffix reverts to the
    unoccupied-byte pattern, and every decode that read a dropped byte
    is purged.  Loader-only
    (journal rollback of a failed load).  Raises [Invalid_argument] if
    [code_end] is outside the currently loaded region. *)
val truncate_code : t -> code_end:int -> unit

(** [set_pc m addr] places the program counter (process start, tests). *)
val set_pc : t -> int -> unit

(** [sbrk m words] allocates from the heap; also the syscall's backend.
    Used by the loader to place a dynamically loaded module's data. *)
val sbrk : t -> int -> int

(** [set_brk m addr] initializes the heap break (loader, after globals). *)
val set_brk : t -> int -> unit

(** The current heap break (loader journal, tests). *)
val brk : t -> int

(** Direct access used by the loader to initialize globals, and by tests
    and the attacker model. Addresses are word offsets in
    (0, data_words): word 0 is the unmapped NULL page, rejected exactly
    as the interpreted [Load]/[Store] instructions reject it.  Raises
    [Invalid_argument] out of range. *)
val read_data : t -> int -> int

val write_data : t -> int -> int -> unit

val data_size : t -> int

val reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val pc : t -> int

(** Instructions retired so far. *)
val steps : t -> int

(** Everything the program printed so far. *)
val output : t -> string

(** Install a handler for the [dlopen]/[dlsym] syscalls ([r1] = address of
    a name string; must return the syscall result). Without one, those
    syscalls fault. *)
val set_dl_handler : t -> (t -> int -> string -> int) -> unit

(** Install an attacker: called before every instruction; may call
    [write_data] freely (and only that — the model's limits are enforced by
    the interface, which exposes no register or code mutation to it). *)
val set_attacker : t -> (t -> unit) -> unit

(** [read_string m addr] reads a NUL-terminated string from data memory.
    Running off the mapped range — including starting at the NULL
    page — terminates the string. *)
val read_string : t -> int -> string

(** The instruction the program counter currently points at, if it
    decodes — tests and tracers use this to observe committed transfers. *)
val current_instr : t -> Vmisa.Instr.t option

(** Execution profile, recorded only while [Telemetry.enabled]: retired
    instructions per class ([(class name, count)], all classes listed,
    fixed order). *)
val profile : t -> (string * int) list

(** Executions per Bary slot — i.e. per indirect-branch enforcement
    site — recorded only while [Telemetry.enabled]; sorted by slot. *)
val branch_profile : t -> (int * int) list

(** Install a committed-transfer hook: called with [(branch pc, target)]
    for every {e executed} [Call_r]/[Jmp_r]/[Ret], under both dispatch
    engines (fused handlers report the branch component's address) —
    the differential dispatch oracle records transfer traces through
    it.  [None] uninstalls. *)
val set_transfer_hook : t -> (int -> int -> unit) option -> unit

(** Threaded-dispatch internals, always on (plain per-machine counters):
    fused-superinstruction executions per kind ([fused_check_jmp],
    [fused_check_call], [fused_pop_check_jmp], [fused_cmp_jcc],
    [fused_cmpi_jcc], [fused_masked_store]), hoisted-check cache traffic
    ([hoist_hits]/[hoist_misses]/[hoist_refills]), and pre-decode churn
    ([predecodes]/[invalidations]). *)
val dispatch_stats : t -> (string * int) list

(** Fold {!dispatch_stats} into the telemetry metrics registry as
    [mcfi_dispatch_*] counters (no-op for zero counters, and while
    telemetry is disabled — [Metrics.add] is gated). *)
val publish_dispatch_stats : t -> unit

(** [step m] executes one instruction; [None] means the machine is still
    running. *)
val step : t -> exit_reason option

(** [run ~fuel m] steps until exit or until [fuel] instructions retired. *)
val run : ?fuel:int -> t -> exit_reason
