(** An MCFI process: the runtime + loader + dynamic linker of paper §6-7.

    A process owns a machine (code region, data region), the ID tables,
    the global symbol tables, and the list of loaded modules.  Loading a
    module — at startup or through the [dlopen] syscall — performs the
    paper's dynamic-linking protocol:

    + {e Module preparation}: re-base the module's Bary slots to the
      process-global slot space, lay out code at the next free code
      address and data in fresh data words (the module is writable,
      not executable, at this stage);
    + {e Verification}: the independent verifier checks the laid-out
      bytes (instrumented processes only); only then does the image
      become executable (appended to the machine's code region);
    + {e New CFG generation}: the type-matching CFG generator runs over
      the union of all loaded modules' auxiliary information;
    + {e ID-table update}: one update transaction installs the new
      Bary/Tary IDs; GOT slots of newly resolved symbols are written
      between the Tary and Bary phases, under the same barrier.

    A plain (uninstrumented) process skips verification, CFG generation
    and tables — that is the Fig. 5 baseline. *)

exception Error of string

type t

(** [create ()] builds an empty process.
    [instrumented] selects MCFI mode (default true).
    [sandbox] is the platform write-confinement scheme modules were
    instrumented for (default [Mask]; see {!Vmisa.Abi.sandbox}).
    [verify] runs the verifier on every loaded module (default: same as
    [instrumented]).
    [incremental] (default true) links incrementally: each load merges
    only the new module into a long-lived CFG merge state
    ({!Cfg.Cfggen.merge}) and installs the resulting delta with
    {!Idtables.Tx.update_delta}, so dlopen cost scales with the module,
    not the program.  [~incremental:false] keeps the historical
    regenerate-everything path ({!Cfg.Cfggen.generate} + full
    {!Idtables.Tx.update}) — the baseline the benchmarks compare
    against.
    [self_check] (default false) runs {!oracle_check} after every
    install and fails the load on divergence.
    [registry] maps module names to objects for [dlopen].
    [bary_slots], [code_capacity], [data_words] size the reserved
    regions. *)
val create :
  ?instrumented:bool ->
  ?sandbox:Vmisa.Abi.sandbox ->
  ?verify:bool ->
  ?incremental:bool ->
  ?self_check:bool ->
  ?registry:(string -> Mcfi_compiler.Objfile.t option) ->
  ?code_capacity:int ->
  ?data_words:int ->
  ?bary_slots:int ->
  ?dispatch:Machine.dispatch ->
  ?seed:int64 ->
  unit ->
  t

(** [load t obj] loads a module (startup or dlopen path; same protocol).
    Raises {!Error} on symbol clashes, verification failure, or an
    instrumented/plain mismatch with the process mode.

    Failure-atomic: the process is journalled (code end, heap break, table
    snapshot, staged GOT words, module list) before the protocol starts,
    the symbols it publishes and its CFG merge are logged as it goes
    ({!Cfg.Cfggen.checkpoint}), and {e any} exception — {!Error}, a capacity
    [Invalid_argument], an injected {!Faults.Injected} fault, even one
    striking between the update transaction's two phases — rolls the
    process back to the journal before re-raising, so a failed load is
    observationally a no-op. *)
val load : t -> Mcfi_compiler.Objfile.t -> unit

(** [machine t] gives access to the underlying machine (registers, data,
    output, attacker hooks). *)
val machine : t -> Machine.t

(** The shared ID tables (instrumented processes only). *)
val tables : t -> Idtables.Tables.t option

(** [lookup_code t symbol] is the code address of a loaded symbol. *)
val lookup_code : t -> string -> int option

(** [lookup_data t symbol] is the data address of a loaded global. *)
val lookup_data : t -> string -> int option

(** The full symbol maps as sorted association lists — the state-equality
    probes the fault-injection oracle compares. *)
val code_symbol_bindings : t -> (string * int) list

val data_symbol_bindings : t -> (string * int) list

(** Names of the loaded modules, in load order. *)
val loaded_names : t -> string list

(** Statistics of the last CFG generation (paper Table 3 columns). *)
val cfg_stats : t -> Cfg.Cfggen.stats option

(** The CFG input view of the currently loaded modules — used by the
    security-evaluation tools (AIR, gadget analysis) and the
    differential oracle.  Assembled from per-module memos extracted once
    at load time, not by re-walking the object files. *)
val cfg_input : t -> Cfg.Cfggen.input

(** The differential oracle: regenerate the CFG from scratch over
    {!cfg_input} and compare — bit for bit — against the incrementally
    maintained assignment and the ECNs installed in the live tables,
    and check that every equivalence class is version-uniform (the
    delta install's carry invariant).  [Ok ()] on an uninstrumented
    process.  [create ~self_check:true] runs this after every install. *)
val oracle_check : t -> (unit, string) result

(** [start t] sets the program counter at [_start].
    Raises {!Error} if no [_start] is loaded. *)
val start : t -> unit

(** [run t] = [start] + [Machine.run]. *)
val run : ?fuel:int -> t -> Machine.exit_reason

(** Milliseconds spent in CFG generation so far (paper §7 reports ~150ms
    for gcc; the CG experiment regenerates this number). *)
val cfg_gen_time_ms : t -> float

(** Number of update transactions executed (startup loads + dlopens). *)
val updates : t -> int

(** [teardown t] is the supervised, crash-only death of the process:
    unregister its machine's reader from the tables' epoch registry (so
    the corpse can never wedge {!Idtables.Tables.try_quiesce}), then
    redo any install transaction the process died inside of from the
    intent journal ({!Idtables.Tx.recover}).  Idempotent, and safe on a
    process in {e any} state — half-loaded, killed mid-install, or
    cleanly exited.  After teardown the process must not run again. *)
val teardown : t -> unit
