(** In-policy attack synthesis: search for chains of indirect transfers
    that an in-model concurrent attacker (memory writes only, between
    instruction retirements) can steer from a corruptible site to a
    dangerous primitive {e without failing any MCFI check}.

    The search is three-staged:
    + a benign reference run records which sites execute and where each
      committed transfer actually went;
    + a static walk over the decoded code image explores, per admitted
      {e diverted} target (admitted by the tables, validated against the
      live {!Idtables.Tx.check}, never taken benignly), whether
      straight-line execution from that target reaches a dangerous
      syscall or an unmasked sandbox write — or another corruptible site
      to chain through;
    + a found chain's first hop is compiled into a concrete, seeded
      attacker plan (return-address or function-pointer/GOT corruption)
      and re-executed for confirmation. *)

(** What a chain reaches.  [Gsyscall (Some n)]: a syscall whose number
    resolves to the dangerous set (sbrk / dlopen / dlsym — the
    sandbox-escape and code-loading primitives; exit and the I/O
    syscalls are benign).  [Gsyscall None]: a syscall whose number the
    walker cannot resolve (treated as dangerous).  [Gwrite pc]: a store
    outside the sandbox-mask idiom at [pc]. *)
type goal = Gsyscall of int option | Gwrite of int

val goal_name : goal -> string

(** A concrete attacker plan for a chain's first hop — replayable: it
    names stable symbols/addresses, not run-specific state. *)
type plan =
  | Corrupt_global of { sym : string; words : int; value : int }
      (** overwrite [words] cells of data symbol [sym] with [value]
          before the first instruction (function-pointer array, GOT
          slot) *)
  | Corrupt_return of { pop_pc : int; hit : int; value : int }
      (** on the [hit]-th arrival at [pop_pc] (the [Pop] of a return
          site's check sequence), overwrite the stack top — the saved
          return address — with [value] *)

val pp_plan : Format.formatter -> plan -> unit

type hop = { h_slot : int; h_target : int; h_diverted : bool }

type chain = {
  c_start : int;  (** the corruptible slot the attack enters at *)
  c_hops : hop list;  (** in execution order; head enters at [c_start] *)
  c_goal : goal;
  c_goal_pc : int;
  c_plan : plan option;  (** [None]: no write primitive derivable *)
  c_confirmed : bool;  (** the plan re-executed and the diverted first
                           hop was observed committing *)
  c_exit : string;  (** confirmation run's exit reason ("" if no plan) *)
}

val chain_json : chain -> Mcfi_util.Json.t

type result = {
  sr_reach : Reach.t;
  sr_exit : Mcfi_runtime.Machine.exit_reason;  (** benign run's exit *)
  sr_chains : chain list;
  sr_sites_scanned : int;
  sr_edges_checked : int;  (** candidate edges validated via [Tx.check] *)
  sr_walks : int;
}

(** [run ~build ()] searches the program [build] constructs.  [build] is
    called once for the benign reference run and once per confirmation;
    it must be deterministic (same sources, same seed) so code addresses
    agree across calls.  [Error] when the process is uninstrumented.
    [max_targets] caps admitted targets explored per site per hop;
    [max_depth] caps chain length; [confirm_chains:false] skips the
    per-chain confirmation runs (the shrinker's fast path — the final
    artifact is re-confirmed). *)
val run :
  ?max_depth:int ->
  ?max_targets:int ->
  ?fuel:int ->
  ?confirm_chains:bool ->
  build:(unit -> Mcfi_runtime.Process.t) ->
  unit ->
  (result, string) Stdlib.result

(** Fold search counters into the telemetry metrics registry as the
    [mcfi_redteam_*] counter family (gated like every metric). *)
val publish : result -> unit

(** {1 Sabotage exemplar}

    [render_sabotaged sp] renders [sp] with the in-policy attack target
    grafted in: [sp_global_fp] forced on (so the corruptible [gops]
    function-pointer array exists) and a static decoy module appended
    whose decoy function is address-taken with the same type as the
    [gops] workers — in-class for the tables, never called benignly,
    and its body reaches a dangerous syscall.  The rendered sources are
    self-contained: a corpus artifact embedding them replays without
    this function. *)

val decoy_src : string
val sabotage : Fuzz.Spec.t -> Fuzz.Spec.t
val render_sabotaged : Fuzz.Spec.t -> Fuzz.Spec.rendered
