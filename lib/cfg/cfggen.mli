(** Type-matching CFG generation (paper §6) and the classic-CFI
    equivalence-class construction (paper §2).

    The generator consumes a {!input} view of all currently linked modules
    — function entries with their source types and address-taken flags,
    one record per indirect-branch site in global Bary-slot order, the
    direct-call and tail-call edges, jump-table targets and setjmp
    continuations, all with their final code addresses — and produces the
    new Bary/Tary ECN assignments for an update transaction.

    Per the paper:
    - an indirect call through a pointer of type [t*] may target any
      address-taken function whose type structurally matches [t] (with the
      varargs prefix rule);
    - returns may target the return sites of every call that can reach the
      returning function in the call graph, where tail-call chains are
      collapsed ([f] calls [g], [g] tail-calls [h] ⇒ [h]'s return may
      return to [f]'s call site);
    - jump-table jumps target exactly their statically known entries;
    - [longjmp] may target every [setjmp] continuation;
    - a PLT jump targets the entry of the symbol its GOT slot names;
    - overlapping target sets are merged into equivalence classes
      (union-find), as in classic CFI. *)

type fn = {
  fname : string;
  fty : Minic.Ast.fun_ty;
  faddr : int;
  faddress_taken : bool;
}

type site =
  | Sreturn of { fn : string }
  | Sicall of { fn : string; ty : Minic.Ast.fun_ty; ret_addr : int }
  | Sitail of { fn : string; ty : Minic.Ast.fun_ty }
  | Sjumptable of { fn : string; target_addrs : int list }
  | Slongjmp of { fn : string }
  | Splt of { symbol : string }

type input = {
  env : Minic.Types.env;          (** merged over all modules *)
  functions : fn list;            (** defined functions, all modules *)
  sites : site array;             (** global Bary slot order *)
  direct_calls : (string * string * int) list;
      (** caller, callee symbol, return-site address *)
  tail_calls : (string * string) list;  (** direct tail-call edges *)
  setjmp_addrs : int list;
}

type output = {
  tary : (int * int) list;  (** target code address -> ECN *)
  bary : (int * int) list;  (** Bary slot -> branch ECN *)
  stats : stats;
}

and stats = {
  n_ibs : int;   (** indirect branches (Table 3 "IBs") *)
  n_ibts : int;  (** possible indirect-branch targets (Table 3 "IBTs") *)
  n_eqcs : int;  (** equivalence classes of target addresses ("EQCs") *)
}

exception Too_many_classes of int

(** [generate input] computes the CFG and its table encoding.
    Raises {!Too_many_classes} if the program needs more than 2^14
    equivalence classes (the ID encoding limit). *)
val generate : input -> output

(** [targets_of_site input site] is the raw allowed-target set of one
    site, before equivalence-class merging — the precise CFG edge set,
    used by the AIR metric and by tests. *)
val targets_of_site : input -> site -> int list

(** {1 Incremental generation}

    [merge] folds one module at a time into a merge state and returns
    the {e delta} against the previously returned assignment: only the
    table slots whose IDs must change.  The resulting ECN maps are
    bit-identical to running {!generate} over the union of every merged
    module — [merge] maintains the equivalence-class partition
    incrementally (memoized type classes, grow-only tail-closure /
    return-site propagation, a growable union-find) and applies
    {!generate}'s canonical numbering rule to the classes, so a
    from-scratch run is a differential oracle for the incremental path.

    The state is mutated in place.  A {!checkpoint} opens an undo trail
    over every write; {!rollback} restores the state to the checkpoint,
    {!commit} keeps the writes.  The cost of either is proportional to
    what was written since the checkpoint, not to the state. *)

(** One module's contribution, in the shape [Process] extracts once per
    load (fields mirror {!input}, restricted to the module). *)
type module_input = {
  m_env : Minic.Types.env;
  m_functions : fn list;        (** functions the module defines;
                                    [faddress_taken] = taken {e by} it *)
  m_extern_taken : string list; (** names it takes the address of but
                                    does not define *)
  m_sites : site array;         (** module-local order *)
  m_slot_base : int;            (** global slot of [m_sites.(0)]; must
                                    equal the state's current site count *)
  m_direct_calls : (string * string * int) list;
  m_tail_calls : (string * string) list;
  m_setjmp_addrs : int list;
}

(** For a grow entry, the existing slot whose (already installed) version
    the new slot must carry so its class stays version-uniform. *)
type donor = Donor_tary of int | Donor_bary of int

(** The slots an install must write.  [d_tary]/[d_bary] are rewritten at
    the transaction's new version: every slot of every class that
    changed shape (classes must stay version-uniform, so a class is
    rewritten whole).  [d_*_grow] are brand-new slots joining an
    otherwise untouched class; they carry the donor's current version,
    so the rest of the class is left alone. *)
type delta = {
  d_tary : (int * int) list;             (** addr, ECN *)
  d_bary : (int * int) list;             (** slot, ECN *)
  d_tary_grow : (int * int * donor) list;
  d_bary_grow : (int * int * donor) list;
  d_stats : stats;
}

type state

(** State with no modules merged; tables empty. *)
val empty_state : unit -> state

(** [merge state m] folds [m] into [state] and returns the delta.
    Raises {!Too_many_classes} on ECN exhaustion and [Invalid_argument]
    on a slot-base mismatch or duplicate definition; a merge that raises
    has undone every write it made, so [state] is as it was before the
    call. *)
val merge : state -> module_input -> delta

type checkpoint

(** Open a checkpoint: every later write to the state is trailed until
    the checkpoint is closed by exactly one {!commit} or {!rollback}.
    Checkpoints nest and must be closed in LIFO order. *)
val checkpoint : state -> checkpoint

(** Close the checkpoint and undo every write made since it was opened:
    tables, stats, names and the next merge's delta are as they were. *)
val rollback : state -> checkpoint -> unit

(** Close the checkpoint and keep the writes.  Committing the outermost
    checkpoint drops the trail. *)
val commit : state -> checkpoint -> unit

(** The full ECN maps of the last assignment, in {!generate}'s output
    order — what the live tables must contain. *)
val state_tables : state -> (int * int) list * (int * int) list

(** Stats of the last assignment (equals [generate].stats). *)
val state_stats : state -> stats

(** Total branch sites merged so far. *)
val state_sites : state -> int

(** [class_name state ecn] is a human name for [ecn] in the current
    assignment: the class's lexicographically smallest live member with
    a [+N] suffix for the other N members.  [None] for memberless
    classes — forensic consumers fall back to ["ecn-<n>"].  Computed on
    demand from the state; it only reads the state. *)
val class_name : state -> int -> string option

(** {1 Delta → shard mapping}

    [shard_delta ~shards ~route d] splits a {!merge} delta into
    per-shard slices for {!Idtables.Shards.update_multi}.  The routing
    unit is the equivalence class: [route ecn] places every entry of
    that class — rewrites and grow entries alike — on one shard, and a
    grow entry's donor carries the same ECN by construction, so donor
    resolution never crosses a shard boundary.  Returns only non-empty
    slices, in ascending shard order, entry order preserved within each;
    every slice carries [d]'s (global) [d_stats] unchanged.  Raises
    [Invalid_argument] if [route] sends an ECN outside [0, shards). *)
val shard_delta : shards:int -> route:(int -> int) -> delta -> (int * delta) list
