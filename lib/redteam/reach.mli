(** The attack-surface (reachability) map of a loaded, instrumented
    process: for every live indirect-branch enforcement site, the set of
    targets the installed Bary/Tary pair actually admits.

    This is the quantitative side of the red-team evaluation (Burow et
    al.'s equivalence-class metrics): per-site class sizes, the
    class-size histogram, and forward/backward-edge target counts over
    the {e corruptible} sites — the sites whose branch operand an
    in-model attacker can influence through memory (everything except
    jump tables, whose operands never transit attacker-writable data).

    The map is computed from the live tables plus the process's CFG
    input view, {e after} the program ran, so dynamically loaded
    modules are included. *)

type kind = Kreturn | Kicall | Kitail | Kjumptable | Klongjmp | Kplt

val kind_name : kind -> string

(** Whether an attacker in the paper's concurrent-writer model can
    steer this site: its branch operand is loaded from writable data
    (return address, function-pointer cell, GOT slot, jmp_buf).  False
    only for [Kjumptable]. *)
val corruptible : kind -> bool

(** Backward edge = return; everything else corruptible is forward. *)
val backward : kind -> bool

type site = {
  s_slot : int;  (** global Bary slot *)
  s_kind : kind;
  s_owner : string;  (** owning function, or ["plt:<symbol>"] *)
  s_ecn : int;  (** installed equivalence-class number *)
  s_admitted : int array;  (** target addresses the tables admit, sorted *)
  s_justified : int;  (** raw CFG edge count before class merging *)
}

type t = {
  r_sites : site list;  (** ascending slot *)
  r_histogram : (int * int) list;  (** class size -> number of classes *)
  r_corruptible : int;  (** corruptible site count *)
  r_forward_edges : int;  (** admitted edges from corruptible forward sites *)
  r_backward_edges : int;  (** admitted edges from corruptible return sites *)
}

(** [None] on an uninstrumented process. *)
val compute : Mcfi_runtime.Process.t -> t option

val site : t -> int -> site option

(** [admits t ~slot ~target]: the tables admit [target] at [slot] —
    agreement with the live {!Idtables.Tx.check} is the cross-oracle
    property [test_redteam] checks. *)
val admits : t -> slot:int -> target:int -> bool

(** Total admitted edges over corruptible sites. *)
val attack_edges : t -> int

(** The attack-surface table [mcfi stats --redteam] renders. *)
val pp_table : Format.formatter -> t -> unit

val to_json : t -> Mcfi_util.Json.t
