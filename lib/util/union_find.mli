(** Imperative union-find (disjoint sets) over dense integer keys.

    Used by the equivalence-class computation of the CFG generator: indirect
    branches whose target sets overlap have their targets merged into one
    equivalence class, exactly as in classic CFI. *)

type t

(** [create n] is a fresh structure over keys [0 .. n-1], each in its own
    singleton set. *)
val create : int -> t

(** Number of keys the structure was created with. *)
val size : t -> int

(** [find t x] is the canonical representative of [x]'s set.
    Raises [Invalid_argument] if [x] is out of range. *)
val find : t -> int -> int

(** [union t x y] merges the sets of [x] and [y]; returns the representative
    of the merged set. *)
val union : t -> int -> int -> int

(** [same t x y] is [true] iff [x] and [y] are in the same set. *)
val same : t -> int -> int -> bool

(** Number of distinct sets currently represented. *)
val count : t -> int

(** [groups t] lists the sets, each as a (sorted) list of members, ordered by
    representative. *)
val groups : t -> int list list

(** Growable union-find: keys are allocated one at a time ([add]) instead
    of up front — the shape the incremental CFG generator's merge state
    needs (new modules bring new equivalence-class keys).  Writes can be
    taken back: while a {!mark} is open every parent, rank and cycle
    write is logged, path compression included, and {!undo} replays the
    log backwards, so a merge that must be rolled back costs what it
    wrote rather than a copy of the structure. *)
module Dynamic : sig
  type t

  (** An empty structure with no keys. *)
  val create : unit -> t

  (** Number of keys allocated so far. *)
  val size : t -> int

  (** Allocate the next key (= [size] before the call) as a singleton. *)
  val add : t -> int

  (** As {!Union_find.find}/[union]/[same], over allocated keys.
      Raise [Invalid_argument] on unallocated keys. *)
  val find : t -> int -> int

  val union : t -> int -> int -> int
  val same : t -> int -> int -> bool

  (** [root t x] is [find t x] without path compression: it reads the
      structure and never writes it. *)
  val root : t -> int -> int

  (** Number of distinct sets. *)
  val count : t -> int

  (** [iter_set t x f] applies [f] to every key in [x]'s set (each
      once, starting with [x]), in time proportional to the set. *)
  val iter_set : t -> int -> (int -> unit) -> unit

  (** A checkpoint.  Marks nest and must be closed in LIFO order, each
      by exactly one {!release} or {!undo}. *)
  type mark

  (** Open a mark: from now on writes are logged. *)
  val mark : t -> mark

  (** Close the mark, keeping every write since it.  Closing the
      outermost mark drops the log. *)
  val release : t -> mark -> unit

  (** Close the mark and restore the structure to the state it had when
      the mark was opened: keys added since are dropped, and [find],
      [count] and [size] answer exactly as they did then.  Raises
      [Invalid_argument] if no mark is open. *)
  val undo : t -> mark -> unit
end
