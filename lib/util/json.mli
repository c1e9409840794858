(** The one JSON codec: a value type, an emitter and a parser.

    Everything the system writes as JSON goes through here — forensic
    bundles, the telemetry export, red-team reports and the bench
    report — and every reader (the forensics replayer, the bench
    validator, the tier-1 tests) parses with {!parse}.  The library sits
    below both the observability layer and the core pipeline, so neither
    carries its own dialect.  Output is plain RFC-8259 JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num : int -> t
(** [Num] of an integer. *)

val str : string -> t

val to_string : t -> string
(** Serialize; numbers print in a [float_of_string]-compatible form
    (integers below 1e15 without a fraction).  Non-finite numbers
    serialize as [null]. *)

val parse : string -> (t, string) result
(** Parse standard JSON; [\u] escapes outside ASCII decode to ['?']. *)

val member : string -> t -> t option
(** [member k j] is field [k] of object [j]. *)

val path : string list -> t -> t option
(** [path ks j] follows a chain of object fields. *)

val to_float : t -> float option
(** The value, if [j] is a finite number. *)
