(** Validation and replay of flight-recorder forensic bundles.

    A bundle ({!Obs.Flightrec.bundle_json}) is a self-contained JSON
    document: the trigger, the per-domain black-box event tails, the
    always-on check tallies and the caller's structured context.  This
    module is the consumer side — the [mcfi forensics] subcommand and
    the CI smoke job parse a bundle file back with
    {!Mcfi_util.Json.parse},
    check its shape with {!validate}, and render it with {!pp}. *)

val of_file : string -> (Mcfi_util.Json.t, string) result
(** Read and parse one bundle file. *)

val validate : Mcfi_util.Json.t -> (unit, string) result
(** Check the bundle shape end to end: schema name and version match
    this build, the trigger is a known kind, the event list is
    well-formed with per-domain sequence numbers strictly increasing
    (the drain's ordering guarantee — a torn or duplicated slot would
    break it), the tallies and recorder counters are present and
    finite, and the [extra] context is an object. *)

val pp : Format.formatter -> Mcfi_util.Json.t -> unit
(** Replay a validated bundle for a human: trigger and reason, the
    tally line, the structured context, and the event tail decoded with
    the same kind/context names the live trace uses. *)
