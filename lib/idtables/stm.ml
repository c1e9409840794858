type variant = Tml | Norec | Seqlock

let all = [ Tml; Norec; Seqlock ]
let name = function Tml -> "tml" | Norec -> "norec" | Seqlock -> "seqlock"

let of_string = function
  | "tml" -> Ok Tml
  | "norec" -> Ok Norec
  | "seqlock" -> Ok Seqlock
  | s -> Error (Printf.sprintf "unknown STM variant %S (tml|norec|seqlock)" s)

let pp ppf v = Fmt.string ppf (name v)

(* ---- writer admission ----

   All three variants commit through the same locked transaction body
   (recovery of a torn predecessor, ABA budget, version bump, intent
   journal, two-phase install, sequence-word parity) — the torn-update
   guarantee is the transaction's, not the admission policy's.  What
   differs is how writers queue: TML and NOrec writers take the mutex
   directly; seqlock writers first draw a ticket and enter in FIFO
   order.  The ticket wraps the mutex rather than replacing it, so
   mutex-only lock holders (recovery, loader rollback, quiescence
   probes) stay safe against ticket-ordered installs, and a writer
   killed mid-install still releases its ticket on unwind — the next
   ticket holder finds the journal and redoes the torn install. *)

let with_ticket t f =
  let my = Tables.ticket_draw t in
  let rec wait round =
    if Tables.ticket_serving t <> my then begin
      Tx.backoff round;
      wait (round + 1)
    end
  in
  wait 0;
  Fun.protect ~finally:(fun () -> Tables.ticket_advance t) f

let with_writer v t f =
  match v with Tml | Norec -> f () | Seqlock -> with_ticket t f

let update v ?tag ?got_update t ~tary ~bary =
  with_writer v t (fun () -> Tx.update ?tag ?got_update t ~tary ~bary)

let update_delta v ?tag ?got_update ?pre_install t ~tary ~bary ~tary_carry
    ~bary_carry =
  with_writer v t (fun () ->
      Tx.update_delta ?tag ?got_update ?pre_install t ~tary ~bary ~tary_carry
        ~bary_carry)

let refresh v t = with_writer v t (fun () -> Tx.refresh t)

(* Recovery deliberately bypasses the ticket queue: it is not a new
   install (no version bump of its own) and a reader escalating
   [Wait_for_updater] must not queue behind a convoy of writers to
   repair tables it needs now. *)
let recover (_ : variant) t = Tx.recover t

(* ---- readers ----

   One attempt of each variant's read protocol.  All three agree on
   outcomes — [Pass] requires bit-identical IDs, an invalid target or an
   ECN mismatch at equal versions is a [Violation], version skew means
   an install is (or was) in flight and the attempt is retried — because
   that is what the epoch-history oracle validates.  They differ in how
   an attempt decides its reads are worth trusting:

   - [Tml] (the MCFI baseline, [Tx.check]): no snapshot validation at
     all; the ID encoding itself arbitrates, version skew retries.
   - [Norec]: sample the install sequence word; an odd word means a
     writer is mid-install, so back off without touching the tables.
     After reading, a moved word does not immediately retry — the reads
     are {e value-validated} (re-read, compare), and an unchanged pair
     is as good as an untorn snapshot.  This is NOrec's signature: the
     validation cost scales with the read set, not with a global clock.
   - [Seqlock]: classic parity protocol — wait for an even word, read,
     retry if the word moved at all.

   Snapshot validation here is advisory, not load-bearing: even if the
   sequence word races ahead of the slot writes it brackets, a wrong
   "consistent" verdict cannot make a check pass wrongly, because [Pass]
   still requires the two IDs bit-identical (the same argument that
   makes the plain-cell tables safe). *)

let norec_attempt t ~bary_index ~target =
  let s0 = Tables.seq_read t in
  if s0 land 1 = 1 then Tx.A_skew
  else begin
    let bid = Tables.bary_read t bary_index in
    let tid = Tables.tary_read t target in
    let consistent =
      Tables.seq_read t = s0
      || (Tables.bary_read t bary_index = bid
         && Tables.tary_read t target = tid)
    in
    if not consistent then Tx.A_skew
    else if bid = tid then Tx.A_pass
    else if not (Id.valid tid) then Tx.A_violation
    else if not (Id.same_version bid tid) then Tx.A_skew
    else Tx.A_violation
  end

let seqlock_attempt t ~bary_index ~target =
  let s0 = Tables.seq_read t in
  if s0 land 1 = 1 then Tx.A_skew
  else begin
    let bid = Tables.bary_read t bary_index in
    let tid = Tables.tary_read t target in
    if Tables.seq_read t <> s0 then Tx.A_skew
    else if bid = tid then Tx.A_pass
    else if not (Id.valid tid) then Tx.A_violation
    else if not (Id.same_version bid tid) then Tx.A_skew
    else Tx.A_violation
  end

let check v ?max_retries ?escalation ?watchdog ?jitter ?on_retry t
    ~bary_index ~target =
  match v with
  | Tml ->
    Tx.check ?max_retries ?escalation ?watchdog ?jitter ?on_retry t
      ~bary_index ~target
  | Norec ->
    Tx.check_with norec_attempt ?max_retries ?escalation ?watchdog ?jitter
      ?on_retry t ~bary_index ~target
  | Seqlock ->
    Tx.check_with seqlock_attempt ?max_retries ?escalation ?watchdog ?jitter
      ?on_retry t ~bary_index ~target

(* Version hoisting is variant-agnostic: the hit path validates on the
   install sequence word, which every writer path maintains (see
   [Tables.seq_enter]/[seq_exit]), and all three read protocols produce
   identical outcomes for identical table states — so an unchanged even
   word justifies replaying the cached pair under any variant.  Only
   the miss path goes through the variant's own read protocol. *)
let check_hoisted v ?max_retries ?escalation ?watchdog ?jitter ?on_retry t
    site ~bary_index ~target =
  Tx.check_hoisted_with
    ~full:(fun () ->
      check v ?max_retries ?escalation ?watchdog ?jitter ?on_retry t
        ~bary_index ~target)
    t site ~bary_index ~target
