(** Replication: journal-shipping primaries and catch-up followers.

    The branch journal (lib/persist) is the replication log.  A {e
    primary} is any durable server whose {!Fbremote.Server.serve} was
    given {!journal_hooks}: it answers [Pull_journal] with the committed
    entries after the follower's sequence and [Fetch_chunks] with chunk
    payloads.  A {e follower} is a durable store of its own plus a sync
    loop:

    + pull the journal tail after the local sequence;
    + for each entry, walk the chunk closure its records reference and
      fetch every absent chunk from the primary ({e before} applying, so
      the local store never holds a head it cannot resolve);
    + apply the entry with {!Fbpersist.Persist.apply_replicated}, which
      journals it locally under the primary's sequence number.

    Because the follower journals everything it applies, it is
    crash-recoverable (reopen the same directory and resume from the
    recovered sequence) and {e promotable}: its directory is a complete
    durable store — open it with {!Fbpersist.Persist.open_db} and serve
    it with {!journal_hooks} to make it the new primary.

    When the follower's position precedes the primary's last snapshot
    (a checkpoint or compaction superseded the entries it needs), the
    pull returns that snapshot entry instead, stamped with a newer
    sequence; applying it replaces every branch table — the
    snapshot-bootstrap path.  The same path serves a brand-new follower
    at sequence 0.

    A serving follower ({!serve}) answers every read request from its
    local store and answers writes with a typed [Redirect] naming the
    primary; its sync loop runs as the server's [tick], so journal
    application is serialized with request handling. *)

type t
(** A follower: a durable store plus its connection to the primary. *)

type progress =
  | Applied of int
      (** applied this many new entries (0 = the whole pulled batch was
          stale and was dropped; the next pull restarts cleanly) *)
  | Caught_up  (** local sequence = primary sequence; nothing to pull *)
  | Primary_gone
      (** the primary is unreachable or hung up mid-pull; the connection
          was dropped and the next step reconnects *)

val open_follower :
  ?cfg:Fbtree.Tree_config.t ->
  ?wrap_store:(Fbchunk.Chunk_store.t -> Fbchunk.Chunk_store.t) ->
  ?retries:int ->
  dir:string ->
  host:string ->
  port:int ->
  unit ->
  t
(** Open (or re-open, after a crash) the follower store in [dir],
    tracking the primary at [host:port].  The connection is established
    lazily on the first {!sync_step} and transparently re-established
    after [Primary_gone]; [retries] is passed to
    {!Fbremote.Client.connect} (default 3).  [wrap_store] is the
    fault-injection hook, as in {!Fbpersist.Persist.open_db}. *)

val sync_step : t -> progress
(** One pull/fetch/apply round: pull at most one batch of journal
    entries, backfill the chunks they need, apply them.  Never raises on
    a vanished primary ([Primary_gone], covering
    {!Fbremote.Client.Disconnected}, [Unknown_host], [Remote_failure]
    and socket errors); fault-injection exceptions from a [wrap_store]
    ({!Fbchunk.Chunk_store.Injected_fault}), protocol violations
    ({!Fbremote.Client.Protocol_error}) and local corruption do
    propagate. *)

exception Not_converging
(** {!sync_until_caught_up} ran out of rounds while the primary kept
    producing new entries. *)

exception Primary_unreachable
(** {!sync_until_caught_up} hit [Primary_gone] — the primary is down or
    hung up mid-pull. *)

val sync_until_caught_up : ?max_rounds:int -> t -> unit
(** Run {!sync_step} until [Caught_up].
    @raise Not_converging after [max_rounds] (default 1000) rounds
    without catching up.
    @raise Primary_unreachable if the primary cannot be reached. *)

val seq : t -> int
(** Sequence of the last entry applied (and journaled) locally. *)

val primary_seq : t -> int
(** The primary's journal sequence as of the last successful pull; [0]
    before the first pull. *)

val lag : t -> int
(** [primary_seq - seq], clamped at 0 — entries known to exist on the
    primary but not yet applied here. *)

type counters = {
  pulls : int;  (** successful [Pull_journal] round trips *)
  entries_applied : int;  (** journal entries applied since open *)
  chunks_fetched : int;  (** chunks backfilled via [Fetch_chunks] *)
}

val counters : t -> counters

val db : t -> Forkbase.Db.t
(** The follower's connector — serve reads from it.  Writing through it
    would fork local history; {!serve} redirects writes instead. *)

val persist : t -> Fbpersist.Persist.t
(** The underlying durable store (for fsck, stats — and promotion: after
    {!close}, reopen the directory and serve it as a primary). *)

val close : t -> unit
(** Drop the primary connection and close the durable store. *)

val crash : t -> unit
(** Abandon the follower as a crash would ({!Fbpersist.Persist.crash});
    for fault tests. *)

(** {1 Serving} *)

val journal_hooks : Fbpersist.Persist.t -> Fbremote.Server.journal_hooks
(** Journal hooks for a durable store, with pulls bounded to
    {!pull_batch} entries per round trip.  Passing this to
    {!Fbremote.Server.serve} makes that server a replication source. *)

val pull_batch : int
(** Entries per [Pull_journal] response (256) — bounds response frames
    and keeps a catch-up follower's memory footprint flat. *)

val serve :
  ?config:Fbremote.Server.config ->
  t ->
  Unix.file_descr ->
  Fbremote.Server.counters
(** Serve reads from the follower's store on [listen_fd] while its sync
    loop runs as the event loop's tick.  Writes are answered with
    [Redirect] to the primary.  The follower itself carries journal
    hooks, so {e its} followers can chain off it, and [Stats] responses
    expose its journal sequence (lag = primary's sequence − this one). *)
