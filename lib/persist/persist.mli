(** Durable ForkBase database.

    Keeps one append-only log (§4.4): the immutable chunks, and, as entry
    records after them, a write-ahead journal of the per-key branch tables
    of §4.5 — the only mutable state in the system — so a
    {!Forkbase.Db.t} survives crashes:

    - every mutation is journaled as one atomic entry record after the
      chunks it refers to, and both reach the OS in one flush before the
      operation returns;
    - {!open_db} replays the entries from the last snapshot on to rebuild
      every branch table and validates each recovered head against the
      chunk store;
    - {!checkpoint} appends a snapshot entry of the branch tables, and
      {!compact} sweeps live chunks plus a snapshot into a fresh log and
      renames it over the live one, reclaiming unreachable versions
      online. *)

type corruption =
  | Missing_head of {
      key : string;
      branch : string option;  (** [None] for an untagged head *)
      uid : Fbchunk.Cid.t;
    }
  | Bad_log of { path : string; off : int; reason : string }
      (** a length-complete record, chunk or entry, that fails to decode
          (bit rot), as opposed to a torn tail, which recovery drops
          silently *)

exception Corrupt_db of corruption

val pp_corruption : Format.formatter -> corruption -> unit
val corruption_to_string : corruption -> string

type t

val open_db :
  ?cfg:Fbtree.Tree_config.t ->
  ?acl:(key:string -> branch:string option -> Forkbase.Db.access -> bool) ->
  ?wrap_store:(Fbchunk.Chunk_store.t -> Fbchunk.Chunk_store.t) ->
  ?recovery_check:(Forkbase.Db.t -> unit) ->
  string ->
  t
(** [open_db dir] opens (creating if needed) the durable database in
    [dir], whose one file is the log [dir/chunks.log].  A torn tail — from
    a crash mid-append — is dropped, recovering the committed prefix;
    complete chunk records after the last entry stay, as garbage.  A store
    written in the older two-file layout (a [dir/branches.journal] beside
    the log) is converted on open: the journal's entries the log lacks
    are appended, the log is fsynced, and the journal file is deleted.

    Every operation is fsynced before it returns, so it is durable
    against power loss (see {!set_deferred_sync} for the served store's
    group commit).  Apart from that, only {!sync}, {!checkpoint},
    {!compact} and {!close} fsync; no chunk put does.

    [wrap_store] wraps the database's view of the chunk store (between the
    connector and the redirectable log store, so online compaction keeps
    working underneath) — the hook the fault-injection layer
    ({!Fbcheck.Failpoint}) uses to schedule faults against a live durable
    db.  [recovery_check] runs after journal replay and head validation,
    before the first new operation can be journaled; pass e.g. a
    {!Fbcheck.Fsck} invocation for an optional deep post-recovery verify
    (raise to refuse the store; the log is closed first).

    @raise Corrupt_db when a committed record is malformed or a recovered
    head does not resolve in the chunk store. *)

val db : t -> Forkbase.Db.t
(** The connector backed by this durable store.  Use it exactly like an
    in-memory db; every branch mutation is journaled transparently. *)

val dir : t -> string

val sync : t -> unit
(** Force the log to disk: one fsync. *)

val set_deferred_sync : t -> bool -> unit
(** Group-commit mode: with deferred sync on, the per-operation fsync
    is suppressed — operations are still flushed to the OS per entry
    (process-crash safe), but power-loss durability waits for an explicit
    {!sync}.  {!Fbreplica.Proc.serve_primary} turns it on to batch many
    concurrent writers behind one fsync per event-loop round, holding
    their acknowledgements until the shared {!sync} returns; per-{e ack}
    durability is therefore unchanged.  Off by default. *)

val unsynced_ops : t -> int
(** Operations journaled since the last fsync — what one {!sync} would
    make power-loss durable. *)

val fsync_dir : string -> unit
(** fsync a directory, making previously performed renames in it durable.
    Called internally after the tmp-over-live rename of {!compact} and
    the deletion of a converted two-file journal; exposed for tests and
    tooling. *)

val dir_fsync_count : unit -> int
(** Process-wide count of {!fsync_dir} calls (regression hook: every
    rename in the compaction path must be followed by one). *)

val checkpoint : t -> unit
(** Append a snapshot entry of all branch tables and fsync.  Bounds
    recovery replay and the pullable entry tail; renames nothing. *)

val compact : t -> int * int
(** Online garbage collection: sweep every chunk reachable from a branch
    head into a fresh log, append a snapshot entry, fsync, atomically
    rename it over the live log, fsync the directory and redirect the live
    db.  Returns reclaimed [(chunks, bytes)] — at least the garbage
    measured by {!Forkbase.Gc.garbage_stats}. *)

val garbage_stats : t -> int * int
(** [(chunks, bytes)] currently unreachable, i.e. what {!compact} would
    reclaim. *)

val log_size : t -> int
(** Bytes in the log file. *)

val journal_bytes : t -> int
(** Bytes of the log's entry records, framing included. *)

(** {1 Replication (lib/replica)}

    The entries double as a replicable operation log: every committed
    entry carries a monotonically increasing sequence number, a primary
    serves its tail to followers, and a follower applies shipped entries
    to its own durable store — appending them to its own log under the
    same sequence numbers, so it is itself crash-recoverable and
    promotable. *)

val journal_seq : t -> int
(** Sequence number of the last committed entry ([0] for a fresh store).
    Recovered from the log on open; replication lag between two stores is
    the difference of their sequences. *)

val pull_entries : t -> from_seq:int -> max_entries:int -> string list
(** Bodies ({!Journal.encode_entry}) of the committed entries with
    sequence strictly greater than [from_seq], at most [max_entries], in
    append order, read by offset from the log.  Only entries from the last
    snapshot on are served: a [from_seq] older than that snapshot yields
    the snapshot entry first — the follower's bootstrap path. *)

val apply_replicated : t -> seq:int -> Journal.record list -> unit
(** Apply one replicated entry to this store: append it to the local log
    under [seq], then replay its records into the branch tables (without
    re-executing the originating operation or re-firing the journal
    hook).  Every chunk the records reference must already be in this
    store's chunk store — the caller backfills missing chunks first
    ({!Fbremote.Wire} [Fetch_chunks]).  Entries at or below
    {!journal_seq} are ignored (duplicate delivery after a reconnect).
    A mutation entry must arrive gaplessly at [journal_seq + 1]
    ([Invalid_argument] otherwise); a checkpoint-snapshot entry may jump
    to any higher sequence — it supersedes everything before it, which is
    exactly how a follower whose position was compacted away
    re-bootstraps. *)

val close : t -> unit
(** Fsyncs and closes the log. *)

val crash : t -> unit
(** Abandon the database as a SIGKILL at an operation boundary would: the
    log is released without the close-time fsync, checkpoint, or any
    other graceful-shutdown work.  Every acknowledged operation is already
    flushed, so {!open_db} on the same directory recovers exactly the acked
    state — the deterministic, in-process replacement for the old
    fork+SIGKILL crash harness. *)
