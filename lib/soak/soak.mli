(** The chaos soak harness — ForkBase's long-running confidence test.

    One driver runs the soak over either of two {e real} topologies:

    - {b replicated} ({!run}): a primary server in a child process
      (spawned exactly as `forkbase serve` would run it, group commit
      on) plus in-process catch-up followers ({!Fbreplica.Replica}), each
      on its own durable store, carrying three applications' traffic
      over the wire ({!Apps}: Redis-style KV, a fork/edit/merge wiki, a
      conservation-checked ledger);
    - {b sharded} ({!run_sharded}): a {!Fbshard.Dispatch} dispatcher over
      N shard processes carrying puts, read-backs and fork/edit/merge
      cycles, checked against an oracle of acknowledged writes.

    The driver owns what the two share: the operation loop and its
    deadline, a chaos schedule ({!Chaos}) fixed from the seed before the
    run and logged as [chaos \[op N\] ...] lines as each event fires,
    quiesce-and-verify at a fixed cadence, graceful shutdown followed by
    an fsck of every store from its directory, teardown, the {!outcome}
    counters and the single {!Soak_failed} report.  A topology
    contributes only its workload step, how each of its events fires,
    its quiesce check, its shutdown and its teardown.

    The replicated invariants, asserted continuously and at every
    quiesce point:

    - {b fsck-clean stores}: {!Fbcheck.Fsck} over every follower store at
      each full verify, and over a primary's directory whenever its
      process is dead (after kills, before promotion, at shutdown);
    - {b model-consistent application state}: inline read-backs during
      traffic plus full {!Fbcheck.App_model} diffs of primary (over the
      wire) and followers (local connectors);
    - {b replication convergence}: after each quiesce every follower is
      synced until caught up ([lag = 0]) and its full head map must equal
      the primary's ({!Fbcheck.Convergence}).

    The sharded invariant: zero lost acknowledged writes across shard
    kills and live rebalances, plus fsck-clean shard stores at shutdown.

    Everything is replayable: the chaos schedule, workload, and fault
    schedules derive from [config.seed] alone, a failing run raises
    {!Soak_failed} carrying the seed and the chaos-event log, and
    {!failure_report} prints the `forkbase soak` command that replays
    it. *)

type config = {
  seed : int64;  (** drives workload, chaos schedule, and fault plans *)
  total_ops : int;  (** driver operations (the schedule's time axis) *)
  followers : int;  (** catch-up followers (>= 1; promotion needs one) *)
  chaos_events : int;  (** >= 4 guarantees all four kinds fire *)
  sync_every : int;  (** follower sync-step cadence, in driver ops *)
  verify_every : int;  (** full quiesce-and-verify cadence, in driver ops *)
  kv_keys : int;
  wiki_pages : int;
  accounts : int;
  theta : float;  (** zipfian skew for all three applications *)
  page_bytes : int;
  value_bytes : int;
  deadline : float option;
      (** wall-clock budget in seconds; the run stops early (and is
          marked {!outcome.timed_out}) once exceeded.  [None] — the short
          profile — never consults the clock, which is what makes it
          bit-for-bit deterministic. *)
  sabotage_at : int option;
      (** test hook: at this operation, corrupt a follower's chunk log
          behind the harness's back — the next fsck {e must} fail,
          proving a real invariant violation produces a failure report *)
  scratch : string option;  (** store directories root; [None] = temp *)
  keep_scratch : bool;  (** keep stores on success (always kept on failure) *)
  log : string -> unit;  (** progress lines; [ignore] for silence *)
}

val short_config : ?seed:int64 -> ?ops:int -> ?log:(string -> unit) -> unit -> config
(** The deterministic profile `dune runtest` runs: small keyspaces, a
    few hundred operations, no clock — same seed, same run, same event
    log. *)

val long_config :
  ?seed:int64 -> ?seconds:float -> ?ops:int -> ?log:(string -> unit) -> unit -> config
(** The wall-clock soak (`forkbase soak --profile long`): bigger
    keyspaces, [ops] scaled up, stopping after [seconds] (default 60). *)

type outcome = {
  ops_done : int;
  events_fired : (string * int) list;
      (** per {!Chaos.kind_name}, how many events actually fired *)
  inline_checks : int;  (** read-backs checked against the oracle *)
  full_verifies : int;  (** quiesce-and-verify-everything passes *)
  stores_fscked : int;  (** fsck reports required clean *)
  convergence_checks : int;
      (** follower head maps diffed against primary; for the sharded
          topology, full oracle read-back passes *)
  model_checks : int;  (** full application-state diffs (primary + followers) *)
  faults_injected : int;  (** follower store faults that actually fired *)
  ops_by_app : (string * int) list;
  timed_out : bool;  (** the {!config.deadline} cut the run short *)
}

type failure = {
  f_seed : int64;
  f_at_op : int;
  f_what : string;  (** which invariant (or step) failed *)
  f_detail : string list;  (** mismatch / violation / divergence lines *)
  f_schedule : string list;  (** the full chaos schedule, rendered *)
  f_fired : string list;  (** events that had fired, in order *)
  f_scratch : string;  (** preserved store directories for post-mortem *)
  f_replay : string;
      (** the CLI command that replays this run: [--profile long
          --seconds s] when the config had a deadline, else [--profile
          short]; [--shards N] for a sharded run *)
}

exception Soak_failed of failure

val failure_report : failure -> string
(** The multi-line report: what failed at which operation, the seed, the
    chaos-event log, and the replay command — everything needed to
    reproduce the run. *)

val run : config -> outcome
(** Soak the replicated topology (`forkbase soak`), under the seeded
    {!Chaos.schedule} of [config.chaos_events] events.
    @raise Soak_failed on any invariant violation. *)

val run_sharded : shards:int -> config -> outcome
(** Soak the sharded topology (`forkbase soak --shards N`) over
    [shards] shard processes, under {!Chaos.shard_schedule}: shard 0
    killed and respawned on its port, then one shard added by a live
    fence/copy/lift rebalance while writes continue.  [followers],
    [chaos_events], [sync_every] and [sabotage_at] are ignored.
    @raise Soak_failed on any lost acknowledged write or unclean store. *)
