(** Deterministic chaos schedules for the soak harness.

    A schedule is fixed {e before} the run — a sorted list of
    (operation-index, event) pairs derived from the seed alone, in the
    same spirit as {!Fbcheck.Failpoint}: the same seed always yields the
    same events at the same points in the operation stream, so a failing
    soak replays exactly from the seed printed in its failure report.
    Nothing about scheduling consults the clock.

    When at least four slots are requested the schedule is guaranteed to
    cover every event kind at least once — the soak's acceptance bar is
    that faults, kill+restart, forced compaction, and promotion have all
    {e actually} been exercised, not just been possible. *)

type event =
  | Fault_followers of { fp_seed : int64; arm_ops : int }
      (** arm every follower's fault schedule (injected chunk-store put
          failures and dropped reads during backfill) for the next
          [arm_ops] driver operations, then disarm and verify *)
  | Kill_restart_primary
      (** SIGKILL the primary server process mid-traffic, fsck its
          on-disk store, respawn it on the same port, reconnect *)
  | Force_compaction
      (** force a compaction (with its snapshot entry) inside the
          primary over the wire, racing follower catch-up against the
          snapshot that supersedes their entries *)
  | Promote_follower
      (** quiesce, SIGKILL the primary, promote the first follower's
          store to primary on the same port, and recycle the old
          primary's store as a fresh follower *)
  | Kill_restart_shard of int
      (** sharded topology: SIGKILL shard [i] mid-traffic and respawn it
          on its port over the same store *)
  | Add_shard
      (** sharded topology: spawn one more shard and move its keys to it
          by a live fence/copy/lift rebalance while writes continue *)

type scheduled = { at : int; event : event }
(** [event] fires when the driver reaches operation [at] (1-based,
    before executing it). *)

val kind_name : event -> string
(** ["fault-followers" | "kill-restart" | "compaction" | "promotion" |
    "shard-kill" | "shard-add"] — stable labels for logs and coverage
    counters. *)

val all_kind_names : string list
(** The four kinds {!schedule} draws, for the replicated topology. *)

val shard_kind_names : string list
(** ["shard-kill"; "shard-add"], the kinds of {!shard_schedule}. *)

val event_to_string : event -> string
val scheduled_to_string : scheduled -> string

val schedule : seed:int64 -> total_ops:int -> events:int -> scheduled list
(** [events] chaos events at distinct, seed-chosen operation indices in
    [\[total_ops/10 + 1, total_ops\]], sorted by index.  With
    [events >= 4] every kind appears at least once; with fewer, kinds
    are drawn uniformly.  Pure: equal arguments, equal schedule. *)

val shard_schedule : total_ops:int -> scheduled list
(** The sharded topology's fixed schedule: shard 0 killed and restarted
    at [total_ops/3], one shard added at [2*total_ops/3]. *)
