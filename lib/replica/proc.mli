(** Serving a durable store as a primary, in this process or in spawned
    child processes — primaries and serving followers — for the CLI, the
    replication and shard tests and the soak harness.

    {!serve_primary} is the one place a durable store is put behind the
    network server: `forkbase serve`, `forkbase shard`, {!spawn_primary}
    and [Fbshard.Shard] all go through it.  A served store always
    group-commits; an embedded one ({!Fbpersist.Persist.open_db} alone)
    fsyncs per operation.

    Spawning is built on {!Fbremote.Procs}: the parent binds the
    (ephemeral or fixed) port, the forked child opens the durable store
    and serves it exactly as the CLI would.  Killing the child with
    {!Fbremote.Procs.kill} is a faithful crash: the store's recovery path
    replays the journal on the next open.  Respawning on
    {!Fbremote.Procs.port} models a supervisor restart on stable
    storage. *)

val serve_primary :
  ?config:Fbremote.Server.config ->
  ?shard:Fbremote.Server.shard_role ->
  Fbpersist.Persist.t ->
  Unix.file_descr ->
  Fbremote.Server.counters
(** Serve the opened store [p] on [listen_fd] until a [Quit]: deferred
    sync on, group commit through {!Fbpersist.Persist.sync} (the
    acknowledgements of durable writes wait for one shared fsync per
    event-loop round), a wire [Checkpoint] runs
    {!Fbpersist.Persist.compact}, and {!Replica.journal_hooks} make the
    server a replication source.  [shard] makes it one shard of a
    partitioned cluster.  The caller closes [p]. *)

val spawn_primary :
  ?port:int -> ?config:Fbremote.Server.config ->
  dir:string -> unit -> Fbremote.Procs.t
(** {!serve_primary} over the durable store in [dir], from a child
    process.  [port] defaults to an ephemeral one; pass the previous
    {!Fbremote.Procs.port} to restart a killed primary where its clients
    expect it. *)

val spawn_follower :
  ?port:int -> ?config:Fbremote.Server.config ->
  dir:string -> host:string -> primary_port:int -> unit ->
  Fbremote.Procs.t
(** Serve a read-only catch-up follower of [host:primary_port] from a
    child process, as `forkbase follow` would: reads from its local
    store in [dir], writes answered with [Redirect], the sync loop on
    the server tick. *)
