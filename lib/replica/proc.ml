module Persist = Fbpersist.Persist
module Server = Fbremote.Server
module Procs = Fbremote.Procs

(* The one durable primary: deferred sync with the event loop's group
   commit as the only fsync, compaction on [Checkpoint], and the journal
   hooks that make it a replication source. *)
let serve_primary ?config ?shard p listen_fd =
  Persist.set_deferred_sync p true;
  Server.serve ?config ?shard
    ~checkpoint:(fun () -> Persist.compact p)
    ~journal:(Replica.journal_hooks p)
    ~group_commit:(fun () -> Persist.sync p)
    (Persist.db p) listen_fd

let spawn_primary ?port ?config ~dir () =
  Procs.spawn ?port (fun listen_fd ->
      let p = Persist.open_db dir in
      ignore (serve_primary ?config p listen_fd : Server.counters);
      Persist.close p)

let spawn_follower ?port ?config ~dir ~host ~primary_port () =
  Procs.spawn ?port (fun listen_fd ->
      let f = Replica.open_follower ~dir ~host ~port:primary_port () in
      ignore (Replica.serve ?config f listen_fd : Server.counters);
      Replica.close f)
