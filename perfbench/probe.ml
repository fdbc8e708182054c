(* The traced run's server-side instruments, all attached through hooks the
   program already exposes ([~wrap_store], [~group_commit], [~journal],
   [~tick]); nothing inside lib/ is changed.  Every event is stamped with
   {!Fbremote.Clock.monotonic} at its end, a clock shared by all processes
   of the host, so the generator can cut a child's events at its own phase
   boundaries and nest them under the client round trips that cover them.
   Events stay in memory and are written out once, when the child exits. *)

module Store = Fbchunk.Chunk_store
module Chunk = Fbchunk.Chunk
module Persist = Fbpersist.Persist
module Server = Fbremote.Server

let now = Fbremote.Clock.monotonic

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One event per chunk-store call. *)
type store_log = {
  put_end : Stat.t;
  put_dur : Stat.t;
  put_bytes : Stat.t;  (** serialized chunk bytes handed to [put] = bytes SHA-256'd *)
  put_new : Stat.t;  (** bytes the inner store newly holds; 0 = dedup hit *)
  get_end : Stat.t;
  get_dur : Stat.t;
}

let fresh_store_log () =
  {
    put_end = Stat.create ();
    put_dur = Stat.create ();
    put_bytes = Stat.create ();
    put_new = Stat.create ();
    get_end = Stat.create ();
    get_dur = Stat.create ();
  }

let timing_store log (inner : Store.t) =
  let held () = (inner.Store.stats ()).Store.bytes in
  {
    inner with
    Store.put =
      (fun c ->
        let b0 = held () in
        let t0 = now () in
        let cid = inner.Store.put c in
        let t1 = now () in
        Stat.add log.put_end t1;
        Stat.add log.put_dur (t1 -. t0);
        Stat.add log.put_bytes (float_of_int (Chunk.byte_size c));
        Stat.add log.put_new (float_of_int (held () - b0));
        cid);
    get =
      (fun cid ->
        let t0 = now () in
        let r = inner.Store.get cid in
        let t1 = now () in
        Stat.add log.get_end t1;
        Stat.add log.get_dur (t1 -. t0);
        r);
  }

type server_trace = {
  store : store_log;
  sync_end : Stat.t;  (** group-commit fsyncs *)
  sync_dur : Stat.t;
  sync_cpu : Stat.t;  (** CPU the fsync call itself used, to avoid counting it twice *)
  pull_end : Stat.t;  (** [j_pull] journal reads served to followers *)
  pull_dur : Stat.t;
  cpu_t : Stat.t;  (** process CPU seconds sampled between event rounds *)
  cpu_v : Stat.t;
}

let fresh_trace () =
  {
    store = fresh_store_log ();
    sync_end = Stat.create ();
    sync_dur = Stat.create ();
    sync_cpu = Stat.create ();
    pull_end = Stat.create ();
    pull_dur = Stat.create ();
    cpu_t = Stat.create ();
    cpu_v = Stat.create ();
  }

let sample_cpu tr =
  Stat.add tr.cpu_t (now ());
  Stat.add tr.cpu_v (cpu_now ())

(* The server child, configured the way [forkbase serve] runs it:
   [Persist.open_db] defaults (journal fsync per operation, chunk log
   synced every 512 chunks), deferred sync with group commit, checkpoint
   and journal hooks.  Traced, it additionally wraps the store, times each
   group-commit fsync and journal pull, and samples its CPU time every
   event round (at most every 50 ms).  On exit it writes [out]: the trace,
   or [None] untraced — the file's presence says the child ended cleanly. *)
let serve_child ~dir ~trace ~out listen_fd =
  let tr = if trace then Some (fresh_trace ()) else None in
  let wrap_store = Option.map (fun tr -> timing_store tr.store) tr in
  let p = Persist.open_db ?wrap_store dir in
  Persist.set_deferred_sync p true;
  let group_commit =
    match tr with
    | None -> fun () -> Persist.sync p
    | Some tr ->
        fun () ->
          let c0 = cpu_now () in
          let t0 = now () in
          Persist.sync p;
          let t1 = now () in
          Stat.add tr.sync_end t1;
          Stat.add tr.sync_dur (t1 -. t0);
          Stat.add tr.sync_cpu (cpu_now () -. c0)
  in
  let hooks = Fbreplica.Replica.journal_hooks p in
  let journal =
    match tr with
    | None -> hooks
    | Some tr ->
        {
          hooks with
          Server.j_pull =
            (fun ~from_seq ->
              let t0 = now () in
              let entries = hooks.Server.j_pull ~from_seq in
              let t1 = now () in
              Stat.add tr.pull_end t1;
              Stat.add tr.pull_dur (t1 -. t0);
              entries);
        }
  in
  let tick = Option.map (fun tr () -> sample_cpu tr) tr in
  Option.iter sample_cpu tr;
  let (_ : Server.counters) =
    Server.serve
      ~checkpoint:(fun () -> Persist.compact p)
      ~journal ~group_commit ?tick (Persist.db p) listen_fd
  in
  Option.iter sample_cpu tr;
  Persist.close p;
  let tmp = out ^ ".tmp" in
  let oc = open_out_bin tmp in
  Marshal.to_channel oc (tr : server_trace option) [];
  close_out oc;
  Sys.rename tmp out

let read_trace out : server_trace option =
  let ic = open_in_bin out in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)

(* CPU seconds the child used within [lo, hi]. *)
let cpu_between tr ~lo ~hi =
  Stat.interpolate ~ts:tr.cpu_t ~vs:tr.cpu_v hi
  -. Stat.interpolate ~ts:tr.cpu_t ~vs:tr.cpu_v lo
