(* Durable ForkBase database: one append-only log (§4.4) holding the
   chunks and, as entry records, the journal of the §4.5 branch tables,
   plus snapshot checkpoints and online compaction.

   Write path ordering (one db operation):
     1. chunks appended to the log (buffered),
     2. the operation's branch records appended after them as one entry
        record (buffered),
     3. one flush and fsync of the log, unless deferred sync is on: then
        the network server's group commit flushes and fsyncs once for
        every operation of an event-loop round before it acknowledges
        any of them.
   An operation is acknowledged only after step 3, so no per-operation
   flush is needed: until its sync it may sit in the channel buffer, and
   a crash that loses it loses an operation nobody was told about.
   File order is the write-ahead order: an entry never refers to a chunk
   later in the file, so a torn tail can only drop an entry together with
   (or after) the chunks it needs, for process crashes and power loss
   alike. *)

module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store
module Log_store = Fbchunk.Log_store
module Db = Forkbase.Db

type corruption =
  | Missing_head of { key : string; branch : string option; uid : Cid.t }
  | Bad_log of { path : string; off : int; reason : string }

exception Corrupt_db of corruption

let pp_corruption fmt = function
  | Missing_head { key; branch; uid } ->
      Format.fprintf fmt
        "recovered head %a of key %S%s is missing from the chunk store" Cid.pp
        uid key
        (match branch with Some b -> " (branch " ^ b ^ ")" | None -> " (untagged)")
  | Bad_log { path; off; reason } ->
      Format.fprintf fmt "log %s has a corrupt record at byte %d: %s" path off
        reason

let corruption_to_string c = Format.asprintf "%a" pp_corruption c

type t = {
  dir : string;
  db : Db.t;
  set_store : Store.t -> unit;
  mutable log : Log_store.t;
  mutable deferred_sync : bool;
  mutable unsynced_ops : int;
  mutable seq : int;  (* sequence of the last committed entry *)
  mutable recent : (int * int) list;
      (* (seq, log offset) of the entries since the last snapshot, that
         snapshot included, newest first: what a pull can be served *)
}

(* Renames only become durable once the containing directory's entry list
   is on disk: fsync the directory after every tmp-over-live rename, or a
   power failure can resurrect the pre-rename file (and with it, state the
   caller believed replaced). *)
let dir_fsyncs = ref 0

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.fsync fd;
      incr dir_fsyncs)

let dir_fsync_count () = !dir_fsyncs

let log_file dir = Filename.concat dir "chunks.log"
let legacy_journal_file dir = Filename.concat dir "branches.journal"
let tmp_suffix = ".tmp"

let db t = t.db
let dir t = t.dir

let sync t =
  Log_store.sync t.log;
  t.unsynced_ops <- 0

let is_snapshot =
  List.exists (function Journal.Checkpoint _ -> true | Journal.Mutation _ -> false)

(* Append one entry after the chunks it refers to (buffered; [sync]
   flushes).  A snapshot supersedes every earlier entry, so it restarts the
   pullable tail. *)
let append t ~seq records =
  let off = Log_store.append_entry t.log (Journal.encode_entry ~seq records) in
  t.seq <- seq;
  t.recent <- (seq, off) :: (if is_snapshot records then [] else t.recent)

let commit t ~seq records =
  append t ~seq records;
  t.unsynced_ops <- t.unsynced_ops + 1;
  if not t.deferred_sync then sync t

let on_mutation t muts =
  commit t ~seq:(t.seq + 1) (List.map (fun m -> Journal.Mutation m) muts)

let validate_heads db =
  let store = Db.store db in
  let check ~key ~branch uid =
    match Forkbase.Fobject.load store uid with
    | Some obj when obj.Forkbase.Fobject.key = key -> ()
    | Some _ | None -> raise (Corrupt_db (Missing_head { key; branch; uid }))
  in
  List.iter
    (fun key ->
      List.iter
        (fun (b, uid) -> check ~key ~branch:(Some b) uid)
        (Db.list_tagged_branches db ~key);
      List.iter
        (fun uid -> check ~key ~branch:None uid)
        (Db.list_untagged_branches db ~key))
    (Db.list_keys db)

let replay_records db records =
  List.iter
    (function
      | Journal.Checkpoint snaps -> Db.import_tables db snaps
      | Journal.Mutation m -> Db.apply_mutation db m)
    records

let bad_log f =
  try f ()
  with Log_store.Corrupt_log { file; off; reason } ->
    raise (Corrupt_db (Bad_log { path = file; off; reason }))

(* A store written before the journal moved into the log keeps its entries
   in a second file.  Convert it once: append the entries the log lacks,
   fsync the log, delete the file, fsync the directory.  A crash between
   any two steps reopens to the same heads, because entries the log
   already holds are skipped by sequence number. *)
let import_legacy_journal dir log ~last_seq ~note =
  let path = legacy_journal_file dir in
  if Sys.file_exists path then begin
    List.iter
      (fun (off, body) ->
        let ((seq, _) as entry) =
          try Journal.decode_entry body
          with Fbutil.Codec.Corrupt reason ->
            raise (Corrupt_db (Bad_log { path; off; reason }))
        in
        if seq > last_seq then note (Log_store.append_entry log body) entry)
      (bad_log (fun () -> Log_store.records path));
    Log_store.sync log;
    Sys.remove path;
    fsync_dir dir
  end

let open_db ?cfg ?acl ?wrap_store ?recovery_check dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Leftovers from a compaction (or an old-layout checkpoint) that crashed
     before its atomic rename are dead weight: remove them. *)
  List.iter
    (fun f ->
      let p = f dir ^ tmp_suffix in
      if Sys.file_exists p then Sys.remove p)
    [ log_file; legacy_journal_file ];
  (* Every entry is decoded (a rotten one is corruption, which the log
     reports with its offset), but only those from the last snapshot on
     are kept for replay. *)
  let recent = ref [] in
  let note off ((seq, records) : int * Journal.record list) =
    recent := (seq, off, records) :: (if is_snapshot records then [] else !recent)
  in
  let log =
    bad_log (fun () ->
        Log_store.open_
          ~on_entry:(fun off body -> note off (Journal.decode_entry body))
          (log_file dir))
  in
  let store, set_store = Store.redirectable (Log_store.store log) in
  (* Fault-injection / instrumentation wrappers go outside the redirectable
     store so compaction can still swap the backing log underneath them. *)
  let store = match wrap_store with None -> store | Some w -> w store in
  let db = Db.create ?cfg ?acl store in
  let last_seq () = match !recent with (s, _, _) :: _ -> s | [] -> 0 in
  (* Any recovery failure from here on must release the log, or every
     failed open leaks its descriptors. *)
  (try
     import_legacy_journal dir log ~last_seq:(last_seq ()) ~note;
     List.iter (fun (_, _, records) -> replay_records db records) (List.rev !recent);
     validate_heads db;
     (* Optional deep post-recovery verification (e.g. Fbcheck.Fsck).  Runs
        before the mutation hook is installed, so a checker that reads
        through the store cannot journal anything. *)
     match recovery_check with None -> () | Some check -> check db
   with e ->
     Log_store.close log;
     raise e);
  let t =
    {
      dir;
      db;
      set_store;
      log;
      deferred_sync = false;
      unsynced_ops = 0;
      (* sequences are assigned monotonically, so the last entry holds the
         store's current sequence *)
      seq = last_seq ();
      recent = List.map (fun (seq, off, _) -> (seq, off)) !recent;
    }
  in
  Db.set_on_mutation db (fun muts -> on_mutation t muts);
  t

(* Snapshot every branch table into one entry, stamped with the sequence
   of the last operation it covers: the sequence counter survives, reopen
   replays from here on, and a replication pull from an older position
   receives this entry first. *)
let snapshot t = [ Journal.Checkpoint (Db.export_tables t.db) ]

let checkpoint t =
  append t ~seq:t.seq (snapshot t);
  sync t

let garbage_stats t = Forkbase.Gc.garbage_stats t.db

(* Online compaction: sweep live chunks into a fresh log, append the
   snapshot after them, fsync, rename it over the live log and fsync the
   directory, then redirect the db's store.  Returns reclaimed
   (chunks, bytes). *)
let compact t =
  let old_stats = (Db.store t.db).Store.stats () in
  let old_chunks = old_stats.Store.chunks and old_bytes = old_stats.Store.bytes in
  let tmp = log_file t.dir ^ tmp_suffix in
  if Sys.file_exists tmp then Sys.remove tmp;
  let fresh = Log_store.open_ tmp in
  let live_chunks, live_bytes =
    Forkbase.Gc.sweep t.db ~into:(Log_store.store fresh)
  in
  let off =
    Log_store.append_entry fresh (Journal.encode_entry ~seq:t.seq (snapshot t))
  in
  Log_store.close fresh;
  Unix.rename tmp (log_file t.dir);
  fsync_dir t.dir;
  (* the old file is unlinked: nothing of it needs to reach the disk *)
  Log_store.crash t.log;
  t.log <- Log_store.open_ (log_file t.dir);
  t.set_store (Log_store.store t.log);
  t.recent <- [ (t.seq, off) ];
  t.unsynced_ops <- 0;
  (old_chunks - live_chunks, old_bytes - live_bytes)

let log_size t = Log_store.file_size t.log
let journal_bytes t = Log_store.entry_bytes t.log
let journal_seq t = t.seq

(* Serve a replication pull from the entry offsets since the last
   snapshot: O(entries returned) reads, no rescan of the log. *)
let pull_entries t ~from_seq ~max_entries =
  let rec newer acc = function
    | (seq, off) :: rest when seq > from_seq -> newer (off :: acc) rest
    | _ -> acc
  in
  newer [] t.recent
  |> List.filteri (fun i _ -> i < max_entries)
  |> List.map (Log_store.read_entry t.log)

(* Apply one shipped entry: append it after its chunks (the same
   write-path ordering as [on_mutation]), then replay the records into the
   in-memory tables.  [Db.apply_mutation] / [Db.import_tables] do not fire
   the mutation hook, so nothing is journaled twice. *)
let apply_replicated t ~seq records =
  if seq > t.seq then begin
    if (not (is_snapshot records)) && seq <> t.seq + 1 then
      invalid_arg
        (Printf.sprintf
           "Persist.apply_replicated: mutation entry %d does not follow %d"
           seq t.seq);
    commit t ~seq records;
    replay_records t.db records
  end

(* Group-commit support: with deferred sync on, [on_mutation] /
   [apply_replicated] stop fsyncing on their own; the caller (the server's
   event loop) batches many operations behind one explicit [sync] and only
   acknowledges them after it.  Per-ack durability is unchanged — acks
   just wait for the shared fsync instead of paying one each. *)
let set_deferred_sync t v = t.deferred_sync <- v
let unsynced_ops t = t.unsynced_ops

let close t = Log_store.close t.log

(* Deterministic crash: drop the log as a SIGKILL at an operation boundary
   would — no final sync, no checkpoint.  Every acknowledged operation
   went through a [sync] before its ack, so a subsequent [open_db]
   recovers at least the acknowledged state; operations appended since
   the last sync (deferred sync only) are flushed too, as a process crash
   after the kernel took them would leave them. *)
let crash t = Log_store.crash t.log
