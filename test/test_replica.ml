(* Replication (lib/replica): journal sequence numbering, the wire-level
   replication surface, and primary/follower convergence over real
   sockets — including snapshot bootstrap after compaction, a follower
   crash mid-catch-up, chunk-backfill faults, and promotion. *)

module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module Journal = Fbpersist.Journal
module Wire = Fbremote.Wire
module Server = Fbremote.Server
module Client = Fbremote.Client
module Replica = Fbreplica.Replica
module Splitmix = Fbutil.Splitmix

let with_temp_dir = Testnet.with_temp_dir
let with_temp_dirs2 = Testnet.with_temp_dirs2

let log_path dir = Filename.concat dir "chunks.log"

(* Decoded pull: the entry bodies a primary ships, as records. *)
let pull p ~from_seq ~max_entries =
  List.map Journal.decode_entry (Persist.pull_entries p ~from_seq ~max_entries)

(* --- sequence numbering at the persist layer --- *)

let test_seq_assignment_and_recovery () =
  with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  Alcotest.(check int) "fresh store at seq 0" 0 (Persist.journal_seq p);
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v1") in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "v2") in
  (match Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Alcotest.(check int) "one seq per operation" 3 (Persist.journal_seq p);
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check int) "seq recovered on reopen" 3 (Persist.journal_seq p2);
  (* the sequence survives a checkpoint: the snapshot entry is stamped
     with the last covered seq *)
  Persist.checkpoint p2;
  Alcotest.(check int) "seq survives rotation" 3 (Persist.journal_seq p2);
  (match pull p2 ~from_seq:0 ~max_entries:100 with
  | [ (3, [ Journal.Checkpoint _ ]) ] -> ()
  | entries ->
      Alcotest.fail
        (Printf.sprintf "expected one checkpoint entry at seq 3, got %d entries"
           (List.length entries)));
  Alcotest.(check int) "caught-up pull is empty" 0
    (List.length (pull p2 ~from_seq:3 ~max_entries:100));
  let (_ : Cid.t) = Db.put (Persist.db p2) ~key:"k" (Db.str "v3") in
  Alcotest.(check int) "post-rotation ops continue the sequence" 4
    (Persist.journal_seq p2);
  Persist.close p2;
  let p3 = Persist.open_db dir in
  Alcotest.(check int) "rotated + appended journal recovers seq" 4
    (Persist.journal_seq p3);
  Persist.close p3

let test_pull_entries_bounds () =
  with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  for i = 1 to 10 do
    let (_ : Cid.t) =
      Db.put (Persist.db p) ~key:"k" (Db.str (string_of_int i))
    in
    ()
  done;
  let seqs entries = List.map fst entries in
  Alcotest.(check (list int)) "strictly after from_seq, bounded"
    [ 4; 5; 6 ]
    (seqs (pull p ~from_seq:3 ~max_entries:3));
  Alcotest.(check (list int)) "tail from the middle" [ 9; 10 ]
    (seqs (pull p ~from_seq:8 ~max_entries:100));
  Persist.close p

let test_apply_replicated_semantics () =
  with_temp_dirs2 @@ fun dir1 dir2 ->
  let p1 = Persist.open_db dir1 in
  let (_ : Cid.t) = Db.put (Persist.db p1) ~key:"k" (Db.str "v1") in
  let (_ : Cid.t) = Db.put (Persist.db p1) ~key:"k" (Db.str "v2") in
  let entries = pull p1 ~from_seq:0 ~max_entries:100 in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  (* seed the follower's chunk store with the primary's chunks — this
     test exercises the sequencing rules, not the network backfill *)
  let p2 = Persist.open_db dir2 in
  let (_ : int * int) =
    Forkbase.Gc.sweep (Persist.db p1) ~into:(Db.store (Persist.db p2))
  in
  (* gapless mutation entries apply; a gap is refused *)
  (match entries with
  | [ (1, r1); (2, r2) ] ->
      (match Persist.apply_replicated p2 ~seq:2 r2 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "gap accepted");
      Persist.apply_replicated p2 ~seq:1 r1;
      Persist.apply_replicated p2 ~seq:2 r2;
      Alcotest.(check int) "follower seq tracks" 2 (Persist.journal_seq p2);
      (* duplicate delivery is ignored *)
      Persist.apply_replicated p2 ~seq:1 r1;
      Persist.apply_replicated p2 ~seq:2 r2;
      Alcotest.(check int) "duplicates ignored" 2 (Persist.journal_seq p2)
  | _ -> Alcotest.fail "unexpected entry shape");
  (* a checkpoint-snapshot entry may jump the sequence *)
  Persist.checkpoint p1;
  let (_ : Cid.t) = Db.put (Persist.db p1) ~key:"k" (Db.str "v3") in
  (match pull p1 ~from_seq:0 ~max_entries:1 with
  | [ (2, ([ Journal.Checkpoint _ ] as snap)) ] ->
      (* deliver it to a fresh follower that is far behind *)
      with_temp_dir (fun dir3 ->
          let p3 = Persist.open_db dir3 in
          Persist.apply_replicated p3 ~seq:2 snap;
          Alcotest.(check int) "snapshot jumps the sequence" 2
            (Persist.journal_seq p3);
          Persist.close p3)
  | _ -> Alcotest.fail "expected the checkpoint entry first");
  Persist.close p1;
  (* the replicated journal is itself recoverable *)
  Persist.close p2;
  let p2' = Persist.open_db dir2 in
  Alcotest.(check int) "replicated journal recovers" 2 (Persist.journal_seq p2');
  Persist.close p2'

(* --- handler-level replication surface (no sockets) --- *)

let test_handle_replication () =
  with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  Fun.protect ~finally:(fun () -> Persist.close p) @@ fun () ->
  let db = Persist.db p in
  let uid = Db.put db ~key:"k" (Db.blob db (String.make 40_000 'r')) in
  let journal = Replica.journal_hooks p in
  (* journal hooks feed Stats and Pull_journal *)
  (match Server.handle ~journal db Wire.Stats with
  | Wire.Stats_r s ->
      Alcotest.(check int) "stats journal_seq" 1 s.Wire.journal_seq;
      Alcotest.(check bool) "stats journal_bytes" true (s.Wire.journal_bytes > 0)
  | _ -> Alcotest.fail "stats");
  (match Server.handle ~journal db (Wire.Pull_journal { from_seq = 0 }) with
  | Wire.Journal_batch { primary_seq = 1; entries = [ body ] } -> (
      match Journal.decode_entry body with
      | 1, [ Journal.Mutation _; Journal.Mutation _ ] -> ()
      | _ -> Alcotest.fail "entry body")
  | _ -> Alcotest.fail "pull_journal");
  (* without hooks Pull_journal refuses and Stats degrades to zero *)
  (match Server.handle db (Wire.Pull_journal { from_seq = 0 }) with
  | Wire.Error _ -> ()
  | _ -> Alcotest.fail "pull without hooks should error");
  (match Server.handle db Wire.Stats with
  | Wire.Stats_r s -> Alcotest.(check int) "no hooks: seq 0" 0 s.Wire.journal_seq
  | _ -> Alcotest.fail "stats without hooks");
  (* Fetch_chunks answers what it holds and silently omits the rest *)
  (match
     Server.handle db
       (Wire.Fetch_chunks { cids = [ uid; Cid.digest "not stored" ] })
   with
  | Wire.Chunks [ enc ] ->
      Alcotest.(check bool) "returned chunk re-hashes to its cid" true
        (Cid.equal (Fbchunk.Chunk.cid (Fbchunk.Chunk.decode enc)) uid)
  | _ -> Alcotest.fail "fetch_chunks");
  (match
     Server.handle db
       (Wire.Fetch_chunks
          { cids = List.init (Server.max_fetch_chunks + 1) (fun i ->
                Cid.digest (string_of_int i)) })
   with
  | Wire.Error _ -> ()
  | _ -> Alcotest.fail "oversized fetch should error");
  (* redirect mode: writes bounce, reads serve *)
  let redirect = ("primary.example", 7878) in
  (match
     Server.handle ~redirect db
       (Wire.Put { key = "k"; branch = "master"; context = ""; value = Wire.Str "x" })
   with
  | Wire.Redirect { host = "primary.example"; port = 7878 } -> ()
  | _ -> Alcotest.fail "write should redirect");
  (match Server.handle ~redirect db Wire.Checkpoint with
  | Wire.Redirect _ -> ()
  | _ -> Alcotest.fail "checkpoint should redirect");
  match Server.handle ~redirect db (Wire.Get { key = "k"; branch = "master" }) with
  | Wire.Value _ -> ()
  | _ -> Alcotest.fail "read should serve locally"

(* --- socket-level primary/follower harness --- *)

(* A durable primary child serving [dir] (journal hooks, compaction), as
   `forkbase serve` would run it — shared plumbing in Testnet. *)
let with_primary dir f = Testnet.with_primary dir f

(* Model-driver-style randomized write workload, driven over the wire so
   it executes inside the primary server process. *)
let keys = [| "alpha"; "beta"; "gamma" |]
let branch_pool = [| "master"; "dev"; "feature" |]

let pick rng arr = arr.(Splitmix.int rng (Array.length arr))

let random_wire_op rng c i =
  let key = pick rng keys in
  let branch = pick rng branch_pool in
  try
    match Splitmix.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        ignore
          (Client.put c ~branch ~key (Wire.Str (Printf.sprintf "v%d" i))
            : Cid.t)
    | 4 | 5 ->
        (* large enough to chunk into a POS-Tree (multiple leaves + index
           node), so follower backfill walks a real closure *)
        ignore
          (Client.put c ~branch ~key
             (Wire.Blob (String.init 40_000 (fun j -> Char.chr ((i * 31 + j * 7) land 0xff))))
            : Cid.t)
    | 6 ->
        ignore
          (Client.put c ~branch ~key
             (Wire.Map [ ("n", string_of_int i); ("k", key) ])
            : Cid.t)
    | 7 -> Client.fork c ~key ~from_branch:"master" ~new_branch:branch
    | 8 ->
        ignore
          (Client.merge ~resolver:"left" c ~key ~target:"master"
             ~ref_branch:branch
            : Cid.t)
    | _ ->
        ignore
          (Client.put c ~branch ~key (Wire.List [ key; branch; string_of_int i ])
            : Cid.t)
  with
  | Client.Remote_failure _ ->
      (* unknown branch / existing branch: legitimate refusals *)
      ()

(* Every branch head the primary reports must be the follower's head too,
   resolvable and hash-verified in the follower's own store. *)
let assert_converged c f =
  let fdb = Replica.db f in
  let keys_p = List.sort compare (Client.list_keys c) in
  Alcotest.(check (list string))
    "key sets equal" keys_p
    (List.sort compare (Db.list_keys fdb));
  List.iter
    (fun key ->
      let norm bs =
        List.sort compare (List.map (fun (b, u) -> (b, Cid.to_hex u)) bs)
      in
      let bp = norm (Client.list_branches c ~key) in
      let bf = norm (Db.list_tagged_branches fdb ~key) in
      Alcotest.(check (list (pair string string)))
        ("branch heads of " ^ key) bp bf;
      List.iter
        (fun (_, hex) ->
          Alcotest.(check bool)
            ("head verifies locally: " ^ hex)
            true
            (Db.verify_version fdb (Cid.of_hex hex)))
        bf)
    keys_p;
  let report = Fbcheck.Fsck.check_db fdb in
  if not (Fbcheck.Fsck.ok report) then
    Alcotest.fail
      (Format.asprintf "follower fsck: %a" Fbcheck.Fsck.pp_report report)

let test_follower_tails_randomized_primary () =
  with_temp_dirs2 @@ fun pdir fdir ->
  with_primary pdir @@ fun port ->
  let c = Client.connect ~retries:10 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Replica.close f) @@ fun () ->
  let rng = Splitmix.create 0xF0110AL in
  (* interleave: the follower tails while the primary keeps writing *)
  for i = 1 to 60 do
    random_wire_op rng c i;
    if i mod 5 = 0 then ignore (Replica.sync_step f : Replica.progress)
  done;
  Replica.sync_until_caught_up f;
  let s = Client.stats c in
  Alcotest.(check bool) "primary sequenced the workload" true
    (s.Wire.journal_seq > 0);
  Alcotest.(check int) "follower reached the primary seq" s.Wire.journal_seq
    (Replica.seq f);
  Alcotest.(check int) "no lag after drain" 0 (Replica.lag f);
  let k = Replica.counters f in
  Alcotest.(check bool) "entries were applied" true (k.Replica.entries_applied > 0);
  Alcotest.(check bool) "chunks were backfilled" true (k.Replica.chunks_fetched > 0);
  assert_converged c f;
  Client.quit_server c

let test_snapshot_bootstrap_after_compaction () =
  with_temp_dirs2 @@ fun pdir fdir ->
  with_primary pdir @@ fun port ->
  let c = Client.connect ~retries:10 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Splitmix.create 0xB007L in
  for i = 1 to 30 do
    random_wire_op rng c i
  done;
  (* rotate the journal away: early entries are now unreachable, and
     un-headed garbage chunks are compacted out of the chunk log *)
  let (_ : int * int) = Client.checkpoint c in
  for i = 31 to 40 do
    random_wire_op rng c i
  done;
  (* a brand-new follower at seq 0 must bootstrap from the snapshot *)
  let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Replica.close f) @@ fun () ->
  Replica.sync_until_caught_up f;
  Alcotest.(check int) "lag drained" 0 (Replica.lag f);
  assert_converged c f;
  Client.quit_server c

let test_follower_crash_recovers_and_reconverges () =
  with_temp_dirs2 @@ fun pdir fdir ->
  with_primary pdir @@ fun port ->
  let c = Client.connect ~retries:10 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Splitmix.create 0xDEADL in
  for i = 1 to 25 do
    random_wire_op rng c i
  done;
  let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
  Replica.sync_until_caught_up f;
  let seq_at_crash = Replica.seq f in
  Alcotest.(check bool) "some entries applied before the crash" true
    (seq_at_crash > 0);
  (* kill the follower without fsync and tear its log tail (the last
     entry record), as a crash mid-append would *)
  Replica.crash f;
  Fbcheck.Failpoint.tear_file (log_path fdir) ~drop:3;
  (* the primary keeps writing while the follower is down *)
  for i = 26 to 50 do
    random_wire_op rng c i
  done;
  let f2 = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Replica.close f2) @@ fun () ->
  Alcotest.(check bool) "torn tail dropped one committed entry" true
    (Replica.seq f2 < seq_at_crash);
  Replica.sync_until_caught_up f2;
  Alcotest.(check int) "re-converged" 0 (Replica.lag f2);
  assert_converged c f2;
  Client.quit_server c

let test_backfill_faults_then_converge () =
  with_temp_dirs2 @@ fun pdir fdir ->
  with_primary pdir @@ fun port ->
  let c = Client.connect ~retries:10 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Splitmix.create 0xFA17L in
  for i = 1 to 20 do
    random_wire_op rng c i
  done;
  (* fail the first two backfill puts and drop two local reads: the
     dropped responses of the fetch path *)
  let fp =
    Fbcheck.Failpoint.exact ~fail_puts:[ 0; 1 ] ~drop_gets:[ 3; 7 ] ()
  in
  let f =
    Replica.open_follower
      ~wrap_store:(Fbcheck.Failpoint.store fp)
      ~dir:fdir ~host:"127.0.0.1" ~port ()
  in
  Fun.protect ~finally:(fun () -> Replica.close f) @@ fun () ->
  (* the injected put faults surface from sync_step (the sync loop in
     {!Replica.serve} swallows them and retries next tick; here we drive
     the retries by hand) *)
  let faulted = ref 0 in
  let rec drive budget =
    if budget = 0 then Alcotest.fail "did not converge under faults"
    else
      match Replica.sync_step f with
      | exception Store.Injected_fault _ ->
          incr faulted;
          drive (budget - 1)
      | Replica.Caught_up when Replica.lag f = 0 -> ()
      | _ -> drive (budget - 1)
  in
  drive 50;
  Alcotest.(check bool) "scheduled faults actually fired" true (!faulted > 0);
  Alcotest.(check bool) "dropped gets re-fetched" true
    (Fbcheck.Failpoint.injected fp >= 2);
  assert_converged c f;
  Client.quit_server c

let test_promotion () =
  with_temp_dirs2 @@ fun pdir fdir ->
  let head_hex =
    with_primary pdir @@ fun port ->
    let c = Client.connect ~retries:10 ~port () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let rng = Splitmix.create 0x9802L in
    for i = 1 to 30 do
      random_wire_op rng c i
    done;
    let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
    Replica.sync_until_caught_up f;
    assert_converged c f;
    (* remember some replicated head to re-verify after promotion *)
    let fdb = Replica.db f in
    let head =
      match Db.list_keys fdb with
      | key :: _ -> snd (List.hd (Db.list_tagged_branches fdb ~key))
      | [] -> Alcotest.fail "replicated store is empty"
    in
    Replica.close f;
    Client.quit_server c;
    Cid.to_hex head
  in
  (* the primary is gone; the follower's directory is a complete durable
     store — promote it by serving it as a primary *)
  let p = Persist.open_db fdir in
  Fun.protect ~finally:(fun () -> Persist.close p) @@ fun () ->
  let db = Persist.db p in
  Alcotest.(check bool) "replicated history intact" true
    (Db.verify_version db (Cid.of_hex head_hex));
  let seq_before = Persist.journal_seq p in
  let (_ : Cid.t) = Db.put db ~key:"alpha" (Db.str "written-as-primary") in
  Alcotest.(check int) "promoted store continues the sequence"
    (seq_before + 1) (Persist.journal_seq p);
  let report = Fbcheck.Fsck.check_db db in
  Alcotest.(check bool) "promoted store fscks clean" true
    (Fbcheck.Fsck.ok report)

(* --- a serving follower: read scaling + typed write redirect --- *)

let test_serving_follower_reads_and_redirects () =
  with_temp_dirs2 @@ fun pdir fdir ->
  with_primary pdir @@ fun pport ->
  let c = Client.connect ~retries:10 ~port:pport () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let (_ : Cid.t) = Client.put c ~key:"page" (Wire.Blob (String.make 50_000 'p')) in
  let (_ : Cid.t) = Client.put c ~key:"page" (Wire.Str "latest") in
  let primary_seq = (Client.stats c).Wire.journal_seq in
  Testnet.with_follower_server ~fdir ~primary_port:pport @@ fun fport ->
  let fc = Client.connect ~retries:10 ~port:fport () in
  Fun.protect ~finally:(fun () -> Client.close fc) @@ fun () ->
  (* the sync loop runs as the follower server's tick: poll its stats
     until the replication lag reaches zero *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec await () =
    let fseq = (Client.stats fc).Wire.journal_seq in
    if fseq >= primary_seq then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail
        (Printf.sprintf "follower stuck at seq %d of %d" fseq primary_seq)
    else begin
      Unix.sleepf 0.05;
      await ()
    end
  in
  await ();
  (* read scaling: the follower answers reads from its own store *)
  (match Client.get fc ~key:"page" with
  | Wire.Str "latest" -> ()
  | _ -> Alcotest.fail "follower read");
  Alcotest.(check (list string)) "follower lists keys" [ "page" ]
    (Client.list_keys fc);
  (* writes bounce with a typed redirect naming the primary *)
  (match Client.put fc ~key:"page" (Wire.Str "nope") with
  | exception Client.Redirected ("127.0.0.1", p) ->
      Alcotest.(check int) "redirect names the primary" pport p
  | _ -> Alcotest.fail "follower accepted a write");
  (* follow the redirect: the write lands on the primary and the follower
     catches up to it *)
  (match Client.put fc ~key:"page" (Wire.Str "nope") with
  | exception Client.Redirected (host, p) ->
      let rc = Client.connect ~host ~retries:5 ~port:p () in
      Fun.protect ~finally:(fun () -> Client.close rc) @@ fun () ->
      ignore (Client.put rc ~key:"page" (Wire.Str "via-redirect") : Cid.t)
  | _ -> Alcotest.fail "follower accepted a write");
  let deadline = Unix.gettimeofday () +. 10. in
  let rec await_value () =
    match Client.get fc ~key:"page" with
    | Wire.Str "via-redirect" -> ()
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "redirected write never replicated"
    | _ ->
        Unix.sleepf 0.05;
        await_value ()
  in
  await_value ();
  Client.quit_server fc;
  Client.quit_server c

(* --- promotion under concurrent writes --- *)

(* A separate writer process hammers the primary while the follower
   catches up mid-stream; after a quiesce, the follower's store fails
   over to primary duty (served by a fresh child process, as the soak's
   promotion events do) and must accept writes, continue the journal
   sequence, and support chaining a brand-new follower. *)
let test_promotion_under_concurrent_writes () =
  with_temp_dirs2 @@ fun pdir fdir ->
  let promoted_seq = ref 0 in
  (with_primary pdir @@ fun pport ->
   let c = Client.connect ~retries:10 ~port:pport () in
   Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
   let (_ : Cid.t) = Client.put c ~key:"seed" (Wire.Str "s") in
   let writer =
     match Unix.fork () with
     | 0 ->
         let wc = Client.connect ~retries:10 ~port:pport () in
         for i = 1 to 800 do
           ignore
             (Client.put wc
                ~key:(Printf.sprintf "w%d" (i mod 8))
                (Wire.Str (string_of_int i))
               : Cid.t)
         done;
         Client.close wc;
         Unix._exit 0
     | pid -> pid
   in
   let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port:pport () in
   Fun.protect ~finally:(fun () -> Replica.close f) @@ fun () ->
   (* sync while the writer is still producing: entries applied before
      the writer exits prove the catch-up genuinely overlapped writes *)
   let overlapped = ref false in
   let rec drive () =
     let progress = Replica.sync_step f in
     match Unix.waitpid [ Unix.WNOHANG ] writer with
     | 0, _ ->
         (match progress with
         | Replica.Applied n when n > 0 -> overlapped := true
         | _ -> ());
         drive ()
     | _ -> ()
   in
   drive ();
   Alcotest.(check bool) "follower applied entries while the writer was live"
     true !overlapped;
   (* quiesce, then record where the journal stands for the failover *)
   Replica.sync_until_caught_up f;
   assert_converged c f;
   promoted_seq := Replica.seq f);
  (* leaving with_primary SIGKILLed the old primary: a crash.  Fail over:
     the follower's directory is a complete store — serve it as the new
     primary. *)
  Testnet.with_primary fdir @@ fun newport ->
  let nc = Client.connect ~retries:10 ~port:newport () in
  Fun.protect ~finally:(fun () -> Client.close nc) @@ fun () ->
  let (_ : Cid.t) = Client.put nc ~key:"promoted" (Wire.Str "accepted") in
  Alcotest.(check int) "journal sequence continues across promotion"
    (!promoted_seq + 1)
    (Client.stats nc).Wire.journal_seq;
  (* a brand-new follower chains off the promoted primary *)
  with_temp_dir @@ fun f2dir ->
  let f2 = Replica.open_follower ~dir:f2dir ~host:"127.0.0.1" ~port:newport () in
  Fun.protect ~finally:(fun () -> Replica.close f2) @@ fun () ->
  Replica.sync_until_caught_up f2;
  assert_converged nc f2;
  let report = Fbcheck.Fsck.check_db (Replica.db f2) in
  Alcotest.(check bool) "chained follower fscks clean" true
    (Fbcheck.Fsck.ok report);
  Client.quit_server nc

(* --- gc (checkpoint + compaction) racing follower catch-up --- *)

(* `forkbase gc --dry-run` (Persist.garbage_stats) must be a pure
   measurement: a follower parked at seq 0 can still pull every mutation
   entry afterwards.  The real sweep compacts the log down to a snapshot,
   after which the same pull position is answered with a single snapshot entry. *)
let test_gc_dry_run_preserves_catch_up () =
  with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  Fun.protect ~finally:(fun () -> Persist.close p) @@ fun () ->
  let db = Persist.db p in
  for i = 1 to 20 do
    let (_ : Cid.t) =
      Db.put db ~key:(Printf.sprintf "k%d" (i mod 3)) (Db.str (string_of_int i))
    in
    ()
  done;
  (* committed versions all stay reachable via the derivation DAG;
     garbage = value trees chunked but never committed to a version *)
  for i = 1 to 5 do
    let payload =
      String.init 4096 (fun j -> Char.chr ((i * 7 + j * 13) land 0xff))
    in
    let (_ : Fbtypes.Value.t) = Db.blob db payload in
    ()
  done;
  let seq = Persist.journal_seq p in
  let gchunks, gbytes = Persist.garbage_stats p in
  Alcotest.(check bool) "orphaned values are garbage" true
    (gchunks > 0 && gbytes > 0);
  let entries = pull p ~from_seq:0 ~max_entries:1000 in
  Alcotest.(check int) "dry run left every mutation entry pullable" seq
    (List.length entries);
  Alcotest.(check bool) "dry run forced no snapshot" true
    (List.for_all
       (fun (_, records) ->
         List.for_all
           (function Journal.Checkpoint _ -> false | _ -> true)
           records)
       entries);
  let chunks, _bytes = Persist.compact p in
  Alcotest.(check bool) "real gc reclaimed the measured garbage" true
    (chunks >= gchunks);
  match pull p ~from_seq:0 ~max_entries:1000 with
  | [ (s, [ Journal.Checkpoint _ ]) ] ->
      Alcotest.(check int) "snapshot stamped with the covered seq" seq s
  | _ -> Alcotest.fail "expected a single snapshot entry after gc"

(* The same race over real sockets: the follower parks mid-journal
   (a batch boundary), the primary gc-compacts the entries it still
   needs away, and the follower must re-pull by snapshot and converge
   fsck-clean. *)
let test_gc_races_follower_catch_up () =
  with_temp_dirs2 @@ fun pdir fdir ->
  with_primary pdir @@ fun port ->
  let c = Client.connect ~retries:10 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* more entries than one pull batch, with heavy overwriting garbage *)
  for i = 1 to Replica.pull_batch + 44 do
    ignore
      (Client.put c
         ~key:(Printf.sprintf "g%d" (i mod 4))
         (Wire.Str (string_of_int i))
        : Cid.t)
  done;
  let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Replica.close f) @@ fun () ->
  (* one pull round only: the follower parks at the batch boundary *)
  (match Replica.sync_step f with
  | Replica.Applied n -> Alcotest.(check bool) "first batch applied" true (n > 0)
  | _ -> Alcotest.fail "expected the first batch to apply");
  let parked = Replica.seq f in
  Alcotest.(check bool) "parked mid-journal" true
    (parked < (Client.stats c).Wire.journal_seq);
  (* gc on the live primary rotates the journal beneath the parked
     follower (reclaim volume is incidental here — committed versions
     stay reachable — the race is about the rotation) *)
  let (_ : int * int) = Client.checkpoint c in
  for i = 1 to 10 do
    ignore
      (Client.put c ~key:(Printf.sprintf "post%d" i) (Wire.Str "after-gc")
        : Cid.t)
  done;
  (* the parked position is gone; the next pulls answer with the
     snapshot and the journal tail, and the follower still converges *)
  Replica.sync_until_caught_up f;
  Alcotest.(check bool) "follower advanced past the rotated entries" true
    (Replica.seq f > parked);
  assert_converged c f;
  let report = Fbcheck.Fsck.check_db (Replica.db f) in
  Alcotest.(check bool) "follower fscks clean after snapshot re-pull" true
    (Fbcheck.Fsck.ok report);
  Client.quit_server c

let () =
  Alcotest.run "replica"
    [
      ( "sequence",
        [
          Alcotest.test_case "assignment, recovery, rotation" `Quick
            test_seq_assignment_and_recovery;
          Alcotest.test_case "pull bounds" `Quick test_pull_entries_bounds;
          Alcotest.test_case "apply_replicated semantics" `Quick
            test_apply_replicated_semantics;
        ] );
      ( "wire",
        [
          Alcotest.test_case "handler replication surface" `Quick
            test_handle_replication;
        ] );
      ( "follower",
        [
          Alcotest.test_case "tails a randomized primary" `Quick
            test_follower_tails_randomized_primary;
          Alcotest.test_case "snapshot bootstrap after compaction" `Quick
            test_snapshot_bootstrap_after_compaction;
          Alcotest.test_case "crash mid-catch-up, recover, re-converge" `Quick
            test_follower_crash_recovers_and_reconverges;
          Alcotest.test_case "backfill faults, then converge" `Quick
            test_backfill_faults_then_converge;
          Alcotest.test_case "promotion" `Quick test_promotion;
          Alcotest.test_case "serving follower: reads + redirect" `Quick
            test_serving_follower_reads_and_redirects;
          Alcotest.test_case "promotion under concurrent writes" `Quick
            test_promotion_under_concurrent_writes;
        ] );
      ( "gc-race",
        [
          Alcotest.test_case "dry run preserves catch-up" `Quick
            test_gc_dry_run_preserves_catch_up;
          Alcotest.test_case "gc races follower catch-up" `Quick
            test_gc_races_follower_catch_up;
        ] );
    ]
