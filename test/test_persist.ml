(* The persistence subsystem (lib/persist): one log of chunks and journal
   entries, recovery, checkpoints and compaction, including a byte-level
   torn-tail property over the log and the conversion of a store written
   in the older two-file layout. *)

module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store
module Log_store = Fbchunk.Log_store
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module Journal = Fbpersist.Journal

(* Branch-table state of a db as a comparable value. *)
let state_of db =
  List.map
    (fun key ->
      ( key,
        Db.list_tagged_branches db ~key,
        List.map Cid.to_hex (Db.list_untagged_branches db ~key) ))
    (Db.list_keys db)

let history db ~key ~branch =
  match Db.track ~branch db ~key ~dist_range:(0, max_int) with
  | Ok h -> List.map (fun (d, uid, _) -> (d, Cid.to_hex uid)) h
  | Error e -> Alcotest.fail (Db.error_to_string e)

(* A small workload touching every journaled mutation type. *)
let workload db =
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.str "v1") in
  let v2 = Db.put db ~key:"page" ~context:"second" (Db.str "v2") in
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.blob db (String.make 4096 'x')) in
  (match Db.fork db ~key:"page" ~from_branch:"master" ~new_branch:"draft" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let (_ : Cid.t) = Db.put ~branch:"draft" db ~key:"page" (Db.str "draft-edit") in
  (match Db.rename_branch db ~key:"page" ~target:"draft" ~new_name:"review" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let (_ : Cid.t) = Db.put db ~key:"counts" (Db.map db [ ("a", "1"); ("b", "2") ]) in
  (* untagged branches via fork-on-conflict puts against the same base *)
  let a =
    match Db.put_at db ~key:"counts" ~base:(Result.get_ok (Db.head db ~key:"counts"))
            (Db.map db [ ("a", "9"); ("b", "2") ])
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Db.error_to_string e)
  in
  let b =
    match Db.put_at db ~key:"counts" ~base:(Result.get_ok (Db.head db ~key:"counts"))
            (Db.map db [ ("a", "1"); ("b", "7") ])
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Db.error_to_string e)
  in
  (match Db.merge_untagged ~resolver:Forkbase.Merge.Aggregate db ~key:"counts" [ a; b ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.fork db ~key:"page" ~from_branch:"master" ~new_branch:"scratch" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.remove_branch db ~key:"page" ~target:"scratch" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  v2

let test_reopen_roundtrip () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let v2 = workload db in
  let before = state_of db in
  let hist_before = history db ~key:"page" ~branch:"master" in
  Persist.close p;
  let p2 = Persist.open_db dir in
  let db2 = Persist.db p2 in
  Alcotest.(check bool) "tables recovered" true (state_of db2 = before);
  Alcotest.(check bool) "history recovered" true
    (history db2 ~key:"page" ~branch:"master" = hist_before);
  (* restore_branch round trip: journaled like everything else *)
  (match Db.restore_branch db2 ~key:"page" ~branch:"rollback" v2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.get ~branch:"rollback" db2 ~key:"page" with
  | Ok v -> Alcotest.(check bool) "rollback content" true (v = Db.str "v2")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Persist.close p2;
  let p3 = Persist.open_db dir in
  (match Db.get ~branch:"rollback" (Persist.db p3) ~key:"page" with
  | Ok v -> Alcotest.(check bool) "rollback survives reopen" true (v = Db.str "v2")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Persist.close p3

let test_checkpoint_and_reopen () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = workload db in
  Persist.checkpoint p;
  Alcotest.(check int) "pulls start at the snapshot" 1
    (List.length (Persist.pull_entries p ~from_seq:0 ~max_entries:100));
  let before = state_of db in
  (* writes after a checkpoint land after the snapshot entry *)
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.str "post-checkpoint") in
  let after = state_of db in
  Alcotest.(check bool) "state advanced" true (before <> after);
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "checkpoint + tail replayed" true
    (state_of (Persist.db p2) = after);
  Persist.close p2

let test_compaction_reclaims_garbage () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  (* every version reachable from a head stays live (the derivation DAG
     is retained), so garbage = value trees chunked into the store but
     never committed to a version — aborted operations *)
  let (_ : Cid.t) = Db.put db ~key:"big" (Db.blob db (String.make 8192 'k')) in
  for i = 1 to 10 do
    let payload = String.init 8192 (fun j -> Char.chr ((i * 7 + j * 13) land 0xff)) in
    let (_ : Fbtypes.Value.t) = Db.blob db payload in
    ()
  done;
  let (_ : Cid.t) = Db.put db ~key:"keep" (Db.str "kept") in
  let garbage_chunks, garbage_bytes = Persist.garbage_stats p in
  Alcotest.(check bool) "orphaned values are garbage" true (garbage_chunks > 0);
  let before = state_of db in
  let log_before = Persist.log_size p in
  let reclaimed_chunks, reclaimed_bytes = Persist.compact p in
  Alcotest.(check int) "reclaims garbage chunks" garbage_chunks reclaimed_chunks;
  Alcotest.(check bool) "reclaims at least garbage bytes" true
    (reclaimed_bytes >= garbage_bytes);
  Alcotest.(check bool) "log shrank" true (Persist.log_size p < log_before);
  (* the live db keeps working against the swapped store *)
  Alcotest.(check bool) "state preserved" true (state_of db = before);
  (match Db.get db ~key:"keep" with
  | Ok v -> Alcotest.(check bool) "content readable" true (v = Db.str "kept")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let head = Result.get_ok (Db.head db ~key:"big") in
  Alcotest.(check bool) "head verifies after compaction" true
    (Db.verify_version db head);
  Alcotest.(check int) "no garbage left" 0 (fst (Persist.garbage_stats p));
  (* and everything survives a reopen of the swapped files *)
  let (_ : Cid.t) = Db.put db ~key:"big" (Db.str "after-compact") in
  let final = state_of db in
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "reopen after compaction" true
    (state_of (Persist.db p2) = final);
  Alcotest.(check bool) "old version still readable" true
    (Db.verify_version (Persist.db p2) head);
  Persist.close p2

let blob_root = function
  | Fbtypes.Value.Blob b -> Fbtypes.Fblob.root b
  | v -> Alcotest.failf "expected a blob, got %s" (Fbtypes.Value.describe v)

let blob_content db ~key =
  match Db.get db ~key with
  | Ok (Fbtypes.Value.Blob b) -> Fbtypes.Fblob.to_string b
  | Ok v -> Alcotest.failf "expected a blob, got %s" (Fbtypes.Value.describe v)
  | Error e -> Alcotest.fail (Db.error_to_string e)

(* Compaction swaps in a fresh log with an empty read cache: a swept chunk
   that was resident in the old log's cache is gone from [get] and [mem],
   and live values read back byte-identical. *)
let test_compaction_drops_cached_garbage () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let page = String.init 20_000 (fun i -> Char.chr ((i * 31) land 0xff)) in
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.blob db page) in
  let (_ : Cid.t) = Db.put db ~key:"keep" (Db.str "kept") in
  let swept = blob_root (Db.blob db "an orphan value, never committed") in
  let store = Db.store db in
  Alcotest.(check bool) "orphan readable before compaction" true
    (store.Store.get swept <> None && store.Store.mem swept);
  let (_ : int * int) = Persist.compact p in
  Alcotest.(check bool) "swept chunk: get = None" true (store.Store.get swept = None);
  Alcotest.(check bool) "swept chunk: mem = false" false (store.Store.mem swept);
  Alcotest.(check string) "live blob byte-identical" page (blob_content db ~key:"page");
  (match Db.get db ~key:"keep" with
  | Ok v -> Alcotest.(check bool) "live prim identical" true (v = Db.str "kept")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Persist.close p

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.fail "marker not in file"
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

(* A live process serves a cached chunk even after its bytes rot on disk
   (the read cache's documented caveat); the rot is pinpointed by fsck
   once the store is reopened. *)
let test_cached_chunk_rot_found_by_fsck () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let page = "rot-target:" ^ String.make 200 'r' in
  let v = Db.blob db page in
  let leaf = blob_root v in
  let (_ : Cid.t) = Db.put db ~key:"page" v in
  Alcotest.(check string) "read back" page (blob_content db ~key:"page");
  Persist.sync p;
  let log = Filename.concat dir "chunks.log" in
  let off = find_sub (In_channel.with_open_bin log In_channel.input_all) "rot-target" in
  let fd = Unix.openfile log [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write_substring fd "R" 0 1);
  Unix.close fd;
  Alcotest.(check string) "live process serves the cached copy" page
    (blob_content db ~key:"page");
  Persist.close p;
  let p2 = Persist.open_db dir in
  let report = Fbcheck.Fsck.check_db (Persist.db p2) in
  Persist.close p2;
  Alcotest.(check bool) "fsck fails" false (Fbcheck.Fsck.ok report);
  Alcotest.(check bool) "fsck names the rotten chunk" true
    (List.exists
       (fun v ->
         match Fbcheck.Fsck.violation_cid v with
         | Some c -> Cid.equal c leaf
         | None -> false)
       report.Fbcheck.Fsck.violations)

let log_path dir = Filename.concat dir "chunks.log"

let one_put_store dir =
  let p = Persist.open_db dir in
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"k" (Db.str "v") in
  Persist.close p

(* Append a well-formed entry moving [k]'s master to a head that no chunk
   backs. *)
let forge_dangling_head dir =
  let log = Log_store.open_ (log_path dir) in
  let (_ : int) =
    Log_store.append_entry log
      (Journal.encode_entry ~seq:3
         [
           Journal.Mutation
             (Db.Set_head
                { key = "k"; branch = "master"; uid = Cid.digest "no such chunk" });
         ])
  in
  Log_store.close log

let test_missing_head_is_corruption () =
  Testnet.with_temp_dir @@ fun dir ->
  one_put_store dir;
  forge_dangling_head dir;
  match Persist.open_db dir with
  | exception Persist.Corrupt_db (Persist.Missing_head { key = "k"; _ }) -> ()
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | p ->
      Persist.close p;
      Alcotest.fail "dangling head accepted"

let test_garbled_journal_is_corruption () =
  Testnet.with_temp_dir @@ fun dir ->
  one_put_store dir;
  (* a complete, well-framed entry record whose payload is garbage is
     corruption, not a torn tail *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (log_path dir) in
  output_string oc "\x04Jzzz";
  close_out oc;
  match Persist.open_db dir with
  | exception Persist.Corrupt_db (Persist.Bad_log _) -> ()
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | p ->
      Persist.close p;
      Alcotest.fail "garbled journal accepted"

(* --- torn-tail property: every byte offset of the log --- *)

let write_prefix ~src ~dst cut =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc (String.sub s 0 cut))

(* Chunk records: appending [n] chunks then truncating anywhere inside
   the final record recovers exactly the first [n - 1] chunks. *)
let test_log_store_torn_tail_every_offset () =
  Testnet.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "chunks.log" in
  let chunk i =
    Fbchunk.Chunk.v Fbchunk.Chunk.Blob
      (Printf.sprintf "payload-%d-%s" i (String.make (50 + i) 'p'))
  in
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let cids = List.init 8 (fun i -> s.Store.put (chunk i)) in
  Log_store.close log;
  let full = (Unix.stat path).Unix.st_size in
  let record_start, _ = List.nth (Log_store.records path) 7 in
  let committed = List.filteri (fun i _ -> i < 7) cids in
  let torn = List.nth cids 7 in
  let scratch = Filename.concat dir "scratch.log" in
  for cut = record_start to full - 1 do
    write_prefix ~src:path ~dst:scratch cut;
    let log2 = Log_store.open_ scratch in
    let s2 = Log_store.store log2 in
    List.iteri
      (fun i cid ->
        match s2.Store.get cid with
        | Some c ->
            Alcotest.(check bool) "committed chunk content" true (c = chunk i)
        | None -> Alcotest.fail (Printf.sprintf "chunk %d lost at cut %d" i cut))
      committed;
    Alcotest.(check int)
      (Printf.sprintf "exactly the committed prefix at cut %d" cut)
      7 (s2.Store.stats ()).Store.chunks;
    Alcotest.(check bool) "torn chunk dropped" true (s2.Store.get torn = None);
    Log_store.close log2
  done

(* Journal entries: truncating anywhere inside the records of the final
   operation (its chunks, then its entry) makes reopen recover exactly
   the state before that operation. *)
let test_journal_torn_tail_every_offset () =
  Testnet.with_temp_dirs2 @@ fun dir scratch ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = workload db in
  let committed_state = state_of db in
  let size_before_last = Persist.log_size p in
  (* the final operation: a put that both records an object and moves a
     branch head *)
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.str "final-op") in
  let final_state = state_of db in
  Persist.close p;
  let full = (Unix.stat (log_path dir)).Unix.st_size in
  Alcotest.(check bool) "final entry appended" true (full > size_before_last);
  for cut = size_before_last to full do
    write_prefix ~src:(log_path dir) ~dst:(log_path scratch) cut;
    let p2 = Persist.open_db scratch in
    let got = state_of (Persist.db p2) in
    let expect = if cut = full then final_state else committed_state in
    Alcotest.(check bool)
      (Printf.sprintf "committed prefix at cut %d" cut)
      true (got = expect);
    Persist.close p2
  done

(* Operations whose records interleave chunks with mutation and snapshot
   entries; each returns once its entry (if any) is the last record. *)
let interleaved_ops p =
  let db = Persist.db p in
  let ok = function Ok _ -> () | Error e -> Alcotest.fail (Db.error_to_string e) in
  [
    (fun () -> ignore (Db.put db ~key:"page" (Db.str "v1") : Cid.t));
    (fun () -> ignore (Db.put db ~key:"page" ~context:"2" (Db.str "v2") : Cid.t));
    (fun () -> ok (Db.fork db ~key:"page" ~from_branch:"master" ~new_branch:"draft"));
    (fun () -> Persist.checkpoint p);
    (fun () -> ignore (Db.put db ~key:"counts" (Db.map db [ ("a", "1") ]) : Cid.t));
    (fun () -> ok (Db.rename_branch db ~key:"page" ~target:"draft" ~new_name:"review"));
    (fun () ->
      let base = Result.get_ok (Db.head db ~key:"page") in
      ok (Db.put_at db ~key:"page" ~base (Db.str "untagged")));
    (fun () -> Persist.checkpoint p);
    (fun () -> ignore (Db.put ~branch:"review" db ~key:"page" (Db.str "v3") : Cid.t));
    (fun () -> ok (Db.remove_branch db ~key:"page" ~target:"review"));
  ]

(* Cutting the log at any byte offset reopens to exactly the entries
   complete before the cut: their sequence, their branch tables, heads
   that resolve, and a clean fsck; and the log then continues cleanly
   from the cut. *)
let test_one_log_torn_tail_every_offset () =
  Testnet.with_temp_dirs2 @@ fun dir scratch ->
  let p = Persist.open_db dir in
  let empty = (0, 0, state_of (Persist.db p)) in
  let boundaries =
    empty
    :: List.map
         (fun op ->
           op ();
           (Persist.log_size p, Persist.journal_seq p, state_of (Persist.db p)))
         (interleaved_ops p)
  in
  Persist.close p;
  let log = In_channel.with_open_bin (log_path dir) In_channel.input_all in
  for cut = 0 to String.length log do
    Out_channel.with_open_bin (log_path scratch) (fun oc ->
        output_string oc (String.sub log 0 cut));
    let _, seq, state =
      List.fold_left
        (fun acc ((end_, _, _) as b) -> if end_ <= cut then b else acc)
        empty boundaries
    in
    let p = Persist.open_db scratch in
    let db = Persist.db p in
    Alcotest.(check int) (Printf.sprintf "seq at cut %d" cut) seq
      (Persist.journal_seq p);
    Alcotest.(check bool) (Printf.sprintf "tables at cut %d" cut) true
      (state_of db = state);
    Alcotest.(check bool) (Printf.sprintf "fsck at cut %d" cut) true
      (Fbcheck.Fsck.ok (Fbcheck.Fsck.check_db db));
    (* the log continues from the cut: a new operation survives reopen *)
    let (_ : Cid.t) = Db.put db ~key:"after" (Db.str (string_of_int cut)) in
    let continued = state_of db in
    Persist.close p;
    let p = Persist.open_db scratch in
    Alcotest.(check bool) (Printf.sprintf "append after cut %d" cut) true
      (state_of (Persist.db p) = continued);
    Persist.close p
  done

(* --- stores written in the two-file layout --- *)

let framed bodies =
  let buf = Buffer.create 4096 in
  List.iter
    (fun body ->
      Fbutil.Codec.varint buf (String.length body);
      Buffer.add_string buf body)
    bodies;
  Buffer.contents buf

(* Rewrite [dir]'s log as the older two-file layout: chunk records alone
   in chunks.log, and each entry payload framed by its varint length in
   branches.journal. *)
let to_two_file_layout dir =
  let entries, chunks =
    List.partition
      (fun (_, body) -> body.[0] = Log_store.entry_tag)
      (Log_store.records (log_path dir))
  in
  let write name s =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc s)
  in
  write "chunks.log" (framed (List.map snd chunks));
  write "branches.journal"
    (framed
       (List.map (fun (_, b) -> String.sub b 1 (String.length b - 1)) entries))

let test_two_file_store_opens () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let (_ : Cid.t) = workload (Persist.db p) in
  Persist.checkpoint p;
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"page" (Db.str "after") in
  let state = state_of (Persist.db p) and seq = Persist.journal_seq p in
  Persist.close p;
  to_two_file_layout dir;
  let journal = Filename.concat dir "branches.journal" in
  let saved = In_channel.with_open_bin journal In_channel.input_all in
  let reopen what =
    let p = Persist.open_db dir in
    Alcotest.(check bool) (what ^ ": heads") true (state_of (Persist.db p) = state);
    Alcotest.(check int) (what ^ ": journal_seq") seq (Persist.journal_seq p);
    let entry_bytes = Persist.journal_bytes p in
    Persist.close p;
    Alcotest.(check bool) (what ^ ": branches.journal is gone") false
      (Sys.file_exists journal);
    Alcotest.(check bool) (what ^ ": fsck clean") true
      (Fbcheck.Fsck.ok (Fbcheck.Fsck.check_dir dir));
    entry_bytes
  in
  let converted = reopen "converted" in
  (* a crash after the entries reached the log but before the journal
     file was deleted: the next open skips every entry it already holds *)
  Out_channel.with_open_bin journal (fun oc -> output_string oc saved);
  Alcotest.(check int) "no entry appended twice" converted
    (reopen "re-converted")

(* --- regression: a failed open must release the log's descriptors --- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_failed_open_leaks_no_fds () =
  Testnet.with_temp_dir @@ fun dir ->
  one_put_store dir;
  (* forge a dangling head so every reopen fails inside validate_heads,
     after the log is already open *)
  forge_dangling_head dir;
  let baseline = count_fds () in
  for _ = 1 to 100 do
    match Persist.open_db dir with
    | exception Persist.Corrupt_db _ -> ()
    | p ->
        Persist.close p;
        Alcotest.fail "corrupt db accepted"
  done;
  Alcotest.(check int) "fd count stable across 100 failed opens" baseline
    (count_fds ())

(* --- regression: rename durability requires fsyncing the directory --- *)

let test_rename_fsyncs_directory () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = workload db in
  let before = Persist.dir_fsync_count () in
  Persist.checkpoint p;
  let after_ckpt = Persist.dir_fsync_count () in
  Alcotest.(check int) "checkpoint renames nothing" before after_ckpt;
  let (_ : int * int) = Persist.compact p in
  Alcotest.(check bool) "compact fsyncs the directory" true
    (Persist.dir_fsync_count () > after_ckpt);
  (* crash-release (no close-time fsync): the renamed log must already be
     durable on its own *)
  let state = state_of db in
  Persist.crash p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "state survives crash right after checkpoint+compact"
    true
    (state_of (Persist.db p2) = state);
  Persist.close p2

(* --- regression: hostile varint lengths are typed corruption --- *)

(* 8 continuation bytes then 0x7f lands bit 62 — negative on 63-bit
   ints; 10 continuation bytes overruns the 56-bit shift bound.  Both
   used to reach Bytes.create and die with Invalid_argument (or worse,
   attempt a giant allocation); they must surface as the same typed
   corruption a garbled body does. *)
let poisons =
  [
    ("negative length", String.make 8 '\xff' ^ "\x7f");
    ("overlong varint", String.make 10 '\xff');
  ]

(* Each poison appended to [file] makes the store refuse to open with
   [Bad_log]. *)
let check_poisoned dir file =
  let orig = In_channel.with_open_bin file In_channel.input_all in
  List.iter
    (fun (label, poison) ->
      Out_channel.with_open_bin file (fun oc -> output_string oc (orig ^ poison));
      match Persist.open_db dir with
      | exception Persist.Corrupt_db (Persist.Bad_log _) -> ()
      | exception e ->
          Alcotest.failf "%s: unexpected exception %s" label
            (Printexc.to_string e)
      | p ->
          Persist.close p;
          Alcotest.failf "%s: poisoned %s accepted" label file)
    poisons

let test_log_store_bad_varint_is_corruption () =
  Testnet.with_temp_dir @@ fun dir ->
  one_put_store dir;
  check_poisoned dir (log_path dir)

(* The same headers in a two-file store's journal, read once by the
   conversion on open. *)
let test_journal_bad_varint_is_corruption () =
  Testnet.with_temp_dir @@ fun dir ->
  one_put_store dir;
  to_two_file_layout dir;
  check_poisoned dir (Filename.concat dir "branches.journal")

(* --- deferred sync (the group-commit hook): no per-op fsync, explicit
   sync drains, clean close still recovers --- *)

let test_deferred_sync () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  Persist.set_deferred_sync p true;
  let db = Persist.db p in
  for i = 1 to 5 do
    let (_ : Cid.t) = Db.put db ~key:"k" (Db.str (string_of_int i)) in
    ()
  done;
  Alcotest.(check bool) "per-op auto-fsync suppressed" true
    (Persist.unsynced_ops p >= 5);
  Persist.sync p;
  Alcotest.(check int) "explicit sync drains the batch" 0
    (Persist.unsynced_ops p);
  let final = state_of db in
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "deferred-sync db recovers after clean close" true
    (state_of (Persist.db p2) = final);
  Persist.close p2

(* Without deferred sync, every journaled operation — local or
   replicated — is fsynced before it returns. *)
let test_per_op_fsync_by_default () =
  Testnet.with_temp_dir @@ fun dir ->
  let p = Persist.open_db (Filename.concat dir "a") in
  let db = Persist.db p in
  let synced what =
    Alcotest.(check int) (what ^ " leaves nothing unsynced") 0
      (Persist.unsynced_ops p)
  in
  let ok = function Ok v -> v | Error e -> Alcotest.fail (Db.error_to_string e) in
  let (_ : Cid.t) = Db.put db ~key:"k" (Db.str "base") in
  synced "put";
  ok (Db.fork db ~key:"k" ~from_branch:"master" ~new_branch:"draft");
  synced "fork";
  let (_ : Cid.t) = Db.put ~branch:"draft" db ~key:"k" (Db.str "edit") in
  synced "put on a branch";
  let (_ : Cid.t) =
    ok (Db.merge db ~key:"k" ~target:"master" ~ref_:(`Branch "draft"))
  in
  synced "merge";
  let q = Persist.open_db (Filename.concat dir "b") in
  List.iter
    (fun body ->
      let seq, records = Fbpersist.Journal.decode_entry body in
      Persist.apply_replicated q ~seq records;
      Alcotest.(check int) "apply_replicated leaves nothing unsynced" 0
        (Persist.unsynced_ops q))
    (Persist.pull_entries p ~from_seq:0 ~max_entries:max_int);
  Persist.close q;
  Persist.close p

let () =
  Random.self_init ();
  Alcotest.run "persist"
    [
      ( "recovery",
        [
          Alcotest.test_case "reopen round trip" `Quick test_reopen_roundtrip;
          Alcotest.test_case "checkpoint + reopen" `Quick test_checkpoint_and_reopen;
          Alcotest.test_case "missing head" `Quick test_missing_head_is_corruption;
          Alcotest.test_case "garbled journal" `Quick test_garbled_journal_is_corruption;
          Alcotest.test_case "failed open leaks no fds" `Quick
            test_failed_open_leaks_no_fds;
          Alcotest.test_case "bad chunk-log varint" `Quick
            test_log_store_bad_varint_is_corruption;
          Alcotest.test_case "bad journal varint" `Quick
            test_journal_bad_varint_is_corruption;
          Alcotest.test_case "two-file store opens" `Quick
            test_two_file_store_opens;
          Alcotest.test_case "cached chunk rot found by fsck" `Quick
            test_cached_chunk_rot_found_by_fsck;
        ] );
      ( "durability",
        [
          Alcotest.test_case "renames fsync the directory" `Quick
            test_rename_fsyncs_directory;
          Alcotest.test_case "deferred sync" `Quick test_deferred_sync;
          Alcotest.test_case "per-op fsync by default" `Quick
            test_per_op_fsync_by_default;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "reclaims garbage" `Quick
            test_compaction_reclaims_garbage;
          Alcotest.test_case "drops cached garbage" `Quick
            test_compaction_drops_cached_garbage;
        ] );
      ( "torn-tail",
        [
          Alcotest.test_case "chunk log, every offset" `Quick
            test_log_store_torn_tail_every_offset;
          Alcotest.test_case "branch journal, every offset" `Quick
            test_journal_torn_tail_every_offset;
          Alcotest.test_case "one log, every offset" `Quick
            test_one_log_torn_tail_every_offset;
        ] );
    ]
