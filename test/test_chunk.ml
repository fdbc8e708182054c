(* Chunk layer: cids, encodings, dedup accounting, the verifying/caching/
   counting wrappers, and log-store persistence including torn-write
   recovery. *)

module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Log_store = Fbchunk.Log_store

let blob s = Chunk.v Chunk.Blob s

(* --- cid --- *)

let test_cid_basics () =
  let c = Cid.digest "hello" in
  Alcotest.(check int) "raw size" 32 (String.length (Cid.to_raw c));
  Alcotest.(check bool) "roundtrip hex" true (Cid.equal c (Cid.of_hex (Cid.to_hex c)));
  Alcotest.(check int) "short hex" 8 (String.length (Cid.short_hex c));
  Alcotest.(check bool) "deterministic" true (Cid.equal c (Cid.digest "hello"));
  Alcotest.(check bool) "distinct" false (Cid.equal c (Cid.digest "world"));
  (match Cid.of_raw "short" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short raw accepted");
  Alcotest.(check bool) "low_bits in range" true (Cid.low_bits c >= 0)

(* Regression for the explicit cid identity operations (the cid-discipline
   lint rule bans the polymorphic ones): distinct digests never collide
   under [equal]/[compare], [hash] agrees with [equal], and a [Cid.Tbl]
   keyed by the explicit hash finds exactly what was inserted. *)
let test_cid_identity_operations () =
  let n = 512 in
  let cids = List.init n (fun i -> Cid.digest (Printf.sprintf "cid-%d" i)) in
  let tbl = Cid.Tbl.create 64 in
  List.iteri (fun i c -> Cid.Tbl.replace tbl c i) cids;
  Alcotest.(check int) "table holds all distinct cids" n (Cid.Tbl.length tbl);
  List.iteri
    (fun i c ->
      (* re-derive so equality cannot be physical *)
      let c' = Cid.digest (Printf.sprintf "cid-%d" i) in
      Alcotest.(check bool) "equal on same digest" true (Cid.equal c c');
      Alcotest.(check int) "compare on same digest" 0 (Cid.compare c c');
      Alcotest.(check int) "hash consistent with equal" (Cid.hash c)
        (Cid.hash c');
      Alcotest.(check int) "tbl lookup via explicit hash" i
        (Cid.Tbl.find tbl c'))
    cids;
  let distinct_pairs_agree =
    List.for_all
      (fun c ->
        let other = Cid.digest (Cid.to_hex c) in
        (not (Cid.equal c other)) && Cid.compare c other <> 0)
      cids
  in
  Alcotest.(check bool) "distinct digests never equal" true
    distinct_pairs_agree;
  (* the explicit hash must actually discriminate: 512 digests into 2^30
     buckets colliding down to a handful would mean a broken slice *)
  let buckets = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace buckets (Cid.hash c) ()) cids;
  Alcotest.(check bool) "hash spreads distinct digests" true
    (Hashtbl.length buckets > n - 8)

let test_chunk_encoding () =
  List.iter
    (fun tag ->
      let c = Chunk.v tag "some payload" in
      let c' = Chunk.decode (Chunk.encode c) in
      Alcotest.(check bool) (Chunk.tag_to_string tag ^ " roundtrip") true (c = c');
      Alcotest.(check bool) "cid covers tag+payload" true
        (Cid.equal (Chunk.cid c) (Cid.digest (Chunk.encode c))))
    [ Chunk.Meta; Chunk.UIndex; Chunk.SIndex; Chunk.Blob; Chunk.List; Chunk.Set; Chunk.Map ];
  (match Chunk.decode "" with
  | exception Fbutil.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty chunk accepted");
  match Chunk.decode "Zoops" with
  | exception Fbutil.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad tag accepted"

let test_tag_distinguishes_cids () =
  (* Same payload under different tags must have different cids — types
     are part of the authenticated content. *)
  Alcotest.(check bool) "tags differ" false
    (Cid.equal (Chunk.cid (Chunk.v Chunk.Blob "x")) (Chunk.cid (Chunk.v Chunk.List "x")))

(* --- mem store + dedup --- *)

let test_dedup_accounting () =
  let s = Store.mem_store () in
  let c = blob (String.make 100 'a') in
  let cid1 = s.Store.put c in
  let cid2 = s.Store.put c in
  Alcotest.(check bool) "same cid" true (Cid.equal cid1 cid2);
  let st = s.Store.stats () in
  Alcotest.(check int) "puts" 2 st.Store.puts;
  Alcotest.(check int) "dedup hits" 1 st.Store.dedup_hits;
  Alcotest.(check int) "stored once" 1 st.Store.chunks;
  Alcotest.(check int) "bytes once" (Chunk.byte_size c) st.Store.bytes;
  Alcotest.(check bool) "mem" true (s.Store.mem cid1);
  Alcotest.(check bool) "get" true (s.Store.get cid1 = Some c);
  let st = s.Store.stats () in
  Alcotest.(check int) "gets counted" 1 st.Store.gets;
  ignore (s.Store.get (Cid.digest "absent"));
  Alcotest.(check int) "miss counted" 1 (s.Store.stats ()).Store.misses

let test_verifying_wrapper () =
  let inner = Store.mem_store () in
  let cid = inner.Store.put (blob "clean") in
  (* a store that lies about chunk contents *)
  let liar = { inner with Store.get = (fun _ -> Some (blob "tampered")) } in
  let v = Store.verifying liar in
  (match v.Store.get cid with
  | exception Store.Corrupt_chunk _ -> ()
  | _ -> Alcotest.fail "tampered chunk accepted");
  let honest = Store.verifying inner in
  Alcotest.(check bool) "honest passes" true (honest.Store.get cid = Some (blob "clean"))

let test_counting_wrapper () =
  let read_bytes = ref 0 and written_bytes = ref 0 in
  let s = Store.counting (Store.mem_store ()) ~read_bytes ~written_bytes in
  let c = blob (String.make 500 'z') in
  let cid = s.Store.put c in
  ignore (s.Store.get cid);
  ignore (s.Store.get cid);
  Alcotest.(check int) "written" (Chunk.byte_size c) !written_bytes;
  Alcotest.(check int) "read twice" (2 * Chunk.byte_size c) !read_bytes;
  (* a deduplicated put stores nothing, so it must not count as written *)
  let (_ : Cid.t) = s.Store.put c in
  Alcotest.(check int) "dedup put writes nothing" (Chunk.byte_size c)
    !written_bytes;
  let c2 = blob "fresh" in
  let (_ : Cid.t) = s.Store.put c2 in
  Alcotest.(check int) "new chunk counted"
    (Chunk.byte_size c + Chunk.byte_size c2)
    !written_bytes

let test_zero_capacity_cache () =
  (* capacity 0 used to raise Queue.Empty on the first eviction; it must
     behave exactly like the inner store *)
  let s = Store.with_cache ~capacity:0 (Store.mem_store ()) in
  let c1 = blob "one" and c2 = blob "two" in
  let i1 = s.Store.put c1 in
  let i2 = s.Store.put c2 in
  Alcotest.(check bool) "get 1" true (s.Store.get i1 = Some c1);
  Alcotest.(check bool) "get 2" true (s.Store.get i2 = Some c2)

let test_cache_serves_hits_and_evicts () =
  let gets_seen = ref 0 in
  let inner = Store.mem_store () in
  let spying = { inner with Store.get = (fun cid -> incr gets_seen; inner.Store.get cid) } in
  let cached = Store.with_cache ~capacity:2 spying in
  let c1 = blob "one" and c2 = blob "two" and c3 = blob "three" in
  (* populate through inner so the cache starts cold *)
  let i1 = inner.Store.put c1 and i2 = inner.Store.put c2 and i3 = inner.Store.put c3 in
  ignore (cached.Store.get i1);
  ignore (cached.Store.get i1);
  Alcotest.(check int) "second read cached" 1 !gets_seen;
  ignore (cached.Store.get i2);
  ignore (cached.Store.get i3);
  (* capacity 2 + FIFO: c1 evicted *)
  ignore (cached.Store.get i1);
  Alcotest.(check int) "eviction forces re-fetch" 4 !gets_seen

(* --- log store --- *)

let with_temp f =
  let path = Filename.temp_file "fbchunk" ".log" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_log_store_roundtrip () =
  with_temp @@ fun path ->
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let cids = List.init 100 (fun i -> s.Store.put (blob (Printf.sprintf "chunk-%d-%s" i (String.make i 'q')))) in
  Log_store.close log;
  let log2 = Log_store.open_ path in
  let s2 = Log_store.store log2 in
  List.iteri
    (fun i cid ->
      match s2.Store.get cid with
      | Some c -> Alcotest.(check bool) "content" true (c = blob (Printf.sprintf "chunk-%d-%s" i (String.make i 'q')))
      | None -> Alcotest.fail "chunk lost across reopen")
    cids;
  Alcotest.(check int) "chunk count recovered" 100 (s2.Store.stats ()).Store.chunks;
  Log_store.close log2

let test_log_store_dedup_across_sessions () =
  with_temp @@ fun path ->
  let log = Log_store.open_ path in
  let (_ : Cid.t) = (Log_store.store log).Store.put (blob "stable") in
  Log_store.close log;
  let size1 = (Unix.stat path).Unix.st_size in
  let log2 = Log_store.open_ path in
  let (_ : Cid.t) = (Log_store.store log2).Store.put (blob "stable") in
  Log_store.flush log2;
  Log_store.close log2;
  let size2 = (Unix.stat path).Unix.st_size in
  Alcotest.(check int) "no growth on duplicate put" size1 size2

let test_log_store_torn_tail () =
  with_temp @@ fun path ->
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let keep = s.Store.put (blob "keep-me") in
  Log_store.close log;
  (* simulate a crash mid-append: write a garbage half-record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40only-half-a-rec";
  close_out oc;
  let log2 = Log_store.open_ path in
  let s2 = Log_store.store log2 in
  Alcotest.(check bool) "good chunk survives" true (s2.Store.get keep = Some (blob "keep-me"));
  Alcotest.(check int) "torn record dropped" 1 (s2.Store.stats ()).Store.chunks;
  (* new appends after recovery are readable *)
  let fresh = s2.Store.put (blob "after-recovery") in
  Alcotest.(check bool) "append after recovery" true
    (s2.Store.get fresh = Some (blob "after-recovery"));
  Log_store.close log2

let test_log_store_bitrot_is_typed () =
  with_temp @@ fun path ->
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let (_ : Cid.t) = s.Store.put (blob "first") in
  let (_ : Cid.t) = s.Store.put (blob "second") in
  Log_store.close log;
  (* a torn tail mid-length-header is recovered, not an error *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x80" (* varint continuation byte, then EOF *);
  close_out oc;
  (match Log_store.open_ path with
  | exception Log_store.Corrupt_log _ ->
      Alcotest.fail "torn mid-header tail should recover"
  | log ->
      Alcotest.(check int) "both records survive" 2
        ((Log_store.store log).Store.stats ()).Store.chunks;
      Log_store.close log);
  (* flip the tag byte of the first record into an invalid one: a
     length-complete record whose body no longer decodes.  That is bit
     rot, not a torn tail — it must raise the typed error naming the
     record's offset, not an untyped exception (or silent data loss). *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 1 Unix.SEEK_SET) (* past the 1-byte varint length *);
  ignore (Unix.write_substring fd "Z" 0 1);
  Unix.close fd;
  match Log_store.open_ path with
  | exception Log_store.Corrupt_log { file; off; reason = _ } ->
      Alcotest.(check string) "names the file" path file;
      Alcotest.(check int) "names the record offset" 0 off
  | log ->
      Log_store.close log;
      Alcotest.fail "bit rot went undetected"

(* The read cache never holds more than its budget, and whatever it serves
   — hit or miss — is byte-identical to what a fresh open reads from the
   file.  1 MiB chunks, 40 of them: more than the budget, so early chunks
   are evicted by later appends and come back through read misses. *)
let test_log_store_cache_budget () =
  with_temp @@ fun path ->
  let chunk_of i = blob (Printf.sprintf "%03d" i ^ String.make (1 lsl 20) (Char.chr i)) in
  let n = 40 in
  Alcotest.(check bool) "workload exceeds the budget" true
    (n * (1 lsl 20) > Log_store.cache_budget);
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let within_budget () =
    if Log_store.cached_bytes log > Log_store.cache_budget then
      Alcotest.failf "cached %d bytes, budget %d" (Log_store.cached_bytes log)
        Log_store.cache_budget
  in
  let cids =
    List.init n (fun i ->
        let cid = s.Store.put (chunk_of i) in
        within_budget ();
        cid)
  in
  Log_store.flush log;
  let fresh = Log_store.open_ path in
  let from_file = Log_store.store fresh in
  let read_all order =
    List.iter
      (fun (i, cid) ->
        let live = s.Store.get cid in
        within_budget ();
        Alcotest.(check bool) (Printf.sprintf "chunk %d as written" i) true
          (live = Some (chunk_of i));
        Alcotest.(check bool) (Printf.sprintf "chunk %d as on disk" i) true
          (live = from_file.Store.get cid))
      order
  in
  let indexed = List.mapi (fun i cid -> (i, cid)) cids in
  read_all indexed;
  read_all (List.rev indexed);
  Alcotest.(check bool) "cache is in use" true (Log_store.cached_bytes log > 0);
  Log_store.close fresh;
  Log_store.close log

(* [gets] counts every lookup, hit or miss; [misses] counts only cids the
   log does not hold — a read served from the file is not a miss. *)
let test_log_store_cache_counters () =
  with_temp @@ fun path ->
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let a = s.Store.put (blob "counted") in
  let absent = Chunk.cid (blob "never stored") in
  let counts s = ((s.Store.stats ()).Store.gets, (s.Store.stats ()).Store.misses) in
  ignore (s.Store.get a);
  Alcotest.(check (pair int int)) "cached hit" (1, 0) (counts s);
  ignore (s.Store.get absent);
  Alcotest.(check (pair int int)) "absent cid" (2, 1) (counts s);
  Log_store.close log;
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  Alcotest.(check int) "reopened log starts cold" 0 (Log_store.cached_bytes log);
  Alcotest.(check bool) "read from the file" true (s.Store.get a = Some (blob "counted"));
  Alcotest.(check (pair int int)) "file read is not a miss" (1, 0) (counts s);
  Alcotest.(check bool) "now resident" true (Log_store.cached_bytes log > 0);
  Alcotest.(check bool) "hit" true (s.Store.get a = Some (blob "counted"));
  ignore (s.Store.get absent);
  Alcotest.(check (pair int int)) "hit and absent" (3, 1) (counts s);
  Alcotest.(check bool) "mem" true (s.Store.mem a && not (s.Store.mem absent));
  Log_store.close log

(* The cache's caveat: a live log serves its resident copy even after the
   file rots underneath it.  The rot is still refused by the next open. *)
let test_log_store_cached_rot_refused_at_reopen () =
  with_temp @@ fun path ->
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let cid = s.Store.put (blob "first") in
  Log_store.flush log;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 1 Unix.SEEK_SET) (* the tag byte of record 0 *);
  ignore (Unix.write_substring fd "Z" 0 1);
  Unix.close fd;
  Alcotest.(check bool) "live log serves its cached copy" true
    (s.Store.get cid = Some (blob "first"));
  Log_store.close log;
  match Log_store.open_ path with
  | exception Log_store.Corrupt_log { off; _ } ->
      Alcotest.(check int) "names the record offset" 0 off
  | log ->
      Log_store.close log;
      Alcotest.fail "rot under a cached chunk went undetected at reopen"

let prop_store_roundtrip =
  QCheck.Test.make ~name:"mem store get . put = id" ~count:200
    QCheck.(pair (oneofl [ Chunk.Blob; Chunk.List; Chunk.Map ]) string)
    (fun (tag, payload) ->
      let s = Store.mem_store () in
      let c = Chunk.v tag payload in
      s.Store.get (s.Store.put c) = Some c)

(* [Chunk.cid] hashes the tag byte and the payload as they are; it must
   equal the digest of the encoded chunk, for payloads that end anywhere
   in a SHA-256 block. *)
let all_tags =
  [ Chunk.Meta; Chunk.UIndex; Chunk.SIndex; Chunk.Blob; Chunk.List; Chunk.Set; Chunk.Map ]

let prop_cid_is_digest_of_encoding =
  QCheck.Test.make ~name:"cid = digest of the encoding" ~count:300
    QCheck.(pair (oneofl all_tags) (string_of_size Gen.(int_bound 300)))
    (fun (tag, payload) ->
      let c = Chunk.v tag payload in
      Cid.equal (Chunk.cid c) (Cid.digest (Chunk.encode c)))

(* A chunk put writes its record without encoding it first: the file must
   be byte for byte the records framed from [Chunk.encode], duplicates
   skipped, and must reopen to the same chunks. *)
let test_log_store_records_match_encoding () =
  with_temp @@ fun path ->
  let chunks =
    List.concat_map
      (fun tag -> List.map (fun n -> Chunk.v tag (String.init n (fun i -> Char.chr (i * 7 land 0xff))))
          [ 0; 1; 127; 128; 5000 ])
      all_tags
  in
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let cids = List.map s.Store.put (chunks @ chunks) in
  Log_store.close log;
  let expected = Buffer.create 65536 in
  List.iter
    (fun c ->
      let e = Chunk.encode c in
      Fbutil.Codec.varint expected (String.length e);
      Buffer.add_string expected e)
    chunks;
  Alcotest.(check string) "file = records framed from Chunk.encode"
    (String.escaped (Buffer.contents expected))
    (String.escaped (In_channel.with_open_bin path In_channel.input_all));
  let log2 = Log_store.open_ path in
  let s2 = Log_store.store log2 in
  List.iter2
    (fun c cid -> Alcotest.(check bool) "reopened chunk" true (s2.Store.get cid = Some c))
    (chunks @ chunks) cids;
  Log_store.close log2

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "chunk"
    [
      ( "model",
        [
          Alcotest.test_case "cid basics" `Quick test_cid_basics;
          Alcotest.test_case "cid identity operations" `Quick
            test_cid_identity_operations;
          Alcotest.test_case "chunk encoding" `Quick test_chunk_encoding;
          Alcotest.test_case "tag in cid" `Quick test_tag_distinguishes_cids;
          q prop_store_roundtrip;
          q prop_cid_is_digest_of_encoding;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "dedup accounting" `Quick test_dedup_accounting;
          Alcotest.test_case "verifying" `Quick test_verifying_wrapper;
          Alcotest.test_case "counting" `Quick test_counting_wrapper;
          Alcotest.test_case "cache" `Quick test_cache_serves_hits_and_evicts;
          Alcotest.test_case "zero-capacity cache" `Quick test_zero_capacity_cache;
        ] );
      ( "log-store",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_store_roundtrip;
          Alcotest.test_case "records match the encoding" `Quick
            test_log_store_records_match_encoding;
          Alcotest.test_case "dedup across sessions" `Quick
            test_log_store_dedup_across_sessions;
          Alcotest.test_case "torn tail recovery" `Quick test_log_store_torn_tail;
          Alcotest.test_case "bit rot is a typed error" `Quick
            test_log_store_bitrot_is_typed;
          Alcotest.test_case "read cache stays within budget" `Quick
            test_log_store_cache_budget;
          Alcotest.test_case "read cache keeps get/miss counters" `Quick
            test_log_store_cache_counters;
          Alcotest.test_case "cached chunk rot refused at reopen" `Quick
            test_log_store_cached_rot_refused_at_reopen;
        ] );
    ]
