(* The network service: wire and journal codecs (property-tested,
   byte-pinned, total on hostile input), a real TCP round
   trip against a forked server process, and fault isolation of the
   multiplexed event loop — concurrent clients, a client SIGKILLed
   mid-request, oversized/truncated frames, idle timeouts. *)

module Wire = Fbremote.Wire
module Server = Fbremote.Server
module Client = Fbremote.Client
module Cid = Fbchunk.Cid
module Journal = Fbpersist.Journal

(* --- codecs --- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Wire.Str s) string;
        map (fun s -> Wire.Blob s) string;
        map (fun l -> Wire.List l) (small_list string);
        map (fun l -> Wire.Map l) (small_list (pair string string));
        map (fun l -> Wire.Set l) (small_list string);
      ])

let gen_cid = QCheck.Gen.map (fun s -> Cid.digest s) QCheck.Gen.string

let gen_shard_map =
  QCheck.Gen.(
    map
      (fun (version, shards, pending) ->
        { Wire.version; shards = Array.of_list shards; pending })
      (triple small_nat (small_list (pair string small_nat)) (small_list string)))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun (key, branch) value ->
            Wire.Put { key; branch; context = "ctx"; value })
          (pair string string) gen_value;
        map (fun (key, branch) -> Wire.Get { key; branch }) (pair string string);
        map (fun uid -> Wire.Get_version { uid }) gen_cid;
        map
          (fun (key, a, b) -> Wire.Fork { key; from_branch = a; new_branch = b })
          (triple string string string);
        map
          (fun (key, t, r) -> Wire.Merge { key; target = t; ref_branch = r; resolver = "left" })
          (triple string string string);
        map
          (fun (key, lo, hi) -> Wire.Track { key; branch = "master"; lo; hi })
          (triple string small_nat small_nat);
        return Wire.List_keys;
        map (fun key -> Wire.List_branches { key }) string;
        map (fun uid -> Wire.Verify { uid }) gen_cid;
        return Wire.Stats;
        return Wire.Checkpoint;
        map (fun from_seq -> Wire.Pull_journal { from_seq }) small_nat;
        map (fun cids -> Wire.Fetch_chunks { cids }) (small_list gen_cid);
        return Wire.Get_map;
        map (fun map -> Wire.Set_map { map }) gen_shard_map;
        map (fun chunks -> Wire.Push_chunks { chunks }) (small_list string);
        map
          (fun ((key, branch), uid) -> Wire.Restore_branch { key; branch; uid })
          (pair (pair string string) gen_cid);
        map (fun key -> Wire.Export_key { key }) string;
        return Wire.Quit;
      ])

let gen_stats =
  QCheck.Gen.(
    map
      (function
        | [ chunks; bytes; puts; dedup_hits; gets; misses; keys; branches;
            journal_seq; journal_bytes;
            accepted; active; closed_ok; closed_err; frames_in; frames_out;
            timeouts; group_commits; acks_released; shard_index; map_version ] ->
            Wire.Stats_r
              { chunks; bytes; puts; dedup_hits; gets; misses; keys; branches;
                journal_seq; journal_bytes;
                accepted; active; closed_ok; closed_err; frames_in; frames_out;
                timeouts; group_commits; acks_released;
                (* -1 = "not a shard" is a legal wire value *)
                shard_index = shard_index - 1; map_version }
        | _ -> assert false)
      (list_repeat 21 small_nat))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun uid -> Wire.Uid uid) gen_cid;
        map (fun v -> Wire.Value v) gen_value;
        return Wire.Ok_unit;
        map (fun ks -> Wire.Keys ks) (small_list string);
        map (fun bs -> Wire.Branches bs) (small_list (pair string gen_cid));
        map (fun hs -> Wire.History hs) (small_list (pair small_nat gen_cid));
        map (fun b -> Wire.Bool b) bool;
        gen_stats;
        map (fun (chunks, bytes) -> Wire.Reclaimed { chunks; bytes })
          (pair small_nat small_nat);
        map
          (fun (primary_seq, entries) -> Wire.Journal_batch { primary_seq; entries })
          (pair small_nat (small_list string));
        map (fun cs -> Wire.Chunks cs) (small_list string);
        map (fun (host, port) -> Wire.Redirect { host; port })
          (pair string small_nat);
        map (fun m -> Wire.Map_r m) gen_shard_map;
        map (fun reason -> Wire.Retry { reason }) string;
        map (fun m -> Wire.Error m) string;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request round-trip" ~count:300
    (QCheck.make gen_request)
    (fun req -> Wire.decode_request (Wire.encode_request req) = req)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response round-trip" ~count:300
    (QCheck.make gen_response)
    (fun resp -> Wire.decode_response (Wire.encode_response resp) = resp)

(* The server decodes a request where it lies in its read buffer.  Between
   random bytes the body decodes to the request; cut short by one byte it
   is [Corrupt] although the byte after the range would complete it, so
   the decoder never reads past [pos + len]. *)
let prop_decode_request_sub =
  QCheck.Test.make ~name:"decode_request_sub: exact and bounded" ~count:300
    (QCheck.make QCheck.Gen.(triple gen_request string string))
    (fun (req, before, after) ->
      let body = Wire.encode_request req in
      let s = before ^ body ^ after in
      let pos = String.length before and len = String.length body in
      Wire.decode_request_sub s ~pos ~len = req
      &&
      match Wire.decode_request_sub s ~pos ~len:(len - 1) with
      | exception Fbutil.Codec.Corrupt _ -> true
      | (_ : Wire.request) -> false)

(* The page-put decoder agrees with the full decoder.  For a [Put] of a
   [Blob] between random bytes it returns the same key, branch and context
   and a span of the very buffer holding the page; cut short by one byte,
   or with one trailing byte, both decoders raise [Corrupt] although the
   bytes around the range would complete the body.  Every other request
   is declined. *)
let prop_decode_page_put =
  let page_put =
    QCheck.Gen.(
      map2
        (fun (key, branch, context) page ->
          Wire.Put { key; branch; context; value = Wire.Blob page })
        (triple string string string) string)
  in
  QCheck.Test.make ~name:"decode_page_put agrees with decode_request_sub" ~count:500
    (QCheck.make QCheck.Gen.(quad (frequency [ (1, page_put); (1, gen_request) ])
                               string char string))
    (fun (req, before, trailing, after) ->
      let body = Wire.encode_request req in
      let s = before ^ body ^ String.make 1 trailing ^ after in
      let pos = String.length before and len = String.length body in
      let corrupt decode len =
        match decode s ~pos ~len with
        | exception Fbutil.Codec.Corrupt _ -> true
        | _ -> false
      in
      match (Wire.decode_page_put s ~pos ~len, Wire.decode_request_sub s ~pos ~len) with
      | Some p, Wire.Put { key; branch; context; value = Wire.Blob page } ->
          p.Wire.key = key && p.branch = branch && p.context = context
          && p.src == s
          && String.sub s p.pos p.len = page
          && corrupt Wire.decode_page_put (len - 1)
          && corrupt Wire.decode_request_sub (len - 1)
          && corrupt Wire.decode_page_put (len + 1)
          && corrupt Wire.decode_request_sub (len + 1)
      | Some _, _ -> false
      | None, Wire.Put { value = Wire.Blob _; _ } -> false
      | None, _ -> true)

(* The server's one-copy frame is byte for byte the two-step encoding.
   One buffer serves every case, as it serves every response: a page-sized
   answer, then a small one, must leave nothing of the first behind. *)
let frame_buf = Buffer.create 16

let prop_response_frame =
  let page = QCheck.Gen.(map (fun n -> Wire.Value (Wire.Blob (String.make n 'p')))
                           (int_range 65_536 200_000)) in
  QCheck.Test.make ~name:"response_frame = encode_frame of encode_response" ~count:300
    (QCheck.make QCheck.Gen.(pair (frequency [ (1, page); (4, gen_response) ]) gen_response))
    (fun (a, b) ->
      List.for_all
        (fun r -> Wire.response_frame frame_buf r = Wire.encode_frame (Wire.encode_response r))
        [ a; b ])

(* Journal entries ship inside [Journal_batch], so their records are
   pinned and round-tripped beside the wire messages. *)
let gen_entry =
  QCheck.Gen.(
    let s = small_string and cids = list_size (int_bound 3) gen_cid in
    let snap =
      map3
        (fun snap_tagged snap_untagged snap_known ->
          { Forkbase.Branch_table.snap_tagged; snap_untagged; snap_known })
        (list_size (int_bound 3) (pair s gen_cid)) cids cids
    in
    let mutation m = Journal.Mutation m in
    pair small_nat @@ list_size (int_bound 4) @@ oneof
      [
        map3 (fun key branch uid -> mutation (Set_head { key; branch; uid })) s s gen_cid;
        map3 (fun key uid bases -> mutation (Record_object { key; uid; bases })) s gen_cid cids;
        map3 (fun key old_name new_name -> mutation (Rename { key; old_name; new_name })) s s s;
        map2 (fun key branch -> mutation (Remove_branch { key; branch })) s s;
        map3 (fun key drop add -> mutation (Replace_untagged { key; drop; add })) s cids gen_cid;
        map (fun snaps -> Journal.Checkpoint snaps) (list_size (int_bound 3) (pair s snap));
      ])

let encode_entry (seq, records) = Journal.encode_entry ~seq records

let prop_journal_roundtrip =
  QCheck.Test.make ~name:"journal entry round-trip" ~count:300 (QCheck.make gen_entry)
    (fun e -> Journal.decode_entry (encode_entry e) = e)

(* Golden bytes: one value of every variant pinned as hex.  Journals on
   disk, shard-map files and followers all read these layouts, so a codec
   change must leave every one byte-identical.  [cid_hex] is the hex of
   [cid]. *)
let cid = Cid.of_raw (String.make 32 '\x11')
let cid_hex = String.make 64 '1'
let gmap = { Wire.version = 2; shards = [| ("h", 300) |]; pending = [ "p" ] }

let golden_requests =
  Wire.
    [
      (Put { key = "k"; branch = "b"; context = "c"; value = Str "v" }, "50016b01620163730176");
      (Get { key = "k"; branch = "b" }, "47016b0162");
      (Get_version { uid = cid }, "56" ^ cid_hex);
      (Fork { key = "k"; from_branch = "a"; new_branch = "b" }, "46016b01610162");
      (Merge { key = "k"; target = "t"; ref_branch = "r"; resolver = "x" }, "4d016b017401720178");
      (Track { key = "k"; branch = "b"; lo = 1; hi = 300 }, "54016b016201ac02");
      (List_keys, "4b"); (Stats, "53"); (Checkpoint, "43"); (Get_map, "57"); (Quit, "51");
      (List_branches { key = "k" }, "42016b");
      (Verify { uid = cid }, "59" ^ cid_hex);
      (Pull_journal { from_seq = 129 }, "4a8101");
      (Fetch_chunks { cids = [ cid; cid ] }, "5802" ^ cid_hex ^ cid_hex);
      (Set_map { map = gmap }, "4902010168ac02010170");
      (Push_chunks { chunks = [ "ab" ] }, "5501026162");
      (Restore_branch { key = "k"; branch = "b"; uid = cid }, "52016b0162" ^ cid_hex);
      (Export_key { key = "k" }, "45016b");
    ]

let golden_stats =
  { Wire.chunks = 1; bytes = 2; puts = 3; dedup_hits = 4; gets = 5; misses = 6;
    keys = 7; branches = 8; journal_seq = 9; journal_bytes = 10; accepted = 11;
    active = 12; closed_ok = 13; closed_err = 14; frames_in = 15;
    frames_out = 16; timeouts = 17; group_commits = 18; acks_released = 19;
    shard_index = -1; map_version = 21 }

(* [Value] appears once per value kind *)
let golden_responses =
  Wire.
    [
      (Uid cid, "75" ^ cid_hex);
      (Value (Str "s"), "76730173");
      (Value (Blob "b"), "76620162");
      (Value (List [ "x"; "y" ]), "766c0201780179");
      (Value (Map [ ("k", "v") ]), "766d01016b0176");
      (Value (Set [ "m" ]), "766501016d");
      (Ok_unit, "6f"); (Bool true, "7401");
      (Keys [ "a"; "b" ], "6b0201610162");
      (Branches [ ("m", cid) ], "7201016d" ^ cid_hex);
      (History [ (1, cid) ], "680101" ^ cid_hex);
      (Stats_r golden_stats, "730102030405060708090a0b0c0d0e0f101112130015");
      (Reclaimed { chunks = 3; bytes = 4000 }, "6303a01f");
      (Journal_batch { primary_seq = 5; entries = [ "e" ] }, "6a05010165");
      (Chunks [ "z" ], "6e01017a");
      (Redirect { host = "h"; port = 80 }, "64016850");
      (Map_r gmap, "6d02010168ac02010170");
      (Retry { reason = "r" }, "790172");
      (Error "e", "780165");
    ]

(* one record of every kind, each alone in an entry of seq 7 *)
let golden_entries =
  let snap =
    { Forkbase.Branch_table.snap_tagged = [ ("m", cid) ]; snap_untagged = [ cid ];
      snap_known = [ cid ] }
  in
  List.map (fun (r, hex) -> ((7, [ r ]), "0701" ^ hex)) Journal.
    [
      (Mutation (Set_head { key = "k"; branch = "b"; uid = cid }), "48016b0162" ^ cid_hex);
      (Mutation (Record_object { key = "k"; uid = cid; bases = [ cid ] }),
        "4f016b" ^ cid_hex ^ "01" ^ cid_hex);
      (Mutation (Rename { key = "k"; old_name = "a"; new_name = "b" }), "4e016b01610162");
      (Mutation (Remove_branch { key = "k"; branch = "b" }), "44016b0162");
      (Mutation (Replace_untagged { key = "k"; drop = [ cid ]; add = cid }),
        "55016b01" ^ cid_hex ^ cid_hex);
      (Checkpoint [ ("k", snap) ],
        "4301016b01016d" ^ cid_hex ^ "01" ^ cid_hex ^ "01" ^ cid_hex);
    ]

let test_golden_bytes () =
  let check encode decode (v, hex) =
    Alcotest.(check string) "golden bytes" hex (Fbutil.Hex.encode (encode v));
    Alcotest.(check bool) "golden decode" true (decode (Fbutil.Hex.decode hex) = v)
  in
  List.iter (check Wire.encode_request Wire.decode_request) golden_requests;
  List.iter (check Wire.encode_response Wire.decode_response) golden_responses;
  List.iter (check encode_entry Journal.decode_entry) golden_entries;
  check Wire.encode_shard_map Wire.decode_shard_map (gmap, "02010168ac02010170")

(* Every decoder is total: on any input it returns a value or raises
   [Codec.Corrupt], never another exception.  Inputs are random strings
   plus truncations and single-byte overwrites of valid encodings. *)
let decode_total s =
  List.for_all
    (fun decode -> match decode s with () -> true | exception Fbutil.Codec.Corrupt _ -> true)
    [ (fun s -> ignore (Wire.decode_request s)); (fun s -> ignore (Wire.decode_response s));
      (fun s -> ignore (Wire.decode_shard_map s)); (fun s -> ignore (Journal.decode_entry s)) ]

let prop_decoders_total =
  let truncate s k = String.sub s 0 (k mod (String.length s + 1)) in
  let overwrite s i ch = String.mapi (fun j c -> if j = i mod String.length s then ch else c) s in
  let open QCheck.Gen in
  let valid =
    oneof
      [ map Wire.encode_request gen_request; map Wire.encode_response gen_response;
        map encode_entry gen_entry ]
  in
  QCheck.Test.make ~name:"decoders are total" ~count:1000
    (QCheck.make ~print:String.escaped
       (oneof [ string; map2 truncate valid nat; map3 overwrite valid nat char ]))
    decode_total

(* a 9-byte varint overflowing into the sign bit, as a list count *)
let hostile_varint = "X" ^ String.make 8 '\xff' ^ "\x7f"

let test_hostile_varint_decodes_corrupt () =
  Alcotest.(check bool) "overflowing varint count" true (decode_total hostile_varint);
  (* a max_int length must not overflow the bounds check *)
  Alcotest.(check bool) "max_int string length" true
    (decode_total ("B" ^ String.make 8 '\xff' ^ "\x3f"))

(* --- framing hardening --- *)

let header_of n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.unsafe_to_string b

let test_read_frame_limit () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () ->
      (* a hostile header announcing ~3.9 GiB must be rejected before the
         body buffer is allocated *)
      let huge = 0xF000_0000 in
      ignore (Unix.write_substring a (header_of huge) 0 4);
      match Wire.read_frame ~max_frame_bytes:(1 lsl 20) b with
      | exception Fbutil.Codec.Corrupt _ -> ()
      | _ -> Alcotest.fail "oversized frame accepted")

(* --- handler semantics without sockets --- *)

let test_handle () =
  let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
  (match
     Server.handle db
       (Wire.Put { key = "k"; branch = "master"; context = ""; value = Wire.Str "v" })
   with
  | Wire.Uid _ -> ()
  | _ -> Alcotest.fail "put");
  (match Server.handle db (Wire.Get { key = "k"; branch = "master" }) with
  | Wire.Value (Wire.Str "v") -> ()
  | _ -> Alcotest.fail "get");
  (match Server.handle db (Wire.Get { key = "nope"; branch = "master" }) with
  | Wire.Error _ -> ()
  | _ -> Alcotest.fail "unknown key should error");
  (match Server.handle db Wire.List_keys with
  | Wire.Keys [ "k" ] -> ()
  | _ -> Alcotest.fail "keys");
  (match Server.handle db Wire.Stats with
  | Wire.Stats_r s ->
      Alcotest.(check int) "one key" 1 s.Wire.keys;
      Alcotest.(check int) "one branch" 1 s.Wire.branches;
      Alcotest.(check bool) "chunks counted" true (s.Wire.chunks > 0)
  | _ -> Alcotest.fail "stats");
  (* no durable store behind this db: checkpoint must refuse, not crash *)
  match Server.handle db Wire.Checkpoint with
  | Wire.Error _ -> ()
  | _ -> Alcotest.fail "checkpoint on volatile store should error"

(* Serving a 64 KiB page read allocates the page and its one frame on the
   major heap, not a copy per encoding step (six frames' worth when every
   step copied).  The figure is bench_remote's committed row. *)
let page_frame_bytes page =
  String.length (Wire.encode_frame (Wire.encode_response (Wire.Value (Wire.Blob page))))

let test_page_get_allocation () =
  let frame = page_frame_bytes (String.make 65536 'p') in
  let frames = Bench_remote.page_get_major_bytes () /. float_of_int frame in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f frames of major allocation per page get (<= 2.5)" frames)
    true (frames <= 2.5)

(* --- server-process plumbing --- *)

(* A server child on an ephemeral port serving a fresh in-memory db
   until Quit — shared plumbing in Testnet (which also SIGKILLs and
   reaps the child if the test fails before Quit). *)
let with_server ?config f = Testnet.with_mem_server ?config f

(* A stalled server fails the test with a receive timeout instead of
   hanging it. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  fd

(* --- full TCP round trip --- *)

let test_tcp_session () =
  with_server @@ fun port ->
  let c = Client.connect ~retries:5 ~port () in
  (* a realistic session: put, fork, edit, merge, track, verify *)
  let v1 = Client.put c ~key:"page" (Wire.Blob "hello network") in
  Client.fork c ~key:"page" ~from_branch:"master" ~new_branch:"draft";
  let (_ : Cid.t) =
    Client.put ~branch:"draft" c ~key:"page" (Wire.Blob "hello network, edited")
  in
  (match Client.get ~branch:"draft" c ~key:"page" with
  | Wire.Blob "hello network, edited" -> ()
  | _ -> Alcotest.fail "draft content");
  (match Client.get c ~key:"page" with
  | Wire.Blob "hello network" -> ()
  | _ -> Alcotest.fail "master isolated");
  let merged =
    Client.merge ~resolver:"right" c ~key:"page" ~target:"master"
      ~ref_branch:"draft"
  in
  (match Client.get c ~key:"page" with
  | Wire.Blob "hello network, edited" -> ()
  | _ -> Alcotest.fail "merged content");
  let history = Client.track c ~key:"page" ~lo:0 ~hi:10 in
  Alcotest.(check bool) "history reaches v1" true
    (List.exists (fun (_, uid) -> Cid.equal uid v1) history);
  Alcotest.(check bool) "verify over the wire" true (Client.verify c merged);
  Alcotest.(check (list string)) "keys" [ "page" ] (Client.list_keys c);
  (* maps over the wire *)
  let (_ : Cid.t) =
    Client.put c ~key:"scores" (Wire.Map [ ("a", "1"); ("b", "2") ])
  in
  (match Client.get c ~key:"scores" with
  | Wire.Map [ ("a", "1"); ("b", "2") ] -> ()
  | _ -> Alcotest.fail "map round trip");
  Client.quit_server c;
  Client.close c

(* --- concurrent serving & fault isolation --- *)

let test_two_interleaved_clients () =
  with_server @@ fun port ->
  let c1 = Client.connect ~retries:5 ~port () in
  let c2 = Client.connect ~retries:5 ~port () in
  (* interleave requests request-by-request on the same server *)
  for i = 1 to 10 do
    let v = Printf.sprintf "v%d" i in
    let (_ : Cid.t) = Client.put c1 ~key:"alpha" (Wire.Str ("a" ^ v)) in
    let (_ : Cid.t) = Client.put c2 ~key:"beta" (Wire.Str ("b" ^ v)) in
    (match Client.get c1 ~key:"beta" with
    | Wire.Str s -> Alcotest.(check string) "c1 sees c2 writes" ("b" ^ v) s
    | _ -> Alcotest.fail "beta type");
    match Client.get c2 ~key:"alpha" with
    | Wire.Str s -> Alcotest.(check string) "c2 sees c1 writes" ("a" ^ v) s
    | _ -> Alcotest.fail "alpha type"
  done;
  let s = Client.stats c1 in
  Alcotest.(check int) "both connections accepted" 2 s.Wire.accepted;
  Alcotest.(check int) "both connections active" 2 s.Wire.active;
  Alcotest.(check bool) "frames counted" true (s.Wire.frames_in >= 40);
  Client.quit_server c1;
  Client.close c1;
  Client.close c2

let test_killed_client_is_isolated () =
  with_server @@ fun port ->
  let survivor = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put survivor ~key:"k" (Wire.Str "before") in
  (* a second client sends half a request frame and is then SIGKILLed *)
  let victim =
    match Unix.fork () with
    | 0 ->
        (try
           let fd = raw_connect port in
           (* header announces 64 bytes; send only 7 *)
           ignore (Unix.write_substring fd (header_of 64) 0 4);
           ignore (Unix.write_substring fd "partial" 0 7);
           Unix.sleepf 30.
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Unix.sleepf 0.3 (* let the partial frame reach the server *);
  Unix.kill victim Sys.sigkill;
  ignore (Unix.waitpid [] victim);
  Unix.sleepf 0.3 (* let the server observe the EOF *);
  (* the survivor completes all its operations against the same process *)
  for i = 1 to 5 do
    let v = Printf.sprintf "after%d" i in
    let (_ : Cid.t) = Client.put survivor ~key:"k" (Wire.Str v) in
    match Client.get survivor ~key:"k" with
    | Wire.Str s -> Alcotest.(check string) "survivor round trip" v s
    | _ -> Alcotest.fail "survivor value type"
  done;
  let s = Client.stats survivor in
  Alcotest.(check int) "one errored close" 1 s.Wire.closed_err;
  Alcotest.(check int) "survivor still active" 1 s.Wire.active;
  Client.quit_server survivor;
  Client.close survivor

(* A protocol violation on one connection answers [Error "bad request:
   ..."], closes that connection (counted in [closed_err]), and leaves
   the server serving everyone else. *)
let expect_rejected ?config bytes =
  with_server ?config @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let fd = raw_connect port in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  (match Option.map Wire.decode_response (Wire.read_frame fd) with
  | Some (Wire.Error msg) ->
      Alcotest.(check bool) "bad request answered" true
        (String.starts_with ~prefix:"bad request: " msg)
  | Some _ -> Alcotest.fail "expected an Error response"
  | None -> Alcotest.fail "expected an error frame before the close");
  Alcotest.(check bool) "connection then closed" true (Wire.read_frame fd = None);
  Unix.close fd;
  let (_ : Cid.t) = Client.put witness ~key:"w" (Wire.Str "alive") in
  let s = Client.stats witness in
  Alcotest.(check int) "close recorded as error" 1 s.Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

(* announce far more than the limit; send no body at all *)
let test_oversized_frame_rejected () =
  expect_rejected
    ~config:{ Server.default_config with Server.max_frame_bytes = 1024 }
    (header_of 10_000_000)

let test_hostile_varint_frame_rejected () =
  expect_rejected (Wire.encode_frame hostile_varint)

let test_truncated_frame_close () =
  with_server @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let fd = raw_connect port in
  (* claim 50 bytes, deliver 5, vanish *)
  ignore (Unix.write_substring fd (header_of 50) 0 4);
  ignore (Unix.write_substring fd "stub!" 0 5);
  Unix.close fd;
  Unix.sleepf 0.3;
  let (_ : Cid.t) = Client.put witness ~key:"w" (Wire.Str "alive") in
  let s = Client.stats witness in
  Alcotest.(check int) "truncated close recorded as error" 1 s.Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

let test_idle_timeout () =
  let config = { Server.default_config with Server.idle_timeout = 0.3 } in
  with_server ~config @@ fun port ->
  let idle = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put idle ~key:"k" (Wire.Str "v") in
  Unix.sleepf 0.9;
  (* the idle connection was reaped server-side *)
  (match Client.get idle ~key:"k" with
  | exception Client.Disconnected -> ()
  | _ -> Alcotest.fail "idle connection should be closed");
  Client.close idle;
  let fresh = Client.connect ~retries:5 ~port () in
  let s = Client.stats fresh in
  Alcotest.(check int) "timeout recorded" 1 s.Wire.timeouts;
  Client.quit_server fresh;
  Client.close fresh

(* --- the event loop's clock is injected, not wall time --- *)

let with_server_now ?config ~now f =
  Testnet.with_proc
    (Fbremote.Procs.spawn (fun listen_fd ->
         let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
         ignore (Server.serve ~now ?config db listen_fd : Server.counters)))
    f

(* With a frozen clock, no amount of real elapsed time ages a
   connection: idle reaping must be driven by the injected time source
   alone.  (Before the clock was injectable the loop read
   Unix.gettimeofday directly, so a wall-clock step — NTP, manual reset —
   could reap every connection at once; this test would hang on the old
   code only by freezing the wall clock itself.) *)
let test_frozen_clock_never_reaps () =
  let config = { Server.default_config with Server.idle_timeout = 0.2 } in
  with_server_now ~config ~now:(fun () -> 42.0) @@ fun port ->
  let c = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put c ~key:"k" (Wire.Str "v") in
  Unix.sleepf 0.8 (* 4x the idle timeout in real time *);
  (match Client.get c ~key:"k" with
  | (_ : Wire.value) -> ()
  | exception Client.Disconnected ->
      Alcotest.fail "conn reaped under frozen clock");
  let s = Client.stats c in
  Alcotest.(check int) "no timeouts under frozen clock" 0 s.Wire.timeouts;
  Client.quit_server c;
  Client.close c

(* The converse: a fake clock that leaps forward on every reading
   reaps the idle connection after a fraction of the real idle timeout,
   proving timeouts come from [now] and nowhere else. *)
let test_stepping_clock_reaps () =
  let config = { Server.default_config with Server.idle_timeout = 0.3 } in
  let now =
    let t = ref 0.0 in
    fun () ->
      t := !t +. 0.2;
      !t
  in
  with_server_now ~config ~now @@ fun port ->
  let idle = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put idle ~key:"k" (Wire.Str "v") in
  Unix.sleepf 1.0;
  (match Client.get idle ~key:"k" with
  | exception Client.Disconnected -> ()
  | _ -> Alcotest.fail "stepping clock should have reaped the idle conn");
  Client.close idle;
  let fresh = Client.connect ~retries:5 ~port () in
  let s = Client.stats fresh in
  Alcotest.(check bool) "timeout recorded" true (s.Wire.timeouts >= 1);
  (* the leaping clock can reap this connection too before Quit lands;
     with_server_now kills the server either way *)
  (try Client.quit_server fresh with Client.Disconnected -> ());
  Client.close fresh

(* --- group commit: batched acks over a durable store --- *)

module Persist = Fbpersist.Persist

let test_group_commit () =
  Testnet.with_temp_dir @@ fun dir ->
  let server = Fbreplica.Proc.spawn_primary ~dir () in
  let port = Fbremote.Procs.port server in
  let writers = 4 and puts_each = 25 in
  let pids =
    List.init writers (fun id ->
        match Unix.fork () with
        | 0 ->
            (try
               let c = Client.connect ~retries:20 ~port () in
               for i = 1 to puts_each do
                 let (_ : Cid.t) =
                   Client.put c
                     ~key:(Printf.sprintf "w%d" id)
                     (Wire.Str (Printf.sprintf "v%d" i))
                 in
                 ()
               done;
               Client.close c
             with _ -> ());
            Unix._exit 0
        | pid -> pid)
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  let c = Client.connect ~retries:20 ~port () in
  let s = Client.stats c in
  let total = writers * puts_each in
  Alcotest.(check bool) "at least one group commit" true
    (s.Wire.group_commits >= 1);
  Alcotest.(check int) "every durable write's ack went through the batch"
    total s.Wire.acks_released;
  Alcotest.(check bool) "syncs never exceed released acks" true
    (s.Wire.group_commits <= s.Wire.acks_released);
  Client.quit_server c;
  Client.close c;
  Fbremote.Procs.reap server;
  (* every acknowledged write is on disk *)
  let p = Persist.open_db dir in
  let db = Persist.db p in
  for id = 0 to writers - 1 do
    match Forkbase.Db.get db ~key:(Printf.sprintf "w%d" id) with
    | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "writer %d's last put recovered" id)
          true
          (v = Forkbase.Db.str (Printf.sprintf "v%d" puts_each))
    | Error e -> Alcotest.fail (Forkbase.Db.error_to_string e)
  done;
  Persist.close p

let with_group_commit_server f =
  Testnet.with_temp_dir @@ fun dir -> Testnet.with_primary dir f

(* A Blob put onto a Blob head re-chunks only around what changed: one
   64-byte overwrite of a 64 KiB page stores a handful of chunks (a full
   rebuild puts ~18), and the tree is still the one a fresh build of the
   page gives.  A Blob onto a [Str] head, or onto a fresh branch, has no
   Blob to splice and builds from scratch. *)
let test_blob_put_splices_head () =
  with_group_commit_server @@ fun port ->
  let c = Client.connect ~retries:20 ~port () in
  let module Fblob = Fbtypes.Fblob in
  let module Text_edit = Workload.Text_edit in
  let page = Text_edit.initial_page ~seed:3L ~size:65536 in
  let edited = Text_edit.apply page (Text_edit.Overwrite (30_000, String.make 64 'x')) in
  let check_put ?branch ~key s =
    let uid = Client.put ?branch c ~key (Wire.Blob s) in
    (match Client.get ?branch c ~key with
    | Wire.Blob got -> Alcotest.(check bool) (key ^ ": get returns the put bytes") true (got = s)
    | _ -> Alcotest.fail "not a blob");
    let meta =
      match Client.fetch_chunks c [ uid ] with
      | [ raw ] -> Forkbase.Fobject.of_chunk (Fbchunk.Chunk.decode raw)
      | _ -> Alcotest.fail "meta chunk missing"
    in
    let fresh = Fblob.create (Fbchunk.Chunk_store.mem_store ()) Fbtree.Tree_config.default s in
    Alcotest.(check string) (key ^ ": root = fresh build's") (Cid.to_hex (Fblob.root fresh))
      (Cid.to_hex (Cid.of_raw meta.Forkbase.Fobject.data))
  in
  check_put ~key:"page" page;
  let puts () = (Client.stats c).Wire.puts in
  let before = puts () in
  check_put ~key:"page" edited;
  let added = puts () - before in
  Alcotest.(check bool) (Printf.sprintf "edit put %d chunks (<= 6)" added) true (added <= 6);
  let (_ : Cid.t) = Client.put c ~key:"note" (Wire.Str "short") in
  check_put ~key:"note" edited;
  check_put ~branch:"draft" ~key:"page" (String.sub edited 100 20_000);
  Client.quit_server c;
  Client.close c

(* --- pipelined batches: one write carries many requests --- *)

(* Every request in one [write], before any answer is read. *)
let send_batch fd reqs =
  let bytes =
    String.concat "" (List.map (fun r -> Wire.encode_frame (Wire.encode_request r)) reqs)
  in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes))

let read_answers fd n =
  List.init n (fun _ ->
      match Wire.read_frame fd with
      | Some body -> Wire.decode_response body
      | None -> Alcotest.fail "connection closed before every answer arrived")

let pipeline fd reqs =
  send_batch fd reqs;
  read_answers fd (List.length reqs)

let put_req key value = Wire.Put { key; branch = "master"; context = ""; value }
let get_req key = Wire.Get { key; branch = "master" }

let check_value name expected = function
  | Wire.Value v -> Alcotest.(check bool) name true (v = expected)
  | _ -> Alcotest.fail (name ^ ": not a value")

(* A put of a [Str] whose request body is exactly [size] bytes. *)
let put_of_size key size =
  let body_size pad =
    String.length (Wire.encode_request (put_req key (Wire.Str (String.make pad 'z'))))
  in
  (* the varint length prefix can grow with the pad: settle on a fixpoint *)
  let rec exact pad = if body_size pad = size then pad else exact (pad + size - body_size pad) in
  Wire.Str (String.make (exact 0) 'z')

(* A page put's page is a span of the connection's read buffer, which
   later reads overwrite, so whatever the put stores must be its own copy.
   One write carries different pages for one key (the first has no head
   and is built from scratch, the others are spliced), a Blob onto a key
   whose head is a [Str], and a page longer than the server's 64 KiB read
   room, whose span is assembled across reads.  A second such write on
   the same connection lands over the first in the read buffer.  Every
   acked version reads back as the page that was sent. *)
let test_page_puts_keep_no_read_buffer () =
  with_group_commit_server @@ fun port ->
  let c = Client.connect ~retries:20 ~port () in
  let (_ : Cid.t) = Client.put c ~key:"note" (Wire.Str "short") in
  let page seed size = Workload.Text_edit.initial_page ~seed:(Int64.of_int seed) ~size in
  let batch r =
    let base = page (20 + r) 65536 in
    let edit at fill =
      Workload.Text_edit.apply base (Workload.Text_edit.Overwrite (at, String.make 64 fill))
    in
    [ ("doc", base); ("doc", edit 100 'a'); ("note", page (30 + r) 30_000);
      ("doc", edit 40_000 'b'); ("doc", page (40 + r) 150_000); ("doc", edit 65_000 'c');
      ("note", page (50 + r) 20_000); ("doc", base) ]
  in
  let fd = raw_connect port in
  let sent = batch 0 @ batch 1 in
  let answers =
    List.concat_map
      (fun puts -> pipeline fd (List.map (fun (key, p) -> put_req key (Wire.Blob p)) puts))
      [ batch 0; batch 1 ]
  in
  Unix.close fd;
  List.iteri
    (fun i ((key, page), answer) ->
      let name = Printf.sprintf "put %d of %s" i key in
      match answer with
      | Wire.Uid uid -> (
          match Client.get_version c uid with
          | Wire.Blob got -> Alcotest.(check bool) (name ^ " reads back") true (got = page)
          | _ -> Alcotest.fail (name ^ ": not a blob"))
      | _ -> Alcotest.fail (name ^ ": not answered by a uid"))
    (List.combine sent answers);
  Client.quit_server c;
  Client.close c

(* 32 page puts (~66 KB frames) written back to back: the server drains
   the socket each round, so several complete puts share one fsync.
   Reading at most 64 KiB a round, no two of them ever could. *)
let test_pipelined_puts_share_group_commit () =
  with_group_commit_server @@ fun port ->
  let pages =
    List.init 32 (fun i ->
        Workload.Text_edit.initial_page ~seed:(Int64.of_int (100 + i)) ~size:65536)
  in
  let fd = raw_connect port in
  let answers = pipeline fd (List.map (fun p -> put_req "page" (Wire.Blob p)) pages) in
  List.iter
    (function Wire.Uid _ -> () | _ -> Alcotest.fail "a page put was not answered by a uid")
    answers;
  Unix.close fd;
  let c = Client.connect ~retries:5 ~port () in
  (match Client.get c ~key:"page" with
  | Wire.Blob got ->
      Alcotest.(check bool) "reads return the last page" true
        (got = List.nth pages 31)
  | _ -> Alcotest.fail "not a blob");
  let s = Client.stats c in
  Alcotest.(check int) "every put's ack went through group commit" 32 s.Wire.acks_released;
  Alcotest.(check bool)
    (Printf.sprintf "puts share fsyncs (%d group commits for %d acks)"
       s.Wire.group_commits s.Wire.acks_released)
    true
    (s.Wire.group_commits < s.Wire.acks_released);
  Client.quit_server c;
  Client.close c

(* A frame whose body is exactly [max_frame_bytes] completes even though
   it spans several rounds' read budgets: the budget bounds bytes read per
   round, never bytes held. *)
let test_max_size_frame_among_neighbours () =
  let limit = 256 * 1024 in
  let config = { Server.default_config with Server.max_frame_bytes = limit } in
  with_server ~config @@ fun port ->
  let big = put_of_size "big" limit in
  let fd = raw_connect port in
  (match pipeline fd [ put_req "small" (Wire.Str "s"); put_req "big" big; get_req "big" ] with
  | [ Wire.Uid _; Wire.Uid _; answer ] -> check_value "the big value reads back" big answer
  | _ -> Alcotest.fail "expected uid, uid, value in request order");
  Unix.close fd;
  let c = Client.connect ~retries:5 ~port () in
  Alcotest.(check int) "no faulted close" 0 (Client.stats c).Wire.closed_err;
  Client.quit_server c;
  Client.close c

(* Pipelined frames split at every byte offset across two writes, the
   second sent once the server has had time to read the first: every cut
   frame is reassembled where it lies and every request answered in
   order.  Then the same with a frame of exactly [max_frame_bytes] between
   two small ones, cut in and around each frame's header and body. *)
let test_frames_split_anywhere () =
  let limit = 4096 in
  let config = { Server.default_config with Server.max_frame_bytes = limit } in
  with_server ~config @@ fun port ->
  let fd = raw_connect port in
  Wire.no_delay fd;
  let frames reqs = List.map (fun r -> Wire.encode_frame (Wire.encode_request r)) reqs in
  let send_split bytes at =
    ignore (Unix.write_substring fd bytes 0 at);
    Unix.sleepf 0.002;
    ignore (Unix.write_substring fd bytes at (String.length bytes - at))
  in
  let value i = Wire.Str (Printf.sprintf "v%03d" i) in
  let page i = Wire.Blob (Printf.sprintf "page %03d " i ^ String.make 40 'p') in
  let small i =
    frames [ put_req "s" (value i); put_req "b" (page i); get_req "s"; get_req "b"; get_req "s" ]
  in
  let len = String.length (String.concat "" (small 0)) in
  for at = 0 to len do
    send_split (String.concat "" (small at)) at;
    match read_answers fd 5 with
    | [ Wire.Uid _; Wire.Uid _; a; p; b ] ->
        check_value (Printf.sprintf "split at %d: first get" at) (value at) a;
        check_value (Printf.sprintf "split at %d: page get" at) (page at) p;
        check_value (Printf.sprintf "split at %d: second get" at) (value at) b
    | _ -> Alcotest.fail (Printf.sprintf "split at %d: answers out of order" at)
  done;
  let big = put_of_size "big" limit in
  let neighbours = frames [ put_req "n" (Wire.Str "before"); put_req "big" big; get_req "big" ] in
  let bytes = String.concat "" neighbours in
  let edges =
    List.fold_left
      (fun (acc, start) f ->
        let stop = start + String.length f in
        (acc @ [ start; start + 1; start + 3; start + 4; start + 5; (start + stop) / 2; stop - 1 ], stop))
      ([], 0) neighbours
    |> fst
  in
  List.iter
    (fun at ->
      send_split bytes at;
      match read_answers fd 3 with
      | [ Wire.Uid _; Wire.Uid _; answer ] ->
          check_value (Printf.sprintf "max-size split at %d" at) big answer
      | _ -> Alcotest.fail (Printf.sprintf "max-size split at %d: answers out of order" at))
    (edges @ [ String.length bytes ]);
  Unix.close fd;
  let c = Client.connect ~retries:5 ~port () in
  Alcotest.(check int) "no faulted close" 0 (Client.stats c).Wire.closed_err;
  Client.quit_server c;
  Client.close c

(* Both ends of a connection run without Nagle: a socket the server
   accepts and one [Client.connect] opens both have [TCP_NODELAY] set. *)
let test_sockets_have_no_delay () =
  let listen_fd = Server.listen ~port:0 () in
  Fun.protect ~finally:(fun () -> Unix.close listen_fd) @@ fun () ->
  let c = Client.connect ~port:(Server.bound_port listen_fd) () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Wire.accept_nb listen_fd with
  | None -> Alcotest.fail "the connection was not accepted"
  | Some (fd, _) ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Alcotest.(check bool) "accepted socket has TCP_NODELAY" true
        (Unix.getsockopt fd Unix.TCP_NODELAY);
      Alcotest.(check bool) "client socket has TCP_NODELAY" true
        (Unix.getsockopt (Client.fd c) Unix.TCP_NODELAY)

(* A client that sends its whole batch and half-closes gets every answer,
   in order, then EOF — also when the batch's puts are parked for group
   commit in the round that read the EOF. *)
let test_half_close_after_pipelined_batch () =
  with_group_commit_server @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let before = Client.stats witness in
  let k = 20 in
  let reqs =
    List.init k (fun i ->
        if i mod 2 = 0 then put_req "h" (Wire.Str (Printf.sprintf "v%d" i))
        else get_req "h")
  in
  let fd = raw_connect port in
  send_batch fd reqs;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  List.iteri
    (fun i answer ->
      match answer with
      | Wire.Uid _ when i mod 2 = 0 -> ()
      | answer when i mod 2 = 1 ->
          check_value (Printf.sprintf "get %d" i)
            (Wire.Str (Printf.sprintf "v%d" (i - 1))) answer
      | _ -> Alcotest.fail (Printf.sprintf "answer %d out of order" i))
    (read_answers fd k);
  Alcotest.(check bool) "then EOF" true (Wire.read_frame fd = None);
  Unix.close fd;
  let after = Client.stats witness in
  Alcotest.(check int) "one orderly close" (before.Wire.closed_ok + 1) after.Wire.closed_ok;
  Alcotest.(check int) "no faulted close" 0 after.Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

(* Small answers are joined into shared writes and page answers go out
   whole; either way every answer arrives byte-exact in request order. *)
let test_coalesced_replies_keep_order () =
  with_server @@ fun port ->
  let strs = Array.init 10 (fun i -> Printf.sprintf "value-%d-%s" i (String.make i '*')) in
  let pages =
    Array.init 3 (fun i ->
        Workload.Text_edit.initial_page ~seed:(Int64.of_int (7 + i)) ~size:65536)
  in
  let puts =
    Array.to_list (Array.mapi (fun i v -> put_req (Printf.sprintf "s%d" i) (Wire.Str v)) strs)
    @ Array.to_list (Array.mapi (fun i p -> put_req (Printf.sprintf "p%d" i) (Wire.Blob p)) pages)
  in
  let gets =
    List.init 220 (fun i ->
        if i mod 11 = 10 then
          let j = i / 11 mod 3 in
          (get_req (Printf.sprintf "p%d" j), Wire.Blob pages.(j))
        else
          let j = i mod 10 in
          (get_req (Printf.sprintf "s%d" j), Wire.Str strs.(j)))
  in
  let fd = raw_connect port in
  let answers = pipeline fd (puts @ List.map fst gets @ [ Wire.Stats ]) in
  let n_puts = List.length puts and n_gets = List.length gets in
  List.iteri
    (fun i answer ->
      if i < n_puts then
        match answer with Wire.Uid _ -> () | _ -> Alcotest.fail "put not answered by a uid"
      else if i < n_puts + n_gets then
        check_value (Printf.sprintf "answer %d" i) (snd (List.nth gets (i - n_puts))) answer
      else
        match answer with
        | Wire.Stats_r s ->
            Alcotest.(check int) "frames_out counts every answer before Stats"
              (n_puts + n_gets) s.Wire.frames_out
        | _ -> Alcotest.fail "last answer is not Stats")
    answers;
  Wire.write_frame fd (Wire.encode_request Wire.Quit);
  ignore (Wire.read_frame fd);
  Unix.close fd

(* --- the output budget: parsing pauses while answers wait --- *)

let page_of seed = Workload.Text_edit.initial_page ~seed:(Int64.of_int seed) ~size:65536

(* A pipeline of 64 page reads, 16 budgets' worth of answers, then a
   half-close: the EOF arrives while most of the gets wait unparsed behind
   the budget.  They are pending work, not a vanished peer, so every one
   is answered before the orderly close. *)
let test_half_close_with_parsing_paused () =
  with_server @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let page = page_of 21 in
  let (_ : Cid.t) = Client.put witness ~key:"page" (Wire.Blob page) in
  let before = Client.stats witness in
  let n = 64 in
  Alcotest.(check bool) "the batch's answers are 16 budgets" true
    (n * String.length page >= 16 * Server.out_budget);
  let fd = raw_connect port in
  send_batch fd (List.init n (fun _ -> get_req "page"));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  List.iteri
    (fun i answer -> check_value (Printf.sprintf "get %d" i) (Wire.Blob page) answer)
    (read_answers fd n);
  Alcotest.(check bool) "then EOF" true (Wire.read_frame fd = None);
  Unix.close fd;
  let after = Client.stats witness in
  Alcotest.(check int) "one orderly close" (before.Wire.closed_ok + 1) after.Wire.closed_ok;
  Alcotest.(check int) "no faulted close" 0 after.Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

(* An oversized header that arrives while parsing is paused is still
   found once the gets before it are answered: its [bad request] reply
   follows theirs, and the connection closes as faulted. *)
let test_oversized_header_while_paused () =
  let config = { Server.default_config with Server.max_frame_bytes = 1 lsl 17 } in
  with_server ~config @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let page = page_of 22 in
  let (_ : Cid.t) = Client.put witness ~key:"page" (Wire.Blob page) in
  let n = 16 in
  let fd = raw_connect port in
  let get = Wire.encode_frame (Wire.encode_request (get_req "page")) in
  let bytes = String.concat "" (List.init n (fun _ -> get)) ^ header_of 10_000_000 in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  List.iteri
    (fun i answer -> check_value (Printf.sprintf "get %d" i) (Wire.Blob page) answer)
    (read_answers fd n);
  (match Option.map Wire.decode_response (Wire.read_frame fd) with
  | Some (Wire.Error msg) ->
      Alcotest.(check bool) "bad request answered" true
        (String.starts_with ~prefix:"bad request: " msg)
  | _ -> Alcotest.fail "expected the bad request error after the gets");
  Alcotest.(check bool) "connection then closed" true (Wire.read_frame fd = None);
  Unix.close fd;
  Alcotest.(check int) "close recorded as error" 1 (Client.stats witness).Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

(* A durable group-commit server, as [Proc.spawn_primary] runs one, that
   also reports its final [out_peak] counter; [f] must quit it. *)
let with_counted_primary f =
  Testnet.with_temp_dir @@ fun dir ->
  let peak_file = Filename.concat dir "out_peak" in
  let server =
    Fbremote.Procs.spawn (fun listen_fd ->
        let p = Persist.open_db (Filename.concat dir "store") in
        let k = Fbreplica.Proc.serve_primary p listen_fd in
        Persist.close p;
        Out_channel.with_open_text peak_file (fun oc ->
            output_string oc (string_of_int k.Server.out_peak)))
  in
  (* wait for the child to write the counter; kill it only on failure *)
  Fun.protect
    ~finally:(fun () -> Fbremote.Procs.kill server)
    (fun () ->
      f (Fbremote.Procs.port server);
      Fbremote.Procs.reap server);
  int_of_string (In_channel.with_open_text peak_file In_channel.input_all)

(* One connection pipelines page puts, each followed by two reads of it,
   far past the budget, and reads nothing until a second client has done
   its own puts and gets alongside.  Both see their answers in request
   order; every put's ack went through a group commit, with the reads
   behind it held as well but not counted as acks; and no connection ever
   had more than the budget plus one frame of answers unwritten. *)
let test_order_past_the_budget () =
  let pages = Array.init 12 (fun i -> page_of (40 + i)) in
  let peak =
    with_counted_primary @@ fun port ->
    let fd = raw_connect port in
    send_batch fd
      (List.concat_map
         (fun p -> [ put_req "pipe" (Wire.Blob p); get_req "pipe"; get_req "pipe" ])
         (Array.to_list pages));
    let c = Client.connect ~retries:20 ~port () in
    for i = 1 to 10 do
      let v = Wire.Str (Printf.sprintf "side-%d" i) in
      let (_ : Cid.t) = Client.put c ~key:"side" v in
      Alcotest.(check bool) (Printf.sprintf "side get %d" i) true
        (Client.get c ~key:"side" = v)
    done;
    List.iteri
      (fun i answer ->
        let page = pages.(i / 3) in
        match (i mod 3, answer) with
        | 0, Wire.Uid _ -> ()
        | 0, _ -> Alcotest.fail (Printf.sprintf "answer %d: a put not answered by a uid" i)
        | _, answer ->
            check_value (Printf.sprintf "answer %d reads its put" i) (Wire.Blob page) answer)
      (read_answers fd (3 * Array.length pages));
    Unix.close fd;
    let s = Client.stats c in
    let puts = Array.length pages + 10 in
    Alcotest.(check int) "acks released: every put's, and nothing else" puts
      s.Wire.acks_released;
    Alcotest.(check int) "no faulted close" 0 s.Wire.closed_err;
    Client.quit_server c;
    Client.close c
  in
  let frame = page_frame_bytes pages.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "peak unwritten output %d <= budget %d + one frame %d" peak
       Server.out_budget frame)
    true
    (peak <= Server.out_budget + frame && peak > Server.out_budget / 2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "remote"
    [
      ( "wire",
        [
          q prop_request_roundtrip;
          q prop_response_roundtrip;
          q prop_response_frame;
          q prop_decode_request_sub;
          q prop_decode_page_put;
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          q prop_journal_roundtrip;
          q prop_decoders_total;
          Alcotest.test_case "hostile varint is Corrupt" `Quick
            test_hostile_varint_decodes_corrupt;
          Alcotest.test_case "frame size limit" `Quick test_read_frame_limit;
        ] );
      ( "server",
        [
          Alcotest.test_case "handler" `Quick test_handle;
          Alcotest.test_case "page get allocates its frame once" `Quick
            test_page_get_allocation;
          Alcotest.test_case "tcp session" `Quick test_tcp_session;
          Alcotest.test_case "two interleaved clients" `Quick
            test_two_interleaved_clients;
          Alcotest.test_case "killed client is isolated" `Quick
            test_killed_client_is_isolated;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "hostile varint frame rejected" `Quick
            test_hostile_varint_frame_rejected;
          Alcotest.test_case "truncated frame close" `Quick
            test_truncated_frame_close;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "frozen clock never reaps" `Quick
            test_frozen_clock_never_reaps;
          Alcotest.test_case "stepping clock reaps" `Quick
            test_stepping_clock_reaps;
          Alcotest.test_case "group commit" `Quick test_group_commit;
          Alcotest.test_case "blob put splices the head" `Quick
            test_blob_put_splices_head;
          Alcotest.test_case "pipelined page puts share a group commit" `Quick
            test_pipelined_puts_share_group_commit;
          Alcotest.test_case "page puts keep nothing of the read buffer" `Quick
            test_page_puts_keep_no_read_buffer;
          Alcotest.test_case "max-size frame among neighbours" `Quick
            test_max_size_frame_among_neighbours;
          Alcotest.test_case "frames split at any offset" `Quick
            test_frames_split_anywhere;
          Alcotest.test_case "sockets have TCP_NODELAY" `Quick
            test_sockets_have_no_delay;
          Alcotest.test_case "half-close after a pipelined batch" `Quick
            test_half_close_after_pipelined_batch;
          Alcotest.test_case "coalesced replies keep order and bytes" `Quick
            test_coalesced_replies_keep_order;
          Alcotest.test_case "half-close with parsing paused" `Quick
            test_half_close_with_parsing_paused;
          Alcotest.test_case "oversized header while paused" `Quick
            test_oversized_header_while_paused;
          Alcotest.test_case "order past the output budget" `Quick
            test_order_past_the_budget;
        ] );
    ]
