(* Sharded serving (lib/shard): the partition map as a versioned
   artifact, per-shard ownership enforcement, dispatcher routing, the
   sim-vs-real differential, crash/restart, and the fence/copy/lift
   rebalance — all over real forked shard processes on kernel-assigned
   ephemeral ports (testnet's port discipline), so `dune build @cluster`
   is a deterministic multi-process smoke that never collides with
   concurrent test binaries. *)

module Wire = Fbremote.Wire
module Client = Fbremote.Client
module Procs = Fbremote.Procs
module Shard = Fbshard.Shard
module Shard_map = Fbshard.Shard_map
module Dispatch = Fbshard.Dispatch
module C = Fbcluster.Cluster
module Db = Forkbase.Db
module Fsck = Fbcheck.Fsck

let with_temp_dirs n f =
  let rec go acc = function
    | 0 -> f (List.rev acc)
    | n -> Testnet.with_temp_dir (fun d -> go (d :: acc) (n - 1))
  in
  go [] n

(* Spawn [n] real shard processes over fresh store dirs; kill them all
   on the way out (Procs.kill is idempotent, so tests that already
   killed or quit a shard are fine). *)
let with_cluster n f =
  with_temp_dirs n (fun dirs ->
      let procs, map = Shard.spawn_cluster ~dirs () in
      Fun.protect
        ~finally:(fun () -> List.iter Procs.kill procs)
        (fun () -> f dirs procs map))

let with_dispatcher map f =
  let d = Dispatch.of_map map in
  Fun.protect ~finally:(fun () -> Dispatch.close d) (fun () -> f d)

(* A key owned by shard [i] under [map], for targeting specific shards. *)
let key_owned_by map i =
  let rec go k =
    let key = Printf.sprintf "key-%d" k in
    if Shard_map.owner map key = i then key else go (k + 1)
  in
  go 0

let check_fsck_clean dir =
  let report = Fsck.check_dir dir in
  if not (Fsck.ok report) then
    Alcotest.failf "%s not fsck-clean: %a" dir Fsck.pp_report report

(* --- the map artifact --- *)

let test_map_codec_roundtrip () =
  let map =
    { Wire.version = 7; shards = [| ("127.0.0.1", 4001); ("10.0.0.2", 4002) |];
      pending = [ "moving-a"; "moving-b" ] }
  in
  Alcotest.(check bool) "map round-trips" true
    (Wire.decode_shard_map (Wire.encode_shard_map map) = map)

let test_map_file_roundtrip () =
  Testnet.with_temp_dir (fun dir ->
      Alcotest.(check bool) "no map yet" true (Shard_map.load ~dir = None);
      let map =
        Shard_map.create ~version:3 [ ("127.0.0.1", 5000); ("127.0.0.1", 5001) ]
      in
      Shard_map.save ~dir map;
      match Shard_map.load ~dir with
      | None -> Alcotest.fail "saved map did not load"
      | Some loaded ->
          Alcotest.(check int) "version" 3 loaded.Wire.version;
          Alcotest.(check int) "shards" 2 (Shard_map.n loaded))

let test_map_parse_addrs () =
  Alcotest.(check (list (pair string int)))
    "parse"
    [ ("127.0.0.1", 4000); ("host-b", 4001) ]
    (Shard_map.parse_addrs "127.0.0.1:4000,host-b:4001");
  Alcotest.(check bool) "malformed raises" true
    (match Shard_map.parse_addrs "no-port" with
    | exception Shard_map.Bad_map _ -> true
    | _ -> false)

(* --- ownership enforcement on real shards --- *)

let test_ownership_redirect () =
  with_cluster 2 (fun _dirs _procs map ->
      let host, port = Shard_map.addr map 0 in
      let c = Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* shard 0 reports itself and the installed map *)
          let served = Client.get_map c in
          Alcotest.(check int) "map version" 1 served.Wire.version;
          let s = Client.stats c in
          Alcotest.(check int) "shard_index" 0 s.Wire.shard_index;
          Alcotest.(check int) "stats map_version" 1 s.Wire.map_version;
          (* a key homed here is served *)
          let mine = key_owned_by map 0 in
          let (_ : Fbchunk.Cid.t) =
            Client.put c ~key:mine (Wire.Str "owned")
          in
          (* a key homed on shard 1 answers Redirect with the owner's
             address — the client's stale-map signal *)
          let theirs = key_owned_by map 1 in
          let h1, p1 = Shard_map.addr map 1 in
          match Client.put c ~key:theirs (Wire.Str "not-owned") with
          | (_ : Fbchunk.Cid.t) -> Alcotest.fail "foreign key accepted"
          | exception Client.Redirected (h, p) ->
              Alcotest.(check string) "redirect host" h1 h;
              Alcotest.(check int) "redirect port" p1 p))

let test_stale_map_rejected () =
  with_cluster 2 (fun _dirs _procs map ->
      let host, port = Shard_map.addr map 0 in
      let c = Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* installing version <= served version is refused: map
             versions only move forward *)
          match Client.set_map c map with
          | () -> Alcotest.fail "stale map install accepted"
          | exception Client.Remote_failure _ -> ()))

(* --- dispatcher end to end --- *)

let test_dispatcher_basic_ops () =
  with_cluster 2 (fun _dirs _procs map ->
      with_dispatcher map (fun d ->
          let keys = List.init 40 (Printf.sprintf "key-%d") in
          List.iter
            (fun key ->
              let (_ : Fbchunk.Cid.t) =
                Dispatch.put d ~key (Wire.Str ("v:" ^ key))
              in
              ())
            keys;
          List.iter
            (fun key ->
              match Dispatch.get d ~key with
              | Wire.Str s -> Alcotest.(check string) key ("v:" ^ key) s
              | _ -> Alcotest.failf "%s: wrong value shape" key)
            keys;
          (* cross-branch ops route like everything else *)
          Dispatch.fork d ~key:"key-3" ~from_branch:"master"
            ~new_branch:"feature";
          let (_ : Fbchunk.Cid.t) =
            Dispatch.put d ~branch:"feature" ~key:"key-3" (Wire.Str "forked")
          in
          let (_ : Fbchunk.Cid.t) =
            Dispatch.merge d ~key:"key-3" ~target:"master"
              ~ref_branch:"feature"
          in
          (match Dispatch.get d ~key:"key-3" with
          | Wire.Str s -> Alcotest.(check string) "merged" "forked" s
          | _ -> Alcotest.fail "merge result shape");
          (* list_keys is the union over shards *)
          Alcotest.(check (list string))
            "all keys listed" (List.sort compare keys)
            (Dispatch.list_keys d);
          (* both shards hold some keys, and stats identify them *)
          let stats = Dispatch.stats d in
          Alcotest.(check int) "two shards" 2 (List.length stats);
          List.iteri
            (fun i s ->
              Alcotest.(check int) "identifies itself" i s.Wire.shard_index;
              Alcotest.(check bool)
                (Printf.sprintf "shard %d holds keys" i)
                true (s.Wire.keys > 0))
            stats))

(* A shard is a durable primary: its acknowledged puts are released by
   group commits, one ack per put. *)
let test_shard_group_commits () =
  with_cluster 2 (fun _dirs _procs map ->
      with_dispatcher map (fun d ->
          let k = 25 in
          let key = key_owned_by map 0 in
          for i = 1 to k do
            let (_ : Fbchunk.Cid.t) =
              Dispatch.put d ~key (Wire.Str (string_of_int i))
            in
            ()
          done;
          match Dispatch.stats d with
          | [ s0; s1 ] ->
              Alcotest.(check int) "one ack released per put" k
                s0.Wire.acks_released;
              Alcotest.(check bool) "released by group commits" true
                (s0.Wire.group_commits >= 1);
              Alcotest.(check int) "the other shard acked nothing" 0
                s1.Wire.acks_released
          | stats -> Alcotest.failf "%d shards" (List.length stats)))

(* --- differential: real sharded cluster vs lib/cluster simulation --- *)

let test_differential_sim_vs_real () =
  let n = 4 in
  with_cluster n (fun _dirs _procs map ->
      with_dispatcher map (fun d ->
          let sim = C.create ~n C.Two_layer in
          let rng = Fbutil.Splitmix.create 77L in
          let heads_equal = ref 0 in
          for i = 0 to 29 do
            let key = Printf.sprintf "page-%02d" i in
            let content = Fbutil.Splitmix.alphanum rng 9_000 in
            let sdb = C.db_for_key sim key in
            let sim_head = Db.put sdb ~key (Db.blob sdb content) in
            let real_head = Dispatch.put_scattered d ~key content in
            if Fbchunk.Cid.equal sim_head real_head then incr heads_equal
          done;
          Alcotest.(check int) "every head identical" 30 !heads_equal;
          (* reads gather the scattered chunks back *)
          (match Dispatch.get_scattered d ~key:"page-00" with
          | Some (Fbtypes.Value.Blob b) ->
              Alcotest.(check int) "blob length" 9_000
                (Fbtypes.Fblob.length b)
          | _ -> Alcotest.fail "page-00 unreadable");
          (* chunk placement matches the simulation node for node: same
             chunk count and byte count per storage — the two-layer
             split de-simulated without drift *)
          let sim_bytes = Array.to_list (C.storage_distribution sim) in
          let real = Dispatch.stats d in
          Alcotest.(check (list int))
            "per-node stored bytes" sim_bytes
            (List.map (fun s -> s.Wire.bytes) real)))

(* --- crash / restart --- *)

let test_shard_kill_restart () =
  with_cluster 2 (fun dirs procs map ->
      with_dispatcher map (fun d ->
          let keys = List.init 20 (Printf.sprintf "key-%d") in
          List.iter
            (fun key ->
              ignore (Dispatch.put d ~key (Wire.Str ("v1:" ^ key)) : Fbchunk.Cid.t))
            keys;
          (* SIGKILL shard 0 mid-flight, then respawn it on the same
             port over the same dir — the supervisor-restart shape *)
          let victim = List.nth procs 0 in
          let port0 = Procs.port victim in
          Procs.kill victim;
          let dir0 = List.nth dirs 0 in
          let revived = Shard.spawn ~port:port0 ~dir:dir0 ~self:0 ~map () in
          Fun.protect
            ~finally:(fun () -> Procs.kill revived)
            (fun () ->
              (* all pre-crash writes survive, and writes continue *)
              List.iter
                (fun key ->
                  match Dispatch.get d ~key with
                  | Wire.Str s ->
                      Alcotest.(check string) key ("v1:" ^ key) s
                  | _ -> Alcotest.failf "%s lost across restart" key)
                keys;
              List.iter
                (fun key ->
                  ignore
                    (Dispatch.put d ~key (Wire.Str ("v2:" ^ key))
                      : Fbchunk.Cid.t))
                keys;
              Dispatch.quit_all d;
              List.iter check_fsck_clean dirs)))

(* --- live rebalance: fence / copy / lift --- *)

let test_live_rebalance () =
  with_cluster 2 (fun dirs procs map ->
      with_dispatcher map (fun d ->
          (* acked[key] is the oracle: the last value whose put returned.
             Anything acknowledged before, during, or after the rebalance
             must be readable afterwards — zero lost acknowledged
             writes. *)
          let acked = Hashtbl.create 64 in
          let put key value =
            ignore (Dispatch.put d ~key (Wire.Str value) : Fbchunk.Cid.t);
            Hashtbl.replace acked key value
          in
          for i = 0 to 39 do
            put (Printf.sprintf "key-%d" i) (Printf.sprintf "pre-%d" i)
          done;
          (* grow 2 -> 3: spawn the new shard over a fresh store (its
             [self] is outside the current map, so it owns nothing and
             serves nothing until the rebalance installs the grown
             map), then drive fence / copy / lift while writing *)
          Testnet.with_temp_dir (fun dir2 ->
              let extra = Shard.spawn ~dir:dir2 ~self:2 ~map () in
              Fun.protect
                ~finally:(fun () -> Procs.kill extra)
                (fun () ->
                  let host, port =
                    ("127.0.0.1", Procs.port extra)
                  in
                  let moved = Dispatch.add_shard d ~host ~port in
                  Alcotest.(check bool)
                    (Printf.sprintf "keys moved (%d)" moved)
                    true (moved > 0);
                  Alcotest.(check int) "map grew" 3
                    (Shard_map.n (Dispatch.map d));
                  Alcotest.(check (list string)) "fence lifted" []
                    (Dispatch.map d).Wire.pending;
                  (* writes keep landing under the new map *)
                  for i = 0 to 39 do
                    if i mod 3 = 0 then
                      put
                        (Printf.sprintf "key-%d" i)
                        (Printf.sprintf "post-%d" i)
                  done;
                  (* the oracle: every acknowledged write is readable *)
                  Hashtbl.iter
                    (fun key value ->
                      match Dispatch.get d ~key with
                      | Wire.Str s ->
                          Alcotest.(check string) key value s
                      | _ -> Alcotest.failf "%s lost in rebalance" key)
                    acked;
                  (* the new shard really serves its slice *)
                  let stats = Dispatch.stats d in
                  Alcotest.(check int) "three shards" 3 (List.length stats);
                  List.iter
                    (fun s ->
                      Alcotest.(check int) "served map version"
                        (Dispatch.map d).Wire.version s.Wire.map_version)
                    stats;
                  Dispatch.quit_all d;
                  Procs.kill extra;
                  List.iter Procs.kill procs;
                  List.iter check_fsck_clean (dirs @ [ dir2 ])))))

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_map_codec_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_map_file_roundtrip;
          Alcotest.test_case "parse addrs" `Quick test_map_parse_addrs;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "redirect" `Quick test_ownership_redirect;
          Alcotest.test_case "stale map rejected" `Quick
            test_stale_map_rejected;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "basic ops" `Quick test_dispatcher_basic_ops;
          Alcotest.test_case "shard group-commits" `Quick
            test_shard_group_commits;
          Alcotest.test_case "differential sim-vs-real" `Quick
            test_differential_sim_vs_real;
        ] );
      ( "faults",
        [
          Alcotest.test_case "kill and restart" `Quick test_shard_kill_restart;
          Alcotest.test_case "live rebalance" `Quick test_live_rebalance;
        ] );
    ]
