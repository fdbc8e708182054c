(* The forkbase binary end to end: each command runs as its own process
   over one FORKBASE_DIR, as a user runs it.  The printed results are
   checked, and a store swept by `gc` must still be whole for `fsck`. *)

module Chunk = Fbchunk.Chunk
module Log_store = Fbchunk.Log_store

(* Resolve against the test binary, not the cwd: `dune runtest` runs
   tests from _build/default/test, `dune exec` from the project root. *)
let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/forkbase_cli.exe"

let run dir args =
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun e -> not (String.starts_with ~prefix:"FORKBASE_DIR=" e))
    |> List.cons ("FORKBASE_DIR=" ^ dir)
    |> Array.of_list
  in
  let ((out, inp, err) as proc) =
    Unix.open_process_args_full exe (Array.of_list (exe :: args)) env
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full proc with
  | Unix.WEXITED 0 -> stdout
  | _ ->
      Alcotest.failf "forkbase %s failed: %s" (String.concat " " args) stderr

let check_uid what s =
  let s = String.trim s in
  Alcotest.(check int) (what ^ " prints a uid") 64 (String.length s);
  s

let test_commands () =
  Testnet.with_temp_dir @@ fun dir ->
  let page = Fbutil.Splitmix.alphanum (Fbutil.Splitmix.create 0xC11L) 12_000 in
  let run = run dir in
  let (_ : string) =
    check_uid "put" (run [ "put"; "note"; "hello"; "-m"; "first" ])
  in
  let (_ : string) =
    check_uid "put --blob" (run [ "put"; "--blob"; "page"; page ])
  in
  Alcotest.(check string) "get" "hello\n" (run [ "get"; "note" ]);
  Alcotest.(check string) "get blob" page (run [ "get"; "page" ]);
  Alcotest.(check string) "fork" "forked page: master -> draft\n"
    (run [ "fork"; "page"; "master"; "draft" ]);
  let draft =
    check_uid "put on a branch"
      (run [ "put"; "--blob"; "-b"; "draft"; "page"; page ^ "tail" ])
  in
  let merged =
    let out = run [ "merge"; "page"; "master"; "draft" ] in
    match String.split_on_char ' ' (String.trim out) with
    | [ "merged"; "->"; uid ] -> check_uid "merge" uid
    | _ -> Alcotest.fail "merge: unexpected output"
  in
  Alcotest.(check string) "branches"
    (Printf.sprintf "draft\t%s\nmaster\t%s\n" draft merged)
    (run [ "branches"; "page" ]);
  (match String.split_on_char '\n' (String.trim (run [ "log"; "page" ])) with
  | [ head; _; _ ] ->
      Alcotest.(check string) "log starts at the head"
        (Printf.sprintf "0   %s depth=2" merged) head
  | lines -> Alcotest.failf "log: %d lines, expected 3" (List.length lines));
  Alcotest.(check string) "merged value" (page ^ "tail")
    (run [ "get"; "page" ]);
  Alcotest.(check string) "verify" (merged ^ " OK\n")
    (run [ "verify"; "page" ]);
  (* plant one chunk nothing references: exactly what gc must reclaim *)
  let orphan = Chunk.v Chunk.Blob "unreferenced bytes" in
  let log = Log_store.open_ (Filename.concat dir "chunks.log") in
  ignore ((Log_store.store log).Fbchunk.Chunk_store.put orphan : Fbchunk.Cid.t);
  Log_store.close log;
  let reclaim =
    Printf.sprintf "1 chunks (%d bytes)\n" (Chunk.byte_size orphan)
  in
  Alcotest.(check string) "gc --dry-run" ("would reclaim " ^ reclaim)
    (run [ "gc"; "--dry-run" ]);
  Alcotest.(check string) "gc" ("reclaimed " ^ reclaim) (run [ "gc" ]);
  Alcotest.(check string) "nothing left to reclaim"
    "would reclaim 0 chunks (0 bytes)\n"
    (run [ "gc"; "--dry-run" ]);
  let fsck = run [ "fsck" ] in
  Alcotest.(check bool) ("fsck clean after gc: " ^ fsck) true
    (List.mem "clean: all invariants hold" (String.split_on_char '\n' fsck));
  Alcotest.(check string) "draft survives gc" (page ^ "tail")
    (run [ "get"; "-b"; "draft"; "page" ]);
  Alcotest.(check string) "note survives gc" "hello\n" (run [ "get"; "note" ])

(* The same commands routed with --via through a 2-shard cluster print
   the same bytes as against a local store: one printer serves both. *)
let test_routed_matches_local () =
  Testnet.with_temp_dir @@ fun local ->
  Testnet.with_temp_dir @@ fun d0 ->
  Testnet.with_temp_dir @@ fun d1 ->
  let procs, map = Fbshard.Shard.spawn_cluster ~dirs:[ d0; d1 ] () in
  Fun.protect ~finally:(fun () -> List.iter Fbremote.Procs.kill procs)
  @@ fun () ->
  let via =
    let host, port = Fbshard.Shard_map.addr map 0 in
    Printf.sprintf "%s:%d" host port
  in
  let run = run local in
  let both = function
    | cmd :: args -> (run (cmd :: args), run (cmd :: "--via" :: via :: args))
    | [] -> invalid_arg "both"
  in
  let page = Fbutil.Splitmix.alphanum (Fbutil.Splitmix.create 0xC12L) 9_000 in
  List.iter
    (fun args ->
      let here, routed = both ("put" :: args) in
      Alcotest.(check string) "put --via prints the local uid" here routed)
    [ [ "note"; "hello" ]; [ "--blob"; "page"; page ] ];
  List.iter
    (fun key ->
      let here, routed = both [ "get"; key ] in
      Alcotest.(check string) ("get --via " ^ key) here routed)
    [ "note"; "page" ];
  Alcotest.(check string) "a blob prints without a trailing newline" page
    (snd (both [ "get"; "page" ]))

let () =
  Alcotest.run "cli"
    [
      ( "smoke",
        [
          Alcotest.test_case "put/get/fork/merge/gc/fsck" `Quick test_commands;
          Alcotest.test_case "--via matches local" `Quick
            test_routed_matches_local;
        ]
      );
    ]
