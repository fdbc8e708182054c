(* The forkbase binary end to end: each command runs as its own process
   over one FORKBASE_DIR, as a user runs it.  The printed results are
   checked, and a store swept by `gc` must still be whole for `fsck`. *)

module Chunk = Fbchunk.Chunk
module Log_store = Fbchunk.Log_store
module Client = Fbremote.Client

(* Resolve against the test binary, not the cwd: `dune runtest` runs
   tests from _build/default/test, `dune exec` from the project root. *)
let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/forkbase_cli.exe"

let env dir =
  Unix.environment () |> Array.to_list
  |> List.filter (fun e -> not (String.starts_with ~prefix:"FORKBASE_DIR=" e))
  |> List.cons ("FORKBASE_DIR=" ^ dir)
  |> Array.of_list

let argv args = Array.of_list (exe :: args)

let run dir args =
  let ((out, inp, err) as proc) =
    Unix.open_process_args_full exe (argv args) (env dir)
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full proc with
  | Unix.WEXITED 0 -> stdout
  | _ ->
      Alcotest.failf "forkbase %s failed: %s" (String.concat " " args) stderr

(* The exit code of a command that should exit on its own; one that runs
   on past 30 s is killed, which fails the test. *)
let wait_exit pid =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid : int * Unix.process_status);
        Alcotest.fail "command did not exit"
    | _, Unix.WEXITED code -> code
    | _, _ -> Alcotest.fail "command killed by a signal"
  in
  go ()

(* Run a command that must exit: its exit code and its combined output. *)
let run_status dir args =
  let path = Filename.temp_file "forkbase-cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid = Unix.create_process_env exe (argv args) (env dir) Unix.stdin fd fd in
  Unix.close fd;
  let code = wait_exit pid in
  (code, In_channel.with_open_bin path In_channel.input_all)

let check_fsck_clean run =
  let fsck = run [ "fsck" ] in
  Alcotest.(check bool) ("fsck clean: " ^ fsck) true
    (List.mem "clean: all invariants hold" (String.split_on_char '\n' fsck))

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

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
  check_fsck_clean run;
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

(* Every command that opens the store — the servers included — reports a
   corrupt log as one error line and exits 1, before serving anything. *)
let test_corrupt_store_is_an_error () =
  Testnet.with_temp_dir @@ fun dir ->
  let (_ : string) = run dir [ "put"; "note"; "hello" ] in
  (* a complete entry record whose payload is garbage *)
  let log = Log_store.open_ (Filename.concat dir "chunks.log") in
  let (_ : int) = Log_store.append_entry log "zzz" in
  Log_store.close log;
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, out = run_status dir args in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      let line = String.trim out in
      Alcotest.(check bool)
        (what ^ " reports the corrupt record: " ^ line)
        true
        (String.starts_with ~prefix:"error: log " line
        && contains line "corrupt record"))
    [
      [ "serve"; "--port"; "0" ];
      [ "shard"; "--index"; "0"; "--map"; "127.0.0.1:1"; "--port"; "0" ];
      [ "follow"; "--of"; "127.0.0.1:1"; "--port"; "0" ];
    ]

(* The binary's server group-commits: every acknowledged put is released
   by a shared fsync, and what it acknowledged is there after it stops. *)
let test_serve_group_commits () =
  Testnet.with_temp_dir @@ fun dir ->
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process_env exe
      (argv [ "serve"; "--port"; "0" ])
      (env dir) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  Fun.protect
    ~finally:(fun () ->
      close_in out;
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid : int * Unix.process_status)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
  @@ fun () ->
  let port =
    Scanf.sscanf (input_line out) "forkbase server listening on 127.0.0.1:%d"
      Fun.id
  in
  let n = 40 in
  let clients = [| Client.connect ~port (); Client.connect ~port () |] in
  for i = 1 to n do
    let (_ : Fbchunk.Cid.t) =
      Client.put clients.(i mod 2) ~key:"note"
        (Fbremote.Wire.Str (string_of_int i))
    in
    ()
  done;
  Array.iter Client.close clients;
  let stats = run dir [ "stats"; "--port"; string_of_int port ] in
  (match
     List.find_opt
       (String.starts_with ~prefix:"group commit:")
       (String.split_on_char '\n' stats)
   with
  | Some line ->
      Scanf.sscanf line "group commit: %d fsyncs, %d acks released"
        (fun fsyncs acks ->
          Alcotest.(check int) "one ack released per put" n acks;
          Alcotest.(check bool) "at least one group commit" true (fsyncs >= 1))
  | None -> Alcotest.failf "stats --port has no group commit line:\n%s" stats);
  let c = Client.connect ~port () in
  Client.quit_server c;
  Client.close c;
  Alcotest.(check int) "serve exits 0 on Quit" 0 (wait_exit pid);
  Alcotest.(check string) "the last acknowledged put"
    (string_of_int n ^ "\n")
    (run dir [ "get"; "note" ]);
  check_fsck_clean (run dir);
  List.iter
    (fun args ->
      let code, _ = run_status dir args in
      Alcotest.(check int)
        (String.concat " " args ^ " is a usage error")
        124 (* cmdliner's exit code for a command-line error *) code)
    [
      [ "serve"; "--no-group-commit" ];
      [ "shard"; "--index"; "0"; "--map"; "127.0.0.1:1"; "--port"; "0";
        "--no-group-commit" ];
    ]

let () =
  Alcotest.run "cli"
    [
      ( "smoke",
        [
          Alcotest.test_case "put/get/fork/merge/gc/fsck" `Quick test_commands;
          Alcotest.test_case "--via matches local" `Quick
            test_routed_matches_local;
          Alcotest.test_case "corrupt store is an error" `Quick
            test_corrupt_store_is_an_error;
          Alcotest.test_case "serve group-commits" `Quick
            test_serve_group_commits;
        ]
      );
    ]
