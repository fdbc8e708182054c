type t = { fd : Unix.file_descr }

exception Redirected of string * int
exception Busy of string
exception Unknown_host of string
exception Disconnected
exception Remote_failure of string
exception Protocol_error of string

let () =
  Printexc.register_printer (function
    | Unknown_host h -> Some (Printf.sprintf "forkbase client: unknown host %S" h)
    | Disconnected -> Some "forkbase client: server closed the connection"
    | Remote_failure msg -> Some ("forkbase server error: " ^ msg)
    | Protocol_error msg -> Some ("forkbase protocol error: " ^ msg)
    | Redirected (host, port) ->
        Some (Printf.sprintf "forkbase: redirected to primary %s:%d" host port)
    | Busy reason -> Some ("forkbase: transient rejection, retry: " ^ reason)
    | _ -> None)

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) -> raise (Unknown_host host))

(* Transient refusals happen routinely when a client races server startup;
   retry with bounded exponential backoff (capped both in attempts and in
   per-wait duration) before giving up. *)
let connect ?(host = "127.0.0.1") ?(retries = 0) ?(backoff = 0.02)
    ?(max_backoff = 1.0) ~port () =
  Wire.ignore_sigpipe ();
  let addr = resolve host in
  let rec attempt left delay =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
    | () ->
        (* A frame over 64 KiB leaves in several writes, and Nagle can
           hold the last until the server's delayed ACK: 1-6% of 1 MB
           page puts stall ~40 ms without this (bench_remote). *)
        Wire.no_delay fd;
        { fd }
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when left > 0 ->
        Unix.close fd;
        Unix.sleepf delay;
        attempt (left - 1) (Float.min max_backoff (2. *. delay))
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt retries backoff

let fd t = t.fd
let close t = Unix.close t.fd

let call t req =
  match
    Wire.write_frame t.fd (Wire.encode_request req);
    Wire.read_frame t.fd
  with
  | Some frame -> Wire.decode_response frame
  | None | (exception Wire.Connection_closed) -> raise Disconnected

let expect_ok name = function
  | Wire.Error msg -> raise (Remote_failure (name ^ ": " ^ msg))
  | Wire.Redirect { host; port } -> raise (Redirected (host, port))
  | Wire.Retry { reason } -> raise (Busy reason)
  | resp -> resp

let unexpected name = raise (Protocol_error (name ^ ": unexpected response"))

let put ?(branch = "master") ?(context = "") t ~key value =
  match expect_ok "put" (call t (Wire.Put { key; branch; context; value })) with
  | Wire.Uid uid -> uid
  | _ -> unexpected "put"

let get ?(branch = "master") t ~key =
  match expect_ok "get" (call t (Wire.Get { key; branch })) with
  | Wire.Value v -> v
  | _ -> unexpected "get"

let get_version t uid =
  match expect_ok "get_version" (call t (Wire.Get_version { uid })) with
  | Wire.Value v -> v
  | _ -> unexpected "get_version"

let fork t ~key ~from_branch ~new_branch =
  match expect_ok "fork" (call t (Wire.Fork { key; from_branch; new_branch })) with
  | Wire.Ok_unit -> ()
  | _ -> unexpected "fork"

let merge ?(resolver = "manual") t ~key ~target ~ref_branch =
  match expect_ok "merge" (call t (Wire.Merge { key; target; ref_branch; resolver })) with
  | Wire.Uid uid -> uid
  | _ -> unexpected "merge"

let track ?(branch = "master") t ~key ~lo ~hi =
  match expect_ok "track" (call t (Wire.Track { key; branch; lo; hi })) with
  | Wire.History h -> h
  | _ -> unexpected "track"

let list_keys t =
  match expect_ok "list_keys" (call t Wire.List_keys) with
  | Wire.Keys ks -> ks
  | _ -> unexpected "list_keys"

let list_branches t ~key =
  match expect_ok "list_branches" (call t (Wire.List_branches { key })) with
  | Wire.Branches bs -> bs
  | _ -> unexpected "list_branches"

let verify t uid =
  match expect_ok "verify" (call t (Wire.Verify { uid })) with
  | Wire.Bool b -> b
  | _ -> unexpected "verify"

let stats t =
  match expect_ok "stats" (call t Wire.Stats) with
  | Wire.Stats_r s -> s
  | _ -> unexpected "stats"

let checkpoint t =
  match expect_ok "checkpoint" (call t Wire.Checkpoint) with
  | Wire.Reclaimed { chunks; bytes } -> (chunks, bytes)
  | _ -> unexpected "checkpoint"

let pull_journal t ~from_seq =
  match expect_ok "pull_journal" (call t (Wire.Pull_journal { from_seq })) with
  | Wire.Journal_batch { primary_seq; entries } -> (primary_seq, entries)
  | _ -> unexpected "pull_journal"

let fetch_chunks t cids =
  match expect_ok "fetch_chunks" (call t (Wire.Fetch_chunks { cids })) with
  | Wire.Chunks chunks -> chunks
  | _ -> unexpected "fetch_chunks"

let get_map t =
  match expect_ok "get_map" (call t Wire.Get_map) with
  | Wire.Map_r m -> m
  | _ -> unexpected "get_map"

let set_map t map =
  match expect_ok "set_map" (call t (Wire.Set_map { map })) with
  | Wire.Ok_unit -> ()
  | _ -> unexpected "set_map"

let push_chunks t chunks =
  match expect_ok "push_chunks" (call t (Wire.Push_chunks { chunks })) with
  | Wire.Ok_unit -> ()
  | _ -> unexpected "push_chunks"

let restore_branch t ~key ~branch uid =
  match
    expect_ok "restore_branch" (call t (Wire.Restore_branch { key; branch; uid }))
  with
  | Wire.Ok_unit -> ()
  | _ -> unexpected "restore_branch"

let export_key t ~key =
  match expect_ok "export_key" (call t (Wire.Export_key { key })) with
  | Wire.Branches bs -> bs
  | _ -> unexpected "export_key"

let quit_server t =
  match call t Wire.Quit with
  | Wire.Ok_unit -> ()
  | _ -> unexpected "quit"
