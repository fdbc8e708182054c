module C = Fbutil.Codec
module Cid = Fbchunk.Cid

type value =
  | Str of string
  | Blob of string
  | List of string list
  | Map of (string * string) list
  | Set of string list

type shard_map = {
  version : int;
  shards : (string * int) array;
  pending : string list;
}

type request =
  | Put of { key : string; branch : string; context : string; value : value }
  | Get of { key : string; branch : string }
  | Get_version of { uid : Cid.t }
  | Fork of { key : string; from_branch : string; new_branch : string }
  | Merge of { key : string; target : string; ref_branch : string; resolver : string }
  | Track of { key : string; branch : string; lo : int; hi : int }
  | List_keys
  | List_branches of { key : string }
  | Verify of { uid : Cid.t }
  | Stats
  | Checkpoint
  | Pull_journal of { from_seq : int }
  | Fetch_chunks of { cids : Cid.t list }
  | Get_map
  | Set_map of { map : shard_map }
  | Push_chunks of { chunks : string list }
  | Restore_branch of { key : string; branch : string; uid : Cid.t }
  | Export_key of { key : string }
  | Quit

type stats = {
  chunks : int;
  bytes : int;
  puts : int;
  dedup_hits : int;
  gets : int;
  misses : int;
  keys : int;
  branches : int;  (** tagged branches over all keys *)
  journal_seq : int;
  journal_bytes : int;
  (* server connection counters; all zero when the stats come from an
     embedded db rather than a running server *)
  accepted : int;
  active : int;
  closed_ok : int;
  closed_err : int;
  frames_in : int;
  frames_out : int;
  timeouts : int;
  group_commits : int;
  acks_released : int;
  (* sharding; [shard_index] is [-1] and [map_version] is [0] when the
     server is not part of a sharded cluster *)
  shard_index : int;
  map_version : int;
}

type response =
  | Uid of Cid.t
  | Value of value
  | Ok_unit
  | Keys of string list
  | Branches of (string * Cid.t) list
  | History of (int * Cid.t) list
  | Bool of bool
  | Stats_r of stats
  | Reclaimed of { chunks : int; bytes : int }
  | Journal_batch of { primary_seq : int; entries : string list }
  | Chunks of string list
  | Redirect of { host : string; port : int }
  | Map_r of shard_map
  | Retry of { reason : string }
  | Error of string

(* Every layout is stated once, as a {!Fbutil.Codec} value: a variant's
   tag byte, field layout and constructor live in one case, the encoder
   is an exhaustive match handing each constructor's fields to its case,
   and the decoder dispatches through the table the cases registered. *)

let shard_map =
  C.conv
    (fun m -> (m.version, Array.to_list m.shards, m.pending))
    (fun (version, shards, pending) -> { version; shards = Array.of_list shards; pending })
    C.(triple uint (seq (pair str uint)) (seq str))

(* The one request that carries a page, a [Put] of a [Blob], is also
   decoded without copying its page ([decode_page_put]); it reads the
   tags and fields the cases below are built from. *)
let put_tag = 'P'
let blob_tag = 'b'

(* A put's key, branch and context; its value follows them. *)
let put_fields = C.(triple str str str)

let value =
  let cases = C.cases "wire value" in
  let str = C.case cases 's' C.str (fun s -> Str s) in
  let blob = C.case cases blob_tag C.str (fun b -> Blob b) in
  let list = C.case cases 'l' (C.seq C.str) (fun l -> List l) in
  let map = C.case cases 'm' (C.seq (C.pair C.str C.str)) (fun kvs -> Map kvs) in
  let set = C.case cases 'e' (C.seq C.str) (fun ms -> Set ms) in
  C.variant cases (function
    | Str s -> str s
    | Blob b -> blob b
    | List l -> list l
    | Map kvs -> map kvs
    | Set ms -> set ms)

let request =
  let cases = C.cases "wire request" in
  let case tag arg inj = C.case cases tag arg inj and const = C.const cases in
  let put = case put_tag C.(pair put_fields value) (fun ((key, branch, context), value) ->
      Put { key; branch; context; value }) in
  let get = case 'G' C.(pair str str) (fun (key, branch) -> Get { key; branch }) in
  let get_version = case 'V' Cid.codec (fun uid -> Get_version { uid }) in
  let fork = case 'F' C.(triple str str str) (fun (key, from_branch, new_branch) ->
      Fork { key; from_branch; new_branch }) in
  let merge = case 'M' C.(quad str str str str) (fun (key, target, ref_branch, resolver) ->
      Merge { key; target; ref_branch; resolver }) in
  let track = case 'T' C.(quad str str uint uint) (fun (key, branch, lo, hi) ->
      Track { key; branch; lo; hi }) in
  let list_keys = const 'K' List_keys in
  let list_branches = case 'B' C.str (fun key -> List_branches { key }) in
  let verify = case 'Y' Cid.codec (fun uid -> Verify { uid }) in
  let stats = const 'S' Stats and checkpoint = const 'C' Checkpoint in
  let pull_journal = case 'J' C.uint (fun from_seq -> Pull_journal { from_seq }) in
  let fetch_chunks = case 'X' (C.seq Cid.codec) (fun cids -> Fetch_chunks { cids }) in
  let get_map = const 'W' Get_map in
  let set_map = case 'I' shard_map (fun map -> Set_map { map }) in
  let push_chunks = case 'U' C.(seq str) (fun chunks -> Push_chunks { chunks }) in
  let restore_branch = case 'R' C.(triple str str Cid.codec) (fun (key, branch, uid) ->
      Restore_branch { key; branch; uid }) in
  let export_key = case 'E' C.str (fun key -> Export_key { key }) in
  let quit = const 'Q' Quit in
  C.variant cases (function
    | Put { key; branch; context; value } -> put ((key, branch, context), value)
    | Get { key; branch } -> get (key, branch)
    | Get_version { uid } -> get_version uid
    | Fork { key; from_branch; new_branch } -> fork (key, from_branch, new_branch)
    | Merge { key; target; ref_branch; resolver } -> merge (key, target, ref_branch, resolver)
    | Track { key; branch; lo; hi } -> track (key, branch, lo, hi)
    | List_keys -> list_keys
    | List_branches { key } -> list_branches key
    | Verify { uid } -> verify uid
    | Stats -> stats
    | Checkpoint -> checkpoint
    | Pull_journal { from_seq } -> pull_journal from_seq
    | Fetch_chunks { cids } -> fetch_chunks cids
    | Get_map -> get_map
    | Set_map { map } -> set_map map
    | Push_chunks { chunks } -> push_chunks chunks
    | Restore_branch { key; branch; uid } -> restore_branch (key, branch, uid)
    | Export_key { key } -> export_key key
    | Quit -> quit)

(* A fixed run of 21 varints.  Varints reject negatives, so the "not a
   shard" index -1 travels as 0 and real indices as index + 1. *)
let stats =
  C.conv
    (fun s ->
      [ s.chunks; s.bytes; s.puts; s.dedup_hits; s.gets; s.misses; s.keys;
        s.branches; s.journal_seq; s.journal_bytes; s.accepted; s.active;
        s.closed_ok; s.closed_err; s.frames_in; s.frames_out; s.timeouts;
        s.group_commits; s.acks_released; s.shard_index + 1; s.map_version ])
    (function
      | [ chunks; bytes; puts; dedup_hits; gets; misses; keys; branches;
          journal_seq; journal_bytes; accepted; active; closed_ok; closed_err;
          frames_in; frames_out; timeouts; group_commits; acks_released;
          shard_index; map_version ] ->
          { chunks; bytes; puts; dedup_hits; gets; misses; keys; branches;
            journal_seq; journal_bytes; accepted; active; closed_ok;
            closed_err; frames_in; frames_out; timeouts; group_commits;
            acks_released; shard_index = shard_index - 1; map_version }
      | _ -> raise (C.Corrupt "wire: stats are 21 varints"))
    (C.repeat 21 C.uint)

let response =
  let cases = C.cases "wire response" in
  let case tag arg inj = C.case cases tag arg inj in
  let uid = case 'u' Cid.codec (fun uid -> Uid uid) in
  let value = case 'v' value (fun v -> Value v) in
  let ok_unit = C.const cases 'o' Ok_unit in
  let keys = case 'k' C.(seq str) (fun ks -> Keys ks) in
  let branches = case 'r' C.(seq (pair str Cid.codec)) (fun bs -> Branches bs) in
  let history = case 'h' C.(seq (pair uint Cid.codec)) (fun hs -> History hs) in
  let bool = case 't' C.flag (fun b -> Bool b) in
  let stats = case 's' stats (fun s -> Stats_r s) in
  let reclaimed = case 'c' C.(pair uint uint) (fun (chunks, bytes) ->
      Reclaimed { chunks; bytes }) in
  let journal_batch = case 'j' C.(pair uint (seq str)) (fun (primary_seq, entries) ->
      Journal_batch { primary_seq; entries }) in
  let chunks = case 'n' C.(seq str) (fun cs -> Chunks cs) in
  let redirect = case 'd' C.(pair str uint) (fun (host, port) -> Redirect { host; port }) in
  let map = case 'm' shard_map (fun m -> Map_r m) in
  let retry = case 'y' C.str (fun reason -> Retry { reason }) in
  let error = case 'x' C.str (fun msg -> Error msg) in
  C.variant cases (function
    | Uid u -> uid u
    | Value v -> value v
    | Ok_unit -> ok_unit
    | Keys ks -> keys ks
    | Branches bs -> branches bs
    | History hs -> history hs
    | Bool b -> bool b
    | Stats_r s -> stats s
    | Reclaimed { chunks; bytes } -> reclaimed (chunks, bytes)
    | Journal_batch { primary_seq; entries } -> journal_batch (primary_seq, entries)
    | Chunks cs -> chunks cs
    | Redirect { host; port } -> redirect (host, port)
    | Map_r m -> map m
    | Retry { reason } -> retry reason
    | Error msg -> error msg)

let encode_shard_map = C.encode shard_map
let decode_shard_map = C.decode shard_map
let encode_request = C.encode ~size:128 request
let decode_request = C.decode request
let decode_request_sub s ~pos ~len = C.decode_sub request s ~pos ~len

type page_put = {
  key : string;
  branch : string;
  context : string;
  src : string;
  pos : int;
  len : int;
}

let decode_page_put s ~pos ~len =
  let r = C.sub_reader s ~pos ~len in
  if C.read_byte r <> put_tag then None
  else
    let key, branch, context = C.read put_fields r in
    if C.read_byte r <> blob_tag then None
    else begin
      let pos, len = C.read_span r in
      C.expect_end r;
      Some { key; branch; context; src = s; pos; len }
    end

let encode_response = C.encode ~size:128 response
let decode_response = C.decode response

(* --- framing --- *)

exception Connection_closed

let default_max_frame_bytes = 4 * 1024 * 1024

let ignore_sigpipe () =
  (* A peer closing mid-write must surface as EPIPE from [write], not as a
     process-killing signal. *)
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* [Unix.write]/[Unix.read] on blocking sockets: retry interrupted syscalls
   and turn a vanished peer into a clean, typed condition instead of an
   untyped [Unix_error] (or a fatal SIGPIPE, see [ignore_sigpipe]). *)
let really_write fd bytes off len =
  let written = ref 0 in
  while !written < len do
    match Unix.write fd bytes (off + !written) (len - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _)
      ->
        raise Connection_closed
  done

let really_read fd bytes off len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    match Unix.read fd bytes (off + !got) (len - !got) with
    | 0 -> eof := true
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception
        Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.ESHUTDOWN), _, _)
      ->
        (* a reset peer reads as end-of-stream *)
        eof := true
  done;
  not !eof

let header_bytes = 4

let encode_frame body =
  let n = String.length body in
  let frame = Bytes.create (header_bytes + n) in
  Bytes.set frame 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set frame 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set frame 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set frame 3 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 frame 4 n;
  Bytes.unsafe_to_string frame

(* The header and body built in [buf] and taken out in one copy: the one
   allocation a response frame costs.  The header is a placeholder until
   the body's length is known. *)
let response_frame buf r =
  Buffer.clear buf;
  Buffer.add_string buf "\000\000\000\000";
  C.write response buf r;
  let frame = Buffer.to_bytes buf in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length frame - header_bytes));
  Bytes.unsafe_to_string frame

let frame_length b0 b1 b2 b3 =
  (Char.code b0 lsl 24) lor (Char.code b1 lsl 16) lor (Char.code b2 lsl 8)
  lor Char.code b3

let check_frame_length ~max_frame_bytes n =
  if n > max_frame_bytes then
    raise
      (C.Corrupt
         (Printf.sprintf "frame length %d exceeds limit %d" n max_frame_bytes))

let write_frame fd body =
  let frame = encode_frame body in
  really_write fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

let read_frame ?(max_frame_bytes = default_max_frame_bytes) fd =
  let header = Bytes.create header_bytes in
  if not (really_read fd header 0 header_bytes) then None
  else begin
    let n =
      frame_length (Bytes.get header 0) (Bytes.get header 1)
        (Bytes.get header 2) (Bytes.get header 3)
    in
    (* Reject before [Bytes.create n]: a corrupt or hostile header must not
       force a ~4 GiB allocation attempt. *)
    check_frame_length ~max_frame_bytes n;
    let body = Bytes.create n in
    if not (really_read fd body 0 n) then None
    else Some (Bytes.unsafe_to_string body)
  end

(* --- nonblocking wrappers (the server event loop) ---

   The raw syscalls live here, next to their blocking cousins, so every
   EINTR/EAGAIN/peer-vanished case is classified in exactly one place;
   the syscall-discipline lint rule bans [Unix.read]/[write]/[select]/
   [accept] everywhere else. *)

type nb_read = Nb_read of int | Nb_eof | Nb_nothing | Nb_read_error

let read_nb fd buf ~pos ~len =
  match Unix.read fd buf pos len with
  | 0 -> Nb_eof
  | n -> Nb_read n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      Nb_nothing
  | exception Unix.Unix_error _ -> Nb_read_error

type nb_write = Nb_wrote of int | Nb_blocked | Nb_write_error

let rec write_nb fd s ~pos ~len =
  match Unix.write_substring fd s pos len with
  | n -> Nb_wrote n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_nb fd s ~pos ~len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Nb_blocked
  | exception Unix.Unix_error _ -> Nb_write_error

(* Served sockets send without Nagle's algorithm: the server already
   joins small answers into writes of up to 64 KiB, and Nagle would only
   hold a short ack write until the client's delayed ACK (~40 ms) when the
   client has nothing more to send. *)
let no_delay fd =
  (* a socket that cannot take the option is served as it is *)
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let accept_nb fd =
  match Unix.accept fd with
  | (conn, _) as accepted ->
      no_delay conn;
      Some accepted
  | exception Unix.Unix_error _ ->
      (* EAGAIN/EWOULDBLOCK/EINTR and genuine accept errors alike: nothing
         usable was accepted this round; the select loop comes back. *)
      None

let select_nb reads writes timeout =
  match Unix.select reads writes [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
