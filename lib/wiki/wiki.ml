module Db = Forkbase.Db
module Store = Fbchunk.Chunk_store
module Value = Fbtypes.Value
module Fblob = Fbtypes.Fblob

type engine = {
  name : string;
  save : page:string -> content:string -> unit;
  read_latest : page:string -> string option;
  read_back : page:string -> back:int -> string option;
  version_count : page:string -> int;
  diff_size : page:string -> back:int -> int option;
  storage_bytes : unit -> int;
  net_read_bytes : unit -> int;
}

type server = {
  srv_db : Db.t;
  srv_store : Store.t;
  srv_cfg : Fbtree.Tree_config.t;
}

let forkbase_server ?(cfg = Fbtree.Tree_config.default) server_store =
  { srv_db = Db.create ~cfg server_store; srv_store = server_store; srv_cfg = cfg }

let forkbase_client ?(client_cache = 4096) server =
  (* The servlet (branch tables + object manager) runs against the server
     store directly.  The client pulls value chunks over a counted link
     fronted by its chunk cache; cache hits never touch the counter. *)
  let db = server.srv_db and cfg = server.srv_cfg
  and server_store = server.srv_store in
  let read_bytes = ref 0 and written_bytes = ref 0 in
  let counted = Store.counting server_store ~read_bytes ~written_bytes in
  let client_store =
    if client_cache > 0 then Store.with_cache ~capacity:client_cache counted
    else counted
  in
  let save ~page ~content =
    let (_ : Fbchunk.Cid.t) = Db.put_blob db ~key:page ~pos:0 ~len:(String.length content) content
    in
    ()
  in
  (* Fetch a version's Blob through the client-side store so transferred
     bytes are accounted. *)
  let blob_of_version uid =
    match Db.get_object db uid with
    | Ok obj when obj.Forkbase.Fobject.kind = Value.Kblob ->
        Some
          (Fblob.of_root client_store cfg
             (Fbchunk.Cid.of_raw obj.Forkbase.Fobject.data))
    | _ -> None
  in
  let read_latest ~page =
    match Db.head db ~key:page with
    | Ok uid -> Option.map Fblob.to_string (blob_of_version uid)
    | Error _ -> None
  in
  let version_at ~page ~back =
    match Db.track db ~key:page ~dist_range:(back, back) with
    | Ok [ (_, uid, _) ] -> Some uid
    | _ -> None
  in
  let read_back ~page ~back =
    Option.bind (version_at ~page ~back) (fun uid ->
        Option.map Fblob.to_string (blob_of_version uid))
  in
  let version_count ~page =
    match Db.track db ~key:page ~dist_range:(0, max_int) with
    | Ok versions -> List.length versions
    | Error _ -> 0
  in
  let diff_size ~page ~back =
    match (version_at ~page ~back:0, version_at ~page ~back) with
    | Some latest, Some old -> (
        match (blob_of_version latest, blob_of_version old) with
        | Some b1, Some b2 -> (
            match Fblob.diff_region b1 b2 with
            | None -> Some 0
            | Some ((_, l1), (_, l2)) -> Some (max l1 l2))
        | _ -> None)
    | _ -> None
  in
  {
    name = "ForkBase";
    save;
    read_latest;
    read_back;
    version_count;
    diff_size;
    storage_bytes = (fun () -> (server_store.Store.stats ()).Store.bytes);
    net_read_bytes = (fun () -> !read_bytes);
  }

let forkbase_engine ?cfg ?client_cache server_store =
  forkbase_client ?client_cache (forkbase_server ?cfg server_store)

let redis_engine redis =
  let module R = Redislike.Redis in
  let save ~page ~content =
    let (_ : int) = R.rpush redis page content in
    ()
  in
  let read_latest ~page = R.lindex redis page (-1) in
  let read_back ~page ~back = R.lindex redis page (-1 - back) in
  let version_count ~page = R.llen redis page in
  let diff_size ~page ~back =
    (* Redis has no structural diff: fetch both versions and compare. *)
    match (read_latest ~page, read_back ~page ~back) with
    | Some a, Some b ->
        let n = min (String.length a) (String.length b) in
        let p = ref 0 in
        while !p < n && a.[!p] = b.[!p] do
          incr p
        done;
        let s = ref 0 in
        while !s < n - !p && a.[String.length a - 1 - !s] = b.[String.length b - 1 - !s] do
          incr s
        done;
        Some (max (String.length a) (String.length b) - !p - !s)
    | _ -> None
  in
  {
    name = "Redis";
    save;
    read_latest;
    read_back;
    version_count;
    diff_size;
    storage_bytes = (fun () -> R.persisted_bytes redis);
    net_read_bytes = (fun () -> R.read_bytes redis);
  }
