module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Codec = Fbutil.Codec
module Index = Fbtree.Pos_tree.Index

let children (chunk : Chunk.t) =
  match chunk.Chunk.tag with
  | Chunk.Meta -> (
      let obj = Fobject.of_chunk chunk in
      match obj.Fobject.kind with
      | Fbtypes.Value.Kprim -> obj.Fobject.bases
      | _ -> obj.Fobject.bases @ [ Cid.of_raw obj.Fobject.data ])
  | Chunk.UIndex | Chunk.SIndex ->
      List.map
        (fun e -> e.Index.cid)
        (Codec.decode Index.codec chunk.Chunk.payload)
  | Chunk.Blob | Chunk.List | Chunk.Set | Chunk.Map -> []

(* Breadth first over an explicit queue: [todo] holds cids not yet looked
   up, [absent] those the local store lacks.  Fetching waits until [todo]
   is empty, so each batch carries every absent cid known so far, up to
   [batch]. *)
let walk ?local ?(fetch = fun _ -> []) ?(batch = max_int) visit roots =
  let seen = Cid.Tbl.create 256 in
  let todo = Queue.create () and absent = Queue.create () in
  let push cid =
    if not (Cid.Tbl.mem seen cid) then begin
      Cid.Tbl.add seen cid ();
      Queue.add cid todo
    end
  in
  let resolved chunk =
    visit chunk;
    List.iter push (children chunk)
  in
  let get = match local with Some s -> s.Store.get | None -> fun _ -> None in
  List.iter push roots;
  while not (Queue.is_empty todo && Queue.is_empty absent) do
    if not (Queue.is_empty todo) then begin
      let cid = Queue.pop todo in
      match get cid with
      | Some chunk -> resolved chunk
      | None -> Queue.add cid absent
    end
    else begin
      let rec take n acc =
        if n = 0 || Queue.is_empty absent then List.rev acc
        else take (n - 1) (Queue.pop absent :: acc)
      in
      List.iter resolved (fetch (take batch []))
    end
  done

(* Mark: from every tagged and untagged head, over the local store only.
   [visit] sees each live chunk once; returns the live totals. *)
let mark db visit =
  let heads key =
    List.map snd (Db.list_tagged_branches db ~key)
    @ Db.list_untagged_branches db ~key
  in
  let chunks = ref 0 and bytes = ref 0 in
  walk ~local:(Db.store db)
    (fun chunk ->
      visit chunk;
      incr chunks;
      bytes := !bytes + Chunk.byte_size chunk)
    (List.concat_map heads (Db.list_keys db));
  (!chunks, !bytes)

let sweep db ~into = mark db (fun chunk -> ignore (into.Store.put chunk : Cid.t))

let garbage_stats db =
  let live_chunks, live_bytes = mark db ignore in
  let stats = (Db.store db).Store.stats () in
  (stats.Store.chunks - live_chunks, stats.Store.bytes - live_bytes)
