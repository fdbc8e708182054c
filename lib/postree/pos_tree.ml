module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Codec = Fbutil.Codec
module Rolling = Fbhash.Rolling

module type ELEM = sig
  type t

  val encode : Buffer.t -> t -> unit
  val decode : Fbutil.Codec.reader -> t
  val key : t -> string
  val sorted : bool
  val leaf_tag : Fbchunk.Chunk.tag
  val index_tag : Fbchunk.Chunk.tag
end

module Index = struct
  type entry = { cid : Cid.t; count : int; span : int; last_key : string }

  let codec =
    Codec.seq
      (Codec.conv
         (fun e -> (e.cid, e.count, e.span, e.last_key))
         (fun (cid, count, span, last_key) -> { cid; count; span; last_key })
         Codec.(quad Cid.codec uint uint str))
end

module Make (E : ELEM) = struct
  type elem = E.t

  (* A reference to a child chunk: an index entry. *)
  type chunk_ref = Index.entry = {
    cid : Cid.t;
    count : int;
    span : int;
    last_key : string;
  }

  type t = {
    store : Store.t;
    cfg : Tree_config.t;
    levels : chunk_ref array array;
        (* levels.(0) = leaves, last level holds the single root chunk *)
    cum : int array Lazy.t;
        (* cum.(i) = number of elements in leaves before leaf i *)
    mutable leaf_cache : (int * elem array) option;
  }

  (* ------------------------------------------------------------------ *)
  (* Chunk encodings                                                     *)

  (* The count, then the body, in one allocation of the payload's size. *)
  let encode_leaf_payload ~count body =
    let header = Codec.encode ~size:10 Codec.uint count in
    let h = String.length header and n = Buffer.length body in
    let payload = Bytes.create (h + n) in
    Bytes.blit_string header 0 payload 0 h;
    Buffer.blit body 0 payload h n;
    Bytes.unsafe_to_string payload

  (* A leaf payload opens with its element count.  Every element encodes
     to at least one byte, so a count beyond the bytes that follow is
     corrupt: refuse it before anything is sized by it. *)
  let leaf_header payload =
    let r = Codec.reader payload in
    let n = Codec.read_varint r in
    if n > String.length payload - Codec.pos r then
      raise (Codec.Corrupt "leaf element count exceeds its payload");
    (r, n)

  let decode_leaf chunk =
    let r, n = leaf_header chunk.Chunk.payload in
    if n = 0 then begin
      Codec.expect_end r;
      [||]
    end
    else begin
      let first = E.decode r in
      let a = Array.make n first in
      for i = 1 to n - 1 do
        a.(i) <- E.decode r
      done;
      Codec.expect_end r;
      a
    end

  let encode_index_payload entries = Codec.encode ~size:1024 Index.codec entries

  let decode_index chunk =
    Array.of_list (Codec.decode Index.codec chunk.Chunk.payload)

  (* ------------------------------------------------------------------ *)
  (* Builders.  Both builders cut on a content-defined pattern and reset
     their state at every cut, which is what makes boundaries a local
     function of content and enables the resync optimization below. *)

  type leaf_builder = {
    lb_store : Store.t;
    lb_cfg : Tree_config.t;
    lb_mask : int;
    lb_body : Buffer.t;
    lb_roll : Rolling.any;
    mutable lb_count : int;
    mutable lb_last_key : string;
    lb_emit : chunk_ref -> unit;
  }

  (* One leaf body buffer outlives the builders that use it: a builder
     takes it if it is free (making its own otherwise), and {!lb_finish}
     puts it back, so a splice does not allocate a fresh one.  Taking
     empties the slot, so no two live builders share a buffer. *)
  let spare_body : Buffer.t option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let take_body cfg =
    match Domain.DLS.get spare_body with
    | Some body ->
        Domain.DLS.set spare_body None;
        Buffer.clear body;
        body
    | None -> Buffer.create (cfg.Tree_config.max_leaf_bytes + 64)

  let leaf_builder store cfg emit =
    {
      lb_store = store;
      lb_cfg = cfg;
      lb_mask = (1 lsl cfg.Tree_config.leaf_bits) - 1;
      lb_body = take_body cfg;
      lb_roll = Rolling.any cfg.Tree_config.rolling ~window:cfg.Tree_config.window;
      lb_count = 0;
      lb_last_key = "";
      lb_emit = emit;
    }

  let lb_cut b =
    if b.lb_count > 0 then begin
      let payload = encode_leaf_payload ~count:b.lb_count b.lb_body in
      let chunk = Chunk.v E.leaf_tag payload in
      let cid = b.lb_store.Store.put chunk in
      b.lb_emit
        { cid; count = b.lb_count; span = b.lb_count; last_key = b.lb_last_key };
      Buffer.clear b.lb_body;
      b.lb_count <- 0;
      b.lb_last_key <- "";
      Rolling.any_reset b.lb_roll
    end

  (* Cut the last leaf and give the body buffer back; the builder is not
     used again. *)
  let lb_finish b =
    lb_cut b;
    Domain.DLS.set spare_body (Some b.lb_body)

  (* Add one element; returns [true] when the element closed a chunk.  The
     pattern is checked at every byte position (§4.3.2); when it occurs in
     the middle of an element, the boundary extends to the element's end so
     no element spans two chunks. *)
  let lb_add b e =
    let start = Buffer.length b.lb_body in
    E.encode b.lb_body e;
    let stop = Buffer.length b.lb_body in
    let bytes = Buffer.sub b.lb_body start (stop - start) in
    let pattern =
      Rolling.any_feed_detect b.lb_roll bytes ~chunk_size_before:start
        ~min_size:b.lb_cfg.Tree_config.min_leaf_bytes ~mask:b.lb_mask
    in
    b.lb_count <- b.lb_count + 1;
    b.lb_last_key <- E.key e;
    if pattern || stop >= b.lb_cfg.Tree_config.max_leaf_bytes then begin
      lb_cut b;
      true
    end
    else false

  (* Add [s.[off..]] as single-byte elements (Blob): the cuts [lb_add] would
     make byte by byte, found with [find_boundary] and copied as substrings.
     This is the one leaf-cut loop of both the bulk build and the byte
     splice. *)
  let lb_add_bytes b s ~off =
    let cfg = b.lb_cfg in
    let n = String.length s in
    let off = ref off in
    while !off < n do
      let found =
        Rolling.any_find_boundary b.lb_roll s ~off:!off ~chunk_size_before:b.lb_count
          ~min_size:cfg.Tree_config.min_leaf_bytes
          ~max_size:cfg.Tree_config.max_leaf_bytes ~mask:b.lb_mask
      in
      let take = Option.value found ~default:(n - !off) in
      Buffer.add_substring b.lb_body s !off take;
      b.lb_count <- b.lb_count + take;
      off := !off + take;
      if found <> None then lb_cut b
    done

  (* Bring a fresh builder to where [lb_add_bytes] of [s.[off..off+len)]
     would leave it, for bytes known to hold no cut: they are copied, and
     only their last [window] bytes are rolled, since a hash over a full
     window depends on nothing before it. *)
  let lb_resume b s ~off ~len =
    Buffer.add_substring b.lb_body s off len;
    b.lb_count <- b.lb_count + len;
    for i = max off (off + len - b.lb_cfg.Tree_config.window) to off + len - 1 do
      Rolling.any_roll b.lb_roll (String.unsafe_get s i)
    done

  type index_builder = {
    ib_store : Store.t;
    ib_mask : int;
    ib_max : int;
    mutable ib_entries : chunk_ref list; (* reversed *)
    mutable ib_n : int;
    mutable ib_sum : int;
    ib_emit : chunk_ref -> unit;
  }

  let index_builder store cfg emit =
    {
      ib_store = store;
      ib_mask = (1 lsl cfg.Tree_config.index_bits) - 1;
      ib_max = cfg.Tree_config.max_index_entries;
      ib_entries = [];
      ib_n = 0;
      ib_sum = 0;
      ib_emit = emit;
    }

  let ib_cut b =
    match b.ib_entries with
    | [] -> ()
    | last :: _ ->
        let entries = List.rev b.ib_entries in
        let payload = encode_index_payload entries in
        let chunk = Chunk.v E.index_tag payload in
        let cid = b.ib_store.Store.put chunk in
        b.ib_emit
          { cid; count = b.ib_sum; span = b.ib_n; last_key = last.last_key };
        b.ib_entries <- [];
        b.ib_n <- 0;
        b.ib_sum <- 0

  let ib_add b r =
    b.ib_entries <- r :: b.ib_entries;
    b.ib_n <- b.ib_n + 1;
    b.ib_sum <- b.ib_sum + r.count;
    if b.ib_n >= b.ib_max || Cid.low_bits r.cid land b.ib_mask = 0 then begin
      ib_cut b;
      true
    end
    else false

  (* ------------------------------------------------------------------ *)
  (* Construction                                                        *)

  let empty_leaf_ref store =
    let chunk = Chunk.v E.leaf_tag (encode_leaf_payload ~count:0 (Buffer.create 0)) in
    let cid = store.Store.put chunk in
    { cid; count = 0; span = 0; last_key = "" }

  let make_cum leaves =
    lazy
      (let n = Array.length leaves in
       let cum = Array.make (n + 1) 0 in
       for i = 0 to n - 1 do
         cum.(i + 1) <- cum.(i) + leaves.(i).count
       done;
       cum)

  let full_regroup store cfg lower =
    let out = ref [] in
    let ib = index_builder store cfg (fun r -> out := r :: !out) in
    Array.iter (fun r -> ignore (ib_add ib r)) lower;
    ib_cut ib;
    Array.of_list (List.rev !out)

  let levels_of_leaves store cfg leaves =
    let acc = ref [ leaves ] in
    let cur = ref leaves in
    while Array.length !cur > 1 do
      let upper = full_regroup store cfg !cur in
      acc := upper :: !acc;
      cur := upper
    done;
    Array.of_list (List.rev !acc)

  let of_levels store cfg levels =
    { store; cfg; levels; cum = make_cum levels.(0); leaf_cache = None }

  (* A tree always has a leaf: the empty one when it holds nothing. *)
  let leaf_level store = function
    | [||] -> [| empty_leaf_ref store |]
    | leaves -> leaves

  let build store cfg feed =
    let out = ref [] in
    let lb = leaf_builder store cfg (fun r -> out := r :: !out) in
    feed lb;
    lb_finish lb;
    let leaves = leaf_level store (Array.of_list (List.rev !out)) in
    of_levels store cfg (levels_of_leaves store cfg leaves)

  let of_elements store cfg seq =
    build store cfg (fun lb -> Seq.iter (fun e -> ignore (lb_add lb e)) seq)

  let of_list store cfg l = of_elements store cfg (List.to_seq l)
  let empty store cfg = of_list store cfg []

  (* Sort by key, keep the last write for duplicate keys. *)
  let sorted_unique elems =
    let rec dedup = function
      | a :: (b :: _ as rest) when String.equal (E.key a) (E.key b) -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup (List.stable_sort (fun a b -> String.compare (E.key a) (E.key b)) elems)

  let of_unsorted store cfg elems = of_list store cfg (sorted_unique elems)
  let of_bytes store cfg s = build store cfg (fun lb -> lb_add_bytes lb s ~off:0)

  let ref_of_chunk cid chunk =
    if chunk.Chunk.tag = E.leaf_tag then begin
      if not E.sorted then begin
        (* Positional containers never need leaf keys: read the element
           count from the header and defer payload decoding. *)
        let _, n = leaf_header chunk.Chunk.payload in
        { cid; count = n; span = n; last_key = "" }
      end
      else begin
        let elems = decode_leaf chunk in
        let n = Array.length elems in
        let last_key = if n = 0 then "" else E.key elems.(n - 1) in
        { cid; count = n; span = n; last_key }
      end
    end
    else begin
      let entries = decode_index chunk in
      let n = Array.length entries in
      if n = 0 then raise (Codec.Corrupt "empty index chunk");
      let count = Array.fold_left (fun s e -> s + e.count) 0 entries in
      { cid; count; span = n; last_key = entries.(n - 1).last_key }
    end

  let of_root store cfg root_cid =
    let root_chunk = Store.get_exn store root_cid in
    let root_ref = ref_of_chunk root_cid root_chunk in
    let rec go acc refs first =
      (* [acc] holds the levels above [refs], topmost first; [first] is the
         already-fetched chunk of [refs.(0)]. *)
      if first.Chunk.tag = E.leaf_tag then Array.of_list (refs :: acc)
      else
        let children =
          Array.concat
            (Array.to_list
               (Array.mapi
                  (fun i r ->
                    decode_index
                      (if i = 0 then first else Store.get_exn store r.cid))
                  refs))
        in
        go (refs :: acc) children (Store.get_exn store children.(0).cid)
    in
    of_levels store cfg (go [] [| root_ref |] root_chunk)

  (* ------------------------------------------------------------------ *)
  (* Accessors                                                           *)

  let top t = t.levels.(Array.length t.levels - 1).(0)
  let root t = (top t).cid
  let length t = (top t).count
  let height t = Array.length t.levels
  let equal a b = Cid.equal (root a) (root b)

  let leaf_elems t i =
    match t.leaf_cache with
    | Some (j, elems) when j = i -> elems
    | _ ->
        let chunk = Store.get_exn t.store t.levels.(0).(i).cid in
        let elems = decode_leaf chunk in
        t.leaf_cache <- Some (i, elems);
        elems

  (* Index of the leaf containing element position [pos] (requires
     [0 <= pos < length]). *)
  let leaf_of_pos t pos =
    let cum = Lazy.force t.cum in
    let lo = ref 0 and hi = ref (Array.length t.levels.(0) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid + 1) <= pos then lo := mid + 1 else hi := mid
    done;
    !lo

  let get t pos =
    if pos < 0 || pos >= length t then invalid_arg "Pos_tree.get: out of bounds";
    let i = leaf_of_pos t pos in
    let cum = Lazy.force t.cum in
    (leaf_elems t i).(pos - cum.(i))

  let to_seq t =
    let leaves = t.levels.(0) in
    let rec leaf_seq i () =
      if i >= Array.length leaves then Seq.Nil
      else
        let elems = leaf_elems t i in
        let rec elem_seq k () =
          if k >= Array.length elems then leaf_seq (i + 1) ()
          else Seq.Cons (elems.(k), elem_seq (k + 1))
        in
        elem_seq 0 ()
    in
    leaf_seq 0

  let seq_from t ~pos =
    let total = length t in
    if pos < 0 || pos > total then invalid_arg "Pos_tree.seq_from: out of bounds";
    if pos = total then Seq.empty
    else begin
      let leaves = t.levels.(0) in
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t pos in
      let rec leaf_seq i skip () =
        if i >= Array.length leaves then Seq.Nil
        else
          let elems = leaf_elems t i in
          let rec elem_seq k () =
            if k >= Array.length elems then leaf_seq (i + 1) 0 ()
            else Seq.Cons (elems.(k), elem_seq (k + 1))
          in
          elem_seq skip ()
      in
      leaf_seq first (pos - cum.(first))
    end

  let to_list t = List.of_seq (to_seq t)
  let fold f init t = Seq.fold_left f init (to_seq t)

  let iter_slice t ~pos ~len f =
    if pos < 0 || len < 0 || pos + len > length t then
      invalid_arg "Pos_tree.slice: out of bounds";
    if len > 0 then begin
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t pos in
      let remaining = ref len and p = ref pos and i = ref first in
      while !remaining > 0 do
        let elems = leaf_elems t !i in
        let off = !p - cum.(!i) in
        let take = min !remaining (Array.length elems - off) in
        for k = off to off + take - 1 do
          f elems.(k)
        done;
        remaining := !remaining - take;
        p := !p + take;
        incr i
      done
    end

  let slice t ~pos ~len =
    let out = ref [] in
    iter_slice t ~pos ~len (fun e -> out := e :: !out);
    List.rev !out

  let leaf_count t = Array.length t.levels.(0)

  let leaf_bytes t i =
    let payload = (Store.get_exn t.store t.levels.(0).(i).cid).Chunk.payload in
    let r, count = leaf_header payload in
    (payload, Codec.pos r, count)

  let iter_leaf_payloads t ~pos ~len f =
    if pos < 0 || len < 0 || pos + len > length t then
      invalid_arg "Pos_tree.iter_leaf_payloads: out of bounds";
    if len > 0 then begin
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t pos in
      let remaining = ref len and p = ref pos and i = ref first in
      while !remaining > 0 do
        let payload, header, count = leaf_bytes t !i in
        let off = !p - cum.(!i) in
        let take = min !remaining (count - off) in
        f payload ~off:(header + off) ~take;
        remaining := !remaining - take;
        p := !p + take;
        incr i
      done
    end

  (* ------------------------------------------------------------------ *)
  (* Splice: the copy-on-write update path (§4.3.3).

     Each level is rebuilt with the same cursor algorithm: walk the old
     chunks left to right, copying whole chunks by reference wherever the
     builder is empty exactly at an old chunk boundary (both sides' split
     state resets there, so everything inside is bit-identical), and
     re-chunking only around the edits until the output resyncs with an
     old boundary.  Every copied chunk is recorded as an anchor
     [(old_index, new_index)]; the gaps between anchors become the edits
     applied to the level above, so k scattered edits cost O(k · log n)
     chunk builds rather than one giant rebuild of the covering range. *)

  (* Gaps between consecutive anchors, as edits on the next level up:
     [(old_start, old_len, replacement refs)]. *)
  let edits_of_anchors ~old_len ~new_refs anchors =
    let new_len = Array.length new_refs in
    let rec go (prev_old, prev_new) anchors acc =
      let gap (oi, nj) =
        if oi > prev_old + 1 || nj > prev_new + 1 then
          let repl = ref [] in
          for j = nj - 1 downto prev_new + 1 do
            repl := new_refs.(j) :: !repl
          done;
          Some (prev_old + 1, oi - prev_old - 1, !repl)
        else None
      in
      match anchors with
      | [] -> (
          match gap (old_len, new_len) with
          | Some e -> List.rev (e :: acc)
          | None -> List.rev acc)
      | a :: rest -> (
          match gap a with
          | Some e -> go a rest (e :: acc)
          | None -> go a rest acc)
    in
    go (-1, -1) anchors []

  (* Rebuild the leaf level, applying [edits] = [(pos, del, ins)] sorted and
     non-overlapping (element coordinates).  Returns the new leaf array and
     the copy anchors. *)
  let splice_leaves t edits =
    let old = t.levels.(0) in
    let cum = Lazy.force t.cum in
    let nleaves = Array.length old in
    let total = length t in
    let out = ref [] and n_out = ref 0 in
    let anchors = ref [] in
    let emit r =
      out := r :: !out;
      incr n_out
    in
    let lb = leaf_builder t.store t.cfg emit in
    let pos = ref 0 (* old elements consumed so far *)
    and leaf_i = ref 0
    and builder_empty = ref true in
    let advance_leaf () =
      while !leaf_i < nleaves && cum.(!leaf_i + 1) <= !pos do
        incr leaf_i
      done
    in
    (* The last old leaf is a residual cut — its boundary was forced by the
       end of the stream, not by content — so it may be reused only when it
       is also final in the new stream ([allow_last]). *)
    let feed_old_until ~allow_last limit =
      while !pos < limit do
        advance_leaf ();
        let base = cum.(!leaf_i) and next = cum.(!leaf_i + 1) in
        if
          !builder_empty && !pos = base && next <= limit
          && old.(!leaf_i).count > 0
          && (!leaf_i < nleaves - 1 || allow_last)
        then begin
          (* Resynced: the chunker state is reset exactly at an old chunk
             boundary, so the whole old leaf can be reused untouched. *)
          emit old.(!leaf_i);
          anchors := (!leaf_i, !n_out - 1) :: !anchors;
          pos := next
        end
        else begin
          let elems = leaf_elems t !leaf_i in
          let stop = min limit next in
          for k = !pos - base to stop - base - 1 do
            builder_empty := lb_add lb elems.(k)
          done;
          pos := stop
        end
      done
    in
    List.iter
      (fun (epos, del, ins) ->
        feed_old_until ~allow_last:false epos;
        List.iter (fun e -> builder_empty := lb_add lb e) ins;
        pos := !pos + del)
      edits;
    feed_old_until ~allow_last:true total;
    lb_finish lb;
    (leaf_level t.store (Array.of_list (List.rev !out)), List.rev !anchors)

  (* Rebuild one index level given the edits on the level below (entry
     coordinates).  Entries are in-memory chunk_refs and the split test is
     memoryless, so "decoding an old chunk" is just slicing [lower_old]. *)
  let splice_index store cfg upper_old ~lower_old edits =
    let n_lower = Array.length lower_old in
    let n_up = Array.length upper_old in
    let ucum = Array.make (n_up + 1) 0 in
    for j = 0 to n_up - 1 do
      ucum.(j + 1) <- ucum.(j) + upper_old.(j).span
    done;
    let out = ref [] and n_out = ref 0 in
    let anchors = ref [] in
    let emit r =
      out := r :: !out;
      incr n_out
    in
    let ib = index_builder store cfg emit in
    let pos = ref 0 and j = ref 0 and builder_empty = ref true in
    let advance () =
      while !j < n_up && ucum.(!j + 1) <= !pos do
        incr j
      done
    in
    (* Same residual-cut caveat as in [splice_leaves]: the last old index
       chunk is only reusable when it is also final in the new stream. *)
    let feed_old_until ~allow_last limit =
      while !pos < limit do
        advance ();
        let base = ucum.(!j) and next = ucum.(!j + 1) in
        if
          !builder_empty && !pos = base && next <= limit
          && (!j < n_up - 1 || allow_last)
        then begin
          emit upper_old.(!j);
          anchors := (!j, !n_out - 1) :: !anchors;
          pos := next
        end
        else begin
          let stop = min limit next in
          for k = !pos to stop - 1 do
            builder_empty := ib_add ib lower_old.(k)
          done;
          pos := stop
        end
      done
    in
    List.iter
      (fun (start, len, repl) ->
        feed_old_until ~allow_last:false start;
        List.iter (fun r -> builder_empty := ib_add ib r) repl;
        pos := start + len)
      edits;
    feed_old_until ~allow_last:true n_lower;
    ib_cut ib;
    (Array.of_list (List.rev !out), List.rev !anchors)

  let rebuild_levels t (new_leaves, leaf_anchors) =
    let levels_rev = ref [ new_leaves ] in
    let lower_old = ref t.levels.(0)
    and lower_new = ref new_leaves
    and anchors = ref leaf_anchors
    and k = ref 1
    and finished = ref (Array.length new_leaves <= 1) in
    while not !finished do
      let edits =
        edits_of_anchors ~old_len:(Array.length !lower_old) ~new_refs:!lower_new
          !anchors
      in
      let upper_old = if !k < Array.length t.levels then t.levels.(!k) else [||] in
      if edits = [] && Array.length upper_old > 0 then begin
        (* Lower level identical to the old one: every level above is also
           unchanged; reuse them. *)
        levels_rev := List.tl !levels_rev;
        levels_rev := !lower_old :: !levels_rev;
        let kk = ref !k in
        while !kk < Array.length t.levels do
          levels_rev := t.levels.(!kk) :: !levels_rev;
          incr kk
        done;
        finished := true
      end
      else begin
        let upper, upper_anchors =
          if Array.length upper_old = 0 then
            (full_regroup t.store t.cfg !lower_new, [])
          else splice_index t.store t.cfg upper_old ~lower_old:!lower_old edits
        in
        levels_rev := upper :: !levels_rev;
        lower_old := upper_old;
        lower_new := upper;
        anchors := upper_anchors;
        k := !k + 1;
        if Array.length upper <= 1 then finished := true
      end
    done;
    let levels = Array.of_list (List.rev !levels_rev) in
    of_levels t.store t.cfg levels

  let validate_edits t edits =
    let total = length t in
    let rec check prev_end = function
      | [] -> ()
      | (pos, del, _) :: rest ->
          if pos < prev_end || del < 0 || pos + del > total then
            invalid_arg "Pos_tree.splice_many: edits out of range or overlapping";
          check (pos + del) rest
    in
    check 0 edits

  let splice_many t edits =
    validate_edits t edits;
    let edits = List.filter (fun (_, del, ins) -> del > 0 || ins <> []) edits in
    if edits = [] then t else rebuild_levels t (splice_leaves t edits)

  let splice t ~pos ~del ~ins = splice_many t [ (pos, del, ins) ]
  let append t elems = splice t ~pos:(length t) ~del:0 ~ins:elems

  (* Byte-native splice (Blob).  The chunker resets at every cut, so the
     cut before the leaf holding [pos] depends only on bytes before it:
     the new leaf starts at that leaf's first byte, or at the last leaf's
     for an edit at the end, since that residual cut holds only while it
     stays final.  The old leaf has no cut before its last byte, so its
     bytes up to [pos - 1] are resumed ([lb_resume]) rather than re-rolled
     for cuts.  The byte just before [pos] is re-checked with the edit:
     an append lands after a last leaf's final byte, where the old leaf
     may end on a content-defined cut.  Old bytes are then fed straight
     from the base's leaf payloads
     until a new cut lands on an old leaf start past the edit; the leaves
     from there on are reused, and [rebuild_levels] re-splits only the
     index path above the edit. *)
  let splice_bytes t ~pos ~del ~ins =
    validate_edits t [ (pos, del, ins) ];
    if del = 0 && ins = "" then t
    else begin
      let old = t.levels.(0) and cum = Lazy.force t.cum and total = length t in
      let n = Array.length old in
      let first = if pos < total then leaf_of_pos t pos else n - 1 in
      let fresh = ref [] in
      let lb = leaf_builder t.store t.cfg (fun r -> fresh := r :: !fresh) in
      let payload, off, _ = leaf_bytes t first in
      let pre = pos - cum.(first) in
      if pre = 0 then lb_add_bytes lb ins ~off:0
      else begin
        lb_resume lb payload ~off ~len:(pre - 1);
        lb_add_bytes lb (String.make 1 payload.[off + pre - 1] ^ ins) ~off:0
      end;
      let p = ref (pos + del) in
      let j = ref (if !p < total then leaf_of_pos t !p else n) in
      while !j < n && not (lb.lb_count = 0 && !p = cum.(!j)) do
        let payload, off, _ = leaf_bytes t !j in
        lb_add_bytes lb payload ~off:(off + !p - cum.(!j));
        p := cum.(!j + 1);
        incr j
      done;
      lb_finish lb;
      let fresh = Array.of_list (List.rev !fresh) in
      let kept = n - !j and shift = first + Array.length fresh - !j in
      let leaves = Array.concat [ Array.sub old 0 first; fresh; Array.sub old !j kept ] in
      let anchors =
        List.init first (fun k -> (k, k)) @ List.init kept (fun k -> (!j + k, !j + k + shift))
      in
      rebuild_levels t (leaf_level t.store leaves, anchors)
    end

  (* ------------------------------------------------------------------ *)
  (* Sorted access                                                       *)

  let position_of_key t key =
    let leaves = t.levels.(0) in
    let n = Array.length leaves in
    let total = length t in
    (* First leaf whose last_key >= key. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare leaves.(mid).last_key key < 0 then lo := mid + 1
      else hi := mid
    done;
    if !lo = n then `Insert_at total
    else begin
      let cum = Lazy.force t.cum in
      let elems = leaf_elems t !lo in
      let base = cum.(!lo) in
      let a = ref 0 and b = ref (Array.length elems) in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if String.compare (E.key elems.(mid)) key < 0 then a := mid + 1 else b := mid
      done;
      if !a < Array.length elems && String.equal (E.key elems.(!a)) key then
        `Found (base + !a)
      else `Insert_at (base + !a)
    end

  let find t key =
    match position_of_key t key with
    | `Found i -> Some (get t i)
    | `Insert_at _ -> None

  let set_sorted t e =
    match position_of_key t (E.key e) with
    | `Found i -> splice t ~pos:i ~del:1 ~ins:[ e ]
    | `Insert_at i -> splice t ~pos:i ~del:0 ~ins:[ e ]

  let set_sorted_many t elems =
    if elems = [] then t
    else begin
      (* Positions are all w.r.t. the original tree, so edits at the same
         insert position are merged into a single edit.  Insert lists are
         accumulated reversed so bulk loads stay linear. *)
      let edits =
        List.fold_left
          (fun acc e ->
            match position_of_key t (E.key e) with
            | `Found i -> (
                match acc with
                | (p0, 0, ins0) :: rest when p0 = i -> (i, 1, e :: ins0) :: rest
                | _ -> (i, 1, [ e ]) :: acc)
            | `Insert_at i -> (
                match acc with
                | (p0, 0, ins0) :: rest when p0 = i -> (i, 0, e :: ins0) :: rest
                | _ -> (i, 0, [ e ]) :: acc))
          [] (sorted_unique elems)
      in
      let edits = List.rev_map (fun (p, d, ins) -> (p, d, List.rev ins)) edits in
      splice_many t edits
    end

  let remove_sorted t key =
    match position_of_key t key with
    | `Found i -> splice t ~pos:i ~del:1 ~ins:[]
    | `Insert_at _ -> t

  let seq_from_key t key =
    match position_of_key t key with
    | `Found i | `Insert_at i -> seq_from t ~pos:i

  (* ------------------------------------------------------------------ *)
  (* Structure inspection                                                *)

  let leaf_cids t = Array.map (fun r -> r.cid) t.levels.(0)

  let chunk_count t = Array.fold_left (fun s l -> s + Array.length l) 0 t.levels

  let stored_bytes t =
    Array.fold_left
      (fun acc level ->
        Array.fold_left
          (fun acc r -> acc + Chunk.byte_size (Store.get_exn t.store r.cid))
          acc level)
      0 t.levels

  let verify t =
    try
      Array.for_all
        (fun level ->
          Array.for_all
            (fun r ->
              let chunk = Store.get_exn t.store r.cid in
              Cid.equal (Chunk.cid chunk) r.cid)
            level)
        t.levels
    with Store.Missing_chunk _ -> false

  let diff_leaves a b =
    let set_of t =
      Array.fold_left (fun s c -> Cid.Set.add c s) Cid.Set.empty (leaf_cids t)
    in
    Cid.Set.diff (set_of a) (set_of b)

  let elem_bytes e =
    let b = Buffer.create 64 in
    E.encode b e;
    Buffer.contents b

  let diff_region t1 t2 =
    if equal t1 t2 then None
    else begin
      let l1 = t1.levels.(0) and l2 = t2.levels.(0) in
      let n1 = Array.length l1 and n2 = Array.length l2 in
      let p = ref 0 in
      while !p < n1 && !p < n2 && Cid.equal l1.(!p).cid l2.(!p).cid do
        incr p
      done;
      let s = ref 0 in
      while
        !s < n1 - !p
        && !s < n2 - !p
        && Cid.equal l1.(n1 - 1 - !s).cid l2.(n2 - 1 - !s).cid
      do
        incr s
      done;
      let cum1 = Lazy.force t1.cum and cum2 = Lazy.force t2.cum in
      let start1 = ref cum1.(!p) and stop1 = ref cum1.(n1 - !s) in
      let start2 = ref cum2.(!p) and stop2 = ref cum2.(n2 - !s) in
      (* Refine to element granularity: trim common prefix/suffix elements
         inside the differing chunk span, so edits smaller than a chunk
         still produce a tight region. *)
      let eq i j = String.equal (elem_bytes (get t1 i)) (elem_bytes (get t2 j)) in
      while !start1 < !stop1 && !start2 < !stop2 && eq !start1 !start2 do
        incr start1;
        incr start2
      done;
      while !stop1 > !start1 && !stop2 > !start2 && eq (!stop1 - 1) (!stop2 - 1) do
        decr stop1;
        decr stop2
      done;
      Some ((!start1, !stop1 - !start1), (!start2, !stop2 - !start2))
    end

  let diff_sorted ta tb =
    let la = ta.levels.(0) and lb = tb.levels.(0) in
    let na = Array.length la and nb = Array.length lb in
    let out = ref [] in
    let emit d = out := d :: !out in
    (* Cursors: leaf index and offset within the (lazily decoded) leaf. *)
    let ia = ref 0 and oa = ref 0 and ib = ref 0 and ob = ref 0 in
    let ea = ref [||] and eb = ref [||] in
    let load_a () = if !oa = 0 then ea := leaf_elems ta !ia in
    let load_b () = if !ob = 0 then eb := leaf_elems tb !ib in
    let adv_a () =
      incr oa;
      if !oa >= Array.length !ea then begin
        oa := 0;
        incr ia
      end
    in
    let adv_b () =
      incr ob;
      if !ob >= Array.length !eb then begin
        ob := 0;
        incr ib
      end
    in
    let continue = ref true in
    while !continue do
      if !ia >= na && !ib >= nb then continue := false
      else if !ia >= na then begin
        load_b ();
        if Array.length !eb = 0 then incr ib
        else begin
          emit (`Right !eb.(!ob));
          adv_b ()
        end
      end
      else if !ib >= nb then begin
        load_a ();
        if Array.length !ea = 0 then incr ia
        else begin
          emit (`Left !ea.(!oa));
          adv_a ()
        end
      end
      else if !oa = 0 && !ob = 0 && Cid.equal la.(!ia).cid lb.(!ib).cid then begin
        (* Identical subtrees: skip without decoding. *)
        incr ia;
        incr ib
      end
      else begin
        load_a ();
        load_b ();
        if Array.length !ea = 0 then incr ia
        else if Array.length !eb = 0 then incr ib
        else begin
          let x = !ea.(!oa) and y = !eb.(!ob) in
          let c = String.compare (E.key x) (E.key y) in
          if c < 0 then begin
            emit (`Left x);
            adv_a ()
          end
          else if c > 0 then begin
            emit (`Right y);
            adv_b ()
          end
          else begin
            if not (String.equal (elem_bytes x) (elem_bytes y)) then
              emit (`Changed (x, y));
            adv_a ();
            adv_b ()
          end
        end
      end
    done;
    List.rev !out
end
