(* POS-Tree invariants.  The two key properties (§4.3):
   1. History independence: the root cid is a function of content only —
      any sequence of splices producing the same elements yields the same
      tree as a fresh bulk build.
   2. Copy-on-write locality: a small edit to a large tree writes only a
      handful of new chunks. *)

module Store = Fbchunk.Chunk_store
module Cid = Fbchunk.Cid

(* A byte-string element: unsorted container, like Blob/List leaves. *)
module Str_elem = struct
  type t = string

  let encode = Fbutil.Codec.string
  let decode = Fbutil.Codec.read_string
  let key _ = ""
  let sorted = false
  let leaf_tag = Fbchunk.Chunk.List
  let index_tag = Fbchunk.Chunk.UIndex
end

(* A key-value element: sorted container, like Map leaves. *)
module Kv_elem = struct
  type t = string * string

  let encode buf (k, v) =
    Fbutil.Codec.string buf k;
    Fbutil.Codec.string buf v

  let decode r =
    let k = Fbutil.Codec.read_string r in
    let v = Fbutil.Codec.read_string r in
    (k, v)

  let key (k, _) = k
  let sorted = true
  let leaf_tag = Fbchunk.Chunk.Map
  let index_tag = Fbchunk.Chunk.SIndex
end

module T = Fbtree.Pos_tree.Make (Str_elem)
module M = Fbtree.Pos_tree.Make (Kv_elem)

(* Small chunks so tests exercise multi-level trees with few elements. *)
let cfg = Fbtree.Tree_config.with_leaf_bits 7
let cfg_default = Fbtree.Tree_config.default

let mk_elems n = List.init n (fun i -> Printf.sprintf "element-%06d" i)

let test_empty () =
  let store = Store.mem_store () in
  let t = T.empty store cfg in
  Alcotest.(check int) "length" 0 (T.length t);
  Alcotest.(check int) "height" 1 (T.height t);
  Alcotest.(check (list string)) "to_list" [] (T.to_list t);
  let t2 = T.empty store cfg in
  Alcotest.(check bool) "empty trees equal" true (T.equal t t2)

let test_roundtrip () =
  let store = Store.mem_store () in
  let elems = mk_elems 1000 in
  let t = T.of_list store cfg elems in
  Alcotest.(check int) "length" 1000 (T.length t);
  Alcotest.(check bool) "multi-level" true (T.height t > 1);
  Alcotest.(check (list string)) "content preserved" elems (T.to_list t)

let test_of_root () =
  let store = Store.mem_store () in
  let elems = mk_elems 500 in
  let t = T.of_list store cfg elems in
  let t' = T.of_root store cfg (T.root t) in
  Alcotest.(check (list string)) "reload" elems (T.to_list t');
  Alcotest.(check int) "height preserved" (T.height t) (T.height t')

(* [of_root] fetches every index chunk exactly once, plus one probe of leaf
   0 to find where the index levels end. *)
let test_of_root_get_count () =
  List.iter
    (fun height ->
      let store = Store.mem_store () in
      let t =
        match
          List.find_opt
            (fun t -> T.height t = height)
            (List.map (fun n -> T.of_list store cfg (mk_elems n)) [ 40; 80; 160; 320; 640; 1280; 2560 ])
        with
        | Some t -> t
        | None -> Alcotest.failf "no test tree of height %d" height
      in
      let index_chunks = T.chunk_count t - Array.length (T.leaf_cids t) in
      let before = (store.Store.stats ()).Store.gets in
      let t' = T.of_root store cfg (T.root t) in
      Alcotest.(check int)
        (Printf.sprintf "gets at height %d" height)
        (index_chunks + 1)
        ((store.Store.stats ()).Store.gets - before);
      Alcotest.(check bool) "same tree" true (T.equal t t');
      Alcotest.(check (list string)) "same content" (T.to_list t) (T.to_list t'))
    [ 2; 3 ]

let test_get_slice () =
  let store = Store.mem_store () in
  let elems = mk_elems 777 in
  let t = T.of_list store cfg elems in
  let arr = Array.of_list elems in
  List.iter
    (fun i -> Alcotest.(check string) (Printf.sprintf "get %d" i) arr.(i) (T.get t i))
    [ 0; 1; 100; 399; 776 ];
  Alcotest.(check (list string))
    "slice" (Array.to_list (Array.sub arr 100 50)) (T.slice t ~pos:100 ~len:50);
  Alcotest.(check (list string)) "empty slice" [] (T.slice t ~pos:10 ~len:0)

let test_out_of_bounds () =
  let store = Store.mem_store () in
  let t = T.of_list store cfg (mk_elems 10) in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      (fun () -> ignore (T.get t (-1)));
      (fun () -> ignore (T.get t 10));
      (fun () -> ignore (T.slice t ~pos:5 ~len:6));
      (fun () -> ignore (T.splice t ~pos:11 ~del:0 ~ins:[]));
      (fun () -> ignore (T.splice t ~pos:5 ~del:6 ~ins:[]));
    ]

(* --- the central property: history independence --- *)

let apply_model elems (pos, del, ins) =
  let arr = Array.of_list elems in
  let n = Array.length arr in
  let pos = min pos n in
  let del = min del (n - pos) in
  Array.to_list (Array.sub arr 0 pos)
  @ ins
  @ Array.to_list (Array.sub arr (pos + del) (n - pos - del))

let gen_edit =
  QCheck.Gen.(
    let* pos = int_bound 1200 in
    let* del = int_bound 80 in
    let* n_ins = int_bound 40 in
    let* salt = int_bound 1_000_000 in
    return (pos, del, List.init n_ins (fun i -> Printf.sprintf "ins-%d-%d" salt i)))

let prop_history_independence =
  QCheck.Test.make ~name:"splice sequence = bulk rebuild (history independence)"
    ~count:60
    QCheck.(
      make
        Gen.(
          let* n0 = int_bound 800 in
          let* edits = list_size (int_bound 8) gen_edit in
          return (n0, edits)))
    (fun (n0, edits) ->
      let store = Store.mem_store () in
      let elems = ref (mk_elems n0) in
      let t = ref (T.of_list store cfg !elems) in
      List.iter
        (fun (pos, del, ins) ->
          let n = List.length !elems in
          let pos = min pos n in
          let del = min del (n - pos) in
          elems := apply_model !elems (pos, del, ins);
          t := T.splice !t ~pos ~del ~ins)
        edits;
      let rebuilt = T.of_list store cfg !elems in
      T.equal !t rebuilt
      && T.to_list !t = !elems
      && T.length !t = List.length !elems)

let prop_splice_many_equals_sequential =
  QCheck.Test.make ~name:"splice_many = sequential splices" ~count:40
    QCheck.(
      make
        Gen.(
          let* n0 = int_range 50 600 in
          (* Build non-overlapping ascending edits. *)
          let* k = int_range 1 6 in
          let* seeds = list_repeat k (pair (int_bound 100) (int_bound 20)) in
          return (n0, seeds)))
    (fun (n0, seeds) ->
      let store = Store.mem_store () in
      let elems = mk_elems n0 in
      let t = T.of_list store cfg elems in
      (* Convert seeds to sorted non-overlapping edits. *)
      let edits, _ =
        List.fold_left
          (fun (acc, cursor) (gap, del) ->
            let pos = cursor + gap in
            if pos > n0 then (acc, cursor)
            else
              let del = min del (n0 - pos) in
              let ins = [ Printf.sprintf "batch-%d" pos ] in
              ((pos, del, ins) :: acc, pos + del))
          ([], 0) seeds
      in
      let edits = List.rev edits in
      let batched = T.splice_many t edits in
      let model =
        List.fold_left apply_model elems (List.rev edits)
        (* apply right-to-left so earlier positions stay valid *)
      in
      T.to_list batched = model)

let test_copy_on_write_locality () =
  let store = Store.mem_store () in
  let elems = mk_elems 20_000 in
  let t = T.of_list store cfg_default elems in
  let chunks_before = (store.Store.stats ()).Store.chunks in
  let t2 = T.splice t ~pos:10_000 ~del:1 ~ins:[ "edited-element" ] in
  let chunks_after = (store.Store.stats ()).Store.chunks in
  let new_chunks = chunks_after - chunks_before in
  Alcotest.(check bool)
    (Printf.sprintf "small edit writes few chunks (%d)" new_chunks)
    true
    (new_chunks > 0 && new_chunks <= 8);
  Alcotest.(check string) "edit applied" "edited-element" (T.get t2 10_000);
  (* Dedup: both versions share almost all leaves. *)
  let delta = T.diff_leaves t2 t in
  Alcotest.(check bool) "few differing leaves" true (Cid.Set.cardinal delta <= 3)

let test_append_grow () =
  let store = Store.mem_store () in
  let t = ref (T.empty store cfg) in
  let all = ref [] in
  for i = 0 to 99 do
    let batch = List.init 17 (fun j -> Printf.sprintf "grow-%d-%d" i j) in
    all := !all @ batch;
    t := T.append !t batch
  done;
  Alcotest.(check int) "length" (100 * 17) (T.length !t);
  let rebuilt = T.of_list store cfg !all in
  Alcotest.(check bool) "incremental append = bulk" true (T.equal !t rebuilt)

let test_delete_all () =
  let store = Store.mem_store () in
  let t = T.of_list store cfg (mk_elems 300) in
  let t2 = T.splice t ~pos:0 ~del:300 ~ins:[] in
  Alcotest.(check int) "emptied" 0 (T.length t2);
  Alcotest.(check bool) "equals empty" true (T.equal t2 (T.empty store cfg))

let test_huge_element () =
  let store = Store.mem_store () in
  let big = String.make 100_000 'x' in
  let t = T.of_list store cfg [ "a"; big; "b" ] in
  Alcotest.(check int) "length" 3 (T.length t);
  Alcotest.(check string) "big element intact" big (T.get t 1)

let test_repeated_content () =
  (* §4.3.3: repeated content produces no patterns, so all leaves are
     forced to max size — the tree still works and still deduplicates. *)
  let store = Store.mem_store () in
  let elems = List.init 5000 (fun _ -> "same") in
  let t = T.of_list store cfg elems in
  Alcotest.(check int) "length" 5000 (T.length t);
  let distinct_leaves =
    Array.fold_left (fun s c -> Cid.Set.add c s) Cid.Set.empty (T.leaf_cids t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "identical leaves dedup to %d distinct"
       (Cid.Set.cardinal distinct_leaves))
    true
    (Cid.Set.cardinal distinct_leaves <= 3)

let test_verify_missing () =
  let store = Store.mem_store () in
  let t = T.of_list store cfg (mk_elems 400) in
  Alcotest.(check bool) "fresh tree verifies" true (T.verify t)

let test_diff_region () =
  let store = Store.mem_store () in
  let elems = mk_elems 2000 in
  let t1 = T.of_list store cfg elems in
  let t2 = T.splice t1 ~pos:1000 ~del:2 ~ins:[ "x"; "y"; "z" ] in
  (match T.diff_region t1 t2 with
  | None -> Alcotest.fail "expected a differing region"
  | Some ((p1, l1), (p2, l2)) ->
      Alcotest.(check bool) "region 1 covers edit" true (p1 <= 1000 && p1 + l1 >= 1002);
      Alcotest.(check bool) "region 2 covers edit" true (p2 <= 1000 && p2 + l2 >= 1003);
      Alcotest.(check bool) "regions are local" true (l1 < 600 && l2 < 600));
  Alcotest.(check bool) "identical -> None" true (T.diff_region t1 t1 = None)

(* A chunk that claims more elements or index entries than its payload
   holds is refused as corrupt before anything is sized by the claim (a
   count of 2^60 once reached [Array.make]).  Each chunk is loaded as a
   tree's root and read. *)
let test_implausible_counts () =
  let store = Store.mem_store () in
  let claims_huge tag rest =
    let b = Buffer.create 64 in
    Fbutil.Codec.varint b (1 lsl 60);
    Buffer.add_string b rest;
    store.Store.put (Fbchunk.Chunk.v tag (Buffer.contents b))
  in
  let index = claims_huge Fbchunk.Chunk.UIndex (String.make 40 'x') in
  let list_leaf = claims_huge Fbchunk.Chunk.List "\003abc" in
  let map_leaf = claims_huge Fbchunk.Chunk.Map "\001k\001v" in
  List.iter
    (fun (what, read) ->
      match read () with
      | exception Fbutil.Codec.Corrupt _ -> ()
      | _ -> Alcotest.failf "%s: a count of 2^60 was accepted" what)
    [
      ("UIndex root", fun () -> ignore (T.get (T.of_root store cfg index) 0));
      ("List leaf", fun () -> ignore (T.get (T.of_root store cfg list_leaf) 0));
      ("Map leaf", fun () -> ignore (M.get (M.of_root store cfg map_leaf) 0));
    ]

(* --- golden chunk bytes --- *)

(* Root cids of fixed two-level trees (one index node over its leaves)
   under [Tree_config.default].  Chunk bytes define every uid, so a
   change to the leaf or index layout, or to the split rules, shows up
   here as a different root. *)
let test_golden_roots () =
  let module Fb = Fbtypes in
  let store = Store.mem_store () in
  let cfg = Fbtree.Tree_config.default in
  let names n fmt = List.init n (Printf.sprintf fmt) in
  let page =
    Fbutil.Splitmix.bytes (Fbutil.Splitmix.create 0x6F1DL) 40_000
  in
  let blob = Fb.Fblob.create store cfg page in
  let list = Fb.Flist.create store cfg (names 3000 "item-%05d") in
  let map =
    Fb.Fmap.create store cfg
      (List.map (fun k -> (k, "value-" ^ k)) (names 1500 "key-%05d"))
  in
  let set = Fb.Fset.create store cfg (names 3000 "member-%05d") in
  List.iter
    (fun (what, (root, chunks), (want_hex, want_chunks)) ->
      Alcotest.(check string) (what ^ " root cid") want_hex (Cid.to_hex root);
      Alcotest.(check int) (what ^ " chunk count") want_chunks chunks)
    [
      ( "blob",
        Fb.Fblob.(root blob, chunk_count blob),
        ("fc679622e20e5b124cc6a9491b250e8c1fbc5e5de4b47127c58d280078b5950d", 11) );
      ( "list",
        Fb.Flist.(root list, chunk_count list),
        ("47153bca2f18f7bb37457d0518f2d358e7fd216a72d05a15ab08680256d90162", 5) );
      ( "map",
        Fb.Fmap.(root map, chunk_count map),
        ("7c714a5f59f7a03358a79999427bdb5f756824011079f512224df388a2d2d254", 6) );
      ( "set",
        Fb.Fset.(root set, chunk_count set),
        ("83e78af4f668ca2baa3815a201a799e4e531c74dd59f0d0ef3d5c154261b606c", 7) );
    ]

(* --- sorted (Map-like) container --- *)

let kv i = (Printf.sprintf "key-%05d" i, Printf.sprintf "val-%d" i)

let test_sorted_basic () =
  let store = Store.mem_store () in
  let elems = List.init 1000 kv in
  let m = M.of_list store cfg elems in
  Alcotest.(check (option (pair string string)))
    "find present" (Some (kv 500)) (M.find m "key-00500");
  Alcotest.(check (option (pair string string))) "find absent" None (M.find m "nope");
  (match M.position_of_key m "key-00500" with
  | `Found 500 -> ()
  | _ -> Alcotest.fail "position_of_key found");
  match M.position_of_key m "key-00500x" with
  | `Insert_at 501 -> ()
  | _ -> Alcotest.fail "position_of_key insert point"

let test_sorted_set_remove () =
  let store = Store.mem_store () in
  let m = M.of_list store cfg (List.init 100 kv) in
  let m = M.set_sorted m ("key-00050", "updated") in
  Alcotest.(check (option (pair string string)))
    "update" (Some ("key-00050", "updated")) (M.find m "key-00050");
  Alcotest.(check int) "no growth on update" 100 (M.length m);
  let m = M.set_sorted m ("key-00050a", "inserted") in
  Alcotest.(check int) "insert grows" 101 (M.length m);
  let m = M.remove_sorted m "key-00050a" in
  Alcotest.(check int) "remove shrinks" 100 (M.length m);
  let m2 = M.remove_sorted m "absent-key" in
  Alcotest.(check bool) "remove absent is no-op" true (M.equal m m2)

let prop_sorted_model =
  QCheck.Test.make ~name:"sorted tree matches Stdlib.Map model" ~count:40
    QCheck.(
      list_of_size (Gen.int_bound 120)
        (pair (pair (int_bound 60) small_string) bool))
    (fun ops ->
      let store = Store.mem_store () in
      let m = ref (M.empty store cfg) in
      let model = ref [] in
      let module SM = Map.Make (String) in
      let sm = ref SM.empty in
      List.iter
        (fun ((k, v), is_set) ->
          let key = Printf.sprintf "k%03d" k in
          if is_set then begin
            m := M.set_sorted !m (key, v);
            sm := SM.add key v !sm
          end
          else begin
            m := M.remove_sorted !m key;
            sm := SM.remove key !sm
          end)
        ops;
      ignore model;
      let expected = SM.bindings !sm in
      M.to_list !m = expected
      && M.equal !m (M.of_list store cfg expected))

let prop_set_sorted_many =
  QCheck.Test.make ~name:"set_sorted_many = fold set_sorted" ~count:40
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 80) (int_bound 50))
        (list_of_size (Gen.int_bound 40) (pair (int_bound 80) small_string)))
    (fun (init_keys, updates) ->
      let store = Store.mem_store () in
      let init =
        List.sort_uniq compare (List.map (fun i -> Printf.sprintf "k%03d" i) init_keys)
      in
      let m0 = M.of_list store cfg (List.map (fun k -> (k, "init")) init) in
      let ups = List.map (fun (i, v) -> (Printf.sprintf "k%03d" i, v)) updates in
      let batched = M.set_sorted_many m0 ups in
      let sequential = List.fold_left M.set_sorted m0 ups in
      M.equal batched sequential)

(* Degenerate chunking configurations: the tree must stay correct — and
   keep history independence — when the leaf target is smaller than one
   element, when everything fits a single leaf, and when it is empty. *)
let test_tiny_leaf_target () =
  let store = Store.mem_store () in
  let tiny = Fbtree.Tree_config.with_leaf_bits 4 in
  (* every element alone exceeds the leaf budget *)
  let elems = List.init 60 (fun i -> Printf.sprintf "%06d-%s" i (String.make 80 'x')) in
  let t = T.of_list store tiny elems in
  Alcotest.(check (list string)) "round-trip" elems (T.to_list t);
  Alcotest.(check bool) "still splits into many leaves" true
    (Array.length (T.leaf_cids t) >= 30);
  (* splice-built and bulk-built trees still converge *)
  let left, right = (mk_elems 0, elems) in
  let grown = T.splice (T.of_list store tiny left) ~pos:0 ~del:0 ~ins:right in
  Alcotest.(check bool) "history independence" true
    (Cid.equal (T.root grown) (T.root t));
  let edited = T.splice t ~pos:30 ~del:1 ~ins:[ "short" ] in
  Alcotest.(check string) "edit lands" "short" (T.get edited 30);
  Alcotest.(check bool) "reload equals" true
    (T.equal edited (T.of_root store tiny (T.root edited)))

let test_single_leaf () =
  let store = Store.mem_store () in
  let elems = mk_elems 3 in
  let t = T.of_list store cfg_default elems in
  Alcotest.(check int) "height 1" 1 (T.height t);
  Alcotest.(check int) "one chunk" 1 (T.chunk_count t);
  Alcotest.(check (list string)) "content" elems
    (T.to_list (T.of_root store cfg_default (T.root t)));
  Alcotest.(check bool) "verifies" true (T.verify t)

let test_empty_tree_roundtrip () =
  let store = Store.mem_store () in
  let t = T.of_list store cfg [] in
  Alcotest.(check bool) "empty = empty" true (T.equal t (T.empty store cfg));
  let t' = T.of_root store cfg (T.root t) in
  Alcotest.(check int) "reload empty" 0 (T.length t');
  let grown = T.splice t' ~pos:0 ~del:0 ~ins:[ "a" ] in
  Alcotest.(check (list string)) "grow from reloaded empty" [ "a" ]
    (T.to_list grown);
  Alcotest.(check bool) "shrink back to empty" true
    (T.equal t (T.splice grown ~pos:0 ~del:1 ~ins:[]))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "postree"
    [
      ( "basic",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "of_root" `Quick test_of_root;
          Alcotest.test_case "of_root fetches each index chunk once" `Quick
            test_of_root_get_count;
          Alcotest.test_case "get/slice" `Quick test_get_slice;
          Alcotest.test_case "bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "append grow" `Quick test_append_grow;
          Alcotest.test_case "delete all" `Quick test_delete_all;
          Alcotest.test_case "huge element" `Quick test_huge_element;
          Alcotest.test_case "repeated content" `Quick test_repeated_content;
          Alcotest.test_case "verify" `Quick test_verify_missing;
          Alcotest.test_case "diff region" `Quick test_diff_region;
          Alcotest.test_case "golden root cids" `Quick test_golden_roots;
          Alcotest.test_case "implausible counts are corrupt" `Quick
            test_implausible_counts;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "leaf target smaller than one element" `Quick
            test_tiny_leaf_target;
          Alcotest.test_case "single leaf" `Quick test_single_leaf;
          Alcotest.test_case "empty tree" `Quick test_empty_tree_roundtrip;
        ] );
      ( "properties",
        [
          q prop_history_independence;
          q prop_splice_many_equals_sequential;
          Alcotest.test_case "copy-on-write locality" `Quick test_copy_on_write_locality;
        ] );
      ( "sorted",
        [
          Alcotest.test_case "find/position" `Quick test_sorted_basic;
          Alcotest.test_case "set/remove" `Quick test_sorted_set_remove;
          q prop_sorted_model;
          q prop_set_sorted_many;
        ] );
    ]
