(* Built-in data types: primitives, Blob, List, Map, Set, Value payloads. *)

module Store = Fbchunk.Chunk_store
module Prim = Fbtypes.Prim
module Fblob = Fbtypes.Fblob
module Flist = Fbtypes.Flist
module Fmap = Fbtypes.Fmap
module Fset = Fbtypes.Fset
module Value = Fbtypes.Value

let cfg = Fbtree.Tree_config.with_leaf_bits 8
let fresh () = Store.mem_store ()

(* --- primitives --- *)

let prim_roundtrip p =
  let buf = Buffer.create 32 in
  Prim.encode buf p;
  let r = Fbutil.Codec.reader (Buffer.contents buf) in
  let p' = Prim.decode r in
  Fbutil.Codec.expect_end r;
  Prim.equal p p'

let qcheck_prim_roundtrip =
  QCheck.Test.make ~name:"prim encode/decode round-trip" ~count:300
    QCheck.(
      oneof
        [
          map (fun s -> Prim.Str s) string;
          map (fun i -> Prim.Int i) int64;
          map (fun l -> Prim.Tuple l) (list small_string);
        ])
    prim_roundtrip

let test_prim_ops () =
  Alcotest.(check bool) "append str" true
    (Prim.equal (Prim.append (Prim.Str "ab") "cd") (Prim.Str "abcd"));
  Alcotest.(check bool) "append tuple" true
    (Prim.equal (Prim.append (Prim.Tuple [ "a" ]) "b") (Prim.Tuple [ "a"; "b" ]));
  Alcotest.(check bool) "insert str" true
    (Prim.equal (Prim.insert (Prim.Str "ad") 1 "bc") (Prim.Str "abcd"));
  Alcotest.(check bool) "insert tuple" true
    (Prim.equal
       (Prim.insert (Prim.Tuple [ "a"; "c" ]) 1 "b")
       (Prim.Tuple [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "add" true
    (Prim.equal (Prim.add (Prim.Int 40L) 2L) (Prim.Int 42L));
  Alcotest.(check bool) "multiply" true
    (Prim.equal (Prim.multiply (Prim.Int 6L) 7L) (Prim.Int 42L));
  (match Prim.add (Prim.Str "x") 1L with
  | exception Prim.Type_mismatch _ -> ()
  | _ -> Alcotest.fail "add on Str should fail");
  match Prim.append (Prim.Int 1L) "x" with
  | exception Prim.Type_mismatch _ -> ()
  | _ -> Alcotest.fail "append on Int should fail"

(* --- blob --- *)

let test_blob_basic () =
  let store = fresh () in
  let b = Fblob.create store cfg "hello forkbase blob" in
  Alcotest.(check int) "length" 19 (Fblob.length b);
  Alcotest.(check string) "read" "forkbase" (Fblob.read b ~pos:6 ~len:8);
  Alcotest.(check string) "to_string" "hello forkbase blob" (Fblob.to_string b)

let test_blob_paper_example () =
  (* The Figure 4 workflow: remove 10 bytes from the beginning, append. *)
  let store = fresh () in
  let b = Fblob.create store cfg "0123456789my value" in
  let b = Fblob.remove b ~pos:0 ~len:10 in
  let b = Fblob.append b "some more" in
  Alcotest.(check string) "edited" "my valuesome more" (Fblob.to_string b)

let qcheck_blob_bulk_build =
  QCheck.Test.make ~name:"blob bulk build = append chain (same root)" ~count:60
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 20_000)) (small_list small_nat))
    (fun (s, steps) ->
      let store = fresh () in
      let bulk = Fblob.create store cfg s in
      (* appending piece by piece re-rolls the residual last leaf each time
         through the byte splice; the generic element chunker stays covered
         by test_postree and test_hash's feed_detect/find_boundary check *)
      let steps = Array.of_list (List.map (fun k -> 1 + (k * 37)) steps) in
      let rec go b off i =
        if off >= String.length s then b
        else
          let take = if steps = [||] then 1000 else steps.(i mod Array.length steps) in
          let take = min take (String.length s - off) in
          go (Fblob.append b (String.sub s off take)) (off + take) (i + 1)
      in
      Fblob.equal bulk (go (Fblob.empty store cfg) 0 0))

let qcheck_blob_splice =
  QCheck.Test.make ~name:"blob splice matches string model" ~count:100
    QCheck.(
      quad (string_of_size (QCheck.Gen.int_range 0 3000)) small_nat small_nat
        small_string)
    (fun (s, pos, del, ins) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else pos mod (n + 1) in
      let del = min del (n - pos) in
      let store = fresh () in
      let b = Fblob.create store cfg s in
      let b' = Fblob.splice b ~pos ~del ~ins in
      let expected = String.sub s 0 pos ^ ins ^ String.sub s (pos + del) (n - pos - del) in
      Fblob.to_string b' = expected)

(* The string model of [Fblob.diff_region]: the longest common prefix,
   then the longest common suffix of what is left. *)
let model_region a b =
  let la = String.length a and lb = String.length b in
  let p = ref 0 in
  while !p < min la lb && a.[!p] = b.[!p] do incr p done;
  let q = ref 0 in
  while !q < min la lb - !p && a.[la - 1 - !q] = b.[lb - 1 - !q] do incr q done;
  if a = b then None else Some ((!p, la - !p - !q), (!p, lb - !p - !q))

let qcheck_blob_diff_region =
  (* a two-letter alphabet makes shifted repeats, where a prefix and a
     suffix could overlap, common *)
  let ab = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 6000)) in
  QCheck.Test.make ~name:"blob diff_region = string prefix/suffix model" ~count:100
    QCheck.(make ~print:Print.(quad string int int string) Gen.(quad ab nat nat ab))
    (fun (a, pos, del, ins) ->
      let n = String.length a in
      let pos = pos mod (n + 1) in
      let del = del mod (n - pos + 1) in
      let b = String.sub a 0 pos ^ String.sub ins 0 (min 200 (String.length ins))
              ^ String.sub a (pos + del) (n - pos - del) in
      let store = fresh () in
      Fblob.diff_region (Fblob.create store cfg a) (Fblob.create store cfg b)
      = model_region a b)

(* Differential check of the copy-on-write paths: after every edit of a
   script, [Fblob.splice] of the previous version and [Fblob.update] of it
   with the new bytes give [Fblob.create]'s tree — root, chunk set and the
   bytes each store holds. *)

(* Leaf starts of the tree [create] builds: the leaf cut rule restated over
   [Rolling], to aim edits at boundaries and at the residual last leaf. *)
let leaf_starts (cfg : Fbtree.Tree_config.t) s =
  let module R = Fbhash.Rolling in
  let roll = R.any cfg.rolling ~window:cfg.window in
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      match
        R.any_find_boundary roll s ~off ~chunk_size_before:0 ~min_size:cfg.min_leaf_bytes
          ~max_size:cfg.max_leaf_bytes ~mask:((1 lsl cfg.leaf_bits) - 1)
      with
      | Some k ->
          R.any_reset roll;
          go (off + k) (off :: acc)
      | None -> List.rev (off :: acc)
  in
  go 0 []

type at = Zero | End | In_last | On_boundary | Anywhere
type edit = Splice of at * int * int * string | Delete_all | Replace_all of string

let differential_case =
  let open QCheck.Gen in
  let random n = string_size ~gen:char (return n) in
  let page =
    int_range 0 70_000 >>= fun n ->
    oneof
      [
        random n;
        map (fun c -> String.make n c) char;
        return (String.init n (fun i -> "xyz".[i mod 3]));
        (* constant runs around random bytes *)
        map (fun r -> String.make (n / 3) 'c' ^ r ^ String.make (n / 3) 'c') (random (n / 3));
      ]
  in
  let edit =
    frequency
      [
        ( 8,
          map4
            (fun at pick del ins -> Splice (at, pick, del, ins))
            (oneofl [ Zero; End; In_last; On_boundary; Anywhere ])
            nat
            (oneof [ return 0; int_range 1 300; return max_int ])
            (oneof [ return ""; string_size ~gen:char (int_range 1 300) ]) );
        (1, return Delete_all);
        (1, map (fun s -> Replace_all s) (int_range 0 20_000 >>= random));
      ]
  in
  let cfg =
    map2
      (fun rolling q -> { (Fbtree.Tree_config.with_leaf_bits q) with rolling })
      (oneofl Fbhash.Rolling.[ Cyclic_poly; Rabin_karp; Moving_sum ])
      (oneofl [ 8; 10; 12 ])
  in
  triple cfg page (list_size (int_range 1 4) edit)

(* Concrete [(pos, del, ins)] of an edit on [s]. *)
let resolve cfg s = function
  | Delete_all -> (0, String.length s, "")
  | Replace_all r -> (0, String.length s, r)
  | Splice (at, pick, del, ins) ->
      let n = String.length s in
      let starts = leaf_starts cfg s in
      let last = List.fold_left (fun _ x -> x) 0 starts in
      let pos =
        match at with
        | Zero -> 0
        | End -> n
        | In_last -> last + (pick mod (n - last + 1))
        | On_boundary -> if starts = [] then 0 else List.nth starts (pick mod List.length starts)
        | Anywhere -> pick mod (n + 1)
      in
      (pos, min del (n - pos), ins)

let prop_differential ((cfg : Fbtree.Tree_config.t), page, script) =
  let s_splice = fresh () and s_update = fresh () and s_create = fresh () in
  (* the chunk set of a tree: its closure from the root cid *)
  let chunks st b =
    let set = ref Fbchunk.Cid.Set.empty in
    Forkbase.Gc.walk ~local:st
      (fun c -> set := Fbchunk.Cid.Set.add (Fbchunk.Chunk.cid c) !set)
      [ Fblob.root b ];
    !set
  in
  let bytes st = (st.Store.stats ()).Store.bytes in
  let spliced = ref (Fblob.create s_splice cfg page)
  and updated = ref (Fblob.create s_update cfg page)
  and current = ref page in
  ignore (Fblob.create s_create cfg page);
  List.for_all
    (fun e ->
      let pos, del, ins = resolve cfg !current e in
      let n = String.length !current in
      current := String.sub !current 0 pos ^ ins ^ String.sub !current (pos + del) (n - pos - del);
      spliced := Fblob.splice !spliced ~pos ~del ~ins;
      updated := Fblob.update !updated ~pos:0 ~len:(String.length !current) !current;
      let created = Fblob.create s_create cfg !current in
      Fblob.equal !spliced created && Fblob.equal !updated created
      && Fbchunk.Cid.Set.equal (chunks s_splice !spliced)
           (chunks s_create created)
      && Fbchunk.Cid.Set.equal (chunks s_update !updated)
           (chunks s_create created)
      && bytes s_splice = bytes s_create && bytes s_update = bytes s_create
      && Fblob.to_string !spliced = !current)
    script

let qcheck_blob_differential =
  let print ((cfg : Fbtree.Tree_config.t), page, script) =
    Printf.sprintf "leaf_bits=%d rolling=%s page=%d bytes, edits=[%s]" cfg.leaf_bits
      (match cfg.rolling with Cyclic_poly -> "cyclic" | Rabin_karp -> "rabin" | Moving_sum -> "sum")
      (String.length page)
      (String.concat "; "
         (List.map
            (function
              | Delete_all -> "delete-all"
              | Replace_all r -> Printf.sprintf "replace-all %d" (String.length r)
              | Splice (_, pick, del, ins) ->
                  Printf.sprintf "splice pick=%d del=%d ins=%d" pick del (String.length ins))
            script))
  in
  QCheck.Test.make ~name:"blob splice and update = create (root, chunks, bytes)" ~count:120
    (QCheck.make ~print differential_case)
    prop_differential

(* The byte splice resumes the edited leaf's bytes before the edit
   without looking for cuts, rolls only their last [window] bytes, and
   re-checks the byte just before the edit.  Edits where that could slip —
   a leaf's first bytes, either side of one window, its last byte — and
   appends after a last leaf that ends on a content-defined cut or on a
   residual one all give [create]'s root, for every rolling family. *)
let test_blob_splice_window_edges () =
  let rng = Random.State.make [| 24 |] in
  let page = String.init 8000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.iter
    (fun (name, rolling) ->
      let cfg = { (Fbtree.Tree_config.with_leaf_bits 8) with rolling } in
      let w = cfg.window in
      let store = fresh () in
      let splice what s ~pos ~del ~ins =
        let n = String.length s in
        let edited = String.sub s 0 pos ^ ins ^ String.sub s (pos + del) (n - pos - del) in
        Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true
          (Fblob.equal
             (Fblob.splice (Fblob.create store cfg s) ~pos ~del ~ins)
             (Fblob.create store cfg edited))
      in
      let starts = Array.of_list (leaf_starts cfg page) in
      let n_leaves = Array.length starts in
      Alcotest.(check bool) (name ^ ": the page has several leaves") true (n_leaves >= 4);
      List.iter
        (fun leaf ->
          let start = starts.(leaf) and stop = starts.(leaf + 1) in
          List.iter
            (fun off ->
              let pos = start + off in
              let at = Printf.sprintf "leaf %d offset %d" leaf off in
              splice ("overwrite at " ^ at) page ~pos ~del:1 ~ins:"#";
              splice ("insert at " ^ at) page ~pos ~del:0 ~ins:"inserted bytes";
              splice ("delete at " ^ at) page ~pos ~del:1 ~ins:"")
            [ 0; 1; w - 1; w; w + 1; stop - start - 1 ])
        [ 0; n_leaves / 2 ];
      (* A leaf shorter than the maximum ended on a content-defined cut. *)
      let leaf =
        let rec find i =
          if i >= n_leaves then Alcotest.fail (name ^ ": no content-defined cut")
          else if starts.(i) - starts.(i - 1) < cfg.max_leaf_bytes then i
          else find (i + 1)
        in
        find 1
      in
      let at_cut = String.sub page 0 starts.(leaf) in
      let tail = String.sub page starts.(leaf) 300 in
      List.iter
        (fun (what, s) ->
          splice ("append one byte after " ^ what) s ~pos:(String.length s) ~del:0 ~ins:"!";
          splice ("append after " ^ what) s ~pos:(String.length s) ~del:0 ~ins:tail)
        [ ("a content-defined cut", at_cut);
          ("a residual last leaf", String.sub page 0 (starts.(leaf) + 10)) ])
    Fbhash.Rolling.[ ("cyclic", Cyclic_poly); ("rabin", Rabin_karp); ("sum", Moving_sum) ]

let test_blob_dedup_versions () =
  let store = fresh () in
  let page = String.init 15_000 (fun i -> Char.chr (65 + ((i * 7) mod 26))) in
  let v1 = Fblob.create store cfg page in
  let bytes_v1 = (store.Store.stats ()).Store.bytes in
  (* 20 successive small edits: storage should grow far slower than
     20 × page size thanks to chunk sharing. *)
  let b = ref v1 in
  for i = 1 to 20 do
    b := Fblob.overwrite !b ~pos:(i * 300) (Printf.sprintf "EDIT%04d" i)
  done;
  let bytes_total = (store.Store.stats ()).Store.bytes in
  let growth = bytes_total - bytes_v1 in
  Alcotest.(check bool)
    (Printf.sprintf "dedup keeps growth small (%d bytes for 20 versions)" growth)
    true
    (growth < 6 * 15_000)

(* --- list --- *)

let test_list_ops () =
  let store = fresh () in
  let l = Flist.create store cfg [ "a"; "b"; "c" ] in
  let l = Flist.push_back l "d" in
  let l = Flist.insert l ~pos:0 [ "z" ] in
  let l = Flist.set l 2 "B" in
  Alcotest.(check (list string)) "ops" [ "z"; "a"; "B"; "c"; "d" ] (Flist.to_list l);
  let l = Flist.remove l ~pos:1 ~len:2 in
  Alcotest.(check (list string)) "remove" [ "z"; "c"; "d" ] (Flist.to_list l);
  Alcotest.(check string) "get" "c" (Flist.get l 1)

let test_list_empty_elements () =
  let store = fresh () in
  let l = Flist.create store cfg [ ""; "x"; ""; "" ] in
  Alcotest.(check (list string)) "empty elems survive" [ ""; "x"; ""; "" ]
    (Flist.to_list l)

(* --- map --- *)

let test_map_ops () =
  let store = fresh () in
  let m = Fmap.create store cfg [ ("b", "2"); ("a", "1"); ("c", "3") ] in
  Alcotest.(check (option string)) "find" (Some "2") (Fmap.find m "b");
  Alcotest.(check bool) "mem" true (Fmap.mem m "a");
  Alcotest.(check bool) "not mem" false (Fmap.mem m "z");
  let m = Fmap.set m "b" "22" in
  let m = Fmap.remove m "a" in
  Alcotest.(check (list (pair string string)))
    "bindings sorted" [ ("b", "22"); ("c", "3") ] (Fmap.bindings m);
  Alcotest.(check int) "cardinal" 2 (Fmap.cardinal m)

let test_map_last_wins () =
  let store = fresh () in
  let m = Fmap.create store cfg [ ("k", "first"); ("k", "second") ] in
  Alcotest.(check (option string)) "duplicate keys: last wins" (Some "second")
    (Fmap.find m "k")

let test_map_diff () =
  let store = fresh () in
  let kvs = List.init 500 (fun i -> (Printf.sprintf "key%04d" i, "v")) in
  let m1 = Fmap.create store cfg kvs in
  let m2 = Fmap.set m1 "key0100" "changed" in
  let m2 = Fmap.remove m2 "key0200" in
  let m2 = Fmap.set m2 "newkey" "added" in
  let d = Fmap.diff m1 m2 in
  Alcotest.(check int) "three differences" 3 (List.length d);
  List.iter
    (fun (k, change) ->
      match (k, change) with
      | "key0100", `Changed ("v", "changed") -> ()
      | "key0200", `Left "v" -> ()
      | "newkey", `Right "added" -> ()
      | k, _ -> Alcotest.fail ("unexpected diff entry " ^ k))
    d;
  Alcotest.(check (list (pair string string)))
    "diff of equal maps is empty" []
    (List.map (fun (k, _) -> (k, "")) (Fmap.diff m1 m1))

let test_map_equal_independent_of_insertion_order () =
  let store = fresh () in
  let kvs = List.init 300 (fun i -> (Printf.sprintf "key%04d" i, string_of_int i)) in
  let m1 = Fmap.create store cfg kvs in
  let m2 = Fmap.create store cfg (List.rev kvs) in
  let m3 =
    List.fold_left (fun m (k, v) -> Fmap.set m k v) (Fmap.empty store cfg) kvs
  in
  Alcotest.(check bool) "reverse insertion" true (Fmap.equal m1 m2);
  Alcotest.(check bool) "one-by-one insertion" true (Fmap.equal m1 m3)

(* --- set --- *)

let test_set_ops () =
  let store = fresh () in
  let s = Fset.create store cfg [ "b"; "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "dedup + sorted" [ "a"; "b"; "c" ] (Fset.elements s);
  let s = Fset.add s "d" in
  let s = Fset.remove s "a" in
  Alcotest.(check bool) "mem" true (Fset.mem s "d");
  Alcotest.(check bool) "removed" false (Fset.mem s "a");
  let s2 = Fset.create store cfg [ "b"; "c"; "d" ] in
  Alcotest.(check bool) "equal" true (Fset.equal s s2)

let test_set_diff () =
  let store = fresh () in
  let s1 = Fset.create store cfg [ "a"; "b"; "c" ] in
  let s2 = Fset.create store cfg [ "b"; "c"; "d" ] in
  match Fset.diff s1 s2 with
  | [ `Left "a"; `Right "d" ] -> ()
  | _ -> Alcotest.fail "unexpected set diff"

(* --- iterator order stability ---
   Sorted containers promise key order from every traversal entry point,
   independent of insertion order, edits, or node boundaries (the 180
   elements below span several leaves under this config). *)

let shuffled n =
  let rng = Fbutil.Splitmix.create 0x0DDE4L in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Fbutil.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let test_map_iter_order () =
  let store = fresh () in
  let n = 180 in
  let m =
    List.fold_left
      (fun m i -> Fmap.set m (Printf.sprintf "k%04d" i) (string_of_int i))
      (Fmap.empty store cfg) (shuffled n)
  in
  let expected = List.init n (fun i -> (Printf.sprintf "k%04d" i, string_of_int i)) in
  Alcotest.(check (list (pair string string))) "bindings sorted" expected
    (Fmap.bindings m);
  Alcotest.(check (list (pair string string))) "to_seq = bindings" expected
    (List.of_seq (Fmap.to_seq m));
  Alcotest.(check (list (pair string string)))
    "fold visits in key order" expected
    (List.rev (Fmap.fold (fun acc k v -> (k, v) :: acc) [] m));
  let expect_from k = List.filter (fun (k', _) -> k' >= k) expected in
  List.iter
    (fun k ->
      Alcotest.(check (list (pair string string)))
        ("to_seq_from " ^ k) (expect_from k)
        (List.of_seq (Fmap.to_seq_from m k)))
    [ "k0000"; "k0091"; "k0091a" (* between keys *); "k0179"; "zzz" ];
  (* edits must not disturb the order of untouched bindings *)
  let m = Fmap.remove (Fmap.set m "k0090" "changed") "k0091" in
  let expected =
    List.filter_map
      (fun (k, v) ->
        if k = "k0091" then None
        else if k = "k0090" then Some (k, "changed")
        else Some (k, v))
      expected
  in
  Alcotest.(check (list (pair string string))) "order stable after edits"
    expected (Fmap.bindings m)

let test_set_iter_order () =
  let store = fresh () in
  let n = 180 in
  let s =
    List.fold_left
      (fun s i -> Fset.add s (Printf.sprintf "e%04d" i))
      (Fset.empty store cfg) (shuffled n)
  in
  let expected = List.init n (Printf.sprintf "e%04d") in
  Alcotest.(check (list string)) "elements sorted" expected (Fset.elements s);
  Alcotest.(check (list string)) "to_seq = elements" expected
    (List.of_seq (Fset.to_seq s));
  List.iter
    (fun k ->
      Alcotest.(check (list string))
        ("to_seq_from " ^ k)
        (List.filter (fun e -> e >= k) expected)
        (List.of_seq (Fset.to_seq_from s k)))
    [ "e0000"; "e0101"; "e0101a"; "e0179"; "zzz" ];
  (* insertion order must not matter: same elements, same traversal *)
  let s2 = Fset.create store cfg expected in
  Alcotest.(check bool) "root independent of insertion order" true
    (Fbchunk.Cid.equal (Fset.root s) (Fset.root s2));
  Alcotest.(check (list string)) "rebuilt traversal identical" expected
    (List.of_seq (Fset.to_seq s2))

(* --- value payload round-trip --- *)

let test_value_roundtrip () =
  let store = fresh () in
  let values =
    [
      Value.Prim (Prim.Str "hello");
      Value.Prim (Prim.Int 123L);
      Value.Prim (Prim.Tuple [ "a"; "b" ]);
      Value.Blob (Fblob.create store cfg (String.make 5000 'q'));
      Value.List (Flist.create store cfg [ "x"; "y" ]);
      Value.Map (Fmap.create store cfg [ ("k", "v") ]);
      Value.Set (Fset.create store cfg [ "m" ]);
    ]
  in
  List.iter
    (fun v ->
      let payload = Value.payload v in
      let v' = Value.of_payload store cfg (Value.kind v) payload in
      Alcotest.(check bool)
        ("roundtrip " ^ Value.kind_to_string (Value.kind v))
        true (Value.equal v v'))
    values

let test_value_kind_bytes () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "kind byte roundtrip" true
        (Value.kind_of_byte (Value.kind_to_byte k) = k))
    [ Value.Kprim; Value.Kblob; Value.Klist; Value.Kmap; Value.Kset ]

(* Building a Set or a Map stores exactly the chunks its tree references:
   a put of each leaves nothing for a sweep to reclaim. *)
let test_containers_leave_no_garbage () =
  let module Db = Forkbase.Db in
  let db = Db.create (fresh ()) in
  let (_ : Fbchunk.Cid.t) = Db.put db ~key:"s" (Db.set db [ "a" ]) in
  let (_ : Fbchunk.Cid.t) = Db.put db ~key:"m" (Db.map db [ ("k", "v") ]) in
  Alcotest.(check (pair int int)) "garbage (chunks, bytes)" (0, 0)
    (Forkbase.Gc.garbage_stats db)

(* The C compare behind [Fblob.update] against its OCaml reference, both
   ways, over equal runs whose lengths and offsets are never multiples of
   8 (nor of 4096), so every block size and the byte tail are exercised.
   One mismatch is planted at every position of a small range, which
   lands it in each block size's scan; the run must stop exactly there. *)
let qcheck_run_equal_stub =
  let odd n = if n mod 8 = 0 then n + 1 else n in
  QCheck.Test.make ~name:"run_equal: stub = reference" ~count:100
    QCheck.(quad (int_range 1 9000) (int_range 0 300) (int_range 0 300) (int_range 0 8999))
    (fun (len, ai, bi, at) ->
      let len = odd len and ai = odd ai and bi = odd bi in
      let run = String.init len (fun i -> Char.chr ((i * 31 + i / 7) land 0xff)) in
      let a = String.make ai 'a' ^ run ^ "tail-a" and b = String.make bi 'b' ^ run ^ "tail-b" in
      let agree ~back a ai b bi expected =
        let got = Fblob.run_equal ~back a ai b bi len in
        got = Fblob.Reference.run_equal ~back a ai b bi len && got = expected
      in
      let agree_both b expected_fwd expected_back =
        agree ~back:false a ai b bi expected_fwd
        && agree ~back:true a (ai + len) b (bi + len) expected_back
      in
      let first = at mod len in
      agree_both b len len
      && List.for_all
           (fun k ->
             k >= len
             ||
             let b' =
               String.mapi (fun i c -> if i = bi + k then Char.chr (Char.code c lxor 0x5a) else c) b
             in
             agree_both b' k (len - 1 - k))
           (List.init 20 (fun d -> first + d)))

let test_run_equal_bounds () =
  let s = String.make 100 'x' in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : int) -> Alcotest.fail (name ^ ": no Invalid_argument")
  in
  raises "forward past the end" (fun () -> Fblob.run_equal ~back:false s 50 s 0 51);
  raises "backward before the start" (fun () -> Fblob.run_equal ~back:true s 10 s 100 11);
  raises "negative offset" (fun () -> Fblob.run_equal ~back:false s (-1) s 0 1);
  raises "negative length" (fun () -> Fblob.run_equal ~back:false s 0 s 0 (-1));
  Alcotest.(check int) "the whole string" 100 (Fblob.run_equal ~back:true s 100 s 100 100)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "types"
    [
      ( "prim",
        [ q qcheck_prim_roundtrip; Alcotest.test_case "operations" `Quick test_prim_ops ] );
      ( "blob",
        [
          Alcotest.test_case "basic" `Quick test_blob_basic;
          Alcotest.test_case "paper example (fig 4)" `Quick test_blob_paper_example;
          q qcheck_blob_bulk_build;
          q qcheck_blob_splice;
          q qcheck_blob_diff_region;
          q qcheck_blob_differential;
          q qcheck_run_equal_stub;
          Alcotest.test_case "run_equal bounds" `Quick test_run_equal_bounds;
          Alcotest.test_case "splice at the re-roll window's edges" `Quick
            test_blob_splice_window_edges;
          Alcotest.test_case "version dedup" `Quick test_blob_dedup_versions;
        ] );
      ( "list",
        [
          Alcotest.test_case "operations" `Quick test_list_ops;
          Alcotest.test_case "empty elements" `Quick test_list_empty_elements;
        ] );
      ( "map",
        [
          Alcotest.test_case "operations" `Quick test_map_ops;
          Alcotest.test_case "last wins" `Quick test_map_last_wins;
          Alcotest.test_case "diff" `Quick test_map_diff;
          Alcotest.test_case "insertion-order independence" `Quick
            test_map_equal_independent_of_insertion_order;
          Alcotest.test_case "iterator order stability" `Quick
            test_map_iter_order;
        ] );
      ( "set",
        [
          Alcotest.test_case "operations" `Quick test_set_ops;
          Alcotest.test_case "diff" `Quick test_set_diff;
          Alcotest.test_case "iterator order stability" `Quick
            test_set_iter_order;
        ] );
      ( "value",
        [
          Alcotest.test_case "payload roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "kind bytes" `Quick test_value_kind_bytes;
          Alcotest.test_case "containers leave no garbage" `Quick
            test_containers_leave_no_garbage;
        ] );
    ]
