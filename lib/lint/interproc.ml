(* The interprocedural analyses: whole-repo rules over the {!Callgraph}
   and cross-file facts that no single expression shows.  Like the
   syntactic rules, everything here is total — the analyses run inside
   the tier-1 gate. *)

module F = Finding
module C = Callgraph

let wire_scope = "lib/remote/wire.ml"
let server_scope = "lib/remote/server.ml"
let client_scope = "lib/remote/client.ml"
let test_remote_scope = "test/test_remote.ml"

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let last2 parts =
  match List.rev parts with
  | v :: m :: _ -> Some (m, v)
  | _ -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let in_lib_or_bin scope =
  starts_with ~prefix:"lib/" scope || starts_with ~prefix:"bin/" scope

(* ------------------------------------------------------------------ *)
(* no-block-in-loop                                                    *)

(* The primitives that park the event loop: raw blocking syscalls, the
   wire layer's *blocking* framing (a handler calling [Wire.write_frame]
   — say, through a [Client] call to another shard — stalls every
   connection), and the fsync paths of the durable store.  The durable
   paths the server legitimately uses arrive as injected closures
   ([?group_commit], [?checkpoint], [?tick]) which the call graph cannot
   see through — exactly the point: blocking work must go through a
   declared hook the event loop schedules, never a direct call. *)
let blocking_heads =
  [
    ("Unix", "read"); ("Unix", "write"); ("Unix", "single_write");
    ("Unix", "write_substring"); ("Unix", "single_write_substring");
    ("Unix", "select"); ("Unix", "accept");
    ("Unix", "connect"); ("Unix", "sleep"); ("Unix", "sleepf");
    ("Unix", "system"); ("Unix", "fsync"); ("Unix", "wait");
    ("Unix", "waitpid");
    ("Wire", "read_frame"); ("Wire", "write_frame");
    ("Wire", "really_read"); ("Wire", "really_write");
    ("Log_store", "sync"); ("Log_store", "close");
    ("Persist", "sync"); ("Persist", "fsync_dir");
    ("Persist", "checkpoint"); ("Persist", "close");
  ]

(* The event loop's blessed nonblocking wrappers: matched sites are
   neither reported nor traversed into [wire.ml]'s internals. *)
let approved_heads =
  [
    ("Wire", "read_nb"); ("Wire", "write_nb"); ("Wire", "accept_nb");
    ("Wire", "select_nb");
  ]

let drop_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let head_matches table parts =
  match last2 (drop_stdlib parts) with
  | Some key -> List.exists (fun k -> k = key) table
  | None -> false

let is_handler_name path =
  String.equal path "serve" || String.equal path "handle"
  || starts_with ~prefix:"handle_" path
  || starts_with ~prefix:"on_" path

let no_block_in_loop graph =
  let roots =
    List.filter
      (fun d -> is_handler_name (C.def_path d))
      (C.defs_in graph ~scope:server_scope)
  in
  C.reach graph ~roots
    ~approved:(head_matches approved_heads)
    ~target:(head_matches blocking_heads)
  |> List.map (fun (h : C.hit) ->
         F.v ~rule:F.No_block_in_loop ~file:h.C.h_file ~line:h.C.h_line
           (Printf.sprintf
              "blocking %s is reachable from the connection handler %s; \
               route it through the Wire.*_nb wrappers or a declared ?tick \
               hook"
              (String.concat "." h.C.h_parts)
              (String.concat " -> " h.C.h_chain)))

(* ------------------------------------------------------------------ *)
(* wire-exhaustiveness                                                 *)

(* Every [Wire.request] variant must be (a) dispatched by a [server.ml]
   match case, (b) constructible from [client.ml], and (c) exercised by
   the codec round-trip generators in [test_remote.ml] — and (c) holds
   for every [Wire.response] variant too: decoding dispatches through a
   table derived from the codec's cases, so a case's layout is exercised
   only when a test encodes that variant.
   Presence is judged per role file, and a role absent from the analyzed
   set is skipped — linting a subtree never invents drift. *)

let variants_of type_name (structure : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.concat_map
            (fun (d : Parsetree.type_declaration) ->
              if String.equal d.ptype_name.txt type_name then
                match d.ptype_kind with
                | Ptype_variant constructors ->
                    List.map
                      (fun (c : Parsetree.constructor_declaration) ->
                        (c.pcd_name.txt, line_of c.pcd_loc))
                      constructors
                | _ -> []
              else [])
            decls
      | _ -> [])
    structure

(* Constructor names appearing in patterns (dispatch) or expressions
   (construction) anywhere in a structure. *)
let constructors_used structure =
  let in_patterns = Hashtbl.create 64 and in_exprs = Hashtbl.create 64 in
  let record tbl (txt : Longident.t) =
    match List.rev (Callgraph.flatten_safe txt) with
    | name :: _ -> Hashtbl.replace tbl name ()
    | [] -> ()
  in
  let expr_iter (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> record in_exprs txt
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let pat_iter (self : Ast_iterator.iterator) (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) -> record in_patterns txt
    | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let iterator =
    { Ast_iterator.default_iterator with expr = expr_iter; pat = pat_iter }
  in
  iterator.structure iterator structure;
  (in_patterns, in_exprs)

let wire_exhaustiveness units =
  let find scope =
    List.find_opt (fun (file, _) -> String.equal (F.scope_of_file file) scope) units
  in
  match find wire_scope with
  | None -> []
  | Some (wire_file, wire_structure) ->
      let role ?(type_name = "request") scope used_of describe =
        match find scope with
        | None -> []
        | Some (_, structure) ->
            let used = used_of (constructors_used structure) in
            List.filter_map
              (fun (name, line) ->
                if Hashtbl.mem used name then None
                else
                  Some
                    (F.v ~rule:F.Wire_exhaustiveness ~file:wire_file ~line
                       (Printf.sprintf "%s variant %s %s" type_name name describe)))
              (variants_of type_name wire_structure)
      in
      role server_scope fst
        "is not dispatched by server.ml: a client sending it gets a decode \
         of dead protocol"
      @ role client_scope snd
          "is not constructible from client.ml: the protocol has drifted \
           from the client surface"
      @ role test_remote_scope snd
          "has no codec round-trip in test_remote.ml: add it to the \
           request generator"
      @ role ~type_name:"response" test_remote_scope snd
          "has no codec round-trip in test_remote.ml: add it to the \
           response generator"

(* ------------------------------------------------------------------ *)
(* fd-discipline                                                       *)

(* Flow-sensitive, per-acquisition: a [Unix.openfile]/[socket]/[accept]
   result must, on every normal path of its binding's scope, be closed,
   escape to an owner (returned, stored in a record/tuple/constructor,
   captured by a closure — the [Fun.protect ~finally] shape — or passed
   to any non-[Unix] function), or the binding is reported.  [Unix.*]
   calls other than [close] borrow the fd without consuming it, so
   [let fd = Unix.socket ... in Unix.connect fd addr] with a dropped-fd
   path is caught.  Exceptional paths are checked only where the source
   names them ([try]/[| exception _ ->] handlers); an exception thrown
   between acquisition and release with no handler in scope is out of
   this rule's reach — wrap the region in [Fun.protect] where that
   matters. *)

let acquisition_heads = [ ("Unix", "openfile"); ("Unix", "socket"); ("Unix", "accept") ]

let acquisition_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let parts = drop_stdlib (Callgraph.flatten_safe txt) in
      if head_matches acquisition_heads parts then
        Some (String.concat "." parts)
      else None
  | _ -> None

let mentions fd (e : Parsetree.expression) =
  let found = ref false in
  let expr_iter (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident v; _ } when String.equal v fd ->
        found := true
    | _ -> ());
    if not !found then Ast_iterator.default_iterator.expr self e
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_iter } in
  iterator.expr iterator e;
  !found

let rec is_fd fd (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> String.equal v fd
  | Pexp_constraint (inner, _) -> is_fd fd inner
  | _ -> false

(* [handled fd e]: on every normal path through [e], is the fd closed or
   does it escape to an owner? *)
let rec handled fd (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident _ -> is_fd fd e  (* returned *)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let parts = drop_stdlib (Callgraph.flatten_safe txt) in
      let arg_exprs = List.map snd args in
      let direct = List.exists (is_fd fd) arg_exprs in
      let mentioned = List.exists (mentions fd) arg_exprs in
      match List.rev parts with
      | "close" :: _ when direct -> true
      | ("in_channel_of_descr" | "out_channel_of_descr") :: _ when direct ->
          true  (* ownership moves to the channel *)
      | _ when (match parts with "Unix" :: _ | [ "ignore" ] -> true | _ -> false)
        ->
          (* borrow: uses the fd, does not consume it; sub-expressions may
             still close or capture it — but an argument that *is* the fd
             is just the borrow itself, not a return.  [ignore fd] is the
             canonical non-escape. *)
          List.exists
            (fun a -> (not (is_fd fd a)) && handled fd a)
            arg_exprs
      | _ when mentioned -> true  (* escapes into an unknown callee *)
      | _ -> List.exists (handled fd) arg_exprs)
  | Pexp_apply (f, args) ->
      handled fd f || List.exists (fun (_, a) -> handled fd a) args
  | Pexp_fun (_, _, _, body) -> mentions fd body  (* captured by a closure *)
  | Pexp_function cases ->
      List.exists (fun (c : Parsetree.case) -> mentions fd c.pc_rhs) cases
  | Pexp_sequence (a, b) -> handled fd a || handled fd b
  | Pexp_let (_, vbs, body) ->
      List.exists (fun (vb : Parsetree.value_binding) -> handled fd vb.pvb_expr) vbs
      || handled fd body
  | Pexp_ifthenelse (c, t, e) -> (
      handled fd c
      || (handled fd t && match e with Some e -> handled fd e | None -> false))
  | Pexp_match (scrut, cases) ->
      handled fd scrut
      || (cases <> []
         && List.for_all (fun (c : Parsetree.case) -> handled fd c.pc_rhs) cases)
  | Pexp_try (body, _) ->
      (* the handlers run only when the body raised; the body's own
         close/escape is what this rule can check *)
      handled fd body
  | Pexp_record (fields, base) ->
      List.exists (fun (_, v) -> mentions fd v) fields
      || (match base with Some b -> handled fd b | None -> false)
  | Pexp_tuple es | Pexp_array es ->
      List.exists (mentions fd) es
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
      mentions fd arg
  | Pexp_setfield (_, _, v) -> mentions fd v
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) | Pexp_letexception (_, inner)
    ->
      handled fd inner
  | _ -> false

(* The variable an acquisition binds: [let fd = Unix.socket ...] or the
   fd slot of [let fd, _peer = Unix.accept ...]. *)
let rec bound_fd (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_tuple (first :: _) -> bound_fd first
  | Ppat_constraint (inner, _) -> bound_fd inner
  | _ -> None

let fd_findings ~file structure =
  let acc = ref [] in
  let report head line fd =
    acc :=
      F.v ~rule:F.Fd_discipline ~file ~line
        (Printf.sprintf
           "%s result %s may leak: close it on every path, hand it to an \
            owner, or wrap the region in Fun.protect"
           head fd)
      :: !acc
  in
  let check_binding head line pat body =
    match bound_fd pat with
    | Some fd when not (handled fd body) -> report head line fd
    | _ -> ()
  in
  let expr_iter (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match acquisition_head vb.pvb_expr with
            | Some head ->
                check_binding head (line_of vb.pvb_loc) vb.pvb_pat body
            | None -> ())
          vbs
    | Pexp_match (scrut, cases) -> (
        match acquisition_head scrut with
        | Some head ->
            List.iter
              (fun (c : Parsetree.case) ->
                (* an [exception _] case means the acquisition failed:
                   nothing to release *)
                match c.pc_lhs.ppat_desc with
                | Ppat_exception _ -> ()
                | _ ->
                    check_binding head
                      (line_of c.pc_lhs.ppat_loc)
                      c.pc_lhs c.pc_rhs)
              cases
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_iter } in
  iterator.structure iterator structure;
  !acc

let fd_discipline units =
  List.concat_map
    (fun (file, structure) ->
      if in_lib_or_bin (F.scope_of_file file) then fd_findings ~file structure
      else [])
    units

(* ------------------------------------------------------------------ *)

let analyze units =
  let graph = C.build units in
  no_block_in_loop graph @ wire_exhaustiveness units @ fd_discipline units
