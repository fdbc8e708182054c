exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let rec varint buf n =
  if n < 0 then invalid_arg "Codec.varint: negative"
  else if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    varint buf (n lsr 7)
  end

let int64_le buf x =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xFFL)))
  done

let string buf s =
  varint buf (String.length s);
  Buffer.add_string buf s

let raw buf s = Buffer.add_string buf s

let bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let list buf enc xs =
  varint buf (List.length xs);
  List.iter (enc buf) xs

let option buf enc = function
  | None -> bool buf false
  | Some x -> bool buf true; enc buf x

(* A cursor over [src.[pos .. stop)]: every bounds check is against
   [stop], so a value decoded from the middle of a larger buffer never
   reads past its own bytes. *)
type reader = { src : string; mutable pos : int; stop : int }

let reader ?(pos = 0) src = { src; pos; stop = String.length src }

let sub_reader src ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length src - len then
    invalid_arg "Codec.sub_reader: range outside the string";
  { src; pos; stop = pos + len }

let pos r = r.pos
let at_end r = r.pos >= r.stop

let read_byte r =
  if r.pos >= r.stop then corrupt "unexpected end of input at %d" r.pos;
  let c = String.unsafe_get r.src r.pos in
  r.pos <- r.pos + 1;
  c

let byte r = Char.code (read_byte r)

(* The ninth byte lands at bit 56 with room for 6 bits below the sign
   bit: anything above 0x3f there (a continuation bit included) cannot
   be a non-negative int. *)
let read_varint r =
  let rec go shift acc =
    let b = byte r in
    if shift = 56 && b > 0x3f then corrupt "varint overflows an int"
    else
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_int64_le r =
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor !x (Int64.shift_left (Int64.of_int (byte r)) (8 * i))
  done;
  !x

(* Step over [n] bytes, returning where they start. *)
let skip r n =
  if n < 0 || n > r.stop - r.pos then
    corrupt "raw read of %d bytes overruns input (pos %d, end %d)" n r.pos r.stop;
  let at = r.pos in
  r.pos <- at + n;
  at

let read_raw r n = String.sub r.src (skip r n) n

let read_span r =
  let n = read_varint r in
  (skip r n, n)

let read_string r =
  let pos, n = read_span r in
  String.sub r.src pos n

let read_bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "invalid bool byte %d" b

let read_list r dec =
  let n = read_varint r in
  List.init n (fun _ -> dec r)

let read_option r dec = if read_bool r then Some (dec r) else None

let expect_end r =
  if not (at_end r) then corrupt "trailing garbage at %d" r.pos

(* --- typed codecs: one value states a layout for both directions --- *)

type 'a t = { write : Buffer.t -> 'a -> unit; read : reader -> 'a }

let write c = c.write
let read c = c.read

let encode ?(size = 64) c v =
  let buf = Buffer.create size in
  c.write buf v;
  Buffer.contents buf

let decode_reader c r =
  let v = c.read r in
  expect_end r;
  v

let decode c s = decode_reader c (reader s)

let decode_sub c s ~pos ~len = decode_reader c (sub_reader s ~pos ~len)

let uint = { write = varint; read = read_varint }
let str = { write = string; read = read_string }
let flag = { write = bool; read = read_bool }

let fixed n =
  { write = (fun b s -> if String.length s <> n then invalid_arg "Codec.fixed"; raw b s);
    read = (fun r -> read_raw r n) }

let seq c = { write = (fun b xs -> list b c.write xs); read = (fun r -> read_list r c.read) }

let repeat n c =
  { write = (fun b xs -> List.iter (c.write b) xs);
    read = (fun r -> List.init n (fun _ -> c.read r)) }

let conv f g c = { write = (fun b x -> c.write b (f x)); read = (fun r -> g (c.read r)) }

let pair a b =
  { write = (fun buf (x, y) -> a.write buf x; b.write buf y);
    read = (fun r -> let x = a.read r in (x, b.read r)) }

let triple a b c =
  conv (fun (x, y, z) -> (x, (y, z))) (fun (x, (y, z)) -> (x, y, z)) (pair a (pair b c))

let quad a b c d =
  conv (fun (w, x, y, z) -> (w, (x, (y, z)))) (fun (w, (x, (y, z))) -> (w, x, y, z))
    (pair a (pair b (pair c d)))

(* Declaring a case registers its decoder in the 256-entry table of its
   [cases], so decode dispatch derives from the values encode picks. *)
type 'v cases = { what : string; table : (reader -> 'v) option array }
type 'v choice = Case : char * 'a t * 'a -> 'v choice

let cases what = { what; table = Array.make 256 None }

let case cs tag arg inj =
  if Option.is_some cs.table.(Char.code tag) then
    invalid_arg (Printf.sprintf "Codec.case: duplicate %s tag %C" cs.what tag);
  cs.table.(Char.code tag) <- Some (fun r -> inj (arg.read r));
  fun a -> Case (tag, arg, a)

let const cs tag v = case cs tag { write = (fun _ () -> ()); read = ignore } (fun () -> v) ()

let variant cs select =
  let write buf v =
    let (Case (tag, arg, a)) = select v in
    Buffer.add_char buf tag;
    arg.write buf a
  in
  let read r =
    let tag = read_byte r in
    match cs.table.(Char.code tag) with
    | Some f -> f r
    | None -> corrupt "%s: bad tag %C" cs.what tag
  in
  { write; read }
