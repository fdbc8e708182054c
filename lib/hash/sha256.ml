(* SHA-256 over native ints.  The reference compression does all word
   arithmetic in the low 32 bits of OCaml's 63-bit ints, masked with
   [mask32], which avoids Int32 boxing on every operation.  When the CPU
   has the SHA extensions, whole blocks go to the C kernel in
   sha256_stubs.c instead; both kernels share the buffering and padding
   below and the same 8-word [int array] state. *)

let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type state = {
  h : int array; (* 8 words *)
  block : Bytes.t; (* 64-byte block buffer *)
  mutable fill : int; (* bytes currently buffered in [block] *)
  mutable total : int; (* total message bytes fed so far *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* The reference compression of the block at [src.[off .. off + 63]]. *)
let compress st src off =
  let w = st.w in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      (Char.code (String.unsafe_get src j) lsl 24)
      lor (Char.code (String.unsafe_get src (j + 1)) lsl 16)
      lor (Char.code (String.unsafe_get src (j + 2)) lsl 8)
      lor Char.code (String.unsafe_get src (j + 3))
  done;
  for i = 16 to 63 do
    let s0 =
      let x = Array.unsafe_get w (i - 15) in
      rotr x 7 lxor rotr x 18 lxor (x lsr 3)
    and s1 =
      let x = Array.unsafe_get w (i - 2) in
      rotr x 17 lxor rotr x 19 lxor (x lsr 10)
    in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask32)
  done;
  let h = st.h in
  let a = ref h.(0)
  and bb = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) land mask32 in
    let t1 =
      (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask32
    in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !bb lxor (!a land !c) lxor (!bb land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !bb;
    bb := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !bb) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

(* A kernel compresses [n] whole blocks of [src] starting at [off]; the
   caller guarantees [off + 64 * n <= String.length src]. *)
let reference_blocks st src off n =
  for i = 0 to n - 1 do
    compress st src (off + (64 * i))
  done

external hw_available : unit -> bool = "fb_sha256_hw_available" [@@noalloc]

external hw_compress : int array -> string -> int -> int -> unit
  = "fb_sha256_hw_compress"
[@@noalloc]

let kernel, selected_blocks =
  if hw_available () then
    ("sha-ni", fun st src off n -> hw_compress st.h src off n)
  else ("ocaml", reference_blocks)

let check_range fn ~length ~off ~len =
  if off < 0 || len < 0 || off > length - len then
    invalid_arg (Printf.sprintf "Sha256.%s: off %d len %d outside 0..%d" fn off
                   len length)

module type S = sig
  type ctx

  val init : unit -> ctx
  val feed_string : ctx -> ?off:int -> ?len:int -> string -> unit
  val feed_bytes : ctx -> ?off:int -> ?len:int -> Bytes.t -> unit
  val finalize : ctx -> string
  val digest : string -> string
  val hex : string -> string
end

module Make (K : sig
  val blocks : state -> string -> int -> int -> unit
end) : S = struct
  type ctx = state

  let init = init

  let compress_block ctx = K.blocks ctx (Bytes.unsafe_to_string ctx.block) 0 1

  (* Top up a partly filled block first; every run of whole blocks after
     that goes to the kernel in one call, straight from [src]. *)
  let feed_sub ctx src off len =
    ctx.total <- ctx.total + len;
    let off = ref off and len = ref len in
    if ctx.fill > 0 then begin
      let take = min !len (64 - ctx.fill) in
      Bytes.blit_string src !off ctx.block ctx.fill take;
      ctx.fill <- ctx.fill + take;
      off := !off + take;
      len := !len - take;
      if ctx.fill = 64 then begin
        compress_block ctx;
        ctx.fill <- 0
      end
    end;
    let n = !len / 64 in
    if n > 0 then K.blocks ctx src !off n;
    let rest = !len - (64 * n) in
    if rest > 0 then begin
      Bytes.blit_string src (!off + (64 * n)) ctx.block 0 rest;
      ctx.fill <- rest
    end

  let feed_string ctx ?(off = 0) ?len s =
    let length = String.length s in
    let len = match len with Some l -> l | None -> length - off in
    check_range "feed_string" ~length ~off ~len;
    feed_sub ctx s off len

  (* The kernels only read [b] during this call, so viewing it as a
     string is safe. *)
  let feed_bytes ctx ?(off = 0) ?len b =
    let length = Bytes.length b in
    let len = match len with Some l -> l | None -> length - off in
    check_range "feed_bytes" ~length ~off ~len;
    feed_sub ctx (Bytes.unsafe_to_string b) off len

  let finalize ctx =
    let total_bits = ctx.total * 8 in
    (* Padding: 0x80, zeros, 64-bit big-endian length. *)
    Bytes.set ctx.block ctx.fill '\x80';
    let fill = ctx.fill + 1 in
    if fill > 56 then begin
      Bytes.fill ctx.block fill (64 - fill) '\000';
      compress_block ctx;
      Bytes.fill ctx.block 0 56 '\000'
    end
    else Bytes.fill ctx.block fill (56 - fill) '\000';
    for i = 0 to 7 do
      Bytes.set ctx.block (56 + i)
        (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
    done;
    compress_block ctx;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      let v = ctx.h.(i) in
      Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
      Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
      Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
      Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
    done;
    Bytes.unsafe_to_string out

  let digest s =
    let ctx = init () in
    feed_sub ctx s 0 (String.length s);
    finalize ctx

  let hex s = Fbutil.Hex.encode (digest s)
end

module Reference = Make (struct
  let blocks = reference_blocks
end)

include Make (struct
  let blocks = selected_blocks
end)
