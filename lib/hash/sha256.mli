(** SHA-256 (FIPS 180-4).

    ForkBase identifies every chunk by the SHA-256 of its bytes (§4.2.1).
    Block compression runs on one of two kernels, chosen once at module
    init by a CPUID probe: the x86 SHA extensions (a C stub) when the CPU
    has SHA, SSSE3 and SSE4.1, otherwise a pure-OCaml compression.  Both
    produce the same digests; {!Reference} always uses the pure-OCaml one
    and is what the test suite checks the selected kernel against, along
    with the standard NIST test vectors. *)

module type S = sig
  type ctx
  (** Incremental hashing context. *)

  val init : unit -> ctx

  val feed_string : ctx -> ?off:int -> ?len:int -> string -> unit
  (** Hash [len] bytes of the string from [off] (default: the whole rest).
      @raise Invalid_argument if [off], [len] is not a range of the
      string. *)

  val feed_bytes : ctx -> ?off:int -> ?len:int -> Bytes.t -> unit
  (** As {!feed_string}. *)

  val finalize : ctx -> string
  (** Returns the 32-byte raw digest.  The context must not be reused. *)

  val digest : string -> string
  (** One-shot hash of a full string; 32-byte raw digest. *)

  val hex : string -> string
  (** [hex s] is the lowercase hex rendering of [digest s]. *)
end

include S

val kernel : string
(** The compression kernel in use: ["sha-ni"] or ["ocaml"]. *)

module Reference : S
(** The pure-OCaml kernel, whatever the CPU: the reference the selected
    kernel is tested against.  Not for production hashing. *)
