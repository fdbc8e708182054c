(** Journal entries for branch-table state.

    An entry is the batch of branch-table records produced by one logical
    database operation, stamped with a monotonically increasing
    {e sequence number} assigned by the writer.  {!Persist} keeps entries
    as entry records in its one append-only log, after the chunks they
    refer to; this module is only their codec.

    The sequence survives checkpoints (a snapshot entry is stamped with
    the sequence of the last operation it covers), which makes the entry
    stream a replicable operation log: a replica that remembers the last
    sequence it applied can ask for "everything after [seq]" and receive
    either the missing mutations or, when a snapshot superseded them, the
    snapshot (lib/replica). *)

type record =
  | Mutation of Forkbase.Db.mutation
  | Checkpoint of (string * Forkbase.Branch_table.snapshot) list
      (** Full image of every per-key branch table; replay replaces all
          tables and earlier records become irrelevant. *)

(** {1 Entry bodies}

    Entries travel over the wire in their on-disk body encoding (sequence
    number plus records), so primary and follower logs hold byte-identical
    entry records for the entries they share. *)

val encode_entry : seq:int -> record list -> string
(** The entry payload exactly as the log stores it (after the entry tag)
    — what {!Fbremote.Wire} ships in a journal batch. *)

val decode_entry : string -> int * record list
(** Inverse of {!encode_entry}.
    @raise Fbutil.Codec.Corrupt on malformed input. *)
