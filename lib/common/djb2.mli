(** The djb2 string hash ([h * 33 + byte]), masked to 32 bits: the WAL's
    record checksum and the CDC feed digest. *)

val bytes : int -> Bytes.t -> int -> int -> int
(** [bytes h b off len] continues hash [h] over [b.[off .. off+len)] and
    returns the result masked to 32 bits; start a fresh hash with [5381].
    Equal to masking after every byte. *)
