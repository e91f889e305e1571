(** Secondary index: maps a secondary key to the primary keys that carry
    it.  Built at load time (TPC-C customer-by-last-name) and appended to
    at run time (TPC-C orders-by-customer, new-order queue). *)

type t

val create : name:string -> t
val name : t -> string

val add : t -> int -> int -> unit
(** [add idx skey pkey] appends [pkey] under [skey] (duplicates kept, in
    insertion order). *)

val find : t -> int -> int list
(** All primary keys under [skey], oldest first; [] when absent. *)

val find_vec : t -> int -> int Quill_common.Vec.t option

val pop_min : t -> int -> int option
(** Remove and return the oldest primary key under [skey] (FIFO); the
    TPC-C delivery transaction's new-order dequeue. *)

val size : t -> int

val bindings : t -> (int * int list) list
(** Every secondary key with its primary keys as {!find} returns them,
    in ascending secondary-key order. *)

val clone : t -> t
(** Deep copy (entry vectors and FIFO cursors); deterministic regardless
    of hash-bucket layout. *)

val overwrite_from : src:t -> t -> unit
(** Make [dst]'s entries identical to [src]'s (post-failover sync). *)
