(** Binary min-heap, the event queue of the simulator.  Each element is
    keyed by two ints [(at, ord)], compared lexicographically.  The sifts
    move only ints — the keys and a handle to the payload's slot — and
    each payload is stored once, in a slot recycled after its pop, so
    pushing and popping allocate nothing and write one payload pointer
    each.  Callers that need a total order (the simulator does) keep
    [ord] unique. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills payload slots that hold no element, so a popped payload
    is not kept reachable by the heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> at:int -> ord:int -> 'a -> unit

val min_at : 'a t -> int
(** [at] key of the minimum.  Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove the minimum and return its payload.  Raises
    [Invalid_argument] when empty. *)
