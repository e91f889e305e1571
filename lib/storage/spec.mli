(** QueCC's speculation state as flat int arenas.

    Speculative QueCC executes in place and, when a transaction
    logic-aborts, re-executes every transaction that depends on it
    (cascading recovery).  Per batch that needs:

    - per tracked field of a row: its last in-batch writer and the
      chains of readers and commutative adders since that write;
    - per row: an undo log, newest entry first;
    - per transaction: the dependency edges it picked up.

    All three live here, in int arrays that a database owns ({!Db.spec})
    and that every batch reuses, so tracking an access allocates nothing
    on the OCaml heap.  A row points into the arenas through its int
    fields {!Row.t.fstate} and {!Row.t.undo}, which are meaningful only
    while its {!Row.t.batch_tag} equals the current epoch.
    {!begin_batch} advances the epoch and empties the arenas at each
    batch start.  The epoch never repeats on one database, so a row last
    tracked in an earlier batch, or in an earlier engine run over the
    same database, never matches: no state leaks from one run into the
    next.

    A transaction is named by its batch index [bidx]; its edges are a
    chain whose head the caller keeps ([nil] when empty) and threads
    through {!read}, {!write} and {!add}. *)

type t

val create : unit -> t

val begin_batch : t -> unit
(** Start a batch: advance the epoch and empty the arenas, keeping their
    capacity. *)

val nil : int
(** The empty chain: [-1]. *)

val touch : t -> Row.t -> unit
(** Reset the row's speculation fields if it was last tracked before
    this batch ({!Row.reset_batch_state} at the current epoch). *)

val inserted : t -> Row.t -> bidx:int -> unit
(** Mark a row that [bidx] inserted in this batch: every later access
    to it depends on [bidx]. *)

val read : t -> Row.t -> field:int -> bidx:int -> deps:int -> int
(** [bidx] reads [field]: it depends on the field's last writer and on
    every pending adder (their deltas are in the value), and becomes a
    reader (a future anti-dependency).  Returns [deps] with the new
    edges. *)

val write : t -> Row.t -> field:int -> bidx:int -> deps:int -> int
(** [bidx] overwrites [field]: it depends on the previous writer and
    adders (so undo reverts in order) and on every reader since, and
    logs the field's current value for undo.  Call before storing the
    new value. *)

val add : t -> Row.t -> field:int -> delta:int -> bidx:int -> deps:int -> int
(** [bidx] adds [delta] to [field]: adds commute with each other, but it
    depends on the previous writer (whose undo would clobber it) and on
    every reader since, and logs [delta] for undo. *)

val depends_on : t -> int -> bool array -> bool
(** [depends_on t deps set]: whether an edge of the chain [deps] points
    at a batch index marked in [set]. *)

val rollback : t -> Row.t -> bool array -> on_revert:(unit -> unit) -> unit
(** Walk the row's undo log newest-first and revert, in that order,
    every entry whose transaction is marked in the set, unlinking it;
    [on_revert] runs before each revert.  Exact when the set is closed
    under the write-write edges of {!write} and {!add}: a later writer
    of a reverted field is then reverted first. *)
