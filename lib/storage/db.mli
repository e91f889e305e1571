(** The database: a catalog of tables and secondary indexes plus the
    partition layout shared by every engine in a run. *)

type t

val create : nparts:int -> t
val nparts : t -> int

val spec : t -> Spec.t
(** The arenas holding QueCC's speculation state for this database's
    rows.  They outlive engine runs, so repeated runs over one database
    reuse their capacity, and their epoch keeps advancing across runs.
    A {!clone} gets fresh arenas. *)

val add_table :
  ?home_fn:(int -> int) ->
  t -> name:string -> nfields:int -> capacity:int -> int
(** Registers a table and returns its table id (dense, starting at 0).
    [home_fn] is forwarded to {!Table.create}. *)

val add_index : t -> name:string -> int
val table : t -> int -> Table.t
val table_by_name : t -> string -> Table.t
val table_id : t -> string -> int
val index : t -> int -> Index.t
val index_by_name : t -> string -> Index.t
val index_id : t -> string -> int
val ntables : t -> int

val home : t -> int -> int -> int
(** [home db table_id key]: the partition owning that record. *)

val checksum : t -> int
(** Order-independent digest of all committed dense-row payloads plus
    inserted-row count; used by the determinism tests ("same input batch
    => same final state"). *)

val live_checksum : t -> int
(** Same digest over the live versions. *)

val clone : t -> t
(** Deep-copy every table and index (payloads, dynamic rows, index
    cursors); protocol CC metadata starts fresh.  Replica databases for
    the HA replication layer are stood up with this: they need a live
    database.  A copy that is only ever restored from is an {!image}. *)

val overwrite_from : src:t -> t -> unit
(** [overwrite_from ~src dst] makes [dst]'s visible state (table
    payloads, dynamic rows, indexes) identical to [src]'s; shapes must
    match.  After a leader failover the surviving replica's database is
    synced back into the harness's [Workload.db] with this, so
    [checksum] reflects the replicated state. *)

type image
(** A flat point-in-time copy of the visible state — per table one
    committed-payload array ({!Table.image}), plus copies of the indexes.
    The WAL's snapshots are images: taking one allocates a few arrays
    where {!clone} allocates a row per key. *)

val image : ?reuse:image -> t -> image
(** [reuse] is an image the new one replaces (see {!Table.image}); it
    must not be restored afterwards. *)

val restore : image -> t -> unit
(** [restore img dst] makes [dst]'s visible state identical to the
    database the image was taken from — the same result as
    [overwrite_from] from a {!clone} taken at that moment; shapes must
    match.  The image can be restored again. *)
