(** A table: a dense preloaded region (keys [0 .. capacity-1]) plus a
    dynamic region for rows inserted at run time under arbitrary integer
    keys (composite keys are encoded into a single int by the workload's
    schema module).  Rows are partitioned among [nparts] homes by key
    range for the dense region and by an explicit home for inserts. *)

type t

val create :
  ?home_fn:(int -> int) ->
  name:string -> nfields:int -> capacity:int -> nparts:int -> unit -> t
(** [home_fn] overrides partition placement (e.g. TPC-C order-family
    tables derive their home from the district embedded in the key so
    that an order lives with its district). *)

val name : t -> string
val nfields : t -> int
val capacity : t -> int
(** Size of the dense region. *)

val nparts : t -> int

val dense : t -> int -> Row.t
(** [dense t key] for [0 <= key < capacity]; O(1). *)

val find : t -> int -> Row.t option
(** Dense or dynamic lookup. *)

val find_exn : t -> int -> Row.t

val insert : t -> home:int -> key:int -> int array -> Row.t
(** Insert a fresh row with the given payload into the dynamic region.
    Raises [Invalid_argument] on duplicate key. *)

val home_of_key : t -> int -> int
(** Partition of a key: [home_fn] when given; otherwise range
    partitioning for dense keys and the home recorded at insert time for
    dynamic keys. *)

val remove : t -> int -> unit
(** Remove a dynamic-region row (insert rollback).  No-op when absent;
    raises [Invalid_argument] for dense keys. *)

val set_probe_hook :
  (table:string -> key:int -> insert:bool -> unit) option -> unit
(** Install (or clear, with [None]) a process-global observer called on
    every row probe — [dense]/[find] lookups and [insert]s — across all
    tables.  Used by the conflict detector to prove the planning phase
    touches no rows; costs one branch when unset. *)

val inserted_count : t -> int
val iter_dense : (Row.t -> unit) -> t -> unit

val iter_inserted : (Row.t -> unit) -> t -> unit
(** Iterate the dynamic region in ascending key order (deterministic,
    unlike raw hashtable order). *)

val clone : t -> t
(** Deep-copy the table: fresh rows with copied live/committed payloads
    and dirty bits (protocol CC metadata — locks, timestamps, versions —
    starts fresh), a copied dynamic region, shared [home_fn].  Used to
    stand up replica databases for HA. *)

val overwrite_from : src:t -> t -> unit
(** [overwrite_from ~src dst] makes [dst]'s payloads (live + committed +
    dirty bits, dense and dynamic regions) identical to [src]'s.  Raises
    [Invalid_argument] when the shapes differ.  Used after a failover to
    sync the surviving replica's state back into the harness database. *)

type image
(** A flat point-in-time copy of a table's visible state: every dense
    row's committed payload in one int array, a sparse list of the dense
    rows whose live payload differs from it or that are dirty, and the
    dynamic rows with their homes.  No [Row.t] is allocated for the
    dense region, so taking an image costs one array, not one row per
    key. *)

val image : ?reuse:image -> t -> image
(** [reuse] is an image the new one replaces: its payload array is
    recycled when the shapes match, so it must not be restored
    afterwards. *)

val restore : image -> t -> unit
(** [restore img dst] makes [dst]'s payloads (live + committed + dirty
    bits, dense and dynamic regions, dynamic homes) identical to the
    table the image was taken from — the same result as
    [overwrite_from] from a clone taken at that moment.  Raises
    [Invalid_argument] when the shapes differ.  The image is not
    consumed: it can be restored again. *)

val row_bytes : t -> int
(** Approximate payload size of one row in bytes (fields x 8). *)
