(** Virtual-time durable write-ahead log with batch-aligned group commit.

    QueCC's deterministic batch commit order makes durability nearly
    free (Gray, "Queues Are Databases"): every committed batch's row
    effects are buffered while the batch executes and flushed with a
    {e single} modeled [fsync] at the batch commit point — one disk
    barrier per batch, not per transaction.  The log is a byte-faithful
    model: checksummed, length-prefixed records

    {v
      [payload_len:4 LE][type:1][payload][crc32:4 LE]
    v}

    with three record types — batch header, per-row effect
    (table/home/key/payload), batch commit marker (batch number +
    transaction count).  The crc covers the type byte and the payload,
    so a torn tail, a failed flush, or a flipped bit is {e detected} at
    recovery rather than silently loaded.

    Periodic snapshots ([Db.image] — one flat array of committed
    payloads per table — every [snapshot_every] durable batches, plus
    one at creation) truncate the log behind the snapshot barrier, bounding both replay time and log size.  {!recover}
    rebuilds a database from the newest snapshot plus a replay of every
    complete, checksum-valid commit group in the remaining log; the
    scan truncates at the first invalid record and degrades to the last
    durable batch — never aborts, never loads garbage.

    Disk faults (threaded from the [torn@rec=K] / [fsync-fail@t=TIME] /
    [corrupt@off=N] clauses of {!Quill_faults.Faults}, but expressed
    here as a plain record so this library stays fault-plan-agnostic)
    model a half-written record followed by a wedged disk, flushes that
    fail outright, and at-rest bit rot. *)

type disk = {
  torn_rec : int option;
      (** the K-th record ever appended (0-based, counted across
          truncations) persists only half its bytes, and the disk
          wedges: every later flush is silently lost *)
  fsync_fail_at : int option;
      (** every flush issued at/after this virtual time fails,
          discarding the records it would have made durable *)
  corrupt_off : int option;
      (** flip one bit of the byte at this absolute offset into the
          post-truncation log, just before the recovery scan reads it *)
}

val no_disk_faults : disk

type t

val create :
  ?disk:disk ->
  sim:Quill_sim.Sim.t ->
  costs:Quill_sim.Costs.t ->
  snapshot_every:int ->
  Quill_storage.Db.t ->
  t
(** A fresh log for one run.  Takes the initial snapshot ([Db.image] of
    the database as given — the loaded, pre-run state) so recovery
    always has a base.  [snapshot_every] >= 1 is the snapshot period in
    durable batches. *)

val begin_batch : t -> batch_no:int -> unit
(** Append the batch-header record to the in-memory group buffer. *)

val log_effect : t -> table:int -> home:int -> key:int -> int array -> unit
(** Append one row effect (the row's post-batch committed payload) to
    the group buffer, framed in place: the record is written straight
    into the reused group buffer and checksummed there.  Nothing reaches
    the modeled disk until {!commit_batch} flushes, with one copy of
    the whole group. *)

val commit_batch : t -> batch_no:int -> txns:int -> bool
(** Append the commit marker, then flush the whole group with one
    modeled fsync (cost: [wal_fsync + bytes * wal_byte/1000] virtual
    ns).  Returns [true] when the marker is durable — the flush
    succeeded and no record of the group was torn.  On a durable commit
    the log may roll into a new snapshot + truncation per
    [snapshot_every].  On failure the group is lost (as it would be on
    real hardware) and the durable boundary stays where it was. *)

val durable_batch : t -> int
(** Highest batch number whose commit marker is durable; -1 when only
    the initial snapshot exists. *)

val durable_txns : t -> int
(** Total transactions covered by durable commit markers (including
    batches folded into snapshots). *)

val recover : t -> Quill_storage.Db.t -> unit
(** Crash recovery: restore [db] from the newest snapshot
    ([Db.restore]), then scan
    the log and apply every complete, checksum-valid commit group.  The
    scan stops and truncates at the first invalid record (torn tail,
    bad crc, impossible length); effects of a batch with no valid
    commit marker are discarded.  Afterwards {!durable_batch} /
    {!durable_txns} reflect what was actually recovered (which is how
    the run's committed count is reconciled).  Ticks [crash_reboot]
    plus [wal_byte]-per-scanned-byte plus [row_write] per applied
    effect; the total is also accumulated into the [recovery_time]
    metric. *)

val log_size : t -> int
(** Durable log bytes currently on the modeled disk (post-truncation). *)

val record : t -> Quill_txn.Metrics.t -> unit
(** Add this log's counters (bytes, fsyncs + failures, group sizes,
    snapshots, truncations, torn records, recovery time, durable
    batches) into a metrics record. *)
