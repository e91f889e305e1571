module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Row = Quill_storage.Row
module Metrics = Quill_txn.Metrics
module Djb2 = Quill_common.Djb2

type disk = {
  torn_rec : int option;
  fsync_fail_at : int option;
  corrupt_off : int option;
}

let no_disk_faults = { torn_rec = None; fsync_fail_at = None; corrupt_off = None }

(* Record types.  The framing is [payload_len:4 LE][type:1][payload]
   [crc32:4 LE]; the crc covers the type byte and the payload, so a
   flipped bit anywhere in the record (or a wrong length walking the
   scan into garbage) fails validation. *)
let t_header = 1   (* payload: batch_no:8 *)
let t_effect = 2   (* payload: table:4 home:4 key:8 nfields:4 fields:8xn *)
let t_commit = 3   (* payload: batch_no:8 txns:8 *)

type t = {
  sim : Sim.t;
  costs : Costs.t;
  disk : disk;
  snapshot_every : int;
  db : Db.t;  (* the live database the run mutates; snapshot source *)
  log : Buffer.t;  (* bytes on the modeled disk (since last truncation) *)
  (* The group awaiting flush, framed in place: [pending_recs] records
     in [pending.[0 .. pending_len)], record [i] starting at
     [rec_offs.(i)].  Only a torn write needs the offsets. *)
  mutable pending : Bytes.t;
  mutable pending_len : int;
  mutable rec_offs : int array;
  mutable pending_recs : int;
  mutable rec_no : int;  (* records ever appended, across truncations *)
  mutable wedged : bool;  (* a torn write killed the disk *)
  mutable snapshot : Db.image;
  mutable snap_batch : int;
  mutable snap_txns : int;
  mutable durable_batch : int;
  mutable durable_txns : int;
  (* counters for Metrics *)
  mutable bytes_appended : int;
  mutable fsyncs : int;
  mutable fsync_fails : int;
  mutable group_txns : int;
  mutable snapshots : int;
  mutable truncations : int;
  mutable torn_records : int;
  mutable recovery_time : int;
}

let create ?(disk = no_disk_faults) ~sim ~costs ~snapshot_every db =
  if snapshot_every < 1 then
    invalid_arg
      (Printf.sprintf "Wal.create: snapshot_every must be >= 1, got %d"
         snapshot_every);
  {
    sim;
    costs;
    disk;
    snapshot_every;
    db;
    log = Buffer.create 4096;
    pending = Bytes.create 4096;
    pending_len = 0;
    rec_offs = Array.make 256 0;
    pending_recs = 0;
    rec_no = 0;
    wedged = false;
    (* The creation-time snapshot: recovery always has a base, even
       before the first snapshot roll. *)
    snapshot = Db.image db;
    snap_batch = -1;
    snap_txns = 0;
    durable_batch = -1;
    durable_txns = 0;
    bytes_appended = 0;
    fsyncs = 0;
    fsync_fails = 0;
    group_txns = 0;
    snapshots = 0;
    truncations = 0;
    torn_records = 0;
    recovery_time = 0;
  }

let durable_batch t = t.durable_batch
let durable_txns t = t.durable_txns
let log_size t = Buffer.length t.log

(* djb2 over the type byte + payload, masked to 32 bits. *)
let crc b off len = Djb2.bytes 5381 b off len

(* Open a record of [plen] payload bytes at the end of the group: write
   its length and type, note its offset, and return the offset of its
   payload, which the caller fills before {!close_record}. *)
let open_record t ty plen =
  let p = t.pending_len in
  let need = p + 9 + plen in
  if need > Bytes.length t.pending then begin
    let b = Bytes.create (max need (2 * Bytes.length t.pending)) in
    Bytes.blit t.pending 0 b 0 p;
    t.pending <- b
  end;
  if t.pending_recs = Array.length t.rec_offs then begin
    let a = Array.make (2 * t.pending_recs) 0 in
    Array.blit t.rec_offs 0 a 0 t.pending_recs;
    t.rec_offs <- a
  end;
  t.rec_offs.(t.pending_recs) <- p;
  t.pending_recs <- t.pending_recs + 1;
  Bytes.set_int32_le t.pending p (Int32.of_int plen);
  Bytes.set t.pending (p + 4) (Char.chr ty);
  p + 5

(* Seal the record whose payload starts at [base]: the crc covers the
   type byte and the payload. *)
let close_record t base plen =
  let c = crc t.pending (base - 1) (1 + plen) in
  Bytes.set_int32_le t.pending (base + plen) (Int32.of_int c);
  t.pending_len <- base + plen + 4;
  t.rec_no <- t.rec_no + 1;
  t.bytes_appended <- t.bytes_appended + 9 + plen

let set_i32 t off v = Bytes.set_int32_le t.pending off (Int32.of_int v)
let set_i64 t off v = Bytes.set_int64_le t.pending off (Int64.of_int v)

let begin_batch t ~batch_no =
  let base = open_record t t_header 8 in
  set_i64 t base batch_no;
  close_record t base 8

let log_effect t ~table ~home ~key payload =
  let nf = Array.length payload in
  let plen = 20 + (8 * nf) in
  let base = open_record t t_effect plen in
  set_i32 t base table;
  set_i32 t (base + 4) home;
  set_i64 t (base + 8) key;
  set_i32 t (base + 16) nf;
  for i = 0 to nf - 1 do
    set_i64 t (base + 20 + (8 * i)) (Array.unsafe_get payload i)
  done;
  close_record t base plen

(* One modeled fsync of the whole pending group.  A failing fsync is
   reported to the caller; a torn write is NOT — the record loses half
   its bytes, the disk wedges, and only the recovery scan's checksums
   find out.  Either way the group buffer is consumed. *)
let flush t =
  let bytes = t.pending_len in
  Sim.tick t.sim (t.costs.Costs.wal_fsync + bytes * t.costs.Costs.wal_byte / 1000);
  let fail =
    match t.disk.fsync_fail_at with
    | Some at -> Sim.now t.sim >= at
    | None -> false
  in
  let fully_persisted =
    if fail then begin
      t.fsync_fails <- t.fsync_fails + 1;
      false
    end
    else begin
      t.fsyncs <- t.fsyncs + 1;
      if t.wedged then false
      else
        let first = t.rec_no - t.pending_recs in
        match t.disk.torn_rec with
        | Some k when k >= first && k < t.rec_no ->
            (* records before [k] persist, [k] keeps half its bytes *)
            let i = k - first in
            let off = t.rec_offs.(i) in
            let next =
              if i + 1 < t.pending_recs then t.rec_offs.(i + 1)
              else t.pending_len
            in
            Buffer.add_subbytes t.log t.pending 0 (off + ((next - off) / 2));
            t.wedged <- true;
            false
        | _ ->
            Buffer.add_subbytes t.log t.pending 0 t.pending_len;
            true
    end
  in
  t.pending_len <- 0;
  t.pending_recs <- 0;
  (not fail, fully_persisted)

let commit_batch t ~batch_no ~txns =
  let base = open_record t t_commit 16 in
  set_i64 t base batch_no;
  set_i64 t (base + 8) txns;
  close_record t base 16;
  let reported_ok, durable = flush t in
  if reported_ok then t.group_txns <- t.group_txns + txns;
  if durable then begin
    t.durable_batch <- batch_no;
    t.durable_txns <- t.durable_txns + txns;
    (* Roll a snapshot every [snapshot_every] durable batches and
       truncate the log behind it: replay never has to cross a snapshot
       barrier, so recovery time and log size stay bounded. *)
    if (batch_no + 1) mod t.snapshot_every = 0 then begin
      Sim.tick t.sim t.costs.Costs.wal_fsync;
      t.snapshot <- Db.image ~reuse:t.snapshot t.db;
      t.snap_batch <- batch_no;
      t.snap_txns <- t.durable_txns;
      Buffer.clear t.log;
      t.snapshots <- t.snapshots + 1;
      t.truncations <- t.truncations + 1
    end
  end;
  durable

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let apply_effect db ~table ~home ~key payload =
  let tbl = Db.table db table in
  match Table.find tbl key with
  | Some row ->
      let n = Array.length payload in
      Array.blit payload 0 row.Row.data 0 n;
      Array.blit payload 0 row.Row.committed 0 n;
      row.Row.dirty <- false
  | None -> ignore (Table.insert tbl ~home ~key payload)

let recover t db =
  let bytes = Buffer.to_bytes t.log in
  (* At-rest bit rot lands between the last flush and the scan. *)
  (match t.disk.corrupt_off with
  | Some off when off >= 0 && off < Bytes.length bytes ->
      Bytes.set bytes off
        (Char.chr (Char.code (Bytes.get bytes off) lxor 0x10))
  | _ -> ());
  Db.restore t.snapshot db;
  let len = Bytes.length bytes in
  let pos = ref 0 in
  let cur_batch = ref min_int in
  let effects = ref [] in  (* current batch's effects, newest first *)
  let applied = ref 0 in
  let last_batch = ref t.snap_batch in
  let replayed_txns = ref t.snap_txns in
  let invalid = ref false in
  while (not !invalid) && !pos < len do
    let p = !pos in
    if p + 9 > len then invalid := true
    else begin
      let plen = Int32.to_int (Bytes.get_int32_le bytes p) in
      if plen < 0 || p + 9 + plen > len then invalid := true
      else begin
        let ty = Char.code (Bytes.get bytes (p + 4)) in
        (* the crc is a full 32-bit value: mask away the sign extension
           Int32.to_int gives crcs with bit 31 set *)
        let stored =
          Int32.to_int (Bytes.get_int32_le bytes (p + 5 + plen))
          land 0xffff_ffff
        in
        if crc bytes (p + 4) (1 + plen) <> stored then invalid := true
        else begin
          let i64 off = Int64.to_int (Bytes.get_int64_le bytes off) in
          let i32 off = Int32.to_int (Bytes.get_int32_le bytes off) in
          let base = p + 5 in
          if ty = t_header then begin
            cur_batch := i64 base;
            effects := []
          end
          else if ty = t_effect then begin
            let table = i32 base and home = i32 (base + 4) in
            let key = i64 (base + 8) in
            let nf = i32 (base + 16) in
            if plen <> 20 + (8 * nf) then invalid := true
            else begin
              let payload = Array.init nf (fun i -> i64 (base + 20 + (8 * i))) in
              effects := (table, home, key, payload) :: !effects
            end
          end
          else if ty = t_commit then begin
            let bno = i64 base and txns = i64 (base + 8) in
            if bno <> !cur_batch then invalid := true
            else begin
              List.iter
                (fun (table, home, key, payload) ->
                  apply_effect db ~table ~home ~key payload;
                  incr applied)
                (List.rev !effects);
              effects := [];
              last_batch := bno;
              replayed_txns := !replayed_txns + txns
            end
          end
          else invalid := true;
          if not !invalid then pos := p + 9 + plen
        end
      end
    end
  done;
  (* Truncate at the first invalid record: the damaged tail is never
     loaded, and the log ends exactly at the last valid record. *)
  if !invalid then begin
    t.torn_records <- t.torn_records + 1;
    t.truncations <- t.truncations + 1;
    Buffer.clear t.log;
    Buffer.add_subbytes t.log bytes 0 !pos
  end;
  let cost =
    t.costs.Costs.crash_reboot
    + (!pos * t.costs.Costs.wal_byte / 1000)
    + (!applied * t.costs.Costs.row_write)
  in
  Sim.tick t.sim cost;
  t.recovery_time <- t.recovery_time + cost;
  t.durable_batch <- !last_batch;
  t.durable_txns <- !replayed_txns

let record t (m : Metrics.t) =
  m.Metrics.wal_bytes <- m.Metrics.wal_bytes + t.bytes_appended;
  m.Metrics.wal_fsyncs <- m.Metrics.wal_fsyncs + t.fsyncs;
  m.Metrics.wal_fsync_fails <- m.Metrics.wal_fsync_fails + t.fsync_fails;
  m.Metrics.wal_group_txns <- m.Metrics.wal_group_txns + t.group_txns;
  m.Metrics.snapshots <- m.Metrics.snapshots + t.snapshots;
  m.Metrics.wal_truncations <- m.Metrics.wal_truncations + t.truncations;
  m.Metrics.torn_records <- m.Metrics.torn_records + t.torn_records;
  m.Metrics.recovery_time <- m.Metrics.recovery_time + t.recovery_time;
  m.Metrics.durable_batches <- t.durable_batch + 1
