(* Durable group-commit WAL: batch-aligned logging must be state-neutral,
   crash recovery must rebuild exactly the serial-oracle state at the
   last durable batch, and a damaged log tail (torn record, corrupted
   byte, failing fsync) must be detected and truncated, never silently
   loaded. *)

open Quill_storage
open Quill_txn
open Quill_workloads
module Engine = Quill_quecc.Engine
module Wal = Quill_wal.Wal
module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Serial = Quill_protocols.Serial
module E = Quill_harness.Experiment
module Faults = Quill_faults.Faults

let quecc_cfg ?(planners = 4) ?(executors = 4) ?(batch_size = 128)
    ?(pipeline = false) () =
  {
    Engine.planners;
    executors;
    batch_size;
    mode = Engine.Speculative;
    isolation = Engine.Serializable;
    costs = Costs.default;
    pipeline;
    steal = false;
    split = None;
    adapt = None;
  }

(* Run quecc with a WAL attached (and optionally a crash), recording the
   generated transactions so the serial oracle can replay them. *)
let run_wal ?disk ?crash_at ?(snapshot_every = 4) ?(planners = 4)
    ?(executors = 4) ?(batch_size = 128) ?(batches = 4) ?(pipeline = false)
    cfg =
  let wl = Ycsb.make cfg in
  let wl_rec, logs = Tutil.record wl in
  let costs = Costs.default in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  let w = Wal.create ?disk ~sim ~costs ~snapshot_every wl.Workload.db in
  let m =
    Engine.run ~sim ~wal:w ?crash_at
      (quecc_cfg ~planners ~executors ~batch_size ~pipeline ())
      wl_rec ~batches
  in
  (wl, logs, m, w)

let run_plain ?(planners = 4) ?(executors = 4) ?(batch_size = 128)
    ?(batches = 4) ?(pipeline = false) cfg =
  let wl = Ycsb.make cfg in
  let m =
    Engine.run
      (quecc_cfg ~planners ~executors ~batch_size ~pipeline ())
      wl ~batches
  in
  (wl, m)

(* Serial-oracle state after the first [batches] batches of the recorded
   streams (the durable prefix a recovered run must reproduce). *)
let oracle_state cfg logs ~streams ~batch_size ~batches =
  let wl = Ycsb.make cfg in
  let txns = Tutil.batch_order logs ~streams ~batch_size ~batches in
  let m = Serial.run_txns wl txns in
  (Db.checksum wl.Workload.db, m)

(* ------------------------- state neutrality ------------------------- *)

let test_wal_is_state_neutral () =
  let cfg = Tutil.small_ycsb () in
  let wl_w, _, mw, _ = run_wal ~snapshot_every:2 cfg in
  let wl_p, mp = run_plain cfg in
  Tutil.check_bool "same final state with and without WAL" true
    (Db.checksum wl_w.Workload.db = Db.checksum wl_p.Workload.db);
  Tutil.check_int "same commits" mp.Metrics.committed mw.Metrics.committed;
  Tutil.check_int "every batch durable" 4 mw.Metrics.durable_batches;
  Tutil.check_int "one fsync per batch" 4 mw.Metrics.wal_fsyncs;
  Tutil.check_int "group txns = commits" mw.Metrics.committed
    mw.Metrics.wal_group_txns;
  Tutil.check_int "snapshot every 2 of 4 batches" 2 mw.Metrics.snapshots;
  Tutil.check_int "truncated behind each snapshot" 2
    mw.Metrics.wal_truncations

(* ------------------------- crash recovery ------------------------- *)

let check_crash_recovers ?(pipeline = false) name cfg =
  let _, mprobe = run_plain ~pipeline cfg in
  let crash_at = mprobe.Metrics.elapsed / 2 in
  let wl, logs, m, w =
    run_wal ~crash_at ~snapshot_every:2 ~pipeline cfg
  in
  Tutil.check_int (name ^ ": crashed once") 1 m.Metrics.crashes;
  let durable = m.Metrics.durable_batches in
  Tutil.check_bool (name ^ ": lost the in-flight tail") true (durable < 4);
  let oracle, ms =
    oracle_state cfg logs ~streams:4 ~batch_size:128 ~batches:durable
  in
  Tutil.check_bool
    (name ^ ": recovered state = serial oracle at the durable boundary")
    true
    (Db.checksum wl.Workload.db = oracle);
  Tutil.check_int (name ^ ": no lost or double commits")
    ms.Metrics.committed m.Metrics.committed;
  Tutil.check_int (name ^ ": committed = durable txns")
    (Wal.durable_txns w) m.Metrics.committed

let test_crash_recovers_lockstep () =
  check_crash_recovers "lockstep" (Tutil.small_ycsb ())

let test_crash_recovers_pipelined () =
  check_crash_recovers ~pipeline:true "pipelined" (Tutil.small_ycsb ())

let test_crash_recovers_with_inserts () =
  (* abort_ratio > 0 exercises recovery-pass cascades and rolled-back
     effects around the WAL write set *)
  check_crash_recovers "aborts" (Tutil.small_ycsb ~abort_ratio:0.1 ())

(* Random seeds x crash points x snapshot intervals: the recovered state
   always equals the serial oracle at the last durable batch. *)
let prop_crash_recovers_to_oracle =
  QCheck.Test.make
    ~name:"crash x snapshot interval -> serial oracle at durable boundary"
    ~count:8
    QCheck.(triple (int_range 0 1000) (int_range 1 9) (int_range 1 4))
    (fun (seed, frac10, snapshot_every) ->
      let cfg = Tutil.small_ycsb ~table_size:2_000 ~seed () in
      let _, mprobe =
        run_plain ~planners:2 ~executors:2 ~batch_size:64 cfg
      in
      let crash_at = max 1 (mprobe.Metrics.elapsed * frac10 / 10) in
      let wl, logs, m, _ =
        run_wal ~crash_at ~snapshot_every ~planners:2 ~executors:2
          ~batch_size:64 cfg
      in
      let durable = m.Metrics.durable_batches in
      let oracle, ms =
        oracle_state cfg logs ~streams:2 ~batch_size:64 ~batches:durable
      in
      Db.checksum wl.Workload.db = oracle
      && m.Metrics.committed = ms.Metrics.committed)

(* ------------------------- damaged log tails ------------------------- *)

(* A WAL over a hand-built db: batch 0 writes keys 0..19 with payload k,
   batch 1 overwrites them with 100+k. *)
let toy_wal ?disk ~snapshot_every () =
  let sim = Sim.create () in
  let db = Db.create ~nparts:2 in
  let _t = Db.add_table db ~name:"t" ~nfields:4 ~capacity:128 in
  let w = ref None in
  Sim.spawn sim (fun () ->
      let wal = Wal.create ?disk ~sim ~costs:Costs.default ~snapshot_every db in
      w := Some wal;
      for b = 0 to 1 do
        Wal.begin_batch wal ~batch_no:b;
        for k = 0 to 19 do
          Wal.log_effect wal ~table:0 ~home:0 ~key:k
            (Array.make 4 ((100 * b) + k))
        done;
        ignore (Wal.commit_batch wal ~batch_no:b ~txns:20)
      done;
      Wal.recover wal db);
  ignore (Sim.run sim);
  (Option.get !w, db)

let committed0 db key =
  match Table.find (Db.table db 0) key with
  | Some row -> row.Row.committed.(0)
  | None -> -1

let test_clean_log_replays_fully () =
  let w, db = toy_wal ~snapshot_every:8 () in
  Tutil.check_int "both batches durable" 1 (Wal.durable_batch w);
  Tutil.check_int "all txns durable" 40 (Wal.durable_txns w);
  Tutil.check_int "batch-1 image wins" 105 (committed0 db 5)

let test_torn_tail_truncated () =
  (* record 23 is the first effect of batch 1 (header 0, effects 1..20,
     commit 21, header 22): the torn write wedges the disk mid-batch-1,
     so only batch 0 survives and the tail is cut, not loaded. *)
  let w, db = toy_wal ~disk:{ Wal.no_disk_faults with Wal.torn_rec = Some 23 }
      ~snapshot_every:8 ()
  in
  Tutil.check_int "only batch 0 durable" 0 (Wal.durable_batch w);
  Tutil.check_int "only batch 0's txns" 20 (Wal.durable_txns w);
  Tutil.check_int "batch-0 image, not the torn batch's" 5 (committed0 db 5);
  Tutil.check_bool "torn record detected" true
    (let m = Metrics.create () in
     Wal.record w m;
     m.Metrics.torn_records = 1 && m.Metrics.wal_truncations = 1)

let test_corrupt_byte_truncates () =
  (* flip a bit inside batch 1's region: the crc check fails there and
     recovery keeps exactly the valid prefix *)
  let w, db =
    toy_wal
      ~disk:{ Wal.no_disk_faults with Wal.corrupt_off = Some 1_000 }
      ~snapshot_every:8 ()
  in
  Tutil.check_bool "corruption detected, prefix kept" true
    (Wal.durable_batch w < 1);
  Tutil.check_bool "corrupted tail never loaded" true (committed0 db 5 < 100);
  let m = Metrics.create () in
  Wal.record w m;
  Tutil.check_int "counted as a torn/corrupt record" 1 m.Metrics.torn_records

let test_fsync_fail_degrades () =
  (* every flush fails from t=1: the run itself completes (in-memory
     commits are unaffected) but nothing becomes durable *)
  let cfg = Tutil.small_ycsb () in
  let wl = Ycsb.make cfg in
  let costs = Costs.default in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  let w =
    Wal.create
      ~disk:{ Wal.no_disk_faults with Wal.fsync_fail_at = Some 1 }
      ~sim ~costs ~snapshot_every:4 wl.Workload.db
  in
  let m = Serial.run ~sim ~costs ~wal:w wl ~txns:512 in
  Tutil.check_int "run completes" 512 m.Metrics.committed;
  Tutil.check_bool "flushes failed" true (m.Metrics.wal_fsync_fails > 0);
  Tutil.check_int "nothing durable" 0 m.Metrics.durable_batches

(* ------------------------- golden torn-record sweep ------------------------- *)

(* One fixed lockstep run (3 batches of 8 four-op transactions, snapshot
   every 2 batches) per disk fault, recovered after the run: a torn write
   at every record of the first two batches, and failing fsyncs from two
   points in time.  Each row is (log bytes before recovery, after it,
   durable batch, durable txns, torn records, recovered checksum).  The
   rows were produced by the string-framed log that preceded in-place
   framing, so they pin the log bytes, the offsets a torn write cuts at
   and the snapshot restore. *)
let sweep_cfg =
  {
    (Tutil.small_ycsb ~table_size:256 ~nparts:2 ~seed:5 ()) with
    Ycsb.ops_per_txn = 4;
    fields = 4;
  }

let sweep_row disk =
  let wl = Ycsb.make sweep_cfg in
  let costs = Costs.default in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  let w = Wal.create ~disk ~sim ~costs ~snapshot_every:2 wl.Workload.db in
  ignore
    (Engine.run ~sim ~wal:w
       (quecc_cfg ~planners:2 ~executors:2 ~batch_size:8 ())
       wl ~batches:3);
  let before = Wal.log_size w in
  Sim.spawn sim (fun () -> Wal.recover w wl.Workload.db);
  ignore (Sim.run sim);
  let m = Metrics.create () in
  Wal.record w m;
  ( before,
    Wal.log_size w,
    Wal.durable_batch w,
    Wal.durable_txns w,
    m.Metrics.torn_records,
    Db.checksum wl.Workload.db )

let golden_sweep =
  let b0 = 1423127351180350344
  and b1 = 2203391082989201540
  and b2 = 422244652124797897
  and b3 = 3672815684502792874 in
  let torn k = { Wal.no_disk_faults with Wal.torn_rec = Some k } in
  let fail at = { Wal.no_disk_faults with Wal.fsync_fail_at = Some at } in
  [
    ("clean", Wal.no_disk_faults, (1140, 1140, 2, 24, 0, b3));
    ("torn 0", torn 0, (8, 0, -1, 0, 1, b0));
    ("torn 1", torn 1, (47, 17, -1, 0, 1, b0));
    ("torn 2", torn 2, (108, 78, -1, 0, 1, b0));
    ("torn 3", torn 3, (169, 139, -1, 0, 1, b0));
    ("torn 4", torn 4, (230, 200, -1, 0, 1, b0));
    ("torn 5", torn 5, (291, 261, -1, 0, 1, b0));
    ("torn 6", torn 6, (352, 322, -1, 0, 1, b0));
    ("torn 7", torn 7, (413, 383, -1, 0, 1, b0));
    ("torn 8", torn 8, (474, 444, -1, 0, 1, b0));
    ("torn 9", torn 9, (535, 505, -1, 0, 1, b0));
    ("torn 10", torn 10, (596, 566, -1, 0, 1, b0));
    ("torn 11", torn 11, (657, 627, -1, 0, 1, b0));
    ("torn 12", torn 12, (718, 688, -1, 0, 1, b0));
    ("torn 13", torn 13, (779, 749, -1, 0, 1, b0));
    ("torn 14", torn 14, (840, 810, -1, 0, 1, b0));
    ("torn 15", torn 15, (883, 871, -1, 0, 1, b0));
    ("torn 16", torn 16, (904, 896, 0, 8, 1, b1));
    ("torn 17", torn 17, (943, 913, 0, 8, 1, b1));
    ("torn 18", torn 18, (1004, 974, 0, 8, 1, b1));
    ("torn 19", torn 19, (1065, 1035, 0, 8, 1, b1));
    ("torn 20", torn 20, (1126, 1096, 0, 8, 1, b1));
    ("torn 21", torn 21, (1187, 1157, 0, 8, 1, b1));
    ("torn 22", torn 22, (1248, 1218, 0, 8, 1, b1));
    ("torn 23", torn 23, (1309, 1279, 0, 8, 1, b1));
    ("torn 24", torn 24, (1370, 1340, 0, 8, 1, b1));
    ("torn 25", torn 25, (1431, 1401, 0, 8, 1, b1));
    ("torn 26", torn 26, (1492, 1462, 0, 8, 1, b1));
    ("torn 27", torn 27, (1553, 1523, 0, 8, 1, b1));
    ("torn 28", torn 28, (1614, 1584, 0, 8, 1, b1));
    ("torn 29", torn 29, (1675, 1645, 0, 8, 1, b1));
    ("torn 30", torn 30, (1736, 1706, 0, 8, 1, b1));
    ("torn 31", torn 31, (1797, 1767, 0, 8, 1, b1));
    ("torn 32", torn 32, (1840, 1828, 0, 8, 1, b1));
    ("fsync-fail 40us", fail 40_000, (896, 896, 0, 8, 0, b1));
    ("fsync-fail 80us", fail 80_000, (0, 0, 1, 16, 0, b2));
  ]

let test_golden_torn_sweep () =
  List.iter
    (fun (name, disk, (lb, la, db, dt, torn, ck)) ->
      let lb', la', db', dt', torn', ck' = sweep_row disk in
      Tutil.check_int (name ^ ": log bytes before recovery") lb lb';
      Tutil.check_int (name ^ ": log bytes after recovery") la la';
      Tutil.check_int (name ^ ": durable batch") db db';
      Tutil.check_int (name ^ ": durable txns") dt dt';
      Tutil.check_int (name ^ ": torn records") torn torn';
      Tutil.check_int (name ^ ": recovered checksum") ck ck')
    golden_sweep

(* ------------------------- serial engine ------------------------- *)

let test_serial_crash_recovers () =
  let cfg = Tutil.small_ycsb () in
  let probe = Serial.run (Ycsb.make cfg) ~txns:1024 in
  let crash_at = probe.Metrics.elapsed / 2 in
  let wl = Ycsb.make cfg in
  let costs = Costs.default in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  let w = Wal.create ~sim ~costs ~snapshot_every:2 wl.Workload.db in
  let m =
    Serial.run ~sim ~costs ~wal:w ~crash_at ~batch_size:128 wl ~txns:1024
  in
  Tutil.check_int "crashed once" 1 m.Metrics.crashes;
  Tutil.check_int "committed = durable txns" (Wal.durable_txns w)
    m.Metrics.committed;
  Tutil.check_bool "durable prefix only" true (m.Metrics.committed < 1024);
  (* the durable prefix is the first N txns of stream 0: a fresh serial
     run of exactly N must land on the same state *)
  let wl2 = Ycsb.make cfg in
  let m2 = Serial.run wl2 ~txns:m.Metrics.committed in
  Tutil.check_int "oracle commits" m.Metrics.committed m2.Metrics.committed;
  Tutil.check_bool "recovered state = truncated serial run" true
    (Db.checksum wl.Workload.db = Db.checksum wl2.Workload.db)

(* ------------------------- harness validation ------------------------- *)

let test_experiment_validation () =
  let spec = E.Ycsb (Tutil.small_ycsb ()) in
  let crash_plan =
    {
      Faults.none with
      Faults.crashes = [ { Faults.node = 0; at = 1_000; down = 1 } ];
    }
  in
  Alcotest.check_raises "--wal rejected off the WAL engines"
    (Invalid_argument
       "Experiment.run: --wal requires the 'wal' capability, but engine \
        silo provides {clients}")
    (fun () ->
      ignore
        (E.run (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true E.Silo spec)));
  Alcotest.check_raises "crash without --wal rejected"
    (Invalid_argument
       "Experiment.run: crash/disk faults on quecc need --wal (nothing \
        durable to recover from otherwise)")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~faults:crash_plan
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "snapshot period must be positive"
    (Invalid_argument "Experiment.run: --snapshot-every must be >= 1")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true
              ~snapshot_every:0
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "snapshot period without --wal rejected"
    (Invalid_argument
       "Experiment.run: --snapshot-every needs --wal (there is no log to \
        snapshot)")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~snapshot_every:4
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "net faults stay distributed-only"
    (Invalid_argument
       "Experiment.run: network faults (drop/dup/delay/partition) requires \
        the 'dist' capability, but engine quecc provides {faults, clients, \
        wal, cdc}")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true
              ~faults:{ Faults.none with Faults.drop = 0.01 }
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)));
  Alcotest.check_raises "crash + open-loop clients rejected"
    (Invalid_argument
       "Experiment.run: crash faults and open-loop clients cannot be \
        combined on a centralized engine (a crashed node strands the \
        admission queue)")
    (fun () ->
      ignore
        (E.run
           (E.make ~threads:2 ~txns:256 ~batch_size:128 ~wal:true
              ~faults:crash_plan ~clients:Quill_clients.Clients.default
              (E.Quecc (Engine.Speculative, Engine.Serializable))
              spec)))

(* A crash fault through the full harness path commits exactly the
   durable prefix instead of exiting. *)
let test_experiment_crash_path () =
  let spec = E.Ycsb (Tutil.small_ycsb ()) in
  let probe =
    E.run
      (E.make ~threads:4 ~txns:512 ~batch_size:128 ~wal:true
         (E.Quecc (Engine.Speculative, Engine.Serializable))
         spec)
  in
  let plan =
    {
      Faults.none with
      Faults.crashes =
        [ { Faults.node = 0; at = probe.Metrics.elapsed / 2; down = 1 } ];
    }
  in
  let m =
    E.run
      (E.make ~threads:4 ~txns:512 ~batch_size:128 ~wal:true ~faults:plan
         (E.Quecc (Engine.Speculative, Engine.Serializable))
         spec)
  in
  Tutil.check_int "crashed once" 1 m.Metrics.crashes;
  Tutil.check_bool "durable prefix committed" true
    (m.Metrics.committed < probe.Metrics.committed);
  Tutil.check_int "whole durable batches" 0 (m.Metrics.committed mod 128)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wal"
    [
      ( "group-commit",
        [
          Alcotest.test_case "state-neutral + counters" `Quick
            test_wal_is_state_neutral;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "lockstep" `Quick test_crash_recovers_lockstep;
          Alcotest.test_case "pipelined" `Quick
            test_crash_recovers_pipelined;
          Alcotest.test_case "with aborts" `Quick
            test_crash_recovers_with_inserts;
          Alcotest.test_case "serial engine" `Quick
            test_serial_crash_recovers;
          qc prop_crash_recovers_to_oracle;
        ] );
      ( "damaged-tails",
        [
          Alcotest.test_case "clean log replays fully" `Quick
            test_clean_log_replays_fully;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "corrupt byte truncated" `Quick
            test_corrupt_byte_truncates;
          Alcotest.test_case "fsync failure degrades" `Quick
            test_fsync_fail_degrades;
          Alcotest.test_case "golden torn-record sweep" `Quick
            test_golden_torn_sweep;
        ] );
      ( "harness",
        [
          Alcotest.test_case "validation" `Quick test_experiment_validation;
          Alcotest.test_case "crash path" `Quick test_experiment_crash_path;
        ] );
    ]
