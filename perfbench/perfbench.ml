(* The repository benchmark.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload from the seed, hands the engine (resolved
   through the engine registry) only the generated inputs, and repeats
   engine runs ("rounds") over the same database until S seconds have
   passed and at least [model_rounds] rounds are done.  Round [r] reads
   generator streams [r * streams ..], so every round runs fresh
   transactions and the whole run is a pure function of the seed.

   --trace 0 prints the end-to-end metrics.  Host throughput is the
   median over every round; the modeled (virtual-time) metrics, the
   allocation count and the peak heap cover the set-ups and the first
   [model_rounds] rounds only, so they repeat exactly for a fixed seed.

   --trace 1 runs [model_rounds] rounds several times: untraced, twice
   under the outside-in profiler ({!Probe}), and for a workload with
   WAL and CDC once more with both off.  It prints the per-layer
   metrics and fails unless every virtual-time output is identical
   across those passes.

   After the timed window the final state is checked against an
   oracle: serial execution of the same transactions in batch order
   for the YCSB workloads, TPC-C consistency conditions 1-4 for TPC-C.
   The last line of output is one JSON object; the exit code is 1 when
   any check failed. *)

open Quill_txn
module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Row = Quill_storage.Row
module Vec = Quill_common.Vec
module ER = Quill_harness.Engine_registry
module EI = Quill_harness.Engine_intf
module RC = EI.Run_cfg
module Ycsb = Quill_workloads.Ycsb
module Tpcc = Quill_workloads.Tpcc
module Tpcc_defs = Quill_workloads.Tpcc_defs
module Tpcc_load = Quill_workloads.Tpcc_load
module Serial = Quill_protocols.Serial
module Wal = Quill_wal.Wal
module Cdc = Quill_cdc.Cdc
module Replica = Quill_cdc.Replica
module Qe = Quill_quecc.Engine

type oracle = Serial_batch_order | Tpcc_consistency

type spec = {
  name : string;
  engine : ER.engine;
  threads : int;
  batch_size : int;
  batches : int;  (** per round *)
  streams : int;  (** generator streams one engine run opens *)
  model_rounds : int;
  setups : int;  (** timed set-ups; the median is [setup_s] *)
  pipeline : bool;
  durable : bool;  (** WAL (group commit) plus a CDC read-replica *)
  build : int -> Workload.t;  (** seed -> populated workload *)
  oracle : oracle;
}

let ycsb ~table_size ~read_ratio ~theta ~nparts ~mp_ratio seed =
  Ycsb.make
    {
      Ycsb.default with
      Ycsb.table_size;
      read_ratio;
      theta;
      nparts;
      mp_ratio;
      parts_per_txn = 2;
      seed;
    }

let quecc = ER.Quecc (Qe.Speculative, Qe.Serializable)

(* Why each workload is here is recorded in BENCHMARK.json. *)
let specs =
  [
    {
      name = "ycsb-quecc";
      engine = quecc;
      threads = 8;
      batch_size = 1024;
      batches = 16;
      streams = 8;
      model_rounds = 4;
      setups = 5;
      pipeline = true;
      durable = false;
      build =
        ycsb ~table_size:1_000_000 ~read_ratio:0.5 ~theta:0.9 ~nparts:8
          ~mp_ratio:0.0;
      oracle = Serial_batch_order;
    };
    {
      name = "tpcc-tictoc";
      engine = ER.Tictoc;
      threads = 8;
      batch_size = 1024;
      batches = 8;
      streams = 8;
      model_rounds = 8;
      setups = 15;
      pipeline = false;
      durable = false;
      build =
        (fun seed ->
          Tpcc.make
            (Tpcc.payment_mix
               {
                 Tpcc.default with
                 Tpcc_defs.warehouses = 1;
                 nparts = 8;
                 seed;
               }));
      oracle = Tpcc_consistency;
    };
    {
      name = "ycsb-durable";
      engine = quecc;
      threads = 8;
      batch_size = 1024;
      batches = 8;
      streams = 8;
      model_rounds = 6;
      setups = 21;
      pipeline = false;
      durable = true;
      build =
        ycsb ~table_size:100_000 ~read_ratio:0.0 ~theta:0.6 ~nparts:8
          ~mp_ratio:0.0;
      oracle = Serial_batch_order;
    };
    {
      name = "ycsb-dist";
      engine = ER.Dist_quecc 4;
      threads = 16;
      batch_size = 4096;
      batches = 4;
      streams = 32;
      model_rounds = 6;
      setups = 7;
      pipeline = false;
      durable = false;
      build =
        ycsb ~table_size:320_000 ~read_ratio:0.5 ~theta:0.0 ~nparts:32
          ~mp_ratio:0.2;
      oracle = Serial_batch_order;
    };
  ]

let rcfg spec =
  {
    RC.default with
    RC.threads = spec.threads;
    txns = spec.batches * spec.batch_size;
    batches = spec.batches;
    batch_size = spec.batch_size;
    exec = { RC.pipeline = spec.pipeline; steal = false };
  }

let costs = Costs.default
let snapshot_every = 8

(* ------------------------------------------------------------------ *)
(* One engine run                                                       *)

type round = {
  m : Metrics.t;
  submitted : int;
  wall_ns : int;  (** host time of the engine run *)
  words : float;  (** words allocated during the engine run *)
  lat : int array;  (** virtual commit latencies of committed txns *)
  busy : int array;  (** Sim busy ns: plan, execute, publish, other+recover *)
  idle : int array;  (** Sim idle ns: barrier, ivar, chan, sleep *)
  digest : int;  (** CDC feed digest; 0 without CDC *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
}

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* TPC-C consistency tally: committed NewOrders per district and
   payment amounts per warehouse and district, folded in per round. *)
type tally = { new_orders : int array; pay_w : int array; pay_d : int array }

let tally_add t txns =
  Vec.iter
    (fun (txn : Txn.t) ->
      if txn.Txn.status = Txn.Committed && Array.length txn.Txn.frags > 1
      then begin
        let f0 = txn.Txn.frags.(0) and d = txn.Txn.frags.(1) in
        if f0.Fragment.op = Tpcc_defs.op_no_wh then
          t.new_orders.(d.Fragment.key) <- t.new_orders.(d.Fragment.key) + 1
        else if f0.Fragment.op = Tpcc_defs.op_pay_wh then begin
          let amount = f0.Fragment.args.(0) in
          t.pay_w.(f0.Fragment.key) <- t.pay_w.(f0.Fragment.key) + amount;
          t.pay_d.(d.Fragment.key) <- t.pay_d.(d.Fragment.key) + amount
        end
      end)
    txns

let run_round spec ~durable ~round ~probe ~fail ~tally (wl : Workload.t) =
  let (module M : EI.S) = ER.resolve spec.engine in
  let cfg = rcfg spec in
  let txns = Vec.create ~capacity:cfg.RC.txns () in
  let base = wl.Workload.new_stream in
  let new_stream i =
    if i >= spec.streams then
      invalid_arg (Printf.sprintf "%s: engine opened stream %d" spec.name i);
    let g = base ((round * spec.streams) + i) in
    fun () ->
      let x = g () in
      Vec.push txns x;
      x
  in
  let run_wl = { wl with Workload.new_stream } in
  let run_wl =
    match probe with Some p -> Probe.wrap_workload p run_wl | None -> run_wl
  in
  let gc0 = Gc.quick_stat () in
  let w0 = allocated () in
  let t0 = Probe.now_ns () in
  let sim = Sim.create ~wake_cost:costs.Costs.wakeup () in
  Option.iter (fun p -> Probe.start p sim) probe;
  let db = wl.Workload.db in
  let wal =
    if durable then Some (Wal.create ~sim ~costs ~snapshot_every db) else None
  in
  let hub, replica =
    if not durable then (None, None)
    else begin
      let hub = Cdc.create ~sim ~costs db in
      let r = Replica.create db in
      let c = Replica.consumer r in
      let c = match probe with Some p -> Probe.wrap_consumer p c | None -> c in
      ignore (Cdc.subscribe hub ~name:"replica" ~apply_every:4 c);
      (Some hub, Some r)
    end
  in
  let m = M.run ~sim ?wal ?cdc:hub ~cfg run_wl in
  Option.iter Cdc.finish hub;
  Option.iter Probe.stop probe;
  let t1 = Probe.now_ns () in
  let w1 = allocated () in
  let gc1 = Gc.quick_stat () in
  Option.iter (fun h -> Cdc.record h m) hub;
  let where = Printf.sprintf "%s round %d" spec.name round in
  Option.iter
    (fun r ->
      if not (Replica.consistent_with r db) then
        fail (where ^ ": CDC replica differs from committed state"))
    replica;
  if durable then begin
    if m.Metrics.durable_batches <> spec.batches then
      fail
        (Printf.sprintf "%s: %d durable batches, expected %d" where
           m.Metrics.durable_batches spec.batches);
    if m.Metrics.wal_fsyncs <> spec.batches then
      fail
        (Printf.sprintf "%s: %d fsyncs, expected one per batch (%d)" where
           m.Metrics.wal_fsyncs spec.batches)
  end;
  let submitted = Vec.length txns in
  if submitted <> cfg.RC.txns then
    fail
      (Printf.sprintf "%s: %d transactions generated, expected %d" where
         submitted cfg.RC.txns);
  Option.iter (fun t -> tally_add t txns) tally;
  let lat = Vec.create () in
  Vec.iter
    (fun (x : Txn.t) ->
      if x.Txn.status = Txn.Committed then
        Vec.push lat (x.Txn.finish_time - x.Txn.submit_time))
    txns;
  {
    m;
    submitted;
    wall_ns = t1 - t0;
    words = w1 -. w0;
    lat = Vec.to_array lat;
    busy =
      [|
        Sim.busy_in sim Sim.Ph_plan;
        Sim.busy_in sim Sim.Ph_execute;
        Sim.busy_in sim Sim.Ph_publish;
        Sim.busy_in sim Sim.Ph_other + Sim.busy_in sim Sim.Ph_recover;
      |];
    idle =
      Array.map (Sim.idle_in sim)
        Sim.[| Cause_barrier; Cause_ivar; Cause_chan; Cause_sleep |];
    digest = (match hub with Some h -> Cdc.digest h | None -> 0);
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
  }

(* ------------------------------------------------------------------ *)
(* A pass: set up once, then a sequence of rounds                       *)

type pass = {
  setup_ns : int list;
  rows : int;  (** rows loaded by the set-up *)
  rounds : round list;
  checksum : int;  (** [Db.checksum] after the last round *)
  top_heap_words : int;
      (** process peak, read after the first [min_rounds] rounds so that
          it repeats for a fixed seed *)
}

let rows_of db =
  let n = ref 0 in
  for i = 0 to Db.ntables db - 1 do
    let t = Db.table db i in
    n := !n + Table.capacity t + Table.inserted_count t
  done;
  !n

(* TPC-C consistency conditions 1-4 over the committed transactions of
   every round.  300_000_00 and 3_000_000_00 are the d_ytd and w_ytd the
   loader starts from (TPC-C clause 4.3.3.1). *)
let check_tpcc spec (wl : Workload.t) ~fail t =
  let db = wl.Workload.db and h = Tpcc.handles wl in
  let check what expected got =
    if expected <> got then
      fail
        (Printf.sprintf "%s: TPC-C %s: expected %d, found %d" spec.name what
           expected got)
  in
  Table.iter_dense
    (fun row ->
      let d = row.Row.key in
      check (Printf.sprintf "district %d next_o_id" d) t.new_orders.(d)
        row.Row.committed.(Tpcc_defs.D.next_o_id);
      check (Printf.sprintf "district %d ytd" d) (300_000_00 + t.pay_d.(d))
        row.Row.committed.(Tpcc_defs.D.ytd))
    (Db.table db h.Tpcc_load.t_district);
  Table.iter_dense
    (fun row ->
      let w = row.Row.key in
      check (Printf.sprintf "warehouse %d ytd" w) (3_000_000_00 + t.pay_w.(w))
        row.Row.committed.(Tpcc_defs.W.ytd))
    (Db.table db h.Tpcc_load.t_warehouse);
  let orders = Array.fold_left ( + ) 0 t.new_orders in
  check "order rows" orders
    (Table.inserted_count (Db.table db h.Tpcc_load.t_orders));
  check "new_order rows" orders
    (Table.inserted_count (Db.table db h.Tpcc_load.t_new_order))

(* The set-up is timed [setups] times, keeping the last workload.  Rounds
   run until [seconds] have passed and at least [min_rounds] are done, or
   exactly [min_rounds] when [seconds] is 0. *)
let run_pass spec ~seed ~setups ~seconds ~min_rounds ~durable ~probe ~fail =
  let setup () =
    Gc.full_major ();
    let t0 = Probe.now_ns () in
    let wl = spec.build seed in
    (wl, Probe.now_ns () - t0)
  in
  let rec setup_n k acc =
    let wl, ns = setup () in
    if k <= 1 then (wl, List.rev (ns :: acc)) else setup_n (k - 1) (ns :: acc)
  in
  let wl, setup_ns = setup_n setups [] in
  let rows = rows_of wl.Workload.db in
  Gc.full_major ();
  let tally =
    match spec.oracle with
    | Tpcc_consistency ->
        let h = Tpcc.handles wl in
        let w =
          Table.capacity (Db.table wl.Workload.db h.Tpcc_load.t_warehouse)
        in
        Some
          {
            new_orders = Array.make (w * 10) 0;
            pay_w = Array.make w 0;
            pay_d = Array.make (w * 10) 0;
          }
    | Serial_batch_order -> None
  in
  let deadline = Probe.now_ns () + int_of_float (seconds *. 1e9) in
  let top_heap_words = ref 0 in
  let rec loop r acc =
    if r >= min_rounds && Probe.now_ns () >= deadline then List.rev acc
    else begin
      let x = run_round spec ~durable ~round:r ~probe ~fail ~tally wl in
      if r + 1 = min_rounds then
        top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (r + 1) (x :: acc)
    end
  in
  let rounds = loop 0 [] in
  Option.iter (check_tpcc spec wl ~fail) tally;
  {
    setup_ns;
    rows;
    rounds;
    checksum = Db.checksum wl.Workload.db;
    top_heap_words = !top_heap_words;
  }

(* Serial oracle: rebuild the database from the seed and replay every
   round's transactions in the order the engine committed them — batch
   by batch, and within a batch stream by stream, each stream
   contributing its next [batch_size / streams] transactions (the
   planner-major slicing of the QueCC family; node-major epoch order for
   dist-quecc). *)
let check_serial spec ~seed (p : pass) ~fail =
  let wl = spec.build seed in
  let per = spec.batch_size / spec.streams
  and rem = spec.batch_size mod spec.streams in
  List.iteri
    (fun r x ->
      let gens =
        Array.init spec.streams (fun i ->
            wl.Workload.new_stream ((r * spec.streams) + i))
      in
      let acc = ref [] in
      for _ = 1 to spec.batches do
        Array.iteri
          (fun i g ->
            for _ = 1 to per + if i < rem then 1 else 0 do
              acc := g () :: !acc
            done)
          gens
      done;
      let m = Serial.run_txns ~costs wl (List.rev !acc) in
      let got = x.m in
      if
        m.Metrics.committed <> got.Metrics.committed
        || m.Metrics.logic_aborted <> got.Metrics.logic_aborted
      then
        fail
          (Printf.sprintf
             "%s round %d: committed/aborted %d/%d, serial oracle %d/%d"
             spec.name r got.Metrics.committed got.Metrics.logic_aborted
             m.Metrics.committed m.Metrics.logic_aborted))
    p.rounds;
  if Db.checksum wl.Workload.db <> p.checksum then
    fail (spec.name ^ ": final state differs from the serial oracle")

(* The TPC-C check runs inside [run_pass], while the database is live. *)
let verify spec ~seed p ~fail =
  if spec.oracle = Serial_batch_order then check_serial spec ~seed p ~fail

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sumf f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Parzen's mid-quantile of a sorted sample: the quantile function
   that interpolates linearly between distinct values placed at their
   mid-distribution points F(x) - P(X = x) / 2.  Virtual latencies tie
   heavily (an uncontended transaction of one shape always takes the
   same virtual time), and a nearest-rank percentile would stick to one
   tied value across seeds; the mid-quantile moves with the weight of
   each tie. *)
let mid_quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    (* distinct values with their mid-distribution points *)
    let vs = Vec.create () and mids = Vec.create () in
    let i = ref 0 in
    while !i < n do
      let v = sorted.(!i) in
      let j = ref !i in
      while !j < n && sorted.(!j) = v do incr j done;
      Vec.push vs (fi v);
      Vec.push mids ((fi !i +. (fi (!j - !i) /. 2.0)) /. fi n);
      i := !j
    done;
    let k = Vec.length vs in
    if p <= Vec.get mids 0 then Vec.get vs 0
    else if p >= Vec.get mids (k - 1) then Vec.get vs (k - 1)
    else begin
      let j = ref 0 in
      while Vec.get mids (!j + 1) <= p do incr j done;
      let m0 = Vec.get mids !j and m1 = Vec.get mids (!j + 1) in
      let v0 = Vec.get vs !j and v1 = Vec.get vs (!j + 1) in
      v0 +. ((p -. m0) /. (m1 -. m0) *. (v1 -. v0))
    end
  end

let take n l = List.filteri (fun i _ -> i < n) l
let committed x = x.m.Metrics.committed
let rate x = fi (committed x) /. (fi x.wall_ns /. 1e9)
let mb words = fi (words * (Sys.word_size / 8)) /. 1e6

let model_lat rounds =
  let a = Array.concat (List.map (fun x -> x.lat) rounds) in
  Array.sort compare a;
  a

let end_to_end spec (p : pass) =
  let model = take spec.model_rounds p.rounds in
  let lat = model_lat model in
  let c = fi (sum committed model) in
  [
    ("host_txn_per_s", median (List.map rate p.rounds), "txn/s");
    ("host_words_per_txn", ratio (sumf (fun x -> x.words) model) c, "words");
    ("peak_heap_mb", mb p.top_heap_words, "MB");
    ("setup_s", median (List.map (fun ns -> fi ns /. 1e9) p.setup_ns), "s");
    ( "model_txn_per_s",
      ratio c (fi (sum (fun x -> x.m.Metrics.elapsed) model) /. 1e9),
      "txn/s" );
    ("model_p50_us", mid_quantile lat 0.50 /. 1e3, "us");
    ("model_p99_us", mid_quantile lat 0.99 /. 1e3, "us");
  ]

(* Everything a host-side change must leave bit-identical. *)
let fingerprint (p : pass) =
  ( p.checksum,
    List.map
      (fun x ->
        let m = x.m in
        ( ( m.Metrics.committed,
            m.Metrics.logic_aborted,
            m.Metrics.cc_aborts,
            m.Metrics.elapsed ),
          (x.lat, x.busy, x.idle, x.digest) ))
      p.rounds )

let per_layer ~(u : pass) ~(a : pass) ~(pa : Probe.t) ~(off : pass option) =
  let subm l = fi (sum (fun x -> x.submitted) l.rounds) in
  let n = subm a in
  let rs = a.rounds in
  let m f = fi (sum (fun x -> f x.m) rs) in
  let calls l = fi pa.Probe.calls.(l) in
  let ns l = fi pa.Probe.self_ns.(l) in
  let words l = pa.Probe.self_words.(l) in
  let wall l = fi (sum (fun x -> x.wall_ns) l.rounds) in
  let busy i = fi (sum (fun x -> x.busy.(i)) rs)
  and idle i = fi (sum (fun x -> x.idle.(i)) rs) in
  let span = busy 0 +. busy 1 +. busy 2 +. busy 3 +. idle 0 +. idle 1
             +. idle 2 +. idle 3 in
  let committed = m (fun m -> m.Metrics.committed) in
  let cc = m (fun m -> m.Metrics.cc_aborts) in
  let accessors =
    [
      ("read", Probe.read);
      ("write", Probe.write);
      ("add", Probe.add);
      ("insert", Probe.insert);
      ("input", Probe.input);
      ("output", Probe.output);
      ("found", Probe.found);
    ]
  in
  let exec_rows =
    List.concat_map
      (fun (nm, l) ->
        [
          ("exec." ^ nm ^ "_calls_per_txn", ratio (calls l) n, "count");
          ("exec." ^ nm ^ "_ns_per_call", ratio (ns l) (calls l), "ns");
        ])
      accessors
  in
  (* WAL and CDC internals are called by the engine directly, so their
     cost is the difference to a run with both off. *)
  let wal_cdc_ns, wal_cdc_mb =
    match off with
    | None -> (0.0, 0.0)
    | Some o ->
        ( ratio (wall u) (subm u) -. ratio (wall o) (subm o),
          mb u.top_heap_words -. mb o.top_heap_words )
  in
  let traced_wall = wall a in
  let per_gen v = ratio v (calls Probe.gen) in
  let per_thread f = ratio (fi (sum (fun x -> f x.m) rs)) (fi (List.length rs)) in
  [
    ("workloads.gen_ns_per_txn", per_gen (ns Probe.gen), "ns");
    ("workloads.gen_words_per_txn", per_gen (words Probe.gen), "words");
    ("workloads.frags_per_txn", per_gen (fi pa.Probe.frags), "count");
    ( "workloads.load_ns_per_row",
      ratio (fi (List.fold_left ( + ) 0 a.setup_ns)) (fi a.rows),
      "ns" );
    ("txn.exec_calls_per_txn", ratio (calls Probe.txn) n, "count");
    ("txn.exec_self_ns_per_call", ratio (ns Probe.txn) (calls Probe.txn), "ns");
  ]
  @ exec_rows
  @ [
      ( "exec.words_per_txn",
        ratio (sumf (fun (_, l) -> words l) accessors) n,
        "words" );
      ("engine.self_ns_per_txn", ratio (ns Probe.engine) n, "ns");
      ("engine.words_per_txn", ratio (words Probe.engine) n, "words");
      ("sim.busy_plan_share", ratio (busy 0) span, "ratio");
      ("sim.busy_execute_share", ratio (busy 1) span, "ratio");
      ("sim.busy_publish_share", ratio (busy 2) span, "ratio");
      ("sim.idle_barrier_share", ratio (idle 0) span, "ratio");
      ("sim.idle_ivar_share", ratio (idle 1) span, "ratio");
      ("sim.idle_chan_share", ratio (idle 2) span, "ratio");
      ("sim.idle_sleep_share", ratio (idle 3) span, "ratio");
      ( "sim.utilization",
        ratio (busy 0 +. busy 1 +. busy 2 +. busy 3) span,
        "ratio" );
      ("protocols.commit_ratio", ratio committed (committed +. cc), "ratio");
      ("protocols.cc_aborts_per_txn", ratio cc n, "count");
      ( "quecc.fill_stall_ns_per_thread",
        per_thread Metrics.fill_stall_avg,
        "ns" );
      ( "quecc.drain_stall_ns_per_thread",
        per_thread Metrics.drain_stall_avg,
        "ns" );
      ("quecc.cascades", m (fun m -> m.Metrics.cascades), "count");
      ("wal.bytes_per_txn", ratio (m (fun m -> m.Metrics.wal_bytes)) n, "bytes");
      ( "wal.group_txns_per_fsync",
        ratio
          (m (fun m -> m.Metrics.wal_group_txns))
          (m (fun m -> m.Metrics.wal_fsyncs)),
        "count" );
      ("wal.snapshots", m (fun m -> m.Metrics.snapshots), "count");
      ( "cdc.events_per_txn",
        ratio (m (fun m -> m.Metrics.cdc_events)) n,
        "count" );
      ("cdc.bytes_per_txn", ratio (m (fun m -> m.Metrics.cdc_bytes)) n, "bytes");
      ( "cdc.lag_max_batches",
        fi (List.fold_left (fun a x -> max a x.m.Metrics.cdc_lag_max) 0 rs),
        "batches" );
      ( "cdc.apply_ns_per_batch",
        ratio (ns Probe.cdc_apply) (fi pa.Probe.cdc_batches),
        "ns" );
      ("dist.msgs_per_txn", ratio (m (fun m -> m.Metrics.msgs)) n, "count");
      ( "dist.msg_bytes_per_txn",
        ratio (m (fun m -> m.Metrics.msg_bytes)) n,
        "bytes" );
      (* GC counters come from the untraced pass over the same rounds:
         the profiler's own allocation would inflate them. *)
      ( "gc.minor_collections",
        fi (sum (fun x -> x.minor_gcs) u.rounds),
        "count" );
      ( "gc.major_collections",
        fi (sum (fun x -> x.major_gcs) u.rounds),
        "count" );
      ( "gc.promoted_words_per_txn",
        ratio (sumf (fun x -> x.promoted) u.rounds) (subm u),
        "words" );
      ("trace.overhead_ratio", ratio traced_wall (wall u) -. 1.0, "ratio");
      ( "trace.self_sum_error",
        ratio (Float.abs (fi (Probe.total_ns pa) -. traced_wall)) traced_wall,
        "ratio" );
      ("wal_cdc.host_ns_per_txn", wal_cdc_ns, "ns");
      ("wal_cdc.heap_mb", wal_cdc_mb, "MB");
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed rows =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-36s %16.4f %s\n" name v unit)
    rows;
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
             unit)
         rows)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct attempted failed metrics

let main ~workload ~seed ~seconds ~trace =
  let spec =
    match List.find_opt (fun s -> s.name = workload) specs with
    | Some s -> s
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map (fun s -> s.name) specs));
        exit 2
  in
  let failures = ref [] in
  let fail msg =
    Printf.printf "CHECK FAILED: %s\n%!" msg;
    failures := msg :: !failures
  in
  let run ?probe ?(durable = spec.durable) ?(setups = 1) ~seconds () =
    run_pass spec ~seed ~setups ~seconds ~min_rounds:spec.model_rounds
      ~durable ~probe ~fail
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" spec.name seed
    seconds trace;
  let passes, rows =
    if not trace then begin
      let t0 = Probe.now_ns () in
      (* Small set-ups are timed more often so that each run still
         spends about a second on them: their median is then steady. *)
      let p = run ~setups:spec.setups ~seconds () in
      let t1 = Probe.now_ns () in
      verify spec ~seed p ~fail;
      let t2 = Probe.now_ns () in
      let model = take spec.model_rounds p.rounds in
      Printf.printf
        "  %d rounds; model window %d rounds, %d latency samples; host \
         %.1fs run, %.1fs oracle\n"
        (List.length p.rounds) spec.model_rounds
        (Array.length (model_lat model))
        (fi (t1 - t0) /. 1e9)
        (fi (t2 - t1) /. 1e9);
      let show fmt l = String.concat " " (List.map (Printf.sprintf fmt) l) in
      Printf.printf "  set-up s: %s\n  round txn/s: %s\n"
        (show "%.3f" (List.map (fun ns -> fi ns /. 1e9) p.setup_ns))
        (show "%.0f" (List.map rate p.rounds));
      ([ p ], end_to_end spec p)
    end
    else begin
      (* The WAL/CDC-off pass runs first so that its peak heap is the
         baseline the durable pass's peak is compared against. *)
      let off =
        if spec.durable then Some (run ~durable:false ~seconds:0.0 ()) else None
      in
      Gc.full_major ();
      let u = run ~seconds:0.0 () in
      verify spec ~seed u ~fail;
      Gc.full_major ();
      let pa = Probe.create () in
      let a = run ~probe:pa ~seconds:0.0 () in
      Gc.full_major ();
      let pb = Probe.create () in
      let b = run ~probe:pb ~seconds:0.0 () in
      if fingerprint a <> fingerprint u || fingerprint b <> fingerprint u then
        fail (spec.name ^ ": virtual-time outputs differ with tracing on");
      if pa.Probe.calls <> pb.Probe.calls || pa.Probe.frags <> pb.Probe.frags
      then
        fail (spec.name ^ ": call counts differ between two traced runs");
      let rows = per_layer ~u ~a ~pa ~off in
      let _, err, _ =
        List.find (fun (n, _, _) -> n = "trace.self_sum_error") rows
      in
      if err > 0.01 then
        fail
          (Printf.sprintf "%s: self times miss the wall time by %.2f%%"
             spec.name (100.0 *. err));
      (u :: a :: b :: Option.to_list off, rows)
    end
  in
  let rounds = List.concat_map (fun p -> p.rounds) passes in
  let attempted = sum (fun x -> x.submitted) rounds in
  let failed =
    if !failures <> [] then attempted
    else
      sum
        (fun x ->
          x.submitted - x.m.Metrics.committed - x.m.Metrics.logic_aborted)
        rounds
  in
  let correct = !failures = [] && failed = 0 in
  Printf.printf "  attempted=%d failed=%d failed_frac=%g\n" attempted failed
    (ratio (fi failed) (fi (max 1 attempted)));
  print_result ~correct ~attempted ~failed rows;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer trace run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
