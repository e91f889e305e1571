(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) plus bechamel
   micro-benchmarks of the engine's hot paths.

   Usage:
     bench/main.exe                 -- everything at the default scale
     bench/main.exe table2-row1     -- one experiment
     bench/main.exe micro           -- microbenchmarks only
     bench/main.exe all 0.25        -- everything at quarter scale *)

open Quill_common
open Quill_workloads
module H = Quill_harness
module Sim = Quill_sim.Sim

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: real-time cost of the hot paths.         *)
(* ------------------------------------------------------------------ *)

(* One micro-benchmark: each call of [fn] performs [ops] operations, and
   the table reports the cost of one operation. *)
type micro = { name : string; ops : int; fn : unit -> unit }

let micro_tests () =
  let zipf = Zipf.create ~theta:0.99 1_000_000 in
  let rng = Rng.create 11 in
  let zipf_sample () = ignore (Zipf.sample_scrambled zipf rng) in
  let heap = Heap.create ~dummy:0 in
  let ord = ref 0 in
  let heap_push_pop () =
    incr ord;
    (* A multiplicative hash keeps the keys varied without timing an RNG. *)
    Heap.push heap ~at:(!ord * 7919 land 1023) ~ord:!ord !ord;
    ignore (Heap.pop heap)
  in
  let ycsb =
    Ycsb.make { Ycsb.default with Ycsb.table_size = 10_000; nparts = 4 }
  in
  let stream = ycsb.Quill_txn.Workload.new_stream 0 in
  let tpcc =
    Tpcc.make
      { Tpcc.default with Tpcc_defs.warehouses = 1; nparts = 4; items = 10_000 }
  in
  let tstream = tpcc.Quill_txn.Workload.new_stream 0 in
  let barrier () =
    let sim = Sim.create () in
    let b = Sim.Barrier.create 8 in
    for _ = 1 to 8 do
      Sim.spawn sim (fun () ->
          for _ = 1 to 16 do
            Sim.tick sim 10;
            Sim.Barrier.await sim b
          done)
    done;
    ignore (Sim.run sim)
  in
  (* 8 fibers with equal tick costs and start clocks staggered by 1 ns:
     after every tick another fiber is due at or before the ticker's
     clock, so (bar the last few) every tick is a context switch. *)
  let fibers = 8 and ticks = 1024 in
  let contended () =
    let sim = Sim.create () in
    for i = 0 to fibers - 1 do
      Sim.spawn ~at:i sim (fun () ->
          for _ = 1 to ticks do
            Sim.tick sim fibers
          done)
    done;
    ignore (Sim.run sim)
  in
  let quecc_wl =
    Ycsb.make { Ycsb.default with Ycsb.table_size = 20_000; nparts = 4 }
  in
  let quecc_batch () =
    ignore
      (Quill_quecc.Engine.run
         {
           Quill_quecc.Engine.default_cfg with
           Quill_quecc.Engine.planners = 4;
           executors = 4;
           batch_size = 256;
         }
         quecc_wl ~batches:1)
  in
  (* The commit seam.  The log and the hub tick virtual time, so each
     call runs one simulated thread on a simulator they share across
     calls.  The log rolls a snapshot of its one-row database every
     batch, which keeps the log from growing. *)
  let module Db = Quill_storage.Db in
  let module Table = Quill_storage.Table in
  let module Row = Quill_storage.Row in
  let module Wal = Quill_wal.Wal in
  let module Cdc = Quill_cdc.Cdc in
  let costs = Quill_sim.Costs.default in
  let in_thread sim f () =
    Sim.spawn sim f;
    ignore (Sim.run sim)
  in
  let records = 1024 in
  let wal_sim = Sim.create () in
  let wal_db = Db.create ~nparts:1 in
  ignore (Db.add_table wal_db ~name:"t" ~nfields:10 ~capacity:1);
  let wal = Wal.create ~sim:wal_sim ~costs ~snapshot_every:1 wal_db in
  let payload = Array.init 10 (fun i -> i * 1_000_003) in
  let bno = ref 0 in
  let wal_batch =
    in_thread wal_sim (fun () ->
        Wal.begin_batch wal ~batch_no:!bno;
        for key = 1 to records do
          Wal.log_effect wal ~table:0 ~home:0 ~key payload
        done;
        ignore (Wal.commit_batch wal ~batch_no:!bno ~txns:1);
        incr bno)
  in
  let cdc_sim = Sim.create () in
  let cdc_db = Db.create ~nparts:1 in
  ignore (Db.add_table cdc_db ~name:"t" ~nfields:10 ~capacity:1024);
  let cdc_tbl = Db.table cdc_db 0 in
  let hub = Cdc.create ~sim:cdc_sim ~costs cdc_db in
  let cdc_bno = ref 0 in
  let cdc_batch =
    in_thread cdc_sim (fun () ->
        for key = 0 to 1023 do
          let r = Table.dense cdc_tbl key in
          r.Row.data.(0) <- r.Row.data.(0) + 1;
          Cdc.stage hub ~table:0 ~key ~before:r.Row.committed
            ~after:r.Row.data
        done;
        Cdc.publish hub ~batch_no:!cdc_bno ~txns:1024;
        incr cdc_bno)
  in
  let image_db = Db.create ~nparts:4 in
  ignore (Db.add_table image_db ~name:"t" ~nfields:10 ~capacity:100_000);
  let db_image () = ignore (Sys.opaque_identity (Db.image image_db)) in
  [
    { name = "zipf-sample-0.99"; ops = 1; fn = zipf_sample };
    { name = "heap-push-pop"; ops = 1; fn = heap_push_pop };
    { name = "ycsb-gen-txn"; ops = 1; fn = (fun () -> ignore (stream ())) };
    { name = "tpcc-gen-txn"; ops = 1; fn = (fun () -> ignore (tstream ())) };
    { name = "sim-barrier-8x16"; ops = 1; fn = barrier };
    { name = "sim-contended-tick"; ops = fibers * ticks; fn = contended };
    { name = "quecc-256txn-batch"; ops = 1; fn = quecc_batch };
    { name = "wal-log-effect"; ops = records; fn = wal_batch };
    { name = "cdc-stage-publish-1k"; ops = 1; fn = cdc_batch };
    { name = "db-image-100k"; ops = 1; fn = db_image };
  ]

(* Stopwatch cross-check of the bechamel estimate: find a call count whose
   batch lasts at least 50 ms, time five such batches, and report ns and
   minor words per operation of the median one (robust to a transient
   stall on a shared machine). *)
let stopwatch m =
  (* lint: wall-clock-ok — host timing of the micro table, never virtual time *)
  let now = Unix.gettimeofday in
  let batch n =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for _ = 1 to n do
      m.fn ()
    done;
    (now () -. t0, Gc.minor_words () -. w0)
  in
  let rec calibrate n = if fst (batch n) < 0.05 then calibrate (2 * n) else n in
  let n = calibrate 1 in
  let dt, dw = List.nth (List.sort compare (List.init 5 (fun _ -> batch n))) 2 in
  let per = float_of_int (n * m.ops) in
  (dt *. 1e9 /. per, dw /. per)

let run_micro () =
  let open Bechamel in
  let module Instance = Toolkit.Instance in
  print_endline "\n== Microbenchmarks (cost per operation) ==";
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  (* [~stabilize:false]: the default runs [Gc.compact] (until live words
     settle) before every sample.  That spends the quota compacting, so
     sampling stops at small run counts, and the cold caches each
     compaction leaves cost every sample a fixed overhead that the
     through-origin OLS on [run] folds into the per-run slope: the
     estimates came out up to 25x above a stopwatch. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun m ->
        let test = Test.make ~name:m.name (Staged.stage m.fn) in
        let raw = Benchmark.run cfg instances (List.hd (Test.elements test)) in
        let per_op inst =
          match Analyze.OLS.estimates (Analyze.one ols inst raw) with
          | Some [ e ] -> Printf.sprintf "%.1f" (e /. float_of_int m.ops)
          | _ -> "-"
        in
        let sw_ns, sw_words = stopwatch m in
        [
          m.name;
          per_op Instance.monotonic_clock;
          per_op Instance.minor_allocated;
          Printf.sprintf "%.1f" sw_ns;
          Printf.sprintf "%.1f" sw_words;
        ])
      (micro_tests ())
  in
  Tablefmt.print
    ~header:
      [ "benchmark"; "ns/op"; "words/op"; "stopwatch ns/op"; "stopwatch words/op" ]
    rows

(* ------------------------------------------------------------------ *)

let usage ?hint () =
  (match hint with
  | Some h -> Printf.eprintf "main.exe: %s\n" h
  | None -> ());
  prerr_endline
    "usage: main.exe [table2-row1|table2-row2|table2-row3|fig-contention|\n\
    \                 fig-scalability|fig-modes|fig-latency|fig-batch|\n\
    \                 pipeline|skew|fault-tolerance|failover|durability|\n\
    \                 cdc|overload|micro|all]\n\
    \                [scale] [--trace FILE] [--phase-table] [--faults SPEC]\n\
    \                [--arrival RATE] [--admission POLICY[:DEPTH]]\n\
    \                [--deadline TIME] [--retries N[:BACKOFF]]\n\
    \                [--json FILE  (pipeline/skew/failover/durability/cdc: \
     machine-readable results)]\n\
    \                [--check-conflicts  (QueCC runs: verify planned order)]";
  exit 2

(* Pull the option flags out of argv; what remains is positional. *)
type opts = {
  mutable trace_file : string option;
  mutable faults : Quill_faults.Faults.spec option;
  mutable arrival : Quill_clients.Clients.arrival option;
  mutable admission : (Quill_clients.Clients.policy * int) option;
  mutable deadline : int option;
  mutable retries : (int * int) option;
  mutable json : string option;
}

let parse_args () =
  let o =
    {
      trace_file = None;
      faults = None;
      arrival = None;
      admission = None;
      deadline = None;
      retries = None;
      json = None;
    }
  in
  let positional = ref [] in
  let takes_value = function
    | "--trace" | "--faults" | "--arrival" | "--admission" | "--deadline"
    | "--retries" | "--json" ->
        true
    | _ -> false
  in
  let value flag i =
    if i + 1 >= Array.length Sys.argv then
      usage ~hint:(flag ^ " needs an argument") ();
    Sys.argv.(i + 1)
  in
  let parsed flag parse s =
    match parse s with
    | Ok v -> v
    | Error msg -> usage ~hint:(Printf.sprintf "bad %s: %s" flag msg) ()
  in
  let rec go i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "--trace" -> o.trace_file <- Some (value "--trace" i)
      | "--faults" ->
          o.faults <-
            Some (parsed "--faults" Quill_faults.Faults.parse (value "--faults" i))
      | "--arrival" ->
          o.arrival <-
            Some
              (parsed "--arrival" Quill_clients.Clients.parse_arrival
                 (value "--arrival" i))
      | "--admission" ->
          o.admission <-
            Some
              (parsed "--admission" Quill_clients.Clients.parse_admission
                 (value "--admission" i))
      | "--deadline" -> (
          let s = value "--deadline" i in
          match Quill_clients.Clients.parse_time s with
          | d -> o.deadline <- Some d
          | exception _ ->
              usage ~hint:("bad --deadline " ^ s ^ " (want NUM[ns|us|ms|s])") ())
      | "--retries" ->
          o.retries <-
            Some
              (parsed "--retries" Quill_clients.Clients.parse_retries
                 (value "--retries" i))
      | "--json" -> o.json <- Some (value "--json" i)
      | "--check-conflicts" -> H.Experiments.check_conflicts := true
      | "--phase-table" -> H.Report.phase_tables := true
      | a when String.length a > 0 && a.[0] = '-' ->
          usage ~hint:("unknown option " ^ a) ()
      | a -> positional := a :: !positional);
      go (i + if takes_value Sys.argv.(i) then 2 else 1)
    end
  in
  go 1;
  (o, List.rev !positional)

let () =
  let o, positional = parse_args () in
  let trace_file = o.trace_file and faults = o.faults in
  let arg = match positional with a :: _ -> a | [] -> "all" in
  let scale =
    match positional with
    | _ :: s :: _ -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> f
        | Some _ | None ->
            usage ~hint:("scale must be a positive number, got " ^ s) ())
    | _ -> 0.5
  in
  (match trace_file with
  | Some _ -> H.Experiments.tracer := Quill_trace.Trace.create ()
  | None -> ());
  Printf.printf "quill benchmark harness (scale=%.2f)\n%!" scale;
  (match arg with
  | "table2-row1" -> H.Experiments.table2_row1 ~scale ()
  | "table2-row2" -> H.Experiments.table2_row2 ~scale ()
  | "table2-row3" -> H.Experiments.table2_row3 ~scale ()
  | "fig-contention" -> H.Experiments.fig_contention ~scale ()
  | "fig-scalability" -> H.Experiments.fig_scalability ~scale ()
  | "fig-modes" -> H.Experiments.fig_modes ~scale ()
  | "fig-latency" -> H.Experiments.fig_latency ~scale ()
  | "fig-batch" -> H.Experiments.fig_batch ~scale ()
  | "pipeline" -> H.Experiments.pipeline ~scale ?json:o.json ()
  | "skew" -> H.Experiments.skew ~scale ?json:o.json ()
  | "fault-tolerance" -> H.Experiments.fault_tolerance ~scale ?plan:faults ()
  | "failover" ->
      H.Experiments.failover ~scale ?json:o.json ?plan:faults ()
  | "durability" -> H.Experiments.durability ~scale ?json:o.json ()
  | "cdc" -> H.Experiments.cdc ~scale ?json:o.json ()
  | "overload" ->
      H.Experiments.overload ~scale ?arrival:o.arrival ?admission:o.admission
        ?deadline:o.deadline ?retries:o.retries ()
  | "micro" -> run_micro ()
  | "all" ->
      H.Experiments.all ~scale ();
      run_micro ()
  | a -> usage ~hint:("unknown experiment " ^ a) ());
  (match trace_file with
  | Some path ->
      let tr = !H.Experiments.tracer in
      Quill_trace.Trace.write_file tr path;
      Printf.printf "trace: %d events written to %s\n"
        (Quill_trace.Trace.num_events tr) path
  | None -> ());
  print_endline "\ndone."
