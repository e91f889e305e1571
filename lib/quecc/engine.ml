open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Trace = Quill_trace.Trace
module Clients = Quill_clients.Clients
module Alog = Quill_analysis.Access_log
module Wal = Quill_wal.Wal
module Cdc = Quill_cdc.Cdc

type exec_mode = Speculative | Conservative
type isolation = Serializable | Read_committed

(* Hot-key queue splitting: when one planner routes at least
   [hot_threshold] operations to a single key, that key's operations are
   spread across up to [max_subqueues] sub-queues (chain segments) on
   different executors, tagged with intra-key sequence numbers so the
   per-record access order is exactly the enqueue order. *)
type split_cfg = { hot_threshold : int; max_subqueues : int }

let default_split = { hot_threshold = 32; max_subqueues = 8 }

(* Between-batch adaptation.  [repartition] remaps virtual partitions
   ([spread] per executor) to executors by measured per-partition load;
   [auto_batch] lets pipelined runs tune the batch size from the
   fill/drain stall split, never below [min_batch]. *)
type adapt_cfg = {
  repartition : bool;
  spread : int;
  auto_batch : bool;
  min_batch : int;
}

let default_adapt =
  { repartition = true; spread = 8; auto_batch = false; min_batch = 64 }

type cfg = {
  planners : int;
  executors : int;
  batch_size : int;
  mode : exec_mode;
  isolation : isolation;
  costs : Costs.t;
  pipeline : bool;
      (* overlap planning of batch N+1 with execution of batch N via a
         double-buffered queue matrix; off = the lockstep oracle path *)
  steal : bool;
      (* drained executors steal whole queues from the most-loaded peer
         when the steal is provably record-disjoint *)
  split : split_cfg option;  (* hot-key queue splitting; None = off *)
  adapt : adapt_cfg option;  (* dynamic repartitioning / batch tuning *)
}

let default_cfg =
  {
    planners = 4;
    executors = 4;
    batch_size = 1024;
    mode = Speculative;
    isolation = Serializable;
    costs = Costs.default;
    pipeline = false;
    steal = false;
    split = None;
    adapt = None;
  }

(* Per-batch runtime state of one transaction. *)
type rt = {
  txn : Txn.t;
  bidx : int;                        (* position in the batch = serial order *)
  slots : int Sim.Ivar.iv array;     (* data-dependency value slots; [||]
                                        when the txn has no data deps *)
  resolved : unit Sim.Ivar.iv;       (* commit-dependency gate *)
  mutable pending_aborters : int;
  deps_on : int Vec.t;               (* speculation/WAW edges: bidxs read
                                        or overwritten (speculative mode) *)
  mutable inserts : (int * int) list; (* (table, key) for undo *)
  mutable logic_abort : bool;
  entry : Clients.entry option;      (* admission-queue provenance, for
                                        client completion / retry *)
}

type qentry = { rt : rt; frag : Fragment.t }

(* One sub-queue of a split hot key: segment [sg_idx] of the chain for
   [sg_key] (a packed sig_key) homed at executor [sg_home].  The segment
   runs on a foreign executor but only after [sg_prev] is filled — the
   previous segment's [sg_done] (segment 0's start ivar is filled by the
   home executor when it reaches the chain's priority) — so the key's
   operations still execute in exact enqueue order. *)
type segment = {
  sg_home : int;
  sg_key : int;
  sg_idx : int;
  sg_entries : qentry Vec.t;
  sg_prev : unit Sim.Ivar.iv;
  sg_done : unit Sim.Ivar.iv;
}

(* Planner-side bookkeeping for one open chain. *)
type chain = {
  ch_home : int;
  ch_key : int;
  ch_seg_len : int;
  ch_max_segs : int;
  mutable ch_last : segment;
  mutable ch_nsegs : int;
}

(* Auto-tuner state (pipelined closed-loop runs under adapt.auto_batch):
   the planned batch size floats between adapt.min_batch and
   cfg.batch_size, and the total transaction budget is conserved. *)
type autobs = {
  mutable abs_remaining : int;
  mutable abs_cur : int;
  mutable abs_last_fill : int;
  mutable abs_last_drain : int;
}

(* The queue matrix and the per-slot runtimes are double-buffered by
   batch parity so a pipelined run can plan batch N+1 while batch N is
   still executing.  The non-pipelined path only ever uses parity 0.
   [qstate]/[qsig] exist only under [cfg.steal]: per-(planner, executor)
   claim state (0 unclaimed / 1 claimed / 2 done) and an exact
   key-signature set used to prove a candidate steal record-disjoint
   (a Bloom filter is the wrong tool here: certifying DISJOINTNESS of
   n-entry sets needs ~n^2 bits, so real queues would never steal). *)
type shared = {
  cfg : cfg;
  sim : Sim.t;
  wl : Workload.t;
  db : Db.t;
  queues : qentry Vec.t array array array;
      (* [parity].[planner].[executor] *)
  rts : rt option array array;         (* [parity].[slot] -> runtime *)
  touched : (int * Row.t) Vec.t array;
      (* (table, row) per executor + one recovery slot; the rows dirtied
         by the in-flight batch — publish set and WAL write set *)
  qstate : int array array array;      (* [parity].[planner].[executor] *)
  qsig : (int, unit) Hashtbl.t array array array;
      (* [parity].[planner].[executor] *)
  qpend : int array array array;
      (* [parity].[planner].[executor], cfg.steal only: completion units
         left before qstate may flip to 2 — the queue drain itself, plus
         one for the chain joins homed there.  Without splitting every
         cell is 1 and this degenerates to the old drain => done. *)
  chain_starts : unit Sim.Ivar.iv Vec.t array array array;
      (* [parity].[planner].[home executor]: segment-0 start ivars, filled
         by the home executor when it reaches that priority *)
  chain_joins : unit Sim.Ivar.iv Vec.t array array array;
      (* [parity].[planner].[home executor]: last-segment done ivars the
         home executor awaits before leaving that priority *)
  segs : segment Vec.t array array array;
      (* [parity].[planner].[assigned executor], sorted by
         (home, key, idx) — the global order that makes chain waits
         deadlock-free (DESIGN.md §12) *)
  rmap : int array array;  (* [batch parity].[vpart] -> executor *)
  vload : int array array; (* [batch parity].[vpart] -> routed op count *)
  metrics : Metrics.t;
  recorder : Alog.t option;
      (* conflict-detector access log (--check-conflicts); None on the
         hot path *)
  abs : autobs option;
  wal : Wal.t option;  (* durable group-commit log (--wal) *)
  cdc : Cdc.t option;  (* ordered change-feed hub (--cdc) *)
  crash_at : int option;
      (* virtual time at/after which the node dies at its next batch
         commit point, losing the in-flight batch *)
  mutable crashed : bool;
  mutable batch_no : int;
}

(* Pack (table, key) into one int; tables are small. *)
let sig_key table key = (key lsl 6) lor table

let sig_disjoint a b =
  let small, big =
    if Hashtbl.length a <= Hashtbl.length b then (a, b) else (b, a)
  in
  try
    (* Whether ANY key of [small] is in [big] does not depend on visit
       order, and the walk mutates nothing. *)
    (* lint: order-insensitive — pure existence scan, order-independent *)
    Hashtbl.iter (fun k () -> if Hashtbl.mem big k then raise Exit) small;
    true
  with Exit -> false

(* ------------------------------------------------------------------ *)
(* Transaction runtime                                                 *)
(* ------------------------------------------------------------------ *)

let make_rt ?entry txn bidx =
  let has_deps =
    Array.exists
      (fun f -> Array.length f.Fragment.data_deps > 0)
      txn.Txn.frags
  in
  let slots =
    if has_deps then
      Array.init (Array.length txn.Txn.frags) (fun _ -> Sim.Ivar.create ())
    else [||]
  in
  txn.Txn.status <- Txn.Active;
  {
    txn;
    bidx;
    slots;
    resolved = Sim.Ivar.create ();
    pending_aborters = txn.Txn.n_abortable;
    deps_on = Vec.create ();
    inserts = [];
    logic_abort = false;
    entry;
  }

let fill_unfilled_slots sh rt =
  Array.iter
    (fun iv -> if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv 0)
    rt.slots

let resolve_arrive sh rt =
  rt.pending_aborters <- rt.pending_aborters - 1;
  if rt.pending_aborters = 0 && not (Sim.Ivar.is_full rt.resolved) then
    Sim.Ivar.fill sh.sim rt.resolved ()

let do_abort sh rt =
  if rt.txn.Txn.status <> Txn.Aborted then begin
    rt.txn.Txn.status <- Txn.Aborted;
    rt.logic_abort <- true;
    if not (Sim.Ivar.is_full rt.resolved) then
      Sim.Ivar.fill sh.sim rt.resolved ();
    (* Unblock any same-txn consumer already waiting on a value slot; the
       garbage value is repaired by the recovery pass (speculative) or
       never written back (conservative: all updates are gated). *)
    fill_unfilled_slots sh rt
  end

(* ------------------------------------------------------------------ *)
(* Executor context                                                    *)
(* ------------------------------------------------------------------ *)

type exec_state = {
  eid : int;
  mutable cur_rt : rt;
  mutable cur_row : Row.t;
  mutable cur_found : bool;
}

let dummy_row = Row.make ~key:(-1) ~nfields:1
let dummy_txn = Txn.make ~tid:(-1) [||]

let dummy_rt =
  {
    txn = dummy_txn;
    bidx = -1;
    slots = [||];
    resolved = Sim.Ivar.create ();
    pending_aborters = 0;
    deps_on = Vec.create ();
    inserts = [];
    logic_abort = false;
    entry = None;
  }

let mark_touched sh slot table row =
  if not row.Row.dirty then begin
    row.Row.dirty <- true;
    Vec.push sh.touched.(slot) (table, row)
  end

(* Field-level speculation state: edges are recorded per (row, field) so
   that transactions touching disjoint fields of a hot row (Payment's
   d_ytd vs NewOrder's d_next_o_id) never cascade into each other. *)
let fstate row =
  if Array.length row.Row.fstate = 0 then
    row.Row.fstate <- Array.make (Array.length row.Row.data) (-1, [], []);
  row.Row.fstate

let add_edge rt b = if b >= 0 && b <> rt.bidx then Vec.push rt.deps_on b

(* Reading field [f]: depend on its last in-batch writer and on every
   pending commutative adder (their deltas are visible in the value), and
   register as a reader (future anti-dependency). *)
let record_read rt row f =
  if row.Row.inserter >= 0 then add_edge rt row.Row.inserter;
  let st = fstate row in
  let w, rs, ads = st.(f) in
  add_edge rt w;
  List.iter (add_edge rt) ads;
  st.(f) <- (w, rt.bidx :: rs, ads)

(* Writing field [f]: depend on the previous writer and adders (so undo
   chains revert in order) and on every reader since (anti-dep). *)
let record_write rt row f =
  if row.Row.inserter >= 0 then add_edge rt row.Row.inserter;
  let st = fstate row in
  let w, rs, ads = st.(f) in
  add_edge rt w;
  List.iter (add_edge rt) rs;
  List.iter (add_edge rt) ads;
  st.(f) <- (rt.bidx, [], [])

(* Commutative add on field [f]: other adds commute (no edges between
   them), but the previous set-writer's undo would clobber us, and prior
   readers must drag us along if they re-execute. *)
let record_add rt row f =
  if row.Row.inserter >= 0 then add_edge rt row.Row.inserter;
  let st = fstate row in
  let w, rs, ads = st.(f) in
  add_edge rt w;
  List.iter (add_edge rt) rs;
  st.(f) <- (w, rs, rt.bidx :: ads)

let make_exec_ctx sh st =
  let costs = sh.cfg.costs in
  let speculative = sh.cfg.mode = Speculative in
  let read (frag : Fragment.t) field =
    Sim.tick sh.sim costs.Costs.row_read;
    if not st.cur_found then 0
    else begin
      let row = st.cur_row in
      match (sh.cfg.isolation, frag.Fragment.mode) with
      | Read_committed, Fragment.Read -> row.Row.committed.(field)
      | _ ->
          if speculative then record_read st.cur_rt row field;
          row.Row.data.(field)
    end
  in
  let write (frag : Fragment.t) field v =
    Sim.tick sh.sim costs.Costs.row_write;
    if st.cur_found then begin
      let row = st.cur_row in
      let rt = st.cur_rt in
      if speculative then begin
        record_write rt row field;
        row.Row.undo <-
          (rt.bidx, field, Row.Uset row.Row.data.(field)) :: row.Row.undo
      end;
      mark_touched sh st.eid frag.Fragment.table row;
      row.Row.data.(field) <- v
    end
  in
  let add (frag : Fragment.t) field d =
    Sim.tick sh.sim costs.Costs.row_write;
    if st.cur_found then begin
      let row = st.cur_row in
      let rt = st.cur_rt in
      if speculative then begin
        record_add rt row field;
        row.Row.undo <- (rt.bidx, field, Row.Uadd d) :: row.Row.undo
      end;
      mark_touched sh st.eid frag.Fragment.table row;
      row.Row.data.(field) <- row.Row.data.(field) + d
    end
  in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sh.sim costs.Costs.index_insert;
    let rt = st.cur_rt in
    let tbl = Db.table sh.db frag.Fragment.table in
    let home = Db.home sh.db frag.Fragment.table frag.Fragment.key in
    let row = Table.insert tbl ~home ~key payload in
    if speculative then begin
      row.Row.batch_tag <- sh.batch_no;
      row.Row.inserter <- rt.bidx;
      rt.inserts <- (frag.Fragment.table, key) :: rt.inserts
    end;
    if not row.Row.dirty then begin
      row.Row.dirty <- true;
      Vec.push sh.touched.(st.eid) (frag.Fragment.table, row)
    end
  in
  let input fid =
    Sim.tick sh.sim costs.Costs.cas;
    let rt = st.cur_rt in
    if Array.length rt.slots = 0 then 0 else Sim.Ivar.read sh.sim rt.slots.(fid)
  in
  let output fid v =
    let rt = st.cur_rt in
    if Array.length rt.slots > 0 && not (Sim.Ivar.is_full rt.slots.(fid)) then
      Sim.Ivar.fill sh.sim rt.slots.(fid) v
  in
  let found _frag = st.cur_found in
  { Exec.read; write; add; insert; input; output; found }

(* Executor context, with conflict-detector interposition when a
   recorder is active.  Read-committed reads are flagged so the checker
   exempts them from ordering rules, exactly as planning exempts them
   from steal signatures. *)
let make_ctx sh st =
  let ctx = make_exec_ctx sh st in
  match sh.recorder with
  | None -> ctx
  | Some log ->
      Alog.wrap_exec_ctx log
        ~rc_read:(fun (f : Fragment.t) ->
          sh.cfg.isolation = Read_committed
          && f.Fragment.mode = Fragment.Read)
        ctx

(* Lazily reset per-batch row state the first time a row is seen.  Rows
   touched in the previous batch were reset at publish time, so this only
   matters for correctness of [last_writer] tags across batches. *)
let locate sh (frag : Fragment.t) =
  let tbl = Db.table sh.db frag.Fragment.table in
  match Table.find tbl frag.Fragment.key with
  | Some row ->
      Row.reset_batch_state row sh.batch_no;
      Some row
  | None -> None

let exec_entry sh st ctx { rt; frag } =
  let costs = sh.cfg.costs in
  Sim.tick sh.sim costs.Costs.queue_op;
  if rt.txn.Txn.status = Txn.Aborted then
    Sim.tick sh.sim costs.Costs.abort_cleanup
  else begin
    (* Conservative execution: a fragment that updates the database while
       a sibling may still abort waits for the commit-dependency gate. *)
    if
      sh.cfg.mode = Conservative
      && frag.Fragment.commit_dep
      && not (Sim.Ivar.is_full rt.resolved)
    then Sim.Ivar.read sh.sim rt.resolved;
    if rt.txn.Txn.status = Txn.Aborted then
      Sim.tick sh.sim costs.Costs.abort_cleanup
    else begin
      st.cur_rt <- rt;
      (match frag.Fragment.mode with
      | Fragment.Insert ->
          st.cur_row <- dummy_row;
          st.cur_found <- true
      | Fragment.Read | Fragment.Write | Fragment.Rmw -> (
          Sim.tick sh.sim costs.Costs.index_probe;
          match locate sh frag with
          | Some row ->
              st.cur_row <- row;
              st.cur_found <- true
          | None ->
              st.cur_row <- dummy_row;
              st.cur_found <- false));
      Sim.tick sh.sim costs.Costs.logic;
      match sh.wl.Workload.exec ctx rt.txn frag with
      | Exec.Ok -> if frag.Fragment.abortable then resolve_arrive sh rt
      | Exec.Abort ->
          assert frag.Fragment.abortable;
          do_abort sh rt
      | Exec.Blocked -> assert false
    end
  end

(* ------------------------------------------------------------------ *)
(* Queue draining and work stealing                                    *)
(* ------------------------------------------------------------------ *)

(* A steal of queue [cand] from victim [v] is safe iff its key signature
   is disjoint from every other not-yet-finished queue of [v]: then no
   record of [cand] can appear in any queue still in flight on [v]'s
   core, so per-record FIFO order is preserved even though [v] proceeds
   past the stolen priority.  (Queues of other executors never share
   records: home-partition routing pins a record to one executor, and
   round-robined read-committed reads are excluded from signatures
   because they only read committed state.) *)
let steal_safe sh parity v cand =
  let ok = ref true in
  for p' = 0 to sh.cfg.planners - 1 do
    if
      p' <> cand
      && sh.qstate.(parity).(p').(v) <> 2
      && not
           (sig_disjoint sh.qsig.(parity).(cand).(v)
              sh.qsig.(parity).(p').(v))
    then ok := false
  done;
  !ok

(* Pick a queue for an idle executor to steal: the victim with the most
   unclaimed work, then its tail-most (lowest-priority) unclaimed queue
   that passes the disjointness check.  Runs without any Sim call, so
   the find + claim pair is atomic under the cooperative scheduler; the
   caller charges [Costs.steal_scan] per candidate examined (counted in
   [scanned]) after claiming. *)
let find_steal sh ~parity ~thief ~scanned =
  let pn = sh.cfg.planners and en = sh.cfg.executors in
  let qs = sh.queues.(parity) and qstate = sh.qstate.(parity) in
  let load = Array.make en 0 in
  for v = 0 to en - 1 do
    if v <> thief then
      for p = 0 to pn - 1 do
        if qstate.(p).(v) = 0 then
          load.(v) <- load.(v) + Vec.length qs.(p).(v)
      done
  done;
  let found = ref None in
  let more = ref true in
  while !more do
    let v = ref (-1) in
    for u = 0 to en - 1 do
      if load.(u) > 0 && (!v < 0 || load.(u) > load.(!v)) then v := u
    done;
    if !v < 0 then more := false
    else begin
      let v = !v in
      let p = ref (pn - 1) in
      while !found = None && !p >= 0 do
        if qstate.(!p).(v) = 0 && Vec.length qs.(!p).(v) > 0 then begin
          incr scanned;
          if steal_safe sh parity v !p then found := Some (!p, v)
        end;
        decr p
      done;
      if !found <> None then more := false else load.(v) <- 0
    end
  done;
  !found

(* Chain-segment execution.  The home executor fills every segment-0
   start ivar for chains homed at (p, e) when it reaches priority p
   (before draining its own queue), and joins the chains it owns after
   its own queue.  Segments assigned to executor [e] run on a per-batch
   helper thread spawned next to the drain loop, so a hot-key chain
   overlaps with every executor's own-queue work instead of queueing
   behind it (the chain is a serial dependency either way; the helper
   keeps it off the executors' critical path).  Segment entries never
   block — splitting is restricted to dependency-free, non-abortable
   plain row ops — so the only waits are the sg_prev ivars, and those
   cannot cycle: each helper processes its segments in the global
   (prio, home, key, idx) order, making the minimal unfinished segment
   always runnable. *)
let chain_begin sh ~parity p e =
  if sh.chain_starts <> [||] then
    Vec.iter
      (fun iv -> if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sh.sim iv ())
      sh.chain_starts.(parity).(p).(e)

(* Drain queue [q] as executor [st.eid], stamping each entry's queue
   slot when a recorder is attached. *)
let drain_with sh st ctx ~owner ~subseq p q =
  match sh.recorder with
  | None -> Vec.iter (exec_entry sh st ctx) q
  | Some log ->
      Vec.iteri
        (fun i entry ->
          Alog.set_slot log ~thread:st.eid ~owner ~prio:p ~subseq ~pos:i
            ~batch:sh.batch_no;
          exec_entry sh st ctx entry)
        q

(* Helper thread running executor [e]'s assigned chain segments for one
   batch.  The work list is snapshotted at spawn (the plan phase reuses
   the parity-indexed rows two batches later) and the helper gets its
   own exec state/ctx — [exec_state] scratch spans Sim.tick points, so
   it cannot be shared with the concurrently draining executor. *)
let spawn_segment_runner sh e ~parity =
  if sh.segs <> [||] then begin
    let work = Vec.create () in
    for p = 0 to sh.cfg.planners - 1 do
      Vec.iter (fun sg -> Vec.push work (p, sg)) sh.segs.(parity).(p).(e)
    done;
    if Vec.length work > 0 then
      Sim.spawn ~at:(Sim.now sh.sim) sh.sim (fun () ->
          Sim.set_phase sh.sim Sim.Ph_execute;
          let st =
            { eid = e; cur_rt = dummy_rt; cur_row = dummy_row;
              cur_found = false }
          in
          let ctx = make_ctx sh st in
          Vec.iter
            (fun (p, sg) ->
              Sim.Ivar.read sh.sim sg.sg_prev;
              Sim.tick sh.sim sh.cfg.costs.Costs.queue_op;
              drain_with sh st ctx ~owner:sg.sg_home ~subseq:sg.sg_idx p
                sg.sg_entries;
              Sim.Ivar.fill sh.sim sg.sg_done ())
            work)
  end

let chain_join sh ~parity p e =
  sh.chain_joins <> [||]
  && Vec.length sh.chain_joins.(parity).(p).(e) > 0
  && begin
       Vec.iter
         (fun iv -> Sim.Ivar.read sh.sim iv)
         sh.chain_joins.(parity).(p).(e);
       true
     end

(* Execute every queue destined for executor [st.eid] in priority order.
   Without [cfg.steal] this is the oracle drain loop; with it, queues
   are claimed (so a peer can steal ahead of a slow owner) and an
   executor that runs dry turns thief. *)
let drain_queues sh st ctx ~parity =
  let e = st.eid in
  (* [owner] is the executor the queue was planned for; with a recorder
     active each entry is stamped with its queue slot so the conflict
     checker can replay priority order ([owner <> e] marks a steal;
     [subseq >= 0] marks a chain segment). *)
  let drain = drain_with sh st ctx in
  spawn_segment_runner sh e ~parity;
  if not sh.cfg.steal then
    for p = 0 to sh.cfg.planners - 1 do
      chain_begin sh ~parity p e;
      drain ~owner:e ~subseq:(-1) p sh.queues.(parity).(p).(e);
      ignore (chain_join sh ~parity p e)
    done
  else begin
    let qstate = sh.qstate.(parity) in
    (* One completion unit retired; the last one makes the cell
       steal-done.  No Sim call between decrement and flip, so it is
       atomic under the cooperative scheduler. *)
    let finish p v =
      sh.qpend.(parity).(p).(v) <- sh.qpend.(parity).(p).(v) - 1;
      if sh.qpend.(parity).(p).(v) = 0 then qstate.(p).(v) <- 2
    in
    for p = 0 to sh.cfg.planners - 1 do
      chain_begin sh ~parity p e;
      if qstate.(p).(e) = 0 then begin
        qstate.(p).(e) <- 1;
        drain ~owner:e ~subseq:(-1) p sh.queues.(parity).(p).(e);
        finish p e
      end;
      if chain_join sh ~parity p e then finish p e
    done;
    let m = sh.metrics in
    let costs = sh.cfg.costs in
    let more = ref true in
    while !more do
      let scanned = ref 0 in
      m.Metrics.steal_attempts <- m.Metrics.steal_attempts + 1;
      match find_steal sh ~parity ~thief:e ~scanned with
      | None ->
          m.Metrics.steal_rejects <- m.Metrics.steal_rejects + 1;
          if !scanned > 0 then
            Sim.tick sh.sim (!scanned * costs.Costs.steal_scan);
          more := false
      | Some (p, v) ->
          qstate.(p).(v) <- 1;
          m.Metrics.stolen_queues <- m.Metrics.stolen_queues + 1;
          Sim.tick sh.sim
            ((!scanned * costs.Costs.steal_scan) + costs.Costs.queue_op);
          drain ~owner:v ~subseq:(-1) p sh.queues.(parity).(p).(v);
          finish p v
    done
  end

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* Order fragments for queue insertion: dependency-free abortable
   fragments go first so that, in conservative mode, an executor blocked
   on a commit-dependency gate can never be queued ahead of the abort
   decision it waits for (the deadlock-freedom argument in DESIGN.md). *)
let plan_order frags =
  let n = Array.length frags in
  if n = 0 then frags
  else begin
  let ordered = Array.make n frags.(0) in
  let i = ref 0 in
  Array.iter
    (fun (f : Fragment.t) ->
      if f.Fragment.abortable && Array.length f.Fragment.data_deps = 0 then begin
        ordered.(!i) <- f;
        incr i
      end)
    frags;
  Array.iter
    (fun (f : Fragment.t) ->
      if not (f.Fragment.abortable && Array.length f.Fragment.data_deps = 0)
      then begin
        ordered.(!i) <- f;
        incr i
      end)
    frags;
  ordered
  end

let plan_order_for_dist = plan_order

let slice_bounds ~batch_size ~planners p =
  let base = batch_size / planners and rem = batch_size mod planners in
  let start = (p * base) + min p rem in
  let count = base + if p < rem then 1 else 0 in
  (start, count)

(* A fragment may enter a hot-key chain only if it can never block a
   foreign executor: no abortable sibling (so no commit gate and no
   abort path), no data-dependency slots anywhere in its transaction,
   plain row op, and not an early fragment (those must keep their
   front-of-queue position). *)
let seg_exec sh home i =
  let en = sh.cfg.executors in
  (home + 1 + (i mod (en - 1))) mod en

(* Plan the [count] transactions at [start..start+count-1] of the batch,
   fetched one at a time via [get] (closed-loop: the workload stream;
   client mode: the entries drained from the admission queue).  [bno] is
   the batch number being planned — under repartitioning it selects the
   routing-map parity, which in the pipelined path differs from
   [sh.batch_no] (the batch still executing). *)
let plan_txns sh ~parity ~bno p ~start ~count ~get rr =
  let costs = sh.cfg.costs in
  let en = sh.cfg.executors in
  let m = sh.metrics in
  let queues = sh.queues.(parity).(p) in
  Array.iter Vec.clear queues;
  if sh.cfg.steal then begin
    Array.iter Hashtbl.reset sh.qsig.(parity).(p);
    Array.fill sh.qstate.(parity).(p) 0 en 0
  end;
  if sh.segs <> [||] then
    for e = 0 to en - 1 do
      Vec.clear sh.chain_starts.(parity).(p).(e);
      Vec.clear sh.chain_joins.(parity).(p).(e);
      Vec.clear sh.segs.(parity).(p).(e)
    done;
  let split_en =
    match sh.cfg.split with Some sc when en > 1 -> Some sc | _ -> None
  in
  let repart =
    match sh.cfg.adapt with
    | Some a when a.repartition && Array.length sh.rmap > 0 -> Some a
    | _ -> None
  in
  let bpar = bno land 1 in
  let is_rc (f : Fragment.t) =
    sh.cfg.isolation = Read_committed && f.Fragment.mode = Fragment.Read
  in
  (* Home-executor routing: the base modulo map, refined through the
     virtual-partition map when repartitioning is on.  Also feeds the
     per-vpart load counters the next rebalance consumes. *)
  let route_exec t k =
    match repart with
    | Some a ->
        let vp = ((Db.home sh.db t k mod en) * a.spread) + (k mod a.spread) in
        sh.vload.(bpar).(vp) <- sh.vload.(bpar).(vp) + 1;
        sh.rmap.(bpar).(vp)
    | None -> Db.home sh.db t k mod en
  in
  (* Pass 1 (splitting only): materialize the slice and count per-key
     routed operations, so pass 2 knows which keys are hot before the
     first fragment is enqueued.  No Sim call happens here; all virtual
     time is charged in pass 2, so the cost model is unchanged. *)
  let slice =
    if count = 0 then [||]
    else begin
      let first = get 0 in
      let a = Array.make count first in
      for j = 1 to count - 1 do
        a.(j) <- get j
      done;
      a
    end
  in
  let franks =
    Array.map (fun ((txn : Txn.t), _) -> plan_order txn.Txn.frags) slice
  in
  let counts : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
  (match split_en with
  | None -> ()
  | Some _ ->
      Array.iteri
        (fun j ((txn : Txn.t), _) ->
          let pure =
            txn.Txn.n_abortable = 0
            && Array.for_all
                 (fun (g : Fragment.t) ->
                   Array.length g.Fragment.data_deps = 0)
                 txn.Txn.frags
          in
          Array.iter
            (fun (f : Fragment.t) ->
              if not (is_rc f) then begin
                let sk = sig_key f.Fragment.table f.Fragment.key in
                let ok =
                  pure
                  && (match f.Fragment.mode with
                     | Fragment.Insert -> false
                     | Fragment.Read | Fragment.Write | Fragment.Rmw -> true)
                  && not f.Fragment.early
                in
                match Hashtbl.find_opt counts sk with
                | Some (c, clean) ->
                    Hashtbl.replace counts sk (c + 1, clean && ok)
                | None -> Hashtbl.add counts sk (1, ok)
              end)
            franks.(j))
        slice);
  (* Chains open lazily at the first routed occurrence of a hot key, so
     creation order follows slice order (deterministic), never hash
     order.  [new_chains] remembers them for join registration. *)
  let chain_tbl : (int, chain) Hashtbl.t = Hashtbl.create 8 in
  let new_chains : chain Vec.t = Vec.create () in
  let chain_for sk home =
    match split_en with
    | None -> None
    | Some sc -> (
        match Hashtbl.find_opt chain_tbl sk with
        | Some ch -> Some ch
        | None -> (
            match Hashtbl.find_opt counts sk with
            | Some (c, true) when c >= sc.hot_threshold ->
                let nsegs =
                  min sc.max_subqueues (max 2 (c / sc.hot_threshold))
                in
                let seg_len = (c + nsegs - 1) / nsegs in
                let start = Sim.Ivar.create () in
                Vec.push sh.chain_starts.(parity).(p).(home) start;
                let seg0 =
                  {
                    sg_home = home;
                    sg_key = sk;
                    sg_idx = 0;
                    sg_entries = Vec.create ();
                    sg_prev = start;
                    sg_done = Sim.Ivar.create ();
                  }
                in
                Vec.push sh.segs.(parity).(p).(seg_exec sh home 0) seg0;
                let ch =
                  {
                    ch_home = home;
                    ch_key = sk;
                    ch_seg_len = seg_len;
                    ch_max_segs = nsegs;
                    ch_last = seg0;
                    ch_nsegs = 1;
                  }
                in
                Hashtbl.add chain_tbl sk ch;
                Vec.push new_chains ch;
                m.Metrics.split_keys <- m.Metrics.split_keys + 1;
                m.Metrics.split_subqueues <- m.Metrics.split_subqueues + 1;
                Some ch
            | _ -> None))
  in
  let chain_push ch entry =
    if
      Vec.length ch.ch_last.sg_entries >= ch.ch_seg_len
      && ch.ch_nsegs < ch.ch_max_segs
    then begin
      let seg =
        {
          sg_home = ch.ch_home;
          sg_key = ch.ch_key;
          sg_idx = ch.ch_nsegs;
          sg_entries = Vec.create ();
          sg_prev = ch.ch_last.sg_done;
          sg_done = Sim.Ivar.create ();
        }
      in
      Vec.push sh.segs.(parity).(p).(seg_exec sh ch.ch_home ch.ch_nsegs) seg;
      ch.ch_nsegs <- ch.ch_nsegs + 1;
      ch.ch_last <- seg;
      m.Metrics.split_subqueues <- m.Metrics.split_subqueues + 1
    end;
    Vec.push ch.ch_last.sg_entries entry
  in
  (* Early (read-only, never-written-table) abortable fragments go to the
     head of their queues so abort decisions resolve before the gated
     updates arrive. *)
  let front = Array.init en (fun _ -> Vec.create ()) in
  (* Pass 2: the original planning loop, now with hot keys diverted into
     chain segments. *)
  for j = 0 to count - 1 do
    Sim.tick sh.sim costs.Costs.txn_overhead;
    let txn, entry = slice.(j) in
    txn.Txn.submit_time <- Sim.now sh.sim;
    txn.Txn.attempts <- txn.Txn.attempts + 1;
    let rt = make_rt ?entry txn (start + j) in
    sh.rts.(parity).(start + j) <- Some rt;
    Array.iter
      (fun (f : Fragment.t) ->
        Sim.tick sh.sim costs.Costs.plan_fragment;
        let rc_read = is_rc f in
        let e =
          if rc_read then begin
            (* Read-committed reads are safe on any core: spread them. *)
            rr := (!rr + 1) mod en;
            !rr
          end
          else route_exec f.Fragment.table f.Fragment.key
        in
        let sk = sig_key f.Fragment.table f.Fragment.key in
        (* RC reads stay out of the signature: they only read committed
           state, so they commute with any steal.  Split keys stay IN:
           the home queue's signature must keep protecting the key's
           cross-priority order while its chain is in flight. *)
        if sh.cfg.steal && not rc_read then
          Hashtbl.replace sh.qsig.(parity).(p).(e) sk ();
        let in_chain =
          (not rc_read)
          &&
          match chain_for sk e with
          | Some ch ->
              chain_push ch { rt; frag = f };
              true
          | None -> false
        in
        if not in_chain then
          if f.Fragment.early && Array.length f.Fragment.data_deps = 0 then
            Vec.push front.(e) { rt; frag = f }
          else Vec.push queues.(e) { rt; frag = f })
      franks.(j)
  done;
  Array.iteri
    (fun e fv ->
      if not (Vec.is_empty fv) then begin
        let main = Vec.to_array queues.(e) in
        Vec.clear queues.(e);
        Vec.iter (fun x -> Vec.push queues.(e) x) fv;
        Array.iter (fun x -> Vec.push queues.(e) x) main
      end)
    front;
  if sh.segs <> [||] then begin
    (* Register chain joins with the home executors and put every
       executor's assigned segments in the global (home, key, idx) order
       the deadlock-freedom argument needs. *)
    Vec.iter
      (fun ch ->
        Vec.push sh.chain_joins.(parity).(p).(ch.ch_home) ch.ch_last.sg_done)
      new_chains;
    for e = 0 to en - 1 do
      Vec.sort
        (fun a b ->
          compare (a.sg_home, a.sg_key, a.sg_idx)
            (b.sg_home, b.sg_key, b.sg_idx))
        sh.segs.(parity).(p).(e)
    done
  end;
  if sh.cfg.steal then
    (* Completion units per queue cell: the drain itself, plus one if
       chain joins are homed there (see [drain_queues]). *)
    for e = 0 to en - 1 do
      sh.qpend.(parity).(p).(e) <-
        (if
           sh.chain_joins <> [||]
           && Vec.length sh.chain_joins.(parity).(p).(e) > 0
         then 2
         else 1)
    done

let plan_slice sh ~parity ~bno ?size p stream rr =
  let batch_size = match size with Some s -> s | None -> sh.cfg.batch_size in
  let start, count =
    slice_bounds ~batch_size ~planners:sh.cfg.planners p
  in
  plan_txns sh ~parity ~bno p ~start ~count
    ~get:(fun _ -> (stream (), None))
    rr

(* Client mode: the batch is whatever [drain] returned at batch-close, so
   its size varies; planners split it the same way they split a fixed
   batch.  A planner whose slice is empty still clears its queues. *)
let plan_slice_clients sh ~parity ~bno p entries rr =
  let start, count =
    slice_bounds ~batch_size:(Array.length entries)
      ~planners:sh.cfg.planners p
  in
  plan_txns sh ~parity ~bno p ~start ~count
    ~get:(fun j ->
      let e = entries.(start + j) in
      (e.Clients.txn, Some e))
    rr

(* ------------------------------------------------------------------ *)
(* Speculative recovery: cascade closure, undo, serial re-execution     *)
(* ------------------------------------------------------------------ *)

let serial_ctx sh recovery_slot undo_log insert_log slots cur_row cur_found =
  let costs = sh.cfg.costs in
  let read (frag : Fragment.t) field =
    Sim.tick sh.sim costs.Costs.row_read;
    if not !cur_found then 0
    else
      match (sh.cfg.isolation, frag.Fragment.mode) with
      | Read_committed, Fragment.Read -> (!cur_row).Row.committed.(field)
      | _ -> (!cur_row).Row.data.(field)
  in
  let write (frag : Fragment.t) field v =
    Sim.tick sh.sim costs.Costs.row_write;
    if !cur_found then begin
      let row = !cur_row in
      undo_log := (row, Array.copy row.Row.data) :: !undo_log;
      mark_touched sh recovery_slot frag.Fragment.table row;
      row.Row.data.(field) <- v
    end
  in
  let add (frag : Fragment.t) field d =
    Sim.tick sh.sim costs.Costs.row_write;
    if !cur_found then begin
      let row = !cur_row in
      undo_log := (row, Array.copy row.Row.data) :: !undo_log;
      mark_touched sh recovery_slot frag.Fragment.table row;
      row.Row.data.(field) <- row.Row.data.(field) + d
    end
  in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick sh.sim costs.Costs.index_insert;
    let tbl = Db.table sh.db frag.Fragment.table in
    let home = Db.home sh.db frag.Fragment.table frag.Fragment.key in
    let row = Table.insert tbl ~home ~key payload in
    (* Recovery-pass inserts must land in the touched set too: the WAL
       write set is emitted from it, and a replay that misses an insert
       diverges from the fault-free run. *)
    mark_touched sh recovery_slot frag.Fragment.table row;
    insert_log := (frag.Fragment.table, key) :: !insert_log
  in
  let input fid = slots.(fid) in
  let output fid v = slots.(fid) <- v in
  let found _ = !cur_found in
  { Exec.read; write; add; insert; input; output; found }

let reexec_txn sh recovery_slot rt =
  let costs = sh.cfg.costs in
  let undo_log = ref [] and insert_log = ref [] in
  let slots = Array.make (Array.length rt.txn.Txn.frags) 0 in
  let cur_row = ref dummy_row and cur_found = ref false in
  let ctx = serial_ctx sh recovery_slot undo_log insert_log slots cur_row
              cur_found
  in
  rt.txn.Txn.attempts <- rt.txn.Txn.attempts + 1;
  let outcome =
    let frags = rt.txn.Txn.frags in
    let rec go i =
      if i >= Array.length frags then Exec.Ok
      else begin
        let frag = frags.(i) in
        (match frag.Fragment.mode with
        | Fragment.Insert ->
            cur_row := dummy_row;
            cur_found := true
        | Fragment.Read | Fragment.Write | Fragment.Rmw -> (
            Sim.tick sh.sim costs.Costs.index_probe;
            match locate sh frag with
            | Some row ->
                cur_row := row;
                cur_found := true
            | None ->
                cur_row := dummy_row;
                cur_found := false));
        Sim.tick sh.sim costs.Costs.logic;
        match sh.wl.Workload.exec ctx rt.txn frag with
        | Exec.Ok -> go (i + 1)
        | Exec.Abort -> Exec.Abort
        | Exec.Blocked -> assert false
      end
    in
    go 0
  in
  match outcome with
  | Exec.Ok -> rt.txn.Txn.status <- Txn.Committed
  | Exec.Abort | Exec.Blocked ->
      (* Roll back this attempt's own effects. *)
      List.iter
        (fun (row, saved) ->
          Sim.tick sh.sim costs.Costs.abort_cleanup;
          Row.restore row saved)
        !undo_log;
      List.iter
        (fun (tid, key) -> Table.remove (Db.table sh.db tid) key)
        !insert_log;
      rt.txn.Txn.status <- Txn.Aborted

let recover sh ~parity =
  let rts = sh.rts.(parity) in
  let n = sh.cfg.batch_size in
  let in_a = Array.make n false in
  let any = ref false in
  for b = 0 to n - 1 do
    match rts.(b) with
    | None -> ()
    | Some rt ->
        if rt.logic_abort then begin
          in_a.(b) <- true;
          any := true
        end
        else if Vec.exists (fun d -> in_a.(d)) rt.deps_on then begin
          in_a.(b) <- true;
          any := true
        end
  done;
  if !any then begin
    let costs = sh.cfg.costs in
    (* Undo: walk each affected row's log newest-first, reverting the
       field writes of cascaded transactions.  Per-field WAW edges
       guarantee that any later writer of the same field is cascaded
       too, so reverting in reverse chronological order is exact. *)
    Array.iter
      (fun touched ->
        Vec.iter
          (fun (_, row) ->
            if row.Row.undo <> [] then begin
              let kept =
                List.filter
                  (fun (b, field, uop) ->
                    if in_a.(b) then begin
                      Sim.tick sh.sim costs.Costs.abort_cleanup;
                      (match uop with
                      | Row.Uset old -> row.Row.data.(field) <- old
                      | Row.Uadd d ->
                          row.Row.data.(field) <- row.Row.data.(field) - d);
                      false
                    end
                    else true)
                  row.Row.undo
              in
              row.Row.undo <- kept
            end)
          touched)
      sh.touched;
    (* Remove inserts made by cascaded transactions. *)
    for b = 0 to n - 1 do
      if in_a.(b) then
        match rts.(b) with
        | None -> ()
        | Some rt ->
            List.iter
              (fun (tid, key) ->
                Sim.tick sh.sim costs.Costs.abort_cleanup;
                Table.remove (Db.table sh.db tid) key)
              rt.inserts;
            rt.inserts <- []
    done;
    (* Serial deterministic re-execution in batch order. *)
    let recovery_slot = sh.cfg.executors in
    for b = 0 to n - 1 do
      if in_a.(b) then
        match rts.(b) with
        | None -> ()
        | Some rt ->
            sh.metrics.Metrics.cascades <- sh.metrics.Metrics.cascades + 1;
            reexec_txn sh recovery_slot rt
    done
  end;
  (* Finalize statuses. *)
  for b = 0 to n - 1 do
    match rts.(b) with
    | None -> ()
    | Some rt ->
        if rt.txn.Txn.status = Txn.Active then rt.txn.Txn.status <- Txn.Committed
  done

(* Conservative mode: every surviving transaction commits. *)
let finalize_statuses sh ~parity =
  for i = 0 to sh.cfg.batch_size - 1 do
    match sh.rts.(parity).(i) with
    | Some rt when rt.txn.Txn.status = Txn.Active ->
        rt.txn.Txn.status <- Txn.Committed
    | Some _ | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Between-batch adaptation                                            *)
(* ------------------------------------------------------------------ *)

(* Rebalance the virtual-partition map from the load the planners of
   batch [bno] measured: longest-processing-time-first over the loaded
   vparts, heaviest to the least-loaded executor.  Runs on one thread
   during the recover phase of batch [bno]; it rewrites the parity-[bno]
   map, which the planners of batch [bno + 2] are the next to read, so
   the rewrite can never race a planner (batch [bno + 1] planning uses
   the other parity).  Zero-load vparts keep their mapping. *)
let rebalance sh ~bno =
  match sh.cfg.adapt with
  | Some a when a.repartition && Array.length sh.rmap > 0 ->
      let par = bno land 1 in
      let load = sh.vload.(par) and map = sh.rmap.(par) in
      let nvp = Array.length map in
      let idx = Array.init nvp (fun i -> i) in
      Array.sort
        (fun i j ->
          let c = compare load.(j) load.(i) in
          if c <> 0 then c else compare i j)
        idx;
      let eload = Array.make sh.cfg.executors 0 in
      let moves = ref 0 in
      Array.iter
        (fun vp ->
          if load.(vp) > 0 then begin
            let best = ref 0 in
            for e = 1 to sh.cfg.executors - 1 do
              if eload.(e) < eload.(!best) then best := e
            done;
            Sim.tick sh.sim sh.cfg.costs.Costs.queue_op;
            if map.(vp) <> !best then begin
              incr moves;
              map.(vp) <- !best
            end;
            eload.(!best) <- eload.(!best) + load.(vp)
          end)
        idx;
      Array.fill load 0 nvp 0;
      sh.metrics.Metrics.repart_moves <-
        sh.metrics.Metrics.repart_moves + !moves
  | _ -> ()

(* Pick the size of the next planned batch from the stall split since
   the last decision: fill stalls (executors starved) say planning is
   the bottleneck — grow the batch; drain stalls (planners blocked on a
   busy buffer) say execution is — shrink it.  25% steps, clamped to
   [adapt.min_batch, cfg.batch_size]; the run's total transaction
   budget is conserved exactly. *)
let next_batch_size sh abs =
  let m = sh.metrics in
  let df = m.Metrics.pipe_fill_stall - abs.abs_last_fill
  and dd = m.Metrics.pipe_drain_stall - abs.abs_last_drain in
  abs.abs_last_fill <- m.Metrics.pipe_fill_stall;
  abs.abs_last_drain <- m.Metrics.pipe_drain_stall;
  let min_b =
    match sh.cfg.adapt with
    | Some a -> min a.min_batch sh.cfg.batch_size
    | None -> 1
  in
  let old = abs.abs_cur in
  if df > dd then abs.abs_cur <- min sh.cfg.batch_size (old + max 1 (old / 4))
  else if dd > df then abs.abs_cur <- max min_b (old - max 1 (old / 4));
  if abs.abs_cur <> old then
    m.Metrics.batch_resizes <- m.Metrics.batch_resizes + 1;
  let sz = min abs.abs_cur abs.abs_remaining in
  abs.abs_remaining <- abs.abs_remaining - sz;
  sz

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let publish_slot sh slot =
  Vec.iter
    (fun (_, row) ->
      Row.publish row;
      row.Row.undo <- [];
      row.Row.fstate <- [||];
      row.Row.inserter <- -1)
    sh.touched.(slot);
  Vec.clear sh.touched.(slot)

let account ?clients sh ~parity =
  let now = Sim.now sh.sim in
  let rts = sh.rts.(parity) in
  for b = 0 to sh.cfg.batch_size - 1 do
    match rts.(b) with
    | None -> ()
    | Some rt ->
        rt.txn.Txn.finish_time <- now;
        let m = sh.metrics in
        (match rt.txn.Txn.status with
        | Txn.Committed -> m.Metrics.committed <- m.Metrics.committed + 1
        | Txn.Aborted -> m.Metrics.logic_aborted <- m.Metrics.logic_aborted + 1
        | Txn.Active | Txn.Pending -> assert false);
        Stats.Hist.add m.Metrics.lat (now - rt.txn.Txn.submit_time);
        (match (clients, rt.entry) with
        | Some c, Some e ->
            Clients.complete c e ~ok:(rt.txn.Txn.status = Txn.Committed)
        | _ -> ());
        rts.(b) <- None
  done;
  sh.metrics.Metrics.batches <- sh.metrics.Metrics.batches + 1

(* ------------------------------------------------------------------ *)
(* Durability: group-commit WAL and crash recovery                     *)
(* ------------------------------------------------------------------ *)

(* The commit seam: one walk over the batch's write set feeds both the
   WAL group buffer and the CDC staging area.  Runs in the recover phase,
   after cascade recovery has settled every row but BEFORE publish clears
   the touched vectors and overwrites [committed]: a touched row's
   [data] at this point is exactly the image publish will install, so
   logging [data] now equals logging [committed] later, and each row
   yields exactly (pre-batch committed, post-batch data) for the feed.
   A row whose [inserter] is still set was inserted by this batch
   (publish resets the mark); one whose key no longer resolves was a
   rolled-back insert — skipped.  The hub dedupes rows touched from
   several executor slots.  The flush ([wal_flush]) and the feed seal
   ([cdc_seal]) happen after the publish barrier, so a snapshot roll
   images the fully published database. *)
let commit_emit sh ~bno =
  if sh.wal <> None || sh.cdc <> None then begin
    let emit tid tbl (r : Row.t) =
      let key = r.Row.key in
      (match sh.wal with
      | Some w ->
          Wal.log_effect w ~table:tid ~home:(Table.home_of_key tbl key) ~key
            r.Row.data
      | None -> ());
      match sh.cdc with
      | Some c ->
          if r.Row.inserter >= 0 then
            Cdc.stage_insert c ~table:tid ~key ~after:r.Row.data
          else
            Cdc.stage c ~table:tid ~key ~before:r.Row.committed
              ~after:r.Row.data
      | None -> ()
    in
    Option.iter (fun w -> Wal.begin_batch w ~batch_no:bno) sh.wal;
    Array.iter
      (fun touched ->
        Vec.iter
          (fun (tid, (row : Row.t)) ->
            let tbl = Db.table sh.db tid in
            let key = row.Row.key in
            (* a dense row always resolves to itself *)
            if key >= 0 && key < Table.capacity tbl then emit tid tbl row
            else
              match Table.find tbl key with
              | Some r -> emit tid tbl r
              | None -> ())
          touched)
      sh.touched
  end

(* Group commit: append the commit marker and flush the whole batch with
   one modeled fsync.  [txns] counts this batch's committed
   transactions, so the durable-transaction boundary equals the
   committed count at every durable batch.  Called with the batch
   published and every other thread parked short of the next batch's row
   accesses, so the snapshot [Db.image] inside cannot race a writer. *)
let wal_flush sh ~txns ~bno =
  match sh.wal with
  | None -> ()
  | Some w -> ignore (Wal.commit_batch w ~batch_no:bno ~txns)

(* Seal the batch's feed entry after the publish barrier (and after the
   WAL flush): the database is fully committed, so subscriber snapshot
   catch-up sees exactly the state the feed has reached. *)
let cdc_seal sh ~txns ~bno =
  match sh.cdc with
  | None -> ()
  | Some c -> Cdc.publish c ~batch_no:bno ~txns

let committed_in sh ~parity =
  let n = ref 0 in
  Array.iter
    (function
      | Some rt when rt.txn.Txn.status = Txn.Committed -> incr n
      | Some _ | None -> ())
    sh.rts.(parity);
  !n

(* The crash killed the node mid-batch: the in-flight batch was never
   flushed or accounted, so it is lost.  Model the reboot, rebuild the
   database from the newest snapshot plus the WAL (checksum-validated,
   truncating at the first damaged record), and reconcile the committed
   count to what the log proves durable — any batch acked before its
   group survived the disk (a failing or wedged fsync) is retracted
   here, which is exactly the lost-commit window the durability tests
   measure. *)
let crash_recover sh =
  let m = sh.metrics in
  m.Metrics.crashes <- m.Metrics.crashes + 1;
  (* the reboot cost is charged inside Wal.recover, with the replay *)
  match sh.wal with
  | None -> ()
  | Some w ->
      Wal.recover w sh.db;
      m.Metrics.committed <- Wal.durable_txns w

let crash_due sh =
  match sh.crash_at with
  | Some at -> (not sh.crashed) && Sim.now sh.sim >= at
  | None -> false

(* Copy the simulator's per-phase busy / per-cause idle attribution into
   the run's metrics. *)
let record_sim_breakdown m sim =
  Metrics.record_phases m
    ~plan:(Sim.busy_in sim Sim.Ph_plan)
    ~execute:(Sim.busy_in sim Sim.Ph_execute)
    ~recover:(Sim.busy_in sim Sim.Ph_recover)
    ~publish:(Sim.busy_in sim Sim.Ph_publish)
    ~other:(Sim.busy_in sim Sim.Ph_other);
  Metrics.record_idle m
    ~barrier:(Sim.idle_in sim Sim.Cause_barrier)
    ~ivar:(Sim.idle_in sim Sim.Cause_ivar)
    ~chan:(Sim.idle_in sim Sim.Cause_chan)
    ~sleep:(Sim.idle_in sim Sim.Cause_sleep)

(* Run [f] as engine phase [ph], emitting a span covering its virtual
   extent when tracing.  The span includes wait time inside the phase;
   busy attribution (Sim.busy_in) counts only ticks. *)
let in_phase sim ph tid f =
  Sim.set_phase sim ph;
  let t0 = Sim.now sim in
  f ();
  let tr = Sim.tracer sim in
  if Trace.enabled tr then
    Trace.span tr ~tid ~name:(Sim.phase_name ph) ~ts:t0
      ~dur:(Sim.now sim - t0) ();
  Sim.set_phase sim Sim.Ph_other

(* ------------------------------------------------------------------ *)
(* Lockstep execution (the oracle): plan | execute | recover | publish  *)
(* separated by full barriers, every batch.                             *)
(* ------------------------------------------------------------------ *)

let spawn_lockstep sim sh ?clients ~batches ~streams () =
  let cfg = sh.cfg in
  let nthreads = max cfg.planners cfg.executors in
  let barrier = Sim.Barrier.create nthreads in
  (* Client mode: thread 0 closes each batch by draining the admission
     queue; the resulting (variable-size) batch is shared through
     [pending].  [continue_] flips when the drain comes back empty —
     every client transaction is finally resolved, so no batch can ever
     form again.  All threads read it after the same barrier, keeping
     barrier counts uniform. *)
  let continue_ = ref true in
  let pending = ref [||] in
  for t = 0 to nthreads - 1 do
    Sim.spawn sim (fun () ->
        let st = { eid = t; cur_rt = dummy_rt; cur_row = dummy_row;
                   cur_found = false }
        in
        let ctx = make_ctx sh st in
        let rr = ref t in
        let tr = Sim.tracer sim in
        let queue_depth_counter () =
          if Trace.enabled tr then begin
            let depth = ref 0 in
            for p = 0 to cfg.planners - 1 do
              depth := !depth + Vec.length sh.queues.(0).(p).(t)
            done;
            Trace.counter tr ~tid:t ~name:"queue_depth"
              ~series:("exec" ^ string_of_int t) ~ts:(Sim.now sim)
              ~value:!depth
          end
        in
        let wal_txns = ref 0 in
        let run_batch plan_fn account_fn =
          if t < cfg.planners then in_phase sim Sim.Ph_plan t plan_fn;
          Sim.Barrier.await sim barrier;
          if t < cfg.executors then begin
            queue_depth_counter ();
            in_phase sim Sim.Ph_execute t (fun () ->
                drain_queues sh st ctx ~parity:0)
          end;
          Sim.Barrier.await sim barrier;
          if t = 0 then
            in_phase sim Sim.Ph_recover t (fun () ->
                (* The crash point: thread 0 reaches the batch commit
                   point past the crash time — the in-flight batch dies
                   (never logged, never accounted) and every thread
                   unwinds after the publish barrier. *)
                if crash_due sh then sh.crashed <- true
                else begin
                  if cfg.mode = Speculative then recover sh ~parity:0
                  else finalize_statuses sh ~parity:0;
                  commit_emit sh ~bno:sh.batch_no;
                  wal_txns := committed_in sh ~parity:0;
                  account_fn ();
                  rebalance sh ~bno:sh.batch_no
                end);
          Sim.Barrier.await sim barrier;
          if (not sh.crashed) && (t < cfg.executors || t = 0) then
            in_phase sim Sim.Ph_publish t (fun () ->
                if t < cfg.executors then publish_slot sh t;
                if t = 0 then publish_slot sh cfg.executors);
          Sim.Barrier.await sim barrier;
          (* Group-commit flush after the publish barrier so a snapshot
             roll images fully published state; the next batch's
             executors are held at the post-plan barrier until thread 0
             arrives, so the flush cannot race a row access. *)
          if t = 0 then
            if sh.crashed then
              in_phase sim Sim.Ph_recover t (fun () -> crash_recover sh)
            else begin
              wal_flush sh ~txns:!wal_txns ~bno:sh.batch_no;
              cdc_seal sh ~txns:!wal_txns ~bno:sh.batch_no
            end
        in
        match clients with
        | None ->
            for b = 0 to batches - 1 do
              if not sh.crashed then begin
                if t = 0 then sh.batch_no <- b;
                run_batch
                  (fun () -> plan_slice sh ~parity:0 ~bno:b t streams.(t) rr)
                  (fun () -> account sh ~parity:0)
              end
            done
        | Some c ->
            (* Every thread runs the same barrier sequence per round:
               thread 0 decides [continue_] strictly before the round
               barrier and everyone reads it strictly after, so the
               decision can never race a thread's loop check (a bare
               [while !continue_] here deadlocks: late checkers exit
               while early checkers park on the round barrier). *)
            let rec loop () =
              if t = 0 then begin
                pending := Clients.drain c ~node:0 ~max:cfg.batch_size;
                continue_ := Array.length !pending > 0;
                if !continue_ then sh.batch_no <- sh.batch_no + 1
              end;
              Sim.Barrier.await sim barrier;
              if !continue_ then begin
                run_batch
                  (fun () ->
                    plan_slice_clients sh ~parity:0 ~bno:sh.batch_no t
                      !pending rr)
                  (fun () -> account ~clients:c sh ~parity:0);
                loop ()
              end
            in
            loop ())
  done;
  nthreads

(* ------------------------------------------------------------------ *)
(* Pipelined execution: dedicated planner and executor threads,        *)
(* double-buffered queues, one hand-off per batch.                     *)
(* ------------------------------------------------------------------ *)

(* Per-batch one-shot synchronisation, lazily created on first access
   (any thread may get there first; creation never yields, so the
   check-then-add pair is atomic under the cooperative scheduler):
     planned(b)    gate(planners)   planners arrive after planning b
     start(b)      bool ivar        executor 0 opens batch b (false = stop)
     exec_done(b)  gate(executors)  executors arrive after draining b
     recovered(b)  unit ivar        recovery + accounting of b is done
     published(b)  gate(executors)  all slots of b are published
     pending(b)    entries ivar     client mode: the drained batch b
   Batch b for an executor: await start(b) -> drain parity (b land 1) ->
   arrive exec_done(b) -> [e0: recover/account, fill recovered(b)] ->
   publish own slot -> arrive published(b) -> [e0: await published(b),
   await planned(b+1), advance batch_no, fill start(b+1)].  A planner
   plans b as soon as recovered(b-2) is filled — the parity buffer is
   guaranteed drained — so planning b overlaps execution of b-1 and
   publish/recovery of b-2 overlaps planning of b.  Publish of b
   completing before start(b+1) is what keeps read-committed reads and
   cross-slot recovery exact: committed images only ever change between
   batches, exactly as in the lockstep path. *)
let spawn_pipelined sim sh ?clients ~batches ~streams () =
  let cfg = sh.cfg in
  let m = sh.metrics in
  let planned_g : (int, Sim.Gate.g) Hashtbl.t = Hashtbl.create 16 in
  let exec_done_g : (int, Sim.Gate.g) Hashtbl.t = Hashtbl.create 16 in
  let published_g : (int, Sim.Gate.g) Hashtbl.t = Hashtbl.create 16 in
  let start_iv : (int, bool Sim.Ivar.iv) Hashtbl.t = Hashtbl.create 16 in
  let recovered_iv : (int, unit Sim.Ivar.iv) Hashtbl.t = Hashtbl.create 16 in
  let pending_iv : (int, Clients.entry array Sim.Ivar.iv) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Auto-batch mode: planner 0 publishes the tuned size of batch b
     through size(b); 0 = the transaction budget is spent, unwind (the
     closed-loop analogue of client mode's empty drain). *)
  let size_iv : (int, int Sim.Ivar.iv) Hashtbl.t = Hashtbl.create 16 in
  let gate tbl ~parties b =
    match Hashtbl.find_opt tbl b with
    | Some g -> g
    | None ->
        let g = Sim.Gate.create parties in
        Hashtbl.add tbl b g;
        g
  in
  let ivar : 'a. (int, 'a Sim.Ivar.iv) Hashtbl.t -> int -> 'a Sim.Ivar.iv =
   fun tbl b ->
    match Hashtbl.find_opt tbl b with
    | Some iv -> iv
    | None ->
        let iv = Sim.Ivar.create () in
        Hashtbl.add tbl b iv;
        iv
  in
  let fill_stall t0 =
    m.Metrics.pipe_fill_stall <-
      m.Metrics.pipe_fill_stall + (Sim.now sim - t0)
  in
  (* Planner threads (trace tids above the executor range). *)
  for p = 0 to cfg.planners - 1 do
    Sim.spawn sim (fun () ->
        let tid = cfg.executors + p in
        let rr = ref p in
        let await_drained b =
          (* The parity buffer for b is reusable once batch b-2 has been
             recovered and accounted. *)
          if b >= 2 then begin
            let t0 = Sim.now sim in
            Sim.Ivar.read sim (ivar recovered_iv (b - 2));
            m.Metrics.pipe_drain_stall <-
              m.Metrics.pipe_drain_stall + (Sim.now sim - t0)
          end
        in
        match (clients, sh.abs) with
        | None, None ->
            for b = 0 to batches - 1 do
              await_drained b;
              in_phase sim Sim.Ph_plan tid (fun () ->
                  plan_slice sh ~parity:(b land 1) ~bno:b p streams.(p) rr);
              Sim.Gate.arrive sim (gate planned_g ~parties:cfg.planners b)
            done
        | None, Some abs ->
            let rec loop b =
              await_drained b;
              if p = 0 then
                Sim.Ivar.fill sim (ivar size_iv b) (next_batch_size sh abs);
              let sz = Sim.Ivar.read sim (ivar size_iv b) in
              if sz = 0 then
                Sim.Gate.arrive sim (gate planned_g ~parties:cfg.planners b)
              else begin
                in_phase sim Sim.Ph_plan tid (fun () ->
                    plan_slice sh ~parity:(b land 1) ~bno:b ~size:sz p
                      streams.(p) rr);
                Sim.Gate.arrive sim (gate planned_g ~parties:cfg.planners b);
                loop (b + 1)
              end
            in
            loop 0
        | Some c, _ ->
            (* Planner 0 closes each batch by draining the admission
               queue and shares it through pending(b); an empty drain
               means every client transaction is finally resolved (the
               executors' accounting wakes the drain), so batch b never
               forms and everyone unwinds. *)
            let rec loop b =
              await_drained b;
              if p = 0 then
                Sim.Ivar.fill sim (ivar pending_iv b)
                  (Clients.drain c ~node:0 ~max:cfg.batch_size);
              let entries = Sim.Ivar.read sim (ivar pending_iv b) in
              if Array.length entries = 0 then
                Sim.Gate.arrive sim (gate planned_g ~parties:cfg.planners b)
              else begin
                in_phase sim Sim.Ph_plan tid (fun () ->
                    plan_slice_clients sh ~parity:(b land 1) ~bno:b p entries
                      rr);
                Sim.Gate.arrive sim (gate planned_g ~parties:cfg.planners b);
                loop (b + 1)
              end
            in
            loop 0)
  done;
  (* Executor threads. *)
  for e = 0 to cfg.executors - 1 do
    Sim.spawn sim (fun () ->
        let st = { eid = e; cur_rt = dummy_rt; cur_row = dummy_row;
                   cur_found = false }
        in
        let ctx = make_ctx sh st in
        let tr = Sim.tracer sim in
        let queue_depth_counter parity =
          if Trace.enabled tr then begin
            let depth = ref 0 in
            for p = 0 to cfg.planners - 1 do
              depth := !depth + Vec.length sh.queues.(parity).(p).(e)
            done;
            Trace.counter tr ~tid:e ~name:"queue_depth"
              ~series:("exec" ^ string_of_int e) ~ts:(Sim.now sim)
              ~value:!depth
          end
        in
        let wal_txns = ref 0 in
        let rec loop b =
          let go =
            if e = 0 then begin
              let go =
                (not sh.crashed)
                && (match (clients, sh.abs) with
                   | None, None ->
                       b < batches
                       && begin
                            let t0 = Sim.now sim in
                            Sim.Gate.await sim
                              (gate planned_g ~parties:cfg.planners b);
                            fill_stall t0;
                            true
                          end
                   | None, Some _ ->
                       let t0 = Sim.now sim in
                       Sim.Gate.await sim
                         (gate planned_g ~parties:cfg.planners b);
                       fill_stall t0;
                       Sim.Ivar.read sim (ivar size_iv b) > 0
                   | Some _, _ ->
                       let t0 = Sim.now sim in
                       Sim.Gate.await sim
                         (gate planned_g ~parties:cfg.planners b);
                       fill_stall t0;
                       Array.length (Sim.Ivar.read sim (ivar pending_iv b))
                       > 0)
              in
              (* batch_no is only read between start(b) and the end of
                 publish(b), so advancing it here cannot race the
                 planners: they never touch rows. *)
              if go then sh.batch_no <- b;
              Sim.Ivar.fill sim (ivar start_iv b) go;
              go
            end
            else begin
              let t0 = Sim.now sim in
              let go = Sim.Ivar.read sim (ivar start_iv b) in
              fill_stall t0;
              go
            end
          in
          if go then begin
            let parity = b land 1 in
            queue_depth_counter parity;
            in_phase sim Sim.Ph_execute e (fun () ->
                drain_queues sh st ctx ~parity);
            Sim.Gate.arrive sim (gate exec_done_g ~parties:cfg.executors b);
            if e = 0 then begin
              Sim.Gate.await sim (gate exec_done_g ~parties:cfg.executors b);
              in_phase sim Sim.Ph_recover e (fun () ->
                  (* The crash point, pipelined: executor 0 reaches batch
                     b's commit point past the crash time — b dies
                     unlogged and unaccounted. *)
                  if crash_due sh then sh.crashed <- true
                  else begin
                    if cfg.mode = Speculative then recover sh ~parity
                    else finalize_statuses sh ~parity;
                    commit_emit sh ~bno:b;
                    wal_txns := committed_in sh ~parity;
                    account ?clients sh ~parity;
                    rebalance sh ~bno:b
                  end);
              Sim.Ivar.fill sim (ivar recovered_iv b) ();
              if sh.crashed then begin
                (* Unblock planners already committed to future batches:
                   they plan into buffers nobody drains and unwind.  The
                   horizon covers the deepest batch number any planner
                   loop can reach. *)
                let horizon =
                  match sh.abs with
                  | Some _ -> (batches * cfg.batch_size) + 2
                  | None -> batches + 2
                in
                for bb = b + 1 to horizon do
                  let iv = ivar recovered_iv bb in
                  if not (Sim.Ivar.is_full iv) then Sim.Ivar.fill sim iv ()
                done
              end
            end
            else ignore (Sim.Ivar.read sim (ivar recovered_iv b));
            if not sh.crashed then
              in_phase sim Sim.Ph_publish e (fun () ->
                  publish_slot sh e;
                  if e = 0 then publish_slot sh cfg.executors);
            Sim.Gate.arrive sim (gate published_g ~parties:cfg.executors b);
            if e = 0 then begin
              Sim.Gate.await sim (gate published_g ~parties:cfg.executors b);
              (* Group-commit flush once every slot of b is published (a
                 snapshot roll images fully published state); executors
                 of b+1 are still parked on start(b+1), which is filled
                 below in [loop], so the flush cannot race a row
                 access. *)
              if sh.crashed then
                in_phase sim Sim.Ph_recover e (fun () -> crash_recover sh)
              else begin
                wal_flush sh ~txns:!wal_txns ~bno:b;
                cdc_seal sh ~txns:!wal_txns ~bno:b
              end;
              (* Drop sync state no thread can reach again: everything
                 of batch b except recovered(b), which planners of batch
                 b+2 still await. *)
              Hashtbl.remove planned_g b;
              Hashtbl.remove exec_done_g b;
              Hashtbl.remove published_g b;
              Hashtbl.remove start_iv b;
              Hashtbl.remove pending_iv b;
              Hashtbl.remove size_iv b;
              if b >= 2 then Hashtbl.remove recovered_iv (b - 2)
            end;
            loop (b + 1)
          end
        in
        loop 0)
  done;
  cfg.planners + cfg.executors

let run ?sim ?clients ?recorder ?wal ?cdc ?crash_at cfg wl ~batches =
  assert (cfg.planners > 0 && cfg.executors > 0 && cfg.batch_size > 0);
  (match (crash_at, clients) with
  | Some _, Some _ ->
      invalid_arg
        "Quecc.Engine.run: crash faults and open-loop clients cannot be \
         combined (a crashed node strands the admission queue)"
  | _ -> ());
  (match (crash_at, cdc) with
  | Some _, Some _ ->
      invalid_arg
        "Quecc.Engine.run: --cdc cannot be combined with crash faults (a \
         crash-truncated run would feed subscribers retracted commits)"
  | _ -> ());
  (match cfg.split with
  | Some sc -> assert (sc.hot_threshold > 0 && sc.max_subqueues >= 2)
  | None -> ());
  (match cfg.adapt with
  | Some a -> assert (a.spread > 0 && a.min_batch > 0)
  | None -> ());
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:cfg.costs.Costs.wakeup ()
  in
  let nbuf = if cfg.pipeline then 2 else 1 in
  let split_on = cfg.split <> None && cfg.executors > 1 in
  let seg_matrix () =
    Array.init nbuf (fun _ ->
        Array.init cfg.planners (fun _ ->
            Array.init cfg.executors (fun _ -> Vec.create ())))
  in
  let rmap, vload =
    match cfg.adapt with
    | Some a when a.repartition ->
        let nvp = cfg.executors * a.spread in
        ( Array.init 2 (fun _ -> Array.init nvp (fun vp -> vp / a.spread)),
          Array.init 2 (fun _ -> Array.make nvp 0) )
    | _ -> ([||], [||])
  in
  let abs =
    match cfg.adapt with
    | Some a when a.auto_batch && cfg.pipeline && clients = None ->
        Some
          {
            abs_remaining = batches * cfg.batch_size;
            abs_cur = cfg.batch_size;
            abs_last_fill = 0;
            abs_last_drain = 0;
          }
    | _ -> None
  in
  let sh =
    {
      cfg;
      sim;
      wl;
      db = wl.Workload.db;
      queues =
        Array.init nbuf (fun _ ->
            Array.init cfg.planners (fun _ ->
                Array.init cfg.executors (fun _ -> Vec.create ())));
      rts = Array.init nbuf (fun _ -> Array.make cfg.batch_size None);
      touched = Array.init (cfg.executors + 1) (fun _ -> Vec.create ());
      qstate =
        (if cfg.steal then
           Array.init nbuf (fun _ ->
               Array.init cfg.planners (fun _ ->
                   Array.make cfg.executors 0))
         else [||]);
      qsig =
        (if cfg.steal then
           Array.init nbuf (fun _ ->
               Array.init cfg.planners (fun _ ->
                   Array.init cfg.executors (fun _ -> Hashtbl.create 64)))
         else [||]);
      qpend =
        (if cfg.steal then
           Array.init nbuf (fun _ ->
               Array.init cfg.planners (fun _ ->
                   Array.make cfg.executors 1))
         else [||]);
      chain_starts = (if split_on then seg_matrix () else [||]);
      chain_joins = (if split_on then seg_matrix () else [||]);
      segs = (if split_on then seg_matrix () else [||]);
      rmap;
      vload;
      metrics = Metrics.create ();
      recorder;
      abs;
      wal;
      cdc;
      crash_at;
      crashed = false;
      batch_no = 0;
    }
  in
  if cfg.pipeline then begin
    sh.metrics.Metrics.pipe_fill_threads <- cfg.executors;
    sh.metrics.Metrics.pipe_drain_threads <- cfg.planners
  end;
  let streams =
    match clients with
    | Some _ -> [||]
    | None -> Array.init cfg.planners wl.Workload.new_stream
  in
  let nthreads =
    if cfg.pipeline then spawn_pipelined sim sh ?clients ~batches ~streams ()
    else spawn_lockstep sim sh ?clients ~batches ~streams ()
  in
  let parked =
    match recorder with
    | None -> Sim.run sim
    | Some log -> Alog.with_sim log sim (fun () -> Sim.run sim)
  in
  if parked <> 0 then
    failwith (Printf.sprintf "Quecc.Engine.run: %d threads deadlocked" parked);
  let m = sh.metrics in
  m.Metrics.elapsed <- Sim.horizon sim;
  m.Metrics.busy <- Sim.busy_time sim;
  m.Metrics.idle <- Sim.idle_time sim;
  m.Metrics.threads <- nthreads;
  (match wal with Some w -> Wal.record w m | None -> ());
  record_sim_breakdown m sim;
  m
