open Quill_common
open Quill_sim
open Quill_storage
open Quill_txn
module Wal = Quill_wal.Wal
module Cdc = Quill_cdc.Cdc

let dummy_row = Row.make ~key:(-1) ~nfields:1

type state = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  wl : Workload.t;
  wal : Wal.t option;
  cdc : Cdc.t option;
  metrics : Metrics.t;
  mutable cur_row : Row.t;
  mutable cur_found : bool;
  mutable undo : (Row.t * int array) list;
  mutable inserts : (int * int) list;
  mutable written : (int * Row.t) list;
  mutable slots : int array;
}

let make_ctx st =
  let read (frag : Fragment.t) field =
    ignore frag;
    Sim.tick st.sim st.costs.Costs.row_read;
    if st.cur_found then st.cur_row.Row.data.(field) else 0
  in
  let write (frag : Fragment.t) field v =
    Sim.tick st.sim st.costs.Costs.row_write;
    if st.cur_found then begin
      let row = st.cur_row in
      st.undo <- (row, Array.copy row.Row.data) :: st.undo;
      st.written <- (frag.Fragment.table, row) :: st.written;
      row.Row.data.(field) <- v
    end
  in
  let add frag field d = write frag field (read frag field + d) in
  let insert (frag : Fragment.t) ~key payload =
    Sim.tick st.sim st.costs.Costs.index_insert;
    let tbl = Db.table st.db frag.Fragment.table in
    let home = Db.home st.db frag.Fragment.table frag.Fragment.key in
    ignore (Table.insert tbl ~home ~key payload);
    st.inserts <- (frag.Fragment.table, key) :: st.inserts
  in
  let input fid = st.slots.(fid) in
  let output fid v = if fid < Array.length st.slots then st.slots.(fid) <- v in
  let found _ = st.cur_found in
  { Exec.read; write; add; insert; input; output; found }

let exec_one st ctx txn =
  let costs = st.costs in
  Sim.tick st.sim costs.Costs.txn_overhead;
  txn.Txn.submit_time <- Sim.now st.sim;
  txn.Txn.status <- Txn.Active;
  txn.Txn.attempts <- txn.Txn.attempts + 1;
  st.undo <- [];
  st.inserts <- [];
  st.written <- [];
  st.slots <- Array.make (Array.length txn.Txn.frags) 0;
  let frags = txn.Txn.frags in
  let rec go i =
    if i >= Array.length frags then Exec.Ok
    else begin
      let frag = frags.(i) in
      (match frag.Fragment.mode with
      | Fragment.Insert ->
          st.cur_row <- dummy_row;
          st.cur_found <- true
      | Fragment.Read | Fragment.Write | Fragment.Rmw -> (
          Sim.tick st.sim costs.Costs.index_probe;
          match Table.find (Db.table st.db frag.Fragment.table)
                  frag.Fragment.key
          with
          | Some row ->
              st.cur_row <- row;
              st.cur_found <- true
          | None ->
              st.cur_row <- dummy_row;
              st.cur_found <- false));
      Sim.tick st.sim costs.Costs.logic;
      match st.wl.Workload.exec ctx txn frag with
      | Exec.Ok -> go (i + 1)
      | (Exec.Abort | Exec.Blocked) as r -> r
    end
  in
  (match go 0 with
  | Exec.Ok ->
      txn.Txn.status <- Txn.Committed;
      (* The commit seam, one walk over the transaction's write set
         before publish overwrites [committed]: CDC stages (committed,
         data) — the hub keeps the first pre-image and the final
         post-image per key, so per-transaction staging within a commit
         group collapses to exactly the group's state delta — and the
         WAL group buffer gets [data], which is what publish installs as
         [committed] (the flush happens at the group-commit boundary in
         [run_list]).  Replay applies effects in log order, so
         per-transaction emission with duplicates is idempotent — the
         last image of a row wins. *)
      if st.wal <> None || st.cdc <> None then begin
        List.iter
          (fun (tid, (row : Row.t)) ->
            let key = row.Row.key in
            (match st.cdc with
            | Some c ->
                Cdc.stage c ~table:tid ~key ~before:row.Row.committed
                  ~after:row.Row.data
            | None -> ());
            match st.wal with
            | Some w ->
                Wal.log_effect w ~table:tid
                  ~home:(Table.home_of_key (Db.table st.db tid) key)
                  ~key row.Row.data
            | None -> ())
          st.written;
        List.iter
          (fun (tid, key) ->
            let tbl = Db.table st.db tid in
            match Table.find tbl key with
            | Some row ->
                (match st.cdc with
                | Some c ->
                    Cdc.stage_insert c ~table:tid ~key ~after:row.Row.data
                | None -> ());
                (match st.wal with
                | Some w ->
                    Wal.log_effect w ~table:tid
                      ~home:(Table.home_of_key tbl key) ~key row.Row.data
                | None -> ())
            | None -> ())
          st.inserts
      end;
      List.iter (fun (_, row) -> Row.publish row) st.written;
      st.metrics.Metrics.committed <- st.metrics.Metrics.committed + 1
  | Exec.Abort | Exec.Blocked ->
      List.iter
        (fun (row, saved) ->
          Sim.tick st.sim costs.Costs.abort_cleanup;
          Row.restore row saved)
        st.undo;
      List.iter
        (fun (tid, key) -> Table.remove (Db.table st.db tid) key)
        st.inserts;
      txn.Txn.status <- Txn.Aborted;
      st.metrics.Metrics.logic_aborted <- st.metrics.Metrics.logic_aborted + 1);
  txn.Txn.finish_time <- Sim.now st.sim;
  Stats.Hist.add st.metrics.Metrics.lat
    (txn.Txn.finish_time - txn.Txn.submit_time)

let run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next =
  (match (cdc, crash_at) with
  | Some _, Some _ ->
      invalid_arg
        "Serial.run: --cdc cannot be combined with crash faults (a \
         crash-truncated run would feed subscribers retracted commits)"
  | _ -> ());
  let st =
    {
      sim;
      costs;
      db = wl.Workload.db;
      wl;
      wal;
      cdc;
      metrics = Metrics.create ();
      cur_row = dummy_row;
      cur_found = false;
      undo = [];
      inserts = [];
      written = [];
      slots = [||];
    }
  in
  let ctx = make_ctx st in
  Sim.spawn sim (fun () ->
      let tid = Sim.current_tid sim in
      (* Group commit: [batch_size] transactions share one flush, the
         serial analogue of QueCC's batch-aligned group commit.  The
         CDC feed is sealed at the same boundary, so serial's feed
         entries align with its commit groups. *)
      let track = wal <> None || cdc <> None in
      let bno = ref 0 in
      let in_group = ref 0 in
      let group_committed = ref 0 in
      let group_open = ref false in
      let close_group () =
        (match wal with
        | Some w ->
            ignore (Wal.commit_batch w ~batch_no:!bno ~txns:!group_committed)
        | None -> ());
        (match cdc with
        | Some c -> Cdc.publish c ~batch_no:!bno ~txns:!group_committed
        | None -> ());
        incr bno;
        in_group := 0;
        group_committed := 0;
        group_open := false
      in
      let crash w =
        Pcommon.in_phase sim Sim.Ph_recover tid (fun () ->
            let m = st.metrics in
            m.Metrics.crashes <- m.Metrics.crashes + 1;
            Wal.recover w st.db;
            m.Metrics.committed <- Wal.durable_txns w)
      in
      let rec loop () =
        let dead =
          match crash_at with Some at -> Sim.now sim >= at | None -> false
        in
        if dead then
          (* The crash lands between transactions: the open group was
             never flushed and is lost with the process. *)
          match wal with Some w -> crash w | None -> ()
        else
          match next () with
          | None -> if track && !group_open then close_group ()
          | Some txn ->
              if track && not !group_open then begin
                (match wal with
                | Some w -> Wal.begin_batch w ~batch_no:!bno
                | None -> ());
                group_open := true
              end;
              let c0 = st.metrics.Metrics.committed in
              Pcommon.in_phase sim Sim.Ph_execute tid (fun () ->
                  exec_one st ctx txn);
              if track then begin
                if st.metrics.Metrics.committed > c0 then
                  incr group_committed;
                incr in_group;
                if !in_group >= batch_size then close_group ()
              end;
              loop ()
      in
      loop ());
  let parked = Sim.run sim in
  assert (parked = 0);
  let m = st.metrics in
  m.Metrics.elapsed <- Sim.horizon sim;
  m.Metrics.busy <- Sim.busy_time sim;
  m.Metrics.idle <- Sim.idle_time sim;
  m.Metrics.threads <- 1;
  (match wal with Some w -> Wal.record w m | None -> ());
  Pcommon.record_sim_breakdown m sim;
  m

let run ?sim ?(costs = Costs.default) ?wal ?cdc ?crash_at
    ?(batch_size = 1024) wl ~txns =
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:costs.Costs.wakeup ()
  in
  let stream = wl.Workload.new_stream 0 in
  let remaining = ref txns in
  let next () =
    if !remaining <= 0 then None
    else begin
      decr remaining;
      Some (stream ())
    end
  in
  run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next

let run_txns ?sim ?(costs = Costs.default) ?wal ?cdc ?crash_at
    ?(batch_size = 1024) wl txns =
  let sim =
    match sim with
    | Some s -> s
    | None -> Sim.create ~wake_cost:costs.Costs.wakeup ()
  in
  let remaining = ref txns in
  let next () =
    match !remaining with
    | [] -> None
    | t :: rest ->
        remaining := rest;
        Some t
  in
  run_list ?wal ?cdc ?crash_at ~batch_size sim costs wl next
