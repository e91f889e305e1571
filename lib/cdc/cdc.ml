module Sim = Quill_sim.Sim
module Costs = Quill_sim.Costs
module Db = Quill_storage.Db
module Metrics = Quill_txn.Metrics
module Vec = Quill_common.Vec

type event = {
  table : int;
  key : int;
  before : int array option;
  after : int array;
}

type batch = {
  batch_no : int;
  txns : int;
  events : event array;
}

type consumer = {
  on_batch : batch -> unit;
  on_snapshot : Db.t -> batch_no:int -> unit;
  on_caught_up : batch_no:int -> unit;
}

(* A staged row: first pre-image wins (copied at stage time, because the
   engine's publish overwrites [committed] before the feed entry is
   sealed), last post-image wins (a reference, read at publish time —
   for every engine the staged [data] array IS the final post-image by
   the commit point, and later stagings of the same row would only
   rebind it to the same array). *)
type staged = {
  s_table : int;
  s_key : int;
  s_before : int array option;
  mutable s_after : int array;
}

module Itbl = Hashtbl.Make (Int)

type sub = {
  s_name : string;
  s_consumer : consumer;
  s_max_queue : int;
  s_apply_every : int;
  s_join_at : int;
  s_queue : batch Queue.t;
  mutable s_active : bool;
  mutable s_cursor : int;
  mutable s_since_apply : int;
  mutable s_overflow : bool;
  mutable s_lag_max : int;
  mutable s_delivered : int;
  mutable s_catchup : int;
  mutable s_overflows : int;
}

type t = {
  sim : Sim.t;
  costs : Costs.t;
  db : Db.t;
  retain : int;
  staging : staged Itbl.t array;  (* per table id: key -> staged *)
  order : staged Vec.t;  (* staged rows in first-staging order *)
  ring : batch Queue.t;
  mutable wire : Bytes.t;  (* the newest entry's bytes, reused *)
  feed_buf : Buffer.t option;  (* full serialized feed, tests only *)
  mutable batches : int;
  mutable last_batch : int;
  mutable events : int;
  mutable feed_bytes : int;
  mutable digest : int;
  mutable subs_rev : sub list;
}

let create ?(retain = 64) ?(record_feed = false) ~sim ~costs db =
  if retain < 1 then invalid_arg "Cdc.create: retain must be >= 1";
  {
    sim;
    costs;
    db;
    retain;
    staging = Array.init (Db.ntables db) (fun _ -> Itbl.create 256);
    order = Vec.create ~capacity:1024 ();
    ring = Queue.create ();
    wire = Bytes.create 4096;
    feed_buf = (if record_feed then Some (Buffer.create 4096) else None);
    batches = 0;
    last_batch = -1;
    events = 0;
    feed_bytes = 0;
    digest = 5381;
    subs_rev = [];
  }

let subscribe t ~name ?(max_queue = 256) ?(apply_every = 1) ?(join_at = 0)
    consumer =
  if max_queue < 1 then invalid_arg "Cdc.subscribe: max_queue must be >= 1";
  if apply_every < 1 then invalid_arg "Cdc.subscribe: apply_every must be >= 1";
  if join_at <= t.last_batch then
    invalid_arg
      (Printf.sprintf
         "Cdc.subscribe %s: join_at=%d is already published (last batch %d)"
         name join_at t.last_batch);
  let s =
    {
      s_name = name;
      s_consumer = consumer;
      s_max_queue = max_queue;
      s_apply_every = apply_every;
      s_join_at = join_at;
      s_queue = Queue.create ();
      s_active = false;
      s_cursor = -1;
      s_since_apply = 0;
      s_overflow = false;
      s_lag_max = 0;
      s_delivered = 0;
      s_catchup = 0;
      s_overflows = 0;
    }
  in
  (* Joining at the very next batch is not late: activate now, with
     nothing to catch up on.  Larger [join_at]s activate at publish
     time via ring replay or snapshot. *)
  if join_at = t.last_batch + 1 then s.s_active <- true;
  t.subs_rev <- s :: t.subs_rev;
  s

(* [before] is only read (and copied) on the first staging of a row,
   and only when [insert] is false. *)
let stage_row t ~table ~key ~insert ~before ~after =
  let tbl = t.staging.(table) in
  match Itbl.find_opt tbl key with
  | Some st -> st.s_after <- after
  | None ->
      let s_before = if insert then None else Some (Array.copy before) in
      let st = { s_table = table; s_key = key; s_before; s_after = after } in
      Itbl.replace tbl key st;
      Vec.push t.order st

let stage t ~table ~key ~before ~after =
  stage_row t ~table ~key ~insert:false ~before ~after

let stage_insert t ~table ~key ~after =
  stage_row t ~table ~key ~insert:true ~before:after ~after

(* ------------------------------------------------------------------ *)
(* Feed serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* Wire shape (same idiom as the WAL's framing):
   batch  := batch_no:8 txns:8 nevents:4 event*
   event  := table:4 key:8 kind:1 [pre:payload] post:payload
   payload := nfields:4 fields:8xn
   kind 0 = update (pre present), 1 = insert (no pre).
   Encoded into [t.wire], sized up front; returns the entry's length. *)
let encode t (b : batch) =
  let size = ref 20 in
  Array.iter
    (fun ev ->
      (* table, key, kind, then the post-image payload *)
      size := !size + 13 + 4 + (8 * Array.length ev.after);
      match ev.before with
      | Some pre -> size := !size + 4 + (8 * Array.length pre)
      | None -> ())
    b.events;
  if !size > Bytes.length t.wire then
    t.wire <- Bytes.create (max !size (2 * Bytes.length t.wire));
  let w = t.wire in
  let pos = ref 0 in
  let i32 v =
    Bytes.set_int32_le w !pos (Int32.of_int v);
    pos := !pos + 4
  and i64 v =
    Bytes.set_int64_le w !pos (Int64.of_int v);
    pos := !pos + 8
  in
  let payload (a : int array) =
    i32 (Array.length a);
    for f = 0 to Array.length a - 1 do
      i64 (Array.unsafe_get a f)
    done
  in
  i64 b.batch_no;
  i64 b.txns;
  i32 (Array.length b.events);
  Array.iter
    (fun ev ->
      i32 ev.table;
      i64 ev.key;
      (match ev.before with
      | Some pre ->
          Bytes.set w !pos '\000';
          incr pos;
          payload pre
      | None ->
          Bytes.set w !pos '\001';
          incr pos);
      payload ev.after)
    b.events;
  !pos

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let tick t ~charge cost = if charge && cost > 0 then Sim.tick t.sim cost

(* Drain a subscriber to the newest batch: apply the queued entries in
   order, or — after an overflow dropped the queue — re-seed from a
   snapshot scan of the committed database and skip straight to the
   cursor.  The snapshot is the CDC analogue of WAL snapshot recovery:
   everything the subscriber missed is folded into one state transfer
   and accounted as catch-up, not delivery. *)
let apply t ~charge s =
  let applied = ref false in
  if s.s_overflow then begin
    s.s_consumer.on_snapshot t.db ~batch_no:t.last_batch;
    s.s_catchup <- s.s_catchup + (t.last_batch - s.s_cursor);
    s.s_cursor <- t.last_batch;
    s.s_overflow <- false;
    tick t ~charge t.costs.Costs.cdc_publish;
    applied := true
  end
  else
    while not (Queue.is_empty s.s_queue) do
      let b = Queue.pop s.s_queue in
      s.s_consumer.on_batch b;
      s.s_delivered <- s.s_delivered + Array.length b.events;
      s.s_cursor <- b.batch_no;
      tick t ~charge (Array.length b.events * t.costs.Costs.cdc_event);
      applied := true
    done;
  s.s_since_apply <- 0;
  if !applied then s.s_consumer.on_caught_up ~batch_no:s.s_cursor

(* Late-joiner activation at the publish of batch [join_at] or later:
   replay the retention ring when it still covers every published batch,
   otherwise hand the consumer a snapshot as of the current batch. *)
let activate t ~charge s =
  s.s_active <- true;
  if Queue.length t.ring = t.batches then begin
    Queue.iter
      (fun b ->
        s.s_consumer.on_batch b;
        s.s_delivered <- s.s_delivered + Array.length b.events;
        s.s_cursor <- b.batch_no;
        tick t ~charge (Array.length b.events * t.costs.Costs.cdc_event))
      t.ring;
    s.s_catchup <- s.s_catchup + Queue.length t.ring
  end
  else begin
    s.s_consumer.on_snapshot t.db ~batch_no:t.last_batch;
    s.s_cursor <- t.last_batch;
    s.s_catchup <- s.s_catchup + t.batches;
    tick t ~charge t.costs.Costs.cdc_publish
  end;
  s.s_consumer.on_caught_up ~batch_no:s.s_cursor

let deliver t ~charge b =
  List.iter
    (fun s ->
      if not s.s_active then begin
        if s.s_join_at <= b.batch_no then activate t ~charge s
      end
      else begin
        Queue.add b s.s_queue;
        s.s_since_apply <- s.s_since_apply + 1;
        s.s_lag_max <- max s.s_lag_max (b.batch_no - s.s_cursor);
        if Queue.length s.s_queue > s.s_max_queue then begin
          Queue.clear s.s_queue;
          s.s_overflow <- true;
          s.s_overflows <- s.s_overflows + 1
        end;
        if s.s_since_apply >= s.s_apply_every then apply t ~charge s
      end)
    (List.rev t.subs_rev)

let dummy_event = { table = -1; key = -1; before = None; after = [||] }

let by_table_key a b =
  if a.s_table <> b.s_table then Int.compare a.s_table b.s_table
  else Int.compare a.s_key b.s_key

let publish t ~batch_no ~txns =
  (* Canonicalize: one event per distinct (table, key), no-ops dropped,
     sorted — the feed entry is a pure function of the pre/post-batch
     committed states, independent of execution interleaving. *)
  let staged = Vec.to_array t.order in
  Array.iter Itbl.clear t.staging;
  Vec.clear t.order;
  Array.stable_sort by_table_key staged;
  let noop st =
    match st.s_before with
    | Some pre -> Quill_storage.Row.payload_equal pre st.s_after
    | None -> false
  in
  (* Count first, so that [events] is the only other array: arrays this
     size go straight to the major heap, and one more per batch raised
     the WAL+CDC share of the durable benchmark's peak heap from 83 to
     104 MB. *)
  let kept =
    Array.fold_left (fun n st -> if noop st then n else n + 1) 0 staged
  in
  let events = Array.make kept dummy_event in
  let n = ref 0 in
  Array.iter
    (fun st ->
      if not (noop st) then begin
        events.(!n) <-
          {
            table = st.s_table;
            key = st.s_key;
            before = st.s_before;
            after = Array.copy st.s_after;
          };
        incr n
      end)
    staged;
  let b = { batch_no; txns; events } in
  let len = encode t b in
  (* djb2 rolled across the whole feed: two feeds have equal digests iff
     their serialized bytes match (the [record_feed] tests additionally
     compare the bytes themselves). *)
  t.digest <- Quill_common.Djb2.bytes t.digest t.wire 0 len;
  t.feed_bytes <- t.feed_bytes + len;
  Option.iter (fun buf -> Buffer.add_subbytes buf t.wire 0 len) t.feed_buf;
  t.events <- t.events + Array.length events;
  t.batches <- t.batches + 1;
  t.last_batch <- batch_no;
  Queue.add b t.ring;
  if Queue.length t.ring > t.retain then ignore (Queue.pop t.ring);
  Sim.tick t.sim
    (t.costs.Costs.cdc_publish
    + (Array.length events * t.costs.Costs.cdc_event));
  deliver t ~charge:true b

let finish t =
  List.iter
    (fun s ->
      if s.s_active && ((not (Queue.is_empty s.s_queue)) || s.s_overflow)
      then apply t ~charge:false s)
    (List.rev t.subs_rev)

let batches t = t.batches
let events t = t.events
let feed_bytes t = t.feed_bytes
let digest t = t.digest

let feed t =
  match t.feed_buf with Some buf -> Buffer.contents buf | None -> ""

let last_batch t = t.last_batch
let sub_name s = s.s_name
let cursor s = s.s_cursor
let lag_max s = s.s_lag_max
let delivered s = s.s_delivered
let catchup_batches s = s.s_catchup
let overflows s = s.s_overflows
let subs t = List.rev t.subs_rev

let record t (m : Metrics.t) =
  m.Metrics.cdc_events <- m.Metrics.cdc_events + t.events;
  m.Metrics.cdc_bytes <- m.Metrics.cdc_bytes + t.feed_bytes;
  m.Metrics.cdc_batches <- m.Metrics.cdc_batches + t.batches;
  m.Metrics.cdc_subs <- m.Metrics.cdc_subs + List.length t.subs_rev;
  List.iter
    (fun s ->
      m.Metrics.cdc_lag_max <- max m.Metrics.cdc_lag_max s.s_lag_max;
      m.Metrics.cdc_catchup <- m.Metrics.cdc_catchup + s.s_catchup)
    t.subs_rev
