module Db = Quill_storage.Db
module Table = Quill_storage.Table
module Row = Quill_storage.Row
module Itbl = Hashtbl.Make (Int)

type t = {
  db : Db.t;
  cache : int array Itbl.t array;  (* per table id: key -> image *)
  mutable cursor : int;
  mutable reads : int;
}

let create db =
  {
    db;
    cache = Array.init (Db.ntables db) (fun _ -> Itbl.create 1024);
    cursor = -1;
    reads = 0;
  }

let consumer t =
  (* The hub copied every post-image at publish and never touches it
     again, so the cache can keep the event's array itself. *)
  let on_batch (b : Cdc.batch) =
    Array.iter
      (fun (ev : Cdc.event) ->
        Itbl.replace t.cache.(ev.Cdc.table) ev.Cdc.key ev.Cdc.after)
      b.Cdc.events;
    t.cursor <- b.Cdc.batch_no
  in
  let on_snapshot db ~batch_no =
    Array.iter Itbl.reset t.cache;
    for tid = 0 to Db.ntables db - 1 do
      let cache = t.cache.(tid) in
      let copy (row : Row.t) =
        Itbl.replace cache row.Row.key (Array.copy row.Row.committed)
      in
      let tbl = Db.table db tid in
      Table.iter_dense copy tbl;
      Table.iter_inserted copy tbl
    done;
    t.cursor <- batch_no
  in
  let on_caught_up ~batch_no:_ = () in
  { Cdc.on_batch; on_snapshot; on_caught_up }

let read t ~table ~key =
  t.reads <- t.reads + 1;
  if table >= 0 && table < Array.length t.cache then
    Itbl.find_opt t.cache.(table) key
  else None

let cursor t = t.cursor
let rows t = Array.fold_left (fun n c -> n + Itbl.length c) 0 t.cache
let reads t = t.reads

let consistent_with t db =
  let ok = ref true in
  Array.iteri
    (fun tid cache ->
      (* a conjunction: visiting order does not matter *)
      Itbl.iter
        (fun key img ->
          if !ok then
            ok :=
              match Table.find (Db.table db tid) key with
              | Some row -> row.Row.committed = img
              | None -> false)
        cache)
    t.cache;
  !ok
