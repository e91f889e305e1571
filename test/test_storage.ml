open Quill_storage

let mk_table ?(capacity = 100) ?(nparts = 4) () =
  Table.create ~name:"t" ~nfields:3 ~capacity ~nparts ()

(* ------------------------- row ------------------------- *)

let test_row_publish_restore () =
  let r = Row.make ~key:1 ~nfields:3 in
  r.Row.data.(0) <- 10;
  Tutil.check_int "committed untouched" 0 r.Row.committed.(0);
  Row.publish r;
  Tutil.check_int "published" 10 r.Row.committed.(0);
  Row.restore r [| 7; 8; 9 |];
  Tutil.check_int "restored live" 7 r.Row.data.(0);
  Tutil.check_int "committed kept" 10 r.Row.committed.(0)

let test_row_batch_reset () =
  let r = Row.make ~key:1 ~nfields:2 in
  r.Row.inserter <- 5;
  r.Row.fstate <- [| (1, [ 2 ], []) |];
  r.Row.undo <- [ (1, 0, Row.Uset 0) ];
  Row.reset_batch_state r 7;
  Tutil.check_int "inserter reset" (-1) r.Row.inserter;
  Tutil.check_bool "fstate reset" true (Array.length r.Row.fstate = 0);
  Tutil.check_bool "undo reset" true (r.Row.undo = []);
  (* same batch: no re-reset *)
  r.Row.inserter <- 9;
  Row.reset_batch_state r 7;
  Tutil.check_int "idempotent per batch" 9 r.Row.inserter

(* ------------------------- table ------------------------- *)

let test_table_dense () =
  let t = mk_table () in
  Tutil.check_int "capacity" 100 (Table.capacity t);
  let r = Table.dense t 42 in
  Tutil.check_int "key" 42 r.Row.key;
  Tutil.check_bool "find dense" true (Table.find t 42 = Some r);
  Alcotest.check_raises "oob" (Invalid_argument "Table.dense t: key 100")
    (fun () -> ignore (Table.dense t 100))

let test_table_insert_find_remove () =
  let t = mk_table () in
  Tutil.check_bool "missing" true (Table.find t 5_000 = None);
  let r = Table.insert t ~home:2 ~key:5_000 [| 1; 2; 3 |] in
  Tutil.check_int "payload" 2 r.Row.data.(1);
  Tutil.check_int "committed at insert" 2 r.Row.committed.(1);
  Tutil.check_bool "found" true (Table.find t 5_000 = Some r);
  Tutil.check_int "home recorded" 2 (Table.home_of_key t 5_000);
  Tutil.check_int "inserted count" 1 (Table.inserted_count t);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Table.insert t: duplicate key 5000") (fun () ->
      ignore (Table.insert t ~home:0 ~key:5_000 [| 0; 0; 0 |]));
  Table.remove t 5_000;
  Tutil.check_bool "removed" true (Table.find t 5_000 = None);
  Alcotest.check_raises "remove dense"
    (Invalid_argument "Table.remove: dense keys cannot be removed") (fun () ->
      Table.remove t 10)

let test_table_range_partitioning () =
  let t = mk_table ~capacity:100 ~nparts:4 () in
  Tutil.check_int "first range" 0 (Table.home_of_key t 0);
  Tutil.check_int "second range" 1 (Table.home_of_key t 25);
  Tutil.check_int "last range" 3 (Table.home_of_key t 99);
  (* contiguity: homes are monotone in the key *)
  let prev = ref 0 in
  for k = 0 to 99 do
    let h = Table.home_of_key t k in
    Tutil.check_bool "monotone" true (h >= !prev);
    prev := h
  done

let test_table_custom_home () =
  let t =
    Table.create ~name:"orders" ~nfields:1 ~capacity:0 ~nparts:4
      ~home_fn:(fun key -> key lsr 24 mod 4) ()
  in
  let key = (7 lsl 24) lor 123 in
  Tutil.check_int "derived home" 3 (Table.home_of_key t key);
  let _ = Table.insert t ~home:(Table.home_of_key t key) ~key [| 1 |] in
  Tutil.check_int "still derived" 3 (Table.home_of_key t key)

(* ------------------------- index ------------------------- *)

let test_index () =
  let ix = Index.create ~name:"i" in
  Index.add ix 10 100;
  Index.add ix 10 101;
  Index.add ix 20 200;
  Alcotest.(check (list int)) "find order" [ 100; 101 ] (Index.find ix 10);
  Alcotest.(check (list int)) "missing" [] (Index.find ix 99);
  Tutil.check_bool "pop fifo" true (Index.pop_min ix 10 = Some 100);
  Alcotest.(check (list int)) "after pop" [ 101 ] (Index.find ix 10);
  Tutil.check_bool "pop again" true (Index.pop_min ix 10 = Some 101);
  Tutil.check_bool "pop empty" true (Index.pop_min ix 10 = None);
  Tutil.check_bool "pop missing" true (Index.pop_min ix 77 = None);
  Tutil.check_int "size" 2 (Index.size ix)

(* ------------------------- db ------------------------- *)

let test_db_catalog () =
  let db = Db.create ~nparts:4 in
  let a = Db.add_table db ~name:"a" ~nfields:2 ~capacity:10 in
  let b = Db.add_table db ~name:"b" ~nfields:1 ~capacity:0 in
  let ix = Db.add_index db ~name:"ia" in
  Tutil.check_int "ids dense" 0 a;
  Tutil.check_int "ids dense 2" 1 b;
  Tutil.check_int "index id" 0 ix;
  Tutil.check_int "ntables" 2 (Db.ntables db);
  Tutil.check_int "lookup" a (Db.table_id db "a");
  Tutil.check_bool "by name" true (Db.table_by_name db "a" == Db.table db a);
  Alcotest.check_raises "dup table" (Invalid_argument "Db.add_table: duplicate a")
    (fun () -> ignore (Db.add_table db ~name:"a" ~nfields:1 ~capacity:0));
  Alcotest.check_raises "unknown" (Invalid_argument "Db.table_id: unknown z")
    (fun () -> ignore (Db.table_id db "z"))

let test_db_checksum () =
  let mk () =
    let db = Db.create ~nparts:2 in
    let _ = Db.add_table db ~name:"t" ~nfields:2 ~capacity:16 in
    db
  in
  let d1 = mk () and d2 = mk () in
  Tutil.check_bool "equal initial" true (Db.checksum d1 = Db.checksum d2);
  let row = Table.dense (Db.table_by_name d1 "t") 3 in
  row.Row.data.(1) <- 99;
  Tutil.check_bool "live differs" true
    (Db.live_checksum d1 <> Db.live_checksum d2);
  Tutil.check_bool "committed unchanged" true (Db.checksum d1 = Db.checksum d2);
  Row.publish row;
  Tutil.check_bool "committed differs after publish" true
    (Db.checksum d1 <> Db.checksum d2);
  (* inserted rows affect the digest *)
  let _ = Table.insert (Db.table_by_name d2 "t") ~home:0 ~key:100 [| 0; 0 |] in
  Tutil.check_bool "insert changes digest" true
    (Db.checksum d2 <> Db.checksum (mk ()))

let prop_checksum_field_sensitive =
  QCheck.Test.make ~name:"checksum distinguishes single-field flips" ~count:50
    QCheck.(pair (int_bound 15) (int_bound 1))
    (fun (key, field) ->
      let db = Db.create ~nparts:2 in
      let _ = Db.add_table db ~name:"t" ~nfields:2 ~capacity:16 in
      let before = Db.checksum db in
      let row = Table.dense (Db.table_by_name db "t") key in
      row.Row.data.(field) <- 12345;
      Row.publish row;
      Db.checksum db <> before)

(* ------------------------- image vs clone ------------------------- *)

(* The WAL snapshots with [Db.image]/[Db.restore]; replication keeps
   [Db.clone]/[Db.overwrite_from].  Both must restore the same visible
   state: payloads, dirty bits, dynamic rows and their homes, index
   entries and FIFO heads. *)
module Tpcc = Quill_workloads.Tpcc
module Tpcc_load = Quill_workloads.Tpcc_load
module Workload = Quill_txn.Workload
module Engine = Quill_quecc.Engine

let run_batches (wl : Workload.t) ~first_stream =
  let new_stream i = wl.Workload.new_stream (first_stream + i) in
  ignore
    (Engine.run
       { Engine.default_cfg with Engine.planners = 2; executors = 2; batch_size = 64 }
       { wl with Workload.new_stream } ~batches:2)

(* Everything a restore must bring back, dynamic payloads included (the
   checksums cover only dense payloads and the inserted-row count). *)
let visible db ix =
  let rows (r : Row.t) acc =
    (r.Row.key, Array.to_list r.Row.data, Array.to_list r.Row.committed,
     r.Row.dirty) :: acc
  in
  let tables =
    List.init (Db.ntables db) (fun tid ->
        let t = Db.table db tid in
        let dirty = ref [] and dyn = ref [] in
        Table.iter_dense
          (fun r -> if r.Row.dirty then dirty := r.Row.key :: !dirty)
          t;
        Table.iter_inserted
          (fun r -> dyn := (Table.home_of_key t r.Row.key, rows r []) :: !dyn)
          t;
        (Table.inserted_count t, !dirty, !dyn))
  in
  (Db.checksum db, Db.live_checksum db, tables, Index.bindings ix)

(* Pops every key's head: the FIFO cursors, observed destructively. *)
let heads ix =
  List.map (fun (sk, _) -> (sk, Index.pop_min ix sk, Index.pop_min ix sk))
    (Index.bindings ix)

let test_image_matches_clone () =
  let wl = Tpcc.make (Tutil.small_tpcc ()) in
  let db = wl.Workload.db and h = Tpcc.handles wl in
  let ix = Db.index db h.Tpcc_load.ix_cust_by_name in
  run_batches wl ~first_stream:0;
  (* a dense and a dynamic row caught between write and publish *)
  let dense = Table.dense (Db.table db h.Tpcc_load.t_customer) 3 in
  dense.Row.data.(0) <- dense.Row.data.(0) + 17;
  dense.Row.dirty <- true;
  let orders = Db.table db h.Tpcc_load.t_orders in
  let dyn = ref None in
  Table.iter_inserted (fun r -> if !dyn = None then dyn := Some r) orders;
  let dyn = Option.get !dyn in
  dyn.Row.data.(0) <- dyn.Row.data.(0) + 5;
  dyn.Row.dirty <- true;
  (* a dynamic home that differs from the key-derived fallback *)
  let hist = Db.table db h.Tpcc_load.t_history in
  let hk = 1 lsl 40 in
  ignore
    (Table.insert hist ~home:((hk + 1) mod Db.nparts db) ~key:hk
       (Array.make (Table.nfields hist) 4));
  let first_sk = fst (List.hd (Index.bindings ix)) in
  ignore (Index.pop_min ix first_sk);
  Index.add ix 987_654 1;
  Index.add ix 987_654 2;
  Tutil.check_bool "orders has dynamic rows" true (Table.inserted_count orders > 0);
  let img = Db.image db and cl = Db.clone db in
  let expect = visible db ix in
  let diverge ~first_stream =
    run_batches wl ~first_stream;
    ignore (Index.pop_min ix 987_654);
    Index.add ix 123_456 9;
    (Table.dense (Db.table db h.Tpcc_load.t_stock) 11).Row.dirty <- true
  in
  diverge ~first_stream:8;
  Tutil.check_bool "state diverged" true (visible db ix <> expect);
  Db.restore img db;
  let via_image = visible db ix and heads_image = heads ix in
  diverge ~first_stream:16;
  Db.overwrite_from ~src:cl db;
  let via_clone = visible db ix and heads_clone = heads ix in
  Tutil.check_bool "image restores the imaged state" true (via_image = expect);
  Tutil.check_bool "clone restores the same state" true (via_clone = expect);
  Tutil.check_bool "same FIFO heads" true (heads_image = heads_clone);
  (* an image is not consumed by a restore *)
  Db.restore img db;
  Tutil.check_bool "restore is repeatable" true (visible db ix = expect);
  (* a new image may recycle the one it replaces *)
  let img' = Db.image ~reuse:img db in
  diverge ~first_stream:24;
  Db.restore img' db;
  Tutil.check_bool "recycled image restores its own state" true
    (visible db ix = expect)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "row",
        [
          Alcotest.test_case "publish/restore" `Quick test_row_publish_restore;
          Alcotest.test_case "batch reset" `Quick test_row_batch_reset;
        ] );
      ( "table",
        [
          Alcotest.test_case "dense" `Quick test_table_dense;
          Alcotest.test_case "insert/find/remove" `Quick
            test_table_insert_find_remove;
          Alcotest.test_case "range partitioning" `Quick
            test_table_range_partitioning;
          Alcotest.test_case "custom home" `Quick test_table_custom_home;
        ] );
      ("index", [ Alcotest.test_case "fifo index" `Quick test_index ]);
      ( "db",
        [
          Alcotest.test_case "catalog" `Quick test_db_catalog;
          Alcotest.test_case "checksum" `Quick test_db_checksum;
          qc prop_checksum_field_sensitive;
          Alcotest.test_case "image/restore = clone/overwrite_from" `Quick
            test_image_matches_clone;
        ] );
    ]
