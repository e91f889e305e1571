open Quill_common

type entry = { keys : int Vec.t; mutable head : int }

type t = {
  name : string;
  tbl : (int, entry) Hashtbl.t;
}

let create ~name = { name; tbl = Hashtbl.create 1024 }
let name t = t.name

let add t skey pkey =
  match Hashtbl.find_opt t.tbl skey with
  | Some e -> Vec.push e.keys pkey
  | None ->
      let e = { keys = Vec.create (); head = 0 } in
      Vec.push e.keys pkey;
      Hashtbl.replace t.tbl skey e

let find t skey =
  match Hashtbl.find_opt t.tbl skey with
  | None -> []
  | Some e ->
      let acc = ref [] in
      for i = Vec.length e.keys - 1 downto e.head do
        acc := Vec.get e.keys i :: !acc
      done;
      !acc

let find_vec t skey =
  match Hashtbl.find_opt t.tbl skey with
  | None -> None
  | Some e -> Some e.keys

let pop_min t skey =
  match Hashtbl.find_opt t.tbl skey with
  | None -> None
  | Some e ->
      if e.head >= Vec.length e.keys then None
      else begin
        let k = Vec.get e.keys e.head in
        e.head <- e.head + 1;
        Some k
      end

let size t = Hashtbl.length t.tbl

let sorted_skeys t =
  (* lint: order-insensitive — bindings are collected then sorted *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  List.sort compare keys

let bindings t = List.map (fun sk -> (sk, find t sk)) (sorted_skeys t)

let clone t =
  let tbl = Hashtbl.create (max 1024 (Hashtbl.length t.tbl)) in
  List.iter
    (fun sk ->
      let e = Hashtbl.find t.tbl sk in
      Hashtbl.replace tbl sk
        { keys = Vec.of_array (Vec.to_array e.keys); head = e.head })
    (sorted_skeys t);
  { name = t.name; tbl }

let overwrite_from ~src dst =
  if dst.name <> src.name then invalid_arg "Index.overwrite_from: name";
  Hashtbl.reset dst.tbl;
  List.iter
    (fun sk ->
      let e = Hashtbl.find src.tbl sk in
      Hashtbl.replace dst.tbl sk
        { keys = Vec.of_array (Vec.to_array e.keys); head = e.head })
    (sorted_skeys src)
