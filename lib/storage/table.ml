type t = {
  name : string;
  nfields : int;
  nparts : int;
  rows : Row.t array;
  part_size : int;
  home_fn : (int -> int) option;
  dyn : (int, Row.t) Hashtbl.t;
  dyn_home : (int, int) Hashtbl.t;
}

let create ?home_fn ~name ~nfields ~capacity ~nparts () =
  assert (capacity >= 0 && nparts > 0 && nfields > 0);
  let rows = Array.init capacity (fun key -> Row.make ~key ~nfields) in
  let part_size =
    if capacity = 0 then 1 else (capacity + nparts - 1) / nparts
  in
  {
    name;
    nfields;
    nparts;
    rows;
    part_size;
    home_fn;
    dyn = Hashtbl.create 64;
    dyn_home = Hashtbl.create 64;
  }

let name t = t.name
let nfields t = t.nfields
let capacity t = Array.length t.rows
let nparts t = t.nparts

(* Conflict-detector interposition point: when installed (opt-in, via
   the harness's --check-conflicts path) every row probe is reported.
   A single option-ref branch when disabled — the common case. *)
let probe_hook : (table:string -> key:int -> insert:bool -> unit) option ref
    =
  ref None

let set_probe_hook h = probe_hook := h

let probe t key ~insert =
  match !probe_hook with
  | None -> ()
  | Some h -> h ~table:t.name ~key ~insert

let dense t key =
  if key < 0 || key >= Array.length t.rows then
    invalid_arg (Printf.sprintf "Table.dense %s: key %d" t.name key);
  probe t key ~insert:false;
  t.rows.(key)

let find t key =
  probe t key ~insert:false;
  if key >= 0 && key < Array.length t.rows then Some t.rows.(key)
  else Hashtbl.find_opt t.dyn key

let find_exn t key =
  match find t key with
  | Some r -> r
  | None -> raise Not_found

let insert t ~home ~key payload =
  if (key >= 0 && key < Array.length t.rows) || Hashtbl.mem t.dyn key then
    invalid_arg (Printf.sprintf "Table.insert %s: duplicate key %d" t.name key);
  if Array.length payload <> t.nfields then
    invalid_arg "Table.insert: payload arity mismatch";
  probe t key ~insert:true;
  let row = Row.make ~key ~nfields:t.nfields in
  Array.blit payload 0 row.Row.data 0 t.nfields;
  Row.publish row;
  Hashtbl.replace t.dyn key row;
  Hashtbl.replace t.dyn_home key home;
  row

let home_of_key t key =
  match t.home_fn with
  | Some f -> f key
  | None ->
      if key >= 0 && key < Array.length t.rows then
        min (key / t.part_size) (t.nparts - 1)
      else (
        match Hashtbl.find_opt t.dyn_home key with
        | Some h -> h
        | None -> abs key mod t.nparts)

let remove t key =
  if key >= 0 && key < Array.length t.rows then
    invalid_arg "Table.remove: dense keys cannot be removed";
  Hashtbl.remove t.dyn key;
  Hashtbl.remove t.dyn_home key

let inserted_count t = Hashtbl.length t.dyn

let sorted_dyn_keys t =
  (* lint: order-insensitive — bindings are collected then sorted *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.dyn [] in
  List.sort compare keys

let iter_inserted f t =
  List.iter (fun k -> f (Hashtbl.find t.dyn k)) (sorted_dyn_keys t)

let clone t =
  let copy_row (r : Row.t) =
    let r' = Row.make ~key:r.Row.key ~nfields:t.nfields in
    Array.blit r.Row.data 0 r'.Row.data 0 t.nfields;
    Array.blit r.Row.committed 0 r'.Row.committed 0 t.nfields;
    r'.Row.dirty <- r.Row.dirty;
    r'
  in
  let dyn = Hashtbl.create (max 64 (Hashtbl.length t.dyn)) in
  List.iter
    (fun k -> Hashtbl.replace dyn k (copy_row (Hashtbl.find t.dyn k)))
    (sorted_dyn_keys t);
  {
    name = t.name;
    nfields = t.nfields;
    nparts = t.nparts;
    rows = Array.map copy_row t.rows;
    part_size = t.part_size;
    home_fn = t.home_fn;
    dyn;
    dyn_home = Hashtbl.copy t.dyn_home;
  }

let overwrite_from ~src dst =
  if dst.name <> src.name || dst.nfields <> src.nfields
     || Array.length dst.rows <> Array.length src.rows
  then invalid_arg "Table.overwrite_from: shape mismatch";
  Array.iteri
    (fun i (r : Row.t) ->
      let d = dst.rows.(i) in
      Array.blit r.Row.data 0 d.Row.data 0 dst.nfields;
      Array.blit r.Row.committed 0 d.Row.committed 0 dst.nfields;
      d.Row.dirty <- r.Row.dirty)
    src.rows;
  (* Dynamic region: drop rows absent in [src], then install fresh
     copies of every [src] row (insert-time state may differ). *)
  List.iter
    (fun k -> if not (Hashtbl.mem src.dyn k) then Hashtbl.remove dst.dyn k)
    (sorted_dyn_keys dst);
  List.iter
    (fun k ->
      let r = Hashtbl.find src.dyn k in
      let r' = Row.make ~key:k ~nfields:dst.nfields in
      Array.blit r.Row.data 0 r'.Row.data 0 dst.nfields;
      Array.blit r.Row.committed 0 r'.Row.committed 0 dst.nfields;
      r'.Row.dirty <- r.Row.dirty;
      Hashtbl.replace dst.dyn k r')
    (sorted_dyn_keys src);
  Hashtbl.reset dst.dyn_home;
  List.iter
    (fun k -> Hashtbl.replace dst.dyn_home k (Hashtbl.find src.dyn_home k))
    (sorted_dyn_keys src)

(* A flat image: dense committed payloads row-major in one int array, the
   few dense rows whose live payload or dirty bit differs from that, and
   the dynamic region with its homes in ascending key order. *)
type image = {
  i_name : string;
  i_nfields : int;
  i_committed : int array;
  i_live : (int * int array * bool) list;  (* (key, data, dirty) *)
  i_dyn : dyn_image array;
}

and dyn_image = {
  d_key : int;
  d_home : int;
  d_data : int array;
  d_committed : int array;
  d_dirty : bool;
}

let image ?reuse t =
  let nf = t.nfields in
  let len = Array.length t.rows * nf in
  let committed =
    match reuse with
    | Some img when Array.length img.i_committed = len -> img.i_committed
    | Some _ | None -> Array.make len 0
  in
  let live = ref [] in
  for i = Array.length t.rows - 1 downto 0 do
    let r = t.rows.(i) in
    let c : int array = r.Row.committed in
    let base = i * nf in
    for f = 0 to nf - 1 do
      Array.unsafe_set committed (base + f) (Array.unsafe_get c f)
    done;
    if r.Row.dirty || not (Row.payload_equal r.Row.data c) then
      live := (i, Array.copy r.Row.data, r.Row.dirty) :: !live
  done;
  let dyn =
    List.map
      (fun k ->
        let r = Hashtbl.find t.dyn k in
        {
          d_key = k;
          d_home = Hashtbl.find t.dyn_home k;
          d_data = Array.copy r.Row.data;
          d_committed = Array.copy r.Row.committed;
          d_dirty = r.Row.dirty;
        })
      (sorted_dyn_keys t)
  in
  {
    i_name = t.name;
    i_nfields = nf;
    i_committed = committed;
    i_live = !live;
    i_dyn = Array.of_list dyn;
  }

let restore img dst =
  let nf = dst.nfields in
  if dst.name <> img.i_name || nf <> img.i_nfields
     || Array.length dst.rows * nf <> Array.length img.i_committed
  then invalid_arg "Table.restore: shape mismatch";
  let committed = img.i_committed in
  Array.iteri
    (fun i (d : Row.t) ->
      let base = i * nf in
      let dc : int array = d.Row.committed and dd : int array = d.Row.data in
      for f = 0 to nf - 1 do
        let v = Array.unsafe_get committed (base + f) in
        Array.unsafe_set dc f v;
        Array.unsafe_set dd f v
      done;
      d.Row.dirty <- false)
    dst.rows;
  List.iter
    (fun (key, data, dirty) ->
      let d = dst.rows.(key) in
      Array.blit data 0 d.Row.data 0 nf;
      d.Row.dirty <- dirty)
    img.i_live;
  (* Dynamic region, as in [overwrite_from]: drop rows absent from the
     image, then install fresh rows for every imaged one. *)
  let keep = Hashtbl.create (max 16 (Array.length img.i_dyn)) in
  Array.iter (fun d -> Hashtbl.replace keep d.d_key ()) img.i_dyn;
  List.iter
    (fun k -> if not (Hashtbl.mem keep k) then Hashtbl.remove dst.dyn k)
    (sorted_dyn_keys dst);
  Array.iter
    (fun d ->
      let r = Row.make ~key:d.d_key ~nfields:nf in
      Array.blit d.d_data 0 r.Row.data 0 nf;
      Array.blit d.d_committed 0 r.Row.committed 0 nf;
      r.Row.dirty <- d.d_dirty;
      Hashtbl.replace dst.dyn d.d_key r)
    img.i_dyn;
  Hashtbl.reset dst.dyn_home;
  Array.iter (fun d -> Hashtbl.replace dst.dyn_home d.d_key d.d_home) img.i_dyn

let iter_dense f t = Array.iter f t.rows
let row_bytes t = t.nfields * 8
