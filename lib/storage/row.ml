type t = {
  key : int;
  data : int array;
  committed : int array;
  mutable lock : int;
  mutable lock_tx : int;
  mutable tid : int;
  mutable wts : int;
  mutable rts : int;
  mutable versions : version list;
  mutable batch_tag : int;
  mutable inserter : int;
  mutable fstate : int;
  mutable undo : int;
  mutable dirty : bool;
}

and version = {
  v_data : int array;
  v_wts : int;
  mutable v_rts : int;
}

let make ~key ~nfields =
  {
    key;
    data = Array.make nfields 0;
    committed = Array.make nfields 0;
    lock = 0;
    lock_tx = max_int;
    tid = 0;
    wts = 0;
    rts = 0;
    versions = [];
    batch_tag = -1;
    inserter = -1;
    fstate = -1;
    undo = -1;
    dirty = false;
  }

let nfields t = Array.length t.data

let rec equal_from (a : int array) (b : int array) i =
  i = Array.length a
  || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1))

let payload_equal a b = Array.length a = Array.length b && equal_from a b 0

let publish t =
  Array.blit t.data 0 t.committed 0 (Array.length t.data);
  t.dirty <- false

let restore t saved = Array.blit saved 0 t.data 0 (Array.length t.data)

let revert t =
  Array.blit t.committed 0 t.data 0 (Array.length t.data);
  t.dirty <- false

let reset_batch_state t epoch =
  if t.batch_tag <> epoch then begin
    t.batch_tag <- epoch;
    t.inserter <- -1;
    t.fstate <- -1;
    t.undo <- -1
  end
