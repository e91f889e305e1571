(* Three arenas, each an int array with a fill mark:
   - [fields]: field states of 5 ints — field number, last writer, head
     of the reader chain, head of the adder chain, the row's next
     tracked field; [row.fstate] heads the row's list, and only fields
     actually accessed get a state;
   - [links]: chain cells of 2 ints — value, next cell;
   - [undo]: entries of 5 ints — bidx, field, kind (0 set, 1 add),
     value, next entry.
   An index into an arena is the offset of the cell's first int; [nil]
   (-1) ends a chain. *)
type t = {
  mutable epoch : int;
  mutable fields : int array;
  mutable nfields : int;
  mutable links : int array;
  mutable nlinks : int;
  mutable undo : int array;
  mutable nundo : int;
}

let nil = -1

let create () =
  {
    epoch = 0;
    fields = Array.make 1024 nil;
    nfields = 0;
    links = Array.make 1024 nil;
    nlinks = 0;
    undo = Array.make 1024 nil;
    nundo = 0;
  }

let begin_batch t =
  t.epoch <- t.epoch + 1;
  t.nfields <- 0;
  t.nlinks <- 0;
  t.nundo <- 0

(* A copy of [a] with room for at least [need] ints. *)
let grown a need =
  let b = Array.make (max need (2 * Array.length a)) nil in
  Array.blit a 0 b 0 (Array.length a);
  b

let touch t row = Row.reset_batch_state row t.epoch

let inserted t row ~bidx =
  row.Row.batch_tag <- t.epoch;
  row.Row.inserter <- bidx

(* The state of [field] of [row] — offset [f] with writer at [f + 1],
   readers at [f + 2] and adders at [f + 3] — created (no writer, empty
   chains) at the field's first tracked access this batch.  [f] walks
   the row's list. *)
let rec fstate t row field f =
  if f = nil then begin
    let f = t.nfields in
    if f + 5 > Array.length t.fields then t.fields <- grown t.fields (f + 5);
    let a = t.fields in
    a.(f) <- field;
    a.(f + 1) <- nil;
    a.(f + 2) <- nil;
    a.(f + 3) <- nil;
    a.(f + 4) <- row.Row.fstate;
    t.nfields <- f + 5;
    row.Row.fstate <- f;
    f
  end
  else if t.fields.(f) = field then f
  else fstate t row field t.fields.(f + 4)

let cons t v next =
  let i = t.nlinks in
  if i + 2 > Array.length t.links then t.links <- grown t.links (i + 2);
  t.links.(i) <- v;
  t.links.(i + 1) <- next;
  t.nlinks <- i + 2;
  i

(* An edge from [bidx] to [b]; none to itself or to no one. *)
let edge t ~bidx deps b = if b >= 0 && b <> bidx then cons t b deps else deps

(* Edges to every member of chain [c], newest first. *)
let rec edges_to t ~bidx deps c =
  if c = nil then deps
  else
    let v = t.links.(c) and c' = t.links.(c + 1) in
    edges_to t ~bidx (edge t ~bidx deps v) c'

let read t row ~field ~bidx ~deps =
  let deps = edge t ~bidx deps row.Row.inserter in
  let f = fstate t row field row.Row.fstate in
  let deps = edge t ~bidx deps t.fields.(f + 1) in
  let deps = edges_to t ~bidx deps t.fields.(f + 3) in
  t.fields.(f + 2) <- cons t bidx t.fields.(f + 2);
  deps

let push_undo t row ~bidx ~field ~kind ~v =
  let i = t.nundo in
  if i + 5 > Array.length t.undo then t.undo <- grown t.undo (i + 5);
  let u = t.undo in
  u.(i) <- bidx;
  u.(i + 1) <- field;
  u.(i + 2) <- kind;
  u.(i + 3) <- v;
  u.(i + 4) <- row.Row.undo;
  t.nundo <- i + 5;
  row.Row.undo <- i

let write t row ~field ~bidx ~deps =
  let deps = edge t ~bidx deps row.Row.inserter in
  let f = fstate t row field row.Row.fstate in
  let deps = edge t ~bidx deps t.fields.(f + 1) in
  let deps = edges_to t ~bidx deps t.fields.(f + 2) in
  let deps = edges_to t ~bidx deps t.fields.(f + 3) in
  t.fields.(f + 1) <- bidx;
  t.fields.(f + 2) <- nil;
  t.fields.(f + 3) <- nil;
  push_undo t row ~bidx ~field ~kind:0 ~v:row.Row.data.(field);
  deps

let add t row ~field ~delta ~bidx ~deps =
  let deps = edge t ~bidx deps row.Row.inserter in
  let f = fstate t row field row.Row.fstate in
  let deps = edge t ~bidx deps t.fields.(f + 1) in
  let deps = edges_to t ~bidx deps t.fields.(f + 2) in
  t.fields.(f + 3) <- cons t bidx t.fields.(f + 3);
  push_undo t row ~bidx ~field ~kind:1 ~v:delta;
  deps

let rec depends_on t c set =
  c <> nil && (set.(t.links.(c)) || depends_on t t.links.(c + 1) set)

let rollback t row set ~on_revert =
  let data = row.Row.data in
  (* [kept] is the newest entry left in the log, [nil] while none. *)
  let rec walk kept i =
    if i <> nil then begin
      let u = t.undo in
      let next = u.(i + 4) in
      if set.(u.(i)) then begin
        on_revert ();
        let field = u.(i + 1) in
        if u.(i + 2) = 0 then data.(field) <- u.(i + 3)
        else data.(field) <- data.(field) - u.(i + 3);
        if kept = nil then row.Row.undo <- next else u.(kept + 4) <- next;
        walk kept next
      end
      else walk i next
    end
  in
  walk nil row.Row.undo
