(* [ats]/[ords]/[slots] are the heap proper: position [i] holds the key
   [(ats.(i), ords.(i))] of an element whose payload sits in
   [vals.(slots.(i))].  Positions [len ..] of [slots] hold the free
   payload slots, so [slots] is always a permutation of [0 .. cap - 1]:
   a push takes the slot at [slots.(len)], a pop hands its slot back at
   the position the shrinking heap vacates.  Sifts move only ints; each
   payload is written once on push and cleared once on pop. *)
type 'a t = {
  mutable ats : int array;
  mutable ords : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  { ats = [||]; ords = [||]; slots = [||]; vals = [||]; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

(* Annotated [int]: left polymorphic, the comparisons would be calls to
   the C polymorphic compare. *)
let[@inline] less (a_at : int) (a_ord : int) b_at b_ord =
  a_at < b_at || (a_at = b_at && a_ord < b_ord)

(* Only called when full, so every old slot is in use and the new ones
   are [len .. cap - 1]. *)
let grow t =
  let cap = max 16 (2 * t.len) in
  let ats = Array.make cap 0 and ords = Array.make cap 0 in
  let slots = Array.init cap (fun i -> i) in
  let vals = Array.make cap t.dummy in
  Array.blit t.ats 0 ats 0 t.len;
  Array.blit t.ords 0 ords 0 t.len;
  Array.blit t.slots 0 slots 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.ats <- ats;
  t.ords <- ords;
  t.slots <- slots;
  t.vals <- vals

(* Both sifts move a hole instead of swapping, and write the carried
   element once where the hole stops. *)
let push t ~at ~ord x =
  if t.len = Array.length t.ats then grow t;
  let slot = t.slots.(t.len) in
  t.vals.(slot) <- x;
  let i = ref t.len and sifting = ref true in
  t.len <- t.len + 1;
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if less at ord t.ats.(p) t.ords.(p) then begin
      t.ats.(!i) <- t.ats.(p);
      t.ords.(!i) <- t.ords.(p);
      t.slots.(!i) <- t.slots.(p);
      i := p
    end
    else sifting := false
  done;
  t.ats.(!i) <- at;
  t.ords.(!i) <- ord;
  t.slots.(!i) <- slot

let min_at t =
  if t.len = 0 then invalid_arg "Heap.min_at: empty";
  t.ats.(0)

let pop t =
  if t.len = 0 then invalid_arg "Heap.pop: empty";
  let top = t.slots.(0) in
  let x = t.vals.(top) in
  t.vals.(top) <- t.dummy;
  let n = t.len - 1 in
  t.len <- n;
  let at = t.ats.(n) and ord = t.ords.(n) and slot = t.slots.(n) in
  if n > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && less t.ats.(r) t.ords.(r) t.ats.(l) t.ords.(l) then r
          else l
        in
        if less t.ats.(c) t.ords.(c) at ord then begin
          t.ats.(!i) <- t.ats.(c);
          t.ords.(!i) <- t.ords.(c);
          t.slots.(!i) <- t.slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    t.ats.(!i) <- at;
    t.ords.(!i) <- ord;
    t.slots.(!i) <- slot
  end;
  (* Position [n] just left the heap: it now holds a free slot. *)
  t.slots.(n) <- top;
  x
