(* Outside-in per-layer host profiler.

   Spans are opened and closed only at seams the engines already call
   through from outside: the workload's [new_stream] generators and
   [exec] closure, every accessor of the [Exec.ctx] record [exec]
   receives, and the CDC subscriber callbacks.  Nothing inside the
   program under test is edited, so every virtual-time output stays
   bit-identical with the profiler on.

   The simulator runs many simulated threads on one OS thread, and an
   accessor can suspend inside [Sim.tick] while other simulated threads
   run.  A per-call stopwatch would then charge those threads' work to
   the suspended call.  Instead, every boundary event (enter or leave)
   closes the interval since the previous event, and that interval is
   charged to the innermost open span of the simulated thread that
   raised the event ([Sim.current_tid]), or to [engine] when that thread
   has no span open.  Self times therefore partition the wall time of
   the profiled window exactly. *)

open Quill_txn
module Sim = Quill_sim.Sim
module Cdc = Quill_cdc.Cdc

(* CLOCK_MONOTONIC in ns; the stub ships with bechamel.monotonic_clock.
   Declared here so the result stays unboxed (no allocation per event). *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* Layers. *)
let gen = 0
let txn = 1
let read = 2
let write = 3
let add = 4
let insert = 5
let input = 6
let output = 7
let found = 8
let cdc_apply = 9
let engine = 10
let n_layers = 11
let max_depth = 8

type t = {
  self_ns : int array;
  self_words : float array;  (** minor-heap words allocated *)
  calls : int array;
  mutable frags : int;  (** fragments in generated transactions *)
  mutable cdc_batches : int;  (** feed entries the wrapped consumer got *)
  mutable sim : Sim.t option;
  mutable stack : int array;  (** [slot * max_depth + depth] -> layer *)
  mutable depth : int array;  (** per slot *)
  mutable ctx_in : Exec.ctx array;  (** per slot: last ctx seen ... *)
  mutable ctx_out : Exec.ctx array;  (** ... and its wrapper *)
  mutable last_ns : int;
  last_words : float array;  (** one cell; a float field would box *)
}

let dummy_ctx =
  {
    Exec.read = (fun _ _ -> 0);
    write = (fun _ _ _ -> ());
    add = (fun _ _ _ -> ());
    insert = (fun _ ~key:_ _ -> ());
    input = (fun _ -> 0);
    output = (fun _ _ -> ());
    found = (fun _ -> false);
  }

let create () =
  {
    self_ns = Array.make n_layers 0;
    self_words = Array.make n_layers 0.0;
    calls = Array.make n_layers 0;
    frags = 0;
    cdc_batches = 0;
    sim = None;
    stack = Array.make (64 * max_depth) 0;
    depth = Array.make 64 0;
    ctx_in = Array.make 64 dummy_ctx;
    ctx_out = Array.make 64 dummy_ctx;
    last_ns = 0;
    last_words = [| 0.0 |];
  }

(* Slot 0 is code outside any simulated thread; slot [tid + 1] is
   simulated thread [tid]. *)
let slot t =
  match t.sim with
  | Some s when Sim.in_thread s ->
      let sl = Sim.current_tid s + 1 in
      if sl >= Array.length t.depth then begin
        let n = 2 * sl in
        let grow n a fill =
          Array.init n (fun i -> if i < Array.length a then a.(i) else fill)
        in
        t.depth <- grow n t.depth 0;
        t.ctx_in <- grow n t.ctx_in dummy_ctx;
        t.ctx_out <- grow n t.ctx_out dummy_ctx;
        t.stack <- grow (n * max_depth) t.stack 0
      end;
      sl
  | _ -> 0

(* Close the interval since the previous event and charge it to the
   innermost open span of [sl]. *)
let charge t sl =
  let now = now_ns () and w = Gc.minor_words () in
  let d = t.depth.(sl) in
  let l = if d = 0 then engine else t.stack.((sl * max_depth) + d - 1) in
  t.self_ns.(l) <- t.self_ns.(l) + (now - t.last_ns);
  t.self_words.(l) <- t.self_words.(l) +. (w -. t.last_words.(0));
  t.last_ns <- now;
  t.last_words.(0) <- w

let enter t sl l =
  charge t sl;
  let d = t.depth.(sl) in
  if d >= max_depth then failwith "Probe: span nesting too deep";
  t.stack.((sl * max_depth) + d) <- l;
  t.depth.(sl) <- d + 1;
  t.calls.(l) <- t.calls.(l) + 1

let leave t sl =
  charge t sl;
  t.depth.(sl) <- t.depth.(sl) - 1

(* Open the profiled window for one engine run on [sim]. *)
let start t sim =
  t.sim <- Some sim;
  Array.fill t.depth 0 (Array.length t.depth) 0;
  Array.fill t.ctx_in 0 (Array.length t.ctx_in) dummy_ctx;
  t.last_ns <- now_ns ();
  t.last_words.(0) <- Gc.minor_words ()

(* Close the window: the tail since the last event is engine time. *)
let stop t =
  charge t 0;
  t.sim <- None

(* One span helper per accessor arity, so that a call allocates no
   closure that would be charged to the caller's span. *)
let wrap_ctx t (c : Exec.ctx) : Exec.ctx =
  let span1 l f a =
    let sl = slot t in
    enter t sl l;
    match f a with
    | v ->
        leave t sl;
        v
    | exception e ->
        leave t sl;
        raise e
  in
  let span2 l f a b =
    let sl = slot t in
    enter t sl l;
    match f a b with
    | v ->
        leave t sl;
        v
    | exception e ->
        leave t sl;
        raise e
  in
  let span3 l f a b x =
    let sl = slot t in
    enter t sl l;
    match f a b x with
    | v ->
        leave t sl;
        v
    | exception e ->
        leave t sl;
        raise e
  in
  {
    Exec.read = span2 read c.Exec.read;
    write = span3 write c.Exec.write;
    add = span3 add c.Exec.add;
    insert =
      (fun frag ~key row ->
        let sl = slot t in
        enter t sl insert;
        match c.Exec.insert frag ~key row with
        | () -> leave t sl
        | exception e ->
            leave t sl;
            raise e);
    input = span1 input c.Exec.input;
    output = span2 output c.Exec.output;
    found = span1 found c.Exec.found;
  }

(* The wrapper for a ctx is built once per simulated thread and reused
   while that thread keeps passing the same ctx. *)
let ctx_for t sl c =
  if t.ctx_in.(sl) == c then t.ctx_out.(sl)
  else begin
    let w = wrap_ctx t c in
    t.ctx_in.(sl) <- c;
    t.ctx_out.(sl) <- w;
    w
  end

let wrap_workload t (wl : Workload.t) : Workload.t =
  let new_stream i =
    let g = wl.Workload.new_stream i in
    fun () ->
      let sl = slot t in
      enter t sl gen;
      let x = g () in
      leave t sl;
      t.frags <- t.frags + Array.length x.Txn.frags;
      x
  in
  let exec ctx tx frag =
    let sl = slot t in
    let c = ctx_for t sl ctx in
    enter t sl txn;
    match wl.Workload.exec c tx frag with
    | v ->
        leave t sl;
        v
    | exception e ->
        leave t sl;
        raise e
  in
  { wl with Workload.new_stream; exec }

let wrap_consumer t (c : Cdc.consumer) : Cdc.consumer =
  let around f =
    let sl = slot t in
    enter t sl cdc_apply;
    match f () with
    | () -> leave t sl
    | exception e ->
        leave t sl;
        raise e
  in
  {
    Cdc.on_batch =
      (fun b ->
        t.cdc_batches <- t.cdc_batches + 1;
        around (fun () -> c.Cdc.on_batch b));
    on_snapshot =
      (fun db ~batch_no -> around (fun () -> c.Cdc.on_snapshot db ~batch_no));
    on_caught_up =
      (fun ~batch_no -> around (fun () -> c.Cdc.on_caught_up ~batch_no));
  }

let total_ns t = Array.fold_left ( + ) 0 t.self_ns
