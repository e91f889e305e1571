(** In-memory rows.

    A row carries its payload ([data], the live version), a [committed]
    copy used by two-version schemes (QueCC read-committed isolation, OCC
    reads), and the union of per-protocol concurrency-control metadata.
    Only the protocol driving a given run touches its own metadata fields;
    keeping them in one record (as DBx1000/ExpoDB do) lets every protocol
    run against the same storage engine.

    The simulation substrate is cooperative, so plain mutable fields are
    race-free; virtual-time ordering of accesses is provided by
    {!Quill_sim.Sim}. *)

(** Undo-log entry payload: revert a [Uset] by restoring the old value,
    a [Uadd] by subtracting the delta (commutative updates). *)
type uop = Uset of int | Uadd of int

type t = {
  key : int;
  data : int array;                 (** live / latest version *)
  committed : int array;            (** committed version (2V schemes) *)
  (* --- 2PL --- *)
  mutable lock : int;               (** 0 free, -1 write-locked, n>0 readers *)
  mutable lock_tx : int;            (** owning writer txn (ts for wait-die) *)
  (* --- Silo --- *)
  mutable tid : int;                (** version counter; odd = latched *)
  (* --- TicToc --- *)
  mutable wts : int;
  mutable rts : int;
  (* --- MVTO --- *)
  mutable versions : version list;  (** newest first *)
  (* --- QueCC per-batch state (touched only by the home executor) --- *)
  mutable batch_tag : int;          (** batch id for lazy reset *)
  mutable inserter : int;           (** batch txn index that inserted the row
                                        this batch, -1 otherwise *)
  mutable fstate : (int * int list * int list) array;
      (** per-field speculation state: (last in-batch writer or -1,
          readers since that write, commutative adders since that
          write); [[||]] when untracked this batch *)
  mutable undo : (int * int * uop) list;
      (** (txn idx, field, revert info), newest first *)
  mutable dirty : bool;             (** live differs from committed *)
}

and version = {
  v_data : int array;
  v_wts : int;
  mutable v_rts : int;
}

val make : key:int -> nfields:int -> t
val nfields : t -> int

val payload_equal : int array -> int array -> bool
(** Field-by-field equality of two payloads, without allocating. *)

val publish : t -> unit
(** Copy live data into the committed version and clear [dirty]. *)

val restore : t -> int array -> unit
(** Overwrite live data with a saved pre-image. *)

val revert : t -> unit
(** Discard uncommitted live data: copy the committed version back over
    [data] and clear [dirty].  Crash recovery rolls a node's touched
    rows back to the last published batch boundary with this. *)

val reset_batch_state : t -> int -> unit
(** [reset_batch_state row batch] lazily (re)initializes the QueCC
    per-batch fields when the row is first touched in [batch]. *)
