(** Byte-addressed linear memory for compiled Terra code.

    Address 0 is the null page and always faults; a static-data region is
    bump-allocated from [statics_base]; the heap and stack share the rest
    (heap grows up, stack grows down from [stack_top]). *)

exception Fault of int * string

type t

(** An open transaction ({!Pages.txn} under the statics-floor rule),
    begun with {!begin_txn} and finished with exactly one of {!rollback}
    or {!commit}. *)
type txn

val create : ?bytes:int -> unit -> t
val size : t -> int

(** Start journaling writes. Raises [Invalid_argument] if a transaction
    is already active (transactions do not nest). *)
val begin_txn : t -> txn

val in_txn : t -> bool

(** Restore every journaled page to its pre-transaction image.  Statics
    bump-allocated during the transaction are kept (compile-time
    artifacts — interned strings, vtables — are monotone, like compiled
    code); everything else, including pre-existing statics such as Terra
    globals, is restored byte-for-byte. *)
val rollback : t -> txn -> unit

(** Discard the journal, keeping all writes. *)
val commit : t -> txn -> unit

(** Current statics bump pointer — capture before a transaction to later
    fingerprint exactly the state that a rollback restores. *)
val statics_mark : t -> int

(** Hex digest of the transactional portion of the arena: statics below
    [statics_upto] verbatim, combined with the per-page digests of the
    non-zero heap and stack pages ({!Pages.digest}).  Costs O(pages
    written since the last fingerprint), not O(arena), and depends only
    on the bytes, never on the write history. *)
val fingerprint : ?statics_upto:int -> t -> string

(** Attach a TerraSan shadow map; every subsequent access is checked
    against it in addition to the arena bounds. *)
val attach_shadow : t -> Shadow.t -> unit

val shadow : t -> Shadow.t option
val checked : t -> bool

(** Attach a Tprof probe; sanitizer shadow checks are counted against it
    when profiling is on (the probe never alters the access itself). *)
val set_probe : t -> Tprof.Probe.t -> unit
val statics_base : int
val heap_base : t -> int
val heap_limit : t -> int
val stack_top : t -> int

(** Bump-allocate static storage (for globals and constant data). *)
val alloc_static : t -> align:int -> int -> int

val get_u8 : t -> int -> int
val get_i8 : t -> int -> int
val get_u16 : t -> int -> int
val get_i16 : t -> int -> int
val get_i32 : t -> int -> int32
val get_i64 : t -> int -> int64
val get_f32 : t -> int -> float
val get_f64 : t -> int -> float
val set_u8 : t -> int -> int -> unit
val set_u16 : t -> int -> int -> unit
val set_i32 : t -> int -> int32 -> unit
val set_i64 : t -> int -> int64 -> unit
val set_f32 : t -> int -> float -> unit
val set_f64 : t -> int -> float -> unit
val blit : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> int -> int -> char -> unit

(** Longest C string {!get_cstring} will scan before faulting. *)
val max_cstring : int

(** Read a NUL-terminated string; faults if no NUL appears within
    {!max_cstring} bytes. *)
val get_cstring : t -> int -> string

(** Silently corrupt one byte, bypassing all checks (fault injection). *)
val corrupt_byte : t -> int -> unit

(** Write [s] plus a terminating NUL at [addr]. *)
val set_cstring : t -> int -> string -> unit

(** Checkpoint image for {!Session}: statics [\[0, statics_mark)]
    verbatim and the non-zero 4 KiB pages of [\[heap_base, size)] as
    [(offset, bytes)], sorted by offset.  O(touched pages). *)
val image : t -> string * (int * string) list

(** Reset the arena to a checkpoint {!image} over zeros and the statics
    bump pointer to [statics_ptr].  Only pages that may be non-zero are
    zeroed.  Raises [Invalid_argument] inside a transaction. *)
val load : t -> statics_ptr:int -> statics:string -> (int * string) list -> unit
