(** A dirty-page ledger over a zero-background byte store.

    The store is cut into 4 KiB pages, and the ledger keeps one state
    per page: known zero, possibly non-zero with its digest stale, or
    non-zero with its digest cached.  Every write goes through this
    module and marks the pages it touches, so the engine-state
    operations built on it — {!digest}, {!image} and {!load} — visit
    only pages written since they were last known to be zero.  Their
    cost is O(touched pages) plus a scan of one state byte per page.

    The same write hook drives the page-granular copy-on-write
    transaction journal: the first write to a page inside a transaction
    saves the page's pre-image, and {!rollback} blits the pre-images
    back. *)

type t

(** An open transaction, begun with {!begin_txn} and finished with
    exactly one of {!rollback} or {!commit}. *)
type txn

(** An all-zero store of the given length. *)
val create : int -> t

val length : t -> int

(** {2 Reads} *)

val get : t -> int -> char
val get_u16 : t -> int -> int
val get_i16 : t -> int -> int
val get_i32 : t -> int -> int32
val get_i64 : t -> int -> int64
val sub_string : t -> int -> int -> string

(** {2 Writes}  Each marks (and, inside a transaction, journals) every
    page it touches.  Multi-byte values are little-endian. *)

val set : t -> int -> char -> unit
val set_u16 : t -> int -> int -> unit
val set_i32 : t -> int -> int32 -> unit
val set_i64 : t -> int -> int64 -> unit
val blit : t -> src:int -> dst:int -> len:int -> unit
val blit_string : string -> t -> int -> unit
val fill : t -> int -> int -> char -> unit

(** {2 Transactions} *)

(** Start journaling writes.  Bytes in [keep = (lo, hi)] are left as
    they are by {!rollback}, and pages wholly inside it are never
    journaled.  Raises [Invalid_argument] if a transaction is already
    active (transactions do not nest). *)
val begin_txn : ?keep:int * int -> t -> txn

val in_txn : t -> bool

(** Restore every journaled page, outside the kept range, to its
    pre-transaction image. *)
val rollback : t -> txn -> unit

(** Discard the journal, keeping all writes. *)
val commit : t -> txn -> unit

(** {2 State} *)

(** Raw (16-byte) digest of bytes [\[0, prefix)] verbatim, combined with
    [(page index, page digest)] for every non-zero page at or above
    [from], in ascending order.  Only pages written since their last
    digest are re-digested.  History-independent: a page written and
    then zeroed again counts like a page never touched.  [from] must be
    page-aligned. *)
val digest : t -> prefix:int -> from:int -> string

(** The non-zero pages at or above [from], as [(offset, bytes)] sorted by
    offset (the last page is short if the store is).  [from] must be
    page-aligned. *)
val image : t -> from:int -> (int * string) list

(** Reset the store to [prefix] at offset 0 plus the given [(offset,
    bytes)] pages over zeros.  Only pages that may be non-zero are
    zeroed first.  Raises [Invalid_argument] inside a transaction. *)
val load : t -> prefix:string -> (int * string) list -> unit
