(** TerraSan's shadow map: one state byte per heap byte, plus a registry
    of live and quarantined block bounds so a violation can name the
    block it concerns.  Only the heap region of the arena is shadowed;
    statics and the stack are covered by the arena-level bounds check in
    {!Mem}. *)

type state = Unaddressable | Addressable | Freed | Redzone

type kind =
  | Heap_overflow  (** access landed in a redzone bordering a block *)
  | Use_after_free  (** access to a quarantined (freed) block *)
  | Oob  (** access to heap bytes no allocation covers *)
  | Double_free  (** free of an already-freed block *)
  | Invalid_free  (** free of a pointer malloc never returned *)
  | Invalid_realloc  (** realloc of a pointer malloc never returned *)

type violation = {
  vkind : kind;
  vaddr : int;  (** first faulting byte (or the freed pointer) *)
  vlen : int;  (** access size in bytes; 0 for free-class bugs *)
  vwhat : string;  (** the operation, e.g. "store i32" or "free" *)
  vblock : (int * int) option;  (** concerned block: (payload, size) *)
}

exception Violation of violation

(* Per-byte states, stored as chars in a flat byte map. *)
let chr_unaddressable = '\000'
let chr_addressable = '\001'
let chr_freed = '\002'
let chr_redzone = '\003'

let chr_of_state = function
  | Unaddressable -> chr_unaddressable
  | Addressable -> chr_addressable
  | Freed -> chr_freed
  | Redzone -> chr_redzone

let state_of_chr = function
  | '\001' -> Addressable
  | '\002' -> Freed
  | '\003' -> Redzone
  | _ -> Unaddressable

(* Shadow-map transaction: the map's {!Pages} journal plus full copies
   of the (small) block registries, so a rollback restores the
   sanitizer's view of the heap exactly alongside the heap bytes
   themselves. *)
type txn = {
  tx_pages : Pages.txn;
  tx_live : (int, int * int * int) Hashtbl.t;
  tx_freed : (int, int * int * int) Hashtbl.t;
}

type t = {
  base : int;
  limit : int;
  map : Pages.t;  (** one state byte per heap byte, at [addr - base] *)
  live : (int, int * int * int) Hashtbl.t;
      (** payload -> (requested size, block lo, block hi) *)
  freed : (int, int * int * int) Hashtbl.t;  (** quarantined blocks *)
}

let create ~base ~limit =
  {
    base;
    limit;
    map = Pages.create (limit - base);
    live = Hashtbl.create 64;
    freed = Hashtbl.create 64;
  }

let base t = t.base
let limit t = t.limit
let covers t addr = addr >= t.base && addr < t.limit

let state_at t addr =
  if covers t addr then state_of_chr (Pages.get t.map (addr - t.base))
  else Addressable

(* ------------------------------------------------------------------ *)
(* Transactions *)

let begin_txn t =
  {
    tx_pages = Pages.begin_txn t.map;
    tx_live = Hashtbl.copy t.live;
    tx_freed = Hashtbl.copy t.freed;
  }

let restore_tbl dst src =
  Hashtbl.reset dst;
  Hashtbl.iter (Hashtbl.replace dst) src

let rollback t tx =
  Pages.rollback t.map tx.tx_pages;
  restore_tbl t.live tx.tx_live;
  restore_tbl t.freed tx.tx_freed

let commit t tx = Pages.commit t.map tx.tx_pages

(** Hex digest of the whole sanitizer state: the per-page digests of the
    non-zero pages of the map ({!Pages.digest}, so O(pages marked since
    the last fingerprint)) plus the sorted live and quarantined block
    registries. *)
let fingerprint t =
  let tbl name tbl =
    let rows =
      Hashtbl.fold
        (fun p (sz, lo, hi) acc ->
          Printf.sprintf "%s:%d:%d:%d:%d" name p sz lo hi :: acc)
        tbl []
    in
    String.concat ";" (List.sort compare rows)
  in
  Digest.to_hex
    (Digest.string
       (Pages.digest t.map ~prefix:0 ~from:0
       ^ tbl "L" t.live ^ tbl "F" t.freed))

let mark t ~addr ~len st =
  if len > 0 then begin
    let lo = max addr t.base and hi = min (addr + len) t.limit in
    if hi > lo then Pages.fill t.map (lo - t.base) (hi - lo) (chr_of_state st)
  end

(** Fault-injection entry: make one byte unaddressable so the next
    access to it raises a [san.oob] violation. *)
let poison t addr = mark t ~addr ~len:1 Unaddressable

(* ------------------------------------------------------------------ *)
(* Block registry (for violation attribution and leak reports) *)

let note_block t ~payload ~size ~lo ~hi =
  Hashtbl.replace t.live payload (size, lo, hi)

(** Move a block from the live set to the quarantined set. *)
let retire_block t payload =
  match Hashtbl.find_opt t.live payload with
  | Some info ->
      Hashtbl.remove t.live payload;
      Hashtbl.replace t.freed payload info
  | None -> ()

(** Drop a quarantined block entirely (its memory is being recycled). *)
let forget_block t payload = Hashtbl.remove t.freed payload

let find_in tbl addr =
  Hashtbl.fold
    (fun payload (size, lo, hi) acc ->
      match acc with
      | Some _ -> acc
      | None -> if addr >= lo && addr < hi then Some (payload, size) else None)
    tbl None

(** The block an address belongs to — a live block (including its
    redzones) first, then a quarantined one. *)
let find_block t addr =
  match find_in t.live addr with
  | Some _ as b -> b
  | None -> find_in t.freed addr

(* ------------------------------------------------------------------ *)
(* Checking *)

let violation t ~kind ~what ~addr ~len =
  Violation
    { vkind = kind; vaddr = addr; vlen = len; vwhat = what;
      vblock = find_block t addr }

(** Check an access of [len] bytes at [addr]; only the part overlapping
    the shadowed heap region is inspected.  Raises {!Violation} at the
    first non-addressable byte. *)
let check t ~what ~addr ~len =
  let lo = if addr < t.base then t.base else addr in
  let hi = min (addr + len) t.limit in
  let i = ref lo in
  while !i < hi do
    if Pages.get t.map (!i - t.base) <> chr_addressable then begin
      let bad = !i in
      let kind =
        match state_of_chr (Pages.get t.map (bad - t.base)) with
        | Redzone -> Heap_overflow
        | Freed -> Use_after_free
        | _ -> Oob
      in
      raise (violation t ~kind ~what ~addr:bad ~len)
    end;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Rendering *)

let kind_code = function
  | Heap_overflow -> "san.heap-overflow"
  | Use_after_free -> "san.use-after-free"
  | Oob -> "san.oob"
  | Double_free -> "san.double-free"
  | Invalid_free | Invalid_realloc -> "san.invalid-free"

let describe v =
  let block =
    match v.vblock with
    | Some (p, s) -> Printf.sprintf " (block [%#x,%#x) of %d bytes)" p (p + s) s
    | None -> ""
  in
  match v.vkind with
  | Heap_overflow ->
      Printf.sprintf "heap overflow: %s of %d bytes touches redzone byte %#x%s"
        v.vwhat v.vlen v.vaddr block
  | Use_after_free ->
      Printf.sprintf "use after free: %s of %d bytes at %#x%s" v.vwhat v.vlen
        v.vaddr block
  | Oob ->
      Printf.sprintf
        "out-of-bounds heap access: %s of %d bytes at %#x, no allocation \
         covers this address"
        v.vwhat v.vlen v.vaddr
  | Double_free -> Printf.sprintf "double free of %#x%s" v.vaddr block
  | Invalid_free ->
      Printf.sprintf "invalid free of %#x: not a pointer returned by malloc%s"
        v.vaddr block
  | Invalid_realloc ->
      Printf.sprintf
        "realloc of invalid pointer %#x: not a pointer returned by malloc%s"
        v.vaddr block

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(** The non-zero pages of the map as [(offset, bytes)], sorted. *)
let image t = Pages.image t.map ~from:0

let entries t =
  let dump tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (dump t.live, dump t.freed)

let load t pages ~live ~freed =
  Pages.load t.map ~prefix:"" pages;
  Hashtbl.reset t.live;
  List.iter (fun (k, v) -> Hashtbl.replace t.live k v) live;
  Hashtbl.reset t.freed;
  List.iter (fun (k, v) -> Hashtbl.replace t.freed k v) freed
