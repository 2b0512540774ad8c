(* Dirty-page ledger: a zero-background byte store plus one state byte
   per 4 KiB page.  Invariant: a page in state [zero] is all zero bytes,
   and a page in state [cached] is non-zero with [digests.(p)] its
   digest.  Every write sets its pages to [stale]; settling a stale page
   (for a digest or an image) moves it back to [zero] or [cached]. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let zero = '\000'
let stale = '\001'
let cached = '\002'

(* Page-granular copy-on-write journal.  The first write touching a page
   inside a transaction saves the page's pre-image; rollback blits the
   pre-images back, except over the kept range [keep_lo, keep_hi). *)
type txn = {
  tx_pages : (int, Bytes.t) Hashtbl.t;  (** page index -> pre-image *)
  keep_lo : int;
  keep_hi : int;
}

type t = {
  bytes : Bytes.t;
  state : Bytes.t;  (** one of [zero], [stale], [cached] per page *)
  digests : string array;  (** per page; valid where the state is [cached] *)
  mutable txn : txn option;
}

let create n =
  let npages = (n + page_size - 1) lsr page_bits in
  {
    bytes = Bytes.make n '\000';
    state = Bytes.make npages zero;
    digests = Array.make npages "";
    txn = None;
  }

let length t = Bytes.length t.bytes

(* [(offset, length)] of page [p]; only the last page can be short. *)
let bounds t p =
  let off = p lsl page_bits in
  (off, min page_size (Bytes.length t.bytes - off))

let journal t tx p =
  if not (Hashtbl.mem tx.tx_pages p) then begin
    let off, len = bounds t p in
    if not (off >= tx.keep_lo && off + len <= tx.keep_hi) then
      Hashtbl.add tx.tx_pages p (Bytes.sub t.bytes off len)
  end

(** Mark (and journal) every page overlapping [addr, addr+len).  Called
    before every mutation. *)
let note t addr len =
  if len > 0 && addr >= 0 then begin
    let first = addr lsr page_bits in
    let last =
      min ((addr + len - 1) lsr page_bits) (Bytes.length t.state - 1)
    in
    match t.txn with
    | None ->
        for p = first to last do
          Bytes.unsafe_set t.state p stale
        done
    | Some tx ->
        for p = first to last do
          Bytes.unsafe_set t.state p stale;
          journal t tx p
        done
  end

(* ------------------------------------------------------------------ *)
(* Reads and writes *)

let get t a = Bytes.get t.bytes a
let get_u16 t a = Bytes.get_uint16_le t.bytes a
let get_i16 t a = Bytes.get_int16_le t.bytes a
let get_i32 t a = Bytes.get_int32_le t.bytes a
let get_i64 t a = Bytes.get_int64_le t.bytes a
let sub_string t off len = Bytes.sub_string t.bytes off len

let set t a c =
  note t a 1;
  Bytes.set t.bytes a c

let set_u16 t a v =
  note t a 2;
  Bytes.set_uint16_le t.bytes a v

let set_i32 t a v =
  note t a 4;
  Bytes.set_int32_le t.bytes a v

let set_i64 t a v =
  note t a 8;
  Bytes.set_int64_le t.bytes a v

let blit t ~src ~dst ~len =
  note t dst len;
  Bytes.blit t.bytes src t.bytes dst len

let blit_string s t off =
  note t off (String.length s);
  Bytes.blit_string s 0 t.bytes off (String.length s)

let fill t off len c =
  note t off len;
  Bytes.fill t.bytes off len c

(* ------------------------------------------------------------------ *)
(* Transactions *)

let begin_txn ?(keep = (0, 0)) t =
  if t.txn <> None then
    invalid_arg "Pages.begin_txn: transaction already active";
  let keep_lo, keep_hi = keep in
  let tx = { tx_pages = Hashtbl.create 64; keep_lo; keep_hi } in
  t.txn <- Some tx;
  tx

let in_txn t = t.txn <> None

let rollback t tx =
  Hashtbl.iter
    (fun p img ->
      let off = p lsl page_bits in
      let stop = off + Bytes.length img in
      let restore lo hi =
        if hi > lo then Bytes.blit img (lo - off) t.bytes lo (hi - lo)
      in
      restore off (min stop tx.keep_lo);
      restore (max off tx.keep_hi) stop;
      Bytes.unsafe_set t.state p stale)
    tx.tx_pages;
  t.txn <- None

let commit t (_ : txn) = t.txn <- None

(* ------------------------------------------------------------------ *)
(* State: digest, image, load *)

(* Call [f p] for every page [p >= first] not known to be zero, in
   ascending order.  All-zero runs of the state map are skipped eight
   pages at a time. *)
let iter_touched t ~first f =
  let n = Bytes.length t.state in
  let p = ref first in
  while !p < n do
    if !p land 7 = 0 && !p + 8 <= n && Bytes.get_int64_ne t.state !p = 0L
    then p := !p + 8
    else begin
      if Bytes.unsafe_get t.state !p <> zero then f !p;
      incr p
    end
  done

let first_page what from =
  if from land (page_size - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Pages.%s: offset %d is not page-aligned" what from);
  from lsr page_bits

(* Whether stale page [p] is all zero; if so it is re-marked [zero]. *)
let settles_zero t p =
  let off, len = bounds t p in
  let i = ref 0 in
  while !i + 8 <= len && Bytes.get_int64_ne t.bytes (off + !i) = 0L do
    i := !i + 8
  done;
  while !i < len && Bytes.get t.bytes (off + !i) = '\000' do
    incr i
  done;
  let z = !i = len in
  if z then Bytes.unsafe_set t.state p zero;
  z

let digest t ~prefix ~from =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Digest.subbytes t.bytes 0 prefix);
  iter_touched t ~first:(first_page "digest" from) (fun p ->
      let st = Bytes.unsafe_get t.state p in
      if st = cached || not (settles_zero t p) then begin
        if st <> cached then begin
          let off, len = bounds t p in
          t.digests.(p) <- Digest.subbytes t.bytes off len;
          Bytes.unsafe_set t.state p cached
        end;
        Buffer.add_int64_le buf (Int64.of_int p);
        Buffer.add_string buf t.digests.(p)
      end);
  Digest.string (Buffer.contents buf)

let image t ~from =
  let acc = ref [] in
  iter_touched t ~first:(first_page "image" from) (fun p ->
      if Bytes.unsafe_get t.state p = cached || not (settles_zero t p) then
        let off, len = bounds t p in
        acc := (off, Bytes.sub_string t.bytes off len) :: !acc);
  List.rev !acc

let load t ~prefix pages =
  if t.txn <> None then invalid_arg "Pages.load: transaction active";
  iter_touched t ~first:0 (fun p ->
      let off, len = bounds t p in
      Bytes.fill t.bytes off len '\000';
      Bytes.unsafe_set t.state p zero);
  blit_string prefix t 0;
  List.iter (fun (off, data) -> blit_string data t off) pages
