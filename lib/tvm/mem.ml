exception Fault of int * string

(* Arena bytes live in a {!Pages} ledger, which owns the write hook,
   the copy-on-write transaction journal and the page-granular state
   operations.  Mem adds only the statics-floor rule: statics
   bump-allocated *during* a transaction (addresses at or above the
   statics pointer when it began) are compile-time artifacts — interned
   strings, vtables — and are monotone like compiled code, so a rollback
   keeps them. *)
type txn = Pages.txn

type t = {
  pages : Pages.t;
  mutable statics_ptr : int;
  heap_base : int;
  heap_limit : int;
  stack_top : int;
  mutable shadow : Shadow.t option;  (** present iff checked mode is on *)
  mutable probe : Tprof.Probe.t option;  (** profiler, if attached *)
}

let statics_base = 4096
let statics_limit = 1 lsl 20
let default_bytes = 192 * (1 lsl 20)
let stack_bytes = 8 * (1 lsl 20)

let create ?(bytes = default_bytes) () =
  let bytes = max bytes (statics_limit + stack_bytes + (1 lsl 20)) in
  {
    pages = Pages.create bytes;
    statics_ptr = statics_base;
    heap_base = statics_limit;
    heap_limit = bytes - stack_bytes;
    stack_top = bytes;
    shadow = None;
    probe = None;
  }

(* ------------------------------------------------------------------ *)
(* Transactions *)

let begin_txn t = Pages.begin_txn t.pages ~keep:(t.statics_ptr, statics_limit)
let in_txn t = Pages.in_txn t.pages
let statics_mark t = t.statics_ptr
let rollback t tx = Pages.rollback t.pages tx
let commit t tx = Pages.commit t.pages tx

(** Digest of the transactional portion of the arena: statics below
    [statics_upto] verbatim (monotone compile-time statics above it are
    excluded), combined with the digests of the non-zero heap and stack
    pages (see {!Pages.digest}).  Two equal fingerprints mean the
    session data state is byte-identical. *)
let fingerprint ?statics_upto t =
  let upto =
    match statics_upto with
    | Some n -> min n statics_limit
    | None -> t.statics_ptr
  in
  Digest.to_hex (Pages.digest t.pages ~prefix:(max 0 upto) ~from:statics_limit)

let attach_shadow t sh = t.shadow <- Some sh
let shadow t = t.shadow
let checked t = t.shadow <> None
let set_probe t p = t.probe <- Some p

let size t = Pages.length t.pages
let heap_base t = t.heap_base
let heap_limit t = t.heap_limit
let stack_top t = t.stack_top

let align_up n a = (n + a - 1) / a * a

let alloc_static t ~align n =
  let addr = align_up t.statics_ptr (max 1 align) in
  if addr + n > statics_limit then raise (Fault (addr, "static region full"));
  t.statics_ptr <- addr + n;
  addr

(* [len < 0] must fault (a negative length slips past an [addr + len]
   upper-bound test), and the upper bound is phrased as a subtraction so
   a huge [len] cannot wrap [addr + len] around. *)
let check t addr len what =
  if len < 0 then raise (Fault (addr, what ^ " (negative length)"));
  if addr < statics_base || addr > Pages.length t.pages - len then
    raise (Fault (addr, what));
  match t.shadow with
  | None -> ()
  | Some sh ->
      (match t.probe with
      | Some p when p.Tprof.Probe.active -> Tprof.Probe.redzone_check p
      | _ -> ());
      Shadow.check sh ~what ~addr ~len

let get_u8 t a =
  check t a 1 "load u8";
  Char.code (Pages.get t.pages a)

let get_i8 t a =
  let v = get_u8 t a in
  if v >= 128 then v - 256 else v

let get_u16 t a =
  check t a 2 "load u16";
  Pages.get_u16 t.pages a

let get_i16 t a =
  check t a 2 "load i16";
  Pages.get_i16 t.pages a

let get_i32 t a =
  check t a 4 "load i32";
  Pages.get_i32 t.pages a

let get_i64 t a =
  check t a 8 "load i64";
  Pages.get_i64 t.pages a

let get_f32 t a = Int32.float_of_bits (get_i32 t a)
let get_f64 t a = Int64.float_of_bits (get_i64 t a)

let set_u8 t a v =
  check t a 1 "store u8";
  Pages.set t.pages a (Char.unsafe_chr (v land 0xff))

let set_u16 t a v =
  check t a 2 "store u16";
  Pages.set_u16 t.pages a (v land 0xffff)

let set_i32 t a v =
  check t a 4 "store i32";
  Pages.set_i32 t.pages a v

let set_i64 t a v =
  check t a 8 "store i64";
  Pages.set_i64 t.pages a v

let set_f32 t a v = set_i32 t a (Int32.bits_of_float v)
let set_f64 t a v = set_i64 t a (Int64.bits_of_float v)

let blit t ~src ~dst ~len =
  check t src len "memcpy src";
  check t dst len "memcpy dst";
  Pages.blit t.pages ~src ~dst ~len

let fill t addr len c =
  check t addr len "memset";
  Pages.fill t.pages addr len c

(* A C string that long is a bug, not data: stop scanning instead of
   walking the rest of the arena. *)
let max_cstring = 1 lsl 20

let get_cstring t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if a - addr >= max_cstring then
      raise
        (Fault
           ( addr,
             Printf.sprintf "unterminated string (no NUL within %d bytes)"
               max_cstring ));
    let c = get_u8 t a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

(** Fault-injection entry: silently corrupt one byte, bypassing all
    checks — models a flipped bit in an unchecked heap. *)
let corrupt_byte t addr =
  if addr >= 0 && addr < Pages.length t.pages then
    Pages.set t.pages addr '\xA5'

let set_cstring t addr s =
  check t addr (String.length s + 1) "store string";
  Pages.blit_string s t.pages addr;
  set_u8 t (addr + String.length s) 0

(* ------------------------------------------------------------------ *)
(* Checkpoint support *)

(** The checkpoint image: statics [\[0, statics_ptr)] verbatim and the
    non-zero pages of [\[heap_base, size)]. *)
let image t =
  ( Pages.sub_string t.pages 0 t.statics_ptr,
    Pages.image t.pages ~from:t.heap_base )

let load t ~statics_ptr ~statics pages =
  Pages.load t.pages ~prefix:statics pages;
  t.statics_ptr <- statics_ptr
