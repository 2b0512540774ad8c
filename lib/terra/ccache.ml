(** Persistent, content-addressed compilation cache — the [saveobj]-style
    AOT reuse path (paper §4.1: Terra compiles offline and reuses emitted
    objects across processes).

    Entries are keyed by a canonical hash of the *specialized, typechecked*
    AST plus every context-dependent input codegen reads — opt level,
    checkedness, the machine model, interned-string addresses, import
    indices, VM function ids, struct layouts — and a cache-format version.
    The value is the post-Topt IR of one function.  Because the key pins
    the whole compilation environment, a hit is only possible when the
    cached IR is byte-for-byte what [Compile] + [Topt] would produce, so
    warm and cold runs are observationally identical.

    Two identities are process-local and must not leak into keys:
    symbol ids ({!Tast.next_symid}) are renumbered in first-occurrence
    order, and struct ids ({!Types.next_sid}) are replaced by a structural
    serialization of the layout with visit-order back-references.

    The on-disk format reuses the {!Blobio} magic+length+digest framing,
    and every load is validated structurally before any instruction can
    reach the VM (the {!Objfile} hardening discipline): corruption,
    truncation, staleness, and hostile well-formed-but-malformed entries
    all surface as a counted [ccache.bad-entry] followed by a transparent
    recompile that overwrites the bad file — never a crash or wrong code.

    Concurrency: entries are written to a unique temp file and renamed
    into place (atomic on POSIX, last writer wins — both writers hold
    identical bytes, by determinism of the compiler), the in-memory
    overlay is mutex-guarded, and statistics are [Atomic] so engines on
    concurrent domains can share one handle. *)

module Ir = Tvm.Ir
module Vm = Tvm.Vm

(* Bump on any change to the key derivation or entry layout: stale
   entries from older formats must read as bad, not as wrong code. *)
let format_version = 1

let entry_magic = "TERRACC1\n"
let pack_magic = "TERRACP1\n"

type entry = {
  e_version : int;
  e_key : string;  (** hex key echo, checked against the requested key *)
  e_name : string;
  e_func : Ir.func;  (** post-Topt IR *)
}

type t = {
  dir : string option;  (** None: in-memory only (--emit/--preload) *)
  mem : (string, entry) Hashtbl.t;  (** overlay: stores, hits, preloads *)
  lock : Mutex.t;  (** guards [mem] and [last_error] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  bad : int Atomic.t;
  mutable last_error : string option;
}

type counts = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bad_entries : int;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o777 with Sys_error _ when Sys.file_exists d -> ()
  end

let create ?dir () =
  Option.iter mkdir_p dir;
  {
    dir;
    mem = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    bad = Atomic.make 0;
    last_error = None;
  }

let counts t =
  {
    c_hits = Atomic.get t.hits;
    c_misses = Atomic.get t.misses;
    c_stores = Atomic.get t.stores;
    c_bad_entries = Atomic.get t.bad;
  }

let last_error t =
  Mutex.lock t.lock;
  let e = t.last_error in
  Mutex.unlock t.lock;
  e

let entry_path t key =
  match t.dir with
  | None -> None
  | Some d -> Some (Filename.concat d (key ^ ".tcc"))

(* ------------------------------------------------------------------ *)
(* Key derivation *)

(* Raised when the function cannot be keyed soundly (a struct whose
   layout cannot be finalized here); the caller falls back to the
   ordinary compile path, byte-identical to running without a cache. *)
exception Uncacheable

(** Canonical hash of one typechecked function plus its compilation
    environment.  [intern] and the [Vm.import] calls below deliberately
    perform the same (idempotent) context mutations compilation would,
    in a deterministic order, so that a warm process replays the exact
    string addresses and import indices the cold process baked into the
    stored IR — the walk runs before compile-or-hit in *every* process,
    making its order the authoritative first-occurrence order.

    Returns [None] when the function cannot be keyed soundly. *)
let key ~(vm : Vm.t) ~(machine : Tmachine.Config.t) ~(intern : string -> int)
    ~(name : string) ~(opt_level : int) ~(checked : bool)
    ~(no_spill : bool) ~(tparams : (Tast.sym * Types.t) list)
    ~(tret : Types.t) ~(tbody : Tast.tblock) : string option =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let str s = add "%d:%s;" (String.length s) s in
  (* pre-resolve the imports compile mints lazily mid-function, so their
     indices do not depend on where the first aggregate copy sits *)
  ignore (Vm.import vm "memset");
  ignore (Vm.import vm "memcpy");
  (* symbol ids are a process-global gensym counter: renumber densely in
     first-occurrence order so the key is stable across processes *)
  let syms : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let sym (s : Tast.sym) =
    let id =
      match Hashtbl.find_opt syms s.Tast.symid with
      | Some i -> i
      | None ->
          let i = Hashtbl.length syms in
          Hashtbl.add syms s.Tast.symid i;
          i
    in
    add "$%d" id
  in
  (* struct ids are process-global too: serialize layouts structurally,
     with visit-order back-references for recursive structs *)
  let structs : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec ty (t : Types.t) =
    match t with
    | Types.Tint (w, s) ->
        add "i%d%c" (Types.int_width_bytes w) (if s then 's' else 'u')
    | Types.Tfloat -> add "f4"
    | Types.Tdouble -> add "f8"
    | Types.Tbool -> add "o"
    | Types.Tunit -> add "e"
    | Types.Tptr t ->
        add "&";
        ty t
    | Types.Tarray (t, n) ->
        add "a%d(" n;
        ty t;
        add ")"
    | Types.Tvector (t, n) ->
        add "v%d(" n;
        ty t;
        add ")"
    | Types.Tfunc (args, r) ->
        add "F(";
        List.iter ty args;
        add ")>";
        ty r
    | Types.Tstruct s -> (
        match Hashtbl.find_opt structs s.Types.sid with
        | Some i -> add "S#%d" i
        | None ->
            let i = Hashtbl.length structs in
            Hashtbl.add structs s.Types.sid i;
            (* force the layout now (idempotent; compile would force it
               anyway): codegen reads offsets and sizes from it, so they
               belong in the key.  A struct that cannot be laid out here
               is uncacheable — compile will raise the same error on the
               ordinary path, identical to a cacheless run. *)
            let l = (try Types.struct_layout s with _ -> raise Uncacheable) in
            add "S%d{" i;
            str s.Types.sname;
            add "z%d.%d" l.Types.size l.Types.align;
            List.iter
              (fun (fn, ft, off) ->
                str fn;
                add "@%d" off;
                ty ft)
              l.Types.fields;
            add "}")
  in
  let lit (l : Tast.literal) =
    match l with
    | Tast.Lint i -> add "I%Ld" i
    | Tast.Lfloat (f, f32) ->
        add "F%c%Lx" (if f32 then 's' else 'd') (Int64.bits_of_float f)
    | Tast.Lbool v -> add "B%d" (if v then 1 else 0)
    | Tast.Lstring s ->
        (* the IR embeds the interned address as an immediate: pin it *)
        str s;
        add "@%d" (intern s)
    | Tast.Lnullptr -> add "N"
  in
  let rec ex (e : Tast.texpr) =
    add "(";
    ty e.Tast.ty;
    (match e.Tast.desc with
    | Tast.Tlit l -> lit l
    | Tast.Tvar s -> sym s
    | Tast.Tglobaladdr a -> add "G%d" a
    | Tast.Tfuncval n -> add "V%d" n
    | Tast.Tbin (op, a, bb) ->
        add "b";
        str op;
        ex a;
        ex bb
    | Tast.Tun (op, a) ->
        add "u";
        str op;
        ex a
    | Tast.Tcall (id, args) ->
        add "c%d[" id;
        List.iter ex args;
        add "]"
    | Tast.Tcallptr (f, args) ->
        add "p[";
        ex f;
        List.iter ex args;
        add "]"
    | Tast.Tccall (nm, args) ->
        add "C";
        str nm;
        (* pin the import index the Ccall instruction will carry *)
        if nm <> "__prefetch" then add "@%d" (Vm.import vm nm);
        add "[";
        List.iter ex args;
        add "]"
    | Tast.Tderef a ->
        add "d";
        ex a
    | Tast.Taddr a ->
        add "r";
        ex a
    | Tast.Tfield (base, fname, off, is_ptr) ->
        add "f";
        str fname;
        add "%d%c" off (if is_ptr then 'p' else 'v');
        ex base
    | Tast.Tindex (a, i) ->
        add "x";
        ex a;
        ex i
    | Tast.Tcast (target, a) ->
        add "t";
        ty target;
        ex a
    | Tast.Tconstruct args ->
        add "k[";
        List.iter ex args;
        add "]"
    | Tast.Tvecsplat a ->
        add "s";
        ex a);
    add ")"
  in
  let rec stat (s : Tast.tstat) =
    match s with
    | Tast.TSdef (vars, inits) ->
        add "D[";
        List.iter
          (fun (sm, t) ->
            sym sm;
            ty t)
          vars;
        add "]=[";
        List.iter ex inits;
        add "]"
    | Tast.TSassign (lhs, rhs) ->
        add "A[";
        List.iter ex lhs;
        add "]=[";
        List.iter ex rhs;
        add "]"
    | Tast.TSif (arms, els) ->
        add "?";
        List.iter
          (fun (c, blk) ->
            add "{";
            ex c;
            block blk;
            add "}")
          arms;
        add "!{";
        block els;
        add "}"
    | Tast.TSwhile (c, blk) ->
        add "W{";
        ex c;
        block blk;
        add "}"
    | Tast.TSrepeat (blk, c) ->
        add "R{";
        block blk;
        ex c;
        add "}"
    | Tast.TSfor (sm, t, lo, hi, step, blk) ->
        add "L{";
        sym sm;
        ty t;
        ex lo;
        ex hi;
        (match step with
        | Some st ->
            add "+";
            ex st
        | None -> add "_");
        block blk;
        add "}"
    | Tast.TSblock blk ->
        add "B{";
        block blk;
        add "}"
    | Tast.TSreturn None -> add "Z"
    | Tast.TSreturn (Some e) ->
        add "z";
        ex e
    | Tast.TSbreak -> add "K"
    | Tast.TSexpr e ->
        add "E";
        ex e
  and block blk = List.iter stat blk in
  match
    (* NB: the function's *own* table slot is deliberately not pinned —
       every function index the compiled IR can embed corresponds to a
       [Tcall]/[Tfuncval] node serialized below (self-recursion
       included), so a re-definition on a warm engine at a new slot
       still hits *)
    add "ccache-v%d|opt=%d|chk=%d|nsp=%d|mach=%s|" format_version opt_level
      (if checked then 1 else 0)
      (if no_spill then 1 else 0)
      (Digest.to_hex (Digest.string (Marshal.to_string machine [])));
    str name;
    List.iter
      (fun (sm, t) ->
        sym sm;
        ty t)
      tparams;
    add ">";
    ty tret;
    block tbody
  with
  | () -> Some (Digest.to_hex (Digest.string (Buffer.contents b)))
  | exception Uncacheable -> None

(* ------------------------------------------------------------------ *)
(* Entry validation — the Objfile hardening discipline for one function.
   The digest frame already rules out accidental corruption; this rules
   out stale formats and mislabelled entries, and {!Ir.verify} rules out
   hostile well-formed IR whose indices would otherwise reach the VM's
   unchecked dispatch. *)

let validate_entry ~(vm : Vm.t) ~(key : string) ~(name : string) (e : entry) :
    (unit, string) result =
  let f = e.e_func in
  if e.e_version <> format_version then
    Error
      (Printf.sprintf "stale format version %d (want %d)" e.e_version
         format_version)
  else if not (String.equal e.e_key key) then Error "key echo mismatch"
  else if not (String.equal e.e_name name) then
    Error (Printf.sprintf "entry name %S does not match %S" e.e_name name)
  else if not (String.equal f.Ir.fname name) then
    Error (Printf.sprintf "function name %S does not match %S" f.Ir.fname name)
  else Ir.verify ~nfuncs:vm.Vm.nfuncs ~nimports:vm.Vm.nimports f

(* ------------------------------------------------------------------ *)
(* Lookup / store *)

type outcome =
  | Hit of Ir.func
  | Miss
  | Bad_entry of string
      (** structured [ccache.bad-entry]: counted, recorded, and treated
          as a miss — the recompile overwrites the bad file (self-heal) *)

let note_bad t what msg =
  Atomic.incr t.bad;
  let rendered = Printf.sprintf "ccache.bad-entry: %s: %s" what msg in
  Mutex.lock t.lock;
  t.last_error <- Some rendered;
  Mutex.unlock t.lock;
  rendered

let mem_find t key =
  Mutex.lock t.lock;
  let e = Hashtbl.find_opt t.mem key in
  Mutex.unlock t.lock;
  e

let mem_remove t key =
  Mutex.lock t.lock;
  Hashtbl.remove t.mem key;
  Mutex.unlock t.lock

let mem_replace t key e =
  Mutex.lock t.lock;
  Hashtbl.replace t.mem key e;
  Mutex.unlock t.lock

let lookup t ~(vm : Vm.t) ~(key : string) ~(name : string) : outcome =
  let validate_or_bad ~what e k =
    match validate_entry ~vm ~key ~name e with
    | Ok () ->
        (* every validated hit joins the overlay so [save_pack] really
           does capture everything stored *or hit* by this process —
           a warm directory run can still --emit a complete pack *)
        mem_replace t key e;
        Atomic.incr t.hits;
        Hit e.e_func
    | Error msg -> k (note_bad t what msg)
  in
  let from_disk () =
    match entry_path t key with
    | None ->
        Atomic.incr t.misses;
        Miss
    | Some path ->
        if not (Sys.file_exists path) then begin
          Atomic.incr t.misses;
          Miss
        end
        else begin
          let bad_miss rendered =
            Atomic.incr t.misses;
            Bad_entry rendered
          in
          match Blobio.load_value ~magic:entry_magic path with
          | Ok e -> validate_or_bad ~what:path e bad_miss
          | Error msg -> bad_miss (note_bad t path msg)
          | exception e -> bad_miss (note_bad t path (Printexc.to_string e))
        end
  in
  match mem_find t key with
  | Some e ->
      (* overlay entries (preloads) are still validated per lookup: the
         VM bounds they must respect belong to *this* engine *)
      validate_or_bad ~what:"preloaded entry" e (fun _rendered ->
          mem_remove t key;
          from_disk ())
  | None -> from_disk ()

(** Store the post-Topt IR for [key].  Cache-write failures (read-only
    dir, disk full) are recorded and swallowed: a broken cache must never
    fail a compilation that already succeeded. *)
let store t ~(key : string) ~(name : string) (f : Ir.func) : unit =
  let e = { e_version = format_version; e_key = key; e_name = name; e_func = f }
  in
  mem_replace t key e;
  (match entry_path t key with
  | None -> ()
  | Some final -> (
      try
        let dir = Option.get t.dir in
        let tmp, oc =
          Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir
            "ccache-" ".tmp"
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Blobio.write_value oc ~magic:entry_magic e);
        Sys.rename tmp final
      with Sys_error msg ->
        Mutex.lock t.lock;
        t.last_error <- Some (Printf.sprintf "ccache.store-failed: %s" msg);
        Mutex.unlock t.lock));
  Atomic.incr t.stores

(* ------------------------------------------------------------------ *)
(* Packs: the --emit/--preload surface.  A pack is the in-memory overlay
   (everything stored or hit by this process) as one framed blob, so a
   fleet of engines can ship artifacts as a single file. *)

let save_pack t path : unit =
  Mutex.lock t.lock;
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.mem [] in
  Mutex.unlock t.lock;
  let entries =
    List.sort (fun a bb -> compare a.e_key bb.e_key) entries
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Blobio.write_value oc ~magic:pack_magic (entries : entry list))

(** Load a pack into the overlay.  Damaged packs are an [Error] (never an
    exception); individual entries are fully validated only at lookup,
    where the owning engine's bounds are known — a hostile pack entry
    degrades to [ccache.bad-entry] + recompile, like a hostile file. *)
let load_pack t path : (int, string) result =
  match Blobio.load_value ~magic:pack_magic path with
  | Error msg -> Error msg
  | Ok (entries : entry list) ->
      List.iter (fun e -> mem_replace t e.e_key e) entries;
      Ok (List.length entries)
