(** Crash-consistent VM session snapshots.

    A {!t} is a canonical, marshalable image of everything a {!Vm.t}
    needs to resume byte-exactly after a process restart: the arena
    (statics verbatim, heap/stack as sparse non-zero pages), the
    sanitizer shadow map and block registries, the allocator
    bookkeeping, the compiled function table, imports, and the
    execution counters (stack pointer, fuel, steps, pending faults).

    Capture and restore go through the {!Pages} ledgers of the arena and
    the shadow map, so both cost O(touched pages).  Restore zeroes every
    page of the target engine that may be non-zero before blitting the
    snapshot back, so a restored session never inherits any byte from
    the engine it is restored onto — there is nothing to reason about
    beyond "the snapshot is the arena".  Process-global state (the Lua
    [rand] generator, id counters) is deliberately not captured: it
    never enters VM memory or fingerprints, and restoring it in-process
    would corrupt other live engines. *)

type mem_image = {
  mi_size : int;  (** arena size; restore refuses a mismatch *)
  mi_statics_ptr : int;
  mi_statics : string;  (** bytes [0, statics_ptr), verbatim *)
  mi_pages : (int * string) list;
      (** non-zero 4 KiB pages of [heap_base, size), sorted by offset *)
}

type shadow_image = {
  si_pages : (int * string) list;  (** non-zero pages of the byte map *)
  si_live : (int * (int * int * int)) list;
  si_freed : (int * (int * int * int)) list;
}

type t = {
  sn_mem : mem_image;
  sn_shadow : shadow_image option;
  sn_alloc : Alloc.snapshot;
  sn_funcs : Ir.func array;
  sn_imports : string array;
  sn_sp : int;
  sn_fuel : int;
  sn_fuel_limit : int;
  sn_fuel_mark : int;
  sn_steps : int;
  sn_max_depth : int;
  sn_faults : (Fault.spec list * int) option;
}

let capture (vm : Vm.t) : t =
  if Vm.in_txn vm then invalid_arg "Session.capture: transaction active";
  let mem = vm.Vm.mem in
  let statics, pages = Mem.image mem in
  let sn_mem =
    {
      mi_size = Mem.size mem;
      mi_statics_ptr = Mem.statics_mark mem;
      mi_statics = statics;
      mi_pages = pages;
    }
  in
  let sn_shadow =
    Option.map
      (fun sh ->
        let live, freed = Shadow.entries sh in
        { si_pages = Shadow.image sh; si_live = live; si_freed = freed })
      (Mem.shadow mem)
  in
  {
    sn_mem;
    sn_shadow;
    sn_alloc = Alloc.snapshot vm.Vm.alloc;
    sn_funcs = Array.sub vm.Vm.funcs 0 vm.Vm.nfuncs;
    sn_imports = Array.sub vm.Vm.imports 0 vm.Vm.nimports;
    sn_sp = vm.Vm.sp;
    sn_fuel = vm.Vm.fuel;
    sn_fuel_limit = vm.Vm.fuel_limit;
    sn_fuel_mark = vm.Vm.fuel_mark;
    sn_steps = vm.Vm.steps;
    sn_max_depth = vm.Vm.max_depth;
    sn_faults = Option.map Fault.snapshot vm.Vm.faults;
  }

(** Restore [s] onto [vm], which must have the same arena size and
    checkedness as the captured session (i.e. come from the same engine
    configuration).  Raises [Invalid_argument] on a configuration
    mismatch. *)
let restore (vm : Vm.t) (s : t) : unit =
  if Vm.in_txn vm then invalid_arg "Session.restore: transaction active";
  let mem = vm.Vm.mem in
  if Mem.size mem <> s.sn_mem.mi_size then
    invalid_arg
      (Printf.sprintf "Session.restore: arena is %d bytes, snapshot wants %d"
         (Mem.size mem) s.sn_mem.mi_size);
  (match (s.sn_shadow, Mem.shadow mem) with
  | Some _, Some _ | None, None -> ()
  | Some _, None ->
      invalid_arg "Session.restore: snapshot is checked, engine is not"
  | None, Some _ ->
      invalid_arg "Session.restore: engine is checked, snapshot is not");
  Mem.load mem ~statics_ptr:s.sn_mem.mi_statics_ptr
    ~statics:s.sn_mem.mi_statics s.sn_mem.mi_pages;
  (match (s.sn_shadow, Mem.shadow mem) with
  | Some si, Some sh ->
      Shadow.load sh si.si_pages ~live:si.si_live ~freed:si.si_freed
  | _ -> ());
  Alloc.restore_snapshot vm.Vm.alloc s.sn_alloc;
  (* copy the arrays: Vm.set_func mutates elements in place and must not
     reach back into the snapshot *)
  vm.Vm.funcs <- Array.copy s.sn_funcs;
  vm.Vm.nfuncs <- Array.length s.sn_funcs;
  vm.Vm.imports <- Array.copy s.sn_imports;
  vm.Vm.nimports <- Array.length s.sn_imports;
  vm.Vm.sp <- s.sn_sp;
  vm.Vm.fuel <- s.sn_fuel;
  vm.Vm.fuel_limit <- s.sn_fuel_limit;
  vm.Vm.fuel_mark <- s.sn_fuel_mark;
  vm.Vm.steps <- s.sn_steps;
  vm.Vm.max_depth <- s.sn_max_depth;
  vm.Vm.depth <- 0;
  vm.Vm.faults <- Option.map Fault.of_snapshot s.sn_faults
