(** The combined Lua–Terra engine: a Lua state with the Terra frontend
    hooks and the terralib API installed. [run] evaluates a combined
    program exactly as the paper's modified LuaJIT loader does.

    The engine is also the fault-isolation boundary: {!run_protected}
    turns any pipeline failure into a structured {!Diag.t} instead of an
    exception, and [create]'s resource knobs ([?fuel], [?max_call_depth],
    [?lua_steps]) bound runaway programs so they degrade into catchable
    [trap.*] diagnostics rather than hanging the host. *)

module V = Mlua.Value

type t = {
  ctx : Context.t;
  interp : Mlua.Interp.state;
      (** this engine's private Lua interpreter state (call stack,
          budgets, traceback, print sink); installed as the domain's
          current state for the duration of every [run] *)
  mutable scope : V.scope;
  mutable installers : (V.table -> unit) list;
      (** applied, in order, to the globals of every scope this engine
          creates — [create] seeds it with the terralib API; DSL layers
          (Orion, classes, layouts) append theirs *)
  mutable lua_depth : int;  (** Lua call-depth bound, applied at each run *)
  mutable lua_steps : int;  (** Lua statement budget per run *)
  mutable leak_mark : (int * int) list;
      (** live blocks already attributed to an earlier request; the leak
          report only names blocks newer than this baseline, so an
          engine serving many requests reports each leak exactly once *)
}

(* Route every host exception pcall sees through the diagnostic
   converter, so protected Lua calls observe Terra failures (compile
   errors, traps) as structured values.  Installed once. *)
let () =
  Mlua.Lualib.exn_to_value := fun e -> Option.map Diag.wrap (Diag.of_exn e)

let create ?machine ?mem_bytes ?fuel ?(max_call_depth = 200) ?lua_steps
    ?checked ?faults ?opt_level ?dump_ir ?(profile = false) ?(trace = false)
    ?ccache () =
  let ctx =
    Context.create ?machine ?mem_bytes ?checked ?faults ?opt_level ?ccache ()
  in
  (match dump_ir with Some d -> ctx.Context.dump_ir <- d | None -> ());
  let probe = Context.probe ctx in
  if profile then Tprof.Probe.set_on probe true;
  if trace then Tprof.Probe.set_tracing probe true;
  (match fuel with Some n -> Tvm.Vm.set_fuel ctx.Context.vm n | None -> ());
  Tvm.Vm.set_max_depth ctx.Context.vm max_call_depth;
  let interp = Mlua.Interp.make_state () in
  let scope = Mlua.Driver.make_scope ~state:interp () in
  (match V.scope_globals scope with
  | Some g -> Terralib.install ctx g
  | None -> assert false);
  {
    ctx;
    interp;
    scope;
    installers = [ (fun g -> Terralib.install ctx g) ];
    lua_depth = max_call_depth;
    lua_steps = (match lua_steps with Some n -> n | None -> max_int);
    leak_mark = [];
  }

(** Register an extra API installer (a DSL layer): applied to the
    current scope immediately and to every scope [reset_scope] creates. *)
let add_installer t f =
  t.installers <- t.installers @ [ f ];
  match V.scope_globals t.scope with
  | Some g -> f g
  | None -> assert false

(** Re-arm the leak check: every block currently live becomes baseline,
    so {!leak_report}/{!leak_diag} name only blocks allocated (and not
    freed) after this point.  The serving layer calls this between
    requests so a leaky request is reported exactly once, by the request
    that leaked, instead of tainting every later report on the same
    engine. *)
let rearm_leak_check t = t.leak_mark <- Context.leaks t.ctx

(** Replace the engine's Lua scope with a brand-new one (globals rebuilt
    by the registered installers), keeping the Terra context — VM heap,
    compiled functions, interned constants — intact.  The supervisor
    resets the scope before each script attempt: the VM session is
    transactional, but Lua globals are not, so a retry must start from a
    fresh Lua namespace or re-evaluating [terra f ...] would trip the
    immutable-definition check.

    With [~slice:true] (the serving layer, between requests) the reset
    also starts a fresh observation slice on the shared engine: Tprof
    counters, shadow stack, and event ring are cleared so the next
    profile covers exactly one request, and the leak check is re-armed
    so each leak is attributed to the request that introduced it. *)
let reset_scope ?(slice = false) t =
  let scope = Mlua.Driver.make_scope ~state:t.interp () in
  (match V.scope_globals scope with
  | Some g -> List.iter (fun f -> f g) t.installers
  | None -> assert false);
  t.scope <- scope;
  if slice then begin
    Tprof.Probe.reset (Context.probe t.ctx);
    (* a fresh slice also restarts the modeled C PRNG, so a request's
       rand() stream never depends on which requests an engine served
       before it — required for jobs=N batch reports to be byte-
       identical to the sequential run *)
    t.ctx.Context.vm.Tvm.Vm.rand_state <- Tvm.Vm.initial_rand_state;
    rearm_leak_check t
  end

(** Tighten (or relax) the engine's per-run budgets in place — the
    serving layer applies a tenant's call-depth and Lua budgets for the
    duration of one request and restores them afterwards. *)
let set_limits ?max_call_depth ?lua_steps t =
  (match max_call_depth with
  | Some n ->
      t.lua_depth <- n;
      Tvm.Vm.set_max_depth t.ctx.Context.vm n
  | None -> ());
  match lua_steps with Some n -> t.lua_steps <- n | None -> ()

(* Every run executes with this engine's interpreter state installed as
   the domain's current state ([Interp.with_state]), so two live engines
   — concurrent on separate domains, or a run nested inside a host
   callback of another run on one domain — cannot clobber each other's
   limits, tracebacks, or error attribution.  The budgets are still
   saved and restored *within* the engine's own state so a nested run of
   the same engine re-arms full budgets without consuming the outer
   run's.  A failing run's exception is converted to a structured
   [Diag.Error] *before* the outer state is restored, so spans and
   tracebacks are attributed against this run's state, not the outer
   engine's. *)
let run ?file t src =
  Mlua.Interp.with_state t.interp (fun () ->
      let st = t.interp in
      let saved_depth = st.Mlua.Interp.max_call_depth in
      let saved_steps = st.Mlua.Interp.steps in
      let saved_diag = Diag.save_run_state () in
      let restore () =
        st.Mlua.Interp.max_call_depth <- saved_depth;
        st.Mlua.Interp.steps <- saved_steps;
        Diag.restore_run_state saved_diag
      in
      Diag.begin_run ?file ();
      st.Mlua.Interp.max_call_depth <- t.lua_depth;
      st.Mlua.Interp.steps <- t.lua_steps;
      let ext_expr, ext_stat = Frontend.hooks t.ctx in
      let chunkname = match file with Some f -> f | None -> "main chunk" in
      match Mlua.Driver.run_in ~ext_expr ~ext_stat ~chunkname t.scope src with
      | vs ->
          restore ();
          vs
      | exception ((Out_of_memory | Assert_failure _) as e) ->
          restore ();
          raise e
      | exception e ->
          let e =
            match Diag.of_exn e with Some d -> Diag.Error d | None -> e
          in
          restore ();
          raise e)

(* Redirect this engine's two output channels — the Lua print sink and
   the modeled-C print sink — into one buffer for the duration of [f].
   Both sinks are per-engine, so concurrent captures on other engines
   are unaffected. *)
let with_capture (t : t) (f : unit -> 'a) : string * 'a =
  let buf = Buffer.create 256 in
  let vm = t.ctx.Context.vm in
  let saved_lua = t.interp.Mlua.Interp.output_sink in
  let saved_vm = vm.Tvm.Vm.print_sink in
  t.interp.Mlua.Interp.output_sink <- Buffer.add_string buf;
  vm.Tvm.Vm.print_sink <- Buffer.add_string buf;
  Fun.protect
    ~finally:(fun () ->
      t.interp.Mlua.Interp.output_sink <- saved_lua;
      vm.Tvm.Vm.print_sink <- saved_vm)
    (fun () ->
      let r = f () in
      (Buffer.contents buf, r))

(** Run and capture printed output (tests). *)
let run_capture ?file t src = with_capture t (fun () -> run ?file t src)

(** Protected entry point: every failure anywhere in the pipeline —
    lexing through Terra execution — returns as [Error diag].  Only
    exceptions outside the failure model (host OOM, assert failures)
    still propagate. *)
let run_protected (t : t) ?file src : (V.t list, Diag.t) result =
  match run ?file t src with
  | vs -> Ok vs
  | exception ((Out_of_memory | Assert_failure _) as e) -> raise e
  | exception e -> (
      match Diag.of_exn e with
      | Some d -> Error d
      | None ->
          Error
            (Diag.make ~phase:Diag.Eval ~code:"internal.exn"
               (Printexc.to_string e)))

(** [run_protected] + output capture: [(output, result)]. *)
let run_capture_protected (t : t) ?file src :
    string * (V.t list, Diag.t) result =
  with_capture t (fun () -> run_protected t ?file src)

(* ------------------------------------------------------------------ *)
(* Transactional execution (the supervised-execution substrate).  See
   [Context.transact] for the rollback model. *)

(** Run a thunk inside a VM transaction; on failure the Terra session is
    rolled back to a byte-identical state. *)
let transact (t : t) f = Context.transact t.ctx f

(** [run] inside a transaction: a failing script leaves the Terra
    session byte-identical to its state before the run. *)
let run_transactional ?file (t : t) src : (V.t list, Diag.t) result =
  transact t (fun () -> run ?file t src)

(** [run_transactional] + output capture: [(output, result)].  The
    supervisor uses this so each retry attempt reports only its own
    output, not the half-printed output of the attempts it rolled back. *)
let run_capture_transactional ?file (t : t) src :
    string * (V.t list, Diag.t) result =
  with_capture t (fun () -> run_transactional ?file t src)

(** Current statics bump pointer; capture before a transaction to
    fingerprint exactly the state a rollback restores. *)
let statics_mark t = Tvm.Mem.statics_mark t.ctx.Context.vm.Tvm.Vm.mem

(** Hex digest of the whole transactional session state (arena bytes,
    allocator bookkeeping, shadow map). *)
let fingerprint ?statics_upto t =
  Tvm.Vm.fingerprint ?statics_upto t.ctx.Context.vm

(** Look up a global by name. *)
let get_global t name = V.scope_lookup t.scope name

(** Fetch a global that must be a Terra function. *)
let get_func t name =
  match Func.unwrap_opt (get_global t name) with
  | Some f -> f
  | None ->
      Diag.error ~phase:Diag.Eval ~code:"engine.not-a-function"
        "%s is not a terra function" name

let call_func t name args = Jit.call (get_func t name) args

(** Call a Terra function transactionally: on any failure in the
    diagnostic model — resource traps, sanitizer violations, injected
    faults — the session is rolled back and the structured diagnostic
    returned, with the heap, allocator, shadow map, and Terra globals
    provably unchanged. *)
let call_transactional t name args : (V.t list, Diag.t) result =
  transact t (fun () -> call_func t name args)

(** Recompile [name] (and its transitive Terra callees) at [opt_level],
    leaving the engine's own opt level untouched.  The supervisor's
    graceful-degradation path uses this to rebuild a faulting function
    at opt 0 before its final retry. *)
let recompile_at t ~opt_level name =
  let f = get_func t name in
  let saved = t.ctx.Context.opt_level in
  t.ctx.Context.opt_level <- opt_level;
  Fun.protect
    ~finally:(fun () -> t.ctx.Context.opt_level <- saved)
    (fun () ->
      let seen = ref [] in
      let rec clear (g : Func.t) =
        if not (List.memq g !seen) then begin
          seen := g :: !seen;
          if g.Func.extern_name = None then begin
            g.Func.compiled <- false;
            match g.Func.typed with
            | Some ty -> List.iter clear ty.Func.trefs
            | None -> ()
          end
        end
      in
      clear f;
      Jit.ensure_compiled f)

let report t = Tmachine.Machine.report t.ctx.Context.machine
let machine t = t.ctx.Context.machine
let checked t = Context.checked t.ctx
let fuel_used t = Tvm.Vm.fuel_used t.ctx.Context.vm
let opt_level t = t.ctx.Context.opt_level
let opt_stats t = t.ctx.Context.opt_stats

(* ------------------------------------------------------------------ *)
(* Profiling & tracing *)

let probe t = Context.probe t.ctx

(** Toggle instruction/alloc profiling ({!profile} reads the counters). *)
let set_profiling t b = Tprof.Probe.set_on (probe t) b

(** Toggle event tracing (ring buffer; {!trace_text}/{!trace_chrome}). *)
let set_tracing t b = Tprof.Probe.set_tracing (probe t) b

(** Snapshot the profile collected so far (flat + call-graph + phases). *)
let profile t = Context.profile t.ctx

(** Deterministic text rendering of {!profile}. *)
let profile_text t = Tprof.Report.to_text (profile t)

(** JSON rendering of {!profile} (schema [terra-prof-1]). *)
let profile_json t = Tprof.Report.to_json (profile t)

let name_of t = Tvm.Vm.func_name t.ctx.Context.vm

(** Deterministic text dump of the trace ring buffer. *)
let trace_text t = Tprof.Trace.to_text ~name_of:(name_of t) (probe t)

(** Chrome [trace_event] JSON of the trace ring buffer. *)
let trace_chrome t = Tprof.Trace.to_chrome ~name_of:(name_of t) (probe t)

(** Install a fault spec into the running VM (tests inject mid-session). *)
let inject t spec = Tvm.Vm.add_fault t.ctx.Context.vm spec

(* ------------------------------------------------------------------ *)
(* Leak accounting (TerraSan shutdown report) *)

(** Heap blocks still live and not part of the re-armed baseline,
    largest first: [(addr, size)]. *)
let leak_report t =
  let fresh =
    List.filter
      (fun blk -> not (List.mem blk t.leak_mark))
      (Context.leaks t.ctx)
  in
  List.sort (fun (_, a) (_, b) -> compare b a) fresh

(** A [san.leak] summary diagnostic, or [None] if nothing leaked. *)
let leak_diag t =
  match leak_report t with
  | [] -> None
  | blocks ->
      let total = List.fold_left (fun acc (_, s) -> acc + s) 0 blocks in
      let shown = List.filteri (fun i _ -> i < 8) blocks in
      let detail =
        String.concat ", "
          (List.map (fun (a, s) -> Printf.sprintf "%#x (%d bytes)" a s) shown)
      in
      let more =
        if List.length blocks > List.length shown then
          Printf.sprintf ", ... %d more" (List.length blocks - List.length shown)
        else ""
      in
      Some
        (Diag.make ~phase:Diag.Run ~code:"san.leak"
           (Printf.sprintf "leaked %d bytes in %d block%s: %s%s" total
              (List.length blocks)
              (if List.length blocks = 1 then "" else "s")
              detail more))

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

(** A marshalable image of a full engine session: the VM session (arena,
    allocator, shadow, function table) plus the compile-side state that
    replay needs to be exact — the string-intern table (re-interning on
    replay would bump the statics pointer and diverge) and the
    function-pointer reloc list.  The capturing engine's fingerprint is
    embedded so a restore is verified byte-exact. *)
type snapshot = {
  snap_session : Tvm.Session.t;
  snap_strings : (string * int) list;  (** sorted: deterministic image *)
  snap_relocs : (int * int) list;
  snap_opt_level : int;
  snap_leak_mark : (int * int) list;
  snap_lua_depth : int;
  snap_lua_steps : int;
  snap_fingerprint : string;
}

let snap (t : t) : snapshot =
  {
    snap_session = Tvm.Session.capture t.ctx.Context.vm;
    snap_strings =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ctx.Context.strings []);
    snap_relocs = t.ctx.Context.funcptr_relocs;
    snap_opt_level = t.ctx.Context.opt_level;
    snap_leak_mark = t.leak_mark;
    snap_lua_depth = t.lua_depth;
    snap_lua_steps = t.lua_steps;
    snap_fingerprint = fingerprint t;
  }

(** Restore a snapshot onto [t], which must come from the same engine
    configuration (arena size, checkedness).  The restored session's
    fingerprint is recomputed and checked against the one captured at
    snapshot time; a mismatch is a hard [recover.fingerprint-mismatch].
    The Lua scope is rebuilt fresh — scopes hold only per-request
    bindings, all durable state lives in the VM session. *)
let restore_snap (t : t) (s : snapshot) : unit =
  (match Tvm.Session.restore t.ctx.Context.vm s.snap_session with
  | () -> ()
  | exception Invalid_argument msg ->
      Diag.error ~phase:Diag.Run ~code:"recover.config-mismatch" "%s" msg);
  Hashtbl.reset t.ctx.Context.strings;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.ctx.Context.strings k v)
    s.snap_strings;
  t.ctx.Context.funcptr_relocs <- s.snap_relocs;
  t.ctx.Context.opt_level <- s.snap_opt_level;
  t.leak_mark <- s.snap_leak_mark;
  t.lua_depth <- s.snap_lua_depth;
  t.lua_steps <- s.snap_lua_steps;
  reset_scope t;
  let fp = fingerprint t in
  if not (String.equal fp s.snap_fingerprint) then
    Diag.error ~phase:Diag.Run ~code:"recover.fingerprint-mismatch"
      "restored session fingerprint %s does not match checkpointed %s" fp
      s.snap_fingerprint

let ckpt_magic = "TERRACKPT2\n"

(** Serialize the engine's full session to a channel, digest-framed (see
    {!Blobio}) so corruption is detected before unmarshaling. *)
let checkpoint (t : t) (oc : out_channel) : unit =
  Blobio.write_value oc ~magic:ckpt_magic (snap t)

(** Load a checkpoint into a fresh engine built by [make] (the same
    factory that built the captured engine).  A damaged frame or a
    payload that does not decode is a structured [ckpt.bad-file]; a
    fingerprint mismatch after restore is [recover.fingerprint-mismatch]. *)
let restore ~(make : unit -> t) (ic : in_channel) : t =
  match Blobio.read_value ic ~magic:ckpt_magic with
  | Error msg ->
      Diag.error ~phase:Diag.Run ~code:"ckpt.bad-file" "checkpoint: %s" msg
  | Ok (s : snapshot) ->
      let t = make () in
      restore_snap t s;
      t
