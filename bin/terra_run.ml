(* Run a combined Lua–Terra program: the equivalent of the paper's
   modified LuaJIT binary.

   Exit codes: 0 = success, 1 = diagnostic (compile/eval error),
   2 = runtime fault (resource trap, TerraSan violation, injected
   fault, or a leak under --checked), 3 = --verify-rollback found the
   session changed after a rolled-back transactional run. *)

(* Exit code for a protected/supervised run result, shared by the plain
   and transactional paths. *)
let code_of_result engine ~checked ~no_leak_check = function
  | Ok _ -> (
      if not (checked && not no_leak_check) then 0
      else
        match Terra.Engine.leak_diag engine with
        | None -> 0
        | Some d ->
            Printf.eprintf "%s\n" (Terra.Diag.to_string d);
            2)
  | Error d ->
      Printf.eprintf "%s\n" (Terra.Diag.to_string d);
      if Terra.Diag.is_runtime_fault d then 2 else 1

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec run_file path stats fuel max_steps max_depth checked no_leak_check
    fail_alloc_at trap_at_step report_fuel opt dump_ir dump_opt_stats transact
    verify_rollback retries batch jobs profile trace cache emit preload =
  (* one cache handle for the whole invocation, shared by every engine
     (including --jobs worker domains: the handle is domain-safe) *)
  let ccache =
    match (cache, emit, preload) with
    | None, None, None -> None
    | _ -> Some (Terra.Ccache.create ?dir:cache ())
  in
  (match (ccache, preload) with
  | Some cc, Some pk -> (
      match Terra.Ccache.load_pack cc pk with
      | Ok _ -> ()
      | Error msg ->
          (* tolerant, like a corrupt entry: report and run cold *)
          Printf.eprintf "terra_run: ccache.bad-pack: %s: %s\n" pk msg)
  | _ -> ());
  let finish code =
    (match (ccache, emit) with
    | Some cc, Some f -> Terra.Ccache.save_pack cc f
    | _ -> ());
    code
  in
  finish
  @@
  match (batch, path) with
  | Some manifest, _ when jobs <> None ->
      let jobs = Option.get jobs in
      (* Parallel batch mode: N worker domains, each with a private
         engine restored to a factory-fresh baseline before every
         request, drain the manifest together.  The report is
         byte-identical to --jobs 1 (and carries no engine-wide
         profile or trace, which are whole-engine artifacts). *)
      if jobs < 1 then begin
        prerr_endline "terra_run: --jobs must be >= 1";
        1
      end
      else if trace <> None then begin
        prerr_endline "terra_run: --trace is not available with --jobs";
        1
      end
      else begin
        let make_engine () =
          Terrastd.create ?fuel ?lua_steps:max_steps ?max_call_depth:max_depth
            ~checked ~opt_level:opt ?ccache ()
        in
        let config =
          { Supervise.Supervisor.default_config with max_retries = retries }
        in
        let json, code =
          Supervise.Batch.run_manifest_par ~config ~jobs ~make_engine manifest
        in
        print_string json;
        code
      end
  | Some manifest, _ ->
      (* Batch mode: many scripts, one shared engine, supervised runs,
         JSON report on stdout.  Profiling is always on so the report
         carries instruction/alloc attribution across all requests. *)
      let engine =
        Terrastd.create ?fuel ?lua_steps:max_steps ?max_call_depth:max_depth
          ~checked ~opt_level:opt ~profile:true ~trace:(trace <> None) ?ccache
          ()
      in
      let config =
        { Supervise.Supervisor.default_config with max_retries = retries }
      in
      let json, code = Supervise.Batch.run_manifest ~config engine manifest in
      print_string json;
      (match trace with
      | Some f -> write_file f (Terra.Engine.trace_chrome engine)
      | None -> ());
      code
  | None, None ->
      prerr_endline "terra_run: expected PROGRAM.t or --batch MANIFEST";
      1
  | None, Some path ->
      ignore jobs;
      run_one path stats fuel max_steps max_depth checked no_leak_check
        fail_alloc_at trap_at_step report_fuel opt dump_ir dump_opt_stats
        transact verify_rollback retries profile trace ccache

and run_one path stats fuel max_steps max_depth checked no_leak_check
    fail_alloc_at trap_at_step report_fuel opt dump_ir dump_opt_stats transact
    verify_rollback retries profile trace ccache =
  let src = Supervise.Batch.read_file path in
  let faults =
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun n -> Tvm.Fault.Fail_alloc n) fail_alloc_at;
        Option.map (fun n -> Tvm.Fault.Trap_at_step n) trap_at_step;
      ]
  in
  let dump_ir =
    match dump_ir with
    | None -> Terra.Context.Dump_none
    | Some `Before -> Terra.Context.Dump_before
    | Some `After -> Terra.Context.Dump_after
  in
  let engine =
    Terrastd.create ?fuel ?lua_steps:max_steps ?max_call_depth:max_depth
      ~checked ~faults ~opt_level:opt ~dump_ir ~profile:(profile <> None)
      ~trace:(trace <> None) ?ccache ()
  in
  let code =
    if not transact then
      match Terra.Engine.run_protected engine ~file:path src with
      | r -> code_of_result engine ~checked ~no_leak_check r
      | exception ((Out_of_memory | Assert_failure _) as e) -> raise e
    else begin
      (* Supervised transactional run: journal the session, retry
         transient faults, degrade to opt 0 on runtime faults, and roll
         the session back byte-for-byte on failure. *)
      let mark = Terra.Engine.statics_mark engine in
      let fp_before =
        if verify_rollback then
          Some (Terra.Engine.fingerprint ~statics_upto:mark engine)
        else None
      in
      Supervise.Supervisor.log_sink := prerr_endline;
      let config =
        { Supervise.Supervisor.default_config with max_retries = retries }
      in
      let o = Supervise.Supervisor.run_script ~config ~file:path engine src in
      print_string o.Supervise.Supervisor.output;
      (match o.Supervise.Supervisor.divergence with
      | Some d -> Printf.eprintf "%s\n" (Terra.Diag.to_string d)
      | None -> ());
      let code =
        code_of_result engine ~checked ~no_leak_check
          o.Supervise.Supervisor.result
      in
      match (fp_before, o.Supervise.Supervisor.result) with
      | Some before, Error _ ->
          (* The run failed, so the rollback must have restored the
             session byte-for-byte. *)
          let after = Terra.Engine.fingerprint ~statics_upto:mark engine in
          if String.equal before after then begin
            Printf.eprintf "rollback: verified (session fingerprint %s)\n"
              before;
            code
          end
          else begin
            Printf.eprintf
              "rollback: FAILED (fingerprint %s before, %s after)\n" before
              after;
            3
          end
      | _ -> code
    end
  in
  if report_fuel then
    Printf.eprintf "fuel: %d\n" (Terra.Engine.fuel_used engine);
  (* profile/trace go to stderr and files: stdout is the program's *)
  (match profile with
  | Some `Text -> Printf.eprintf "%s" (Terra.Engine.profile_text engine)
  | Some `Json -> Printf.eprintf "%s\n" (Terra.Engine.profile_json engine)
  | None -> ());
  (match trace with
  | Some f -> write_file f (Terra.Engine.trace_chrome engine)
  | None -> ());
  if dump_opt_stats then
    Format.eprintf "%a@." Topt.Stats.pp (Terra.Engine.opt_stats engine);
  if stats then
    Format.eprintf "-- machine model --@.%a@." Tmachine.Machine.pp_report
      (Terra.Engine.report engine);
  code

let () =
  let open Cmdliner in
  let path =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROGRAM.t")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"print machine-model counters")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Terra VM instruction budget; exceeding it exits 2 with a \
             trap.fuel diagnostic instead of hanging.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Lua interpreter statement budget (guards runaway Lua).")
  in
  let max_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"maximum call depth for both Lua and Terra (default 200).")
  in
  let checked =
    Arg.(
      value & flag
      & info [ "checked" ]
          ~doc:
            "TerraSan checked execution: redzones, use-after-free quarantine, \
             and per-byte shadow checking; violations exit 2 with a san.* \
             diagnostic, and heap blocks still live at exit are reported as \
             san.leak.")
  in
  let no_leak_check =
    Arg.(
      value & flag
      & info [ "no-leak-check" ]
          ~doc:
            "with $(b,--checked): do not treat heap blocks still live at \
             exit as an error (for programs whose buffers are owned by the \
             host until teardown).")
  in
  let fail_alloc_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "fail-alloc-at" ] ~docv:"N"
          ~doc:
            "fault injection: fail the Nth program heap allocation with a \
             catchable fault.alloc diagnostic.")
  in
  let trap_at_step =
    Arg.(
      value
      & opt (some int) None
      & info [ "trap-at-step" ] ~docv:"N"
          ~doc:
            "fault injection: trap at the Nth retired VM instruction with a \
             catchable fault.trap diagnostic.")
  in
  let report_fuel =
    Arg.(
      value & flag
      & info [ "report-fuel" ]
          ~doc:"print consumed VM instructions to stderr (overhead checks).")
  in
  let opt =
    Arg.(
      value & opt int 2
      & info [ "opt" ] ~docv:"LEVEL"
          ~doc:
            "Topt optimization level: 0 = none, 1 = constant folding, copy \
             propagation, peephole, and dead-code elimination, 2 = adds \
             common-subexpression elimination and loop-invariant code \
             motion (default).")
  in
  let dump_ir =
    Arg.(
      value
      & opt (some (enum [ ("before", `Before); ("after", `After) ])) None
      & info [ "dump-ir" ] ~docv:"WHEN"
          ~doc:
            "print each compiled function's IR to stderr, either \
             $(b,before) or $(b,after) the optimizer runs.")
  in
  let dump_opt_stats =
    Arg.(
      value & flag
      & info [ "dump-opt-stats" ]
          ~doc:
            "print accumulated per-pass optimizer statistics (instructions \
             folded/hoisted/deleted, pass times) to stderr at exit.")
  in
  let transact =
    Arg.(
      value & flag
      & info [ "transact" ]
          ~doc:
            "run the program as a supervised transaction: the VM session is \
             journaled, transient injected faults are retried with \
             deterministic backoff, runtime faults in an optimized build \
             are retried once at $(b,--opt=0), and any failure rolls the \
             session back byte-for-byte before the diagnostic is reported.")
  in
  let verify_rollback =
    Arg.(
      value & flag
      & info [ "verify-rollback" ]
          ~doc:
            "with $(b,--transact): fingerprint the session (heap bytes, \
             allocator bookkeeping, shadow map) before the run and verify \
             the fingerprint is unchanged after a rolled-back failure; a \
             mismatch exits 3.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "with $(b,--transact)/$(b,--batch): maximum retries for \
             transient (fault.*) diagnostics (default 2).")
  in
  let batch =
    Arg.(
      value
      & opt (some file) None
      & info [ "batch" ] ~docv:"MANIFEST"
          ~doc:
            "batch mode: run every script listed in $(docv) (one per line, \
             with optional $(b,fuel=N) and $(b,retries=N) budgets) against \
             one shared engine under the supervisor, and print a \
             per-request JSON report to stdout.  Exits 0 only if every \
             request succeeded.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "with $(b,--batch): drain the manifest with $(docv) worker \
             domains, one private engine per worker, each request run \
             from a factory-fresh engine baseline.  The JSON report is \
             byte-identical for every $(docv) (rows stay in manifest \
             order) but carries no engine-wide profile, and \
             $(b,--trace) is unavailable.  Without $(b,--jobs) the \
             manifest runs sequentially against one shared engine and \
             the report includes the engine profile.")
  in
  let profile =
    Arg.(
      value
      & opt
          (some (enum [ ("text", `Text); ("json", `Json) ]))
          None ~vopt:(Some `Text)
      & info [ "profile" ] ~docv:"FORMAT"
          ~doc:
            "collect a deterministic instruction/allocation profile and \
             print it to stderr at exit: $(b,text) (default; flat + \
             call-graph tables, byte-identical across runs of the same \
             program) or $(b,json) (schema terra-prof-1, adds compile-phase \
             wall times).  The profile's total retired-instruction count \
             equals $(b,--report-fuel).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "record VM events (call/return, alloc/free, transactions, \
             faults, breaker transitions) and write them to $(docv) as \
             Chrome trace_event JSON (load in chrome://tracing or \
             Perfetto).  Timestamps are virtual ticks, so traces are \
             deterministic.")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "persistent compilation cache: reuse post-optimizer IR stored \
             in $(docv) (created if missing) for functions whose \
             typechecked AST, opt level, machine model, and checkedness \
             match, and store what this run compiles.  Corrupt or stale \
             entries are detected, reported in \
             $(b,terralib.cachestats()), and transparently recompiled.")
  in
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE"
          ~doc:
            "at exit, write every cache entry this run compiled or used \
             to $(docv) as a single artifact pack (saveobj-style AOT), \
             loadable with $(b,--preload).")
  in
  let preload =
    Arg.(
      value
      & opt (some file) None
      & info [ "preload" ] ~docv:"FILE"
          ~doc:
            "preload an artifact pack written by $(b,--emit) before \
             running; a damaged pack is reported and the run proceeds \
             cold.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "terra_run" ~doc:"run a combined Lua-Terra program")
      Term.(
        const run_file $ path $ stats $ fuel $ max_steps $ max_depth $ checked
        $ no_leak_check $ fail_alloc_at $ trap_at_step $ report_fuel $ opt
        $ dump_ir $ dump_opt_stats $ transact $ verify_rollback $ retries
        $ batch $ jobs $ profile $ trace $ cache $ emit $ preload)
  in
  exit (Cmd.eval' cmd)
