(* Topt optimizer tests: CFG round-trips, individual pass behaviour,
   sanitizer-awareness, and — the load-bearing guarantee — differential
   execution: every golden program and a fuzzed program set must behave
   byte-identically at --opt=0 and --opt=2. *)

module Ir = Tvm.Ir
module Vm = Tvm.Vm

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let new_vm () =
  let vm =
    Vm.create ~mem_bytes:(16 * 1024 * 1024)
      (Tmachine.Machine.create Tmachine.Config.test_tiny)
  in
  Tvm.Builtins.install vm;
  vm

let mk_func ?(nparams = 0) ?(nregs = 8) code =
  { Ir.fname = "t"; nparams; nregs; frame_bytes = 0; code }

let run_func f args =
  let vm = new_vm () in
  let id = Vm.add_func vm f in
  Vm.call vm id args

(* retired instructions for one call *)
let steps_of f args =
  let vm = new_vm () in
  let id = Vm.add_func vm f in
  let s0 = Vm.steps vm in
  let v = Vm.call vm id args in
  (v, Vm.steps vm - s0)

let opt ?(level = 2) ?(checked = false) f =
  Topt.Pipeline.optimize ~level ~checked f

(* ------------------------------------------------------------------ *)
(* CFG round-trip *)

let test_cfg_roundtrip_diamond () =
  let f =
    mk_func ~nparams:1
      [|
        Ir.Br (Ir.R 0, 1, 3);
        Ir.Mov (1, Ir.Ki 10L);
        Ir.Jmp 4;
        Ir.Mov (1, Ir.Ki 20L);
        Ir.Ret (Some (Ir.R 1));
      |]
  in
  let g = Topt.Cfg.to_func (Topt.Cfg.of_func f) in
  List.iter
    (fun x ->
      let expect = run_func f [| Vm.VI x |] in
      let got = run_func g [| Vm.VI x |] in
      checkb "same result" true (expect = got))
    [ 0L; 1L ]

let test_cfg_roundtrip_loop () =
  (* sum 0..n-1 with a self-contained while loop *)
  let f =
    mk_func ~nparams:1
      [|
        Ir.Mov (1, Ir.Ki 0L);
        Ir.Mov (2, Ir.Ki 0L);
        Ir.Ibin (Ir.Lts, 3, Ir.R 2, Ir.R 0);
        Ir.Br (Ir.R 3, 4, 7);
        Ir.Ibin (Ir.Add, 1, Ir.R 1, Ir.R 2);
        Ir.Ibin (Ir.Add, 2, Ir.R 2, Ir.Ki 1L);
        Ir.Jmp 2;
        Ir.Ret (Some (Ir.R 1));
      |]
  in
  let cfg = Topt.Cfg.of_func f in
  let g = Topt.Cfg.to_func cfg in
  checkb "roundtrip equal code" true (g.Ir.code = f.Ir.code);
  checkb "same sum" true
    (run_func f [| Vm.VI 10L |] = run_func g [| Vm.VI 10L |])

let test_cfg_unsupported_bails () =
  (* branch target out of range: optimizer must leave it alone *)
  let f = mk_func [| Ir.Jmp 99 |] in
  checkb "identity" true (opt f == f)

let test_cfg_merge_chain () =
  (* regression: a constant branch folds this into a straight A→B→C
     chain; merging B into A and then visiting the already-removed B in
     the same round used to delete C while A still jumped to it, making
     to_func raise Unsupported out of the pipeline *)
  let f =
    mk_func ~nparams:1
      [|
        Ir.Mov (1, Ir.Ki 5L);
        Ir.Ibin (Ir.Lts, 2, Ir.R 1, Ir.Ki 12L);
        Ir.Br (Ir.R 2, 3, 5);
        Ir.Mov (1, Ir.R 0);
        Ir.Jmp 5;
        Ir.Ret (Some (Ir.R 1));
        Ir.Ret None;
      |]
  in
  let g = opt f in
  List.iter
    (fun x ->
      checkb "same result" true
        (run_func f [| Vm.VI x |] = run_func g [| Vm.VI x |]))
    [ -8L; 0L; 42L ]

(* ------------------------------------------------------------------ *)
(* Individual passes *)

let test_fold_constants () =
  let f =
    mk_func
      [|
        Ir.Mov (0, Ir.Ki 3L);
        Ir.Ibin (Ir.Mul, 1, Ir.R 0, Ir.Ki 4L);
        Ir.Ibin (Ir.Add, 2, Ir.R 1, Ir.Ki 2L);
        Ir.Ret (Some (Ir.R 2));
      |]
  in
  let g = opt ~level:1 f in
  checkb "result" true (run_func g [||] = Vm.VI 14L);
  checki "folds to a single ret" 1 (Array.length g.Ir.code)

let test_fold_preserves_divzero () =
  let f =
    mk_func
      [| Ir.Ibin (Ir.Divs, 0, Ir.Ki 1L, Ir.Ki 0L); Ir.Ret (Some (Ir.R 0)) |]
  in
  let g = opt f in
  checkb "still traps" true
    (match run_func g [||] with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_peephole_strength_reduction () =
  let f =
    mk_func ~nparams:1
      [| Ir.Ibin (Ir.Mul, 1, Ir.R 0, Ir.Ki 8L); Ir.Ret (Some (Ir.R 1)) |]
  in
  let g = opt ~level:1 f in
  checkb "mul by 8 becomes shl 3" true
    (Array.exists
       (function Ir.Ibin (Ir.Shl, _, _, Ir.Ki 3L) -> true | _ -> false)
       g.Ir.code);
  checkb "value" true (run_func g [| Vm.VI 5L |] = Vm.VI 40L)

let test_lea_merge () =
  (* base+i*16 then +8: struct-field-after-index addressing *)
  let f =
    mk_func ~nparams:2
      [|
        Ir.Lea (2, Ir.R 0, Ir.R 1, 16, 0);
        Ir.Lea (3, Ir.R 2, Ir.Ki 0L, 0, 8);
        Ir.Ret (Some (Ir.R 3));
      |]
  in
  let g = opt f in
  checkb "one lea survives" true
    (Array.length g.Ir.code = 2
    && run_func g [| Vm.VI 1000L; Vm.VI 3L |] = Vm.VI 1056L)

let test_dce_removes_dead () =
  let f =
    mk_func ~nparams:1
      [|
        Ir.Fbin (Ir.Fk64, Ir.FMul, 1, Ir.Kf 3.0, Ir.Kf 4.0);
        Ir.Ibin (Ir.Add, 2, Ir.R 0, Ir.Ki 1L);
        Ir.Ret (Some (Ir.R 2));
      |]
  in
  let g = opt ~level:1 f in
  checkb "dead fmul gone" true
    (not
       (Array.exists (function Ir.Fbin _ -> true | _ -> false) g.Ir.code));
  checkb "value" true (run_func g [| Vm.VI 9L |] = Vm.VI 10L)

let test_cse_loads_unchecked_only () =
  (* two identical loads: merged when unchecked, both kept under the
     sanitizer so every access stays visible to the shadow map *)
  let f =
    mk_func ~nparams:1
      [|
        Ir.Load (Ir.I64, 1, Ir.R 0);
        Ir.Load (Ir.I64, 2, Ir.R 0);
        Ir.Ibin (Ir.Add, 3, Ir.R 1, Ir.R 2);
        Ir.Ret (Some (Ir.R 3));
      |]
  in
  let count_loads g =
    Array.fold_left
      (fun n i -> match i with Ir.Load _ -> n + 1 | _ -> n)
      0 g.Ir.code
  in
  let unchecked = opt ~checked:false f in
  let checked = opt ~checked:true f in
  checki "unchecked merges the load" 1 (count_loads unchecked);
  checki "checked keeps both" 2 (count_loads checked);
  let vm = new_vm () in
  let addr = Tvm.Alloc.malloc vm.Vm.alloc 8 in
  Tvm.Mem.set_i64 vm.Vm.mem addr 21L;
  let run g =
    let id = Vm.add_func vm g in
    Vm.call vm id [| Vm.VI (Int64.of_int addr) |]
  in
  checkb "same value" true (run unchecked = Vm.VI 42L && run checked = Vm.VI 42L)

let test_cse_store_barrier () =
  (* a store between the loads kills the available expression *)
  let f =
    mk_func ~nparams:1
      [|
        Ir.Load (Ir.I64, 1, Ir.R 0);
        Ir.Store (Ir.I64, Ir.R 0, Ir.Ki 7L);
        Ir.Load (Ir.I64, 2, Ir.R 0);
        Ir.Ibin (Ir.Add, 3, Ir.R 1, Ir.R 2);
        Ir.Ret (Some (Ir.R 3));
      |]
  in
  let g = opt ~checked:false f in
  let loads =
    Array.fold_left
      (fun n i -> match i with Ir.Load _ -> n + 1 | _ -> n)
      0 g.Ir.code
  in
  checki "both loads survive the store" 2 loads;
  let vm = new_vm () in
  let addr = Tvm.Alloc.malloc vm.Vm.alloc 8 in
  Tvm.Mem.set_i64 vm.Vm.mem addr 5L;
  let id = Vm.add_func vm g in
  checkb "reads the stored value" true
    (Vm.call vm id [| Vm.VI (Int64.of_int addr) |] = Vm.VI 12L)

let test_licm_hoists () =
  (* acc += x*2.0 in a counted loop: the multiply is invariant *)
  let f =
    mk_func ~nparams:2
      [|
        Ir.Mov (2, Ir.Ki 0L);
        Ir.Mov (3, Ir.Kf 0.0);
        Ir.Ibin (Ir.Lts, 4, Ir.R 2, Ir.R 0);
        Ir.Br (Ir.R 4, 4, 8);
        Ir.Fbin (Ir.Fk64, Ir.FMul, 5, Ir.R 1, Ir.Kf 2.0);
        Ir.Fbin (Ir.Fk64, Ir.FAdd, 3, Ir.R 3, Ir.R 5);
        Ir.Ibin (Ir.Add, 2, Ir.R 2, Ir.Ki 1L);
        Ir.Jmp 2;
        Ir.Ret (Some (Ir.R 3));
      |]
  in
  let g = opt f in
  let args = [| Vm.VI 50L; Vm.VF 1.5 |] in
  let v0, s0 = steps_of f args in
  let v1, s1 = steps_of g args in
  checkb "same sum" true (v0 = v1);
  checkb "fewer retired instructions" true (s1 < s0 - 40)

let test_stats_populated () =
  let stats = Topt.Stats.create () in
  let f =
    mk_func ~nparams:1
      [|
        Ir.Mov (1, Ir.Ki 2L);
        Ir.Ibin (Ir.Mul, 2, Ir.R 0, Ir.R 1);
        Ir.Mov (3, Ir.R 2);
        Ir.Ret (Some (Ir.R 3));
      |]
  in
  let _ = Topt.Pipeline.optimize ~level:2 ~stats f in
  checki "one function" 1 stats.Topt.Stats.s_funcs;
  checkb "events recorded" true (Topt.Stats.total_events stats > 0);
  checkb "shrank" true (stats.Topt.Stats.s_after < stats.Topt.Stats.s_before)

(* ------------------------------------------------------------------ *)
(* Differential execution: golden programs *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* cwd at test time is _build/default/test; deps in test/dune stage the
   program sources at these relative paths *)
let golden_programs () =
  let dir d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".t")
    |> List.map (Filename.concat d)
    |> List.sort compare
  in
  dir "programs" @ dir "../examples/programs"

let run_at ?(checked = false) ~opt_level src name =
  let e =
    Terrastd.create ~mem_bytes:(64 * 1024 * 1024) ~checked
      ~opt_level ()
  in
  let out, r = Terra.Engine.run_capture_protected e ~file:name src in
  let tag =
    match r with Ok _ -> "ok" | Error d -> "error:" ^ d.Terra.Diag.code
  in
  (* the structural verifier on everything the program compiled: Compile's
     output at opt 0, Topt's at opt 2.  Declared-but-undefined slots
     ([<unset:N>]) have no body to check. *)
  let vm = e.Terra.Engine.ctx.Terra.Context.vm in
  for id = 0 to vm.Vm.nfuncs - 1 do
    let f = Vm.func vm id in
    if Array.length f.Ir.code > 0 then
      match
        Ir.verify ~nfuncs:vm.Vm.nfuncs ~nimports:vm.Vm.nimports f
      with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s at opt %d: function %d (%s) fails Ir.verify: %s"
            name opt_level id f.Ir.fname msg
  done;
  (out, tag, Terra.Engine.fuel_used e)

let check_differential ?checked path () =
  let src = read_file path in
  let o0, t0, _ = run_at ?checked ~opt_level:0 src path in
  let o2, t2, _ = run_at ?checked ~opt_level:2 src path in
  checks (path ^ " stdout") o0 o2;
  checks (path ^ " result") t0 t2

let golden_cases () =
  List.concat_map
    (fun path ->
      let base = Filename.basename path in
      [
        Alcotest.test_case base `Quick (check_differential path);
        Alcotest.test_case (base ^ " (checked)") `Quick
          (check_differential ~checked:true path);
      ])
    (golden_programs ())

(* ------------------------------------------------------------------ *)
(* Differential execution: fuzzed programs *)

(* Deterministic generated programs: initialized scalars, bounded loops,
   no division — every construct must behave identically at any opt
   level, so stdout and the result tag are compared byte-for-byte. *)
let gen_src (st : Random.State.t) : string =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ri n = Random.State.int st n in
  let pick a = a.(ri (Array.length a)) in
  let iconst () = string_of_int (ri 41 - 20) in
  let fconst () =
    Printf.sprintf "%.3f" (float_of_int (ri 400 - 200) /. 8.0)
  in
  let rec iexpr d =
    if d = 0 || ri 3 = 0 then pick [| "a"; "b"; "v0"; "v1"; iconst () |]
    else
      "(" ^ iexpr (d - 1) ^ pick [| " + "; " - "; " * " |] ^ iexpr (d - 1) ^ ")"
  in
  let rec fexpr d =
    if d = 0 || ri 3 = 0 then pick [| "x"; "w0"; "w1"; fconst () |]
    else
      "(" ^ fexpr (d - 1) ^ pick [| " + "; " - "; " * " |] ^ fexpr (d - 1) ^ ")"
  in
  let loopn = ref 0 in
  let stmt assigns cond body_expr =
    match ri 4 with
    | 0 -> add "  %s = %s\n" (pick assigns) (body_expr 2)
    | 1 ->
        add "  if %s then %s = %s else %s = %s end\n" (cond ())
          (pick assigns) (body_expr 2) (pick assigns) (body_expr 1)
    | 2 ->
        incr loopn;
        let i = Printf.sprintf "i%d" !loopn in
        add "  var %s = 0\n  while %s < %d do\n    %s = %s\n    %s = %s + 1\n  end\n"
          i i (ri 7) (pick assigns) (body_expr 2) i i
    | _ ->
        add "  for k%d = 0, %d do\n    %s = %s\n  end\n" !loopn (ri 5)
          (pick assigns) (body_expr 2)
  in
  add "terra fi(a : int, b : int) : int\n";
  add "  var v0 = %s\n" (iexpr 2);
  add "  var v1 = %s\n" (iexpr 2);
  let icond () = Printf.sprintf "%s < %s" (iexpr 1) (iexpr 1) in
  for _ = 1 to 2 + ri 3 do
    stmt [| "v0"; "v1" |] icond iexpr
  done;
  add "  return v0 + v1\nend\n";
  add "terra fd(x : double) : double\n";
  add "  var w0 = %s\n" (fexpr 2);
  add "  var w1 = %s\n" (fexpr 2);
  let fcond () = Printf.sprintf "%s < %s" (fexpr 1) (fexpr 1) in
  for _ = 1 to 2 + ri 3 do
    stmt [| "w0"; "w1" |] fcond fexpr
  done;
  add "  return w0 - w1\nend\n";
  add "print(fi(%s, %s))\n" (iconst ()) (iconst ());
  add "print(fd(%s))\n" (fconst ());
  Buffer.contents buf

let prop_fuzz_differential =
  QCheck.Test.make ~count:220 ~name:"fuzzed programs identical at opt 0 vs 2"
    (QCheck.make
       ~print:(fun s -> s)
       (fun st -> gen_src st))
    (fun src ->
      let o0, t0, _ = run_at ~opt_level:0 src "fuzz.t" in
      let o2, t2, _ = run_at ~opt_level:2 src "fuzz.t" in
      if o0 <> o2 || t0 <> t2 then
        QCheck.Test.fail_reportf "opt0: %s %S@.opt2: %s %S" t0 o0 t2 o2
      else true)

(* ------------------------------------------------------------------ *)
(* Acceptance: fuel reduction and optstats on real workloads *)

let test_mandelbrot_fuel_reduction () =
  let src = read_file "../examples/programs/mandelbrot.t" in
  let o0, t0, f0 = run_at ~opt_level:0 src "mandelbrot.t" in
  let o2, t2, f2 = run_at ~opt_level:2 src "mandelbrot.t" in
  checks "stdout identical" o0 o2;
  checks "both succeed" t0 t2;
  let reduction = 100.0 *. float_of_int (f0 - f2) /. float_of_int f0 in
  checkb
    (Printf.sprintf "fuel reduced >= 15%% (got %.1f%%: %d -> %d)" reduction f0
       f2)
    true
    (reduction >= 15.0)

let test_gemm_optstats_nonzero () =
  let ctx = Terra.Context.create ~mem_bytes:(64 * 1024 * 1024) () in
  let elem = Terra.Types.double in
  let p = { Tuner.Gemm.nb = 32; rm = 4; rn = 2; v = 4 } in
  let kernel = Tuner.Gemm.genkernel ctx ~elem p in
  let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:32 in
  Terra.Jit.ensure_compiled driver;
  let stats = ctx.Terra.Context.opt_stats in
  checkb "functions optimized" true (stats.Topt.Stats.s_funcs > 0);
  checkb "code shrank" true
    (stats.Topt.Stats.s_after < stats.Topt.Stats.s_before);
  List.iter
    (fun pass ->
      let p = Topt.Stats.pass stats pass in
      checkb (pass ^ " count non-zero on GEMM") true (p.Topt.Stats.p_events > 0))
    [ "copyprop"; "simplify"; "cse"; "licm"; "dce" ]

let test_gemm_fuel_reduction () =
  (* the blocked-GEMM acceptance criterion, at test scale *)
  let run level =
    let ctx =
      Terra.Context.create ~mem_bytes:(64 * 1024 * 1024) ~opt_level:level ()
    in
    let elem = Terra.Types.double in
    let n = 48 in
    let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
    Tuner.Gemm.fill_matrices ctx ~elem m;
    let reference = Tuner.Gemm.reference ctx ~elem m in
    let p = { Tuner.Gemm.nb = 24; rm = 2; rn = 2; v = 4 } in
    let kernel = Tuner.Gemm.genkernel ctx ~elem p in
    let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:24 in
    Terra.Jit.ensure_compiled driver;
    let s0 = Tvm.Vm.steps ctx.Terra.Context.vm in
    let _ = Tuner.Gemm.run_gemm ctx driver m in
    let fuel = Tvm.Vm.steps ctx.Terra.Context.vm - s0 in
    let err = Tuner.Gemm.max_error ctx ~elem m reference in
    Tuner.Gemm.free_matrices ctx m;
    (fuel, err)
  in
  let f0, e0 = run 0 in
  let f2, e2 = run 2 in
  checkb "opt0 correct" true (e0 < 1e-9);
  checkb "opt2 correct" true (e2 < 1e-9);
  let reduction = 100.0 *. float_of_int (f0 - f2) /. float_of_int f0 in
  checkb
    (Printf.sprintf "gemm fuel reduced >= 15%% (got %.1f%%)" reduction)
    true (reduction >= 15.0)

(* ------------------------------------------------------------------ *)
(* Vector-register spill path (compile.ml satellite) *)

let test_spill_path_matches_no_spill () =
  let ctx = Terra.Context.create ~mem_bytes:(128 * 1024 * 1024) () in
  let elem = Terra.Types.double in
  let n = 48 in
  (* RM=8 x RN=2 at V=4 wants 16+ vector registers: forces spills *)
  let p = { Tuner.Gemm.nb = 48; rm = 8; rn = 2; v = 4 } in
  let spilled = Tuner.Gemm.genkernel ctx ~elem p in
  let unspilled = Tuner.Gemm.genkernel ctx ~elem ~no_spill:true p in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "spill path exercised: spilltouch in compiled code" true
    (contains (Terra.Jit.disas spilled) "spilltouch");
  checkb "no_spill build has no spilltouch" true
    (not (contains (Terra.Jit.disas unspilled) "spilltouch"));
  let m = Tuner.Gemm.alloc_matrices ctx ~elem n in
  Tuner.Gemm.fill_matrices ctx ~elem m;
  let reference = Tuner.Gemm.reference ctx ~elem m in
  let check name kernel =
    Tuner.Gemm.fill_matrices ctx ~elem m;
    let driver = Tuner.Gemm.blocked_driver ctx ~elem ~kernel ~nb:48 in
    let _ = Tuner.Gemm.run_gemm ctx driver m in
    let err = Tuner.Gemm.max_error ctx ~elem m reference in
    checkb (name ^ " correct") true (err < 1e-9)
  in
  check "spilled kernel" spilled;
  check "no_spill kernel" unspilled;
  Tuner.Gemm.free_matrices ctx m

let () =
  Alcotest.run "topt"
    [
      ( "cfg",
        [
          Alcotest.test_case "roundtrip diamond" `Quick
            test_cfg_roundtrip_diamond;
          Alcotest.test_case "roundtrip loop" `Quick test_cfg_roundtrip_loop;
          Alcotest.test_case "unsupported code bails" `Quick
            test_cfg_unsupported_bails;
          Alcotest.test_case "straight-chain merge keeps edges live" `Quick
            test_cfg_merge_chain;
        ] );
      ( "passes",
        [
          Alcotest.test_case "constant folding" `Quick test_fold_constants;
          Alcotest.test_case "fold preserves div-by-zero" `Quick
            test_fold_preserves_divzero;
          Alcotest.test_case "strength reduction" `Quick
            test_peephole_strength_reduction;
          Alcotest.test_case "lea merge" `Quick test_lea_merge;
          Alcotest.test_case "dce" `Quick test_dce_removes_dead;
          Alcotest.test_case "cse loads gated by checked" `Quick
            test_cse_loads_unchecked_only;
          Alcotest.test_case "cse store barrier" `Quick test_cse_store_barrier;
          Alcotest.test_case "licm" `Quick test_licm_hoists;
          Alcotest.test_case "stats" `Quick test_stats_populated;
        ] );
      ("golden-differential", golden_cases ());
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_fuzz_differential ] );
      ( "acceptance",
        [
          Alcotest.test_case "mandelbrot fuel -15%" `Quick
            test_mandelbrot_fuel_reduction;
          Alcotest.test_case "gemm optstats non-zero" `Quick
            test_gemm_optstats_nonzero;
          Alcotest.test_case "gemm fuel -15%" `Quick test_gemm_fuel_reduction;
          Alcotest.test_case "vector spill path" `Quick
            test_spill_path_matches_no_spill;
        ] );
    ]
