(* Tests for the VM substrate: memory, allocator, IR semantics. *)

open Tvm
module Ir = Tvm.Ir

let checki = Alcotest.(check int)
let checki64 = Alcotest.(check int64)
let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let new_vm () =
  let vm =
    Vm.create ~mem_bytes:(16 * 1024 * 1024)
      (Tmachine.Machine.create Tmachine.Config.test_tiny)
  in
  Builtins.install vm;
  vm

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_mem_roundtrip () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  Mem.set_i64 m 8192 0x1122334455667788L;
  checki64 "i64" 0x1122334455667788L (Mem.get_i64 m 8192);
  Mem.set_f64 m 8200 3.14159;
  checkf "f64" 3.14159 (Mem.get_f64 m 8200);
  Mem.set_f32 m 8208 1.5;
  checkf "f32" 1.5 (Mem.get_f32 m 8208);
  Mem.set_u8 m 8212 200;
  checki "u8" 200 (Mem.get_u8 m 8212);
  checki "i8 sign extends" (-56) (Mem.get_i8 m 8212);
  Mem.set_u16 m 8214 0xBEEF;
  checki "u16" 0xBEEF (Mem.get_u16 m 8214);
  checki "i16 sign extends" (-16657) (Mem.get_i16 m 8214)

let test_mem_little_endian () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  Mem.set_i32 m 8192 0x04030201l;
  checki "LE byte 0" 1 (Mem.get_u8 m 8192);
  checki "LE byte 3" 4 (Mem.get_u8 m 8195)

let test_mem_null_faults () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  Alcotest.check_raises "null deref"
    (Mem.Fault (0, "load u8"))
    (fun () -> ignore (Mem.get_u8 m 0))

let test_mem_oob_faults () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  checkb "oob traps" true
    (match Mem.get_i64 m (Mem.size m + 10) with
    | exception Mem.Fault _ -> true
    | _ -> false)

let test_mem_negative_len_faults () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  checkb "negative blit length traps" true
    (match Mem.blit m ~src:8192 ~dst:9000 ~len:(-1) with
    | exception Mem.Fault (_, what) ->
        checkb "names the cause" true
          (String.length what > 0
          && String.sub what (String.length what - 1) 1 = ")");
        true
    | _ -> false);
  checkb "negative fill length traps" true
    (match Mem.fill m 8192 (-8) 'x' with
    | exception Mem.Fault _ -> true
    | _ -> false)

let test_mem_len_overflow_faults () =
  (* addr + len wrapping past the arena must not pass the bounds check *)
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  checkb "huge length traps" true
    (match Mem.fill m 8192 max_int 'x' with
    | exception Mem.Fault _ -> true
    | _ -> false);
  checkb "addr+len overflow traps" true
    (match Mem.blit m ~src:8192 ~dst:(Mem.size m - 4) ~len:8 with
    | exception Mem.Fault _ -> true
    | _ -> false)

let test_cstring_roundtrip () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  Mem.set_cstring m 9000 "hello terra";
  Alcotest.(check string) "cstring" "hello terra" (Mem.get_cstring m 9000)

let test_cstring_unterminated_bounded () =
  (* a missing NUL must fault after max_cstring bytes, not scan the
     whole arena *)
  let m = Mem.create ~bytes:(4 * 1024 * 1024) () in
  Mem.fill m Mem.statics_base (Mem.size m - Mem.statics_base) 'a';
  checkb "scan is bounded" true (Mem.max_cstring <= 1 lsl 20);
  checkb "unterminated string traps" true
    (match Mem.get_cstring m Mem.statics_base with
    | exception Mem.Fault (_, what) ->
        checkb "mentions the missing NUL" true
          (String.length what >= 12 && String.sub what 0 12 = "unterminated");
        true
    | _ -> false)

let test_blit () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  Mem.set_i64 m 8192 42L;
  Mem.blit m ~src:8192 ~dst:9000 ~len:8;
  checki64 "copied" 42L (Mem.get_i64 m 9000)

let test_alloc_static_aligned () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Mem.alloc_static m ~align:1 3 in
  let b = Mem.alloc_static m ~align:16 8 in
  checki "aligned" 0 (b mod 16);
  checkb "no overlap" true (b >= a + 3)

(* ------------------------------------------------------------------ *)
(* Allocator *)

let test_malloc_basic () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Alloc.create m in
  let p1 = Alloc.malloc a 100 in
  let p2 = Alloc.malloc a 100 in
  checkb "distinct" true (p2 >= p1 + 100 || p1 >= p2 + 100);
  checki "aligned" 0 (p1 mod 16);
  Alloc.free a p1;
  Alloc.free a p2;
  checki "all freed" 0 (Alloc.live_blocks a)

let test_free_reuse () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Alloc.create m in
  let p1 = Alloc.malloc a (1 lsl 20) in
  Alloc.free a p1;
  let p2 = Alloc.malloc a (1 lsl 20) in
  checkb "space reused" true (p2 <= p1 + 1024)

let test_double_free_rejected () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Alloc.create m in
  let p = Alloc.malloc a 64 in
  Alloc.free a p;
  Alcotest.check_raises "double free" (Alloc.Invalid_free p) (fun () ->
      Alloc.free a p)

let test_free_null_ok () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Alloc.create m in
  Alloc.free a 0

let test_realloc_copies () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Alloc.create m in
  let p = Alloc.malloc a 16 in
  Mem.set_i64 m p 777L;
  let q = Alloc.realloc a p 256 in
  checki64 "contents copied" 777L (Mem.get_i64 m q)

let test_oom () =
  let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
  let a = Alloc.create m in
  checkb "OOM raised" true
    (match Alloc.malloc a (1 lsl 62) with
    | exception Alloc.Out_of_memory _ -> true
    | _ -> false)

let prop_no_overlap =
  QCheck.Test.make ~count:50 ~name:"live blocks never overlap"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 4096))
    (fun sizes ->
      let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
      let a = Alloc.create m in
      let ptrs = List.map (fun s -> (Alloc.malloc a s, s)) sizes in
      (* free every other block, then allocate again *)
      List.iteri (fun i (p, _) -> if i mod 2 = 0 then Alloc.free a p) ptrs;
      let _more = List.map (fun s -> Alloc.malloc a s) sizes in
      let blocks = List.sort compare (Alloc.blocks a) in
      let rec ok = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && ok rest
        | _ -> true
      in
      ok blocks)

let prop_malloc_free_balance =
  QCheck.Test.make ~count:50 ~name:"free restores live_bytes"
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 10000))
    (fun sizes ->
      let m = Mem.create ~bytes:(16 * 1024 * 1024) () in
      let a = Alloc.create m in
      let ptrs = List.map (Alloc.malloc a) sizes in
      List.iter (Alloc.free a) ptrs;
      Alloc.live_bytes a = 0 && Alloc.live_blocks a = 0)

(* ------------------------------------------------------------------ *)
(* VM execution *)

let compile_and_run ?(args = [||]) code ~nparams ~nregs =
  let vm = new_vm () in
  let id =
    Vm.add_func vm { Ir.fname = "t"; nparams; nregs; frame_bytes = 64; code }
  in
  Vm.call vm id args

let test_ret_const () =
  match compile_and_run [| Ir.Ret (Some (Ir.Ki 42L)) |] ~nparams:0 ~nregs:0 with
  | Vm.VI v -> checki64 "const" 42L v
  | _ -> Alcotest.fail "expected int"

let test_int_arith () =
  let cases =
    [
      (Ir.Add, 7L, 3L, 10L); (Ir.Sub, 7L, 3L, 4L); (Ir.Mul, 7L, 3L, 21L);
      (Ir.Divs, 7L, 3L, 2L); (Ir.Divs, -7L, 3L, -2L); (Ir.Rems, 7L, 3L, 1L);
      (Ir.Band, 6L, 3L, 2L); (Ir.Bor, 6L, 3L, 7L); (Ir.Bxor, 6L, 3L, 5L);
      (Ir.Shl, 3L, 4L, 48L); (Ir.Shrs, -16L, 2L, -4L);
      (Ir.Lts, 3L, 7L, 1L); (Ir.Gts, 3L, 7L, 0L);
      (Ir.Mins, 3L, 7L, 3L); (Ir.Maxs, 3L, 7L, 7L);
      (Ir.Ltu, -1L, 1L, 0L) (* unsigned: 2^64-1 > 1 *);
    ]
  in
  List.iter
    (fun (op, a, b, expect) ->
      match
        compile_and_run ~nparams:0 ~nregs:1
          [| Ir.Ibin (op, 0, Ir.Ki a, Ir.Ki b); Ir.Ret (Some (Ir.R 0)) |]
      with
      | Vm.VI v ->
          checki64 (Printf.sprintf "%s %Ld %Ld" (Ir.ibin_name op) a b) expect v
      | _ -> Alcotest.fail "int expected")
    cases

let test_div_by_zero_traps () =
  checkb "traps" true
    (match
       compile_and_run ~nparams:0 ~nregs:1
         [| Ir.Ibin (Ir.Divs, 0, Ir.Ki 1L, Ir.Ki 0L); Ir.Ret (Some (Ir.R 0)) |]
     with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_float_arith () =
  match
    compile_and_run ~nparams:0 ~nregs:2
      [|
        Ir.Fbin (Ir.Fk64, Ir.FMul, 0, Ir.Kf 2.5, Ir.Kf 4.0);
        Ir.Fbin (Ir.Fk64, Ir.FAdd, 1, Ir.R 0, Ir.Kf 1.0);
        Ir.Ret (Some (Ir.R 1));
      |]
  with
  | Vm.VF v -> checkf "2.5*4+1" 11.0 v
  | _ -> Alcotest.fail "float expected"

let test_f32_rounding () =
  (* f32 arithmetic rounds to single precision *)
  match
    compile_and_run ~nparams:0 ~nregs:1
      [|
        Ir.Fbin (Ir.Fk32, Ir.FAdd, 0, Ir.Kf 0.1, Ir.Kf 0.2);
        Ir.Ret (Some (Ir.R 0));
      |]
  with
  | Vm.VF v ->
      checkf "f32 rounded" (Int32.float_of_bits (Int32.bits_of_float 0.3)) v
  | _ -> Alcotest.fail "float expected"

let test_branch_loop () =
  (* sum 1..10 *)
  let code =
    [|
      Ir.Mov (0, Ir.Ki 0L) (* acc *);
      Ir.Mov (1, Ir.Ki 1L) (* i *);
      (* 2: *) Ir.Ibin (Ir.Les, 2, Ir.R 1, Ir.Ki 10L);
      Ir.Br (Ir.R 2, 4, 7);
      (* 4: *) Ir.Ibin (Ir.Add, 0, Ir.R 0, Ir.R 1);
      Ir.Ibin (Ir.Add, 1, Ir.R 1, Ir.Ki 1L);
      Ir.Jmp 2;
      (* 7: *) Ir.Ret (Some (Ir.R 0));
    |]
  in
  match compile_and_run code ~nparams:0 ~nregs:3 with
  | Vm.VI v -> checki64 "sum" 55L v
  | _ -> Alcotest.fail "int"

let test_load_store () =
  let vm = new_vm () in
  let addr = Alloc.malloc vm.Vm.alloc 64 in
  let code =
    [|
      Ir.Store (Ir.F64, Ir.Ki (Int64.of_int addr), Ir.Kf 6.25);
      Ir.Load (Ir.F64, 0, Ir.Ki (Int64.of_int addr));
      Ir.Ret (Some (Ir.R 0));
    |]
  in
  let id =
    Vm.add_func vm { Ir.fname = "ls"; nparams = 0; nregs = 1; frame_bytes = 0; code }
  in
  match Vm.call vm id [||] with
  | Vm.VF v -> checkf "roundtrip" 6.25 v
  | _ -> Alcotest.fail "float"

let test_narrow_store_truncates () =
  let vm = new_vm () in
  let addr = Alloc.malloc vm.Vm.alloc 64 in
  let code =
    [|
      Ir.Store (Ir.U8, Ir.Ki (Int64.of_int addr), Ir.Ki 0x1FFL);
      Ir.Load (Ir.U8, 0, Ir.Ki (Int64.of_int addr));
      Ir.Ret (Some (Ir.R 0));
    |]
  in
  let id =
    Vm.add_func vm { Ir.fname = "n"; nparams = 0; nregs = 1; frame_bytes = 0; code }
  in
  match Vm.call vm id [||] with
  | Vm.VI v -> checki64 "truncated" 0xFFL v
  | _ -> Alcotest.fail "int"

let test_vector_ops () =
  let vm = new_vm () in
  let addr = Alloc.malloc vm.Vm.alloc 64 in
  let code =
    [|
      Ir.Vsplat (Ir.Fk64, 4, 0, Ir.Kf 3.0);
      Ir.Vsplat (Ir.Fk64, 4, 1, Ir.Kf 2.0);
      Ir.Vbin (Ir.Fk64, 4, Ir.FMul, 2, Ir.R 0, Ir.R 1);
      Ir.Vstore (Ir.Fk64, 4, Ir.Ki (Int64.of_int addr), Ir.R 2);
      Ir.Vload (Ir.Fk64, 4, 3, Ir.Ki (Int64.of_int addr));
      Ir.Vextract (4, Ir.R 3, 2);
      Ir.Ret (Some (Ir.R 4));
    |]
  in
  let id =
    Vm.add_func vm { Ir.fname = "v"; nparams = 0; nregs = 5; frame_bytes = 0; code }
  in
  match Vm.call vm id [||] with
  | Vm.VF v -> checkf "splat mul" 6.0 v
  | _ -> Alcotest.fail "float"

let test_call_and_args () =
  let vm = new_vm () in
  let callee =
    Vm.add_func vm
      {
        Ir.fname = "add";
        nparams = 2;
        nregs = 3;
        frame_bytes = 0;
        code = [| Ir.Ibin (Ir.Add, 2, Ir.R 0, Ir.R 1); Ir.Ret (Some (Ir.R 2)) |];
      }
  in
  let caller =
    Vm.add_func vm
      {
        Ir.fname = "main";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code =
          [| Ir.Call (Some 0, callee, [ Ir.Ki 40L; Ir.Ki 2L ]); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  match Vm.call vm caller [||] with
  | Vm.VI v -> checki64 "call" 42L v
  | _ -> Alcotest.fail "int"

let test_indirect_call () =
  let vm = new_vm () in
  let callee =
    Vm.add_func vm
      {
        Ir.fname = "seven";
        nparams = 0;
        nregs = 0;
        frame_bytes = 0;
        code = [| Ir.Ret (Some (Ir.Ki 7L)) |];
      }
  in
  let fptr = Int64.of_int (Ir.func_addr callee) in
  let caller =
    Vm.add_func vm
      {
        Ir.fname = "main";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Callind (Some 0, Ir.Ki fptr, []); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  match Vm.call vm caller [||] with
  | Vm.VI v -> checki64 "indirect" 7L v
  | _ -> Alcotest.fail "int"

let test_indirect_bad_address_traps () =
  let vm = new_vm () in
  let caller =
    Vm.add_func vm
      {
        Ir.fname = "main";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Callind (Some 0, Ir.Ki 12345L, []); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  checkb "traps" true
    (match Vm.call vm caller [||] with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_undefined_function_traps () =
  let vm = new_vm () in
  let id = Vm.declare_func vm "ghost" in
  checkb "link error" true
    (match Vm.call vm id [||] with
    | exception Vm.Trap msg -> String.length msg > 0
    | _ -> false)

let test_frame_addr_and_stack () =
  let vm = new_vm () in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "f";
        nparams = 0;
        nregs = 2;
        frame_bytes = 32;
        code =
          [|
            Ir.FrameAddr (0, 8);
            Ir.Store (Ir.I64, Ir.R 0, Ir.Ki 99L);
            Ir.Load (Ir.I64, 1, Ir.R 0);
            Ir.Ret (Some (Ir.R 1));
          |];
      }
  in
  (match Vm.call vm id [||] with
  | Vm.VI v -> checki64 "frame slot" 99L v
  | _ -> Alcotest.fail "int");
  (* stack pointer restored *)
  checki "sp restored" (Mem.stack_top vm.Vm.mem) vm.Vm.sp

let test_fuel_stops_infinite_loop () =
  let vm = new_vm () in
  Vm.set_fuel vm 10_000;
  let id =
    Vm.add_func vm
      { Ir.fname = "spin"; nparams = 0; nregs = 0; frame_bytes = 0; code = [| Ir.Jmp 0 |] }
  in
  checkb "fuel trap" true
    (match Vm.call vm id [||] with
    | exception Vm.Trap "fuel exhausted" -> true
    | _ -> false)

let test_builtin_malloc_free () =
  let vm = new_vm () in
  let malloc = Vm.import vm "malloc" in
  let free = Vm.import vm "free" in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "m";
        nparams = 0;
        nregs = 2;
        frame_bytes = 0;
        code =
          [|
            Ir.Ccall (Some 0, malloc, [ Ir.Ki 128L ]);
            Ir.Store (Ir.I64, Ir.R 0, Ir.Ki 5L);
            Ir.Load (Ir.I64, 1, Ir.R 0);
            Ir.Ccall (None, free, [ Ir.R 0 ]);
            Ir.Ret (Some (Ir.R 1));
          |];
      }
  in
  (match Vm.call vm id [||] with
  | Vm.VI v -> checki64 "heap roundtrip" 5L v
  | _ -> Alcotest.fail "int");
  checki "no leak" 0 (Alloc.live_blocks vm.Vm.alloc)

let test_builtin_sqrt () =
  let vm = new_vm () in
  let sqrt_i = Vm.import vm "sqrt" in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "s";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Ccall (Some 0, sqrt_i, [ Ir.Kf 49.0 ]); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  match Vm.call vm id [||] with
  | Vm.VF v -> checkf "sqrt" 7.0 v
  | _ -> Alcotest.fail "float"

let test_unresolved_import_traps () =
  let vm = new_vm () in
  let imp = Vm.import vm "no_such_c_function" in
  let id =
    Vm.add_func vm
      {
        Ir.fname = "u";
        nparams = 0;
        nregs = 1;
        frame_bytes = 0;
        code = [| Ir.Ccall (Some 0, imp, []); Ir.Ret (Some (Ir.R 0)) |];
      }
  in
  checkb "traps" true
    (match Vm.call vm id [||] with exception Vm.Trap _ -> true | _ -> false)

let test_unset_slot_traps () =
  let vm = new_vm () in
  (* calling a slot that was never declared must be a clear diagnostic,
     not an index error or a confusing empty-name link failure *)
  checkb "trap names the slot" true
    (match Vm.call vm 7 [||] with
    | exception Vm.Trap msg -> msg = "call to unset function slot 7"
    | _ -> false);
  checkb "negative slot traps too" true
    (match Vm.call vm (-1) [||] with
    | exception Vm.Trap _ -> true
    | _ -> false)

let test_unset_slots_distinct () =
  let vm = new_vm () in
  (* the funcs array must not alias one shared placeholder record *)
  checkb "fresh slots are distinct records" true
    (vm.Vm.funcs.(0) != vm.Vm.funcs.(1));
  let _ = Vm.declare_func vm "a" in
  (* force a grow past the initial 16 slots *)
  for i = 0 to 20 do
    ignore (Vm.declare_func vm (Printf.sprintf "f%d" i))
  done;
  checkb "grown slots are distinct records" true
    (vm.Vm.funcs.(30) != vm.Vm.funcs.(31))

(* golden output for the IR pretty-printers (satellite of --dump-ir) *)
let test_pp_instr_golden () =
  let checks = Alcotest.(check string) in
  let pp i = Format.asprintf "%a" Ir.pp_instr i in
  checks "mov" "r1 := 42" (pp (Ir.Mov (1, Ir.Ki 42L)));
  checks "ibin" "r2 := add r0 r1" (pp (Ir.Ibin (Ir.Add, 2, Ir.R 0, Ir.R 1)));
  checks "fbin" "r3 := fmul r1 2.5" (pp (Ir.Fbin (Ir.Fk64, Ir.FMul, 3, Ir.R 1, Ir.Kf 2.5)));
  checks "lea" "r4 := lea r0 + r1*8 + 16" (pp (Ir.Lea (4, Ir.R 0, Ir.R 1, 8, 16)));
  checks "load" "r5 := load.f64 [r4]" (pp (Ir.Load (Ir.F64, 5, Ir.R 4)));
  checks "store" "store.i32 [r4] r5" (pp (Ir.Store (Ir.I32, Ir.R 4, Ir.R 5)));
  checks "vload" "r6 := vload.4 [r4]" (pp (Ir.Vload (Ir.Fk64, 4, 6, Ir.R 4)));
  checks "cvt" "r7 := cvt.i64->f64 r0" (pp (Ir.Cvt (Ir.I64, Ir.F64, 7, Ir.R 0)));
  checks "call" "r8 := call f3(r0, 1)"
    (pp (Ir.Call (Some 8, 3, [ Ir.R 0; Ir.Ki 1L ])));
  checks "void call" "_ := call f3()" (pp (Ir.Call (None, 3, [])));
  checks "br" "br r0 3 7" (pp (Ir.Br (Ir.R 0, 3, 7)));
  checks "ret" "ret r0" (pp (Ir.Ret (Some (Ir.R 0))));
  checks "frameaddr" "r9 := sp + 24" (pp (Ir.FrameAddr (9, 24)))

let test_pp_func_golden () =
  let f =
    {
      Ir.fname = "axpy";
      nparams = 2;
      nregs = 3;
      frame_bytes = 0;
      code =
        [|
          Ir.Fbin (Ir.Fk64, Ir.FMul, 2, Ir.R 0, Ir.Kf 2.0);
          Ir.Fbin (Ir.Fk64, Ir.FAdd, 2, Ir.R 2, Ir.R 1);
          Ir.Ret (Some (Ir.R 2));
        |];
    }
  in
  Alcotest.(check string)
    "pp_func"
    "func axpy(2 params, 3 regs, frame 0):\n\
    \    0: r2 := fmul r0 2\n\
    \    1: r2 := fadd r2 r1\n\
    \    2: ret r2\n"
    (Format.asprintf "%a" Ir.pp_func f)

let prop_cvt_int_widths =
  QCheck.Test.make ~count:200 ~name:"cvt to i8/i16/i32 wraps like C"
    QCheck.int64 (fun x ->
      let run to_t =
        match
          compile_and_run ~nparams:0 ~nregs:1
            [| Ir.Cvt (Ir.I64, to_t, 0, Ir.Ki x); Ir.Ret (Some (Ir.R 0)) |]
        with
        | Vm.VI v -> v
        | _ -> Alcotest.fail "int"
      in
      let i8 = run Ir.I8 and i32 = run Ir.I32 in
      let expect_i8 =
        let m = Int64.to_int (Int64.logand x 0xffL) in
        Int64.of_int (if m >= 128 then m - 256 else m)
      in
      i8 = expect_i8 && i32 = Int64.of_int32 (Int64.to_int32 x))

let prop_int_add_matches_ocaml =
  QCheck.Test.make ~count:200 ~name:"VM int arithmetic = Int64 arithmetic"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let run op =
        match
          compile_and_run ~nparams:0 ~nregs:1
            [| Ir.Ibin (op, 0, Ir.Ki a, Ir.Ki b); Ir.Ret (Some (Ir.R 0)) |]
        with
        | Vm.VI v -> v
        | _ -> Alcotest.fail "int"
      in
      run Ir.Add = Int64.add a b
      && run Ir.Sub = Int64.sub a b
      && run Ir.Mul = Int64.mul a b)

(* ------------------------------------------------------------------ *)
(* Dirty-page ledger oracle *)

(* The reference is the full-scan digest the ledger replaced, taken over
   a plain model of the arena and the shadow map into which every
   operation below is mirrored: MD5 of statics [0, upto), of the whole
   heap and stack, and of the whole shadow map.  The ledger fingerprints
   must be equal exactly when the reference digests are. *)

let oracle_bytes = 10 lsl 20 (* Mem's minimum arena *)

type model = { m_mem : Bytes.t; m_map : Bytes.t option }

let copy_model m =
  { m_mem = Bytes.copy m.m_mem; m_map = Option.map Bytes.copy m.m_map }

let reference_digest vm m ~upto =
  let hb = Mem.heap_base vm.Vm.mem in
  let d1 = Digest.subbytes m.m_mem 0 upto in
  let d2 = Digest.subbytes m.m_mem hb (Bytes.length m.m_mem - hb) in
  let sh = match m.m_map with Some map -> Digest.bytes map | None -> "-" in
  Digest.to_hex (Digest.string (d1 ^ d2 ^ sh))

let ledger_fingerprint vm ~upto =
  Mem.fingerprint ~statics_upto:upto vm.Vm.mem
  ^
  match Mem.shadow vm.Vm.mem with
  | Some sh -> Shadow.fingerprint sh
  | None -> "-"

let oracle_vm ~checked =
  Vm.create ~mem_bytes:oracle_bytes ~checked
    (Tmachine.Machine.create Tmachine.Config.test_tiny)

let fresh_model vm =
  {
    m_mem = Bytes.make (Mem.size vm.Vm.mem) '\000';
    m_map =
      Option.map
        (fun sh -> Bytes.make (Shadow.limit sh - Shadow.base sh) '\000')
        (Mem.shadow vm.Vm.mem);
  }

(* The arena a Session restore of a capture taken at [statics_ptr] over
   model [m] leaves behind: statics below the pointer, heap and stack
   verbatim, zeros elsewhere. *)
let restored_model vm m ~statics_ptr =
  let r =
    {
      m_mem = Bytes.make (Bytes.length m.m_mem) '\000';
      m_map = Option.map Bytes.copy m.m_map;
    }
  in
  let hb = Mem.heap_base vm.Vm.mem in
  Bytes.blit m.m_mem 0 r.m_mem 0 statics_ptr;
  Bytes.blit m.m_mem hb r.m_mem hb (Bytes.length m.m_mem - hb);
  r

(* The non-zero 4 KiB pages of [b] from [from] on, by a plain scan. *)
let model_pages b ~from =
  let pages = ref [] in
  let off = ref from in
  while !off < Bytes.length b do
    let len = min 4096 (Bytes.length b - !off) in
    let page = Bytes.sub_string b !off len in
    if page <> String.make len '\000' then pages := (!off, page) :: !pages;
    off := !off + 4096
  done;
  List.rev !pages

(* A capture holds exactly the model's bytes: this checks the engine's
   contents, not just the equality structure of its fingerprints. *)
let check_image (snap : Session.t) m ~statics_ptr ~heap_base =
  let mi = snap.Session.sn_mem in
  checkb "captured statics = model" true
    (mi.Session.mi_statics = Bytes.sub_string m.m_mem 0 statics_ptr);
  checkb "captured heap and stack pages = model" true
    (mi.Session.mi_pages = model_pages m.m_mem ~from:heap_base);
  match (snap.Session.sn_shadow, m.m_map) with
  | Some si, Some map ->
      checkb "captured shadow pages = model" true
        (si.Session.si_pages = model_pages map ~from:0)
  | None, None -> ()
  | _ -> Alcotest.fail "checkedness differs"

let shadow_code = function
  | Shadow.Unaddressable -> '\000'
  | Addressable -> '\001'
  | Freed -> '\002'
  | Redzone -> '\003'

(* Apply [op] to the engine; only when it did not fault, mirror it into
   the model ([Mem] checks before it writes, so a faulting op writes
   nothing). *)
let attempt op mirror =
  match op () with
  | () -> mirror ()
  | exception (Mem.Fault _ | Shadow.Violation _) -> ()

let run_ledger_oracle ~checked ~seed ~steps =
  let st = Random.State.make [| seed |] in
  let ri n = Random.State.int st n in
  let vm = oracle_vm ~checked in
  let other = oracle_vm ~checked in
  let mem = vm.Vm.mem in
  let size = Mem.size mem in
  let hb = Mem.heap_base mem in
  let model = ref (fresh_model vm) in
  (* observations: (ledger fingerprint, reference digest) *)
  let seen = ref [] in
  let observe_on v m ~upto =
    seen := (ledger_fingerprint v ~upto, reference_digest v m ~upto) :: !seen
  in
  let observe () = observe_on vm !model ~upto:(Mem.statics_mark mem) in
  let txn = ref None in
  let captures = ref [] in
  (* a few pages in every region, so states recur *)
  let addr () =
    let page =
      match ri 7 with
      | 0 -> Mem.statics_base
      | 1 -> Mem.statics_mark mem - 2048
      | 2 -> hb
      | 3 -> hb + 4096
      | 4 -> hb + (40 * 4096)
      | 5 -> size - 4096
      | _ -> size - (3 * 4096)
    in
    let off =
      match ri 4 with 0 -> 0 | 1 -> 4093 | 2 -> 4096 - 1 | _ -> ri 4096
    in
    max Mem.statics_base (min (size - 8) (page + off))
  in
  let value () =
    match ri 4 with
    | 0 | 1 -> 0L
    | 2 -> 0xffL
    | _ -> Random.State.int64 st Int64.max_int
  in
  let len () = match ri 3 with 0 -> 1 + ri 16 | 1 -> 4096 | _ -> ri 9000 in
  let write_model a n f =
    if a >= 0 && n >= 0 && a + n <= size then f a n
  in
  for _ = 1 to steps do
    match ri 100 with
    | r when r < 38 ->
        let a = addr () and v = value () in
        let w = [| 1; 2; 4; 8 |].(ri 4) in
        attempt
          (fun () ->
            match w with
            | 1 -> Mem.set_u8 mem a (Int64.to_int v)
            | 2 -> Mem.set_u16 mem a (Int64.to_int v)
            | 4 -> Mem.set_i32 mem a (Int64.to_int32 v)
            | _ -> Mem.set_i64 mem a v)
          (fun () ->
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 v;
            Bytes.blit b 0 !model.m_mem a w)
    | r when r < 58 ->
        (* fills; mostly zeros, which hand pages back to the background *)
        let a = addr () and n = len () in
        let c = if ri 3 = 0 then 'x' else '\000' in
        attempt
          (fun () -> Mem.fill mem a n c)
          (fun () -> write_model a n (fun a n -> Bytes.fill !model.m_mem a n c))
    | r when r < 65 ->
        let src = addr () and dst = addr () and n = len () in
        attempt
          (fun () -> Mem.blit mem ~src ~dst ~len:n)
          (fun () -> Bytes.blit !model.m_mem src !model.m_mem dst n)
    | r when r < 70 ->
        let a = addr () in
        Mem.corrupt_byte mem a;
        Bytes.set !model.m_mem a '\xA5'
    | r when r < 75 -> (
        match Mem.alloc_static mem ~align:8 (1 + ri 6000) with
        | a ->
            (* a store into the fresh statics, often on the floor page *)
            attempt
              (fun () -> Mem.set_i64 mem a 0x5151L)
              (fun () -> Bytes.set_int64_le !model.m_mem a 0x5151L)
        | exception Mem.Fault _ -> ())
    | r when r < 82 -> (
        match Mem.shadow mem with
        | Some sh ->
            let a = hb + ri (48 * 4096) and n = len () in
            let state =
              [| Shadow.Unaddressable; Addressable; Addressable; Freed;
                 Redzone |].(ri 5)
            in
            Shadow.mark sh ~addr:a ~len:n state;
            let base = Shadow.base sh in
            let lo = max a base and hi = min (a + n) (Shadow.limit sh) in
            if hi > lo then
              Bytes.fill (Option.get !model.m_map) (lo - base) (hi - lo)
                (shadow_code state)
        | None -> ())
    | r when r < 86 -> (
        match !txn with
        | None ->
            let mark = Mem.statics_mark mem in
            let pre = copy_model !model in
            observe_on vm !model ~upto:mark;
            txn := Some (Vm.begin_txn vm, pre, mark, fst (List.hd !seen))
        | Some (tx, pre, mark, pre_fp) ->
            txn := None;
            if ri 3 = 0 then Vm.commit vm tx
            else begin
              Vm.rollback vm tx;
              (* statics allocated during the transaction are kept *)
              let keep = Mem.heap_base mem - mark in
              Bytes.blit !model.m_mem mark pre.m_mem mark keep;
              model := pre;
              observe_on vm !model ~upto:mark;
              Alcotest.(check string)
                "rollback restores the fingerprint" pre_fp (fst (List.hd !seen));
              (* and keeps the statics allocated during the transaction *)
              observe ()
            end)
    | r when r < 90 && !txn = None ->
        let snap = Session.capture vm and sp = Mem.statics_mark mem in
        check_image snap !model ~statics_ptr:sp ~heap_base:hb;
        captures :=
          (snap, copy_model !model, sp)
          :: (match !captures with a :: b :: c :: _ -> [ a; b; c ] | l -> l)
    | r when r < 94 && !txn = None && !captures <> [] ->
        let snap, m, statics_ptr =
          List.nth !captures (ri (List.length !captures))
        in
        if ri 2 = 0 then begin
          (* onto this engine, dirtier than when it was captured *)
          Session.restore vm snap;
          model := restored_model vm m ~statics_ptr;
          observe ()
        end
        else begin
          (* onto a second engine first dirtied with writes of its own *)
          for _ = 1 to 1 + ri 6 do
            let a = addr () in
            (try Mem.fill other.Vm.mem a (len ()) 'y' with _ -> ());
            Mem.corrupt_byte other.Vm.mem a;
            match Mem.shadow other.Vm.mem with
            | Some sh -> Shadow.mark sh ~addr:a ~len:(len ()) Shadow.Redzone
            | None -> ()
          done;
          Session.restore other snap;
          observe_on other (restored_model vm m ~statics_ptr)
            ~upto:(Mem.statics_mark other.Vm.mem)
        end
    | r when r < 96 -> observe ()
    | _ -> ()
  done;
  (match !txn with Some (tx, _, _, _) -> Vm.commit vm tx | None -> ());
  observe ();
  (* equal ledger fingerprints <=> equal reference digests, over every
     pair of observed states *)
  let by_ledger = Hashtbl.create 256 and by_ref = Hashtbl.create 256 in
  List.iter
    (fun (l, r) ->
      (match Hashtbl.find_opt by_ledger l with
      | Some r' when r' <> r ->
          Alcotest.failf "ledger %s names two reference states" l
      | _ -> Hashtbl.replace by_ledger l r);
      match Hashtbl.find_opt by_ref r with
      | Some l' when l' <> l ->
          Alcotest.failf "reference %s has two ledger fingerprints" r
      | _ -> Hashtbl.replace by_ref r l)
    !seen;
  let n = List.length !seen and distinct = Hashtbl.length by_ref in
  checkb "observed many states" true (n >= 100);
  checkb "states recur (the oracle compares equal pairs too)" true
    (distinct < n - 20);
  checkb "and distinct ones" true (distinct > 20)

let test_ledger_oracle_unchecked () =
  run_ledger_oracle ~checked:false ~seed:13 ~steps:2000

let test_ledger_oracle_checked () =
  run_ledger_oracle ~checked:true ~seed:31 ~steps:2000

(* A page written and zeroed again fingerprints like one never touched,
   whether or not its digest was cached while it was non-zero. *)
let test_rezeroed_page_is_pristine () =
  let vm = oracle_vm ~checked:true and pristine = oracle_vm ~checked:true in
  let fp v = ledger_fingerprint v ~upto:(Mem.statics_mark v.Vm.mem) in
  let mem = vm.Vm.mem in
  let sh = Option.get (Mem.shadow mem) in
  let a = Mem.heap_base mem + 4096 + 100 in
  List.iter
    (fun digest_between ->
      Shadow.mark sh ~addr:a ~len:5000 Shadow.Addressable;
      Mem.set_i64 mem a 42L;
      Mem.fill mem (Mem.size mem - 4096) 16 'z';
      if digest_between then
        checkb "dirty differs" true (fp vm <> fp pristine);
      Mem.set_i64 mem a 0L;
      Mem.fill mem (Mem.size mem - 4096) 16 '\000';
      Shadow.mark sh ~addr:a ~len:5000 Shadow.Unaddressable;
      Alcotest.(check string) "re-zeroed = pristine" (fp pristine) (fp vm))
    [ false; true ]

let () =
  Alcotest.run "tvm"
    [
      ( "mem",
        [
          Alcotest.test_case "scalar roundtrip" `Quick test_mem_roundtrip;
          Alcotest.test_case "little endian" `Quick test_mem_little_endian;
          Alcotest.test_case "null faults" `Quick test_mem_null_faults;
          Alcotest.test_case "oob faults" `Quick test_mem_oob_faults;
          Alcotest.test_case "negative length faults" `Quick
            test_mem_negative_len_faults;
          Alcotest.test_case "length overflow faults" `Quick
            test_mem_len_overflow_faults;
          Alcotest.test_case "cstring" `Quick test_cstring_roundtrip;
          Alcotest.test_case "unterminated cstring bounded" `Quick
            test_cstring_unterminated_bounded;
          Alcotest.test_case "blit" `Quick test_blit;
          Alcotest.test_case "static alloc aligned" `Quick
            test_alloc_static_aligned;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
          Alcotest.test_case "free reuse" `Quick test_free_reuse;
          Alcotest.test_case "double free rejected" `Quick
            test_double_free_rejected;
          Alcotest.test_case "free null ok" `Quick test_free_null_ok;
          Alcotest.test_case "realloc copies" `Quick test_realloc_copies;
          Alcotest.test_case "out of memory" `Quick test_oom;
          QCheck_alcotest.to_alcotest prop_no_overlap;
          QCheck_alcotest.to_alcotest prop_malloc_free_balance;
        ] );
      ( "vm",
        [
          Alcotest.test_case "ret const" `Quick test_ret_const;
          Alcotest.test_case "int arithmetic" `Quick test_int_arith;
          Alcotest.test_case "div by zero traps" `Quick test_div_by_zero_traps;
          Alcotest.test_case "float arithmetic" `Quick test_float_arith;
          Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
          Alcotest.test_case "branch loop" `Quick test_branch_loop;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "narrow store truncates" `Quick
            test_narrow_store_truncates;
          Alcotest.test_case "vector ops" `Quick test_vector_ops;
          Alcotest.test_case "call with args" `Quick test_call_and_args;
          Alcotest.test_case "indirect call" `Quick test_indirect_call;
          Alcotest.test_case "indirect bad address traps" `Quick
            test_indirect_bad_address_traps;
          Alcotest.test_case "undefined function traps" `Quick
            test_undefined_function_traps;
          Alcotest.test_case "unset slot traps" `Quick test_unset_slot_traps;
          Alcotest.test_case "unset slots are distinct" `Quick
            test_unset_slots_distinct;
          Alcotest.test_case "pp_instr golden" `Quick test_pp_instr_golden;
          Alcotest.test_case "pp_func golden" `Quick test_pp_func_golden;
          Alcotest.test_case "frame and stack" `Quick test_frame_addr_and_stack;
          Alcotest.test_case "fuel stops infinite loop" `Quick
            test_fuel_stops_infinite_loop;
          Alcotest.test_case "malloc/free builtins" `Quick
            test_builtin_malloc_free;
          Alcotest.test_case "sqrt builtin" `Quick test_builtin_sqrt;
          Alcotest.test_case "unresolved import traps" `Quick
            test_unresolved_import_traps;
          QCheck_alcotest.to_alcotest prop_cvt_int_widths;
          QCheck_alcotest.to_alcotest prop_int_add_matches_ocaml;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "oracle vs full-scan digest (unchecked)" `Quick
            test_ledger_oracle_unchecked;
          Alcotest.test_case "oracle vs full-scan digest (checked)" `Quick
            test_ledger_oracle_checked;
          Alcotest.test_case "re-zeroed page is pristine" `Quick
            test_rezeroed_page_is_pristine;
        ] );
    ]
