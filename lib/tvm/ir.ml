(** Register-based typed IR — the compile target substituting for LLVM.

    Registers are untyped slots holding a 64-bit integer, a float, or a
    short float vector; memory operations carry an explicit memory type.
    Control flow uses absolute instruction indices within a function. *)

type mty = I8 | U8 | I16 | U16 | I32 | U32 | I64 | F32 | F64

let mty_bytes = function
  | I8 | U8 -> 1
  | I16 | U16 -> 2
  | I32 | U32 -> 4
  | I64 -> 8
  | F32 -> 4
  | F64 -> 8

let mty_is_float = function F32 | F64 -> true | _ -> false

type fk = Fk32 | Fk64

let fk_bytes = function Fk32 -> 4 | Fk64 -> 8

type ibin =
  | Add | Sub | Mul | Divs | Divu | Rems | Remu
  | Band | Bor | Bxor | Shl | Shrs | Shru
  | Eq | Ne | Lts | Les | Gts | Ges | Ltu | Leu | Gtu | Geu
  | Mins | Maxs

type fbin =
  | FAdd | FSub | FMul | FDiv | FMin | FMax
  | FEq | FNe | FLt | FLe | FGt | FGe

type iun = INeg | IBnot | ILnot
type fun_ = FNeg | FAbs | FSqrt

type reg = int
type operand = R of reg | Ki of int64 | Kf of float

type instr =
  | Mov of reg * operand
  | Ibin of ibin * reg * operand * operand
  | Fbin of fk * fbin * reg * operand * operand
  | Iun of iun * reg * operand
  | Fun of fk * fun_ * reg * operand
  | Lea of reg * operand * operand * int * int
      (** [Lea (d, base, index, scale, disp)]: d := base + index*scale + disp,
          charged as foldable address arithmetic. *)
  | Load of mty * reg * operand
  | Store of mty * operand * operand  (** addr, value *)
  | Vload of fk * int * reg * operand
  | Vstore of fk * int * operand * operand
  | Vsplat of fk * int * reg * operand
  | Vbin of fk * int * fbin * reg * operand * operand
  | Vun of fk * int * fun_ * reg * operand
  | Vextract of reg * operand * int
  | Cvt of mty * mty * reg * operand  (** from, to *)
  | Call of reg option * int * operand list
  | Callind of reg option * operand * operand list
  | Ccall of reg option * int * operand list  (** builtin import index *)
  | Prefetch of operand
  | FrameAddr of reg * int  (** d := sp + offset *)
  | SpillTouch of int  (** cost-only spill-slot access at frame offset *)
  | Jmp of int
  | Br of operand * int * int  (** cond, then-pc, else-pc *)
  | Ret of operand option

type func = {
  fname : string;
  nparams : int;  (** parameters arrive in registers 0..nparams-1 *)
  nregs : int;
  frame_bytes : int;
  code : instr array;
}

type static_init = { si_addr : int; si_data : string }

type modul = {
  funcs : func array;
  imports : string array;
  statics : static_init list;
}

(** Function "addresses" live far above the memory map so stored function
    pointers (vtables) are distinguishable from data pointers. *)
let func_addr_base = 0x4000_0000

let func_addr i = func_addr_base + (i * 16)

let func_of_addr a =
  if a < func_addr_base || (a - func_addr_base) mod 16 <> 0 then None
  else Some ((a - func_addr_base) / 16)

let pp_operand ppf = function
  | R r -> Format.fprintf ppf "r%d" r
  | Ki i -> Format.fprintf ppf "%Ld" i
  | Kf f -> Format.fprintf ppf "%g" f

let ibin_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Divs -> "divs"
  | Divu -> "divu" | Rems -> "rems" | Remu -> "remu" | Band -> "and"
  | Bor -> "or" | Bxor -> "xor" | Shl -> "shl" | Shrs -> "shrs"
  | Shru -> "shru" | Eq -> "eq" | Ne -> "ne" | Lts -> "lts" | Les -> "les"
  | Gts -> "gts" | Ges -> "ges" | Ltu -> "ltu" | Leu -> "leu" | Gtu -> "gtu"
  | Geu -> "geu" | Mins -> "min" | Maxs -> "max"

let fbin_name = function
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
  | FMin -> "fmin" | FMax -> "fmax" | FEq -> "feq" | FNe -> "fne"
  | FLt -> "flt" | FLe -> "fle" | FGt -> "fgt" | FGe -> "fge"

let mty_name = function
  | I8 -> "i8" | U8 -> "u8" | I16 -> "i16" | U16 -> "u16" | I32 -> "i32"
  | U32 -> "u32" | I64 -> "i64" | F32 -> "f32" | F64 -> "f64"

let pp_instr ppf = function
  | Mov (d, a) -> Format.fprintf ppf "r%d := %a" d pp_operand a
  | Ibin (op, d, a, b) ->
      Format.fprintf ppf "r%d := %s %a %a" d (ibin_name op) pp_operand a
        pp_operand b
  | Fbin (_, op, d, a, b) ->
      Format.fprintf ppf "r%d := %s %a %a" d (fbin_name op) pp_operand a
        pp_operand b
  | Iun (_, d, a) -> Format.fprintf ppf "r%d := iun %a" d pp_operand a
  | Fun (_, _, d, a) -> Format.fprintf ppf "r%d := fun %a" d pp_operand a
  | Lea (d, b, i, s, o) ->
      Format.fprintf ppf "r%d := lea %a + %a*%d + %d" d pp_operand b
        pp_operand i s o
  | Load (m, d, a) ->
      Format.fprintf ppf "r%d := load.%s [%a]" d (mty_name m) pp_operand a
  | Store (m, a, v) ->
      Format.fprintf ppf "store.%s [%a] %a" (mty_name m) pp_operand a
        pp_operand v
  | Vload (_, l, d, a) ->
      Format.fprintf ppf "r%d := vload.%d [%a]" d l pp_operand a
  | Vstore (_, l, a, v) ->
      Format.fprintf ppf "vstore.%d [%a] %a" l pp_operand a pp_operand v
  | Vsplat (_, l, d, a) ->
      Format.fprintf ppf "r%d := vsplat.%d %a" d l pp_operand a
  | Vbin (_, l, op, d, a, b) ->
      Format.fprintf ppf "r%d := v%s.%d %a %a" d (fbin_name op) l pp_operand a
        pp_operand b
  | Vun (_, l, _, d, a) ->
      Format.fprintf ppf "r%d := vun.%d %a" d l pp_operand a
  | Vextract (d, a, i) ->
      Format.fprintf ppf "r%d := vextract %a [%d]" d pp_operand a i
  | Cvt (f, t, d, a) ->
      Format.fprintf ppf "r%d := cvt.%s->%s %a" d (mty_name f) (mty_name t)
        pp_operand a
  | Call (d, f, args) ->
      Format.fprintf ppf "%s := call f%d(%a)"
        (match d with Some r -> Printf.sprintf "r%d" r | None -> "_")
        f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_operand)
        args
  | Callind (_, f, _) -> Format.fprintf ppf "callind %a" pp_operand f
  | Ccall (_, i, _) -> Format.fprintf ppf "ccall import%d" i
  | Prefetch a -> Format.fprintf ppf "prefetch [%a]" pp_operand a
  | FrameAddr (d, o) -> Format.fprintf ppf "r%d := sp + %d" d o
  | SpillTouch o -> Format.fprintf ppf "spilltouch %d" o
  | Jmp l -> Format.fprintf ppf "jmp %d" l
  | Br (c, a, b) -> Format.fprintf ppf "br %a %d %d" pp_operand c a b
  | Ret None -> Format.fprintf ppf "ret"
  | Ret (Some a) -> Format.fprintf ppf "ret %a" pp_operand a

let pp_func ppf f =
  Format.fprintf ppf "@[<v>func %s(%d params, %d regs, frame %d):@," f.fname
    f.nparams f.nregs f.frame_bytes;
  Array.iteri
    (fun i ins -> Format.fprintf ppf "  %3d: %a@," i pp_instr ins)
    f.code;
  Format.fprintf ppf "@]"

(** Structural check of one function against the tables it will run
    beside: register numbers below [nregs], jump targets inside the body,
    call targets below [nfuncs], import indices below [nimports], vector
    widths and lanes in range, and a terminator last (the interpreter
    falls off the end of a body that lacks one).  The VM dispatches these
    indices unchecked, so IR from outside the process — object files and
    cache entries — must pass this before it is installed. *)
let verify ~nfuncs ~nimports (f : func) : (unit, string) result =
  let exception Invalid of string in
  let len = Array.length f.code in
  let pc = ref 0 in
  let bad fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
  let reg r =
    if r < 0 || r >= f.nregs then bad "pc %d: register r%d out of range" !pc r
  in
  let op = function R r -> reg r | Ki _ | Kf _ -> () in
  let target l =
    if l < 0 || l >= len then bad "pc %d: jump target %d out of range" !pc l
  in
  let lanes l = if l < 1 || l > 16 then bad "pc %d: bad vector width %d" !pc l in
  let instr = function
    | Mov (d, a) | Iun (_, d, a) | Fun (_, _, d, a) | Load (_, d, a)
    | Cvt (_, _, d, a) ->
        reg d;
        op a
    | Ibin (_, d, a, b) | Fbin (_, _, d, a, b) | Lea (d, a, b, _, _) ->
        reg d;
        op a;
        op b
    | Store (_, a, v) ->
        op a;
        op v
    | Vload (_, l, d, a) | Vsplat (_, l, d, a) | Vun (_, l, _, d, a) ->
        lanes l;
        reg d;
        op a
    | Vstore (_, l, a, v) ->
        lanes l;
        op a;
        op v
    | Vbin (_, l, _, d, a, b) ->
        lanes l;
        reg d;
        op a;
        op b
    | Vextract (d, a, i) ->
        reg d;
        op a;
        if i < 0 || i >= 16 then bad "pc %d: bad vector lane %d" !pc i
    | Call (d, id, args) ->
        Option.iter reg d;
        List.iter op args;
        if id < 0 || id >= nfuncs then
          bad "pc %d: call target %d out of range" !pc id
    | Callind (d, fptr, args) ->
        Option.iter reg d;
        List.iter op (fptr :: args)
    | Ccall (d, i, args) ->
        Option.iter reg d;
        List.iter op args;
        if i < 0 || i >= nimports then bad "pc %d: import %d out of range" !pc i
    | Prefetch a -> op a
    | FrameAddr (d, _) -> reg d
    | SpillTouch _ -> ()
    | Jmp l -> target l
    | Br (c, a, b) ->
        op c;
        target a;
        target b
    | Ret a -> Option.iter op a
  in
  try
    if f.nparams < 0 || f.nregs < f.nparams then
      bad "bad register counts (%d params, %d regs)" f.nparams f.nregs;
    if f.frame_bytes < 0 || f.frame_bytes > 8 * (1 lsl 20) then
      bad "implausible frame size %d" f.frame_bytes;
    if len = 0 then bad "empty body";
    Array.iteri
      (fun i ins ->
        pc := i;
        instr ins)
      f.code;
    (match f.code.(len - 1) with
    | Ret _ | Jmp _ | Br _ -> ()
    | _ -> bad "body does not end in a terminator");
    Ok ()
  with Invalid msg -> Error msg
