(* Clock, bench-side spans and summary statistics.

   Spans are recorded only in traced runs, around the benchmark's calls
   into each layer's public functions; the program itself carries no
   spans.  Each span has a name, start, end, the span that was open when
   it began (its parent) and the id of the request it belongs to.  They
   are kept in memory and written out when the run ends. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(** [timed f] is [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, -1 outside any request *)
}

let on = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let current_req = ref (-1)

(** Run [f] inside a span named [name] when tracing is on. *)
let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let req = !current_req in
    open_ids := id :: !open_ids;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        open_ids := List.tl !open_ids;
        recorded := { id; name; start; stop; parent; req } :: !recorded)
      f
  end

(** Run [f] as request [id]: spans opened inside carry the id. *)
let with_req id f =
  let saved = !current_req in
  current_req := id;
  Fun.protect ~finally:(fun () -> current_req := saved) f

let all () = List.rev !recorded

(** Per span name: (count, total seconds, self seconds), where self time
    is the span's duration minus the time its child spans cover. *)
let by_name () =
  let spans = all () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let n, tot, sf =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name (n + 1, tot +. d, sf +. self))
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = match all () with s :: _ -> s.start | [] -> 0.0 in
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"parent\":%d,\"req\":%d}\n"
            (if i = 0 then " " else ",")
            s.id s.name
            ((s.start -. t0) *. 1e6)
            ((s.stop -. t0) *. 1e6)
            s.parent s.req)
        (all ());
      output_string oc "]\n")

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs = List.sort compare xs

(** The median; 0 when nothing was observed. *)
let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** The [p]-quantile by nearest rank: the smallest sample with at least
    a share [p] of the samples at or below it; 0 when nothing was
    observed. *)
let quantile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(** The tail: the highest percentile with at least ten samples beyond it,
    i.e. the eleventh-largest sample.  Its percentile, 100 (n - 10) / n,
    is returned with it. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else
    let i = max 0 (n - 11) in
    (a.(i), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(** Peak resident set of this process in MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      float_of_int (go ()) /. 1024.0)
