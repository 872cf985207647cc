(* Host-side measurement, all taken from outside the simulator: clocks,
   the quantile helper, process-wide GC and memory counters, benchmark
   spans around calls into each layer, and GC phase times from the
   runtime's own event ring. The simulator is only read through its
   public counters ([Pool] totals). *)

open Mk_sim

let now () = Unix.gettimeofday ()

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One timed stretch of simulation: host wall and process CPU seconds,
   logical events (executed + fused), PDES windows, and allocation from
   the process-wide [Gc.quick_stat] delta — the runtime sums every
   domain, so the count is the same at any domain count (the per-domain
   [Pool] minor-word totals are not). *)
type sample = {
  wall : float;
  cpu : float;
  executed : int;
  fused : int;
  windows : int;
  minor_words : float;
  major : int;
}

let zero = { wall = 0.; cpu = 0.; executed = 0; fused = 0; windows = 0; minor_words = 0.; major = 0 }

let add a b =
  {
    wall = a.wall +. b.wall;
    cpu = a.cpu +. b.cpu;
    executed = a.executed + b.executed;
    fused = a.fused + b.fused;
    windows = a.windows + b.windows;
    minor_words = a.minor_words +. b.minor_words;
    major = a.major + b.major;
  }

let events s = s.executed + s.fused

let measure f =
  let q0 = Gc.quick_stat () in
  let e0 = Pool.total_executed () and f0 = Pool.total_fused () in
  let b0 = Pool.total_barriers () in
  let c0 = cpu_now () and t0 = now () in
  let r = f () in
  let t1 = now () and c1 = cpu_now () in
  let q1 = Gc.quick_stat () in
  ( r,
    {
      wall = t1 -. t0;
      cpu = c1 -. c0;
      executed = Pool.total_executed () - e0;
      fused = Pool.total_fused () - f0;
      windows = Pool.total_barriers () - b0;
      minor_words = q1.Gc.minor_words -. q0.Gc.minor_words;
      major = q1.Gc.major_collections - q0.Gc.major_collections;
    } )

(* ---- quantiles ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank of [q] among [n] samples (1-based); the epsilon keeps
   e.g. 0.9 *. 100. from rounding up past rank 90. *)
let rank ~n q = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

(* Nearest-rank quantile of a non-empty sorted sample. *)
let quantile_sorted a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank ~n q - 1)))

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The middle value, or the mean of the two middle values. *)
let median = function
  | [] -> 0.0
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set-up is short and noisy, so each unit times it in [reps] batches of
   [batch] calls in a row and keeps the median of the batch means. A
   batch mean stays put even when single calls alternate between a fast
   and a slow cost (as they do when a call may finish a major GC cycle),
   where the median of single calls jumps between the two. The unit then
   uses the last result built. *)
let timed_setup ~reps ?(batch = 1) f =
  let last = ref None in
  let batch_mean () =
    let t0 = now () in
    for _ = 1 to batch do
      last := Some (f ())
    done;
    (now () -. t0) /. float_of_int batch
  in
  let ts = List.init reps (fun _ -> batch_mean ()) in
  (Option.get !last, median ts)

(* Samples strictly past the nearest-rank position of [q]. *)
let beyond ~n q = n - rank ~n q

let tail_levels = [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* The highest percentile that still has at least ten samples beyond it —
   the tail a sample of this size can honestly report. [None] below 20
   samples, where not even the median qualifies. *)
let tail_level ~n =
  List.fold_left (fun acc q -> if beyond ~n q >= 10 then Some q else acc) None tail_levels

let percentile_name q =
  let s = Printf.sprintf "%g" (100.0 *. q) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

(* ---- process memory and GC ---- *)

(* The process's resident-set high-water mark (Linux VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* ---- spans ---- *)

(* A span around one of the benchmark's own calls into a layer: name,
   host start/end, and the span that was open when it began. Kept in
   memory and summarised when the run ends. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_parent : int;
}

let spans : span list ref = ref []
let span_count = ref 0
let span_stack : int list ref = ref []
let tracing = ref false

let span name f =
  if not !tracing then f ()
  else begin
    let id = !span_count in
    incr span_count;
    let parent = match !span_stack with p :: _ -> p | [] -> -1 in
    span_stack := id :: !span_stack;
    let t0 = now () in
    let finish () =
      span_stack := List.tl !span_stack;
      spans :=
        { sp_id = id; sp_name = name; sp_start = t0; sp_end = now (); sp_parent = parent }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

let span_durations name =
  List.filter_map
    (fun s -> if s.sp_name = name then Some (s.sp_end -. s.sp_start) else None)
    !spans

(* Per span name, in first-start order: count, total seconds, and self
   seconds (total minus the time its child spans cover). *)
let span_summary () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          (s.sp_end -. s.sp_start
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)))
    !spans;
  let by_id = List.sort (fun a b -> compare a.sp_id b.sp_id) !spans in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let d = s.sp_end -. s.sp_start in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id) in
      match Hashtbl.find_opt tbl s.sp_name with
      | None ->
        order := s.sp_name :: !order;
        Hashtbl.replace tbl s.sp_name (1, d, self)
      | Some (n, t, sf) -> Hashtbl.replace tbl s.sp_name (n + 1, t +. d, sf +. self))
    by_id;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* Barrier-to-barrier host time of every traced PDES window, µs. *)
let window_us : float list ref = ref []

(* ---- GC phases from the runtime's event ring ---- *)

(* Host nanoseconds spent in minor collections and in major slices,
   summed over every domain's ring (so CPU time, not wall time, when
   two domains collect together). Started only in the traced run. *)
let gc_minor_ns = ref 0L
let gc_major_ns = ref 0L
let gc_lost = ref 0
let cursor : Runtime_events.cursor option ref = ref None
let open_phase : (int * Runtime_events.runtime_phase, int64) Hashtbl.t = Hashtbl.create 16

let callbacks =
  let ts = Runtime_events.Timestamp.to_int64 in
  let tracked = function
    | Runtime_events.EV_MINOR -> Some gc_minor_ns
    | Runtime_events.EV_MAJOR_SLICE -> Some gc_major_ns
    | _ -> None
  in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun dom t ph ->
      if tracked ph <> None then Hashtbl.replace open_phase (dom, ph) (ts t))
    ~runtime_end:(fun dom t ph ->
      match (tracked ph, Hashtbl.find_opt open_phase (dom, ph)) with
      | Some acc, Some t0 ->
        Hashtbl.remove open_phase (dom, ph);
        acc := Int64.add !acc (Int64.sub (ts t) t0)
      | _ -> ())
    ~lost_events:(fun _ n -> gc_lost := !gc_lost + n)
    ()

let gc_poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
  | None -> ()

let gc_start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None);
  gc_poll ()

(* Drain the ring and return (minor s, major s) accumulated since the
   previous call. *)
let gc_take () =
  gc_poll ();
  let s x = Int64.to_float x /. 1e9 in
  let r = (s !gc_minor_ns, s !gc_major_ns) in
  gc_minor_ns := 0L;
  gc_major_ns := 0L;
  r
