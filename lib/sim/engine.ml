(* Discrete-event simulation engine.

   Tasks are one-shot-continuation coroutines over OCaml effects
   (Effect.Deep). The engine owns a min-heap of (time, seq) -> thunk; a
   thunk either starts a task or resumes a captured continuation. All
   blocking abstractions (Sync, Resource, ...) are built from E_suspend.

   Hot-path note: events scheduled at the *current* simulated time
   (yield, E_wait 0, same-cycle wakes, spawns) dominate most workloads, and
   they never need heap ordering — they run before the clock next advances,
   in seq order, and seq is monotonic. They go to a ring-buffer FIFO
   instead of the heap. Near-future events (delay < Wheel.window: cache
   hits, software path costs, line transfers — nearly everything else) go
   to a timing wheel; only far-future events reach the heap. The run loop
   merges the FIFO, wheel and heap fronts by (time, seq), so the schedule
   is bit-for-bit identical to the all-heap engine while the common cases
   cost O(1) with no sift. *)

type waker = ?delay:int -> unit -> unit

type _ Effect.t +=
  | E_wait : int -> unit Effect.t
  | E_now : int Effect.t
  | E_suspend : (waker -> unit) -> unit Effect.t
  | E_spawn : (string option * (unit -> unit)) -> unit Effect.t
  | E_name : string Effect.t

exception Stalled of string
exception Halted
exception Cross_shard_spawn of string

(* A queued event is either a plain thunk or a captured task continuation
   to be resumed with (). Storing the continuation directly — instead of
   wrapping it in a [fun () -> continue k ()] closure — saves one
   allocation and one indirect call on every wait/suspend resumption,
   which is most events the engine executes. The two cases are
   discriminated by runtime tag: continuations are [Obj.cont_tag] blocks,
   anything else is callable. *)
type ev = Obj.t

type t = {
  mutable now : int;
  mutable seq : int;
  heap : ev Heap.t;
  wheel : ev Wheel.t;
  (* FIFO of events due at the current time: parallel seq/event rings. *)
  mutable fq_seq : int array;
  mutable fq_thunk : ev array;
  mutable fq_head : int;
  mutable fq_len : int;
  mutable live : int;
  mutable executed : int;
  (* The [until] of the [run] draining this engine ([max_int] for none):
     an inlined wait may not carry the clock past it. *)
  mutable limit : int;
  (* Shard group ([create_group]); 0 for a standalone engine. *)
  group : int;
  (* Names of live tasks, for Stalled diagnostics: task id -> ~name. *)
  names : (int, string) Hashtbl.t;
  mutable next_task : int;
  (* Effect-handler scratch. The handler of every task on this engine
     answers [E_wait] and [E_suspend] with these two preallocated closures
     instead of a fresh one per perform: its [effc] stashes the effect's
     argument here and the closure, which runs immediately afterwards on
     the same domain, reads it back. Set once by [init_handlers]. *)
  mutable wait_delay : int;
  mutable suspend_register : waker -> unit;
  mutable on_wait : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable on_suspend : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

let nop () = ()
let nop_ev : ev = Obj.repr nop
let ev_of_thunk (f : unit -> unit) : ev = Obj.repr f

let ev_of_cont (k : (unit, unit) Effect.Deep.continuation) : ev = Obj.repr k

(* Execute a queued event. The tag check is exact: a first-class
   continuation is always a [cont_tag] block, and no callable value ever
   carries that tag (closures are [closure_tag]/[infix_tag]). *)
let run_ev (x : ev) =
  if Obj.tag x = Obj.cont_tag then
    Effect.Deep.continue (Obj.obj x : (unit, unit) Effect.Deep.continuation) ()
  else (Obj.obj x : unit -> unit) ()

(* The record without its handler closures; [init_handlers] adds them. *)
let make ?(group = 0) () =
  {
    now = 0;
    seq = 0;
    (* Pre-sized with the engine's own dummy thunk so the first far-future
       event of a run does not pay the backing-array allocation mid-flight;
       the arrays are recycled across runs of a [reset] engine. *)
    heap = Heap.create ~dummy:nop_ev ();
    wheel = Wheel.create ~dummy:nop_ev;
    fq_seq = Array.make 64 0;
    fq_thunk = Array.make 64 nop_ev;
    fq_head = 0;
    fq_len = 0;
    live = 0;
    executed = 0;
    limit = max_int;
    group;
    names = Hashtbl.create 16;
    next_task = 0;
    wait_delay = 0;
    suspend_register = ignore;
    on_wait = None;
    on_suspend = None;
  }

(* Rewind an *idle* engine (no pending events, no live tasks) to t=0 so its
   FIFO rings, wheel slots and heap arrays are reused by the next run
   instead of reallocated — the bechamel engine micro-bench measures
   spawn+run, not allocator traffic for a fresh engine. [executed] keeps
   accumulating: it counts the engine's lifetime, not a run. *)
let reset t =
  if
    t.live > 0 || t.fq_len > 0
    || not (Heap.is_empty t.heap)
    || not (Wheel.is_empty t.wheel)
  then invalid_arg "Engine.reset: engine busy (live tasks or pending events)";
  t.now <- 0;
  t.seq <- 0

let now t = t.now
let events_executed t = t.executed
let live_tasks t = t.live

(* Earliest pending event across the three fronts (FIFO entries are due at
   the current time). [None] = idle engine. This is what a windowed
   executor (Pdes) uses to pick the next lookahead horizon without popping
   anything. *)
let next_time t =
  let nt = ref max_int in
  if t.fq_len > 0 then nt := t.now;
  if not (Wheel.is_empty t.wheel) then begin
    let wt = Wheel.min_time t.wheel in
    if wt < !nt then nt := wt
  end;
  if not (Heap.is_empty t.heap) then begin
    let ht = Heap.min_time t.heap in
    if ht < !nt then nt := ht
  end;
  if !nt = max_int then None else Some !nt

(* An engine that never runs: [domain_cell]'s [running] when no run loop
   is draining events on the domain. *)
let idle = make ()

(* -- deferred latency charging ("fusion") --

   A pure delay (cache hit, fixed software-path cost, TLB walk) does not
   need a scheduler round trip: nothing else can observe the task until it
   next interacts. [charge n] banks the delay in a per-domain pending
   cell; the bank is drained as ONE [E_wait] by [flush_charge] at every
   interaction point (wait/now_/suspend/Sync operation/resource
   reservation/task exit). Because the flush realigns real time with
   virtual time before anything observable happens, the simulated schedule
   is bit-identical to charging each delay as its own wait.

   The cell can live per-domain rather than per-task because tasks are
   cooperative and every control transfer flushes first: whenever the
   engine (or any other task) runs, the cell is zero.

   The same cell carries the domain's other engine state, so every engine
   operation pays a single [Domain.DLS.get]. *)
type domain_cell = {
  mutable pending : int;  (* banked delay, flushed at interaction points *)
  mutable deferred : int;  (* charges banked (would-be wait events) *)
  mutable flushes : int;  (* waits actually performed to drain the bank *)
  mutable fuse : bool;  (* fusion enabled on this domain *)
  (* Events executed by every engine on this domain: lets the bench
     harness attribute events/sec to a bench without threading engine
     handles out, and stays correct when benches run on parallel
     domains. *)
  mutable executed_here : int;
  (* The engine whose [run] loop is currently draining events on this
     domain ([idle] if none; saved/restored across nested runs). [now_]
     reads the clock through it instead of performing [E_now]: an effect
     costs two stack switches plus a continuation per perform, which the
     serving bench pays ~28M times — a pure representation change, since
     the value returned is the same field the [E_now] handler read. *)
  mutable running : t;
}

(* Referee switch: MK_NO_FUSION=1 (or [set_fusion false]) makes [charge]
   behave exactly like [wait], so CI can diff full bench outputs
   fused-vs-unfused. The flag lives in the per-domain cell — not a
   process global — so pool workers can run fused and unfused simulations
   concurrently (the fusion-equivalence property does exactly that), and
   the hot [charge] path reads it from the cell it already fetched. *)
let fusion_default =
  match Sys.getenv_opt "MK_NO_FUSION" with
  | None | Some "" | Some "0" -> true
  | Some _ -> false

let domain_cell : domain_cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        pending = 0;
        deferred = 0;
        flushes = 0;
        fuse = fusion_default;
        executed_here = 0;
        running = idle;
      })

let set_fusion b = (Domain.DLS.get domain_cell).fuse <- b
let fusion_enabled () = (Domain.DLS.get domain_cell).fuse
let pending_charge () = (Domain.DLS.get domain_cell).pending
let domain_events_executed () = (Domain.DLS.get domain_cell).executed_here

(* Scheduler events saved by coalescing so far on this domain: each
   deferred charge would have been one wait event, and each flush pays one
   back. Adding this to [domain_events_executed] reconstructs exactly the
   event count an unfused run executes, which keeps events/sec
   baseline-comparable across fusion modes. *)
let domain_events_fused () =
  let c = Domain.DLS.get domain_cell in
  c.deferred - c.flushes

let fifo_grow t =
  let cap = Array.length t.fq_seq in
  let nseq = Array.make (cap * 2) 0 in
  let nthunk = Array.make (cap * 2) nop_ev in
  for i = 0 to t.fq_len - 1 do
    nseq.(i) <- t.fq_seq.((t.fq_head + i) land (cap - 1));
    nthunk.(i) <- t.fq_thunk.((t.fq_head + i) land (cap - 1))
  done;
  t.fq_seq <- nseq;
  t.fq_thunk <- nthunk;
  t.fq_head <- 0

let fifo_push t seq thunk =
  if t.fq_len = Array.length t.fq_seq then fifo_grow t;
  let slot = (t.fq_head + t.fq_len) land (Array.length t.fq_seq - 1) in
  t.fq_seq.(slot) <- seq;
  t.fq_thunk.(slot) <- thunk;
  t.fq_len <- t.fq_len + 1

let fifo_pop t =
  let thunk = t.fq_thunk.(t.fq_head) in
  t.fq_thunk.(t.fq_head) <- nop_ev;  (* drop the event for the GC *)
  t.fq_head <- (t.fq_head + 1) land (Array.length t.fq_seq - 1);
  t.fq_len <- t.fq_len - 1;
  thunk

(* All FIFO entries are due at [t.now]: entries are only enqueued for the
   current time, and the clock cannot advance past them (they always beat
   any strictly-later heap entry). *)
let fifo_front_seq t = t.fq_seq.(t.fq_head)

(* Spill the FIFO back into the heap (at the current time, preserving seq).
   Only needed on the cold path where [run ~until] stops the clock while
   same-time events are still queued. *)
let fifo_spill t =
  while t.fq_len > 0 do
    let seq = fifo_front_seq t in
    let thunk = fifo_pop t in
    Heap.push t.heap ~time:t.now ~seq thunk
  done

(* Move every wheel entry into the heap (preserving (time, seq)). Cold
   path: only used when [run ~until] stops the clock early, so the wheel's
   window can be re-anchored at an arbitrary new [now]. *)
let wheel_spill t =
  while not (Wheel.is_empty t.wheel) do
    let time = Wheel.min_time t.wheel in
    let seq = Wheel.min_seq t.wheel in
    let thunk = Wheel.pop_exn t.wheel in
    Heap.push t.heap ~time ~seq thunk
  done

(* Minimum timed-event population before future events are routed to the
   wheel. Below it the heap wins: with a handful of pending events the
   whole heap is two hot cache lines and its sifts are trivial, while the
   wheel scatters them across a multi-KB slot array (measured pending
   averages: UDP-echo-style benches ~2.6, broadcast tree ~8.6, the
   message-passing scaling bench ~35). Routing by load cannot change
   results: the run loop merges the wheel and heap fronts by (time, seq),
   so which structure holds an event is invisible to the schedule. *)
let wheel_threshold = 24

let schedule t ~at thunk =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  if at = t.now then fifo_push t t.seq thunk
  else if
    at - t.now < Wheel.window
    && Wheel.length t.wheel + Heap.length t.heap >= wheel_threshold
    && Wheel.push t.wheel ~now:t.now ~time:at ~seq:t.seq thunk
  then ()
  else Heap.push t.heap ~time:at ~seq:t.seq thunk

(* A wait whose wake-up is provably the next event needs no scheduler
   round trip. When the FIFO is empty and [at] lies strictly before every
   wheel and heap entry (and within the run's [until]), the queue would
   hand control straight back to this task: schedule gives it the next
   seq, and the run loop pops it, sets the clock and counts it. Doing
   exactly those updates here and returning leaves the same state, so the
   (time, seq) schedule and the event counts are unchanged. Sound because
   a task only runs inside its own engine's run loop, so [c.running] is
   the waiting task's engine — the same invariant [now_] reads the clock
   through. *)
let wait_inline c d =
  let t = c.running in
  if t == idle || t.fq_len > 0 then false
  else begin
    let at = t.now + Int.max 0 d in
    if
      at <= t.limit
      && (Wheel.is_empty t.wheel || at < Wheel.min_time t.wheel)
      && (Heap.is_empty t.heap || at < Heap.min_time t.heap)
    then begin
      t.seq <- t.seq + 1;
      t.now <- at;
      t.executed <- t.executed + 1;
      c.executed_here <- c.executed_here + 1;
      true
    end
    else false
  end

(* Wait [d] on the engine running on this domain: inline when the wake-up
   is next, else through the queue. *)
let wait_on c d = if not (wait_inline c d) then Effect.perform (E_wait d)

(* Drain the pending-charge bank as one wait. Must run inside a task (it
   may perform [E_wait]); a no-op when nothing is banked, so it is safe
   (and cheap) to call at every interaction point. *)
let flush_charge () =
  let c = Domain.DLS.get domain_cell in
  if c.pending > 0 then begin
    let p = c.pending in
    c.pending <- 0;
    c.flushes <- c.flushes + 1;
    wait_on c p
  end

(* Install the preallocated [E_wait]/[E_suspend] answers (see [t]). *)
let init_handlers t =
  t.on_wait <-
    Some (fun k -> schedule t ~at:(t.now + Int.max 0 t.wait_delay) (ev_of_cont k));
  t.on_suspend <-
    Some
      (fun k ->
        let fired = ref false in
        let wake ?(delay = 0) () =
          if not !fired then begin
            fired := true;
            (* An invoker with a banked charge (e.g. a futex wake loop
               that charged a per-waiter cost) must reach the true time
               *before* the wake is scheduled — not just so the event
               lands at the right time, but so it is sequenced after
               everything else that fires inside the banked window.
               Paying the bank here is safe even though wakers may run
               outside any task: a non-empty bank implies task context,
               because every yield point flushes first. *)
            flush_charge ();
            schedule t ~at:(t.now + Int.max 0 delay) (ev_of_cont k)
          end
        in
        t.suspend_register wake);
  t

let create () = init_handlers (make ())

(* Engines of one PDES shard set share a group id, so [spawn] can refuse a
   task spawned onto a sibling shard's engine from inside another shard's
   window (where the target may be running on another domain). *)
let next_group = Atomic.make 1

let create_group n =
  let group = Atomic.fetch_and_add next_group 1 in
  Array.init n (fun _ -> init_handlers (make ~group ()))

(* Run [f] as a task body under the scheduling-effect handler. The body is
   bracketed so any charge still banked when the task returns (or halts)
   is paid before the task dies — otherwise a fused run could end with a
   smaller final clock than an unfused one. *)
let rec exec t (name : string) f =
  t.live <- t.live + 1;
  let tid = t.next_task in
  t.next_task <- tid + 1;
  Hashtbl.replace t.names tid name;
  let open Effect.Deep in
  match_with
    (fun () ->
      match f () with
      | () -> flush_charge ()
      | exception Halted ->
        flush_charge ();
        raise Halted)
    ()
    { retc =
        (fun () ->
          t.live <- t.live - 1;
          Hashtbl.remove t.names tid);
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          Hashtbl.remove t.names tid;
          (* Drop, don't pay, the bank on a crash: the next slice on this
             domain must not inherit a dead task's pending delay. *)
          (Domain.DLS.get domain_cell).pending <- 0;
          match e with
          | Halted -> ()
          | e ->
            (* A crashing task aborts the whole simulation: surface it. *)
            raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | E_wait n ->
            t.wait_delay <- n;
            t.on_wait
          | E_now -> Some (fun (k : (a, _) continuation) -> continue k t.now)
          | E_name -> Some (fun (k : (a, _) continuation) -> continue k name)
          | E_suspend register ->
            t.suspend_register <- register;
            t.on_suspend
          | E_spawn (nm, body) ->
            Some
              (fun (k : (a, _) continuation) ->
                let nm = Option.value nm ~default:(name ^ ".child") in
                (* Children start at the parent's *virtual* time: a parent
                   with a banked charge has conceptually already lived
                   those cycles, so the child must not start before them.
                   With nothing banked this is exactly [t.now]. *)
                let at = t.now + (Domain.DLS.get domain_cell).pending in
                schedule t ~at (ev_of_thunk (fun () -> exec t nm body));
                continue k ())
          | _ -> None) }

let spawn t ?(name = "task") f =
  let c = Domain.DLS.get domain_cell in
  (* A shard's window may only touch its own engine: a sibling shard's
     engine can be running concurrently on another domain. *)
  if c.running.group = t.group && c.running != t && t.group <> 0 then
    raise
      (Cross_shard_spawn
         (Printf.sprintf
            "task %S spawned onto a sibling shard's engine (group %d) from inside \
             another shard's window; post it to the target shard instead"
            name t.group));
  (* Same virtual-time rule as [E_spawn]: callable from inside a task
     (where a charge may be banked) as well as from setup code (where the
     bank is always empty and this is plain [t.now]). *)
  let at = t.now + c.pending in
  schedule t ~at (ev_of_thunk (fun () -> exec t name f))

(* Injection hook: schedule a bare thunk at an absolute time. The thunk
   runs outside any task context (like a waker body): it may mutate state
   and call [spawn]/[schedule_at], but must not perform task effects. Used
   by the fault injector to arm timed fault events. *)
let schedule_at t ~at thunk = schedule t ~at (ev_of_thunk thunk)

(* Event sources for the run loop's three-way front merge. *)
let src_fifo = 0

let src_wheel = 1
let src_heap = 2

let run t ?until ?(allow_stall = true) () =
  let limit = until in
  let c = Domain.DLS.get domain_cell in
  let rec loop () =
    let have_f = t.fq_len > 0 in
    let have_w = not (Wheel.is_empty t.wheel) in
    let have_h = not (Heap.is_empty t.heap) in
    if not have_f && not have_w && not have_h then begin
      if t.live > 0 && not allow_stall then begin
        (* Name the stuck tasks (in spawn order, capped) — "3 tasks
           suspended" alone sends the reader straight to a debugger. *)
        let ids = Hashtbl.fold (fun id nm acc -> (id, nm) :: acc) t.names [] in
        let names = List.sort compare ids |> List.map snd in
        let cap = 8 in
        let shown = List.filteri (fun i _ -> i < cap) names in
        let extra = List.length names - List.length shown in
        let who =
          String.concat ", " shown
          ^ (if extra > 0 then Printf.sprintf ", ... (+%d more)" extra else "")
        in
        raise
          (Stalled
             (Printf.sprintf "%d task(s) suspended forever at t=%d: %s" t.live t.now who))
      end
    end
    else begin
      (* Next event by (time, seq) across the three fronts. FIFO entries
         are at t.now, so they beat any strictly-later wheel/heap entry;
         at equal time, lower seq wins. *)
      let src = ref src_fifo in
      let ntime = ref max_int and nseq = ref max_int in
      if have_f then begin
        ntime := t.now;
        nseq := fifo_front_seq t
      end;
      if have_w then begin
        let wt = Wheel.min_time t.wheel in
        if wt < !ntime || (wt = !ntime && Wheel.min_seq t.wheel < !nseq) then begin
          src := src_wheel;
          ntime := wt;
          nseq := Wheel.min_seq t.wheel
        end
      end;
      if have_h then begin
        let ht = Heap.min_time t.heap in
        if ht < !ntime || (ht = !ntime && Heap.min_seq t.heap < !nseq) then begin
          src := src_heap;
          ntime := ht
        end
      end;
      let ntime = !ntime in
      match limit with
      | Some lim when ntime > lim ->
        if lim >= t.now then
          (* Forward stop (the common case; a PDES window barrier does this
             once per window). The FIFO is necessarily empty — its entries
             are due at [t.now <= lim] and would have run — and the wheel
             can stay put: every pending wheel time lies in
             (lim, lim + window), so pushes after the clock moves to [lim]
             cannot collide with an occupied slot (and Wheel.push refuses
             and falls back to the heap if one ever did). *)
          t.now <- lim
        else begin
          (* Rewinding stop ([until] before the current time): spill
             everything into the heap so (time, seq) survives the
             re-anchoring. *)
          fifo_spill t;
          wheel_spill t;
          t.now <- lim
        end
      | _ ->
        let thunk =
          if !src = src_fifo then fifo_pop t
          else if !src = src_wheel then Wheel.pop_exn t.wheel
          else Heap.pop_exn t.heap
        in
        t.now <- ntime;
        t.executed <- t.executed + 1;
        c.executed_here <- c.executed_here + 1;
        run_ev thunk;
        loop ()
    end
  in
  let saved = c.running and saved_limit = t.limit in
  c.running <- t;
  t.limit <- Option.value until ~default:max_int;
  match loop () with
  | () ->
    c.running <- saved;
    t.limit <- saved_limit
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    c.running <- saved;
    t.limit <- saved_limit;
    Printexc.raise_with_backtrace e bt

(* Task-level API. Every operation that can observe or be observed by the
   rest of the simulation flushes the charge bank first, so banked delays
   are indistinguishable from eagerly waited ones.

   [now_] is the deliberate exception: it reports *virtual* time (real
   time plus the banked charge) without flushing. The value is exactly
   what an unfused run would read, and crucially [now_] keeps its
   historical guarantee of never yielding — call sites freely mix it into
   compound expressions whose other operands read shared state, which a
   flush (a yield) would tear. *)

let now_ () =
  (* Fast path: read the running engine's clock off the domain. The
     [E_now] effect remains as the fallback (and for any caller outside a
     run loop that still has a task handler on its stack). *)
  let c = Domain.DLS.get domain_cell in
  if c.running != idle then c.running.now + c.pending
  else Effect.perform E_now + c.pending

let wait n =
  flush_charge ();
  (* Re-read the cell: a flush that went through the queue may resume
     this task on another domain (a PDES shard changes domains between
     windows). *)
  wait_on (Domain.DLS.get domain_cell) n

let charge n =
  let c = Domain.DLS.get domain_cell in
  if c.fuse && n > 0 then begin
    c.pending <- c.pending + n;
    c.deferred <- c.deferred + 1
  end
  else wait n

let wait_until at =
  let n = at - now_ () in
  if n > 0 then wait n

let yield () = wait 0

let suspend register =
  flush_charge ();
  Effect.perform (E_suspend register)

let spawn_ ?name f = Effect.perform (E_spawn (name, f))
let task_name () = Effect.perform E_name
let halt () = raise Halted
