open Mk_sim
open Test_util

let test_wait_advances_time () =
  let t =
    run_sim (fun () ->
        check_int "starts at 0" 0 (Engine.now_ ());
        Engine.wait 100;
        Engine.wait 23;
        Engine.now_ ())
  in
  check_int "total" 123 t

let test_negative_wait_is_zero () =
  let t = run_sim (fun () -> Engine.wait (-5); Engine.now_ ()) in
  check_int "clamped" 0 t

let test_spawn_ordering () =
  (* Tasks spawned at the same time run in spawn order. *)
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng (fun () -> log := i :: !log)
  done;
  Engine.run eng ();
  check_bool "order" true (List.rev !log = [ 1; 2; 3; 4; 5 ])

let test_determinism () =
  (* Two identical runs produce identical event interleavings. *)
  let trace () =
    let eng = Engine.create () in
    let log = ref [] in
    for i = 0 to 9 do
      Engine.spawn eng (fun () ->
          Engine.wait ((i * 7) mod 5);
          log := (i, Engine.now_ ()) :: !log;
          Engine.wait i;
          log := (i, Engine.now_ ()) :: !log)
    done;
    Engine.run eng ();
    !log
  in
  check_bool "same trace" true (trace () = trace ())

let test_suspend_wake () =
  let woke_at =
    run_sim (fun () ->
        let waker = ref None in
        Engine.spawn_ (fun () ->
            Engine.wait 50;
            match !waker with Some (w : Engine.waker) -> w () | None -> ());
        Engine.suspend (fun w -> waker := Some w);
        Engine.now_ ())
  in
  check_int "woken at 50" 50 woke_at

let test_waker_is_one_shot () =
  let count =
    run_sim (fun () ->
        let n = ref 0 in
        let waker = ref None in
        Engine.spawn_ (fun () ->
            Engine.wait 10;
            match !waker with
            | Some (w : Engine.waker) ->
              w ();
              w ();
              w ()
            | None -> ());
        Engine.suspend (fun w -> waker := Some w);
        incr n;
        Engine.wait 100;
        !n)
  in
  check_int "resumed once" 1 count

let test_wake_with_delay () =
  let t =
    run_sim (fun () ->
        let waker = ref None in
        Engine.spawn_ (fun () ->
            match !waker with Some (w : Engine.waker) -> w ~delay:70 () | None -> ());
        Engine.suspend (fun w -> waker := Some w);
        Engine.now_ ())
  in
  check_int "delayed wake" 70 t

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 10 do
        Engine.wait 10;
        incr hits
      done);
  Engine.run eng ~until:35 ();
  check_int "partial" 3 !hits;
  check_int "clock clamped" 35 (Engine.now eng);
  Engine.run eng ();
  check_int "rest" 10 !hits

let test_run_until_spills_wheel () =
  (* Stop the clock while near-future (wheel-resident) events are pending:
     they must survive the stop, and fire at their original times in their
     original order when the run resumes. Enough waiting tasks are spawned
     to clear the engine's population threshold, so the later schedules
     really do land in the wheel rather than the heap. *)
  let n = 40 in
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to n do
    Engine.spawn eng (fun () ->
        (* Two tasks per delay: same-(time, seq-order) pairs must stay
           ordered across the spill too. *)
        Engine.wait (5 + ((i / 2) * 3));
        log := (i, Engine.now_ ()) :: !log)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 5000;
      (* Beyond the wheel window: heap-resident throughout. *)
      log := (0, Engine.now_ ()) :: !log);
  Engine.run eng ~until:4 ();
  check_int "stopped early" 4 (Engine.now eng);
  check_bool "nothing ran yet" true (!log = []);
  Engine.run eng ();
  let expect =
    List.init n (fun k ->
        let i = k + 1 in
        (i, 5 + ((i / 2) * 3)))
    |> List.sort (fun (i1, t1) (i2, t2) ->
           if t1 <> t2 then compare t1 t2 else compare i1 i2)
  in
  check_bool "order and times preserved" true
    (List.rev !log = expect @ [ (0, 5000) ])

let test_run_until_spills_fifo_batch () =
  (* Stop mid same-time FIFO batch: run to t=10, queue a batch of
     same-time events (they sit in the FIFO), then ask for an earlier
     stop — the batch must spill without losing its (time, seq) order. *)
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.wait 10);
  Engine.run eng ();
  check_int "at 10" 10 (Engine.now eng);
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () -> log := (i, Engine.now_ ()) :: !log)
  done;
  Engine.run eng ~until:8 ();
  check_bool "batch not run at stop" true (!log = []);
  Engine.run eng ();
  check_bool "batch ran at its time, in seq order" true
    (List.rev !log = [ (1, 10); (2, 10); (3, 10) ])

let test_stall_detection () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.suspend (fun _ -> ()));
  (match Engine.run eng ~allow_stall:false () with
   | () -> Alcotest.fail "expected Stalled"
   | exception Engine.Stalled _ -> ());
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run eng2 ()  (* default tolerates blocked server tasks *)

let test_stalled_names () =
  (* The Stalled message names the suspended tasks, so a deadlock report
     points at the culprits instead of just counting them. *)
  let eng = Engine.create () in
  Engine.spawn eng ~name:"waiter.a" (fun () -> Engine.suspend (fun _ -> ()));
  Engine.spawn eng ~name:"waiter.b" (fun () ->
      Engine.wait 5;
      Engine.suspend (fun _ -> ()));
  (match Engine.run eng ~allow_stall:false () with
   | () -> Alcotest.fail "expected Stalled"
   | exception Engine.Stalled msg ->
     let has s =
       let n = String.length s in
       let rec go i =
         i + n <= String.length msg && (String.sub msg i n = s || go (i + 1))
       in
       go 0
     in
     check_bool "names waiter.a" true (has "waiter.a");
     check_bool "names waiter.b" true (has "waiter.b");
     check_bool "counts both" true (has "2 task(s)"))

let test_reset () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.wait 37);
  Engine.run eng ();
  check_int "ran to 37" 37 (Engine.now eng);
  Engine.reset eng;
  check_int "clock rewound" 0 (Engine.now eng);
  (* A recycled engine replays a fresh schedule identically. *)
  Engine.spawn eng (fun () -> Engine.wait 12);
  Engine.run eng ();
  check_int "second run from 0" 12 (Engine.now eng);
  (* Busy engines refuse: a suspended-forever task means pending state. *)
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run eng2 ();
  match Engine.reset eng2 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_halt () =
  let reached = ref false in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Engine.halt () : unit);
      reached := true);
  Engine.run eng ();
  check_bool "code after halt unreachable" false !reached;
  check_int "task accounted dead" 0 (Engine.live_tasks eng)

let test_live_tasks () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Engine.wait 10);
  Engine.spawn eng (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run eng ();
  check_int "one suspended forever" 1 (Engine.live_tasks eng)

let test_task_name () =
  let name = run_sim (fun () -> Engine.task_name ()) in
  check_string "name" "test" name

let test_nested_spawn () =
  let sum =
    run_sim (fun () ->
        let acc = ref 0 in
        Engine.spawn_ (fun () ->
            Engine.spawn_ (fun () -> acc := !acc + 1);
            acc := !acc + 10);
        Engine.wait 1;
        !acc)
  in
  check_int "both ran" 11 sum

(* -- latency-charge fusion -- *)

let test_charge_banks_delay () =
  with_fusion true (fun () ->
      let eng = Engine.create () in
      Engine.spawn eng (fun () ->
          Engine.charge 40;
          check_int "pending banked" 40 (Engine.pending_charge ());
          (* Virtual time includes the bank; real engine time does not. *)
          check_int "virtual now" 40 (Engine.now_ ());
          check_int "real now" 0 (Engine.now eng);
          Engine.charge 2;
          check_int "accumulates" 42 (Engine.pending_charge ());
          Engine.flush_charge ();
          check_int "bank drained" 0 (Engine.pending_charge ());
          check_int "real now caught up" 42 (Engine.now eng);
          check_int "virtual = real after flush" 42 (Engine.now_ ()));
      Engine.run eng ();
      check_int "final time includes charges" 42 (Engine.now eng))

let test_charge_flushes_at_wait () =
  with_fusion true (fun () ->
      let t =
        run_sim (fun () ->
            Engine.charge 30;
            (* A wait is an interaction point: bank drains first, then the
               wait runs, so total elapsed is charge + wait. *)
            Engine.wait 12;
            check_int "no pending after wait" 0 (Engine.pending_charge ());
            Engine.now_ ())
      in
      check_int "charge + wait" 42 t)

let test_charge_counts_fused_events () =
  with_fusion true (fun () ->
      let eng = Engine.create () in
      let fused0 = Engine.domain_events_fused () in
      Engine.spawn eng (fun () ->
          (* Three charges drain as one flush: two scheduler events saved. *)
          Engine.charge 5;
          Engine.charge 6;
          Engine.charge 7;
          Engine.flush_charge ());
      Engine.run eng ();
      check_int "two events fused" 2 (Engine.domain_events_fused () - fused0))

let test_fusion_off_is_eager () =
  with_fusion false (fun () ->
      let t =
        run_sim (fun () ->
            check_bool "reported off" false (Engine.fusion_enabled ());
            Engine.charge 40;
            (* With fusion disabled, charge degrades to wait: no bank. *)
            check_int "nothing banked" 0 (Engine.pending_charge ());
            Engine.now_ ())
      in
      check_int "still elapses" 40 t)

let test_charge_nonpositive_is_noop () =
  with_fusion true (fun () ->
      let t =
        run_sim (fun () ->
            Engine.charge 0;
            Engine.charge (-7);
            check_int "nothing banked" 0 (Engine.pending_charge ());
            Engine.now_ ())
      in
      check_int "no time" 0 t)

(* -- effect-path allocation and run's restore -- *)

(* Minor words this domain allocates per operation of [op], over [n]
   operations in one task. [Gc.minor_words] counts the calling domain
   only, and exactly: it includes the words allocated since the last
   minor collection, which [Gc.counters] and [Gc.quick_stat] miss. With
   [~partner:true] a second task runs [op] in lockstep, so every wake-up
   has an earlier-sequenced event at its time and a wait takes the
   effect path rather than the inline one; both tasks' operations are
   counted then. *)
let words_per_op ?(partner = false) ~n op =
  let eng = Engine.create () in
  let words = ref 0. in
  if partner then
    Engine.spawn eng (fun () ->
        for _ = 0 to n do
          op ()
        done);
  Engine.spawn eng (fun () ->
      op ();
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        op ()
      done;
      words := Gc.minor_words () -. w0);
  Engine.run eng ();
  !words /. float_of_int (if partner then 2 * n else n)

(* The handler answers [E_wait] and [E_suspend] with per-engine closures:
   a wait through the effect path allocates only its effect and
   continuation (5 words), a suspend plus wake adds the one-shot waker
   (18). A handler closure per effect (12 and 25 words) exceeds both
   bounds. *)
let test_wait_allocation () =
  let w = words_per_op ~partner:true ~n:100_000 (fun () -> Engine.wait 1) in
  check_bool (Printf.sprintf "wait: %.1f words/op <= 5.5" w) true (w <= 5.5)

(* A lone task's wait is always the next event, so it never performs the
   effect: no effect, no continuation, no allocation at all. *)
let test_inline_wait_allocation () =
  let w = words_per_op ~n:100_000 (fun () -> Engine.wait 1) in
  check_bool (Printf.sprintf "inline wait: %g words/op = 0" w) true (w = 0.)

let test_suspend_allocation () =
  let w = words_per_op ~n:100_000 (fun () -> Engine.suspend (fun wake -> wake ())) in
  check_bool (Printf.sprintf "suspend+wake: %.1f words/op <= 20" w) true (w <= 20.0)

(* -- the inline wait path -- *)

(* A wait that would wake at the same time as an already-pending event
   must queue behind it: the pending event holds the smaller seq. [a]
   sleeps to t=10 in one wait; [b] reaches t=10 in two, its second wait
   landing exactly on [a]'s wake-up. *)
let test_inline_same_time_pending () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.wait 10;
      log := ("a", Engine.now_ ()) :: !log);
  Engine.spawn eng (fun () ->
      Engine.wait 5;
      Engine.wait 5;
      log := ("b", Engine.now_ ()) :: !log);
  Engine.run eng ();
  check_bool "a (earlier seq) runs first" true
    (List.rev !log = [ ("a", 10); ("b", 10) ]);
  (* Same with a same-time FIFO entry: [c]'s yield must let [d] run. *)
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.yield ();
      log := "c" :: !log);
  Engine.spawn eng (fun () -> log := "d" :: !log);
  Engine.run eng ();
  check_bool "yield queues behind the FIFO" true (List.rev !log = [ "d"; "c" ])

(* A wait past [run ~until] is left queued: the run stops at its limit,
   and the next run resumes the task at the time and with the event count
   an uninterrupted run reaches. *)
let test_inline_wait_past_until () =
  let body seen () =
    Engine.wait 10;
    Engine.wait 100;
    seen := Engine.now_ ()
  in
  let whole = Engine.create () and seen_whole = ref (-1) in
  Engine.spawn whole (body seen_whole);
  Engine.run whole ();
  let split = Engine.create () and seen = ref (-1) in
  Engine.spawn split (body seen);
  Engine.run split ~until:50 ();
  check_int "stopped at the limit" 50 (Engine.now split);
  check_int "second wait not taken" (-1) !seen;
  check_int "start + first wait" 2 (Engine.events_executed split);
  Engine.run split ();
  check_int "resumed at" !seen_whole !seen;
  check_int "clock" (Engine.now whole) (Engine.now split);
  check_int "events" (Engine.events_executed whole) (Engine.events_executed split)

(* Engines of one group refuse spawns from a sibling's run: the task
   would land on an engine another domain may be running. Own-engine,
   standalone-engine and host-context spawns are unaffected. *)
let test_cross_shard_spawn () =
  let engs = Engine.create_group 2 in
  let other = Engine.create () in
  let ran = ref [] in
  Engine.spawn engs.(0) (fun () ->
      Engine.spawn engs.(0) (fun () -> ran := "own" :: !ran);
      Engine.spawn other (fun () -> ());
      match Engine.spawn engs.(1) ~name:"sibling" (fun () -> ()) with
      | () -> Alcotest.fail "spawn onto a sibling engine should raise"
      | exception Engine.Cross_shard_spawn msg ->
        check_bool "names the task" true
          (String.starts_with ~prefix:"task \"sibling\"" msg));
  Engine.run engs.(0) ();
  check_bool "own spawn ran" true (!ran = [ "own" ]);
  Engine.spawn engs.(1) (fun () -> ran := "host" :: !ran);
  Engine.run engs.(1) ();
  check_bool "host spawn ran" true (!ran = [ "host"; "own" ])

(* Differential property: a random multi-task program logs the same
   per-step (time, task) sequence run alone — where most waits are
   provably next and take the inline path — and with a ticker task that
   wakes every cycle, which keeps an event pending at or before nearly
   every wake-up and so forces the queue path. The ticker touches no
   program state, so it cannot change the program's schedule. *)
type step =
  | S_wait of int
  | S_charge of int
  | S_yield
  | S_wait_until of int
  | S_spawn of int
  | S_fill of int
  | S_read of int
  | S_send of int
  | S_recv of int

let gen_step =
  QCheck2.Gen.(
    let d = int_bound 20 in
    let k = int_bound 2 in
    oneof
      [
        map (fun d -> S_wait d) d;
        map (fun d -> S_wait (d mod 3)) d;
        map (fun d -> S_charge d) d;
        return S_yield;
        map (fun d -> S_wait_until d) d;
        map (fun d -> S_spawn d) d;
        map (fun k -> S_fill k) k;
        map (fun k -> S_read k) k;
        map (fun k -> S_send k) k;
        map (fun k -> S_recv k) k;
      ])

let gen_program =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 4) (list_size (int_bound 8) gen_step))
      (list_size (int_bound 3) (int_bound 300)))

let program_log ~ticker (tasks, windows) =
  let eng = Engine.create () in
  let log = ref [] in
  let note id = log := (Engine.now_ (), id) :: !log in
  let ivars = Array.init 3 (fun _ -> Sync.Ivar.create ()) in
  let boxes = Array.init 3 (fun _ -> Sync.Mailbox.create ()) in
  let step id = function
    | S_wait d -> Engine.wait d
    | S_charge d -> Engine.charge d
    | S_yield -> Engine.yield ()
    | S_wait_until d -> Engine.wait_until (Engine.now_ () + d - 5)
    | S_spawn d ->
      Engine.spawn_ (fun () ->
          Engine.wait d;
          note (100 + id))
    | S_fill k -> ignore (Sync.Ivar.try_fill ivars.(k) () : bool)
    | S_read k -> Sync.Ivar.read ivars.(k)
    | S_send k -> Sync.Mailbox.send boxes.(k) ()
    | S_recv k -> Sync.Mailbox.recv boxes.(k)
  in
  if ticker then
    Engine.spawn eng ~name:"ticker" (fun () ->
        for _ = 1 to 2_000 do
          Engine.wait 1
        done);
  List.iteri
    (fun id steps ->
      Engine.spawn eng (fun () ->
          List.iter
            (fun s ->
              step id s;
              note id)
            steps))
    tasks;
  List.iter (fun until -> Engine.run eng ~until ()) (List.sort compare windows);
  Engine.run eng ();
  List.rev !log

let prop_inline_matches_queue =
  qtest ~count:300 "inline waits match queued waits" gen_program (fun p ->
      program_log ~ticker:false p = program_log ~ticker:true p)

(* A task exception that escapes a nested [Engine.run] must leave the
   outer engine as the one [now_] reads. *)
let test_run_restores_running () =
  let eng = Engine.create () in
  let seen = ref (-1) in
  Engine.spawn eng (fun () ->
      Engine.wait 100;
      let inner = Engine.create () in
      Engine.spawn inner (fun () ->
          Engine.wait 7;
          failwith "inner task crashed");
      (match Engine.run inner () with
      | () -> Alcotest.fail "inner run should raise"
      | exception Failure _ -> ());
      seen := Engine.now_ ());
  Engine.run eng ();
  check_int "outer clock" 100 !seen

let suite =
  ( "engine",
    [
      tc "wait advances time" test_wait_advances_time;
      tc "negative wait" test_negative_wait_is_zero;
      tc "spawn ordering" test_spawn_ordering;
      tc "determinism" test_determinism;
      tc "suspend/wake" test_suspend_wake;
      tc "waker one-shot" test_waker_is_one_shot;
      tc "wake with delay" test_wake_with_delay;
      tc "run until" test_run_until;
      tc "run until spills wheel" test_run_until_spills_wheel;
      tc "run until spills fifo batch" test_run_until_spills_fifo_batch;
      tc "stall detection" test_stall_detection;
      tc "stalled names" test_stalled_names;
      tc "reset" test_reset;
      tc "halt" test_halt;
      tc "live tasks" test_live_tasks;
      tc "task name" test_task_name;
      tc "nested spawn" test_nested_spawn;
      tc "charge banks delay" test_charge_banks_delay;
      tc "charge flushes at wait" test_charge_flushes_at_wait;
      tc "charge counts fused events" test_charge_counts_fused_events;
      tc "fusion off is eager" test_fusion_off_is_eager;
      tc "charge nonpositive noop" test_charge_nonpositive_is_noop;
      tc "wait allocation" test_wait_allocation;
      tc "inline wait allocation" test_inline_wait_allocation;
      tc "suspend allocation" test_suspend_allocation;
      tc "run restores running engine" test_run_restores_running;
      tc "inline wait queues behind same-time event" test_inline_same_time_pending;
      tc "inline wait past until resumes" test_inline_wait_past_until;
      tc "cross-shard spawn refused" test_cross_shard_spawn;
      prop_inline_matches_queue;
    ] )
