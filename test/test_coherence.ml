open Mk_sim
open Mk_hw
open Test_util

(* Cores 0,1 share a package on the 2x2 AMD; core 2 is on the other one. *)

let test_cold_then_hot () =
  run_machine (fun m ->
      let a = Machine.alloc_lines m 1 in
      let t0 = Engine.now_ () in
      Coherence.load m.Machine.coh ~core:0 a;
      let cold = Engine.now_ () - t0 in
      let t1 = Engine.now_ () in
      Coherence.load m.Machine.coh ~core:0 a;
      let hot = Engine.now_ () - t1 in
      check_bool "cold miss much slower" true (cold > 10 * hot);
      check_int "hot = l1" m.Machine.plat.Platform.l1_hit hot)

let test_states () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      let line = Coherence.line_of_addr coh a in
      check_bool "untouched invalid" true (Coherence.line_state coh ~line = Coherence.Invalid);
      Coherence.load coh ~core:0 a;
      (match Coherence.line_state coh ~line with
       | Coherence.Shared [ 0 ] -> ()
       | _ -> Alcotest.fail "expected Shared [0]");
      Coherence.store coh ~core:0 a;
      check_bool "modified after store" true
        (Coherence.line_state coh ~line = Coherence.Modified 0);
      Coherence.load coh ~core:2 a;
      (match Coherence.line_state coh ~line with
       | Coherence.Shared cs ->
         check_bool "both share" true (List.mem 0 cs && List.mem 2 cs)
       | _ -> Alcotest.fail "expected Shared");
      Coherence.store coh ~core:2 a;
      check_bool "ownership moved" true
        (Coherence.line_state coh ~line = Coherence.Modified 2))

let test_invariant_single_owner () =
  (* Random op sequences never leave two Modified owners. *)
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let lines = Array.init 4 (fun _ -> Machine.alloc_lines m 1) in
      let rng = Prng.create ~seed:99 in
      for _ = 1 to 500 do
        let core = Prng.int rng 4 in
        let a = lines.(Prng.int rng 4) in
        if Prng.bool rng then Coherence.store coh ~core a
        else Coherence.load coh ~core a;
        Array.iter
          (fun addr ->
            match Coherence.line_state coh ~line:(Coherence.line_of_addr coh addr) with
            | Coherence.Modified _ | Coherence.Invalid -> ()
            | Coherence.Shared cs ->
              check_bool "no dup sharers" true
                (List.length (List.sort_uniq compare cs) = List.length cs))
          lines
      done)

let test_latency_ordering () =
  (* local hit < shared-cache fetch < cross-package fetch. *)
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let time f = let t0 = Engine.now_ () in f (); Engine.now_ () - t0 in
      let mk_dirty core = let a = Machine.alloc_lines m 1 in Coherence.store coh ~core a; a in
      let a1 = mk_dirty 1 in
      let local = time (fun () -> Coherence.load coh ~core:0 a1) in
      let a2 = mk_dirty 2 in
      let remote = time (fun () -> Coherence.load coh ~core:0 a2) in
      let a0 = mk_dirty 0 in
      let hit = time (fun () -> Coherence.load coh ~core:0 a0) in
      check_bool "hit < local" true (hit < local);
      check_bool "local < remote" true (local < remote))

let test_store_invalidates_everywhere () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      List.iter (fun c -> Coherence.load coh ~core:c a) [ 0; 1; 2; 3 ];
      Coherence.store coh ~core:3 a;
      check_bool "only writer caches it" true
        (Coherence.line_state coh ~line:(Coherence.line_of_addr coh a)
        = Coherence.Modified 3))

let test_posted_store_delay () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      Coherence.load coh ~core:2 a;
      let t0 = Engine.now_ () in
      let delay = Coherence.store_posted coh ~core:0 a in
      let posted_cost = Engine.now_ () - t0 in
      check_int "post cost" Coherence.store_post_cost posted_cost;
      check_bool "invalidation still in flight" true (delay > 0))

let test_home_pinning () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:1 1 in
      let line = Coherence.line_of_addr coh a in
      check_bool "home pinned before touch" true (Coherence.home_of coh ~line = Some 1);
      Coherence.load coh ~core:0 a;
      check_bool "home survives touch" true (Coherence.home_of coh ~line = Some 1))

let test_home_defaults_to_first_toucher () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m 1 in
      Coherence.load coh ~core:2 a;
      let line = Coherence.line_of_addr coh a in
      check_bool "home = package of first toucher" true
        (Coherence.home_of coh ~line = Some 1))

let test_traffic_counted () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:0 1 in
      Coherence.store coh ~core:0 a;
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.load coh ~core:2 a;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_bool "cross-package fetch moved dwords" true (Perfcounter.total_dwords d > 0);
      check_int "one miss" 1 d.Perfcounter.dcache_miss.(2);
      check_int "one c2c" 1 d.Perfcounter.c2c_fetch.(2))

let test_local_traffic_free () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:0 1 in
      Coherence.store coh ~core:0 a;
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.load coh ~core:1 a (* same package *);
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_int "no interconnect dwords" 0 (Perfcounter.total_dwords d))

let test_read_storm_serializes () =
  (* N readers of one dirty line take ~N * slot; readers of distinct dirty
     lines overlap. This is the Figure 6 Broadcast-vs-Unicast mechanism. *)
  let storm =
    run_machine ~plat:Platform.amd_8x4 (fun m ->
        let coh = m.Machine.coh in
        let a = Machine.alloc_lines m ~node:0 1 in
        Coherence.store coh ~core:0 a;
        let done_ = Sync.Semaphore.create 0 in
        let t0 = Engine.now_ () in
        List.iter
          (fun c ->
            Engine.spawn_ (fun () ->
                Coherence.load coh ~core:c a;
                Sync.Semaphore.release done_))
          [ 4; 8; 12; 16; 20; 24 ];
        for _ = 1 to 6 do Sync.Semaphore.acquire done_ done;
        Engine.now_ () - t0)
  in
  let spread =
    run_machine ~plat:Platform.amd_8x4 (fun m ->
        let coh = m.Machine.coh in
        let lines = List.init 6 (fun _ -> Machine.alloc_lines m ~node:0 1) in
        List.iter (fun a -> Coherence.store coh ~core:0 a) lines;
        let done_ = Sync.Semaphore.create 0 in
        let t0 = Engine.now_ () in
        List.iteri
          (fun i a ->
            Engine.spawn_ (fun () ->
                Coherence.load coh ~core:(4 * (i + 1)) a;
                Sync.Semaphore.release done_))
          lines;
        for _ = 1 to 6 do Sync.Semaphore.acquire done_ done;
        Engine.now_ () - t0)
  in
  check_bool "same-line storm at least 2x slower" true (storm > 2 * spread)

let test_touch_range () =
  run_machine (fun m ->
      let coh = m.Machine.coh in
      let bytes = 1000 in
      let a = Machine.alloc_bytes m bytes in
      let before = Perfcounter.snapshot m.Machine.counters in
      Coherence.touch_range coh ~core:0 ~addr:a ~bytes ~write:true;
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_int "16 lines written" 16 d.Perfcounter.stores.(0))

(* -- the inline sharer set -- *)

(* Minor words of [f ()], read exactly. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Random sharer-set programs against a reference [Bitset] of the same
   capacity. Cores come mostly from a four-core pool so adds regularly
   reach a third sharer (the spill) and removes hit members; [Clear] then
   lets later adds reuse the spilled bitset. Every observer is compared
   after every step, and an out-of-range core must raise on both sides. *)
type sh_op = Add of int | Remove of int | Clear | Mem of int | Next of int

let sh_run n ops =
  let l = Dir_line.create ~home:0 and r = Bitset.create ~n in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  List.for_all
    (fun op ->
      let step_ok =
        match op with
        | Add c when c < 0 || c >= n ->
          raises (fun () -> Dir_line.add_sharer ~n l c)
          && raises (fun () -> Bitset.add r c)
        | Add c ->
          Dir_line.add_sharer ~n l c;
          Bitset.add r c;
          true
        | Remove c ->
          Dir_line.remove_sharer ~n l c;
          Bitset.remove r c;
          true
        | Clear ->
          Dir_line.clear_sharers l;
          Bitset.clear r;
          true
        | Mem c -> Dir_line.mem_sharer ~n l c = Bitset.mem r c
        | Next i -> Dir_line.next_sharer l i = Bitset.next_member r i
      in
      step_ok
      && Dir_line.n_sharers l = Bitset.cardinal r
      && Dir_line.no_sharers l = Bitset.is_empty r
      && Dir_line.sharers l = Bitset.to_list r)
    ops

let gen_sh_program =
  QCheck2.Gen.(
    let* n = oneofl [ 4; 128; 1024 ] in
    let pool = [ 0; 1; n / 2; n - 1 ] in
    let core = frequency [ (3, oneofl pool); (1, int_bound (n - 1)) ] in
    let op =
      frequency
        [
          (6, map (fun c -> Add c) core);
          (3, map (fun c -> Remove c) core);
          (1, pure Clear);
          (2, map (fun c -> Mem c) core);
          (2, map (fun i -> Next i) (oneof [ core; pure n ]));
          (1, map (fun c -> Add c) (oneofl [ -1; n ]));
        ]
    in
    pair (pure n) (list_size (int_range 0 40) op))

let qcheck_sharers_vs_bitset =
  qtest ~count:500 "inline sharers match a reference bitset" gen_sh_program
    (fun (n, ops) -> sh_run n ops)

(* The spill boundary and bitset reuse, directed: two sharers stay inline
   (no allocation), a third spills into a bitset over the core count, and
   after a clear a second spill reuses that bitset (no allocation) with no
   stale members from the first. *)
let test_sharers_spill_reuse () =
  let n = 1024 in
  let l = Dir_line.create ~home:0 in
  let add = Dir_line.add_sharer ~n l in
  let add_all cores () = List.iter add cores in
  check_bool "two sharers allocate nothing" true (words (add_all [ 900; 5 ]) = 0.);
  check_bool "inline ascending" true (Dir_line.sharers l = [ 5; 900 ]);
  check_bool "a third spills into a bitset" true (words (add_all [ 1023 ]) > 0.);
  check_bool "spilled ascending" true (Dir_line.sharers l = [ 5; 900; 1023 ]);
  Dir_line.clear_sharers l;
  check_bool "clear empties" true
    (Dir_line.no_sharers l && Dir_line.next_sharer l 0 = -1);
  check_bool "a second spill reuses the bitset" true
    (words (add_all [ 7; 3; 600 ]) = 0.);
  check_bool "reused spill has no stale members" true
    (Dir_line.sharers l = [ 3; 7; 600 ]);
  check_int "cardinal" 3 (Dir_line.n_sharers l);
  check_bool "out-of-range add raises" true
    (match add 1024 with () -> false | exception Invalid_argument _ -> true)

let mesh_1024 () = Platform.synthetic_mesh ~packages:256 ~cores_per_package:4

(* Three sharers spread across a 1024-core mesh, then a store by the middle
   one: one invalidation, the latency of the farthest sharer's transfer
   (core 1023: 352 cycles; core 5 is 346) and 1920 dwords of probe
   broadcast. *)
let test_sharers_1024_invalidate () =
  let plat = mesh_1024 () in
  run_machine ~plat (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:0 1 in
      let line = Coherence.line_of_addr coh a in
      List.iter (fun c -> Coherence.load coh ~core:c a) [ 5; 900; 1023 ];
      check_bool "Shared [5; 900; 1023]" true
        (Coherence.line_state coh ~line = Coherence.Shared [ 5; 900; 1023 ]);
      let before = Perfcounter.snapshot m.Machine.counters in
      let t0 = Engine.now_ () in
      Coherence.store coh ~core:900 a;
      let lat = Engine.now_ () - t0 in
      let d = Perfcounter.diff (Perfcounter.snapshot m.Machine.counters) before in
      check_bool "Modified 900" true (Coherence.line_state coh ~line = Coherence.Modified 900);
      check_int "one invalidation" 1 (Array.fold_left ( + ) 0 d.Perfcounter.invalidations);
      check_int "charged to the writer" 1 d.Perfcounter.invalidations.(900);
      let xfer c =
        plat.Platform.cc_base
        + (2 * plat.Platform.hop_one_way * Platform.hops_between plat c 900)
      in
      check_int "farthest sharer's transfer" (Int.max (xfer 5) (xfer 1023)) lat;
      check_int "latency" 352 lat;
      check_int "probe dwords" 1920 (Perfcounter.total_dwords d))

(* -- allocation gates -- *)

let n_ops = 1000

(* Each measured access targets a fresh line of [n_ops + 1] node-0 lines
   prepared by [setup]; the first one warms the path-counter cache for the
   core pairs involved. Returns words per access. The accesses run inside
   a lone task, where a blocking access's wait takes the engine's inline
   path and allocates nothing itself. *)
let access_words ~setup ~op =
  run_machine ~plat:(mesh_1024 ()) (fun m ->
      let coh = m.Machine.coh in
      let cl = m.Machine.plat.Platform.cacheline in
      let base = Machine.alloc_lines m ~node:0 (n_ops + 1) in
      let addr i = base + (i * cl) in
      for i = 0 to n_ops do
        setup coh (addr i)
      done;
      op coh (addr 0);
      words (fun () ->
          for i = 1 to n_ops do
            op coh (addr i)
          done)
      /. float_of_int n_ops)

let check_zero name w =
  check_bool (Printf.sprintf "%s: %g words/access = 0" name w) true (w = 0.)

let test_access_allocation () =
  check_zero "load hit"
    (access_words
       ~setup:(fun coh a -> Coherence.load coh ~core:5 a)
       ~op:(fun coh a -> Coherence.load coh ~core:5 a));
  check_zero "second-sharer load"
    (access_words
       ~setup:(fun coh a -> Coherence.load coh ~core:5 a)
       ~op:(fun coh a -> Coherence.load coh ~core:900 a));
  check_zero "invalidating store"
    (access_words
       ~setup:(fun coh a ->
         Coherence.load coh ~core:5 a;
         Coherence.load coh ~core:900 a)
       ~op:(fun coh a -> Coherence.store coh ~core:900 a))

(* The counters are full-arity functions: a partial application such as
   [let count_load t = bump t.loads] builds a closure on every call. *)
let test_counter_allocation () =
  run_machine ~plat:(mesh_1024 ()) (fun m ->
      let c = m.Machine.counters in
      let w =
        words (fun () ->
            for core = 0 to 1023 do
              Perfcounter.count_load c ~core;
              Perfcounter.count_store c ~core;
              Perfcounter.count_miss c ~core;
              Perfcounter.count_c2c c ~core;
              Perfcounter.count_dram c ~core;
              Perfcounter.count_inval c ~core
            done)
      in
      check_bool (Printf.sprintf "count_*: %g words = 0" w) true (w = 0.))

(* A first touch allocates the line record (nine fields and a header) and
   nothing else. The first line warms the core/home path-counter cache. *)
let test_first_touch_allocation () =
  run_machine ~plat:(mesh_1024 ()) (fun m ->
      let coh = m.Machine.coh in
      let a = Machine.alloc_lines m ~node:0 2 in
      Coherence.load coh ~core:5 a;
      let cl = m.Machine.plat.Platform.cacheline in
      let w = words (fun () -> Coherence.load coh ~core:5 (a + cl)) in
      check_bool (Printf.sprintf "first touch: %g words = 10" w) true (w = 10.))

let suite =
  ( "coherence",
    [
      tc "cold then hot" test_cold_then_hot;
      tc "MESI states" test_states;
      tc "single-owner invariant" test_invariant_single_owner;
      tc "latency ordering" test_latency_ordering;
      tc "store invalidates" test_store_invalidates_everywhere;
      tc "posted store" test_posted_store_delay;
      tc "home pinning" test_home_pinning;
      tc "home default" test_home_defaults_to_first_toucher;
      tc "traffic counted" test_traffic_counted;
      tc "local traffic free" test_local_traffic_free;
      tc "read storm serializes" test_read_storm_serializes;
      tc "touch range" test_touch_range;
      qcheck_sharers_vs_bitset;
      tc "sharer spill and reuse" test_sharers_spill_reuse;
      tc "1024-core invalidation" test_sharers_1024_invalidate;
      tc "access allocation" test_access_allocation;
      tc "counter allocation" test_counter_allocation;
      tc "first-touch allocation" test_first_touch_allocation;
    ] )
