open Mk_sim
open Mk_hw
open Mk
open Test_util

let test_ping () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let rtt = Monitor.ping mon 3 in
      check_bool "positive round trip" true (rtt > 0);
      (* Two pings cost about the same (deterministic steady state). *)
      let rtt2 = Monitor.ping mon 3 in
      check_bool "steady" true (abs (rtt - rtt2) < rtt))

let test_fan_noop_all_ack () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let t0 = Engine.now_ () in
      Monitor.run_fan mon ~plan ~op:Monitor.Op_noop;
      check_bool "took time" true (Engine.now_ () - t0 > 0))

let test_fan_tlb_invalidate () =
  run_os (fun os ->
      let m = Os.machine os in
      let vpage = 77 in
      Array.iter (fun tlb -> Tlb.fill tlb ~vpage) m.Machine.tlbs;
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      Monitor.run_fan mon ~plan ~op:(Monitor.Op_tlb_invalidate { vpages = [ vpage ] });
      Array.iter
        (fun tlb ->
          check_bool
            (Printf.sprintf "core %d clean" (Tlb.core tlb))
            false (Tlb.mem tlb ~vpage))
        m.Machine.tlbs)

let test_fan_replica_update () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      Monitor.run_fan mon ~plan ~op:(Monitor.Op_set_replica { key = "quantum"; value = 42 });
      for c = 0 to 3 do
        check_bool
          (Printf.sprintf "replica on %d" c)
          true
          (Monitor.get_replica (Os.monitor os ~core:c) "quantum" = Some 42)
      done)

let test_agree_commit () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      check_bool "noop commits" true (Monitor.agree mon ~plan ~op:Monitor.Ag_noop))

let test_agree_abort_on_stale_vote () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 in
      let db0 = Cpu_driver.capdb (Monitor.driver mon0) in
      let ram = Cap.Db.mint_ram db0 ~base:0x9000000 ~bytes:65536 in
      (* Replicate to core 2, then advance the replica out from under an
         agreement that expects frontier 0. *)
      (match Monitor.send_cap mon0 ~dst:2 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      let db2 = Cpu_driver.capdb (Os.driver os ~core:2) in
      (match Cap.Db.advance_frontier db2 ram ~bytes:4096 with
       | Ok () -> ()
       | Error _ -> Alcotest.fail "advance");
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let committed =
        Monitor.agree mon0 ~plan
          ~op:(Monitor.Ag_retype { cap = ram; expected_frontier = 0; bytes = 4096 })
      in
      check_bool "stale view aborts" false committed)

let test_pipelined_agrees () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let plan = Os.default_plan os ~root:0 ~members:[ 0; 1; 2; 3 ] in
      let ivs = List.init 8 (fun _ -> Monitor.agree_async mon ~plan ~op:Monitor.Ag_noop) in
      List.iter (fun iv -> check_bool "all commit" true (Sync.Ivar.read iv)) ivs)

let test_cap_transfer () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let db0 = Cpu_driver.capdb (Monitor.driver mon) in
      let ram = Cap.Db.mint_ram db0 ~base:0xa000000 ~bytes:4096 in
      (match Monitor.send_cap mon ~dst:1 ram with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Types.error_to_string e));
      check_bool "present remotely" true (Cap.Db.mem (Cpu_driver.capdb (Os.driver os ~core:1)) ram);
      (* Page tables must not cross cores. *)
      let pt =
        Result.get_ok (Cap.Db.retype db0 ram ~to_:(Cap.Page_table 1) ~count:1 ~bytes_each:4096)
        |> List.hd
      in
      match Monitor.send_cap mon ~dst:1 pt with
      | Error (Types.Err_cap_type _) -> ()
      | _ -> Alcotest.fail "page table transfer should be refused")

let test_wake () =
  run_os (fun os ->
      let mon0 = Os.monitor os ~core:0 in
      let mon3 = Os.monitor os ~core:3 in
      let woken = ref false in
      Monitor.register_wake mon3 7 (fun () -> woken := true);
      Monitor.wake_remote mon0 ~core:3 7;
      Engine.wait 100_000;
      check_bool "wake delivered" true !woken)

let test_messages_handled_counted () =
  run_os (fun os ->
      let mon = Os.monitor os ~core:0 in
      let before = Monitor.messages_handled (Os.monitor os ~core:2) in
      ignore (Monitor.ping mon 2 : int);
      check_bool "peer handled our ping" true
        (Monitor.messages_handled (Os.monitor os ~core:2) > before))

(* The round-robin poll the event loop used before the ready set: probe
   the [n] incoming channels from [scan_idx] on, wrapping once. *)
let linear_scan ~pending ~scan_idx =
  let n = Array.length pending in
  let rec go scanned idx =
    if n = 0 || scanned > n then -1
    else if pending.(idx mod n) then idx mod n
    else go (scanned + 1) (idx + 1)
  in
  go 0 scan_idx

let qcheck_dispatch_order =
  qtest ~count:500 "ready-set pick = round-robin linear scan"
    QCheck2.Gen.(
      int_range 1 200 >>= fun cores ->
      let n = cores - 1 in
      pair (array_size (return n) bool) (int_bound (max 0 (n - 1))))
    (fun (pending, scan_idx) ->
      let n = Array.length pending in
      let ready = Bitset.create ~n:(max 1 n) in
      Array.iteri (fun j p -> if p then Bitset.add ready j) pending;
      Monitor.next_ready ready ~from:scan_idx = linear_scan ~pending ~scan_idx)

(* A mesh above the 128-core closed-form arena threshold, which no other
   tier-1 test boots: one unmap and one 2PC round on a 160-core tree,
   pinned to the values of the linear-scan event loop. *)
let test_arena_mesh_pinned () =
  let plat = Platform.synthetic_tree ~packages:40 ~cores_per_package:4 in
  let os = Os.boot ~measure_latencies:Os.No_measure plat in
  let n = Os.n_cores os in
  let cores = List.init n Fun.id in
  let vaddr = 0x600000 in
  let protect, agree, committed =
    Os.run os (fun () ->
        let dom = Os.spawn_domain os ~name:"arena" ~cores in
        (match Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:Types.page_size with
         | Ok _ -> ()
         | Error e -> Alcotest.fail (Types.error_to_string e));
        List.iter (fun c -> ignore (Vspace.touch (Dom.vspace dom) ~core:c ~vaddr)) cores;
        let t0 = Engine.now_ () in
        (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false with
         | Ok () -> ()
         | Error e -> Alcotest.fail (Types.error_to_string e));
        let protect = Engine.now_ () - t0 in
        let plan = Os.default_plan os ~root:0 ~members:cores in
        let t1 = Engine.now_ () in
        let committed = Monitor.agree (Os.monitor os ~core:0) ~plan ~op:Monitor.Ag_noop in
        (protect, Engine.now_ () - t1, committed))
  in
  let handled =
    List.fold_left (fun acc c -> acc + Monitor.messages_handled (Os.monitor os ~core:c)) 0 cores
  in
  check_int "cores" 160 n;
  check_bool "2PC commits" true committed;
  check_int "protect cycles" 26749 protect;
  check_int "agree cycles" 45616 agree;
  check_int "messages handled" 1272 handled

let suite =
  ( "monitor",
    [
      tc "ping" test_ping;
      tc "fan noop" test_fan_noop_all_ack;
      tc "fan tlb invalidate" test_fan_tlb_invalidate;
      tc "fan replica update" test_fan_replica_update;
      tc "agree commit" test_agree_commit;
      tc "agree abort on stale vote" test_agree_abort_on_stale_vote;
      tc "pipelined agrees" test_pipelined_agrees;
      tc "cap transfer" test_cap_transfer;
      tc "wake" test_wake;
      tc "messages handled" test_messages_handled_counted;
      qcheck_dispatch_order;
      tc "160-core arena mesh pinned" test_arena_mesh_pinned;
    ] )
