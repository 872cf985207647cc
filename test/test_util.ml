(* Shared helpers for the test suites. *)

open Mk_sim
open Mk_hw

let tc name f = Alcotest.test_case name `Quick f

(* Run [f] as a simulation task on a fresh engine and return its result. *)
let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng ~name:"test" (fun () -> result := Some (f ()));
  Engine.run eng ();
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation task did not complete"

(* Same, on a machine of the given platform. *)
let run_machine ?(plat = Platform.amd_2x2) f =
  let m = Machine.create plat in
  let result = ref None in
  Engine.spawn m.Machine.eng ~name:"test" (fun () -> result := Some (f m));
  Machine.run m;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation task did not complete"

(* Run [f] against a booted OS. *)
let run_os ?(plat = Platform.amd_2x2) ?(measure_latencies = Mk.Os.No_measure) f =
  let os = Mk.Os.boot ~measure_latencies plat in
  Mk.Os.run os (fun () -> f os)

(* Run [f] with latency-charge fusion on or off on this domain, restoring
   the previous setting afterwards. *)
let with_fusion on f =
  let was = Engine.fusion_enabled () in
  Fun.protect ~finally:(fun () -> Engine.set_fusion was) (fun () ->
      Engine.set_fusion on;
      f ())

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
