(* The cluster serving subsystem: load-balancer policy correctness
   (including consistent-hash stability when a backend dies), session
   shard affinity across machines and cores, the Ft-driven death path on
   a backend OS, and the determinism referee — one cell of the cluster
   sweep recomputed on 1/2/4-domain PDES teams must produce identical
   results (placement never leaks into simulated numbers). *)

open Mk_sim
open Mk_cluster
open Test_util

let with_domains d f =
  Pdes.set_domains_override (Some d);
  Fun.protect ~finally:(fun () -> Pdes.set_domains_override None) f

(* -- Lb policies (pure state machine, no simulation) ------------------ *)

let test_rr () =
  let lb = Lb.create Lb.Round_robin ~backends:3 in
  let picks = List.init 6 (fun s -> Lb.pick lb ~session:s) in
  check_bool "cycles" true
    (picks = [ Some 0; Some 1; Some 2; Some 0; Some 1; Some 2 ]);
  Lb.mark_dead lb 1;
  let picks = List.init 4 (fun s -> Lb.pick lb ~session:s) in
  check_bool "skips dead" true (picks = [ Some 0; Some 2; Some 0; Some 2 ]);
  Lb.mark_dead lb 0;
  Lb.mark_dead lb 2;
  check_bool "all dead" true (Lb.pick lb ~session:9 = None);
  Lb.mark_alive lb 1;
  check_bool "revived" true (Lb.pick lb ~session:9 = Some 1)

let test_lo () =
  let lb = Lb.create Lb.Least_outstanding ~backends:3 in
  check_bool "ties to lowest index" true (Lb.pick lb ~session:0 = Some 0);
  Lb.note_sent lb 0;
  Lb.note_sent lb 1;
  check_bool "least loaded" true (Lb.pick lb ~session:1 = Some 2);
  Lb.note_sent lb 2;
  Lb.note_sent lb 2;
  check_bool "min again" true (Lb.pick lb ~session:2 = Some 0);
  Lb.note_done lb 2;
  Lb.note_done lb 2;
  Lb.mark_dead lb 2;
  check_bool "dead excluded even at 0 outstanding" true
    (Lb.pick lb ~session:3 = Some 0)

(* The referee property for consistent hashing: killing one backend moves
   ONLY the sessions that backend owned; everyone else's mapping is
   untouched (the whole point of the ring vs. `mod n`). *)
let test_ch_stability () =
  let lb = Lb.create Lb.Consistent_hash ~backends:4 in
  let before = Array.init 500 (fun s -> Lb.pick lb ~session:s) in
  (* Sanity: the ring actually spreads sessions across all backends. *)
  let used = Array.make 4 0 in
  Array.iter
    (function Some b -> used.(b) <- used.(b) + 1 | None -> Alcotest.fail "pick")
    before;
  Array.iteri (fun b n -> check_bool (Printf.sprintf "backend %d used" b) true (n > 0)) used;
  Lb.mark_dead lb 2;
  Array.iteri
    (fun s old ->
      let now = Lb.pick lb ~session:s in
      match old with
      | Some 2 ->
        check_bool "dead backend's sessions moved somewhere live" true
          (match now with Some b -> b <> 2 | None -> false)
      | old -> check_bool (Printf.sprintf "session %d stable" s) true (now = old))
    before;
  (* Same-session picks are deterministic. *)
  check_bool "repeatable" true (Lb.pick lb ~session:123 = Lb.pick lb ~session:123)

(* -- session shard affinity across the cluster ------------------------ *)

(* Repeated probes for one session land on the same backend machine AND
   the same worker core, and its hit count climbs — per-core state is
   never shared or migrated. Distinct sessions spread over backends. *)
let test_affinity () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let open Mk_apps in
  let rp1, lat1 = Cluster.probe cl ~session:7 in
  let rp2, _ = Cluster.probe cl ~session:7 in
  let rp3, _ = Cluster.probe cl ~session:7 in
  check_int "status" 200 rp1.Serve.rp_status;
  check_bool "positive latency" true (lat1 > 0);
  check_int "same backend" rp1.Serve.rp_backend rp3.Serve.rp_backend;
  check_int "same core" rp1.Serve.rp_core rp3.Serve.rp_core;
  check_int "hits 1" 1 rp1.Serve.rp_hits;
  check_int "hits 2" 2 rp2.Serve.rp_hits;
  check_int "hits 3" 3 rp3.Serve.rp_hits;
  (* The LB's ring and the cluster's routing agree on placement. *)
  let ring = Lb.create Lb.Consistent_hash ~backends:2 in
  check_bool "placement matches the ring" true
    (Lb.pick ring ~session:7 = Some rp1.Serve.rp_backend);
  (* The owner core is a worker on the backend's session service, and the
     session is recorded on that worker's shard only. *)
  let s = Serve.session (Cluster.backend_serve cl rp1.Serve.rp_backend) in
  check_int "owner core" (Mk.Session.owner_core s ~session:7) rp1.Serve.rp_core;
  check_int "one entry on the owner shard" 1
    (Mk.Session.sessions_on s ~core:rp1.Serve.rp_core);
  check_int "one entry on the whole backend" 1 (Mk.Session.sessions s)

(* Under a closed-loop run with consistent hashing, every user that got
   served has exactly one session entry, on exactly one machine. *)
let test_load_affinity () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let r = Cluster.run_load cl ~users:300 ~think:4_000_000 ~warmup:1_000_000 ~window:8_000_000 in
  check_bool "users started" true (r.Cluster.r_users_started > 0);
  check_int "every request answered"
    (r.Cluster.r_completed_total + r.Cluster.r_shed_total)
    r.Cluster.r_issued_total;
  check_bool "entries never exceed started users" true
    (r.Cluster.r_session_entries <= r.Cluster.r_users_started);
  check_bool "only shed users can be missing" true
    (r.Cluster.r_users_started - r.Cluster.r_session_entries <= r.Cluster.r_shed_total);
  (* Both machines served, and the traffic split sees both levels. *)
  Array.iter (fun (served, _) -> check_bool "backend served" true (served > 0))
    r.Cluster.r_per_backend;
  check_bool "inter-machine frames" true (r.Cluster.r_inter_frames > 0);
  check_bool "intra-machine urpc" true (r.Cluster.r_intra_msgs > 0)

(* -- death of a backend: Ft detection + LB reroute -------------------- *)

(* Kill a core on backend 1's OS and let the *fault subsystem* notice:
   Ft's phi-accrual detectors on the surviving monitors must detect the
   death and mark the core dead OS-wide. The control plane then pulls the
   backend from rotation, and consistent hashing moves exactly the dead
   backend's sessions to the survivor while the rest stay put. *)
let test_backend_death () =
  let cl = Cluster.create (Cluster.default_config ~machines:2 ()) in
  let open Mk_apps in
  (* Pre-death placement for a batch of sessions, via probes. The ids are
     spread out: small consecutive ids can all hash to one side of the
     ring. *)
  let sessions = List.init 20 (fun i -> 1 + (i * 7919)) in
  let before =
    List.map (fun s -> (Cluster.probe cl ~session:s |> fst).Serve.rp_backend) sessions
  in
  check_bool "both backends in use" true
    (List.exists (fun b -> b = 0) before && List.exists (fun b -> b = 1) before);
  let os1 = Cluster.backend_os cl 1 in
  let eng1 = Pdes.engine (Cluster.pdes cl) 2 in
  (* Shard 2 = backend 1. *)
  let ft = ref None in
  Engine.spawn eng1 ~name:"test.ft" (fun () ->
      ft := Some (Mk.Ft.attach ~until:(Engine.now_ () + 1_000_000) os1));
  Engine.schedule_at eng1
    ~at:(Engine.now eng1 + 100_000)
    (fun () -> Mk.Monitor.kill (Mk.Os.monitor os1 ~core:0));
  Pdes.exec (Cluster.pdes cl);
  let ft = Option.get !ft in
  check_bool "death detected by Ft" true (Mk.Ft.detected_at ft ~core:0 <> None);
  check_bool "core marked dead OS-wide" true (not (Mk.Os.alive os1 ~core:0));
  (* Detection feeds the LB: backend 1 leaves rotation. *)
  Cluster.mark_backend_dead cl 1;
  check_bool "lb sees it dead" true (not (Lb.alive (Cluster.lb cl) 1));
  List.iter2
    (fun s b_before ->
      let rp, _ = Cluster.probe cl ~session:s in
      check_int "rerouted to the survivor" 0 rp.Serve.rp_backend;
      check_int "status still 200" 200 rp.Serve.rp_status;
      (* Sessions that already lived on backend 0 keep their state. *)
      if b_before = 0 then
        check_int (Printf.sprintf "session %d kept its hits" s) 2 rp.Serve.rp_hits
      else check_int (Printf.sprintf "session %d restarted" s) 1 rp.Serve.rp_hits)
    sessions before

(* -- determinism referee ---------------------------------------------- *)

(* One sweep cell recomputed on 1/2/4-domain PDES teams: every field of
   the result record (counts, quantiles, traffic, throughput floats) must
   be identical — MK_PDES picks window placement only. *)
let test_determinism () =
  let cell d =
    with_domains d (fun () ->
        let cl =
          Cluster.create
            (Cluster.default_config ~policy:Lb.Least_outstanding ~machines:2 ())
        in
        Cluster.run_load cl ~users:400 ~think:3_000_000 ~warmup:1_000_000
          ~window:6_000_000)
  in
  let serial = cell 1 in
  check_bool "sanity: the cell did real work" true (serial.Cluster.r_completed > 0);
  check_bool "2 domains identical" true (cell 2 = serial);
  check_bool "4 domains identical" true (cell 4 = serial)

(* The same cell's allocation, read through [Pool.total_minor_words] as
   the bench harness does: a 2-domain team must report about what the
   serial run allocates, not its own words plus the worker's twice. *)
let test_minor_words_across_domains () =
  let words d =
    with_domains d (fun () ->
        let w0 = Pool.total_minor_words () in
        let cl =
          Cluster.create
            (Cluster.default_config ~policy:Lb.Least_outstanding ~machines:2 ())
        in
        ignore
          (Cluster.run_load cl ~users:400 ~think:3_000_000 ~warmup:1_000_000
             ~window:6_000_000);
        Pool.total_minor_words () -. w0)
  in
  let w1 = words 1 and w2 = words 2 in
  check_bool
    (Printf.sprintf "1 domain %.0f words, 2 domains %.0f words: within 15%%" w1 w2)
    true
    (Float.abs (w2 -. w1) <= 0.15 *. w1)

let suite =
  ( "cluster",
    [
      tc "lb round robin" test_rr;
      tc "lb least outstanding" test_lo;
      tc "lb consistent hash stability" test_ch_stability;
      tc "session affinity (probes)" test_affinity;
      tc "session affinity (load)" test_load_affinity;
      tc "backend death: Ft detect + reroute" test_backend_death;
      tc "determinism across PDES domains" test_determinism;
      tc "minor words across PDES domains" test_minor_words_across_domains;
    ] )
