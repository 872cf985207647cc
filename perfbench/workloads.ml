(* The four workloads. Each runs in units — one independently set-up
   simulated world per unit — and drives the libraries only through
   their public functions, timing set-up and simulation separately from
   outside. A traced unit additionally records spans, PDES window
   timestamps, coherence counters and a URPC message profile; its
   simulated digest must equal the untraced unit's. *)

open Mk_sim
open Mk_hw
open Mk
open Mk_cluster

type outcome = {
  digest : Check.digest;  (** simulated results, compared across runs *)
  problems : string list;  (** invariant violations *)
  setup : float;  (** host seconds of this unit's set-up *)
  sample : Probe.sample;  (** the timed simulation, set-up excluded *)
  sim : (string * float) list;  (** simulated end-to-end figures *)
  layer : (string * float) list;  (** per-layer counts of this unit *)
}

type t = {
  name : string;
  domains : int;  (** PDES domains of the measured units *)
  warmup_s : float;
      (** host seconds of leading units that are run and checked but
          left out of the timings: the first seconds of a process, and
          of a 2-domain PDES team, run measurably slower *)
  key : seed:int -> int -> string;
      (** unit identity: units with equal keys have equal inputs *)
  run : seed:int -> int -> domains:int -> traced:bool -> outcome;
  sim_summary : outcome list -> (string * float * string) list;
      (** the run's simulated end-to-end figures: name, value, unit *)
}

let fi = float_of_int
let ratio a b = if b = 0 then 0.0 else fi a /. fi b

(* ---- helpers for traced units ---- *)

(* Coherence counter deltas over [f], summed over [machines]. All counts,
   so units and parts add; the miss fraction is derived at the end. *)
let with_coherence ~traced machines f =
  if not traced then (f (), [])
  else begin
    let snap m = Perfcounter.snapshot m.Machine.counters in
    let before = List.map snap machines in
    let r = f () in
    let d = List.map2 (fun m s0 -> Perfcounter.diff (snap m) s0) machines before in
    let sum field = fi (List.fold_left (fun a s -> Array.fold_left ( + ) a (field s)) 0 d) in
    ( r,
      [
        ("coherence.accesses", sum (fun s -> s.Perfcounter.loads) +. sum (fun s -> s.Perfcounter.stores));
        ("coherence.misses", sum (fun s -> s.Perfcounter.dcache_miss));
        ("coherence.c2c", sum (fun s -> s.Perfcounter.c2c_fetch));
        ("coherence.invalidations", sum (fun s -> s.Perfcounter.invalidations));
        ("coherence.link_dwords", fi (List.fold_left (fun a s -> a + Perfcounter.total_dwords s) 0 d));
      ] )
  end

(* Add up per-layer counts (keys in first-seen order). *)
let sum_layers ls =
  List.fold_left
    (fun acc l ->
      List.fold_left
        (fun acc (k, v) ->
          if List.mem_assoc k acc then List.map (fun (k', v') -> if k' = k then (k, v' +. v) else (k', v')) acc
          else acc @ [ (k, v) ])
        acc l)
    [] ls

let comm_total edges = List.fold_left (fun a (_, _, n) -> a + n) 0 edges

(* Window durations (µs) of one traced PDES run, from the host timestamps
   an [add_flush] hook takes at every exchange barrier. *)
let window_hook pdes =
  let stamps = ref [] in
  Pdes.add_flush pdes ~shard:0 (fun () ->
      stamps := Probe.now () :: !stamps;
      Probe.gc_poll ());
  fun () ->
    let rec diffs acc = function
      | a :: (b :: _ as rest) -> diffs ((a -. b) *. 1e6 :: acc) rest
      | _ -> acc
    in
    Probe.window_us := diffs [] !stamps @ !Probe.window_us

(* ---- serving ---- *)

let serve_digest (r : Cluster.result) =
  let open Check in
  [
    ("users_started", int r.r_users_started);
    ("issued_total", int r.r_issued_total);
    ("offered", int r.r_offered);
    ("completed", int r.r_completed);
    ("shed", int r.r_shed);
    ("completed_total", int r.r_completed_total);
    ("shed_total", int r.r_shed_total);
    ("p50", int r.r_p50);
    ("p99", int r.r_p99);
    ("p999", int r.r_p999);
    ("max", int r.r_max);
    ("mean", float r.r_mean);
    ("throughput_rps", float r.r_throughput_rps);
    ("inter_frames", int r.r_inter_frames);
    ("inter_bytes", int r.r_inter_bytes);
    ("wire_batches", int r.r_wire_batches);
    ("wire_msgs", int r.r_wire_msgs);
    ("intra_msgs", int r.r_intra_msgs);
    ("intra_bytes", int r.r_intra_bytes);
    ("session_entries", int r.r_session_entries);
    ( "per_backend",
      String.concat ";"
        (Array.to_list (Array.map (fun (s, e) -> Printf.sprintf "%d/%d" s e) r.r_per_backend)) );
  ]

let serve_checks ~all_users (r : Cluster.result) =
  List.filter_map Fun.id
    [
      (if r.r_completed_total + r.r_shed_total <> r.r_issued_total then
         Some
           (Printf.sprintf "invariant completed_total+shed_total=issued_total: %d+%d<>%d"
              r.r_completed_total r.r_shed_total r.r_issued_total)
       else None);
      (if r.r_wire_msgs <> r.r_inter_frames then
         Some
           (Printf.sprintf "invariant wire_msgs=inter_frames: %d<>%d" r.r_wire_msgs
              r.r_inter_frames)
       else None);
      (if all_users && r.r_users_started <> r.r_users then
         Some
           (Printf.sprintf "invariant users_started=users: %d<>%d" r.r_users_started r.r_users)
       else None);
    ]

(* Cluster.create takes under a millisecond and each call may or may not
   finish a major GC cycle, so it is timed in batches of many calls. *)
let serve_setup_reps = 15
let serve_setup_batch = 20

let serve ~name ~machines ~users ~think ~warmup ~window ~domains ~warmup_s =
  let run ~seed:_ _ ~domains ~traced =
    Pdes.set_domains_override (Some domains);
    let cl, setup =
      Probe.timed_setup ~reps:serve_setup_reps ~batch:serve_setup_batch (fun () ->
          Probe.span "cluster.create" (fun () ->
              Cluster.create (Cluster.default_config ~machines ())))
    in
    let oses = List.init machines (Cluster.backend_os cl) in
    let windows = if traced then Some (window_hook (Cluster.pdes cl)) else None in
    let profiles = if traced then List.map (fun os -> (os, Os.start_comm_profile os)) oses else [] in
    let (r, coh), sample =
      Probe.measure (fun () ->
          with_coherence ~traced (List.map Os.machine oses) (fun () ->
              Probe.span "cluster.run_load" (fun () ->
                  Cluster.run_load cl ~users ~think ~warmup ~window)))
    in
    Option.iter (fun f -> f ()) windows;
    let urpc =
      List.fold_left (fun a (os, p) -> a + comm_total (Os.stop_comm_profile os p)) 0 profiles
    in
    let served = Array.map fst r.Cluster.r_per_backend in
    let max_served = Array.fold_left max 0 served in
    let mean_served = fi (Array.fold_left ( + ) 0 served) /. fi (Array.length served) in
    {
      digest = serve_digest r;
      problems = serve_checks ~all_users:(window + warmup >= think) r;
      setup;
      sample;
      sim =
        [
          ("sim_p50_cycles", fi r.r_p50);
          ("sim_p99_cycles", fi r.r_p99);
          ("sim_latency_samples", fi r.r_completed);
          ("sim_goodput_rps", r.r_throughput_rps);
          ("sim_shed_frac", ratio r.r_shed_total r.r_issued_total);
        ];
      layer =
        [
          ("session.intra_msgs_per_req", ratio r.r_intra_msgs r.r_issued_total);
          ("machine_link.frames", fi r.r_inter_frames);
          ("machine_link.frames_per_batch", ratio r.r_wire_msgs r.r_wire_batches);
          ("lb.forwarded", fi (Cluster.forwarded cl));
          ("lb.rejected", fi (Cluster.lb_rejected cl));
          ( "serve.backend_imbalance",
            if mean_served = 0.0 then 0.0 else fi max_served /. mean_served );
        ]
        @ (if traced then [ ("urpc.msgs", fi urpc) ] else [])
        @ coh;
    }
  in
  let sim_summary outs =
    let mean k = Probe.mean (List.map (fun o -> List.assoc k o.sim) outs) in
    [
      ("sim_p50_cycles", mean "sim_p50_cycles", "cycles");
      ("sim_p99_cycles", mean "sim_p99_cycles", "cycles");
      ("sim_latency_samples", mean "sim_latency_samples", "count");
      ("sim_goodput_rps", mean "sim_goodput_rps", "1/s");
      ("sim_shed_frac", mean "sim_shed_frac", "ratio");
    ]
  in
  { name; domains; warmup_s; key = (fun ~seed:_ _ -> name); run; sim_summary }

(* ---- the OS at 1024 cores ---- *)

let os_cores = 1024
let os_rounds = 4

(* a 1024-core boot takes ~50 ms: fewer repetitions than the default *)
let os_setup_reps = 3
let shoot_warmup = 2
let vaddr = 0x600000

let os_families =
  [
    ("tree", fun () -> Platform.synthetic_tree ~packages:(os_cores / 4) ~cores_per_package:4);
    ("mesh", fun () -> Platform.synthetic_mesh ~packages:(os_cores / 4) ~cores_per_package:4);
  ]

let cycles_list l = String.concat "," (List.map string_of_int l)

(* One family: boot, then unmap rounds (Os.protect) and 2PC rounds
   (Monitor.agree) on that OS; then NUMA-multicast shootdown rounds on a
   bare machine. *)
let os_family ~traced (fam, plat_of) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let cores = List.init os_cores Fun.id in
  let os, boot_s =
    Probe.timed_setup ~reps:os_setup_reps (fun () ->
        Probe.span "os.boot" (fun () ->
            Os.boot ~measure_latencies:Os.No_measure (plat_of ())))
  in
  let prof = if traced then Some (Os.start_comm_profile os) else None in
  let timed_call name f =
    Probe.span name (fun () ->
        let t0 = Engine.now_ () in
        let r = f () in
        (r, Engine.now_ () - t0))
  in
  let (unmap, coh_os), s_unmap =
    Probe.measure (fun () ->
        with_coherence ~traced [ Os.machine os ] (fun () ->
            Os.run os (fun () ->
                let dom = Os.spawn_domain os ~name:"perfbench" ~cores in
                (match Os.alloc_map_frame os dom ~core:0 ~vaddr ~bytes:Types.page_size with
                | Ok _ -> ()
                | Error e -> problem "%s alloc_map_frame: %s" fam (Types.error_to_string e));
                List.init os_rounds (fun _ ->
                    List.iter (fun c -> ignore (Vspace.touch (Dom.vspace dom) ~core:c ~vaddr)) cores;
                    let res, lat =
                      timed_call "vspace.protect" (fun () ->
                          Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:false)
                    in
                    (match res with
                    | Ok () -> ()
                    | Error e -> problem "%s protect: %s" fam (Types.error_to_string e));
                    (match Os.protect os dom ~core:0 ~vaddr ~bytes:Types.page_size ~writable:true with
                    | Ok () -> ()
                    | Error e -> problem "%s re-protect: %s" fam (Types.error_to_string e));
                    lat))))
  in
  let (twopc, coh_2pc), s_2pc =
    Probe.measure (fun () ->
        with_coherence ~traced [ Os.machine os ] (fun () ->
            Os.run os (fun () ->
                let mon = Os.monitor os ~core:0 in
                let plan = Os.default_plan os ~root:0 ~members:cores in
                List.init os_rounds (fun i ->
                    let ok, lat =
                      timed_call "monitor.agree" (fun () ->
                          Monitor.agree mon ~plan ~op:Monitor.Ag_noop)
                    in
                    if not ok then problem "%s agree round %d returned false" fam i;
                    lat))))
  in
  let urpc_os = match prof with Some p -> comm_total (Os.stop_comm_profile os p) | None -> 0 in
  let (m, h), shoot_setup =
    Probe.timed_setup ~reps:os_setup_reps (fun () ->
        Probe.span "shootdown.setup" (fun () ->
            let m = Machine.create (plat_of ()) in
            (m, Shootdown.setup m ~proto:Routing.Numa_multicast ~root:0 ~cores ())))
  in
  let shoot_prof = Trace.Comm.create () in
  if traced then m.Machine.comm <- Some shoot_prof;
  let (shoot, coh_shoot), s_shoot =
    Probe.measure (fun () ->
        with_coherence ~traced [ m ] (fun () ->
            let lats = ref [] in
            Engine.spawn m.Machine.eng ~name:"perfbench.shootdown" (fun () ->
                for _ = 1 to shoot_warmup do
                  ignore (Shootdown.round h : int)
                done;
                lats :=
                  List.init os_rounds (fun _ -> snd (timed_call "shootdown.round" (fun () -> Shootdown.round h))));
            Machine.run m;
            !lats))
  in
  m.Machine.comm <- None;
  if List.length shoot <> os_rounds then problem "%s shootdown: %d of %d rounds" fam (List.length shoot) os_rounds;
  let mean l = Probe.mean (List.map fi l) in
  let coh = sum_layers [ coh_os; coh_2pc; coh_shoot ] in
  {
    digest =
      [
        (fam ^ ".unmap", cycles_list unmap);
        (fam ^ ".2pc", cycles_list twopc);
        (fam ^ ".shootdown", cycles_list shoot);
      ];
    problems = List.rev !problems;
    setup = boot_s +. shoot_setup;
    sample = Probe.add s_unmap (Probe.add s_2pc s_shoot);
    sim =
      [
        ("sim_unmap_cycles." ^ fam, mean unmap);
        ("sim_2pc_cycles." ^ fam, mean twopc);
        ("sim_shootdown_cycles." ^ fam, mean shoot);
      ];
    layer =
      (if traced then [ ("urpc.msgs", fi (urpc_os + comm_total (Trace.Comm.snapshot shoot_prof))) ]
       else [])
      @ coh;
  }

let os_1024 =
  let run ~seed:_ _ ~domains:_ ~traced =
    let fams = List.map (os_family ~traced) os_families in
    let all f = List.concat_map f fams in
    {
      digest = all (fun o -> o.digest);
      problems = all (fun o -> o.problems);
      setup = List.fold_left (fun a o -> a +. o.setup) 0.0 fams;
      sample = List.fold_left (fun a o -> Probe.add a o.sample) Probe.zero fams;
      sim = all (fun o -> o.sim);
      layer = sum_layers (List.map (fun o -> o.layer) fams);
    }
  in
  let sim_summary outs =
    match outs with
    | [] -> []
    | o :: _ -> List.map (fun (k, v) -> (k, v, "cycles")) o.sim
  in
  { name = "os_1024"; domains = 1; warmup_s = 2.0; key = (fun ~seed:_ _ -> "os_1024"); run; sim_summary }

(* ---- chaos over PDES ---- *)

(* The seed set of a run: seed s draws plans s*1000, s*1000+1, ... *)
let chaos_seed ~seed i = (seed * 1000) + i

let chaos_pdes =
  let run ~seed i ~domains ~traced:_ =
    let s = chaos_seed ~seed i in
    Pdes.set_domains_override (Some domains);
    let r, sample =
      Probe.measure (fun () -> Probe.span "chaos.run_seed" (fun () -> Mk_benches.Chaos.run_seed s))
    in
    let open Mk_benches.Chaos in
    let open Check in
    {
      digest =
        [
          ("victims", cycles_list r.sr_victims);
          ("detect_worst", int r.sr_detect_worst);
          ("recover_worst", int r.sr_recover_worst);
          ("ok", int r.sr_ok);
          ("failed", int r.sr_failed);
          ("failovers", int r.sr_failovers);
          ("respawns", int r.sr_respawns);
          ("urpc_dropped", int r.sr_urpc_dropped);
          ("urpc_duplicated", int r.sr_urpc_duplicated);
          ("urpc_delayed", int r.sr_urpc_delayed);
        ];
      problems = [];
      (* run_seed boots inside its own timing, so set-up is not
         separable here: wall_s includes the boot. *)
      setup = 0.0;
      sample;
      sim =
        [
          ("detect", fi r.sr_detect_worst);
          ("recover", fi r.sr_recover_worst);
          ("ok", fi r.sr_ok);
          ("failed", fi r.sr_failed);
        ];
      layer =
        [
          ("injector.urpc_dropped", fi r.sr_urpc_dropped);
          ("injector.urpc_duplicated", fi r.sr_urpc_duplicated);
          ("injector.urpc_delayed", fi r.sr_urpc_delayed);
          ("ft.failovers", fi r.sr_failovers);
        ];
    }
  in
  let sim_summary outs =
    let col k = List.map (fun o -> List.assoc k o.sim) outs in
    let total k = List.fold_left ( +. ) 0.0 (col k) in
    let calls = total "ok" +. total "failed" in
    [
      ("sim_detect_cycles", List.fold_left max 0.0 (col "detect"), "cycles");
      ("sim_recover_cycles", List.fold_left max 0.0 (col "recover"), "cycles");
      ("sim_unavailable_frac", (if calls = 0.0 then 0.0 else total "failed" /. calls), "ratio");
    ]
  in
  {
    name = "chaos_pdes";
    domains = 2;
    warmup_s = 2.0;
    key = (fun ~seed i -> Printf.sprintf "seed%d" (chaos_seed ~seed i));
    run;
    sim_summary;
  }

(* ---- the table ---- *)

let all =
  [
    (* the cluster bench's million cell: 1M users, think ~0.9 s *)
    serve ~name:"serve_million" ~machines:4 ~users:1_000_000 ~think:2_500_000_000
      ~warmup:250_000_000 ~window:2_500_000_000 ~domains:1 ~warmup_s:0.0;
    (* the sweep's 8-machine heaviest cell, 128k users, ~5x saturation *)
    serve ~name:"serve_overload" ~machines:8 ~users:128_000 ~think:25_000_000
      ~warmup:6_000_000 ~window:20_000_000 ~domains:2 ~warmup_s:3.0;
    os_1024;
    chaos_pdes;
  ]

let find name = List.find_opt (fun w -> w.name = name) all
