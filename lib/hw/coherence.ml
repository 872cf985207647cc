open Mk_sim

type line_state = Invalid | Shared of int list | Modified of int

(* Internal line state is a {!Dir_line} record: a small-int tag plus an
   inline sharer set, so there is no list allocation or O(sharers) scan on
   the access path, and no host allocation at all once the line exists.
   The public {!line_state} view converts on demand (tests only). *)
type line = Dir_line.t

let tag_invalid = Dir_line.tag_invalid
let tag_shared = Dir_line.tag_shared
let tag_modified = Dir_line.tag_modified

(* Placeholder for the line table's empty value slots; never returned. *)
let dummy_line = Dir_line.create ~home:0

(* Cross-shard routing for a PDES-sharded run: lines pinned to a package
   another shard owns are serviced by that shard's directory, reached via
   timestamped messages rather than a direct call (see {!Pdes}). Both
   callbacks run outside task context and must not perform task effects. *)
type remote_route = {
  rr_is_remote : int -> bool;  (* package -> owned by another shard? *)
  rr_route :
    core:int -> line:int -> home:int -> write:bool -> wake:Engine.waker -> unit;
}

type t = {
  plat : Platform.t;
  counters : Perfcounter.t;
  lines : line Inttbl.t;
  (* Optional finite capacity per core (in lines): evictions write dirty
     victims back to their home and drop clean ones. None = infinite. *)
  lrus : Lru.t option array;
  (* Home-node pinning as sorted, non-overlapping [first, last] -> node
     ranges: the bump allocator pins whole regions, so per-line entries
     would be wastefully huge. Stored as parallel int arrays so the binary
     search in [pinned_home] touches flat memory, and adjacent
     same-node ranges are merged on insert — the URPC mesh alone would
     otherwise pin hundreds of thousands of one-line ranges. *)
  mutable range_first : int array;
  mutable range_last : int array;
  mutable range_node : int array;
  mutable n_ranges : int;
  (* Computed home regions: [first, last] ranges whose node is a function
     of the line, for arenas with a regular interleaved layout (the large
     monitor-mesh arena pins n*(n-1) channel buffers in O(1) state this
     way). Checked after the explicit ranges miss; the list stays tiny. *)
  mutable regions : (int * int * (int -> int)) list;
  dirs : Resource.t array;  (* one directory/home-node resource per package *)
  ports : Resource.t array;  (* per-core cache port: serializes c2c sourcing *)
  n_cores : int;
  (* -- precomputed hot-path lookups (everything below is derivable from
        [plat]; hoisted here because the access path runs per event) -- *)
  pkg : int array;  (* core -> package *)
  sgrp : int array;  (* core -> LLC share group *)
  (* Cross-group transfer and DRAM latencies depend only on the two
     packages involved, so the tables are package-indexed — and dense only
     up to [dense_pkg_max] packages. Above that ([| |] here) latencies are
     derived per access from the closed-form topology distance, so a
     1024-core machine carries no quadratic latency tables at all. *)
  xfer_pkg : int array array;  (* (src pkg).(dst pkg) -> transfer latency *)
  dram_lat : int array array;  (* (src pkg).(home pkg) -> DRAM fetch latency *)
  (* (src pkg).(dst pkg) -> dword counters of the directed links en route,
     pre-resolved so charging traffic is a few stores, not a path walk.
     Dense with the tables above; larger machines resolve paths into
     [path_cache] on first use, so the footprint follows the pairs that
     actually communicate instead of all n². *)
  path_refs : int ref array array array;
  path_cache : int ref array Inttbl.t;
  probe_refs : int ref array;  (* every link, both directions *)
  (* Fault injector consulted for link degradation; [Injector.none] (and
     one armed-flag read per transaction) on the zero-fault path. *)
  mutable inj : Mk_fault.Injector.t;
  (* PDES cross-shard routing; [None] (one field read per blocking access)
     outside sharded runs. *)
  mutable remote : remote_route option;
  (* -- access-outcome scratch (see the comment above [prepare_load]) -- *)
  mutable o_kind : int;  (* 0 = hit, 1 = local, 2 = fabric transaction *)
  mutable o_lat : int;
  mutable o_home : int;
  mutable o_src_port : int;  (* sourcing core's cache port; -1 = none *)
  mutable o_line : line;  (* per-line storm slot; [dummy_line] = none *)
}

(* Dword accounting per the HT convention the paper uses for Table 4:
   command/probe packets are 2 dwords, a cache line of data is 16 dwords
   plus a 2-dword header. *)
let cmd_dwords = 2
let data_dwords = 18
let store_post_cost = 60
let port_occupancy = 70

(* Largest package count that still precomputes the dense package-pair
   latency/path tables (every paper platform and the 128-core scaling
   machines sit far below it). Beyond this, the 256+-package sweeps,
   latencies come from the closed-form topology per access and link-path
   counters are cached per communicating pair. *)
let dense_pkg_max = 64

let create ?cache_lines_per_core plat counters =
  let n = Platform.n_cores plat in
  let npkg = plat.Platform.n_packages in
  let topo = plat.Platform.topo in
  let pkg = Array.init n (fun c -> Platform.package_of plat c) in
  let sgrp = Array.init n (fun c -> Platform.share_group_of plat c) in
  let dense = npkg <= dense_pkg_max in
  let xfer_pkg =
    if not dense then [||]
    else
      Array.init npkg (fun src ->
          Array.init npkg (fun dst ->
              plat.Platform.cc_base
              + (2 * plat.Platform.hop_one_way * Topology.hops topo src dst)))
  in
  let dram_lat =
    if not dense then [||]
    else
      Array.init npkg (fun src ->
          Array.init npkg (fun home ->
              plat.Platform.dram
              + (2 * plat.Platform.hop_one_way * Topology.hops topo src home)))
  in
  let path_refs =
    if not dense then [||]
    else
      Array.init npkg (fun src ->
          Array.init npkg (fun dst ->
              Topology.path_directed topo src dst
              |> List.map (Perfcounter.link_counter counters)
              |> Array.of_list))
  in
  let probe_refs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (a, b) ->
              [| Perfcounter.link_counter counters (a, b);
                 Perfcounter.link_counter counters (b, a) |])
            (Topology.links topo)))
  in
  {
    plat;
    counters;
    lines = Inttbl.create ~dummy:dummy_line ();
    lrus =
      (match cache_lines_per_core with
       | None -> Array.make n None
       | Some cap -> Array.init n (fun _ -> Some (Lru.create ~capacity:cap)));
    range_first = Array.make 64 0;
    range_last = Array.make 64 0;
    range_node = Array.make 64 0;
    n_ranges = 0;
    regions = [];
    dirs =
      Array.init npkg (fun i -> Resource.create ~name:(Printf.sprintf "dir%d" i) ());
    ports =
      Array.init n (fun i -> Resource.create ~name:(Printf.sprintf "cacheport%d" i) ());
    n_cores = n;
    pkg;
    sgrp;
    xfer_pkg;
    dram_lat;
    path_refs;
    path_cache = Inttbl.create ~initial_bits:8 ~dummy:[||] ();
    probe_refs;
    inj = Mk_fault.Injector.none;
    remote = None;
    o_kind = 0;
    o_lat = 0;
    o_home = 0;
    o_src_port = -1;
    o_line = dummy_line;
  }

let set_fault t inj = t.inj <- inj

let set_remote_home t ~is_remote ~route =
  t.remote <- Some { rr_is_remote = is_remote; rr_route = route }

(* Extra transfer latency from an injected degraded/partitioned link
   between two packages; 0 unless a fault plan is armed. *)
let link_extra t a b =
  if Mk_fault.Injector.armed t.inj then
    Mk_fault.Injector.link_penalty t.inj ~src_pkg:a ~dst_pkg:b
  else 0

let platform t = t.plat
let line_of_addr t addr = addr / t.plat.Platform.cacheline

let set_home_range t ~first_line ~last_line ~node =
  (* The allocator hands out monotonically increasing addresses, so ranges
     usually arrive sorted and append at the end; pins into the detached
     shared arena ({!Mk.Shard.alloc_shared} mirrors high-address ranges
     onto every shard machine) can arrive before later low-address brk
     pins, so out-of-order ranges fall back to a sorted insertion that
     keeps the binary search valid. Overlap is rejected either way. *)
  let n = t.n_ranges in
  let idx =
    if n = 0 || first_line > t.range_first.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.range_first.(mid) < first_line then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  if
    (idx > 0 && t.range_last.(idx - 1) >= first_line)
    || (idx < n && t.range_first.(idx) <= last_line)
  then invalid_arg "Coherence.set_home_range: overlapping ranges";
  if idx > 0 && t.range_node.(idx - 1) = node && t.range_last.(idx - 1) = first_line - 1
  then t.range_last.(idx - 1) <- last_line
  else begin
    if n = Array.length t.range_first then begin
      let grow a =
        let bigger = Array.make (n * 2) 0 in
        Array.blit a 0 bigger 0 n;
        bigger
      in
      t.range_first <- grow t.range_first;
      t.range_last <- grow t.range_last;
      t.range_node <- grow t.range_node
    end;
    if idx < n then begin
      Array.blit t.range_first idx t.range_first (idx + 1) (n - idx);
      Array.blit t.range_last idx t.range_last (idx + 1) (n - idx);
      Array.blit t.range_node idx t.range_node (idx + 1) (n - idx)
    end;
    t.range_first.(idx) <- first_line;
    t.range_last.(idx) <- last_line;
    t.range_node.(idx) <- node;
    t.n_ranges <- n + 1
  end

let set_home t ~line ~node = set_home_range t ~first_line:line ~last_line:line ~node

let set_home_region t ~first_line ~last_line ~node_of =
  t.regions <- (first_line, last_line, node_of) :: t.regions

(* The pinned home node of a line, or -1 when it is unpinned. An int, not
   an option, and top-level searches rather than local closures: it runs on
   every first touch and on every sharded blocking access. *)
let rec range_search t line lo hi =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    if line < t.range_first.(mid) then range_search t line lo (mid - 1)
    else if line > t.range_last.(mid) then range_search t line (mid + 1) hi
    else t.range_node.(mid)
  end

let rec region_search line = function
  | [] -> -1
  | (f, l, fn) :: rest -> if line >= f && line <= l then fn line else region_search line rest

let pinned_home t line =
  let node = range_search t line 0 (t.n_ranges - 1) in
  if node >= 0 then node else region_search line t.regions

let home_of t ~line =
  match Inttbl.find_opt t.lines line with
  | Some l -> Some l.home
  | None ->
    let node = pinned_home t line in
    if node >= 0 then Some node else None

let get_line t ~core line =
  let l = Inttbl.find_or t.lines line dummy_line in
  if l != dummy_line then l
  else begin
    let node = pinned_home t line in
    let l = Dir_line.create ~home:(if node >= 0 then node else t.pkg.(core)) in
    Inttbl.set t.lines line l;
    l
  end

(* Cross-share-group transfer latency between two cores. Every caller has
   already established the cores are in different share groups, so the
   latency depends only on their packages. *)
let xfer_of t src dst =
  let ps = t.pkg.(src) and pd = t.pkg.(dst) in
  if t.xfer_pkg != [||] then t.xfer_pkg.(ps).(pd)
  else
    t.plat.Platform.cc_base
    + (2 * t.plat.Platform.hop_one_way * Topology.hops t.plat.Platform.topo ps pd)

let dram_of t src_pkg home =
  if t.dram_lat != [||] then t.dram_lat.(src_pkg).(home)
  else
    t.plat.Platform.dram
    + (2 * t.plat.Platform.hop_one_way * Topology.hops t.plat.Platform.topo src_pkg home)

(* Pre-resolved directed link counters en route between two (distinct)
   packages; above [dense_pkg_max], resolved once per communicating pair
   into [path_cache]. A valid path between distinct packages is never
   empty, so [[||]] doubles as the table's absent sentinel. *)
let path_refs_of t src_pkg dst_pkg =
  if t.path_refs != [||] then t.path_refs.(src_pkg).(dst_pkg)
  else begin
    let key = (src_pkg * t.plat.Platform.n_packages) + dst_pkg in
    let refs = Inttbl.find_or t.path_cache key [||] in
    if refs != [||] then refs
    else begin
      let refs =
        Topology.path_directed t.plat.Platform.topo src_pkg dst_pkg
        |> List.map (Perfcounter.link_counter t.counters)
        |> Array.of_list
      in
      Inttbl.set t.path_cache key refs;
      refs
    end
  end

(* Charge dword traffic along the route between two packages, keeping the
   direction of travel (Table 4 reports per-direction link utilization). *)
let charge_path t src_pkg dst_pkg dwords =
  if src_pkg <> dst_pkg then begin
    let refs = path_refs_of t src_pkg dst_pkg in
    for i = 0 to Array.length refs - 1 do
      let r = Array.unsafe_get refs i in
      r := !r + dwords
    done
  end

(* Broadcast probe traffic: HT probes fan out on every link, both ways. *)
let charge_probe_broadcast t =
  let refs = t.probe_refs in
  for i = 0 to Array.length refs - 1 do
    let r = Array.unsafe_get refs i in
    r := !r + cmd_dwords
  done

let is_local_group t a b = t.sgrp.(a) = t.sgrp.(b)

(* Capacity: a core dropping a line (eviction or remote invalidation). *)
let forget t ~core lid =
  match t.lrus.(core) with Some lru -> Lru.remove lru lid | None -> ()

let evict t ~core victim_lid =
  let v = Inttbl.find_or t.lines victim_lid dummy_line in
  if v != dummy_line then begin
    if v.tag = tag_modified && v.excl = core then begin
      (* Dirty eviction: write the line back to its home. *)
      charge_path t t.pkg.(core) v.home data_dwords;
      v.tag <- tag_invalid;
      v.owner <- -1
    end
    else if v.tag = tag_shared then begin
      Dir_line.remove_sharer ~n:t.n_cores v core;
      if Dir_line.no_sharers v then v.tag <- tag_invalid;
      if v.owner = core then v.owner <- -1
    end
  end

(* Record that [core] now caches [lid]; handle any capacity eviction. *)
let note_presence t ~core lid =
  match t.lrus.(core) with
  | None -> ()
  | Some lru ->
    (match Lru.touch lru lid with
     | Some victim when victim <> lid -> evict t ~core victim
     | Some _ | None -> ())

(* What a memory access must do, decided from the line state. State
   transitions, counters and traffic happen in [prepare_load]/
   [prepare_store]; how the latency is realized (blocking wait vs
   posted/async delay) is up to the caller via [realize_*].

   The decision lives in the [o_*] scratch fields of [t] rather than an
   allocated variant: a prepare/realize pair runs back-to-back on every
   simulated load and store, and boxing the latency/home/port/line per
   access was a measurable slice of the event allocation budget. The only
   code between a prepare and its realize is straight-line (no scheduling
   point), except inside [realize_posted] itself, which copies the fields
   to locals before flushing. Kinds: *)
let k_hit = 0
let k_local = 1  (* within a share group: no fabric involvement *)
let k_txn = 2  (* fabric transaction; [o_line] set = per-line storm slot *)

let set_hit t = t.o_kind <- k_hit

let set_local t lat =
  t.o_kind <- k_local;
  t.o_lat <- lat

let set_txn t ~home ~lat ~src_port ~ln =
  t.o_kind <- k_txn;
  t.o_lat <- lat;
  t.o_home <- home;
  t.o_src_port <- src_port;
  t.o_line <- ln

(* A posted access moves line state at the caller's *virtual* time while
   the engine clock may lag by the banked charge. Posted accesses only
   touch protocol-ordered lines (URPC channel slots, barrier sense words):
   a single writer, readers gated on a later visibility event — so a small
   bank (fixed software-path costs, hit runs) cannot race anything. Two
   exceptions pay the bank up front:
   - a large one (a compute quantum banked by [Resource.acquire]) could
     move line state millions of cycles early;
   - an armed fault injector breaks the slot discipline the argument rests
     on (a duplicated message is read after its flow credit was returned,
     so sender and receiver can race one slot line), so chaos runs flush
     every posted access to stay bit-identical with the unfused referee. *)
let max_deferred_at_access = 512

let access_flush t =
  if
    Engine.pending_charge () > max_deferred_at_access
    || Mk_fault.Injector.armed t.inj
  then Engine.flush_charge ()

let prepare_load t ~core addr =
  let p = t.plat in
  let lid = line_of_addr t addr in
  let l = get_line t ~core lid in
  Perfcounter.count_load t.counters ~core;
  Perfcounter.touch_line t.counters ~core ~line:lid;
  note_presence t ~core lid;
  if l.tag = tag_modified then begin
    let o = l.excl in
    if o = core then set_hit t
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_c2c t.counters ~core;
      l.tag <- tag_shared;
      Dir_line.clear_sharers l;
      Dir_line.add_sharer ~n:t.n_cores l core;
      Dir_line.add_sharer ~n:t.n_cores l o;
      if is_local_group t core o then set_local t p.Platform.shared_cache_fetch
      else begin
        let lat = xfer_of t o core + link_extra t t.pkg.(o) t.pkg.(core) in
        charge_path t t.pkg.(core) l.home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        set_txn t ~home:l.home ~lat ~src_port:o ~ln:l
      end
    end
  end
  else if l.tag = tag_shared then begin
    if Dir_line.mem_sharer ~n:t.n_cores l core then set_hit t
    else begin
      Perfcounter.count_miss t.counters ~core;
      Dir_line.add_sharer ~n:t.n_cores l core;
      let o = l.owner in
      if o >= 0 && o <> core && not (is_local_group t core o) then begin
        (* Owned line: the last writer's cache sources the data. *)
        Perfcounter.count_c2c t.counters ~core;
        let lat = xfer_of t o core + link_extra t t.pkg.(o) t.pkg.(core) in
        charge_path t t.pkg.(core) l.home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        set_txn t ~home:l.home ~lat ~src_port:o ~ln:l
      end
      else if o >= 0 && o <> core then begin
        Perfcounter.count_c2c t.counters ~core;
        set_local t p.Platform.shared_cache_fetch
      end
      else begin
        Perfcounter.count_dram t.counters ~core;
        let lat = dram_of t t.pkg.(core) l.home + link_extra t t.pkg.(core) l.home in
        charge_path t t.pkg.(core) l.home (cmd_dwords + data_dwords);
        set_txn t ~home:l.home ~lat ~src_port:(-1) ~ln:dummy_line
      end
    end
  end
  else begin
    Perfcounter.count_miss t.counters ~core;
    Perfcounter.count_dram t.counters ~core;
    l.tag <- tag_shared;
    Dir_line.clear_sharers l;
    Dir_line.add_sharer ~n:t.n_cores l core;
    let lat = dram_of t t.pkg.(core) l.home + link_extra t t.pkg.(core) l.home in
    charge_path t t.pkg.(core) l.home (cmd_dwords + data_dwords);
    set_txn t ~home:l.home ~lat ~src_port:(-1) ~ln:dummy_line
  end

(* A store by [core] drops sharer [c]'s copy: the farthest-transfer bound
   so far, [far], grows by [c]'s distance unless [c] is the writer or in
   its share group. *)
let invalidate_sharer t ~core lid c far =
  if c = core then far
  else begin
    forget t ~core:c lid;
    if is_local_group t core c then far else Int.max far (xfer_of t c core)
  end

let prepare_store t ~core addr =
  let p = t.plat in
  let lid = line_of_addr t addr in
  let l = get_line t ~core lid in
  Perfcounter.count_store t.counters ~core;
  Perfcounter.touch_line t.counters ~core ~line:lid;
  note_presence t ~core lid;
  l.owner <- core;
  if l.tag = tag_modified then begin
    let o = l.excl in
    if o = core then set_hit t
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_c2c t.counters ~core;
      forget t ~core:o lid;
      l.excl <- core;
      if is_local_group t core o then set_local t p.Platform.shared_cache_fetch
      else begin
        let lat = xfer_of t o core + link_extra t t.pkg.(o) t.pkg.(core) in
        charge_path t t.pkg.(core) l.home cmd_dwords;
        charge_path t t.pkg.(o) t.pkg.(core) data_dwords;
        (* Migratory write: ownership moves between different cores, so
           successive transfers pipeline (no per-line storm slot). *)
        set_txn t ~home:l.home ~lat ~src_port:o ~ln:dummy_line
      end
    end
  end
  else if l.tag = tag_shared then begin
    if Dir_line.mem_sharer ~n:t.n_cores l core && Dir_line.n_sharers l = 1 then begin
      (* Silent E->M upgrade. *)
      l.tag <- tag_modified;
      l.excl <- core;
      set_hit t
    end
    else begin
      Perfcounter.count_miss t.counters ~core;
      Perfcounter.count_inval t.counters ~core;
      (* Single pass over the sharers, ascending: drop each remote copy
         and track the farthest one (invalidation latency is bounded by
         it). A loop rather than an iterator, so no closure is built. *)
      let far = ref 0 and c = ref (Dir_line.next_sharer l 0) in
      while !c >= 0 do
        far := invalidate_sharer t ~core lid !c !far;
        c := Dir_line.next_sharer l (!c + 1)
      done;
      let far = !far in
      l.tag <- tag_modified;
      l.excl <- core;
      if far = 0 then set_local t p.Platform.shared_cache_fetch
      else begin
        (* Invalidation probes broadcast across the fabric; latency bounded
           by the farthest sharer. *)
        charge_probe_broadcast t;
        set_txn t ~home:l.home ~lat:far ~src_port:(-1) ~ln:dummy_line
      end
    end
  end
  else begin
    Perfcounter.count_miss t.counters ~core;
    Perfcounter.count_dram t.counters ~core;
    l.tag <- tag_modified;
    l.excl <- core;
    let lat = dram_of t t.pkg.(core) l.home + link_extra t t.pkg.(core) l.home in
    charge_path t t.pkg.(core) l.home (cmd_dwords + data_dwords);
    set_txn t ~home:l.home ~lat ~src_port:(-1) ~ln:dummy_line
  end

(* Realize an outcome without blocking: reserve the serialized resources
   and return the delay (relative to now) until the access completes.
   The home directory is occupied for its fixed service time; the sourcing
   cache's port is occupied for the whole transfer (a second fetch from the
   same cache cannot start until the first response has left), which is
   what serializes reader storms on one line. Both overlap the transfer
   latency itself. *)
let realize_txn_at t ~now ~home ~lat ~src_port ~ln =
  let occ = t.plat.Platform.dir_occupancy in
  let dir_done = Resource.reserve_at t.dirs.(home) ~now occ in
  let port_done =
    if src_port >= 0 then Resource.reserve_at t.ports.(src_port) ~now port_occupancy
    else dir_done
  in
  if ln != dummy_line then begin
    (* Owner-sourced transfer: readers of one dirty line are serviced
       one at a time; each service slot spans directory lookup, port
       turnaround and the transfer itself. An uncontended access still
       completes in [lat]. *)
    let slot_start = Int.max now ln.line_busy_until in
    ln.line_busy_until <- slot_start + occ + port_occupancy + lat;
    let data_at = slot_start + lat in
    Int.max (Int.max lat (Int.max dir_done port_done - now)) (data_at - now)
  end
  else Int.max lat (Int.max dir_done port_done - now)

let realize_posted t =
  let p = t.plat in
  if t.o_kind = k_hit then p.Platform.l1_hit
  else if t.o_kind = k_local then t.o_lat
  else begin
    (* Copy the scratch outcome to locals BEFORE flushing: the flush is a
       scheduling point that can run other tasks, and their accesses
       overwrite the shared scratch fields. *)
    let home = t.o_home and lat = t.o_lat in
    let src_port = t.o_src_port and ln = t.o_line in
    (* A transaction serializes on shared resources (directory, source
       port, per-line storm slot): those queues must be joined at the true
       simulated time and in true event order, so pay any banked charge
       before reserving. Hit/Local touch nothing shared and skip this. *)
    Engine.flush_charge ();
    realize_txn_at t ~now:(Engine.now_ ()) ~home ~lat ~src_port ~ln
  end

(* Effect-free service of a remote core's request at this (home) shard:
   prepare + realize with the caller supplying the shard engine's current
   time. Runs from a delivered cross-shard message thunk, outside any task
   context, so it must not flush or wait — there is no bank to flush and
   the returned latency travels back inside the reply message timestamp. *)
let remote_service t ~now ~core ~line ~write =
  let addr = line * t.plat.Platform.cacheline in
  if write then prepare_store t ~core addr else prepare_load t ~core addr;
  if t.o_kind = k_hit then t.plat.Platform.l1_hit
  else if t.o_kind = k_local then t.o_lat
  else
    realize_txn_at t ~now ~home:t.o_home ~lat:t.o_lat ~src_port:t.o_src_port
      ~ln:t.o_line

(* Blocking realization. A blocking access is an *interaction point*, not a
   pure delay: callers use its completion to order their own shared-state
   updates against other cores (spinlock words, barrier arrival counters,
   work-queue heads), so the whole access — including a Hit — must happen
   at the true simulated time. Banking a Hit here deadlocked the futex
   barrier: the sleeper's arrival slid ahead of the waker's scan. *)
let realize_blocking t =
  if t.o_kind = k_hit then Engine.wait t.plat.Platform.l1_hit
  else if t.o_kind = k_local then Engine.wait t.o_lat
  else Engine.wait (realize_posted t)

(* A blocking access whose line is pinned to a package another shard owns:
   park the task and hand (line, home, waker) to the route callback, which
   ships the request across the shard boundary and eventually invokes the
   waker at the reply's arrival time. Only [load]/[store] support remote
   homes — the posted/async/banked variants rely on same-shard visibility
   arguments that do not survive a shard boundary, and the shard layer
   keeps their lines (URPC rings, private heaps) home-local by
   construction. *)
let remote_blocking rr ~core ~line ~home ~write =
  Engine.flush_charge ();
  Engine.suspend (fun wake -> rr.rr_route ~core ~line ~home ~write ~wake)

let load t ~core addr =
  Engine.flush_charge ();
  (match t.remote with
  | Some rr -> (
    let lid = line_of_addr t addr in
    let home = pinned_home t lid in
    if home >= 0 && rr.rr_is_remote home then
      remote_blocking rr ~core ~line:lid ~home ~write:false
    else begin
      prepare_load t ~core addr;
      realize_blocking t
    end)
  | None ->
    prepare_load t ~core addr;
    realize_blocking t)

let load_async t ~core addr =
  access_flush t;
  prepare_load t ~core addr;
  realize_posted t

let store t ~core addr =
  Engine.flush_charge ();
  (match t.remote with
  | Some rr -> (
    let lid = line_of_addr t addr in
    let home = pinned_home t lid in
    if home >= 0 && rr.rr_is_remote home then
      remote_blocking rr ~core ~line:lid ~home ~write:true
    else begin
      prepare_store t ~core addr;
      realize_blocking t
    end)
  | None ->
    prepare_store t ~core addr;
    realize_blocking t)

(* Blocking store to a line the call site guarantees is effectively
   core-private (URPC ring/channel-state words: one sender task, readers
   gated on a later visibility event). Privacy makes the access a pure
   delay — nothing observes the line state or the caller's progress inside
   the window — so the common Hit/Local outcome is banked instead of
   waited. A transaction (first touch, post-migration refill) still joins
   the shared directory queues and waits. *)
let store_local t ~core addr =
  access_flush t;
  prepare_store t ~core addr;
  if t.o_kind = k_hit then Engine.charge t.plat.Platform.l1_hit
  else if t.o_kind = k_local then Engine.charge t.o_lat
  else Engine.wait (realize_posted t)

let store_posted t ~core addr =
  access_flush t;
  prepare_store t ~core addr;
  let delay = realize_posted t in
  (* The posted-store pipeline drain is a fixed local cost. *)
  Engine.charge store_post_cost;
  Int.max 0 (delay - store_post_cost)

let touch_range t ~core ~addr ~bytes ~write =
  if bytes > 0 then begin
    let first = line_of_addr t addr in
    let last = line_of_addr t (addr + bytes - 1) in
    for l = first to last do
      let a = l * t.plat.Platform.cacheline in
      if write then store t ~core a else load t ~core a
    done
  end

let line_state t ~line =
  match Inttbl.find_opt t.lines line with
  | None -> Invalid
  | Some l ->
    if l.tag = tag_modified then Modified l.excl
    else if l.tag = tag_shared then Shared (Dir_line.sharers l)
    else Invalid
