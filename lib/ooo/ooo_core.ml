(** The out-of-order superscalar core (optionally SMT).

    Modeled stage by stage as in the paper (§2.2): fetch from the basic
    block cache with branch prediction; rename onto a physical register
    file through per-thread register alias tables; dispatch into clustered
    collapsing issue queues; oldest-first select per cluster with
    functional-unit constraints; execution through the shared pure uop
    executor; a unified load/store queue with store-to-load forwarding,
    replay on conflicts and optional load hoisting; speculative recovery by
    walking the ROB backwards to restore the RAT; and a commit unit that
    enforces x86 instruction atomicity, delivers precise exceptions and
    interrupts at macro-op boundaries, trains the branch predictor, honours
    self-modifying code, and drives the interlock controller for LOCKed
    operations.

    Threads (up to 16, §2.2) share issue queues, functional units, the
    physical register file and the cache hierarchy but have private fetch
    queues, ROBs, LSQs and alias tables — the paper's SMT arrangement. *)

open Ptl_util
module Uop = Ptl_uop.Uop
module Exec = Ptl_uop.Exec
module Bbcache = Ptl_uop.Bbcache
module Context = Ptl_arch.Context
module Fault = Ptl_arch.Fault
module Assists = Ptl_arch.Assists
module Vmem = Ptl_arch.Vmem
module Env = Ptl_arch.Env
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Tlb = Ptl_mem.Tlb
module Pwc = Ptl_mem.Pwc
module Hierarchy = Ptl_mem.Hierarchy
module Predictor = Ptl_bpred.Predictor
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace

type rat_entry = Arch | Phys of int

type entry_state =
  | Waiting  (* in an issue queue, sources not all ready / not selected *)
  | Issued  (* executing; completes at writeback_cycle *)
  | Done
  | Faulted of Fault.t

(* Where fetch resumes after a redirect. *)
type redirect =
  | To_rip of int64
  | Into_block of { ib_rip : int64; ib_index : int }

type rob_entry = {
  uop : Uop.t;
  seq : int;
  uuid : int;  (* fetch-order id for the event trace *)
  thread : int;
  bb_rip : int64;  (* start of the basic block this uop was fetched from *)
  bb_index : int;  (* index within that block *)
  dest : int;  (* value physreg, -1 if none *)
  dest_flags : int;  (* flags physreg, -1 if none *)
  (* previous mappings, restored on annulment and released at commit *)
  old_rd : rat_entry;  (* of uop.rd, when uop.rd <> reg_none *)
  old_flags : rat_entry;  (* of the flags reg, when uop.setflags <> 0 *)
  src_a : rat_entry;
  src_b : rat_entry;
  src_c : rat_entry;
  src_f : rat_entry;  (* flags source when readflags *)
  mutable state : entry_state;
  mutable writeback_cycle : int;
  mutable in_iq : int;  (* cluster index while queued, -1 otherwise *)
  mutable exec_cluster : int;  (* cluster the uop executes in *)
  mutable result : int64;
  mutable rflags : int;
  (* branch resolution *)
  pred_taken : bool;
  pred_target : int64;
  ras_ck : Predictor.ras_checkpoint option;
  mutable taken : bool;
  mutable target : int64;
  mutable mispredicted : bool;
  (* memory *)
  mutable vaddr : int64;
  mutable paddr : int;
  mutable addr_valid : bool;
  mutable store_data : int64;
  mutable locked_acquired : bool;
  mutable replays : int;
  (* replayed uops re-enter selection only after a short delay, so a
     replay loop cannot monopolize an issue port and starve other
     (SMT) threads' ready uops *)
  mutable retry_cycle : int;
  (* the fault uop synthesized at fetch carries its fault here *)
  fetch_fault : Fault.t option;
}

(* A uop sitting in the fetch queue with its prediction. Each thread
   owns a pool of these as large as its fetch queue and refills them
   round-robin ([push_fetched]): the queue never holds more than its
   capacity, so the record a push refills left the queue at least a
   capacity's worth of pushes earlier. Rename copies what it needs out
   of a record before popping it. *)
type fetched = {
  mutable f_uop : Uop.t;
  mutable f_uuid : int;  (* fetch-order id for the event trace *)
  mutable f_bb_rip : int64;
  mutable f_bb_index : int;
  mutable f_cycle : int;  (* fetch cycle, for frontend depth *)
  mutable f_pred_taken : bool;
  mutable f_pred_target : int64;
  mutable f_ras_ck : Predictor.ras_checkpoint option;
  mutable f_fault : Fault.t option;
}

type iq_slot = { slot_rob : rob_entry }

(* Issue-select scratch for one cluster, preallocated to its queue size:
   this cycle's ready candidates as parallel int arrays, so selection
   compares ints and allocates nothing. *)
type selector = {
  sel_slot : int array;  (* issue-queue slot *)
  sel_klass : int array;  (* replay class, see [replay_class] *)
  sel_seq : int array;  (* age *)
  mutable sel_n : int;  (* candidates this cycle *)
}

let selector_create size =
  { sel_slot = Array.make size 0; sel_klass = Array.make size 0;
    sel_seq = Array.make size 0; sel_n = 0 }

type thread_state = {
  tid : int;
  ctx : Context.t;
  rat : rat_entry array;
  rob : rob_entry Ring.t;
  lsq : rob_entry Ring.t;
  fetchq : fetched Ring.t;
  fetch_pool : fetched array;  (* the fetch queue's records, see [fetched] *)
  mutable fetch_pool_next : int;
  mutable fetch_rip : int64;
  mutable fetch_bb : Bbcache.bb option;
  mutable fetch_bb_index : int;
  mutable fetch_stall_until : int;
  mutable fetch_enabled : bool;  (* false after a fetch fault / assist until redirect *)
  mutable redirect : (int * redirect) option;  (* effective cycle, where *)
  mutable last_fetch_line : int;
  mutable tlb_gen_seen : int;
  mutable last_progress : int;  (* watchdog: last cycle with commit progress *)
  (* the bbcache's byte and frame readers for a block at [fetch_rip],
     built once per thread rather than at every block lookup *)
  fetch_byte : int64 -> int;
  code_mfn : int64 -> int;
}

type t = {
  config : Config.t;
  env : Env.t;
  core_id : int;
  prefix : string;  (* stats / trace namespace, e.g. "ooo" *)
  threads : thread_state array;
  prf : Physreg.t;
  iqs : iq_slot option array array;  (* per cluster, collapsing queue *)
  iq_free : int array;  (* per cluster: empty slots, kept by iq_insert/iq_remove *)
  selectors : selector array;  (* per cluster *)
  cl_issue_width : int array;  (* per cluster, from the config *)
  cl_forward_delay : int array;  (* per cluster, from the config *)
  fu_clusters : int array array;  (* per FU class: hosting clusters, in order *)
  iq_present : bool array;  (* per thread: SMT reservation scratch *)
  phys : rat_entry array;  (* [Phys p] for every physreg, shared *)
  bbcache : Bbcache.t;
  hierarchy : Hierarchy.t;
  dtlb : Tlb.t;
  itlb : Tlb.t;
  pwc : Pwc.t option;
  bpred : Predictor.t;
  interlock : Interlock.t;
  mutable seq_counter : int;
  mutable uuid_counter : int;  (* fetch-order trace ids *)
  mutable fetch_round : int;  (* SMT round-robin pointer *)
  (* per L1D bank: the last cycle it was accessed (bank conflicts) *)
  bank_stamp : int array;
  (* extra cycles of the last data translation or page-crossing read *)
  mutable xlat_lat : int;
  (* counters *)
  c_cycles : Stats.counter;
  c_insns : Stats.counter;
  c_uops : Stats.counter;
  c_triads : Stats.counter;
  c_loads : Stats.counter;
  c_stores : Stats.counter;
  c_branches : Stats.counter;
  c_cond_branches : Stats.counter;
  c_mispredicts : Stats.counter;
  c_dtlb_misses : Stats.counter;
  c_dtlb_accesses : Stats.counter;
  c_itlb_misses : Stats.counter;
  c_replays : Stats.counter;
  c_bank_conflicts : Stats.counter;
  c_flushes : Stats.counter;
  c_assists : Stats.counter;
  c_faults : Stats.counter;
  c_irqs : Stats.counter;
  c_smc_flushes : Stats.counter;
  c_kernel_cycles : Stats.counter;
  c_user_cycles : Stats.counter;
  c_idle_cycles : Stats.counter;
  c_hoist_violations : Stats.counter;
}

let create ?(core_id = 0) ?(prefix = "ooo") ?interlock ?bbcache ?uarch
    (config : Config.t) env contexts =
  if Array.length contexts <> config.Config.smt_threads then
    invalid_arg "Ooo_core.create: one context per thread";
  let stats = env.Env.stats in
  (* a shared uarch (sampled simulation) supplies long-lived structures
     that survive this instance; otherwise build a private cold set *)
  let uarch =
    match uarch with
    | Some u -> u
    | None -> Uarch.create ~prefix config stats
  in
  let c suffix = Stats.counter stats (prefix ^ "." ^ suffix) in
  let thread tid ctx =
    let vmem = env.Env.vmem in
    let rec th =
      {
        tid;
        ctx;
        rat = Array.make Uop.num_arch_regs Arch;
        rob = Ring.create (config.Config.rob_size);
        lsq = Ring.create (config.Config.lsq_size);
        fetchq = Ring.create (config.Config.fetch_queue);
        fetch_pool =
          Array.init config.Config.fetch_queue (fun _ ->
              { f_uop = Uop.default; f_uuid = 0; f_bb_rip = 0L; f_bb_index = 0;
                f_cycle = 0; f_pred_taken = false; f_pred_target = 0L;
                f_ras_ck = None; f_fault = None });
        fetch_pool_next = 0;
        fetch_rip = ctx.Context.rip;
        fetch_bb = None;
        fetch_bb_index = 0;
        fetch_stall_until = 0;
        fetch_enabled = true;
        redirect = None;
        last_fetch_line = -1;
        tlb_gen_seen = ctx.Context.tlb_generation;
        (* baseline at the current virtual cycle: cores are rebuilt on
           every native->sim switch, arbitrarily late in the run *)
        last_progress = env.Env.cycle;
        fetch_byte = (fun va -> Vmem.fetch_byte vmem ctx ~at_rip:th.fetch_rip va);
        code_mfn = (fun va -> Vmem.code_mfn vmem ctx ~at_rip:th.fetch_rip va);
      }
    in
    th
  in
  let clusters = Array.of_list config.Config.clusters in
  let per_cluster f = Array.map f clusters in
  let fu_clusters =
    let hosts = Array.make Config.num_fu_classes [] in
    Array.iteri
      (fun ci (cl : Config.cluster) ->
        List.iter
          (fun c ->
            let k = Config.fu_index c in
            if not (List.mem ci hosts.(k)) then hosts.(k) <- ci :: hosts.(k))
          cl.Config.fu_classes)
      clusters;
    Array.map (fun l -> Array.of_list (List.rev l)) hosts
  in
  let l1d_banks =
    uarch.Uarch.hierarchy.Hierarchy.config.Hierarchy.l1d.Ptl_mem.Cache.banks
  in
  {
    config;
    env;
    core_id;
    prefix;
    threads = Array.mapi thread contexts;
    prf = Physreg.create config.Config.phys_regs;
    iqs = per_cluster (fun cl -> Array.make cl.Config.iq_size None);
    iq_free = per_cluster (fun cl -> cl.Config.iq_size);
    selectors = per_cluster (fun cl -> selector_create cl.Config.iq_size);
    cl_issue_width = per_cluster (fun cl -> cl.Config.issue_width);
    cl_forward_delay = per_cluster (fun cl -> cl.Config.forward_delay);
    fu_clusters;
    iq_present = Array.make (Array.length contexts) false;
    phys = Array.init config.Config.phys_regs (fun p -> Phys p);
    bbcache = (match bbcache with Some b -> b | None -> uarch.Uarch.bbcache);
    hierarchy = uarch.Uarch.hierarchy;
    dtlb = uarch.Uarch.dtlb;
    itlb = uarch.Uarch.itlb;
    pwc = uarch.Uarch.pwc;
    bpred = uarch.Uarch.bpred;
    interlock =
      (match interlock with Some i -> i | None -> Interlock.create stats);
    seq_counter = 0;
    uuid_counter = 0;
    fetch_round = 0;
    bank_stamp = Array.make (max 1 l1d_banks) (-1);
    xlat_lat = 0;
    c_cycles = c "cycles";
    c_insns = c "commit.insns";
    c_uops = c "commit.uops";
    c_triads = c "commit.triads";
    c_loads = c "commit.loads";
    c_stores = c "commit.stores";
    c_branches = c "commit.branches";
    c_cond_branches = c "commit.cond_branches";
    c_mispredicts = c "commit.mispredicts";
    c_dtlb_misses = c "dcache.dtlb_misses";
    c_dtlb_accesses = c "dcache.dtlb_accesses";
    c_itlb_misses = c "fetch.itlb_misses";
    c_replays = c "issue.replays";
    c_bank_conflicts = c "issue.bank_conflicts";
    c_flushes = c "flushes";
    c_assists = c "commit.assists";
    c_faults = c "commit.faults";
    c_irqs = c "commit.irqs";
    c_smc_flushes = c "commit.smc_flushes";
    c_kernel_cycles = c "cycles_in_mode.kernel";
    c_user_cycles = c "cycles_in_mode.user";
    c_idle_cycles = c "cycles_in_mode.idle";
    c_hoist_violations = c "lsq.hoist_violations";
  }

let now t = t.env.Env.cycle

(* Trace helpers. Every call site guards with [if !Trace.on then ...] so
   the disabled path costs one branch and allocates nothing; these run
   only when tracing is armed. *)
let trace_uop t (e : rob_entry) kind =
  Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid ~rip:e.uop.Uop.rip kind

let trace_replay t (e : rob_entry) reason =
  Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid ~rip:e.uop.Uop.rip
    ~info:e.vaddr ~tag:reason Trace.Replay

(* ---------- RAT / physreg plumbing ---------- *)

let src_of th reg = if reg = Uop.reg_none then Arch else th.rat.(reg)

let src_value t th src reg =
  match src with
  | Arch -> if reg = Uop.reg_none then 0L else Context.get_reg th.ctx reg
  | Phys p -> Physreg.value t.prf p

let flags_value t th = function
  | Arch -> th.ctx.Context.flags
  | Phys p -> Physreg.flags t.prf p

(* ---------- issue queue helpers ---------- *)

let is_waiting e = match e.state with Waiting -> true | _ -> false

(* First empty slot of a queue at or after [i], or -1. *)
let rec first_empty q i =
  if i >= Array.length q then -1
  else match q.(i) with None -> i | Some _ -> first_empty q (i + 1)

let iq_insert t cluster entry =
  let q = t.iqs.(cluster) in
  let i = first_empty q 0 in
  if i < 0 then false
  else begin
    q.(i) <- Some { slot_rob = entry };
    t.iq_free.(cluster) <- t.iq_free.(cluster) - 1;
    entry.in_iq <- cluster;
    true
  end

let iq_remove t entry =
  let ci = entry.in_iq in
  if ci >= 0 then begin
    let q = t.iqs.(ci) in
    for i = 0 to Array.length q - 1 do
      match q.(i) with
      | Some { slot_rob } when slot_rob == entry ->
        q.(i) <- None;
        t.iq_free.(ci) <- t.iq_free.(ci) + 1
      | _ -> ()
    done;
    entry.in_iq <- -1
  end

let iq_free_slots t cluster = t.iq_free.(cluster)

(* SMT deadlock prevention (§2.2 "deadlock prevention schemes"): every
   issue queue keeps one slot in reserve for each thread that has no
   entry in it, so a thread whose progress others are waiting on (e.g.
   the interlock owner) can always dispatch at least one uop. Without
   this, two spinning threads can jointly fill a queue and deadlock the
   owner out of it. *)
let iq_thread_may_insert t cluster tid =
  let nthreads = Array.length t.threads in
  if nthreads = 1 then iq_free_slots t cluster > 0
  else begin
    let present = t.iq_present and q = t.iqs.(cluster) in
    Array.fill present 0 nthreads false;
    for i = 0 to Array.length q - 1 do
      match q.(i) with
      | Some { slot_rob } -> present.(slot_rob.thread) <- true
      | None -> ()
    done;
    let absent_others = ref 0 in
    for i = 0 to nthreads - 1 do
      if i <> tid && not present.(i) then incr absent_others
    done;
    iq_free_slots t cluster > !absent_others
  end

(* Pick the cluster for a uop: one that hosts the FU class, preferring the
   one with the most free issue-queue slots (simple load balancing over the
   K8's three lanes). *)
let cluster_for t (u : Uop.t) =
  let hosts = t.fu_clusters.(Config.fu_index (Config.fu_class_of u)) in
  let best = ref (-1) and best_free = ref (-1) in
  for k = 0 to Array.length hosts - 1 do
    let free = iq_free_slots t hosts.(k) in
    if free > !best_free then begin
      best := hosts.(k);
      best_free := free
    end
  done;
  !best

(* ---------- annulment and recovery ---------- *)

(* Annul the youngest [n] ROB entries of a thread, restoring the RAT by
   walking youngest -> oldest (the paper's ROB-walk recovery). *)
let annul_youngest t th n =
  for k = 0 to n - 1 do
    let idx = Ring.length th.rob - 1 - k in
    let e = Ring.get th.rob idx in
    if !Trace.on then trace_uop t e Trace.Annul;
    if e.uop.Uop.rd <> Uop.reg_none then th.rat.(e.uop.Uop.rd) <- e.old_rd;
    if e.uop.Uop.setflags <> 0 then th.rat.(Uop.reg_flags) <- e.old_flags;
    (match e.uop.Uop.op with
    | Uop.Ldl ->
      Interlock.trace t.interlock "%d: annul ldl seq=%d th=%d acq=%b state=%s" (now t)
        e.seq e.thread e.locked_acquired
        (match e.state with Waiting -> "w" | Issued -> "i" | Done -> "d" | Faulted _ -> "f")
    | Uop.Strel ->
      Interlock.trace t.interlock "%d: annul strel seq=%d th=%d" (now t) e.seq e.thread
    | _ -> ());
    if e.dest >= 0 then Physreg.release t.prf e.dest;
    if e.dest_flags >= 0 then Physreg.release t.prf e.dest_flags;
    iq_remove t e;
    if e.locked_acquired then
      Interlock.release t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid
        ~paddr:e.paddr;
    (* restore speculative RAS state *)
    match e.ras_ck with
    | Some ck -> Predictor.ras_restore t.bpred ck
    | None -> ()
  done;
  Ring.drop_youngest th.rob n;
  (* rebuild the LSQ: drop entries whose rob entry was annulled *)
  let keep = Ring.fold th.lsq [] (fun acc e -> e :: acc) in
  Ring.clear th.lsq;
  List.iter
    (fun e ->
      (* an entry survives if it is still somewhere in the ROB *)
      let alive = Ring.fold th.rob false (fun a re -> a || re == e) in
      if alive then Ring.push th.lsq e)
    (List.rev keep)

(* Annul every entry younger than [entry] (exclusive). *)
let annul_after t th entry =
  let total = Ring.length th.rob in
  let rec age i = if Ring.get th.rob i == entry then i else age (i + 1) in
  let pos = age 0 in
  annul_youngest t th (total - pos - 1)

(* Annul [entry] and everything younger (inclusive). *)
let annul_from t th entry =
  let total = Ring.length th.rob in
  let rec age i = if Ring.get th.rob i == entry then i else age (i + 1) in
  let pos = age 0 in
  annul_youngest t th (total - pos)

(* After a full flush the context holds all committed state: revert every
   RAT mapping to Arch and release the physregs that held committed
   values (no in-flight consumer can exist — the ROB is empty). *)
let reset_rat t th =
  Array.iteri
    (fun i entry ->
      match entry with
      | Phys p ->
        Physreg.release t.prf p;
        th.rat.(i) <- Arch
      | Arch -> ())
    th.rat

let flush_fetch th =
  Ring.clear th.fetchq;
  th.fetch_bb <- None;
  th.fetch_bb_index <- 0;
  th.last_fetch_line <- -1

(* Full pipeline flush for one thread; fetch resumes at [rip] after the
   redirect penalty. *)
let flush_thread t th ~rip =
  Stats.incr t.c_flushes;
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:th.tid ~rip ~tag:t.prefix Trace.Flush;
  annul_youngest t th (Ring.length th.rob);
  reset_rat t th;
  flush_fetch th;
  Interlock.release_all t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid;
  th.fetch_enabled <- true;
  th.redirect <- Some (now t + t.config.Config.redirect_penalty, To_rip rip)

(* ---------- fetch ---------- *)

(* The TLB entry a walk fills: a single 2M entry when this configuration
   honors huge pages, else the exact 4K fragment (architecturally
   identical; only the reach differs). *)
let tlb_fill_entry t (tr : Pt.translation) =
  let e = Tlb.entry_of_walk tr in
  if e.Tlb.huge && not t.config.Config.tlb_hugepages then
    { e with Tlb.huge = false; mfn = tr.Pt.mfn }
  else e

(* Consult the page-walk caches: further cut the dependent-load chain of
   a walk that would issue [loads] loads, and remember the walked
   tables. *)
let pwc_filter_loads t vaddr ~addrs loads =
  match t.pwc with
  | None -> loads
  | Some pwc ->
    let left = Pwc.loads_left pwc vaddr ~walk_len:loads in
    Pwc.insert pwc vaddr ~pte_addrs:addrs;
    left

let itlb_fetch_latency t th vaddr =
  (* ITLB lookup; misses walk the page table with timed PTE loads. *)
  match Tlb.lookup t.itlb vaddr with
  | Tlb.L1_hit _ | Tlb.L2_hit _ -> 0
  | Tlb.Tlb_miss ->
    Stats.incr t.c_itlb_misses;
    let ctx = th.ctx in
    (match
       Pt.walk t.env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write:false
         ~user:(ctx.Context.mode = Context.User) ~exec:true ()
     with
    | Error _ -> 0 (* the fault will surface when decode fetches bytes *)
    | Ok tr ->
      Tlb.insert t.itlb vaddr (tlb_fill_entry t tr);
      let addrs = tr.Pt.pte_addrs in
      let loads = min (Tlb.walk_loads t.itlb vaddr) (List.length addrs) in
      let loads = pwc_filter_loads t vaddr ~addrs loads in
      let charged =
        (* charge the last [loads] walk references (PDE cache / PWC skip
           the upper levels) *)
        let rec drop l n = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop tl (n - 1) in
        drop addrs (List.length addrs - loads)
      in
      List.fold_left
        (fun acc pa -> acc + Hierarchy.load t.hierarchy ~cycle:(now t + acc) ~paddr:pa)
        0 charged)

(* Fill the thread's next pooled fetch record and push it onto the
   (non-full) fetch queue. *)
let push_fetched t th (u : Uop.t) ~bb_rip ~bb_index ~taken ~target ~ras_ck
    ~fault =
  let f = th.fetch_pool.(th.fetch_pool_next) in
  th.fetch_pool_next <- (th.fetch_pool_next + 1) mod Array.length th.fetch_pool;
  f.f_uop <- u;
  f.f_uuid <- t.uuid_counter;
  f.f_bb_rip <- bb_rip;
  f.f_bb_index <- bb_index;
  f.f_cycle <- now t;
  f.f_pred_taken <- taken;
  f.f_pred_target <- target;
  f.f_ras_ck <- ras_ck;
  f.f_fault <- fault;
  Ring.push th.fetchq f;
  f

(* The uop at the thread's current index in block [bb], predicted
   [taken] to [target], onto the fetch queue. *)
let push_predicted t th bb (u : Uop.t) ~taken ~target ~ras_ck =
  push_fetched t th u ~bb_rip:bb.Bbcache.key.Bbcache.krip
    ~bb_index:th.fetch_bb_index ~taken ~target ~ras_ck ~fault:None

(* Predict a uop at fetch time and push it onto the fetch queue; the
   RAS checkpoint is kept when the prediction touched the RAS. *)
let predict_and_push t th bb (u : Uop.t) =
  match u.Uop.op with
  | Uop.Bru ->
    if u.Uop.hint_call then begin
      let ck = Predictor.ras_checkpoint t.bpred in
      Predictor.ras_push t.bpred u.Uop.next_rip;
      push_predicted t th bb u ~taken:true ~target:u.Uop.br_target ~ras_ck:(Some ck)
    end
    else push_predicted t th bb u ~taken:true ~target:u.Uop.br_target ~ras_ck:None
  | Uop.Brc _ | Uop.Brnz | Uop.Brz ->
    let taken = Predictor.predict_cond t.bpred ~rip:u.Uop.rip in
    push_predicted t th bb u ~taken
      ~target:(if taken then u.Uop.br_target else u.Uop.next_rip)
      ~ras_ck:None
  | Uop.Jmpr ->
    if u.Uop.hint_ret then begin
      let ck = Predictor.ras_checkpoint t.bpred in
      let target =
        match Predictor.ras_pop t.bpred with
        | Some target -> target
        | None -> u.Uop.next_rip
      in
      push_predicted t th bb u ~taken:true ~target ~ras_ck:(Some ck)
    end
    else begin
      if u.Uop.hint_call then Predictor.ras_push t.bpred u.Uop.next_rip;
      let target =
        match Predictor.predict_target t.bpred ~rip:u.Uop.rip with
        | Some target -> target
        | None -> u.Uop.next_rip
      in
      push_predicted t th bb u ~taken:true ~target ~ras_ck:None
    end
  | _ -> push_predicted t th bb u ~taken:false ~target:0L ~ras_ck:None

let push_fault_uop t th fault =
  let u =
    { Uop.default with Uop.op = Uop.Nop; som = true; eom = true;
      rip = th.fetch_rip; next_rip = th.fetch_rip }
  in
  t.uuid_counter <- t.uuid_counter + 1;
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:t.uuid_counter
      ~rip:th.fetch_rip ~tag:"fault" Trace.Fetch;
  ignore
    (push_fetched t th u ~bb_rip:th.fetch_rip ~bb_index:0 ~taken:false
       ~target:0L ~ras_ck:None ~fault:(Some fault));
  (* stop fetching until the fault commits and redirects *)
  th.fetch_enabled <- false

(* Fetch up to [fetch_width] uops for thread [th]. *)
let fetch_thread t th =
  let ctx = th.ctx in
  (match th.redirect with
  | Some (cyc, where) when cyc <= now t ->
    th.redirect <- None;
    th.fetch_enabled <- true;
    (match where with
    | To_rip rip ->
      th.fetch_rip <- rip;
      th.fetch_bb <- None;
      th.fetch_bb_index <- 0
    | Into_block { ib_rip; ib_index } ->
      th.fetch_rip <- ib_rip;
      th.fetch_bb <- None;
      th.fetch_bb_index <- ib_index)
  | _ -> ());
  if th.fetch_enabled && Option.is_none th.redirect && ctx.Context.running
     && now t >= th.fetch_stall_until
  then begin
    let budget = ref t.config.Config.fetch_width in
    let stop = ref false in
    while (not !stop) && !budget > 0 && not (Ring.is_full th.fetchq) do
      (* ensure a current block *)
      (match th.fetch_bb with
      | Some _ -> ()
      | None -> (
        let rip = th.fetch_rip in
        let itlb_lat = itlb_fetch_latency t th rip in
        if itlb_lat > 0 then begin
          th.fetch_stall_until <- now t + itlb_lat;
          stop := true
        end
        else
          match
            Bbcache.lookup t.bbcache ~rip ~kernel:(Context.is_kernel ctx)
              ~fetch:th.fetch_byte ~mfn_of:th.code_mfn
          with
          | bb ->
            if Array.length bb.Bbcache.uops = 0 then begin
              (* empty block (fault on first instruction when re-decoded) *)
              push_fault_uop t th
                { Fault.kind = Fault.Invalid_opcode; at_rip = rip };
              stop := true
            end
            else th.fetch_bb <- Some bb
          | exception Fault.Guest_fault f ->
            push_fault_uop t th f;
            stop := true
          | exception Ptl_isa.Decode.Invalid_opcode _ ->
            push_fault_uop t th { Fault.kind = Fault.Invalid_opcode; at_rip = rip };
            stop := true));
      match th.fetch_bb with
      | None -> stop := true
      | Some bb ->
        if th.fetch_bb_index >= Array.length bb.Bbcache.uops then begin
          (* fell off a size-limited block: continue at the fallthrough *)
          th.fetch_rip <- bb.Bbcache.fallthrough_rip;
          th.fetch_bb <- None;
          th.fetch_bb_index <- 0
        end
        else begin
          let u = bb.Bbcache.uops.(th.fetch_bb_index) in
          (* model the i-cache: charge one access per 64-byte line *)
          let line = Int64.to_int (Int64.shift_right_logical u.Uop.rip 6) in
          let line_ok =
            if line = th.last_fetch_line then true
            else
              match
                Vmem.translate t.env.Env.vmem ctx ~vaddr:u.Uop.rip ~write:false
                  ~fetch:true ~at_rip:u.Uop.rip
              with
              | paddr ->
                th.last_fetch_line <- line;
                let lat = Hierarchy.ifetch t.hierarchy ~cycle:(now t) ~paddr in
                if lat > t.config.Config.hierarchy.Hierarchy.l1i.Ptl_mem.Cache.latency
                then begin
                  (* miss: the line arrives later; retry then *)
                  th.fetch_stall_until <- now t + lat;
                  stop := true;
                  false
                end
                else true
              | exception Fault.Guest_fault f ->
                push_fault_uop t th f;
                stop := true;
                false
          in
          if line_ok then begin
            t.uuid_counter <- t.uuid_counter + 1;
            let f = predict_and_push t th bb u in
            if !Trace.on then
              Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:t.uuid_counter
                ~rip:u.Uop.rip ~slot:th.fetch_bb_index ~info:f.f_pred_target
                Trace.Fetch;
            decr budget;
            th.fetch_bb_index <- th.fetch_bb_index + 1;
            if Uop.is_branch u then begin
              if f.f_pred_taken then begin
                th.fetch_rip <- f.f_pred_target;
                th.fetch_bb <- None;
                th.fetch_bb_index <- 0
              end
              (* predicted not-taken: continue within the block *)
            end
            else if Uop.is_assist u then begin
              (* serializing: stop fetch until the assist commits *)
              th.fetch_enabled <- false;
              stop := true
            end
          end
        end
    done
  end

(* ---------- rename / dispatch ---------- *)

(* Physical registers a uop allocates: its value and its flags. *)
let regs_needed (u : Uop.t) =
  (if u.Uop.rd <> Uop.reg_none then 1 else 0) + if u.Uop.setflags <> 0 then 1 else 0

let rename_thread t th =
  let budget = ref t.config.Config.rename_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 && not (Ring.is_empty th.fetchq) do
    match Ring.peek th.fetchq with
    | None -> stop := true
    | Some f ->
      if now t < f.f_cycle + t.config.Config.frontend_stages then stop := true
      else begin
        let u = f.f_uop in
        let is_mem = Uop.is_mem u in
        let is_assist = Uop.is_assist u || Option.is_some f.f_fault in
        let cluster = if is_assist then -1 else cluster_for t u in
        let iq_ok =
          is_assist || (cluster >= 0 && iq_thread_may_insert t cluster th.tid)
        in
        if Ring.is_full th.rob
           || (is_mem && Ring.is_full th.lsq)
           || (not iq_ok)
           || Physreg.free_count t.prf < regs_needed u
        then stop := true
        else begin
          let dest =
            if u.Uop.rd <> Uop.reg_none then Physreg.alloc t.prf else -1
          in
          let dest_flags =
            if u.Uop.setflags <> 0 then Physreg.alloc t.prf else -1
          in
          let src_a = src_of th u.Uop.ra in
          let src_b = src_of th u.Uop.rb in
          let src_c = src_of th u.Uop.rc in
          let src_f =
            if u.Uop.readflags then th.rat.(Uop.reg_flags) else Arch
          in
          let old_rd =
            if u.Uop.rd <> Uop.reg_none then begin
              let prev = th.rat.(u.Uop.rd) in
              th.rat.(u.Uop.rd) <- t.phys.(dest);
              prev
            end
            else Arch
          in
          let old_flags =
            if u.Uop.setflags <> 0 then begin
              let prev = th.rat.(Uop.reg_flags) in
              th.rat.(Uop.reg_flags) <- t.phys.(dest_flags);
              prev
            end
            else Arch
          in
          t.seq_counter <- t.seq_counter + 1;
          let entry =
            {
              uop = u;
              seq = t.seq_counter;
              uuid = f.f_uuid;
              thread = th.tid;
              bb_rip = f.f_bb_rip;
              bb_index = f.f_bb_index;
              dest;
              dest_flags;
              old_rd;
              old_flags;
              src_a;
              src_b;
              src_c;
              src_f;
              state =
                (match f.f_fault with
                | Some fault -> Faulted fault
                | None -> if is_assist then Done else Waiting);
              writeback_cycle = 0;
              in_iq = -1;
              exec_cluster = cluster;
              result = 0L;
              rflags = 0;
              pred_taken = f.f_pred_taken;
              pred_target = f.f_pred_target;
              ras_ck = f.f_ras_ck;
              taken = false;
              target = 0L;
              mispredicted = false;
              vaddr = 0L;
              paddr = -1;
              addr_valid = false;
              store_data = 0L;
              locked_acquired = false;
              replays = 0;
              retry_cycle = 0;
              fetch_fault = f.f_fault;
            }
          in
          Ring.push th.rob entry;
          if !Trace.on then begin
            Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:entry.uuid
              ~rip:u.Uop.rip
              ~slot:(Ring.length th.rob - 1)
              Trace.Rename;
            Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:entry.uuid
              ~rip:u.Uop.rip ~slot:cluster Trace.Dispatch
          end;
          if is_mem then Ring.push th.lsq entry;
          if not is_assist then begin
            let inserted = iq_insert t cluster entry in
            assert inserted
          end;
          ignore (Ring.pop th.fetchq);
          decr budget
        end
      end
  done

(* ---------- memory pipeline helpers ---------- *)

(* Timed DTLB translation. Returns the physical address and leaves the
   page walk's extra latency in [t.xlat_lat]; raises [Fault.Guest_fault]
   on a page fault. *)
let dtlb_translate t th ~vaddr ~write ~at_rip =
  Stats.incr t.c_dtlb_accesses;
  t.xlat_lat <- 0;
  match Tlb.lookup t.dtlb vaddr with
  | (Tlb.L1_hit e | Tlb.L2_hit e) when e.Tlb.writable || not write ->
    Tlb.paddr_of e vaddr
  | Tlb.L1_hit _ | Tlb.L2_hit _ | Tlb.Tlb_miss -> (
    Stats.incr t.c_dtlb_misses;
    let ctx = th.ctx in
    match
      Pt.walk t.env.Env.mem ~cr3_mfn:ctx.Context.cr3 ~vaddr ~write
        ~user:(ctx.Context.mode = Context.User) ~exec:false ()
    with
    | Error f ->
      ctx.Context.cr2 <- vaddr;
      raise
        (Fault.Guest_fault
           {
             Fault.kind =
               Fault.Page_fault
                 {
                   vaddr;
                   not_present = f.Pt.not_present;
                   write;
                   user = ctx.Context.mode = Context.User;
                   fetch = false;
                 };
             at_rip;
           })
    | Ok tr ->
      let addrs = tr.Pt.pte_addrs in
      let loads = min (Tlb.walk_loads t.dtlb vaddr) (List.length addrs) in
      Tlb.insert t.dtlb vaddr (tlb_fill_entry t tr);
      let loads = pwc_filter_loads t vaddr ~addrs loads in
      let rec drop l n =
        if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop tl (n - 1)
      in
      let charged = drop addrs (List.length addrs - loads) in
      (* the walker's loads are dependent: serialize their latencies *)
      t.xlat_lat <-
        List.fold_left
          (fun acc pa -> acc + Hierarchy.load t.hierarchy ~cycle:(now t + acc) ~paddr:pa)
          0 charged;
      Pt.to_paddr tr vaddr)

(* Read [size] bytes of physical memory that may straddle a page: the
   second page's physical frame is found via a second translation. Leaves
   a crossing access's extra latency in [t.xlat_lat]; raises
   [Fault.Guest_fault] when the second page faults. *)
let read_guest_data t th ~vaddr ~paddr ~size ~at_rip =
  let n = W64.bytes_of_size size in
  let off = paddr land Pm.page_mask in
  if off + n <= Pm.page_size then begin
    t.xlat_lat <- 0;
    Pm.read_sized t.env.Env.mem paddr size
  end
  else begin
    (* crossing access: translate the second page too *)
    let first = Pm.page_size - off in
    let paddr2 =
      dtlb_translate t th ~vaddr:(Int64.add vaddr (Int64.of_int first)) ~write:false ~at_rip
    in
    t.xlat_lat <- t.xlat_lat + 1;
    W64.of_bytes n (fun i ->
        if i < first then Pm.read8 t.env.Env.mem (paddr + i)
        else Pm.read8 t.env.Env.mem (paddr2 + (i - first)))
  end

(* Does [e]'s committed-order-earlier store overlap the load at
   [paddr,size]? *)
let ranges_overlap a alen b blen = a < b + blen && b < a + alen

(* Search the thread's store queue for stores older than [load]. *)
type sq_result =
  | Sq_none
  | Sq_forward of int64  (* value forwarded from the youngest matching store *)
  | Sq_unknown_addr  (* an older store address is still unresolved *)
  | Sq_partial  (* overlap that cannot be forwarded: wait/replay *)

let store_queue_search th (load : rob_entry) =
  let n = W64.bytes_of_size load.uop.Uop.mem_size in
  let result = ref Sq_none in
  for i = 0 to Ring.length th.lsq - 1 do
    let e = Ring.get th.lsq i in
    if e.seq < load.seq && Uop.is_store e.uop then begin
      if not e.addr_valid then result := Sq_unknown_addr
      else begin
        let en = W64.bytes_of_size e.uop.Uop.mem_size in
        if ranges_overlap e.paddr en load.paddr n then begin
          if e.paddr = load.paddr && en >= n then
            result := Sq_forward (W64.truncate load.uop.Uop.mem_size e.store_data)
          else result := Sq_partial
        end
      end
    end
  done;
  !result

(* ---------- execute ---------- *)

let thread_of t e = t.threads.(e.thread)

let redirect_fetch t th ~where =
  if !Trace.on then begin
    let target =
      match where with To_rip rip -> rip | Into_block { ib_rip; _ } -> ib_rip
    in
    Trace.emit ~core:t.core_id ~thread:th.tid ~rip:target Trace.Redirect
  end;
  flush_fetch th;
  th.fetch_enabled <- true;
  th.redirect <- Some (now t + t.config.Config.redirect_penalty, where)

(* Resolve a branch at execute: detect misprediction, annul the wrong
   path and steer fetch. The branch itself stays in the ROB and commits
   normally (training happens at commit). *)
let resolve_branch t th (e : rob_entry) (out : Exec.outcome) =
  e.taken <- out.Exec.taken;
  e.target <- out.Exec.target;
  let wrong =
    if out.Exec.taken then (not e.pred_taken) || e.pred_target <> out.Exec.target
    else e.pred_taken
  in
  if wrong then begin
    e.mispredicted <- true;
    if !Trace.on then
      Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid
        ~rip:e.uop.Uop.rip ~info:out.Exec.target
        ~tag:(if out.Exec.taken then "taken" else "nt")
        Trace.Mispredict;
    annul_after t th e;
    let where =
      if out.Exec.taken then To_rip out.Exec.target
      else if e.uop.Uop.eom then To_rip e.uop.Uop.next_rip
      else Into_block { ib_rip = e.bb_rip; ib_index = e.bb_index + 1 }
    in
    redirect_fetch t th ~where
  end

(* With load hoisting enabled, a store resolving its address must check
   for younger loads that already executed against the same bytes; such
   loads consumed stale data and the pipeline replays from their
   instruction (the paper's replay-on-misspeculation machinery). *)
let check_hoist_violation t th (store : rob_entry) =
  let sn = W64.bytes_of_size store.uop.Uop.mem_size in
  let victim = ref None in
  Ring.iter th.lsq (fun e ->
      if
        e.seq > store.seq && Uop.is_load e.uop && e.addr_valid
        && (e.state = Done || e.state = Issued)
        && ranges_overlap store.paddr sn e.paddr (W64.bytes_of_size e.uop.Uop.mem_size)
      then
        match !victim with
        | Some (v : rob_entry) when v.seq <= e.seq -> ()
        | _ -> victim := Some e)
      ;
  match !victim with
  | None -> ()
  | Some load ->
    Stats.incr t.c_hoist_violations;
    let restart_rip = load.uop.Uop.rip in
    (* annul from the start of the load's macro-op *)
    let rec find_som i =
      let e = Ring.get th.rob i in
      if e.uop.Uop.som && e.uop.Uop.rip = restart_rip && e.seq <= load.seq then e
      else find_som (i + 1)
    in
    let som_entry = find_som 0 in
    annul_from t th som_entry;
    redirect_fetch t th ~where:(To_rip restart_rip)

(* Bank-conflict tracking: one access per L1D bank per cycle (K8 §5). *)
let bank_conflict t paddr =
  if not t.config.Config.enforce_banking then false
  else begin
    let bank = Ptl_mem.Cache.bank_of (Hierarchy.l1d t.hierarchy) paddr in
    if t.bank_stamp.(bank) = now t then true
    else begin
      t.bank_stamp.(bank) <- now t;
      false
    end
  end

(* x86 LOCKed instructions are full fences: is a locked load or
   releasing store older than [e] still in its thread's LSQ? *)
let older_locked_pending th (e : rob_entry) =
  let found = ref false in
  for i = 0 to Ring.length th.lsq - 1 do
    let older = Ring.get th.lsq i in
    if older.seq < e.seq then
      match older.uop.Uop.op with
      | Uop.Ldl | Uop.Strel -> found := true
      | _ -> ()
  done;
  !found

(* A load that cannot complete its read this cycle replays after
   [delay] cycles, dropping the interlock if it held one. *)
let replay_release t th (e : rob_entry) ~paddr ~reason delay =
  Stats.incr t.c_replays;
  if !Trace.on then trace_replay t e reason;
  e.replays <- e.replays + 1;
  e.retry_cycle <- now t + delay;
  if e.locked_acquired then begin
    Interlock.release t.interlock ~cycle:(now t) ~core:t.core_id
      ~thread:th.tid ~paddr;
    e.locked_acquired <- false
  end

let execute_load t th (e : rob_entry) (out : Exec.outcome) =
  let u = e.uop in
  let at_rip = u.Uop.rip in
  let vaddr = out.Exec.value in
  e.vaddr <- vaddr;
  match dtlb_translate t th ~vaddr ~write:false ~at_rip with
  | exception Fault.Guest_fault f ->
    e.state <- Faulted f;
    iq_remove t e
  | paddr -> (
    let tlb_lat = t.xlat_lat in
    e.paddr <- paddr;
    e.addr_valid <- true;
    (* No load (plain or locked) may execute while an older locked
       operation of the same thread is still in flight. This both
       serializes locked sequences (deadlock prevention, §2.2) and stops
       speculative loads from reading stale data past an in-flight lock
       acquisition. *)
    if older_locked_pending th e then begin
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "fence";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 2
    end
    else begin
    (* locked loads must own the interlock before reading (§4.4) *)
    if u.Uop.op = Uop.Ldl && not e.locked_acquired then begin
      if Interlock.acquire t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid ~paddr then
        e.locked_acquired <- true
      else begin
        (* replay until the owner releases *)
        Stats.incr t.c_replays;
        if !Trace.on then trace_replay t e "lock-acquire";
        e.replays <- e.replays + 1;
        e.retry_cycle <- now t + 4;
        e.addr_valid <- false
      end
    end;
    if u.Uop.op = Uop.Ldl && not e.locked_acquired then () (* stays Waiting *)
    else if
      u.Uop.op = Uop.Ld
      && Interlock.locked_by_other t.interlock ~core:t.core_id ~thread:th.tid ~paddr
    then begin
      (* another thread interlocked this address: replay until release *)
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "locked-other";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 4
    end
    else begin
      (* A locked load that cannot complete its read this cycle must NOT
         sit on the interlock: a younger speculative iteration could
         otherwise hold the lock while blocked behind the older
         iteration's unresolved store — a self-deadlock. The lock is only
         kept across a *successful* read (deadlock prevention, §2.2). *)
      match store_queue_search th e with
      | Sq_unknown_addr when not t.config.Config.load_hoisting ->
        (* K8: no load hoisting — wait for older store addresses *)
        replay_release t th e ~paddr ~reason:"sq-unknown" 2
      | Sq_partial -> replay_release t th e ~paddr ~reason:"sq-partial" 2
      | Sq_forward v ->
        e.result <- v;
        e.rflags <- out.Exec.flags;
        e.writeback_cycle <- now t + tlb_lat + 2 (* forwarding latency *);
        e.state <- Issued;
        if !Trace.on then
          Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid
            ~rip:u.Uop.rip ~info:e.vaddr ~tag:"sq" Trace.Forward;
        iq_remove t e
      | Sq_none | Sq_unknown_addr -> (
        if bank_conflict t paddr then begin
          Stats.incr t.c_bank_conflicts;
          replay_release t th e ~paddr ~reason:"bank" 1
        end
        else
          match read_guest_data t th ~vaddr ~paddr ~size:u.Uop.mem_size ~at_rip with
          | exception Fault.Guest_fault f ->
            e.state <- Faulted f;
            iq_remove t e
          | raw ->
            let cross_lat = t.xlat_lat in
            let lat = Hierarchy.load t.hierarchy ~cycle:(now t) ~paddr in
            e.result <- Exec.finish_load u raw;
            e.rflags <- out.Exec.flags;
            e.writeback_cycle <- now t + tlb_lat + cross_lat + lat;
            e.state <- Issued;
            iq_remove t e)
    end
    end)

let execute_store t th (e : rob_entry) (out : Exec.outcome) ~rc =
  let u = e.uop in
  let at_rip = u.Uop.rip in
  let vaddr = out.Exec.value in
  e.vaddr <- vaddr;
  match dtlb_translate t th ~vaddr ~write:true ~at_rip with
  | exception Fault.Guest_fault f ->
    e.state <- Faulted f;
    iq_remove t e
  | paddr ->
    let tlb_lat = t.xlat_lat in
    if
      u.Uop.op = Uop.St
      && Interlock.locked_by_other t.interlock ~core:t.core_id ~thread:th.tid ~paddr
    then begin
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "locked-other";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 4
    end
    else if bank_conflict t paddr then begin
      Stats.incr t.c_bank_conflicts;
      Stats.incr t.c_replays;
      if !Trace.on then trace_replay t e "bank";
      e.replays <- e.replays + 1;
      e.retry_cycle <- now t + 4
    end
    else begin
      e.paddr <- paddr;
      e.addr_valid <- true;
      e.store_data <- Exec.store_data u rc;
      e.rflags <- out.Exec.flags;
      e.writeback_cycle <- now t + tlb_lat + 1;
      e.state <- Issued;
      iq_remove t e;
      if t.config.Config.load_hoisting then check_hoist_violation t th e
    end

let execute_entry t (e : rob_entry) =
  let th = thread_of t e in
  let u = e.uop in
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:e.thread ~uuid:e.uuid ~rip:u.Uop.rip
      ~slot:e.exec_cluster Trace.Issue;
  let ra = src_value t th e.src_a u.Uop.ra in
  let rb = src_value t th e.src_b u.Uop.rb in
  let rc = src_value t th e.src_c u.Uop.rc in
  let flags = if u.Uop.readflags then flags_value t th e.src_f else 0 in
  match Exec.execute u ~ra ~rb ~rc ~flags with
  | exception Exec.Divide_error ->
    e.state <- Faulted { Fault.kind = Fault.Divide_error; at_rip = u.Uop.rip };
    iq_remove t e
  | out ->
    if Uop.is_load u then execute_load t th e out
    else if Uop.is_store u then execute_store t th e out ~rc
    else begin
      e.result <- out.Exec.value;
      e.rflags <- out.Exec.flags;
      e.writeback_cycle <- now t + Config.uop_latency u;
      e.state <- Issued;
      iq_remove t e;
      if Uop.is_branch u then resolve_branch t th e out
    end

(* Issue: per cluster, select up to issue_width ready entries,
   oldest-first ("collapsing" queue with broadcast wakeup modeled as a
   readiness scan). *)

(* Is [src] readable in [cluster] this cycle: written, and past the
   cluster's forwarding delay when another cluster produced it. *)
let src_ready_in t cluster src =
  match src with
  | Arch -> true
  | Phys p ->
    Physreg.is_written t.prf p
    && now t
       >= Physreg.visible_cycle t.prf p ~cluster
            ~forward_delay:t.cl_forward_delay.(cluster)

let entry_sources_ready t cluster (e : rob_entry) =
  src_ready_in t cluster e.src_a
  && src_ready_in t cluster e.src_b
  && src_ready_in t cluster e.src_c
  && ((not e.uop.Uop.readflags) || src_ready_in t cluster e.src_f)

(* Selection key, ahead of age: oldest-first with replay
   deprioritization and a starvation bound. Actively-replaying uops
   (retry stamp near now) yield to everyone else: interleaved retry
   phases would otherwise own a narrow cluster's only slot forever. An
   entry whose last replay is old (it has been ready but unselected for
   a while) is promoted back to normal priority, so nothing starves
   indefinitely. *)
let starvation_cycles = 64

let replay_class ~replays ~retry_cycle ~now =
  if replays = 0 then 0 else if now - retry_cycle > starvation_cycles then 0 else 1

let selector_add s ~slot ~klass ~seq =
  let n = s.sel_n in
  s.sel_slot.(n) <- slot;
  s.sel_klass.(n) <- klass;
  s.sel_seq.(n) <- seq;
  s.sel_n <- n + 1

(* Candidate [i] goes before [j]: lower replay class, then older. Seqs
   are unique, so this is a strict total order. *)
let selector_before s i j =
  let ki = s.sel_klass.(i) and kj = s.sel_klass.(j) in
  ki < kj || (ki = kj && s.sel_seq.(i) < s.sel_seq.(j))

let swap_ints (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let selector_swap s i j =
  swap_ints s.sel_slot i j;
  swap_ints s.sel_klass i j;
  swap_ints s.sel_seq i j

(** Move the first [min sel_n width] candidates in (replay class, seq)
    order to positions [0..], in that order, and return how many. A
    partial selection sort: the width is a few, the queue a few dozen. *)
let selector_pick s ~width =
  let take = min s.sel_n width in
  for k = 0 to take - 1 do
    let best = ref k in
    for j = k + 1 to s.sel_n - 1 do
      if selector_before s j !best then best := j
    done;
    if !best <> k then selector_swap s k !best
  done;
  take

let issue t =
  let cycle = now t in
  for ci = 0 to Array.length t.iqs - 1 do
    let q = t.iqs.(ci) and s = t.selectors.(ci) in
    (* every key is taken before anything in the cluster executes *)
    s.sel_n <- 0;
    for i = 0 to Array.length q - 1 do
      match q.(i) with
      | Some { slot_rob = e }
        when is_waiting e && cycle >= e.retry_cycle
             && entry_sources_ready t ci e ->
        selector_add s ~slot:i
          ~klass:(replay_class ~replays:e.replays ~retry_cycle:e.retry_cycle ~now:cycle)
          ~seq:e.seq
      | _ -> ()
    done;
    for k = 0 to selector_pick s ~width:t.cl_issue_width.(ci) - 1 do
      (* an earlier pick's branch resolution may have annulled this
         entry in this same cycle, emptying its slot: re-check. Its pick
         still used a width slot. *)
      match q.(s.sel_slot.(k)) with
      | Some { slot_rob = e } when e.in_iq = ci && is_waiting e -> execute_entry t e
      | _ -> ()
    done
  done

(* ---------- writeback ---------- *)

let writeback t =
  for ti = 0 to Array.length t.threads - 1 do
    let rob = t.threads.(ti).rob in
    for i = 0 to Ring.length rob - 1 do
      let e = Ring.get rob i in
      match e.state with
      | Issued when e.writeback_cycle <= now t ->
        if e.dest >= 0 then
          Physreg.write t.prf e.dest ~value:e.result ~flags:e.rflags
            ~cycle:e.writeback_cycle ~cluster:e.exec_cluster;
        if e.dest_flags >= 0 then
          Physreg.write t.prf e.dest_flags ~value:0L ~flags:e.rflags
            ~cycle:e.writeback_cycle ~cluster:e.exec_cluster;
        e.state <- Done;
        if !Trace.on then trace_uop t e Trace.Writeback
      | _ -> ()
    done
  done

(* ---------- commit ---------- *)

module Flags = Ptl_isa.Flags

(* Scan the macro-op at the ROB head from entry [i]. Returns the index
   of the entry that ends the scan — the macro-op's last uop when all of
   it is done, or its first faulted uop — or -1 while a uop of it is
   still in flight. *)
let rec scan_head_macro rob i =
  if i >= Ring.length rob then -1
  else begin
    let e = Ring.get rob i in
    match e.state with
    | Faulted _ -> i
    | Waiting | Issued -> -1
    | Done ->
      if (Uop.is_branch e.uop && e.taken) || e.uop.Uop.eom then i
      else scan_head_macro rob (i + 1)
  end

(* Are ROB entries [j..i-1] all done? *)
let rec all_done_before rob j i =
  j >= i
  || (match (Ring.get rob j).state with Done -> true | _ -> false)
     && all_done_before rob (j + 1) i

(* Memory-ordering gate: a plain store among ROB entries [i..last] to an
   address interlocked by another thread must wait for the release
   before committing. *)
let rec store_blocked t th ~last i =
  i <= last
  && ((let e = Ring.get th.rob i in
       match e.uop.Uop.op with
       | Uop.St ->
         Interlock.locked_by_other t.interlock ~core:t.core_id ~thread:th.tid
           ~paddr:e.paddr
       | _ -> false)
     || store_blocked t th ~last (i + 1))

(* Pop the LSQ's entries up to and including seq [last_seq]. *)
let rec pop_lsq_upto lsq last_seq =
  match Ring.peek lsq with
  | Some e when e.seq <= last_seq ->
    ignore (Ring.pop lsq);
    pop_lsq_upto lsq last_seq
  | _ -> ()

let release_old t entry =
  (match entry.old_rd with
  | Phys p when entry.uop.Uop.rd <> Uop.reg_none -> Physreg.release t.prf p
  | _ -> ());
  match entry.old_flags with
  | Phys p when entry.uop.Uop.setflags <> 0 -> Physreg.release t.prf p
  | _ -> ()


(* Commit one store to guest memory, with timing charge and SMC check.
   Returns true if a self-modifying-code flush is required. *)
let commit_store t th (e : rob_entry) =
  let ctx = th.ctx in
  Vmem.write t.env.Env.vmem ctx ~vaddr:e.vaddr ~size:e.uop.Uop.mem_size
    ~value:e.store_data ~at_rip:e.uop.Uop.rip;
  ignore (Hierarchy.store t.hierarchy ~cycle:(now t) ~paddr:e.paddr);
  if e.uop.Uop.op = Uop.Strel then
    Interlock.release t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid
      ~paddr:e.paddr;
  let first = Pm.mfn_of_paddr e.paddr in
  let n = W64.bytes_of_size e.uop.Uop.mem_size in
  let smc = Bbcache.store_committed t.bbcache first in
  if (e.paddr land Pm.page_mask) + n <= Pm.page_size then smc
  else
    (* a page-straddling store also writes the next page *)
    let last =
      Vmem.translate t.env.Env.vmem ctx
        ~vaddr:(Int64.add e.vaddr (Int64.of_int (n - 1)))
        ~write:true ~fetch:false ~at_rip:e.uop.Uop.rip
    in
    Bbcache.store_committed t.bbcache (Pm.mfn_of_paddr last) || smc

let train_branch t (e : rob_entry) =
  Stats.incr t.c_branches;
  if e.mispredicted then Stats.incr t.c_mispredicts;
  match e.uop.Uop.op with
  | Uop.Brc _ | Uop.Brnz | Uop.Brz ->
    Stats.incr t.c_cond_branches;
    Predictor.update_cond t.bpred ~rip:e.uop.Uop.rip ~taken:e.taken
      ~mispredicted:e.mispredicted
  | Uop.Jmpr ->
    if not e.uop.Uop.hint_ret then
      Predictor.update_target t.bpred ~rip:e.uop.Uop.rip ~target:e.target
  | Uop.Bru | _ -> ()

(* Deliver a fault precisely: nothing of the faulting instruction commits. *)
let commit_fault t th (f : Fault.t) =
  Stats.incr t.c_faults;
  if !Trace.on then
    Trace.emit ~core:t.core_id ~thread:th.tid ~rip:f.Fault.at_rip ~tag:"fault"
      Trace.Flush;
  annul_youngest t th (Ring.length th.rob);
  reset_rat t th;
  flush_fetch th;
  Interlock.release_all t.interlock ~cycle:(now t) ~core:t.core_id ~thread:th.tid;
  Assists.deliver_fault t.env th.ctx f;
  th.fetch_enabled <- true;
  th.redirect <-
    Some (now t + t.config.Config.redirect_penalty, To_rip th.ctx.Context.rip)

(* Commit the done macro-op whose last uop is ROB entry [last]. Returns
   whether commit may go on to the next macro-op this cycle. *)
let commit_macro t th ~last =
  let ctx = th.ctx in
  let nuops = last + 1 in
  let smc_flush = ref false in
  let assist_ran = ref false in
  let assist_fault = ref None in
  (try
     for i = 0 to last do
       let e = Ring.get th.rob i in
       Stats.incr t.c_uops;
       if !Trace.on then trace_uop t e Trace.Commit_uop;
       (match e.uop.Uop.op with
       | Uop.Ldl | Uop.Strel ->
         Interlock.trace t.interlock "%d: commit %s seq=%d th=%d acq=%b" (now t)
           (Uop.opcode_name e.uop.Uop.op) e.seq e.thread e.locked_acquired
       | _ -> ());
       (match e.uop.Uop.op with
       | Uop.Assist a ->
         Stats.incr t.c_assists;
         assist_ran := true;
         Assists.run t.env ctx e.uop a
       | _ ->
         if e.dest >= 0 && e.uop.Uop.rd <> Uop.reg_none then
           Context.set_reg ctx e.uop.Uop.rd e.result;
         if e.uop.Uop.setflags <> 0 then
           ctx.Context.flags <-
             ctx.Context.flags land lnot Flags.cc_mask
             lor (e.rflags land Flags.cc_mask);
         if Uop.is_store e.uop then begin
           Stats.incr t.c_stores;
           if commit_store t th e then smc_flush := true
         end;
         if Uop.is_load e.uop then Stats.incr t.c_loads;
         if Uop.is_branch e.uop then train_branch t e);
       release_old t e
     done
   with Fault.Guest_fault f ->
     (* an assist faulted (e.g. privileged op in user mode) *)
     assist_fault := Some f);
  match !assist_fault with
  | Some f ->
    (* the assist's own instruction must not complete: deliver *)
    commit_fault t th f;
    th.last_progress <- now t;
    false
  | None ->
    (* architectural RIP update *)
    let last_e = Ring.get th.rob last in
    if not !assist_ran then
      ctx.Context.rip <-
        (if Uop.is_branch last_e.uop && last_e.taken then last_e.target
         else last_e.uop.Uop.next_rip);
    (* remove the macro from ROB and LSQ *)
    for _ = 0 to last do
      ignore (Ring.pop th.rob)
    done;
    pop_lsq_upto th.lsq last_e.seq;
    Stats.incr t.c_insns;
    if !Trace.on then
      Trace.emit ~core:t.core_id ~thread:th.tid ~uuid:last_e.uuid
        ~rip:last_e.uop.Uop.rip ~slot:nuops ~tag:t.prefix Trace.Commit;
    ctx.Context.insns_committed <- ctx.Context.insns_committed + 1;
    if t.config.Config.count_uop_triads then
      Stats.add t.c_triads ((nuops + 2) / 3);
    th.last_progress <- now t;
    (* post-macro events, in priority order *)
    let go_on =
      if !assist_ran then begin
        flush_thread t th ~rip:ctx.Context.rip;
        false
      end
      else if !smc_flush then begin
        Stats.incr t.c_smc_flushes;
        flush_thread t th ~rip:ctx.Context.rip;
        false
      end
      else if Context.interruptible ctx then begin
        Stats.incr t.c_irqs;
        ignore (Assists.try_deliver_irq t.env ctx);
        flush_thread t th ~rip:ctx.Context.rip;
        false
      end
      else true
    in
    (* CR3 / invlpg effects *)
    if ctx.Context.tlb_generation <> th.tlb_gen_seen then begin
      th.tlb_gen_seen <- ctx.Context.tlb_generation;
      Tlb.flush t.dtlb;
      Tlb.flush t.itlb;
      Option.iter Pwc.flush t.pwc
    end;
    go_on

let commit_thread t th =
  let budget = ref t.config.Config.commit_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && not (Ring.is_empty th.rob) do
    let last = scan_head_macro th.rob 0 in
    if last < 0 then continue_ := false
    else
      match (Ring.get th.rob last).state with
      | Faulted f ->
        (* wait until everything before the faulting uop is done, so an
           older fault can still win *)
        if all_done_before th.rob 0 last then begin
          commit_fault t th f;
          th.last_progress <- now t
        end;
        continue_ := false
      | Waiting | Issued | Done ->
        if store_blocked t th ~last 0 || not (commit_macro t th ~last) then
          continue_ := false
        else budget := !budget - (last + 1)
  done

(* ---------- the cycle loop ---------- *)

type status = Running | All_idle

let count_mode_cycles t =
  let ctx = t.threads.(0).ctx in
  if not ctx.Context.running then Stats.incr t.c_idle_cycles
  else if Context.is_kernel ctx then Stats.incr t.c_kernel_cycles
  else Stats.incr t.c_user_cycles

let thread_idle th =
  (not th.ctx.Context.running) && Ring.is_empty th.rob && Ring.is_empty th.fetchq

(** Advance the core by one cycle (the driver owns env.cycle). *)
let step t =
  if !Trace.on then Trace.set_cycle (now t);
  Stats.incr t.c_cycles;
  count_mode_cycles t;
  let n = Array.length t.threads in
  for i = 0 to n - 1 do
    commit_thread t t.threads.(i)
  done;
  writeback t;
  issue t;
  for i = 0 to n - 1 do
    rename_thread t t.threads.(i)
  done;
  (* SMT fetch policy: one thread fetches per cycle, round-robin *)
  if n = 1 then fetch_thread t t.threads.(0)
  else begin
    let tried = ref 0 in
    let fetched = ref false in
    while (not !fetched) && !tried < n do
      let th = t.threads.((t.fetch_round + !tried) mod n) in
      if th.ctx.Context.running || Option.is_some th.redirect then begin
        fetch_thread t th;
        fetched := true;
        t.fetch_round <- (t.fetch_round + !tried + 1) mod n
      end;
      incr tried
    done
  end;
  for i = 0 to n - 1 do
    let th = t.threads.(i) in
    (* idle VCPUs waiting on interrupts *)
    if thread_idle th && Context.interruptible th.ctx then begin
      Stats.incr t.c_irqs;
      ignore (Assists.try_deliver_irq t.env th.ctx);
      th.fetch_enabled <- true;
      th.redirect <- Some (now t + 1, To_rip th.ctx.Context.rip);
      th.last_progress <- now t
    end
  done;
  (* watchdog: a stuck pipeline is a simulator bug; fail loudly with a
     typed fault the guard supervisor / CLI driver can render *)
  for i = 0 to n - 1 do
    let th = t.threads.(i) in
    if
      (not (thread_idle th))
      && now t - th.last_progress > t.config.Config.watchdog_cycles
    then
      Sim_failure.fail ~stats:t.env.Env.stats
        ~subsystem:(t.prefix ^ ".watchdog")
        ~kind:Sim_failure.Lockup ~cycle:(now t) ~rip:th.ctx.Context.rip
        (Printf.sprintf "core %d thread %d: no commit since cycle %d"
           t.core_id th.tid th.last_progress)
  done

let all_idle t = Array.for_all (fun th -> thread_idle th && not (Context.interruptible th.ctx)) t.threads

(** Standalone run loop for a single core: advances env.cycle itself.
    Stops when [max_cycles] elapse or every thread is idle with no
    pending interrupt (deadlock-free idle). *)
let run t ~max_cycles =
  let start = now t in
  let stop = ref false in
  while (not !stop) && now t - start < max_cycles do
    if all_idle t then stop := true
    else begin
      step t;
      t.env.Env.cycle <- t.env.Env.cycle + 1
    end
  done;
  now t - start

let insns t = Stats.value t.c_insns
let cycles t = Stats.value t.c_cycles

(* ---------- guard inspection hooks ----------

   Small read-only views of the pipeline structures for the lib/guard
   invariant registry. They return plain data (or a violation string) so
   the guard does not have to re-derive pipeline semantics. All run
   between cycles, when the structures are consistent. *)

(* Allocation-free age scan: first out-of-order adjacent (prev, seq)
   pair in a ring of entries, or None. The guard sweep runs these every
   few dozen cycles, so they must not allocate. *)
let first_unordered ring =
  let prev = ref min_int and bad = ref None in
  Ring.iter ring (fun e ->
      if !bad = None && e.seq <= !prev then bad := Some (!prev, e.seq);
      prev := e.seq);
  !bad

(** ROB age ordering: per-thread sequence numbers must be strictly
    increasing oldest-to-youngest. Returns a violation, or None. *)
let guard_rob_order_check t =
  let bad = ref None in
  Array.iteri
    (fun tid th ->
      if !bad = None then
        match first_unordered th.rob with
        | Some (a, b) ->
          bad :=
            Some
              (Printf.sprintf "thread %d: seq %d precedes %d (age order broken)"
                 tid a b)
        | None -> ())
    t.threads;
  !bad

(** LSQ consistency: age-ordered, memory uops only, and every entry
    still present in its thread's ROB (a dangling LSQ entry survives its
    own annulment). Returns a violation, or None. *)
let guard_lsq_check t =
  let bad = ref None in
  Array.iteri
    (fun tid th ->
      if !bad = None then begin
        (match first_unordered th.lsq with
        | Some (a, b) ->
          bad := Some (Printf.sprintf "thread %d: seq %d precedes %d" tid a b)
        | None -> ());
        if !bad = None then begin
          (* membership via merge walk: both rings are age-ordered (just
             verified), so the LSQ must be a subsequence of the ROB —
             O(|ROB| + |LSQ|) instead of a quadratic scan *)
          let nr = Ring.length th.rob and nl = Ring.length th.lsq in
          let ri = ref 0 in
          (try
             for li = 0 to nl - 1 do
               let e = Ring.get th.lsq li in
               if not (Uop.is_mem e.uop) then begin
                 bad :=
                   Some
                     (Printf.sprintf "thread %d: LSQ seq %d is not a memory uop"
                        tid e.seq);
                 raise Exit
               end;
               while !ri < nr && not (Ring.get th.rob !ri == e) do
                 incr ri
               done;
               if !ri >= nr then begin
                 bad :=
                   Some
                     (Printf.sprintf "thread %d: LSQ seq %d has no ROB entry"
                        tid e.seq);
                 raise Exit
               end;
               incr ri
             done
           with Exit -> ())
        end
      end)
    t.threads;
  !bad

(** Visit every physical register the pipeline currently references:
    RAT mappings, in-flight destinations, and the old mappings held for
    commit-time release (sources are always a subset of these but are
    included for the dangling-reference check). *)
let guard_iter_referenced t f =
  let add i = if i >= 0 then f i in
  let add_rat = function Phys p -> add p | Arch -> () in
  Array.iter
    (fun th ->
      Array.iter add_rat th.rat;
      Ring.iter th.rob (fun e ->
          add e.dest;
          add e.dest_flags;
          if e.uop.Uop.rd <> Uop.reg_none then add_rat e.old_rd;
          if e.uop.Uop.setflags <> 0 then add_rat e.old_flags;
          add_rat e.src_a;
          add_rat e.src_b;
          add_rat e.src_c;
          add_rat e.src_f))
    t.threads

(** Issue-queue slot conservation, both directions: every occupied slot
    holds a Waiting entry that claims this cluster; every ROB entry
    claiming a queue slot occupies exactly one; per-cluster occupied
    slots equal per-cluster ROB claimers (so a stale annulled entry
    cannot hide in a slot — the counts would disagree); and each
    cluster's incrementally kept free-slot count equals a recount of its
    empty slots. Returns a violation description, or None when
    consistent. *)
let guard_iq_check t =
  let violation = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  let nclusters = Array.length t.iqs in
  let occupied = Array.make nclusters 0 in
  let claimed = Array.make nclusters 0 in
  Array.iteri
    (fun ci q ->
      Array.iter
        (fun slot ->
          match slot with
          | None -> ()
          | Some { slot_rob = e } ->
            occupied.(ci) <- occupied.(ci) + 1;
            if e.in_iq <> ci then
              note "iq[%d]: slot entry seq %d claims cluster %d" ci e.seq e.in_iq
            else if e.state <> Waiting then
              note "iq[%d]: slot entry seq %d not in Waiting state" ci e.seq)
        q)
    t.iqs;
  Array.iter
    (fun th ->
      Ring.iter th.rob (fun e ->
          if e.in_iq >= 0 then begin
            if e.in_iq >= nclusters then
              note "rob seq %d: in_iq=%d out of range" e.seq e.in_iq
            else begin
              claimed.(e.in_iq) <- claimed.(e.in_iq) + 1;
              let occurrences =
                Array.fold_left
                  (fun a slot ->
                    match slot with
                    | Some { slot_rob } when slot_rob == e -> a + 1
                    | _ -> a)
                  0 t.iqs.(e.in_iq)
              in
              if occurrences <> 1 then
                note "rob seq %d: claims iq[%d] but occupies %d slots" e.seq
                  e.in_iq occurrences
            end
          end))
    t.threads;
  if !violation = None then
    for ci = 0 to nclusters - 1 do
      if occupied.(ci) <> claimed.(ci) then
        note "iq[%d]: %d slots occupied but %d ROB entries claim one" ci
          occupied.(ci) claimed.(ci)
    done;
  Array.iteri
    (fun ci q ->
      let empty = Array.length q - occupied.(ci) in
      if t.iq_free.(ci) <> empty then
        note "iq[%d]: free-slot count %d but %d slots are empty" ci
          t.iq_free.(ci) empty)
    t.iqs;
  !violation

(** Locks still held with every thread idle are leaked interlocks. *)
let guard_interlock_check t =
  if all_idle t && Interlock.count t.interlock > 0 then
    Some
      (Printf.sprintf "%d interlock(s) held with all threads idle"
         (Interlock.count t.interlock))
  else None
