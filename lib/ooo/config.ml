(** Machine configuration for the out-of-order core.

    Everything the paper calls configurable (§2.2) is a field here: the
    clustered microarchitecture with per-cluster issue queues and
    inter-cluster forwarding latencies, functional unit mix, uop latencies,
    physical register file size, fetch/rename/commit widths, ROB and
    load/store queue sizes, branch predictor, TLBs, cache hierarchy,
    load hoisting and L1 bank-conflict enforcement. *)

module Uop = Ptl_uop.Uop

(** Functional unit classes; each uop maps to one. *)
type fu_class = FU_alu | FU_mul | FU_div | FU_mem | FU_fp | FU_branch

type cluster = {
  cl_name : string;
  iq_size : int;  (* issue queue entries (collapsing) *)
  issue_width : int;  (* uops selected per cycle from this cluster *)
  fu_classes : fu_class list;  (* which classes this cluster hosts *)
  forward_delay : int;  (* extra cycles for results produced elsewhere *)
}

type t = {
  name : string;
  fetch_width : int;  (* uops fetched per cycle *)
  frontend_stages : int;  (* fetch-to-rename pipeline depth *)
  rename_width : int;
  commit_width : int;
  fetch_queue : int;
  rob_size : int;
  lsq_size : int;  (* unified load/store queue entries *)
  phys_regs : int;  (* physical register pool *)
  clusters : cluster list;
  bpred : Ptl_bpred.Predictor.config;
  dtlb : Ptl_mem.Tlb.config;
  itlb : Ptl_mem.Tlb.config;
  hierarchy : Ptl_mem.Hierarchy.config;
  (* Page-walk cache entries per level (0 = no PWC): per-level walker
     caches that cut a TLB miss's dependent loads (lib/mem/pwc.ml). *)
  pwc_entries : int;
  (* Honor 2M PDE leaves with single huge TLB entries; when false the
     TLB fragments huge mappings into exact 4K entries (architecturally
     identical, so both legs of a sweep replay the same capture). *)
  tlb_hugepages : bool;
  (* Guest-kernel VM policy axes, carried in the core config so sweep
     legs digest them: lazily-populated address spaces (demand paging)
     and the watermark-driven reclaim loop (0 watermark = no reclaim). *)
  vm_demand_paging : bool;
  vm_reclaim_watermark : int;  (* min free frames before reclaim kicks in *)
  vm_reclaim_batch : int;  (* frames evicted per reclaim pass *)
  load_hoisting : bool;  (* speculative loads past unresolved stores *)
  enforce_banking : bool;  (* L1D bank-conflict replays *)
  redirect_penalty : int;  (* extra cycles on fetch redirect (mispredict) *)
  smt_threads : int;
  (* K8 counts retired "uop triads" (groups of up to 3); when set, the
     committed-uop counter advances by ceil(n/3) per macro-op (§5). *)
  count_uop_triads : bool;
  (* Lockup watchdog: a thread that is not idle yet commits nothing for
     this many cycles is a simulator bug; the core raises a typed
     {!Sim_failure} (the guard supervisor turns it into a diagnostic
     bundle). *)
  watchdog_cycles : int;
}

(** Execution latency of each uop class, in cycles. *)
let uop_latency (u : Uop.t) =
  match u.Uop.op with
  | Uop.Mull | Uop.Mulhu | Uop.Mulhs -> 3
  | Uop.Divqu | Uop.Remqu | Uop.Divqs | Uop.Remqs -> 23
  | Uop.Fadd | Uop.Fsub | Uop.Fcmp -> 4
  | Uop.Fmul -> 4
  | Uop.Fdiv -> 17
  | Uop.I2f | Uop.F2i | Uop.Fmov -> 2
  | _ -> 1

let fu_class_of (u : Uop.t) =
  match u.Uop.op with
  | Uop.Ld | Uop.Ldl | Uop.St | Uop.Strel | Uop.Fence -> FU_mem
  | Uop.Mull | Uop.Mulhu | Uop.Mulhs -> FU_mul
  | Uop.Divqu | Uop.Remqu | Uop.Divqs | Uop.Remqs -> FU_div
  | Uop.Fadd | Uop.Fsub | Uop.Fmul | Uop.Fdiv | Uop.Fmov | Uop.I2f | Uop.F2i
  | Uop.Fcmp -> FU_fp
  | Uop.Bru | Uop.Brc _ | Uop.Brnz | Uop.Brz | Uop.Jmpr -> FU_branch
  | _ -> FU_alu

(** Dense index of a functional unit class, for per-class tables. *)
let fu_index = function
  | FU_alu -> 0
  | FU_mul -> 1
  | FU_div -> 2
  | FU_mem -> 3
  | FU_fp -> 4
  | FU_branch -> 5

let num_fu_classes = 6

(** The paper's §5 configuration of PTLsim to match the AMD K8: 72-entry
    ROB, 44-entry load/store queue, three 8-entry integer issue queues
    (the K8's three "lanes"), a 36-entry FP issue queue two cycles away,
    128-entry physical register file, no load hoisting, 8-way banked L1D,
    single-level 32-entry TLBs, 16K gshare predictor. *)
let k8_ptlsim =
  let int_lane i =
    {
      cl_name = Printf.sprintf "int%d" i;
      iq_size = 8;
      issue_width = 1;
      fu_classes = [ FU_alu; FU_branch; FU_mem ] @ (if i = 0 then [ FU_mul; FU_div ] else []);
      forward_delay = 0;
    }
  in
  {
    name = "k8-ptlsim";
    fetch_width = 3;
    frontend_stages = 6;
    rename_width = 3;
    commit_width = 3;
    fetch_queue = 24;
    rob_size = 72;
    lsq_size = 44;
    phys_regs = 128;
    clusters =
      [ int_lane 0; int_lane 1; int_lane 2;
        { cl_name = "fp"; iq_size = 36; issue_width = 3; fu_classes = [ FU_fp ];
          forward_delay = 2 } ];
    bpred = Ptl_bpred.Predictor.k8_ptlsim;
    dtlb = Ptl_mem.Tlb.ptlsim_config;
    itlb = Ptl_mem.Tlb.ptlsim_config;
    hierarchy = Ptl_mem.Hierarchy.k8_ptlsim;
    pwc_entries = 0;
    tlb_hugepages = false;
    vm_demand_paging = false;
    vm_reclaim_watermark = 0;
    vm_reclaim_batch = 8;
    load_hoisting = false;
    enforce_banking = true;
    redirect_penalty = 10;
    smt_threads = 1;
    count_uop_triads = false;
    watchdog_cycles = 500_000;
  }

(** The "reference silicon" configuration: what the real Athlon 64 had
    that the PTLsim model of the paper did not — a two-level DTLB with a
    PDE cache, a hardware prefetcher, a slightly weaker direction
    predictor, and uop-triad retirement counting. Running the same
    workload under both configurations reproduces the Table 1 deltas. *)
let k8_silicon =
  {
    k8_ptlsim with
    name = "k8-silicon";
    bpred = Ptl_bpred.Predictor.k8_silicon;
    dtlb = Ptl_mem.Tlb.k8_config;
    itlb = Ptl_mem.Tlb.k8_config;
    hierarchy = Ptl_mem.Hierarchy.k8_silicon;
    count_uop_triads = true;
  }

(** A small default core for tests: tight structures so hazards are easy
    to provoke. *)
let tiny =
  {
    name = "tiny";
    fetch_width = 2;
    frontend_stages = 3;
    rename_width = 2;
    commit_width = 2;
    fetch_queue = 8;
    rob_size = 16;
    lsq_size = 8;
    phys_regs = 48;
    clusters =
      [ { cl_name = "all"; iq_size = 8; issue_width = 2;
          fu_classes = [ FU_alu; FU_branch; FU_mem; FU_mul; FU_div; FU_fp ];
          forward_delay = 0 } ];
    bpred =
      { Ptl_bpred.Predictor.direction = Ptl_bpred.Predictor.Gshare { table_bits = 10; history_bits = 8 };
        btb_entries = 64; btb_ways = 4; ras_entries = 8 };
    dtlb = { Ptl_mem.Tlb.l1_entries = 8; l1_ways = 8; l2 = None; pde_entries = 0 };
    itlb = { Ptl_mem.Tlb.l1_entries = 8; l1_ways = 8; l2 = None; pde_entries = 0 };
    pwc_entries = 0;
    tlb_hugepages = false;
    vm_demand_paging = false;
    vm_reclaim_watermark = 0;
    vm_reclaim_batch = 8;
    hierarchy =
      {
        Ptl_mem.Hierarchy.l1d =
          { Ptl_mem.Cache.name = "L1D"; size_bytes = 4096; line_size = 64; ways = 2;
            latency = 2; banks = 4; replacement = Ptl_mem.Cache.Lru };
        l1i =
          { Ptl_mem.Cache.name = "L1I"; size_bytes = 4096; line_size = 64; ways = 2;
            latency = 1; banks = 1; replacement = Ptl_mem.Cache.Lru };
        l2 =
          { Ptl_mem.Cache.name = "L2"; size_bytes = 65536; line_size = 64; ways = 4;
            latency = 6; banks = 1; replacement = Ptl_mem.Cache.Lru };
        l3 = None;
        mem_latency = 40;
        mshrs = 4;
        prefetch_next_line = false;
      };
    load_hoisting = false;
    enforce_banking = false;
    redirect_penalty = 4;
    smt_threads = 1;
    count_uop_triads = false;
    watchdog_cycles = 500_000;
  }
