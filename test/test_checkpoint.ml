(* Checkpoint round-trip property tests (lib/hyper/checkpoint base +
   delta checkpoints): capturing a warmed bare machine, running on,
   restoring and diffing must be lossless — and a single planted
   mutation in any checkpointed subsystem (cache LRU, TLB entry,
   predictor counter, architectural register, guest memory page) must
   be detected by [Checkpoint.diff] with the owning subsystem named,
   then healed by [Checkpoint.restore]. *)

module Machine = Ptl_arch.Machine
module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Insn = Ptl_isa.Insn
module Regs = Ptl_isa.Regs
module W64 = Ptl_util.W64
module Config = Ptl_ooo.Config
module Uarch = Ptl_ooo.Uarch
module Hierarchy = Ptl_mem.Hierarchy
module Cache = Ptl_mem.Cache
module Tlb = Ptl_mem.Tlb
module Pm = Ptl_mem.Phys_mem
module Predictor = Ptl_bpred.Predictor
module Domain = Ptl_hyper.Domain
module Checkpoint = Ptl_hyper.Checkpoint
module Sample = Ptl_sample.Sample
module G = Ptl_workloads.Gasm

(* A bare machine (no minios kernel) running the standard 4-insn
   arithmetic loop, ending in hlt; the only kind of domain delta
   checkpoints support. *)
let bare_loop ?(core = "ooo") ?(config = Config.tiny) ~iters () =
  let g = G.create () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.rbx 0;
  G.lii g G.rcx iters;
  G.label g "top";
  G.ld g G.rax ~base:G.rbp ();
  G.addi g G.rax 1;
  G.st g ~base:G.rbp G.rax ();
  G.add g G.rbx G.rcx;
  G.addi g G.rbx 3;
  G.dec g G.rcx;
  G.jne g "top";
  G.ins g Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  (Domain.create ~core ~config m.Machine.env m.Machine.ctx, m)

(* Drive natively with functional warming for ~[insns] instructions so
   every checkpointed structure (cache tags/LRU, TLBs, predictor) holds
   real content before we snapshot it. *)
let warmed_machine ?(config = Config.tiny) ?(insns = 20_000) () =
  let d, m = bare_loop ~config ~iters:200_000 () in
  let u = Uarch.create ~prefix:"ooo" config d.Domain.env.Env.stats in
  Domain.set_uarch d u;
  let (_ : unit -> unit) = Sample.install_warming d u in
  Domain.enter_native d;
  let target = d.Domain.ctx.Context.insns_committed + insns in
  let alive = ref true in
  while !alive && d.Domain.ctx.Context.insns_committed < target do
    alive := Domain.drive_once d
  done;
  Sample.remove_warming d;
  (d, u, m)

let no_diff name diff =
  Alcotest.(check (list string)) name [] diff

let contains line needle =
  let nl = String.length needle and ll = String.length line in
  let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
  go 0

(* drive the domain natively for ~[insns] more instructions *)
let drive d ~insns =
  let ctx = d.Domain.ctx in
  let target = ctx.Context.insns_committed + insns in
  let alive = ref true in
  while !alive && ctx.Context.insns_committed < target do
    alive := Domain.drive_once d
  done

(* a base image, then a delta [insns] instructions later *)
let capture ?(insns = 2_000) d u =
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base = Checkpoint.capture_base ~uarch:u env in
  drive d ~insns;
  (base, Checkpoint.capture_delta ~base ~uarch:u env ctx)

(* Restore [base + dk] in place: memory rebuilt from the image (as a
   capture resume does), then the one restore, which must start
   nothing cold under the capturing configuration. *)
let restore_in_place ~base dk ~uarch env ctx =
  Pm.restore env.Env.mem ~snapshot:(Checkpoint.clone_mem ~base dk);
  Alcotest.(check (list string)) "nothing started cold" []
    (Checkpoint.restore ~base dk ~uarch env ctx)

(* capture -> run on -> restore -> diff must be empty; and the restored
   machine must re-run to the same architectural result *)
let test_round_trip () =
  let d, u, _ = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = capture d u in
  no_diff "clean immediately after capture"
    (Checkpoint.diff ~base dk ~uarch:u env ctx);
  (* run forward: the live state must drift away from the checkpoint *)
  drive d ~insns:5_000;
  Alcotest.(check bool) "drifted after running" true
    (Checkpoint.diff ~base dk ~uarch:u env ctx <> []);
  let rbx_first =
    let budget = ref 2_000_000 in
    while Domain.drive_once d && !budget > 0 do decr budget done;
    Context.gpr ctx G.rbx
  in
  restore_in_place ~base dk ~uarch:u env ctx;
  no_diff "exact after restore" (Checkpoint.diff ~base dk ~uarch:u env ctx);
  (* replay from the checkpoint: same architectural end state *)
  let budget = ref 2_000_000 in
  while Domain.drive_once d && !budget > 0 do decr budget done;
  Alcotest.(check int64) "replay reaches the same result" rbx_first
    (Context.gpr ctx G.rbx)

(* Plant a mutation, expect [Checkpoint.diff] to name [needle], heal it
   with a restore in place. *)
let plant ~base dk ~uarch env ctx name mutate needle =
  mutate ();
  let diff = Checkpoint.diff ~base dk ~uarch env ctx in
  Alcotest.(check bool) (name ^ ": detected") true (diff <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s: diff names %s (got: %s)" name needle
       (String.concat " | " diff))
    true
    (List.exists (fun line -> contains line needle) diff);
  restore_in_place ~base dk ~uarch env ctx;
  no_diff (name ^ ": healed by restore")
    (Checkpoint.diff ~base dk ~uarch env ctx)

(* one planted mutation per checkpointed subsystem; each must be
   detected (with the subsystem named) and healed by restore *)
let test_planted_mutations () =
  let d, u, m = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = capture d u in
  no_diff "clean baseline" (Checkpoint.diff ~base dk ~uarch:u env ctx);
  let plant = plant ~base dk ~uarch:u env ctx in
  plant "cache LRU"
    (fun () ->
      Alcotest.(check bool) "a valid line to touch" true
        (Cache.debug_touch_lru u.Uarch.hierarchy.Hierarchy.l1d))
    "L1D";
  plant "TLB entry"
    (fun () ->
      Tlb.insert u.Uarch.dtlb 0x7bcd_e123L
        { Tlb.vpn = 0L; mfn = 0x999; writable = true; user = true; nx = false; huge = false })
    "dtlb";
  plant "predictor counter"
    (fun () ->
      Predictor.warm_cond u.Uarch.bpred ~rip:0x40_0040L ~taken:true;
      (* a saturated counter plus an unchanged history can absorb one
         update; the opposite direction is then guaranteed to move *)
      if Checkpoint.diff ~base dk ~uarch:u env ctx = [] then
        Predictor.warm_cond u.Uarch.bpred ~rip:0x40_0040L ~taken:false)
    "bpred";
  plant "architectural register"
    (fun () ->
      Context.set_gpr ctx Regs.r8
        (Int64.logxor (Context.gpr ctx Regs.r8) 0xDEAD_BEEFL))
    "r8";
  plant "dirty page"
    (fun () ->
      let vaddr = Machine.heap_base in
      let old = Machine.read_mem m ~vaddr ~size:W64.B1 in
      Machine.write_mem m ~vaddr ~size:W64.B1
        ~value:(Int64.logxor old 0xFFL))
    "mem: frame"

(* An independent referee for the capture moment: a machine checkpoint
   and a full uarch snapshot taken at the same instant as a delta. *)
let referee d u =
  (Checkpoint.Machine.capture d.Domain.env d.Domain.ctx, Uarch.snapshot u)

let referee_diff (mk, snap) ~uarch env ctx =
  Checkpoint.Machine.diff mk env ctx @ Uarch.diff uarch snap

(* delta checkpoints: base + delta must restore the capture moment
   exactly (verified against a machine checkpoint and uarch snapshot
   taken at the same instant), with a footprint well under the full
   image *)
let test_delta_round_trip () =
  let d, u, _ = warmed_machine () in
  let env = d.Domain.env and ctx = d.Domain.ctx in
  let base, dk = capture ~insns:4_000 d u in
  let moment = referee d u in
  Alcotest.(check bool) "delta has a footprint" true
    (Checkpoint.delta_pages dk > 0);
  Alcotest.(check bool) "delta smaller than the full image" true
    (Checkpoint.delta_page_bytes dk < Checkpoint.full_page_bytes env);
  drive d ~insns:4_000;
  Alcotest.(check bool) "drifted past the capture point" true
    (referee_diff moment ~uarch:u env ctx <> []);
  restore_in_place ~base dk ~uarch:u env ctx;
  no_diff "base + delta restores exactly"
    (referee_diff moment ~uarch:u env ctx)

(* Fresh worker state built the way replay builds it: a copy-on-write
   clone of the base overlaid with the delta, a new context and uarch
   under [config], and the one restore. Returns the cold list too. *)
let worker_state ?(config = Config.tiny) ~base dk =
  let stats = Ptl_stats.Statstree.create () in
  let wenv = Env.create ~stats ~mem:(Checkpoint.clone_mem ~base dk) () in
  let wctx = Context.create ~vcpu_id:0 in
  let wu = Uarch.create ~prefix:"ooo" config stats in
  let cold = Checkpoint.restore ~base dk ~uarch:wu wenv wctx in
  (wenv, wctx, wu, cold)

(* the worker-side rebuild path (lib/sample replay_delta, lib/fleet):
   a copy-on-write clone of the base overlaid with the delta, plus
   fresh context/uarch, must equal the capture moment exactly *)
let test_delta_clone_worker_state () =
  let d, u, _ = warmed_machine () in
  let base, dk = capture ~insns:4_000 d u in
  let moment = referee d u in
  let wenv, wctx, wu, _ = worker_state ~base dk in
  no_diff "fresh worker state equals the capture moment"
    (referee_diff moment ~uarch:wu wenv wctx);
  no_diff "and diffs clean against base + delta"
    (Checkpoint.diff ~base dk ~uarch:wu wenv wctx);
  (* and the worker's writes never leak into the shared base image *)
  let probe = Int64.to_int Machine.heap_base in
  let before = Pm.read64 base.Checkpoint.bk_mem probe in
  Pm.write64 wenv.Env.mem probe (Int64.logxor before 0xDEAD_BEEFL);
  Alcotest.(check int64) "base image untouched by worker writes" before
    (Pm.read64 base.Checkpoint.bk_mem probe)

(* The cold-component list: empty under the capturing configuration;
   a changed PWC geometry starts exactly the PWC cold while every other
   component still restores exactly. *)
let test_restore_cold_components () =
  let config = { Config.tiny with Config.pwc_entries = 8 } in
  let d, u, _ = warmed_machine ~config () in
  let base, dk = capture d u in
  let _, _, _, cold = worker_state ~config ~base dk in
  Alcotest.(check (list string)) "same config: nothing cold" [] cold;
  let wenv, wctx, wu, cold =
    worker_state ~config:{ config with Config.pwc_entries = 16 } ~base dk
  in
  Alcotest.(check (list string)) "changed pwc.entries: pwc cold" [ "pwc" ] cold;
  no_diff "every other component restored exactly"
    (List.filter
       (fun line -> not (contains line "pwc"))
       (Checkpoint.diff ~base dk ~uarch:wu wenv wctx))

(* A capture resume must reproduce the original pass exactly, so a
   resume point whose warmed state does not fit the domain's machine
   configuration is refused rather than resumed with cold components. *)
let test_resume_refuses_changed_config () =
  let schedule =
    { Sample.ff_insns = 6_000; warmup_insns = 800; measure_insns = 1_200 }
  in
  let d, _ = bare_loop ~iters:5_000 () in
  let cr = Sample.run_capture ~schedule d in
  Alcotest.(check bool) "windows to resume from" true
    (Array.length cr.Sample.cr_deltas >= 2);
  let rs =
    {
      Sample.rs_base = cr.Sample.cr_base;
      rs_last = cr.Sample.cr_deltas.(1);
      rs_count = 2;
      rs_delta_bytes = 0;
      rs_full_bytes = 0;
    }
  in
  let d', _ =
    bare_loop ~config:{ Config.tiny with Config.pwc_entries = 8 } ~iters:5_000
      ()
  in
  match Sample.run_capture ~resume:rs ~schedule d' with
  | _ -> Alcotest.fail "resume under a changed config was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "names the cold component (got: %s)" msg)
      true (contains msg "pwc")

(* Page-walk-cache and hugepage-TLB state are part of the uarch
   checkpoint: a capture round-trips losslessly, a planted mutation in
   either structure is detected with the owner named, and restore heals
   it. *)
let test_pwc_hugepage_checkpoint () =
  let cfg =
    { Config.tiny with Config.pwc_entries = 8; Config.tlb_hugepages = true }
  in
  let g = G.create () in
  G.ins g Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  let env = m.Machine.env and ctx = m.Machine.ctx in
  let u = Uarch.create ~prefix:"ooo" cfg env.Ptl_arch.Env.stats in
  let pwc = Option.get u.Uarch.pwc in
  let module Pwc = Ptl_mem.Pwc in
  (* warm the walk caches and a hugepage TLB entry *)
  Pwc.insert pwc 0x40000000L ~pte_addrs:[ 0x1000; 0x2000; 0x3000; 0x4000 ];
  Pwc.insert pwc 0x7_f800_0000L ~pte_addrs:[ 0x1000; 0x5000; 0x6000 ];
  let huge_entry mfn =
    { Tlb.vpn = 0L; mfn; writable = true; user = true; nx = false; huge = true }
  in
  Tlb.insert u.Uarch.dtlb 0x40057123L (huge_entry 0x200);
  let base = Checkpoint.capture_base ~uarch:u env in
  let dk = Checkpoint.capture_delta ~base ~uarch:u env ctx in
  no_diff "clean after capture" (Checkpoint.diff ~base dk ~uarch:u env ctx);
  let plant = plant ~base dk ~uarch:u env ctx in
  plant "PWC entry"
    (fun () ->
      Pwc.insert pwc 0x1_2340_0000L
        ~pte_addrs:[ 0x1000; 0x7000; 0x8000; 0x9000 ])
    "pwc";
  plant "hugepage TLB entry"
    (fun () -> Tlb.insert u.Uarch.dtlb 0x40257123L (huge_entry 0x400))
    "dtlb";
  (* the huge entry survived both round trips: one entry still covers
     its whole 2M region *)
  (match Tlb.lookup_quiet u.Uarch.dtlb 0x401FF458L with
  | Tlb.L1_hit e | Tlb.L2_hit e ->
    Alcotest.(check bool) "restored entry still huge" true e.Tlb.huge
  | Tlb.Tlb_miss -> Alcotest.fail "huge entry lost in the round trip");
  (* a PWC of different geometry refuses the snapshot (the restore then
     starts it cold instead) *)
  let other = Pwc.create ~entries:16 () in
  match base.Checkpoint.bk_uarch.Uarch.sn_pwc with
  | Some psnap ->
    Alcotest.(check bool) "geometry mismatch does not fit" false
      (Pwc.fits other psnap)
  | None -> Alcotest.fail "checkpoint lost the PWC snapshot"

let suite =
  [
    Alcotest.test_case "full round trip is lossless" `Quick test_round_trip;
    Alcotest.test_case "pwc + hugepage TLB checkpoint" `Quick
      test_pwc_hugepage_checkpoint;
    Alcotest.test_case "planted mutations are detected" `Quick
      test_planted_mutations;
    Alcotest.test_case "delta round trip is lossless" `Quick
      test_delta_round_trip;
    Alcotest.test_case "delta clone rebuilds worker state" `Quick
      test_delta_clone_worker_state;
    Alcotest.test_case "restore reports cold components" `Quick
      test_restore_cold_components;
    Alcotest.test_case "capture resume refuses a changed config" `Quick
      test_resume_refuses_changed_config;
  ]
