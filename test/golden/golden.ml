(* Golden statistics: the timing referee for the cycle-level cores.

   Each scenario runs a small deterministic workload and prints its
   whole statistics tree. The dune rules in this directory diff the
   output against the committed [*.expected] file, so any change that
   moves a single counter fails [dune runtest]. Cosim, fuzzing and the
   ISA oracle only compare architectural state; these files pin timing.
   After an intended timing change, inspect the diff and accept it with
   [dune promote].

   Usage: golden.exe SCENARIO *)

module Machine = Ptl_arch.Machine
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Config = Ptl_ooo.Config
module Ooo = Ptl_ooo.Ooo_core
module Domain = Ptl_hyper.Domain
module Sample = Ptl_sample.Sample
module Stats = Ptl_stats.Statstree
module MB = Ptl_workloads.Microbench
module G = Ptl_workloads.Gasm
module Insn = Ptl_isa.Insn
module W64 = Ptl_util.W64

let dump (env : Env.t) = print_string (Stats.dump env.Env.stats)

(* A bare machine driven through the domain, as [optlsim compute --bare]
   and [optlsim vm] do. *)
let run_domain ?(heap_pages = 64) ?(huge_heap = false) config program =
  let m = Machine.create ~heap_pages ~huge_heap program in
  let d = Domain.create ~core:"ooo" ~config m.Machine.env m.Machine.ctx in
  Domain.submit d "-run";
  ignore (Domain.run d);
  Printf.printf "insns = %d\n" (Domain.insns d);
  dump m.Machine.env

let k8_compute () = run_domain Config.k8_ptlsim (MB.compute ~iters:12_000 ~bare:true)

(* Dense SSE-double matrix multiply: the K8's three-wide FP cluster and
   its two-cycle forwarding delay. Matrix contents do not affect timing. *)
let k8_matmul () = run_domain Config.k8_ptlsim (MB.matmul ~n:16)

(* Quicksort on the small test core: one two-wide cluster, where a
   mispredicted compare branch annuls younger uops picked in the same
   cycle, and hard-to-predict branches keep that frequent. *)
let tiny_qsort () =
  let n = 300 in
  let m = Machine.create ~heap_pages:8 (MB.qsort ~n) in
  let vaddr, bytes = MB.qsort_keys ~n ~seed:99 in
  String.iteri
    (fun i c ->
      Machine.write_mem m
        ~vaddr:(Int64.add vaddr (Int64.of_int i))
        ~size:W64.B1 ~value:(Int64.of_int (Char.code c)))
    bytes;
  let core = Ooo.create Config.tiny m.Machine.env [| m.Machine.ctx |] in
  ignore (Ooo.run core ~max_cycles:10_000_000);
  Printf.printf "inversions = %Ld\n" (Machine.gpr m Ptl_isa.Regs.rax);
  dump m.Machine.env

(* 2^15 slots = 256 KiB of table: past the K8's 32-entry 4K DTLB reach
   and its L1D, inside one 2M page. *)
let gups ~huge =
  let slots = 1 lsl 15 in
  let config = { Config.k8_ptlsim with Config.tlb_hugepages = huge } in
  run_domain ~heap_pages:(slots * 8 / 4096) ~huge_heap:huge config
    (MB.gups ~slots ~steps:2_500 ())

(* Two SMT threads contend for one lock (a locked xchg spin) and bump a
   shared counter: interlocks, replays and the per-thread issue-queue
   reservation, on the K8's four clusters and on the test core's one. *)
let smt2 base =
  let iters = 300 in
  let g = G.create ~base:0x40_0000L () in
  G.li g G.rbp Machine.heap_base;
  G.lii g G.r12 iters;
  G.label g "again";
  G.label g "spin";
  G.lii g G.rax 1;
  G.ins g (Insn.Xchg (W64.B8, Insn.Mem (Insn.mem_bd G.rbp 0L), G.rax));
  G.cmpi g G.rax 0;
  G.jne g "spin";
  G.ld g G.rcx ~base:G.rbp ~disp:8 ();
  G.addi g G.rcx 1;
  G.st g ~base:G.rbp ~disp:8 G.rcx ();
  G.xor g G.rax G.rax;
  G.st g ~base:G.rbp G.rax ();
  G.dec g G.r12;
  G.jne g "again";
  G.ins g Insn.Hlt;
  let m = Machine.create (G.assemble g) in
  let ctx2 = Context.create ~vcpu_id:1 in
  Context.restore ctx2 ~snapshot:m.Machine.ctx;
  let config = { base with Config.smt_threads = 2 } in
  let core = Ooo.create config m.Machine.env [| m.Machine.ctx; ctx2 |] in
  ignore (Ooo.run core ~max_cycles:10_000_000);
  Printf.printf "counter = %Ld\n"
    (Machine.read_mem m ~vaddr:(Int64.add Machine.heap_base 8L) ~size:W64.B8);
  dump m.Machine.env

(* The serial sampled pipeline over the bare compute loop: fast-forward
   with functional warming, then timed warm-up and measured windows. *)
let sampled () =
  let m = Machine.create (MB.compute ~iters:40_000 ~bare:true) in
  let d = Domain.create ~core:"ooo" ~config:Config.k8_ptlsim m.Machine.env m.Machine.ctx in
  let schedule = { Sample.ff_insns = 40_000; warmup_insns = 1_000; measure_insns = 2_000 } in
  Sample.report stdout (Sample.run ~schedule d);
  dump m.Machine.env

let () =
  match Sys.argv with
  | [| _; "k8-compute" |] -> k8_compute ()
  | [| _; "k8-matmul" |] -> k8_matmul ()
  | [| _; "gups-4k" |] -> gups ~huge:false
  | [| _; "gups-2m" |] -> gups ~huge:true
  | [| _; "tiny-qsort" |] -> tiny_qsort ()
  | [| _; "smt2" |] -> smt2 Config.k8_ptlsim
  | [| _; "tiny-smt2" |] -> smt2 Config.tiny
  | [| _; "sampled" |] -> sampled ()
  | _ ->
    prerr_endline "usage: golden.exe k8-compute|k8-matmul|tiny-qsort|gups-4k|gups-2m|smt2|tiny-smt2|sampled";
    exit 2
