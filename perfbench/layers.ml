(* Per-layer costs for the traced run, measured by replaying a workload's
   own inputs into each layer's public functions.

   A recording pass runs the workload on the functional core with
   Seqcore hooks that keep the block-start RIPs (with each block's code
   bytes), and the data addresses. Translation cost is measured during
   the pass itself, in batches against the live page tables. After the
   pass the recorded inputs are replayed into fresh instances of the
   basic block cache, uop execution, the cache hierarchy and the DTLB.
   Block starts are inferred from branches and the 16-instruction block
   limit, so the lookup stream approximates the one the cores issue. *)

module Stats = Ptl_stats.Statstree
module Bbcache = Ptl_uop.Bbcache
module Exec = Ptl_uop.Exec
module Uop = Ptl_uop.Uop
module Seqcore = Ptl_arch.Seqcore
module Vmem = Ptl_arch.Vmem
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Registry = Ptl_ooo.Registry
module Domain = Ptl_hyper.Domain
module Hierarchy = Ptl_mem.Hierarchy
module Tlb = Ptl_mem.Tlb

let max_blocks = 400_000
let max_accesses = 1_000_000
let batch = 1024
let block_insns = 16
let code_bytes = 256

type recorder = {
  env : Env.t;
  ctx : Context.t;
  (* block starts, in execution order: index into [keys] *)
  starts : int array;
  mutable nstarts : int;
  keys : (int * int * bool, int) Hashtbl.t;  (* (rip, mfn, kernel) -> id *)
  mutable key_list : (int * int * bool * string) list;  (* newest first *)
  mutable next_start : bool;
  mutable block_end : bool;
  mutable in_block : int;
  mutable insns : int;
  (* data accesses awaiting a timed translation batch *)
  pend_vaddr : int64 array;
  pend_write : bool array;
  mutable npend : int;
  mutable pend_cr3 : int;
  mutable pend_mode : Context.mode;
  mutable translate_ns : int;
  mutable translate_calls : int;
  mutable translate_faults : int;
  (* translated accesses kept for the cache and TLB replays *)
  acc_vaddr : int array;
  acc_paddr : int array;
  acc_write : Bytes.t;
  mutable naccesses : int;
}

let create env ctx =
  {
    env;
    ctx;
    starts = Array.make max_blocks 0;
    nstarts = 0;
    keys = Hashtbl.create 4096;
    key_list = [];
    next_start = true;
    block_end = false;
    in_block = 0;
    insns = 0;
    pend_vaddr = Array.make batch 0L;
    pend_write = Array.make batch false;
    npend = 0;
    pend_cr3 = ctx.Context.cr3;
    pend_mode = ctx.Context.mode;
    translate_ns = 0;
    translate_calls = 0;
    translate_faults = 0;
    acc_vaddr = Array.make max_accesses 0;
    acc_paddr = Array.make max_accesses 0;
    acc_write = Bytes.make max_accesses '\000';
    naccesses = 0;
  }

(* Translate the pending batch under the address space it was recorded
   in; a fault is counted, and the fault register is put back so the
   guest never sees the replay. *)
let flush r =
  if r.npend > 0 then begin
    let ctx = r.ctx in
    let cr2 = ctx.Context.cr2
    and cr3 = ctx.Context.cr3
    and mode = ctx.Context.mode in
    ctx.Context.cr3 <- r.pend_cr3;
    ctx.Context.mode <- r.pend_mode;
    let vm = r.env.Env.vmem in
    let paddrs = Array.make r.npend (-1) in
    let t0 = Clock.now () in
    for i = 0 to r.npend - 1 do
      match
        Vmem.translate vm ctx ~vaddr:r.pend_vaddr.(i) ~write:r.pend_write.(i)
          ~fetch:false ~at_rip:0L
      with
      | p -> paddrs.(i) <- p
      | exception Ptl_arch.Fault.Guest_fault _ -> ()
    done;
    r.translate_ns <- r.translate_ns + (Clock.now () - t0);
    r.translate_calls <- r.translate_calls + r.npend;
    ctx.Context.cr2 <- cr2;
    ctx.Context.cr3 <- cr3;
    ctx.Context.mode <- mode;
    for i = 0 to r.npend - 1 do
      if paddrs.(i) < 0 then r.translate_faults <- r.translate_faults + 1
      else if r.naccesses < max_accesses then begin
        let k = r.naccesses in
        r.acc_vaddr.(k) <- Int64.to_int r.pend_vaddr.(i);
        r.acc_paddr.(k) <- paddrs.(i);
        Bytes.set r.acc_write k (if r.pend_write.(i) then '\001' else '\000');
        r.naccesses <- k + 1
      end
    done;
    r.npend <- 0
  end

let note_space r =
  let ctx = r.ctx in
  if ctx.Context.cr3 <> r.pend_cr3 || ctx.Context.mode <> r.pend_mode then begin
    flush r;
    r.pend_cr3 <- ctx.Context.cr3;
    r.pend_mode <- ctx.Context.mode
  end

let access r ~vaddr ~write =
  note_space r;
  if r.npend = batch then flush r;
  r.pend_vaddr.(r.npend) <- vaddr;
  r.pend_write.(r.npend) <- write;
  r.npend <- r.npend + 1

(* The bytes of a newly seen block, read while its mapping is live. *)
let capture_code r ~rip =
  let b = Buffer.create code_bytes in
  let cr2 = r.ctx.Context.cr2 in
  (try
     for i = 0 to code_bytes - 1 do
       Buffer.add_char b
         (Char.chr
            (Vmem.fetch_byte r.env.Env.vmem r.ctx ~at_rip:rip
               (Int64.add rip (Int64.of_int i))))
     done
   with Ptl_arch.Fault.Guest_fault _ -> ());
  r.ctx.Context.cr2 <- cr2;
  Buffer.contents b

let block_start r ~rip ~kernel =
  let cr2 = r.ctx.Context.cr2 in
  match Vmem.code_mfn r.env.Env.vmem r.ctx ~at_rip:rip rip with
  | exception Ptl_arch.Fault.Guest_fault _ -> r.ctx.Context.cr2 <- cr2
  | mfn ->
    let key = (Int64.to_int rip, mfn, kernel) in
    let id =
      match Hashtbl.find_opt r.keys key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length r.keys in
        Hashtbl.add r.keys key id;
        r.key_list <- (Int64.to_int rip, mfn, kernel, capture_code r ~rip)
                      :: r.key_list;
        id
    in
    if r.nstarts < max_blocks then begin
      r.starts.(r.nstarts) <- id;
      r.nstarts <- r.nstarts + 1
    end

let hooks r =
  {
    Seqcore.h_load = (fun ~vaddr ~rip:_ -> access r ~vaddr ~write:false);
    h_store = (fun ~vaddr ~rip:_ -> access r ~vaddr ~write:true);
    h_branch =
      (fun ~rip:_ ~taken:_ ~target:_ ~conditional:_ ~call:_ ~ret:_
           ~next_rip:_ -> r.block_end <- true);
    h_insn =
      (fun ~rip ~kernel ->
        note_space r;
        r.insns <- r.insns + 1;
        if r.next_start then begin
          block_start r ~rip ~kernel;
          r.in_block <- 0;
          r.next_start <- false
        end;
        r.in_block <- r.in_block + 1;
        if r.block_end || r.in_block >= block_insns then begin
          r.next_start <- true;
          r.block_end <- false
        end);
  }

(* Run the domain to completion on the functional core with the
   recorder attached. *)
let record (d : Domain.t) =
  let r = create d.Domain.env d.Domain.ctx in
  Domain.set_instance_wrap d (fun inst ->
      (match inst.Registry.handle with
      | Registry.Core_seq s -> s.Seqcore.hooks <- Some (hooks r)
      | _ -> ());
      inst);
  Domain.submit d "-run";
  ignore (Domain.run ~max_cycles:Workload.max_cycles d);
  flush r;
  r

(* ---- replays ---- *)

type key_info = {
  k_rip : int64;
  k_kernel : bool;
  k_fetch : int64 -> int;
  k_mfn_of : int64 -> int;
}

let key_infos r =
  let n = Hashtbl.length r.keys in
  let infos = Array.make n None in
  List.iteri
    (fun i (rip, mfn, kernel, bytes) ->
      let id = n - 1 - i in
      let base = Int64.of_int rip in
      let fetch va =
        let off = Int64.to_int (Int64.sub va base) in
        if off >= 0 && off < String.length bytes then Char.code bytes.[off]
        else raise Not_found
      in
      infos.(id) <-
        Some { k_rip = base; k_kernel = kernel; k_fetch = fetch;
               k_mfn_of = (fun _ -> mfn) })
    r.key_list;
  infos

let bbcache_replay r infos =
  let built = ref 0 and build_ns = ref 0 in
  let bb = Bbcache.create (Stats.create ()) in
  let blocks = Array.make (Array.length infos) None in
  Array.iteri
    (fun id info ->
      match info with
      | None -> ()
      | Some k ->
        let t0 = Clock.now () in
        (match
           Bbcache.build bb ~rip:k.k_rip ~kernel:k.k_kernel ~fetch:k.k_fetch
             ~mfn_of:k.k_mfn_of
         with
        | b ->
          build_ns := !build_ns + (Clock.now () - t0);
          incr built;
          blocks.(id) <- Some b
        | exception _ -> ()))
    infos;
  (* populate a cache, then time a pass in which every lookup hits *)
  let cache = Bbcache.create (Stats.create ()) in
  let ok = Array.map (fun b -> b <> None) blocks in
  let lookup id =
    match infos.(id) with
    | Some k ->
      ignore
        (Bbcache.lookup cache ~rip:k.k_rip ~kernel:k.k_kernel ~fetch:k.k_fetch
           ~mfn_of:k.k_mfn_of)
    | None -> ()
  in
  for i = 0 to r.nstarts - 1 do
    let id = r.starts.(i) in
    if ok.(id) then lookup id
  done;
  let hits = ref 0 in
  let t0 = Clock.now () in
  for i = 0 to r.nstarts - 1 do
    let id = r.starts.(i) in
    if ok.(id) then begin
      lookup id;
      incr hits
    end
  done;
  let lookup_ns = Clock.now () - t0 in
  (blocks, [ ("blocks_built", Json.Int !built); ("build_ns", Json.Int !build_ns);
             ("lookups", Json.Int !hits); ("lookup_ns", Json.Int lookup_ns) ])

(* Execute every recorded block's uops with fixed, non-zero operand
   values; only the work [Exec.execute] does per uop matters here. *)
let exec_replay r (blocks : Bbcache.bb option array) =
  let uops = ref 0 in
  let w0 = Gc.minor_words () and t0 = Clock.now () in
  for i = 0 to r.nstarts - 1 do
    match blocks.(r.starts.(i)) with
    | None -> ()
    | Some b ->
      Array.iter
        (fun (u : Uop.t) ->
          match u.Uop.op with
          | Uop.Assist _ -> ()
          | _ -> (
            incr uops;
            match
              Exec.execute u ~ra:0x1234_5678L ~rb:0x9abcL ~rc:7L ~flags:0
            with
            | _ -> ()
            | exception _ -> ()))
        b.Bbcache.uops
  done;
  let ns = Clock.now () - t0 and words = Gc.minor_words () -. w0 in
  [ ("uops", Json.Int !uops); ("ns", Json.Int ns); ("words", Json.Float words) ]

let hierarchy_replay r (config : Ptl_ooo.Config.t) =
  let n = r.naccesses in
  let warm = Hierarchy.create (Stats.create ()) config.Ptl_ooo.Config.hierarchy in
  let t0 = Clock.now () in
  for i = 0 to n - 1 do
    let paddr = r.acc_paddr.(i) in
    if Bytes.get r.acc_write i = '\001' then Hierarchy.warm_store warm ~paddr
    else Hierarchy.warm_load warm ~paddr
  done;
  let warm_ns = Clock.now () - t0 in
  let timed = Hierarchy.create (Stats.create ()) config.Ptl_ooo.Config.hierarchy in
  let t0 = Clock.now () in
  for i = 0 to n - 1 do
    let paddr = r.acc_paddr.(i) and cycle = 4 * i in
    if Bytes.get r.acc_write i = '\001' then
      ignore (Hierarchy.store timed ~cycle ~paddr)
    else ignore (Hierarchy.load timed ~cycle ~paddr)
  done;
  let access_ns = Clock.now () - t0 in
  [ ("accesses", Json.Int n); ("warm_ns", Json.Int warm_ns);
    ("access_ns", Json.Int access_ns) ]

let tlb_replay r (config : Ptl_ooo.Config.t) =
  let n = r.naccesses in
  let tlb = Tlb.create config.Ptl_ooo.Config.dtlb in
  let t0 = Clock.now () in
  for i = 0 to n - 1 do
    let vaddr = Int64.of_int r.acc_vaddr.(i) in
    match Tlb.lookup tlb vaddr with
    | Tlb.L1_hit _ | Tlb.L2_hit _ -> ()
    | Tlb.Tlb_miss ->
      Tlb.insert tlb vaddr
        {
          Tlb.vpn = Int64.shift_right_logical vaddr 12;
          mfn = r.acc_paddr.(i) lsr 12;
          writable = true;
          user = true;
          nx = false;
          huge = false;
        }
  done;
  [ ("calls", Json.Int n); ("ns", Json.Int (Clock.now () - t0)) ]

let run (d : Domain.t) ~config =
  let r, record_ns, _ = Workload.timed (fun () -> record d) in
  let infos = key_infos r in
  let blocks, bbcache = bbcache_replay r infos in
  Json.Obj
    [ ("record_ns", Json.Int record_ns);
      ("recorded_insns", Json.Int r.insns);
      ("block_starts", Json.Int r.nstarts);
      ("bbcache", Json.Obj bbcache);
      ("exec", Json.Obj (exec_replay r blocks));
      ( "vmem",
        Json.Obj
          [ ("calls", Json.Int r.translate_calls);
            ("ns", Json.Int r.translate_ns);
            ("faults", Json.Int r.translate_faults) ] );
      ("hierarchy", Json.Obj (hierarchy_replay r config));
      ("tlb", Json.Obj (tlb_replay r config)) ]
