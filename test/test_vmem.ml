(** The functional translation cache (lib/arch/vmem) against an uncached
    reference. Two memories start identical and receive the same random
    interleaving of translations (every access kind, user and kernel,
    two address spaces) and page-table edits through every write path:
    {!Pt.map}/{!Pt.unmap}, a guest {!Vmem.write} onto a live PTE, an
    accessed/dirty-bit clear by {!Pm.write64} (as the reclaim scanner
    does), a {!Pm.frame} zero-fill, {!Pm.restore} and {!Pm.apply_delta}.
    One side translates through {!Vmem.translate}, its twin through a
    plain {!Pt.walk}. After every step the physical address or fault
    (with [cr2]) must match, the memories must be byte-identical, and the
    cache must pass its own guard check. Two directed cases pin the
    dirty-memo rule and a walk through a self-referencing table. *)

module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable
module Vmem = Ptl_arch.Vmem
module Env = Ptl_arch.Env
module Context = Ptl_arch.Context
module Fault = Ptl_arch.Fault
module Rng = Ptl_util.Rng

(* Virtual pages the steps draw from: a run of pages sharing one leaf
   table (the window below exposes that table), a second top-level slot,
   the kernel half, pages inside a 2M mapping, a non-canonical address
   and a never-mapped one. *)
let low k = Int64.of_int (0x40_0000 + (k * 4096))
let window = low 8
let high k = Int64.add 0x7fff_f000_0000L (Int64.of_int (k * 4096))
let kern k = Int64.add 0xffff_8000_0000_0000L (Int64.of_int (k * 4096))
let huge_base = 0x8000_0000L
let in_huge k = Int64.add huge_base (Int64.of_int (k * 37 * 4096))

let small_pages = Array.concat [ Array.init 9 low; Array.init 4 high; Array.init 4 kern ]

let all_pages =
  Array.concat
    [ small_pages; Array.init 4 in_huge; [| 0x0000_8000_0000_0000L; 0x1234_5000L |] ]

type side = {
  mem : Pm.t;
  env : Env.t;
  ctx : Context.t;
  roots : int array;
  data : int array;  (* data frames a mapping may point at *)
  mutable snap : Pm.t;
  mutable delta : Pm.delta option;
}

(* Identical on both sides: the allocator is deterministic. *)
let make_side () =
  let env = Env.create () in
  let mem = env.Env.mem in
  let roots = [| Pm.alloc_page mem; Pm.alloc_page mem |] in
  let data = Array.init 8 (fun _ -> Pm.alloc_page mem) in
  let alloc () = Pm.alloc_page mem in
  let map space vaddr mfn ~writable ~user =
    Pt.map mem ~cr3_mfn:roots.(space) ~vaddr ~mfn ~writable ~user ~alloc ()
  in
  Array.iteri
    (fun i v -> map 0 v data.(i mod 8) ~writable:(i mod 3 <> 0) ~user:(i mod 4 <> 1))
    small_pages;
  Array.iteri (fun i v -> map 1 v data.((i + 3) mod 8) ~writable:true ~user:true) small_pages;
  (* translations never touch the data frames, so the 2M region stays
     unallocated and the per-step memory diff stays cheap *)
  Pt.map mem ~cr3_mfn:roots.(0) ~vaddr:huge_base ~mfn:(64 * Pt.huge_pages) ~writable:true
    ~user:true ~huge:true ~alloc ();
  (* the window maps the leaf table behind [low 0 .. low 8] *)
  (match Pt.leaf_pte mem ~cr3_mfn:roots.(0) ~vaddr:(low 0) with
  | Some (pte_addr, _, 0) ->
    map 0 window (Pm.mfn_of_paddr pte_addr) ~writable:true ~user:false
  | _ -> assert false);
  let ctx = Context.create ~vcpu_id:0 in
  { mem; env; ctx; roots; data; snap = Pm.copy mem; delta = None }

type op =
  | Translate of { space : int; vaddr : int64; user : bool; write : bool; fetch : bool }
  | Map of { space : int; vaddr : int64; frame : int; writable : bool; user : bool; nx : bool }
  | Unmap of { space : int; vaddr : int64 }
  (* a kernel-mode guest store into slot [slot] of the window: a PTE for
     data frame [frame] with the given bits, or 0 *)
  | Guest_pte_write of { slot : int; frame : int option; writable : bool; user : bool; ad : int64 }
  (* clear [bits] (all in the low byte) in the level-[level] entry on
     [vaddr]'s path, by a byte store or a whole-entry store *)
  | Clear_bits of { space : int; vaddr : int64; level : int; bits : int64; bytewise : bool }
  (* zero the level-[level] table on [vaddr]'s path, or a data frame *)
  | Zero_table of { space : int; vaddr : int64; level : int }
  | Zero_data of int
  | Snapshot
  | Restore
  | Capture_delta
  | Apply_delta

(* Every page in every space, mode and access kind, in turn. *)
let sweep =
  List.concat_map
    (fun space ->
      List.concat_map
        (fun vaddr ->
          List.concat_map
            (fun user ->
              List.map
                (fun (write, fetch) -> Translate { space; vaddr; user; write; fetch })
                [ (false, false); (true, false); (false, true) ])
            [ false; true ])
        (Array.to_list all_pages))
    [ 0; 1 ]

let gen_op rng =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let space = Rng.int rng 2 in
  match Rng.int rng 100 with
  | n when n < 53 ->
    let write = Rng.bool rng in
    Translate
      {
        space;
        vaddr = Int64.add (pick all_pages) (Int64.of_int (Rng.int rng 4096));
        user = Rng.bool rng;
        write;
        fetch = (not write) && Rng.int rng 3 = 0;
      }
  | n when n < 60 ->
    Map
      {
        space;
        vaddr = pick small_pages;
        frame = Rng.int rng 8;
        writable = Rng.bool rng;
        user = Rng.bool rng;
        nx = Rng.int rng 4 = 0;
      }
  | n when n < 64 -> Unmap { space; vaddr = pick all_pages }
  | n when n < 74 ->
    Guest_pte_write
      {
        slot = Rng.int rng 10;
        frame = (if Rng.int rng 5 = 0 then None else Some (Rng.int rng 8));
        writable = Rng.bool rng;
        user = Rng.bool rng;
        ad = pick [| 0L; Pt.pte_a; Int64.logor Pt.pte_a Pt.pte_d |];
      }
  | n when n < 86 ->
    Clear_bits
      {
        space;
        vaddr = pick all_pages;
        level = Rng.int rng 4;
        bits = pick [| Pt.pte_a; Pt.pte_d; Int64.logor Pt.pte_a Pt.pte_d; Pt.pte_w; Pt.pte_u |];
        bytewise = Rng.bool rng;
      }
  | n when n < 90 -> Zero_table { space; vaddr = pick all_pages; level = Rng.int rng 4 }
  | n when n < 92 -> Zero_data (Rng.int rng 8)
  | n when n < 94 -> Snapshot
  | n when n < 96 -> Restore
  | n when n < 98 -> Capture_delta
  | _ -> Apply_delta

(* One step: a single operation, or now and then a full sweep. *)
let gen_step rng = if Rng.int rng 20 = 0 then sweep else [ gen_op rng ]

(* The physical address of the level-[level] entry on [vaddr]'s path,
   found by a presence-only descent (no A/D side effects). *)
let entry_addr mem ~cr3 ~vaddr ~level =
  let rec go l table =
    let addr = Pm.paddr_of_mfn table + (8 * Pt.vpn_index vaddr l) in
    if l = level then Some addr
    else
      let pte = Pm.read64 mem addr in
      if Int64.logand pte Pt.pte_p = 0L || (l = 1 && Int64.logand pte Pt.pte_ps <> 0L)
      then None
      else go (l - 1) (Pt.pte_mfn pte)
  in
  go 3 cr3

type result = Paddr of int | Fault of { vaddr : int64; not_present : bool; cr2 : int64 }

(* What each step observed, compared side against side. *)
let apply ~cached s op =
  let mem = s.mem in
  match op with
  | Translate { space; vaddr; user; write; fetch } ->
    let ctx = s.ctx in
    ctx.Context.cr3 <- s.roots.(space);
    ctx.Context.mode <- (if user then Context.User else Context.Kernel);
    ctx.Context.cr2 <- 0L;
    if cached then
      match Vmem.translate s.env.Env.vmem ctx ~vaddr ~write ~fetch ~at_rip:0L with
      | pa -> Some (Paddr pa)
      | exception
          Fault.Guest_fault { Fault.kind = Fault.Page_fault { vaddr; not_present; _ }; _ } ->
        Some (Fault { vaddr; not_present; cr2 = ctx.Context.cr2 })
    else (
      match Pt.walk mem ~cr3_mfn:s.roots.(space) ~vaddr ~write ~user ~exec:fetch () with
      | Ok tr -> Some (Paddr (Pt.to_paddr tr vaddr))
      | Error f -> Some (Fault { vaddr; not_present = f.Pt.not_present; cr2 = vaddr }))
  | Map { space; vaddr; frame; writable; user; nx } ->
    Pt.map mem ~cr3_mfn:s.roots.(space) ~vaddr ~mfn:s.data.(frame) ~writable ~user ~nx
      ~alloc:(fun () -> Pm.alloc_page mem) ();
    None
  | Unmap { space; vaddr } ->
    Pt.unmap mem ~cr3_mfn:s.roots.(space) ~vaddr;
    None
  | Guest_pte_write { slot; frame; writable; user; ad } ->
    let pte =
      match frame with
      | None -> 0L
      | Some i -> Int64.logor ad (Pt.make_pte ~mfn:s.data.(i) ~writable ~user ~nx:false)
    in
    let vaddr = Int64.add window (Int64.of_int (8 * slot)) in
    let ctx = s.ctx in
    ctx.Context.cr3 <- s.roots.(0);
    ctx.Context.mode <- Context.Kernel;
    ctx.Context.cr2 <- 0L;
    if cached then
      match Vmem.write s.env.Env.vmem ctx ~vaddr ~size:Ptl_util.W64.B8 ~value:pte ~at_rip:0L with
      | () -> None
      | exception
          Fault.Guest_fault { Fault.kind = Fault.Page_fault { vaddr; not_present; _ }; _ } ->
        Some (Fault { vaddr; not_present; cr2 = ctx.Context.cr2 })
    else (
      match Pt.walk mem ~cr3_mfn:s.roots.(0) ~vaddr ~write:true ~user:false ~exec:false () with
      | Ok tr ->
        Pm.write64 mem (Pt.to_paddr tr vaddr) pte;
        None
      | Error f -> Some (Fault { vaddr; not_present = f.Pt.not_present; cr2 = vaddr }))
  | Clear_bits { space; vaddr; level; bits; bytewise } ->
    (match entry_addr mem ~cr3:s.roots.(space) ~vaddr ~level with
    | Some addr ->
      let pte = Pm.read64 mem addr in
      let pte' = Int64.logand pte (Int64.lognot bits) in
      if pte' <> pte then
        if bytewise then Pm.write8 mem addr (Int64.to_int pte' land 0xFF)
        else Pm.write64 mem addr pte'
    | None -> ());
    None
  | Zero_table { space; vaddr; level } ->
    (match entry_addr mem ~cr3:s.roots.(space) ~vaddr ~level with
    | Some addr -> Bytes.fill (Pm.frame mem (Pm.mfn_of_paddr addr)) 0 Pm.page_size '\x00'
    | None -> ());
    None
  | Zero_data i ->
    Bytes.fill (Pm.frame mem s.data.(i)) 0 Pm.page_size '\x00';
    None
  | Snapshot ->
    s.snap <- Pm.copy mem;
    Pm.clear_dirty mem;
    None
  | Restore ->
    Pm.restore mem ~snapshot:s.snap;
    None
  | Capture_delta ->
    s.delta <- Some (Pm.delta mem);
    None
  | Apply_delta ->
    Option.iter (Pm.apply_delta mem) s.delta;
    None

let show = function
  | None -> "-"
  | Some (Paddr pa) -> Printf.sprintf "paddr %#x" pa
  | Some (Fault { vaddr; not_present; cr2 }) ->
    Printf.sprintf "fault %#Lx not_present=%b cr2=%#Lx" vaddr not_present cr2

(* Apply [ops] to both sides, comparing what each observes, then the
   two memories and the cache's own check. *)
let step_both ~step cached plain ops =
  List.iter
    (fun op ->
      let got = apply ~cached:true cached op in
      let want = apply ~cached:false plain op in
      if got <> want then
        Alcotest.failf "step %d: cached %s, walk %s" step (show got) (show want))
    ops;
  (match Pm.diff cached.mem plain.mem with
  | [] -> ()
  | mfn :: _ -> Alcotest.failf "step %d: memories differ at frame %#x" step mfn);
  match Vmem.check cached.env.Env.vmem with
  | None -> ()
  | Some msg -> Alcotest.failf "step %d: cache check: %s" step msg

let test_cached_vs_walk () =
  for salt = 700 to 703 do
    let rng = Test_seed.rng ~salt () in
    let cached = make_side () and plain = make_side () in
    for step = 1 to 3000 do
      step_both ~step cached plain (gen_step rng)
    done
  done

let read space vaddr = Translate { space; vaddr; user = false; write = false; fetch = false }

(* The last write before a fill leaves the written page-table frame in
   [Pm]'s dirty memo. The fill must clear the memo, or the next write to
   that frame skips the registration lookup and the entry goes stale. *)
let test_memoized_table_write () =
  let cached = make_side () and plain = make_side () in
  List.iteri
    (fun step ops -> step_both ~step cached plain ops)
    [
      [ read 0 (low 1) ];
      (* only the leaf's accessed bit is still clear: the walk's last
         write lands in the leaf table, whose fill then registers it *)
      [ read 0 (low 2) ];
      [ Map { space = 0; vaddr = low 2; frame = 5; writable = true; user = true; nx = false } ];
      [ read 0 (low 2) ];
    ]

(* A self-referencing root entry: the walk through it visits one entry
   at all four levels, and its non-leaf accessed-bit updates overwrite
   the dirty bit it sets as the leaf. A second write walk sets it again,
   so that translation must never be served from the cache. *)
let test_recursive_entry () =
  let cached = make_side () and plain = make_side () in
  List.iter
    (fun s ->
      let root = s.roots.(0) in
      Pm.write64 s.mem (Pm.paddr_of_mfn root + (8 * 256))
        (Pt.make_pte ~mfn:root ~writable:true ~user:true ~nx:false))
    [ cached; plain ];
  let vaddr = 0xffff_8040_2010_0000L in
  for step = 1 to 3 do
    step_both ~step cached plain
      [ Translate { space = 0; vaddr; user = false; write = true; fetch = false } ]
  done

let suite =
  [
    Alcotest.test_case "cached translation = uncached walk" `Quick test_cached_vs_walk;
    Alcotest.test_case "memoized page-table write invalidates" `Quick
      test_memoized_table_write;
    Alcotest.test_case "self-referencing entry is never cached" `Quick test_recursive_entry;
  ]
