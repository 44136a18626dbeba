(** Functional virtual-memory access for microcode and the sequential core.

    Translates through the page tables, performs the permission checks of
    §2.1 and raises precise {!Fault.Guest_fault}s. Unaligned accesses that
    straddle a page boundary translate both pages, exactly the case the
    paper calls out as requiring special handling.

    Each [env] keeps a small direct-mapped translation cache. It is not a
    TLB (the timing models own their TLBs and their stale-entry
    semantics): it is exact, so using it changes no architectural bit.
    An entry is keyed by CR3, 4K virtual page and access kind (write,
    user, fetch) and is valid only at the page-table generation of
    {!Ptl_mem.Phys_mem} it was filled in. Three invariants hold:

    - a hit returns exactly the physical address a walk would return;
    - a fault is never cached;
    - a hit is taken only where a walk would write nothing: the fill's
      own walk set every accessed bit on the path (and the dirty bit,
      for a write), and no write has reached those frames since.

    {!Ptl_mem.Pagetable.walk} stays the only walker; it runs on a miss,
    and the frames it read are registered with
    {!Ptl_mem.Phys_mem.watch_frame}. *)

open Ptl_util
module Pm = Ptl_mem.Phys_mem
module Pt = Ptl_mem.Pagetable

(* The cache is one flat int array, [slot_words] per entry: the key
   (4K virtual page number shifted over the access-kind bits; -1 =
   empty), CR3, the generation and the frame. *)
type env = { mem : Pm.t; tcache : int array }

let tc_entries = 1024
let slot_words = 4

let create mem = { mem; tcache = Array.make (tc_entries * slot_words) (-1) }

let kind_write = 1
let kind_user = 2
let kind_fetch = 4

let page_fault (ctx : Context.t) ~vaddr ~not_present ~write ~fetch ~at_rip =
  ctx.Context.cr2 <- vaddr;
  Fault.raise_fault
    (Fault.Page_fault
       { vaddr; not_present; write; user = ctx.Context.mode = Context.User; fetch })
    ~at_rip

(* Would a walk along [tr]'s path write nothing now? Every entry has its
   accessed bit, and the leaf its dirty bit for a write. A successful
   walk usually leaves the path so, but not always: an entry a walk
   visits at two levels (a self-referencing table) gets its leaf dirty
   bit overwritten by its own non-leaf accessed-bit update. *)
let settled mem (tr : Pt.translation) ~write =
  let rec go = function
    | [] -> true
    | [ leaf ] ->
      let pte = Pm.read64 mem leaf in
      Int64.logand pte Pt.pte_a <> 0L
      && ((not write) || Int64.logand pte Pt.pte_d <> 0L)
    | pa :: rest -> Int64.logand (Pm.read64 mem pa) Pt.pte_a <> 0L && go rest
  in
  go tr.Pt.pte_addrs

(** Translate [vaddr] for the access described; returns the physical
    address. Sets accessed/dirty bits like hardware. *)
let translate env (ctx : Context.t) ~vaddr ~write ~fetch ~at_rip =
  let user = ctx.Context.mode = Context.User in
  let key =
    (Int64.to_int (Int64.shift_right_logical vaddr Pm.page_shift) lsl 3)
    lor (if write then kind_write else 0)
    lor (if user then kind_user else 0)
    lor if fetch then kind_fetch else 0
  in
  let cr3 = ctx.Context.cr3 in
  let tc = env.tcache in
  let slot = ((key lxor (key lsr 13) lxor cr3) land (tc_entries - 1)) * slot_words in
  let gen = Pm.generation env.mem in
  if tc.(slot) = key && tc.(slot + 1) = cr3 && tc.(slot + 2) = gen then
    Pm.paddr_of_mfn tc.(slot + 3) lor (Int64.to_int vaddr land Pm.page_mask)
  else
    match Pt.walk env.mem ~cr3_mfn:cr3 ~vaddr ~write ~user ~exec:fetch () with
    | Ok tr ->
      if settled env.mem tr ~write then begin
        List.iter
          (fun pa -> Pm.watch_frame env.mem (Pm.mfn_of_paddr pa))
          tr.Pt.pte_addrs;
        tc.(slot) <- key;
        tc.(slot + 1) <- cr3;
        (* the walk's own accessed/dirty writes may have advanced it *)
        tc.(slot + 2) <- Pm.generation env.mem;
        tc.(slot + 3) <- tr.Pt.mfn
      end;
      Pt.to_paddr tr vaddr
    | Error f ->
      page_fault ctx ~vaddr ~not_present:f.Pt.not_present ~write ~fetch ~at_rip

(** The translation cache agrees with the page tables: every entry valid
    at the current generation names the frame a side-effect-free walk of
    the same kind finds, and that walk's path already has every accessed
    bit set (and the leaf's dirty bit, for a write entry). None while
    that holds. *)
let check env =
  let gen = Pm.generation env.mem in
  let rec go i =
    if i = tc_entries then None
    else
      let slot = i * slot_words in
      let key = env.tcache.(slot) in
      if key < 0 || env.tcache.(slot + 2) <> gen then go (i + 1)
      else
        let cr3 = env.tcache.(slot + 1) and mfn = env.tcache.(slot + 3) in
        let write = key land kind_write <> 0 in
        let vaddr = Int64.shift_left (Int64.of_int (key lsr 3)) Pm.page_shift in
        let fail fmt =
          Printf.ksprintf
            (fun msg ->
              Some (Printf.sprintf "cr3 %d vaddr %#Lx kind %d: %s" cr3 vaddr (key land 7) msg))
            fmt
        in
        match
          Pt.walk env.mem ~cr3_mfn:cr3 ~vaddr ~write ~user:(key land kind_user <> 0)
            ~exec:(key land kind_fetch <> 0) ~set_ad:false ()
        with
        | Error _ -> fail "cached frame %d but the walk faults" mfn
        | Ok tr when tr.Pt.mfn <> mfn ->
          fail "cached frame %d but the walk finds %d" mfn tr.Pt.mfn
        | Ok tr when settled env.mem tr ~write -> go (i + 1)
        | Ok _ -> fail "cached frame %d but a walk would still set A/D bits" mfn
  in
  go 0

(* Split an access crossing a page boundary into per-page pieces. *)
let crosses_page vaddr n =
  let off = Int64.to_int (Int64.logand vaddr (Int64.of_int Pm.page_mask)) in
  off + n > Pm.page_size

(** Sized virtual read. *)
let read env ctx ~vaddr ~size ~at_rip =
  let n = W64.bytes_of_size size in
  if not (crosses_page vaddr n) then
    let paddr = translate env ctx ~vaddr ~write:false ~fetch:false ~at_rip in
    Pm.read_sized env.mem paddr size
  else
    (* straddling access: translate byte by byte (slow path, rare) *)
    W64.of_bytes n (fun i ->
        let va = Int64.add vaddr (Int64.of_int i) in
        let pa = translate env ctx ~vaddr:va ~write:false ~fetch:false ~at_rip in
        Pm.read8 env.mem pa)

(** Sized virtual write. *)
let write env ctx ~vaddr ~size ~value ~at_rip =
  let n = W64.bytes_of_size size in
  if not (crosses_page vaddr n) then begin
    let paddr = translate env ctx ~vaddr ~write:true ~fetch:false ~at_rip in
    Pm.write_sized env.mem paddr size value
  end
  else
    for i = 0 to n - 1 do
      let va = Int64.add vaddr (Int64.of_int i) in
      let pa = translate env ctx ~vaddr:va ~write:true ~fetch:false ~at_rip in
      Pm.write8 env.mem pa (W64.byte value i)
    done

(** Instruction byte fetch (for the decoder). *)
let fetch_byte env ctx ~at_rip vaddr =
  let paddr = translate env ctx ~vaddr ~write:false ~fetch:true ~at_rip in
  Pm.read8 env.mem paddr

(** MFN backing a code address (for basic-block-cache keys). *)
let code_mfn env ctx ~at_rip vaddr =
  let paddr = translate env ctx ~vaddr ~write:false ~fetch:true ~at_rip in
  Pm.mfn_of_paddr paddr

(** Copy a string into guest virtual memory (loader / kernel model use). *)
let write_string env ctx ~vaddr s ~at_rip =
  String.iteri
    (fun i c ->
      let va = Int64.add vaddr (Int64.of_int i) in
      let pa = translate env ctx ~vaddr:va ~write:true ~fetch:false ~at_rip in
      Pm.write8 env.mem pa (Char.code c))
    s

(** Read [n] bytes from guest virtual memory as a string. *)
let read_string env ctx ~vaddr n ~at_rip =
  String.init n (fun i ->
      let va = Int64.add vaddr (Int64.of_int i) in
      let pa = translate env ctx ~vaddr:va ~write:false ~fetch:false ~at_rip in
      Char.chr (Pm.read8 env.mem pa))
