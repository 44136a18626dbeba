(** Guest physical memory: a sparse set of 4 KiB machine frames (MFNs).

    Like Xen, the hypervisor hands out arbitrary non-contiguous machine
    frame numbers rather than a linear span starting at zero (paper §3), so
    frames live in a hash table and the allocator can be seeded to start at
    any MFN. Physical addresses are OCaml [int]s (the guest physical space
    is far below 2^62); all multi-byte accesses are little-endian and may
    cross page boundaries.

    Two mechanisms support cheap checkpointing (lib/hyper/checkpoint):

    - {b dirty tracking}: every frame touched by a write (or newly
      allocated — allocation state is machine state) since the last
      {!clear_dirty} is remembered, so a delta checkpoint serializes
      only the pages an interval actually touched instead of the whole
      guest image.
    - {b copy-on-write cloning}: {!clone_cow} builds a memory whose
      frames share bytes with a base image; a frame is copied privately
      the first time it is written. Replay workers clone the master
      image in O(frames) pointer copies instead of O(bytes), and the
      base stays immutable, so any number of workers (even on separate
      {!Stdlib.Domain}s) can share one base.

    A third supports the exact functional translation cache in
    [Ptl_arch.Vmem]:

    - {b page-table generation}: frames a cached translation was read
      from are registered with {!watch_frame}; any write to a registered
      frame, and every {!restore} or {!apply_delta}, advances
      {!generation} and forgets the registrations. A cached translation
      is valid only at the generation it was filled in. *)

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

type t = {
  frames : (int, Bytes.t) Hashtbl.t;
  mutable next_mfn : int;
  mutable allocated : int;
  (* MFNs written or allocated since [clear_dirty]. *)
  dirty : (int, unit) Hashtbl.t;
  (* memo: the last MFN marked dirty, so a run of writes to one page
     costs one compare instead of a hash probe each (-1 = none). A
     memoized MFN is always already dirty and privately owned. *)
  mutable last_dirty : int;
  (* frames whose bytes are shared with a base image (clone_cow); copy
     before the first write. *)
  cow : (int, unit) Hashtbl.t;
  (* frames read by translations cached at [generation]; never holds
     [last_dirty], so a memoized write can skip the lookup *)
  watched : (int, unit) Hashtbl.t;
  mutable generation : int;
}

let create ?(first_mfn = 0x100) () =
  {
    frames = Hashtbl.create 1024;
    next_mfn = first_mfn;
    allocated = 0;
    dirty = Hashtbl.create 64;
    last_dirty = -1;
    cow = Hashtbl.create 4;
    watched = Hashtbl.create 16;
    generation = 0;
  }

let mfn_of_paddr paddr = paddr lsr page_shift
let offset_of_paddr paddr = paddr land page_mask
let paddr_of_mfn mfn = mfn lsl page_shift

let page_exists t mfn = Hashtbl.mem t.frames mfn

let generation t = t.generation

(* Page-table contents may have changed: every cached translation is
   stale, so no frame needs watching any more. *)
let new_generation t =
  t.generation <- t.generation + 1;
  if Hashtbl.length t.watched > 0 then Hashtbl.reset t.watched

let watch_frame t mfn =
  Hashtbl.replace t.watched mfn ();
  if mfn = t.last_dirty then t.last_dirty <- -1

(* Mark [mfn] dirty and break any copy-on-write sharing. Must run
   before the frame's bytes are fetched on a write path. *)
let mark_dirty t mfn =
  if mfn <> t.last_dirty then begin
    if Hashtbl.length t.watched > 0 && Hashtbl.mem t.watched mfn then
      new_generation t;
    if Hashtbl.length t.cow > 0 && Hashtbl.mem t.cow mfn then begin
      (match Hashtbl.find_opt t.frames mfn with
      | Some b -> Hashtbl.replace t.frames mfn (Bytes.copy b)
      | None -> ());
      Hashtbl.remove t.cow mfn
    end;
    Hashtbl.replace t.dirty mfn ();
    t.last_dirty <- mfn
  end

(* Frame backing [mfn] for reading: allocating a zeroed frame on first
   touch (allocation is a machine-state change, so it dirties). *)
let frame_ro t mfn =
  match Hashtbl.find_opt t.frames mfn with
  | Some b -> b
  | None ->
    let b = Bytes.make page_size '\x00' in
    Hashtbl.add t.frames mfn b;
    t.allocated <- t.allocated + 1;
    if mfn <> t.last_dirty then begin
      Hashtbl.replace t.dirty mfn ();
      t.last_dirty <- mfn
    end;
    b

(** Frame backing [mfn], allocating a zeroed frame on first touch. The
    returned bytes may be written, so the frame is marked dirty and any
    copy-on-write sharing is broken first. *)
let frame t mfn =
  mark_dirty t mfn;
  frame_ro t mfn

(** Allocate a fresh frame and return its MFN. *)
let alloc_page t =
  let mfn = t.next_mfn in
  t.next_mfn <- t.next_mfn + 1;
  ignore (frame_ro t mfn);
  mfn

(** Allocate [n] physically contiguous frames whose first MFN is a
    multiple of [align] (in frames); returns that first MFN. Huge-page
    mappings need 512 contiguous frames on a 2M boundary. *)
let alloc_pages t ?(align = 1) n =
  let first = (t.next_mfn + align - 1) / align * align in
  t.next_mfn <- first + n;
  for i = 0 to n - 1 do
    ignore (frame_ro t (first + i))
  done;
  first

let allocated_pages t = t.allocated

(** MFNs whose contents differ between two memories, including frames
    present in only one of them, sorted ascending. Empty = identical
    contents (a frame of zeroes and an absent frame count as different:
    allocation state is part of the machine state). *)
let diff a b =
  let differing = ref [] in
  Hashtbl.iter
    (fun mfn fa ->
      match Hashtbl.find_opt b.frames mfn with
      | Some fb -> if not (Bytes.equal fa fb) then differing := mfn :: !differing
      | None -> differing := mfn :: !differing)
    a.frames;
  Hashtbl.iter
    (fun mfn _ ->
      if not (Hashtbl.mem a.frames mfn) then differing := mfn :: !differing)
    b.frames;
  List.sort_uniq compare !differing

let read8 t paddr =
  Char.code (Bytes.get (frame_ro t (mfn_of_paddr paddr)) (offset_of_paddr paddr))

let write8 t paddr v =
  let mfn = mfn_of_paddr paddr in
  mark_dirty t mfn;
  Bytes.set (frame_ro t mfn) (offset_of_paddr paddr) (Char.chr (v land 0xFF))

(* Multi-byte accesses use the fast within-page path when possible and a
   byte loop when the access straddles a frame boundary. *)
let read_n t paddr n =
  let off = offset_of_paddr paddr in
  if off + n <= page_size then begin
    let b = frame_ro t (mfn_of_paddr paddr) in
    match n with
    | 1 -> Int64.of_int (Char.code (Bytes.get b off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xFFFFFFFFL
    | 8 -> Bytes.get_int64_le b off
    | _ -> Ptl_util.W64.of_bytes n (fun i -> Char.code (Bytes.get b (off + i)))
  end
  else Ptl_util.W64.of_bytes n (fun i -> read8 t (paddr + i))

let write_n t paddr n v =
  let off = offset_of_paddr paddr in
  if off + n <= page_size then begin
    let mfn = mfn_of_paddr paddr in
    mark_dirty t mfn;
    let b = frame_ro t mfn in
    match n with
    | 1 -> Bytes.set b off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | 2 -> Bytes.set_uint16_le b off (Int64.to_int (Int64.logand v 0xFFFFL))
    | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le b off v
    | _ ->
      for i = 0 to n - 1 do
        Bytes.set b (off + i) (Char.chr (Ptl_util.W64.byte v i))
      done
  end
  else
    for i = 0 to n - 1 do
      write8 t (paddr + i) (Ptl_util.W64.byte v i)
    done

let read16 t paddr = Int64.to_int (read_n t paddr 2)
let read32 t paddr = read_n t paddr 4
let read64 t paddr = read_n t paddr 8
let write16 t paddr v = write_n t paddr 2 (Int64.of_int v)
let write32 t paddr v = write_n t paddr 4 v
let write64 t paddr v = write_n t paddr 8 v

(** Sized access in terms of {!Ptl_util.W64.size}. *)
let read_sized t paddr size = read_n t paddr (Ptl_util.W64.bytes_of_size size)
let write_sized t paddr size v = write_n t paddr (Ptl_util.W64.bytes_of_size size) v

(** Copy a string into physical memory at [paddr]. *)
let write_string t paddr s =
  String.iteri (fun i c -> write8 t (paddr + i) (Char.code c)) s

(** Read [n] bytes starting at [paddr]. *)
let read_string t paddr n = String.init n (fun i -> Char.chr (read8 t (paddr + i)))

(** Deep copy (for domain checkpointing): every frame is materialized
    privately, so the copy is safe to share read-only across domains. *)
let copy t =
  let frames = Hashtbl.create (Hashtbl.length t.frames) in
  Hashtbl.iter (fun mfn b -> Hashtbl.add frames mfn (Bytes.copy b)) t.frames;
  {
    frames;
    next_mfn = t.next_mfn;
    allocated = t.allocated;
    dirty = Hashtbl.copy t.dirty;
    last_dirty = t.last_dirty;
    cow = Hashtbl.create 4;
    watched = Hashtbl.create 16;
    generation = 0;
  }

(** Restore [t] to the state captured in [snapshot] (in place, so existing
    references to [t] stay valid). Every restored frame counts as dirty:
    the restore itself rewrote the machine state, so a later delta
    against an older base must include it. *)
let restore t ~snapshot =
  new_generation t;
  Hashtbl.reset t.frames;
  Hashtbl.reset t.cow;
  Hashtbl.reset t.dirty;
  t.last_dirty <- -1;
  Hashtbl.iter
    (fun mfn b ->
      Hashtbl.add t.frames mfn (Bytes.copy b);
      Hashtbl.replace t.dirty mfn ())
    snapshot.frames;
  t.next_mfn <- snapshot.next_mfn;
  t.allocated <- snapshot.allocated

(* ---- delta checkpointing ---- *)

(** Forget the dirty set: subsequent {!delta}s are relative to the state
    at this call (typically right after a base image is captured). *)
let clear_dirty t =
  Hashtbl.reset t.dirty;
  t.last_dirty <- -1

(** Pages written or allocated since {!clear_dirty}. *)
let dirty_count t = Hashtbl.length t.dirty

(** The pages written or allocated since {!clear_dirty} plus the
    allocator state — everything needed to rebuild this memory from the
    base image the dirty set is relative to. Page contents are deep
    copies, so the delta stays valid while execution continues. *)
type delta = {
  d_pages : (int * Bytes.t) array;  (* sorted by MFN *)
  d_next_mfn : int;
  d_allocated : int;
}

let delta t =
  let pages =
    Hashtbl.fold
      (fun mfn () acc ->
        match Hashtbl.find_opt t.frames mfn with
        | Some b -> (mfn, Bytes.copy b) :: acc
        | None -> acc)
      t.dirty []
  in
  let d_pages = Array.of_list pages in
  Array.sort (fun (a, _) (b, _) -> compare a b) d_pages;
  { d_pages; d_next_mfn = t.next_mfn; d_allocated = t.allocated }

let delta_pages d = Array.length d.d_pages

(** Serialized size of a delta, counting page payloads only (the
    honest apples-to-apples number against [allocated_pages x
    page_size] for a full image). *)
let delta_bytes d = Array.length d.d_pages * page_size

(** Overlay [d] onto [t] (typically a fresh {!clone_cow} of the base
    image [d] was captured against): dirty page contents replace the
    base's, and the allocator state advances to the capture point. Page
    bytes are copied in, so [d] may be shared across workers. *)
let apply_delta t d =
  new_generation t;
  Array.iter
    (fun (mfn, b) ->
      (match Hashtbl.find_opt t.frames mfn with
      | Some _ -> ()
      | None -> t.allocated <- t.allocated + 1);
      Hashtbl.replace t.frames mfn (Bytes.copy b);
      Hashtbl.remove t.cow mfn;
      Hashtbl.replace t.dirty mfn ())
    d.d_pages;
  t.next_mfn <- d.d_next_mfn;
  (* allocation only grows, so the capture-point count is authoritative *)
  t.allocated <- d.d_allocated;
  t.last_dirty <- -1

(** A memory whose frames share bytes with [base], copied privately on
    first write. [base] must not be mutated afterwards (deep {!copy}
    images and deserialized images qualify); the clone never writes
    through the sharing, so one base may back any number of clones on
    any number of domains. *)
let clone_cow base =
  let n = Hashtbl.length base.frames in
  let frames = Hashtbl.create (max 16 n) in
  let cow = Hashtbl.create (max 16 n) in
  Hashtbl.iter
    (fun mfn b ->
      Hashtbl.add frames mfn b;
      Hashtbl.replace cow mfn ())
    base.frames;
  {
    frames;
    next_mfn = base.next_mfn;
    allocated = base.allocated;
    dirty = Hashtbl.create 64;
    last_dirty = -1;
    cow;
    watched = Hashtbl.create 16;
    generation = 0;
  }
