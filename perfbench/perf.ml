(* The benchmark's child process. run.py starts one per measurement so
   heap figures start clean and no measurement shares a process with
   another. Each prints one JSON object on stdout.

     perf.exe run WORKLOAD SEED SHAPE DIR [traced]  set-up + measured run
     perf.exe setup WORKLOAD SEED SHAPE DIR REPS    set-up only, REPS times
     perf.exe reference WORKLOAD SEED SHAPE         untimed accuracy reference
     perf.exe layers WORKLOAD SEED SHAPE            per-layer replays (traced)

   SEED picks the inputs' content and SHAPE the program (workload.ml).

   DIR is scratch space inside the checkout for the gups-sweep store;
   the child empties and removes it before exiting. *)

module W = Workload

let usage () =
  prerr_endline
    "usage: perf.exe (run|setup|reference|layers) WORKLOAD SEED SHAPE [DIR [traced | REPS]]";
  exit 2

let gc_fields () =
  let s = Gc.quick_stat () in
  [ ("top_heap_words", Json.Int s.Gc.top_heap_words);
    ("minor_collections", Json.Int s.Gc.minor_collections);
    ("major_collections", Json.Int s.Gc.major_collections) ]

let spans () =
  Json.List
    (List.map
       (fun (s : Span.t) ->
         Json.List
           [ Json.Int s.Span.id; Json.Int s.Span.parent; Json.Str s.Span.name;
             Json.Int s.Span.dur_ns; Json.Float s.Span.words;
             Json.Int s.Span.calls ])
       (Span.all ()))

let dir_bytes dir =
  Array.fold_left
    (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* Set-up, then the measured run, for one workload. Between the two the
   heap is compacted, dropping set-up's garbage (the capture's deltas are
   tens of MB), so the run's major GC work is its own and starts from the
   same heap in every child. *)
let run kind ~seed ~shape ~dir ~traced =
  let gc0 = Gc.quick_stat () in
  let emit setup_ns (o : W.outcome) extra =
    let gc1 = Gc.quick_stat () in
    let body =
      [ ("wall_ns", Json.Int o.W.wall_ns); ("insns", Json.Int o.W.insns);
        ("core_cycles", Json.Int o.W.core_cycles);
        ("words", Json.Float o.W.words);
        ("attempted", Json.Int o.W.attempted);
        ("failed", Json.Int o.W.failed);
        ("problems", Json.List (List.map (fun p -> Json.Str p) o.W.problems));
        ("fingerprint", Json.Obj o.W.fingerprint);
        ("fields", Json.Obj (o.W.fields @ extra)) ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            ([ ("setup_ns", Json.Int setup_ns); ("traced", Json.Bool traced) ]
            @ body
            @ [ ( "gc",
                  Json.Obj
                    (gc_fields ()
                    @ [ ( "run_minor_collections",
                          Json.Int
                            (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
                        ) ]) );
                ("spans", spans ()) ])))
  in
  Span.on := traced;
  match kind with
  | W.Rsync_detail | W.Rsync_sampled ->
    let schedule =
      if kind = W.Rsync_detail then None else Some W.sampled_schedule
    in
    let dk, setup_ns, _ = W.timed (fun () -> W.rsync_setup kind ~seed ~shape) in
    Gc.compact ();
    emit setup_ns (W.rsync_run ~traced ~schedule dk) []
  | W.Gups_sweep ->
    let (store, capture_insns), setup_ns, _ =
      W.timed (fun () ->
          let store, cr = W.gups_setup ~seed ~shape ~dir in
          (* keep only the count: the deltas are on disk now *)
          (store, cr.W.Sample.cr_insns))
    in
    Gc.compact ();
    let o = W.gups_run ~traced store in
    (* store reads, timed apart from the sweep for the traced run *)
    let extra =
      if not traced then []
      else begin
        let count = (W.Store.manifest store).W.Store.m_count in
        let t0 = Clock.now () in
        for i = 0 to count - 1 do
          ignore (W.Store.load_interval store i)
        done;
        [ ("store_read_ns", Json.Int (Clock.now () - t0));
          ("store_bytes", Json.Int (dir_bytes dir));
          ("capture_insns", Json.Int capture_insns) ]
      end
    in
    W.remove_tree dir;
    emit setup_ns o extra

(* Set-up alone, [reps] times in one process, each from a compacted
   heap; prints every duration. *)
let setups kind ~seed ~shape ~dir ~reps =
  let once () =
    Gc.compact ();
    match kind with
    | W.Rsync_detail | W.Rsync_sampled ->
      let _, ns, _ = W.timed (fun () -> W.rsync_setup kind ~seed ~shape) in
      ns
    | W.Gups_sweep ->
      let _, ns, _ = W.timed (fun () -> ignore (W.gups_setup ~seed ~shape ~dir)) in
      W.remove_tree dir;
      ns
  in
  let ns = List.init reps (fun _ -> Json.Int (once ())) in
  print_endline (Json.to_string (Json.Obj [ ("setup_ns", Json.List ns) ]))

let layers kind ~seed ~shape =
  let d, config =
    match kind with
    | W.Rsync_detail | W.Rsync_sampled ->
      (fst (W.rsync_setup ~core:"seq" kind ~seed ~shape), W.machine)
    | W.Gups_sweep ->
      let m = W.gups_machine ~seed ~shape in
      ( W.Domain.create ~core:"seq" ~config:W.gups_config m.W.Machine.env
          m.W.Machine.ctx,
        W.gups_config )
  in
  print_endline (Json.to_string (Layers.run d ~config))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let kind_of w = match W.of_name w with Some k -> k | None -> usage () in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  match args with
  | "run" :: w :: s :: sh :: dir :: rest ->
    run (kind_of w) ~seed:(int_of s) ~shape:(int_of sh) ~dir
      ~traced:(rest = [ "traced" ])
  | [ "setup"; w; s; sh; dir; reps ] ->
    setups (kind_of w) ~seed:(int_of s) ~shape:(int_of sh) ~dir ~reps:(int_of reps)
  | [ "reference"; w; s; sh ] ->
    print_endline
      (Json.to_string
         (Json.Obj (W.reference (kind_of w) ~seed:(int_of s) ~shape:(int_of sh))))
  | [ "layers"; w; s; sh ] -> layers (kind_of w) ~seed:(int_of s) ~shape:(int_of sh)
  | _ -> usage ()
