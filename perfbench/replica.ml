(* A stage-timed replica of the single-thread [Ooo_core.step].

   [Ooo_core] has no interface file, so its stage functions are public;
   this replica calls them in the order [Ooo_core.step] does and reads
   the clock and [Gc.minor_words] around each call. Uops sent to execute
   are counted outside the timed calls (see [count_issued]). The replica
   is only trusted when the simulated-statistics fingerprint of a traced
   run equals the untraced run's: any drift from the real [step] shows
   there first. *)

module O = Ptl_ooo.Ooo_core
module Config = Ptl_ooo.Config
module Registry = Ptl_ooo.Registry
module Stats = Ptl_stats.Statstree
module Trace = Ptl_trace.Trace
module Context = Ptl_arch.Context
module Env = Ptl_arch.Env
module Ring = Ptl_util.Ring

let stages = [| "commit"; "writeback"; "issue"; "rename"; "fetch" |]
let n = Array.length stages

(* Per-stage and whole-step host time and words, plus fast-forward: the
   gaps between steps during which the native core retired instructions. *)
type acc = {
  ns : int array;  (* stages, then the whole step at index [n] *)
  words : float array;
  mutable steps : int;
  mutable issued : int;  (* uops sent to execute *)
  mutable committed : int;  (* uops committed over the same cycles *)
  mutable last_end : int;  (* clock at the end of the previous step *)
  mutable last_native : int;  (* native insns counted at that point *)
  mutable last_words : float;  (* minor words at that point *)
  mutable ff_ns : int;
  mutable ff_words : float;
  mutable ff_insns : int;
}

let create () =
  {
    ns = Array.make (n + 1) 0;
    words = Array.make (n + 1) 0.0;
    steps = 0;
    issued = 0;
    committed = 0;
    last_end = 0;
    last_native = 0;
    last_words = 0.0;
    ff_ns = 0;
    ff_words = 0.0;
    ff_insns = 0;
  }

(* Charge the time since the previous step to fast-forward if the native
   core's instruction count moved meanwhile. *)
let close_gap acc ~now ~native =
  let words = Gc.minor_words () in
  if acc.last_end > 0 && native <> acc.last_native then begin
    acc.ff_ns <- acc.ff_ns + (now - acc.last_end);
    acc.ff_words <- acc.ff_words +. (words -. acc.last_words);
    acc.ff_insns <- acc.ff_insns + (native - acc.last_native)
  end;
  acc.last_native <- native

(* Issue-queue slots as [O.issue] found them: the seq of each slot's
   entry, or -1 for an empty slot. Ints only, so taking the copy neither
   allocates nor keeps an entry alive. *)
let shadow (t : O.t) = Array.map (fun q -> Array.make (Array.length q) (-1)) t.O.iqs

let snapshot (t : O.t) sh =
  for ci = 0 to Array.length sh - 1 do
    let q = t.O.iqs.(ci) and s = sh.(ci) in
    for i = 0 to Array.length q - 1 do
      s.(i) <- (match q.(i) with Some { O.slot_rob = e } -> e.O.seq | None -> -1)
    done
  done

(* Uops [O.issue] sent to [O.execute_entry]. Issue only empties slots,
   so a slot occupied before and empty after held an entry that was
   executed (issued or faulted) or annulled by a branch resolved in the
   same cycle. Annulment drops the youngest ROB entries, so an entry
   younger than the youngest survivor was annulled. An execution that
   replayed keeps its slot and bumps [issue.replays]. An entry executed
   and then annulled within one cycle counts as annulled. *)
let count_issued acc (t : O.t) (th : O.thread_state) sh ~replays0 =
  let rob = th.O.rob in
  let youngest =
    if Ring.is_empty rob then -1 else (Ring.get rob (Ring.length rob - 1)).O.seq
  in
  for ci = 0 to Array.length sh - 1 do
    let q = t.O.iqs.(ci) and s = sh.(ci) in
    for i = 0 to Array.length q - 1 do
      match q.(i) with
      | None when s.(i) >= 0 && s.(i) <= youngest -> acc.issued <- acc.issued + 1
      | _ -> ()
    done
  done;
  acc.issued <- acc.issued + (Stats.value t.O.c_replays - replays0)

let step acc (t : O.t) (th : O.thread_state) sh =
  let ns = acc.ns and words = acc.words in
  let uops0 = Stats.value t.O.c_uops in
  let w_step = Gc.minor_words () and t_step = Clock.now () in
  if !Trace.on then Trace.set_cycle (O.now t);
  Stats.incr t.O.c_cycles;
  O.count_mode_cycles t;
  let w0 = Gc.minor_words () and t0 = Clock.now () in
  O.commit_thread t th;
  let w1 = Gc.minor_words () and t1 = Clock.now () in
  O.writeback t;
  let w2 = Gc.minor_words () and t2 = Clock.now () in
  (* the issue-count bookkeeping sits between the timed stage calls *)
  snapshot t sh;
  let replays0 = Stats.value t.O.c_replays in
  let w2' = Gc.minor_words () and t2' = Clock.now () in
  O.issue t;
  let w3 = Gc.minor_words () and t3 = Clock.now () in
  count_issued acc t th sh ~replays0;
  let w3' = Gc.minor_words () and t3' = Clock.now () in
  O.rename_thread t th;
  let w4 = Gc.minor_words () and t4 = Clock.now () in
  O.fetch_thread t th;
  let w5 = Gc.minor_words () and t5 = Clock.now () in
  if O.thread_idle th && Context.interruptible th.O.ctx then begin
    Stats.incr t.O.c_irqs;
    ignore (Ptl_arch.Assists.try_deliver_irq t.O.env th.O.ctx);
    th.O.fetch_enabled <- true;
    th.O.redirect <- Some (O.now t + 1, O.To_rip th.O.ctx.Context.rip);
    th.O.last_progress <- O.now t
  end;
  if
    (not (O.thread_idle th))
    && O.now t - th.O.last_progress > t.O.config.Config.watchdog_cycles
  then
    Ptl_ooo.Sim_failure.fail ~stats:t.O.env.Env.stats
      ~subsystem:(t.O.prefix ^ ".watchdog")
      ~kind:Ptl_ooo.Sim_failure.Lockup ~cycle:(O.now t)
      ~rip:th.O.ctx.Context.rip
      (Printf.sprintf "core %d thread %d: no commit since cycle %d"
         t.O.core_id th.O.tid th.O.last_progress);
  let w_end = Gc.minor_words () and t_end = Clock.now () in
  ns.(0) <- ns.(0) + (t1 - t0);
  ns.(1) <- ns.(1) + (t2 - t1);
  ns.(2) <- ns.(2) + (t3 - t2');
  ns.(3) <- ns.(3) + (t4 - t3');
  ns.(4) <- ns.(4) + (t5 - t4);
  ns.(n) <- ns.(n) + (t_end - t_step);
  words.(0) <- words.(0) +. (w1 -. w0);
  words.(1) <- words.(1) +. (w2 -. w1);
  words.(2) <- words.(2) +. (w3 -. w2');
  words.(3) <- words.(3) +. (w4 -. w3');
  words.(4) <- words.(4) +. (w5 -. w4);
  words.(n) <- words.(n) +. (w_end -. w_step);
  acc.steps <- acc.steps + 1;
  acc.committed <- acc.committed + (Stats.value t.O.c_uops - uops0);
  acc.last_end <- t_end;
  acc.last_words <- w_end

(* Swap a freshly built single-thread OOO instance's [step] for the
   replica. [native] reads the native core's retired-instruction count,
   for the gap split. Other instances are left alone. *)
let wrap acc ~(env : Env.t) ~native (inst : Registry.instance) =
  match inst.Registry.handle with
  | Registry.Core_ooo core when Array.length core.O.threads = 1 ->
    let th = core.O.threads.(0) and sh = shadow core in
    {
      inst with
      Registry.step =
        (fun () ->
          close_gap acc ~now:(Clock.now ()) ~native:(native ());
          step acc core th sh;
          env.Env.cycle <- env.Env.cycle + 1);
    }
  | _ -> inst
