(* Tiered execution front-end for the AVR machine.

   All machine state and the tier-0 single-step reference interpreter
   live in {!State} (re-exported here, so callers see one [Cpu] module).
   This module owns the two run loops:

   - [run_interp] steps one instruction at a time through [step].  It is
     the reference tier and the only tier that fires the per-instruction
     [m.trace] hook.
   - [run_compiled] serves tiers 1 and 2.  Each iteration tries the
     tier-2 ahead-of-time program ({!Aot}) when [m.tier >= 2], and
     otherwise — or wherever that program has no code for the PC —
     enters the tier-1 closure cached for the PC ({!Block}).  Compiled
     code is entered only when its worst-case cycle cost fits under both
     the fuel and the preemption horizon, so every stop point
     (Preempted / Out_of_fuel / Sleeping / Halted) lands on exactly the
     cycle tier-0 would stop at.  Any miss — cold or uncompilable entry,
     horizon too close — falls back to a single tier-0 [step].

   [run] picks the loop: tracing (or [~interp:true], or tier 0) selects
   [run_interp]; otherwise the per-instruction trace-option check
   disappears from the hot path entirely (compiled code never consults
   it). *)

include State

(** Tier-0: run until halt, SLEEP, the preemption horizon, or
    [max_cycles], one [step] at a time. *)
let run_interp ?(max_cycles = max_int) m : stop =
  let rec loop () =
    match m.halted with
    | Some h -> Halted h
    | None ->
      if m.cycles >= max_cycles then Out_of_fuel
      else if m.cycles >= m.preempt_at then Preempted
      else begin
        step m;
        if m.sleeping then begin
          m.sleeping <- false;
          Sleeping
        end
        else loop ()
      end
  in
  loop ()

(** Tiers 1 and 2: same contract as [run_interp].  A tier-1 block is
    entered only if even its worst-case cost cannot overrun [max_cycles]
    or [m.preempt_at] (tier-2 code re-checks the same bound at every
    block boundary); otherwise the machine single-steps right up to the
    limit exactly as tier-0 would. *)
let run_compiled ?(max_cycles = max_int) m : stop =
  Block.ensure m;
  (* [loop] is entered with the machine known live: not halted, not
     sleeping, and strictly below both cycle limits.  A compiled block
     whose terminator is pure control flow returns [true] ("benign"),
     letting the loop skip the halted/sleeping/trace re-checks; only
     SYSCALL, BREAK and SLEEP terminators (and tier-0 fallback steps)
     can change those fields and route through [post]. *)
  let rec loop () = if m.tier >= 2 then tier2 () else tier1 ()
  and tier1 () =
    let pc = m.pc land 0xFFFF in
    match
      Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF)
    with
    | Some b ->
      (* The lower of the two horizons; [preempt_at] can only move while
         we are outside the benign path, so re-deriving it here is safe. *)
      let limit =
        if max_cycles < m.preempt_at then max_cycles else m.preempt_at
      in
      if m.cycles + b.worst <= limit then begin
        if b.exec m limit then
          (* Benign terminator: only the cycle horizons can trip. *)
          if m.cycles >= max_cycles then Out_of_fuel
          else if m.cycles >= m.preempt_at then Preempted
          else loop ()
        else post ()
      end
      else begin
        (* Worst case overruns a horizon: single-step to stay exactly
           on the stop point tier-0 would produce. *)
        step m;
        post ()
      end
    | None ->
      (match Block.lookup m pc with
       | Some _ -> tier1 ()
       | None ->
         (* Below the compile threshold, or an undecodable entry (the
            reference step then reports the halt). *)
         step m;
         post ())
  and tier2 () =
    match Aot.attempt m with
    | Some (p, c) when p.Aot_runtime.has (m.pc land 0xFFFF) ->
      Aot.to_ctx m c;
      c.limit <- (if max_cycles < m.preempt_at then max_cycles else m.preempt_at);
      c.stop <- Aot_runtime.stop_miss;
      c.arg <- 0;
      p.enter c;
      Aot.of_ctx m c;
      let s = c.stop in
      if s = Aot_runtime.stop_sleep then
        (* SLEEP terminator: same net effect as tier-0's set-then-clear
           of [m.sleeping]. *)
        Sleeping
      else if s = Aot_runtime.stop_break then begin
        m.halted <- Some Break_hit;
        Halted Break_hit
      end
      else if s = Aot_runtime.stop_syscall then begin
        (match m.on_syscall with
         | Some f -> f m c.arg
         | None ->
           m.halted <-
             Some (Fault (Printf.sprintf "syscall %d with no kernel" c.arg)));
        post ()
      end
      else if
        (* Miss or horizon: chaining may have run the clock right up to
           a limit before stopping. *)
        m.cycles >= max_cycles
      then Out_of_fuel
      else if m.cycles >= m.preempt_at then Preempted
      else if s = Aot_runtime.stop_horizon then begin
        (* Next block's worst case overruns a horizon: single-step to
           stay exactly on the tier-0 stop point. *)
        step m;
        post ()
      end
      else
        (* PC left compiled coverage: serve one iteration from below. *)
        tier1 ()
    | _ -> tier1 ()
  and post () =
    match m.halted with
    | Some h -> Halted h
    | None ->
      if m.sleeping then begin
        m.sleeping <- false;
        Sleeping
      end
      else if m.cycles >= max_cycles then Out_of_fuel
      else if m.cycles >= m.preempt_at then Preempted
      else if m.trace <> None then
        (* A hook appeared mid-run (e.g. installed by a syscall
           handler): honour it instruction by instruction. *)
        run_interp ~max_cycles m
      else loop ()
  in
  match m.halted with
  | Some h -> Halted h
  | None ->
    if m.cycles >= max_cycles then Out_of_fuel
    else if m.cycles >= m.preempt_at then Preempted
    else loop ()

(** Run until halt, SLEEP, the preemption horizon, or [max_cycles].
    [?tier], when given, is stored as the machine's requested tier
    ceiling first.  Dispatch: tracing (or [~interp:true]) forces tier-0;
    otherwise [m.tier] selects the engine, each tier falling back to the
    one below wherever it cannot serve the current PC. *)
let run ?(interp = false) ?tier ?(max_cycles = max_int) m : stop =
  (match tier with Some t -> m.tier <- t | None -> ());
  if interp || m.trace <> None || m.tier <= 0 then run_interp ~max_cycles m
  else run_compiled ~max_cycles m

(** Run a standalone program to completion: SLEEP fast-forwards to the
    next peripheral wake-up, exactly like a bare-metal TinyOS-style app.
    Returns the final halt and the consumed cycle count. *)
let run_native ?(interp = false) ?tier ?(max_cycles = 1_000_000_000) m :
    halt option =
  (match tier with Some t -> m.tier <- t | None -> ());
  let rec loop () =
    match run ~interp ~max_cycles m with
    | Halted h -> Some h
    | Sleeping ->
      let wake = next_wake m in
      if wake = max_int || wake > max_cycles then None
      else begin
        fast_forward m wake;
        loop ()
      end
    | Preempted ->
      (* No kernel is driving this run, so a stale horizon below the
         clock would make [run] return [Preempted] forever: clear it. *)
      m.preempt_at <- max_int;
      loop ()
    | Out_of_fuel -> None
  in
  loop ()
