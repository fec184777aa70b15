(* Tier-1 execution engine: a basic-block compiler for the simulated AVR.

   Once a program point is hot, the superblock [form] finds there — the
   decoded instructions up to (and including) the next block-ending
   instruction (unconditional branch/call/ret, SYSCALL, SLEEP, BREAK —
   see {!Avr.Isa.ends_block}) — is compiled into a single closure that
   executes the whole run with none of tier-0's per-instruction
   overhead: no run-loop stop checks, no decode-cache lookup, no trace
   option check, no PC update, no [Isa.words]/[Cycles.base] dispatch,
   and a single batched update of the retired-instruction counter.

   Conditional branches do not end a block.  The former keeps
   collecting the fall-through path and the compiler turns each
   BRBS/BRBC into an in-body side exit, so a branchy inner loop (the
   common sensor-node code shape) still compiles into one long
   superblock; a taken branch
   sets the PC and leaves the block early with exact cycle and
   instruction accounting.

   [form] is also tier 2's block former ({!Aot.discover}), so a block
   entered at a given PC has the same shape in both compiled tiers.

   The body is a pre-decoded instruction array walked by the inlined
   {!State.exec_op}; per-instruction cycle costs are pre-computed
   into a parallel array, and runs of instructions that cannot touch the
   data space (and cannot exit) have their costs pre-summed onto the
   run's first entry, so a load/store still observes exactly the cycle
   count tier-0 would have at that point (peripheral registers are
   clocked off [m.cycles]).

   Closures are cached in [m.blocks] (chunked, copy-on-write — see
   {!State}), keyed by entry PC, and invalidated by {!State.load} (the
   only path that writes flash — the kernel's trampoline/kcell patching
   and run-time task admission go through it).  Each cached block
   carries [worst], an upper bound on the cycles one execution can
   consume; {!Cpu.run} only enters a compiled block when the whole run
   fits under the preemption/fuel horizon and falls back to
   single-stepping otherwise, which keeps tier-1 stop points
   bit-identical to tier-0's.

   Correctness contract: for any machine state, executing a compiled
   block leaves every architectural field (registers, SP, SREG, PC,
   SRAM, peripherals, cycle/instruction/access counters, halt reason)
   exactly as executing the same instructions with {!State.step} would.
   The differential harness in test/test_tiers.ml enforces this on all
   bundled programs and thousands of randomized ones. *)

open Avr
open State

(* Instructions per block body, capped so a block's flash span stays
   within [State.max_block_span] (each instruction is at most 2 words,
   plus a 2-word terminator). *)
let max_body = 48

let () = assert ((max_body * 2) + 2 <= max_block_span)

(* Raised (without a backtrace: they are on the hot path) when a taken
   conditional branch leaves a block early ([Side_exit]), or loops back
   to the block's own entry with the next iteration's worst case still
   under the horizon ([Loop_back]: [exec] restarts the walk without
   returning to the run loop, so a tight inner loop never pays the
   block-transition overhead on its back edge). *)
exception Side_exit
exception Loop_back

(* Walk a block body.  [stops] holds the body index of every
   conditional branch, then the body length: between two stops the walk
   is a plain run of non-control instructions, each executed by the
   inlined {!State.exec_op} behind a single dispatch (testing every
   instruction for a branch first cost tier 1 about a tenth of its
   throughput).  PC, cycle and retired-count bookkeeping belong to the
   block closure.  For the [k]th branch, [targets.(k)] is its
   pre-resolved taken-target word address and [loopb.(k)] whether that
   is the block's own entry; a taken branch sets the PC, charges its
   extra cycle, retires the instructions executed so far and raises
   {!Side_exit}. *)
let exec_run m (ops : Isa.t array) (costs : int array) (stops : int array)
    (targets : int array) (loopb : bool array) worst limit =
  let first = ref 0 in
  for k = 0 to Array.length stops - 1 do
    let stop = Array.unsafe_get stops k in
    for idx = !first to stop - 1 do
      m.cycles <- m.cycles + Array.unsafe_get costs idx;
      exec_op m (Array.unsafe_get ops idx)
    done;
    if stop < Array.length ops then begin
      m.cycles <- m.cycles + Array.unsafe_get costs stop;
      let taken =
        match Array.unsafe_get ops stop with
        | Isa.Brbs (s, _) -> (m.sreg lsr s) land 1 = 1
        | Isa.Brbc (s, _) -> (m.sreg lsr s) land 1 = 0
        | _ -> false
      in
      if taken then begin
        m.cycles <- m.cycles + Cycles.branch_taken_extra;
        m.insns <- m.insns + stop + 1;
        if Array.unsafe_get loopb k && m.cycles + worst <= limit then
          raise_notrace Loop_back
        else begin
          m.pc <- Array.unsafe_get targets k;
          raise_notrace Side_exit
        end
      end;
      first := stop + 1
    end
  done

(* Compile the block terminator into a closure.  [pc] is the
   terminator's own word address; targets are resolved at compile time
   where the ISA allows.  Cycle costs are charged before any memory
   effect (push/pop of the return address), matching the order of
   [State.step].  The returned flag is the "benign" bit: [true] for pure
   control flow, [false] when the terminator can halt, sleep or trap. *)
let compile_terminator (insn : Isa.t) ~pc : t -> bool =
  let cost = Cycles.base insn in
  let fall = (pc + Isa.words insn) land 0xFFFF in
  match insn with
  | Rjmp k ->
    let tgt = (pc + 1 + k) land 0xFFFF in
    fun m -> m.cycles <- m.cycles + cost; m.pc <- tgt; true
  | Rcall k ->
    let tgt = (pc + 1 + k) land 0xFFFF in
    fun m ->
      m.cycles <- m.cycles + cost;
      push_pc m fall;
      m.pc <- tgt;
      true
  | Jmp a ->
    let tgt = a land 0xFFFF in
    fun m -> m.cycles <- m.cycles + cost; m.pc <- tgt; true
  | Call a ->
    let tgt = a land 0xFFFF in
    fun m ->
      m.cycles <- m.cycles + cost;
      push_pc m fall;
      m.pc <- tgt;
      true
  | Ijmp -> fun m -> m.cycles <- m.cycles + cost; m.pc <- zreg m; true
  | Icall ->
    fun m ->
      m.cycles <- m.cycles + cost;
      push_pc m fall;
      m.pc <- zreg m;
      true
  | Ret -> fun m -> m.cycles <- m.cycles + cost; m.pc <- pop_pc m; true
  | Reti ->
    fun m ->
      m.cycles <- m.cycles + cost;
      m.pc <- pop_pc m;
      set_flag m fi true;
      true
  | Sleep ->
    fun m ->
      m.cycles <- m.cycles + cost;
      m.pc <- fall;
      m.sleeping <- true;
      false
  | Break ->
    fun m ->
      m.cycles <- m.cycles + cost;
      m.pc <- fall;
      m.halted <- Some Break_hit;
      false
  | Syscall k ->
    fun m ->
      m.cycles <- m.cycles + cost;
      m.pc <- fall;
      (match m.on_syscall with
       | Some f -> f m k
       | None ->
         m.halted <- Some (Fault (Printf.sprintf "syscall %d with no kernel" k)));
      false
  | _ -> invalid_arg "Block.compile_terminator: not a block-ending instruction"

(* Pre-sum cycle costs: runs of instructions that cannot touch the data
   space charge their whole cost on the run's first entry (later entries
   cost 0), so every memory-touching instruction still executes with
   [m.cycles] exactly as under tier-0.  A conditional branch closes the
   run *after* contributing its own (not-taken) cost: cycles for
   instructions beyond a possible side exit are never pre-charged, so an
   early exit leaves the clock exact too. *)
let presum_costs (ops : Isa.t array) : int array =
  let n = Array.length ops in
  let costs = Array.make n 0 in
  let run_head = ref 0 in
  for i = 0 to n - 1 do
    let c = Cycles.base ops.(i) in
    if Isa.touches_data_memory ops.(i) then begin
      costs.(i) <- c;
      run_head := i + 1
    end
    else begin
      costs.(!run_head) <- costs.(!run_head) + c;
      if Isa.is_cond_branch ops.(i) then run_head := i + 1
    end
  done;
  costs

(* A superblock as found from flash alone: the unit tier 1 compiles to
   a closure and tier 2 ({!Aot}) translates to a function. *)
type superblock = {
  body : (Isa.t * int) array;  (* (insn, own word address) *)
  term : Isa.t option;  (* block-ending insn, at [term_pc]; None = cap *)
  term_pc : int;
  worst : int;  (* upper bound on cycles one execution consumes *)
  retired : int;  (* instructions retired by a full (non-side-exit) run *)
}

(* Form the superblock entered at [entry] over [fetch]: decode up to
   (and including) the next block-ending instruction, at most
   [max_body] body instructions, keeping conditional branches as
   in-body side exits.  [None] when the entry word itself is
   undecodable; an undecodable word later on ends the block without a
   terminator, like the cap. *)
let form fetch entry : superblock option =
  let rec go pc acc n worst insns =
    if n >= max_body then fin pc acc None worst insns
    else
      match Decode.at fetch pc with
      | exception Decode.Unknown_opcode _ ->
        if pc = entry then None else fin pc acc None worst insns
      | insn, size ->
        if Isa.ends_block insn then
          fin pc acc (Some insn) (worst + Cycles.base insn) (insns + 1)
        else
          let extra =
            if Isa.is_cond_branch insn then Cycles.branch_taken_extra else 0
          in
          go (pc + size)
            ((insn, pc) :: acc)
            (n + 1)
            (worst + Cycles.base insn + extra)
            (insns + 1)
  and fin pc acc term worst insns =
    Some
      { body = Array.of_list (List.rev acc);
        term;
        term_pc = pc;
        worst;
        retired = insns }
  in
  go entry [] 0 0 0

(* Compile and cache the block entered at [entry].  Returns [None] when
   the entry word itself is undecodable (tier-0 [step] then reports the
   [Invalid_opcode] halt with the correct PC). *)
let compile m entry : block option =
  match form (fun a -> m.flash.(a land 0xFFFF)) entry with
  | None -> None
  | Some sb ->
    let n = Array.length sb.body in
    let ops = Array.map fst sb.body in
    (* Side exits, as (body index, taken target), in body order. *)
    let exits = ref [] in
    for i = n - 1 downto 0 do
      match sb.body.(i) with
      | ((Isa.Brbs (_, k) | Isa.Brbc (_, k)) as insn), p ->
        exits := (i, (p + Isa.words insn + k) land 0xFFFF) :: !exits
      | _ -> ()
    done;
    let stops = Array.of_list (List.map fst !exits @ [ n ]) in
    let targets = Array.of_list (List.map snd !exits) in
    let tail =
      match sb.term with
      | Some insn -> compile_terminator insn ~pc:sb.term_pc
      | None ->
        (* Block cap reached or an undecodable word ahead: fall through
           and let the run loop continue (or fault) at [term_pc]. *)
        let next = sb.term_pc land 0xFFFF in
        fun m -> m.pc <- next; true
    in
    let costs = presum_costs ops in
    let loopb = Array.map (fun t -> t = entry) targets in
    let worst = sb.worst and insns = sb.retired in
    (* Block chaining: a benign exit (side exit or pure-control-flow
       terminator) transfers straight to the already-compiled target
       block when its worst case still fits the horizon, skipping the
       run-loop round trip entirely.  Every recursive call is a tail
       call; non-benign exits (SYSCALL/SLEEP/BREAK, which may install
       hooks, patch flash or halt) always return [false] to the run
       loop first, so chaining never outruns a stop condition or a
       block-cache invalidation. *)
    let rec exec m limit =
      try
        exec_run m ops costs stops targets loopb worst limit;
        m.insns <- m.insns + insns;
        if tail m then chain m limit else false
      with
      | Side_exit ->
        (* A taken branch already set PC, cycles and the retired count;
           a branch is pure control flow (benign). *)
        chain m limit
      | Loop_back ->
        (* Back to our own entry with the horizon already re-checked. *)
        exec m limit
    and chain m limit =
      let pc = m.pc land 0xFFFF in
      match
        Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF)
      with
      | Some b when m.cycles + b.State.worst <= limit -> b.exec m limit
      | _ -> true (* not compiled yet or horizon too close: run loop *)
    in
    let b = { exec; State.worst } in
    let ci = entry lsr 8 in
    let chunk =
      let c = m.blocks.(ci) in
      if c != no_chunk then c
      else begin
        let c = Array.make chunk_words None in
        m.blocks.(ci) <- c;
        c
      end
    in
    chunk.(entry land 0xFF) <- Some b;
    Some b

(** Allocate the (tiny) top-level chunk table on first use; the run loop
    indexes it directly on its hot path.  Chunks themselves are shared
    empties until a block is compiled into them. *)
let ensure m =
  if Array.length m.blocks = 0 then begin
    m.blocks <- Array.make chunk_count no_chunk;
    m.heat <- Array.make chunk_count no_heat
  end

(* Compile threshold: an entry PC must be looked up this many times
   before its block is compiled; below it the run loop single-steps via
   tier-0.  Cold straight-line code (boot paths, one-shot handlers, the
   whole body of a short run) is then never compiled at all — the
   "lfsr_default only 1.64x" overhead of BENCH_pr2.json — while a loop
   head reaches the threshold within its first iterations and steady
   state is untouched.  The counter bookkeeping lives entirely on the
   miss path: once compiled, lookups return the cached block without
   touching the heat table. *)
let compile_threshold = 2

(** The compiled block entered at [pc], compiling and caching it once
    [pc] has been looked up [compile_threshold] times.  [None] below the
    threshold (caller steps via tier-0) and when the entry instruction
    is undecodable. *)
let lookup m pc =
  ensure m;
  let pc = pc land 0xFFFF in
  match Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF) with
  | Some _ as cached -> cached
  | None ->
    let ci = pc lsr 8 in
    let chunk =
      let c = Array.unsafe_get m.heat ci in
      if c != no_heat then c
      else begin
        let c = Array.make chunk_words 0 in
        m.heat.(ci) <- c;
        c
      end
    in
    let h = Array.unsafe_get chunk (pc land 0xFF) + 1 in
    if h >= compile_threshold then begin
      Array.unsafe_set chunk (pc land 0xFF) 0;
      compile m pc
    end
    else begin
      Array.unsafe_set chunk (pc land 0xFF) h;
      None
    end
