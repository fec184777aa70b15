(* Shared plumbing of the measuring program: wall clock, the in-memory
   span recorder of the traced run, the per-run accumulator, and the
   raw JSON record that run.py turns into metrics. *)

let now = Unix.gettimeofday

(* ---------------------------------------------------------------- *)
(* Spans.  Recorded only when [tracing] is set; each one is a call into
   a library layer made from this program (name, start, end, parent span
   and unit id).  Spans stay in memory and are written once at exit. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  unit_id : int;  (** -1 outside any unit of work *)
}

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 0

(* Open spans, innermost first: (span id, unit id). *)
let open_spans : (int * int) list ref = ref []

let span ?unit_id name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent, inherited =
      match !open_spans with (p, u) :: _ -> (p, u) | [] -> (-1, -1)
    in
    let unit_id = Option.value unit_id ~default:inherited in
    open_spans := (id, unit_id) :: !open_spans;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        open_spans := List.tl !open_spans;
        spans := { id; name; start; stop; parent; unit_id } :: !spans)
      f
  end

(* ---------------------------------------------------------------- *)
(* A minimal JSON writer (this program only emits). *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec write_json b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write_json b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write_json b (Str k);
        Buffer.add_char b ':';
        write_json b v)
      kvs;
    Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 4096 in
  write_json b j;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* The per-run accumulator every workload fills in. *)

(* A stretch of the run phase over which throughput is measured; the
   end-to-end rates are taken over complete rounds (see benchlib.py). *)
type round = { r_units : int; r_wall : float; r_insns : int; r_cycles : int }

type acc = {
  mutable setup_s : float;
  mutable run_wall_s : float;
  mutable units : (string * float * int * int) list;
      (** (kind, wall seconds, simulated instructions, simulated cycles)
          of every unit of work, newest first; the simulated counts are 0
          where the unit does not report them *)
  mutable n_units : int;
  mutable rounds : round list;  (** newest first *)
  counts : (string, float) Hashtbl.t;  (** per-layer counts *)
  mutable sim_insns : int;  (** simulated instructions retired in the run phase *)
  mutable sim_cycles : int;  (** simulated mote cycles advanced in the run phase *)
  mutable native_bytes : int;  (** original bytes of every image rewritten *)
  mutable naturalized_bytes : int;
  mutable kernel_cycles : int;  (** active cycles under SenSmart ... *)
  mutable native_cycles : int;  (** ... and natively, same programs *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable info : (string * json) list;
}

let acc () =
  { setup_s = 0.;
    run_wall_s = 0.;
    units = [];
    n_units = 0;
    rounds = [];
    counts = Hashtbl.create 64;
    sim_insns = 0;
    sim_cycles = 0;
    native_bytes = 0;
    naturalized_bytes = 0;
    kernel_cycles = 0;
    native_cycles = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    info = [] }

(* One finished unit of work and the simulated work it did. *)
let add_unit a kind secs ~insns ~cycles =
  a.units <- (kind, secs, insns, cycles) :: a.units;
  a.n_units <- a.n_units + 1;
  a.sim_insns <- a.sim_insns + insns;
  a.sim_cycles <- a.sim_cycles + cycles

(* Rounds: [mark a] opens one, [close_round a m] records everything done
   since [m].  Workloads close complete rounds only, so that every
   round does the same kind of work. *)
type mark = round

let mark a = { r_units = a.n_units; r_wall = now (); r_insns = a.sim_insns; r_cycles = a.sim_cycles }

let close_round a (m : mark) =
  if a.n_units > m.r_units then
    a.rounds <-
      { r_units = a.n_units - m.r_units;
        r_wall = now () -. m.r_wall;
        r_insns = a.sim_insns - m.r_insns;
        r_cycles = a.sim_cycles - m.r_cycles }
      :: a.rounds

let count a name v =
  Hashtbl.replace a.counts name
    (v +. Option.value (Hashtbl.find_opt a.counts name) ~default:0.)

let counti a name v = count a name (float_of_int v)

(* One checked operation: [ok = false] counts a failure with [what]. *)
let check a ok what =
  a.attempted <- a.attempted + 1;
  if not ok then begin
    a.failed <- a.failed + 1;
    if List.length a.failures < 20 then a.failures <- what :: a.failures
  end

let note a key v = a.info <- (key, v) :: a.info

(* A seeded generator, independent of the global [Random] state. *)
let rng seed salt = Random.State.make [| seed; salt |]

let pick st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Rewrite accounting, from a rewrite report or from a task the kernel
   naturalized at boot. *)
let count_rewrite a ~native ~total ~patched ~trampolines =
  a.native_bytes <- a.native_bytes + native;
  a.naturalized_bytes <- a.naturalized_bytes + total;
  counti a "rewriter.insns_patched" patched;
  counti a "rewriter.trampolines" trampolines;
  counti a "rewriter.bytes_inflated" (total - native)

let count_report a (r : Rewriter.Report.t) =
  count_rewrite a ~native:r.native_bytes ~total:r.total_bytes ~patched:r.insns_patched
    ~trampolines:r.trampolines

let count_task a (t : Kernel.Task.t) =
  count_rewrite a
    ~native:(Asm.Image.total_bytes t.nat.source)
    ~total:(Rewriter.Naturalized.total_bytes t.nat)
    ~patched:t.nat.stats.patched ~trampolines:t.nat.stats.trampolines

(* Engine and kernel-service counts of one machine or booted kernel,
   summed over calls; the preemption delay keeps its maximum. *)
let count_machine a (m : Machine.Cpu.t) =
  counti a "machine.insns" m.insns;
  counti a "machine.active_cycles" (Machine.Cpu.active_cycles m);
  counti a "machine.idle_cycles" m.idle_cycles;
  counti a "machine.mem_accesses" (m.mem_reads + m.mem_writes)

let count_kernel a (k : Kernel.t) =
  let st = k.stats in
  counti a "kernel.traps" st.traps;
  counti a "kernel.context_switches" st.context_switches;
  counti a "kernel.relocations" st.relocations;
  counti a "kernel.relocated_bytes" st.relocated_bytes;
  counti a "kernel.grow_requests" st.grow_requests;
  let prev = Option.value (Hashtbl.find_opt a.counts "kernel.preempt_delay_max") ~default:0. in
  Hashtbl.replace a.counts "kernel.preempt_delay_max"
    (Float.max prev (float_of_int st.preempt_delay_max));
  count_machine a k.m

(* The traced run also times block recovery, the rewriter's first
   stage, on its own for every image it rewrites. *)
let recovery_probe img =
  if !tracing then ignore (span "rewriter.recovery" (fun () -> Rewriter.Recovery.run img))
