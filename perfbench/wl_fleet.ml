(* Workload "fleet": a lossy grid of sense-and-send motes (the
   Telosb-style program of Workloads.Fleet) stepped by Net.run, with
   whole-fleet checkpoints.  Net stepping, sleep/wake,
   snapshots and the GC dominate; the execution engine barely matters,
   so an engine-only gain should read as "no change" here.

   Set-up compiles the program, creates the network and runs the
   warm-up; one unit of work advances the lockstep horizon by one send
   cycle of the program (two sampling periods, i.e. two Timer0
   overflows).  Every [checkpoint_every] units the whole fleet is
   captured, encoded, decoded and compared.  One round is
   [checkpoint_every] units and their checkpoint.  After the timed
   phase the last checkpoint is restored over the running network,
   which must then capture identically; restoring drops every mote's
   tier-1 blocks, so the unit after a restore would run cold.  Counts
   are taken at the first checkpoint, so they do not depend on the run
   length. *)

open Common

let motes = 600
let periods = 4000 (* far more than a run reaches: the fleet never finishes *)
let slice = 2 * Machine.Io.timer0_overflow_period
let warmup_units = 6
let checkpoint_every = 3
(* One domain: on a shared two-core host, stepping on two domains made
   the round rates swing with the other tenants' load (quartile spread
   28-36 % over five seeds, against about 7 % on one domain). *)
let domains = 1

type spec = { cols : int; loss_permille : int; copies : int }

let spec seed =
  let st = rng seed 0x666c in
  { cols = pick st 38 42; loss_permille = pick st 140 160; copies = 2 }

let build s =
  let img =
    span "minic.compile" (fun () ->
        Minic.Codegen.compile_source ~name:"fleet"
          (Workloads.Fleet.source ~periods ~copies:s.copies))
  in
  recovery_probe img;
  let net =
    span "net.create" (fun () ->
        let net =
          Net.create ~loss_permille:s.loss_permille ~sink_capacity:64
            (List.init motes (fun _ -> [ img ]))
        in
        Net.link_all net (Net.Topology.grid ~cols:s.cols motes);
        net)
  in
  net

let sum_motes (net : Net.t) f =
  Array.fold_left (fun acc (n : Net.node) -> acc + f n.kernel) 0 net.nodes

let layer_counts a (net : Net.t) =
  counti a "net.quanta" net.quanta;
  counti a "net.routed" net.routed;
  counti a "net.dropped" net.dropped;
  Array.iter (fun (n : Net.node) -> count_kernel a n.kernel) net.nodes

(* Capture, encode, decode and compare the whole fleet, returning the
   decoded checkpoint; the [first] checkpoint's size is counted. *)
let checkpoint a ~first net =
  let snap = span "snapshot.capture" (fun () -> Snapshot.of_net net) in
  let blob = span "snapshot.encode" (fun () -> Snapshot.to_string snap) in
  if first then counti a "snapshot.bytes" (String.length blob);
  match span "snapshot.decode" (fun () -> Snapshot.of_string blob) with
  | Error e ->
    check a false ("checkpoint does not decode: " ^ e);
    None
  | Ok back ->
    check a (Snapshot.equal back snap) "decoded checkpoint differs from capture";
    Some back

let run a ~seed ~seconds ~setup_only =
  let s = spec seed in
  let t0 = now () in
  let net, horizon =
    span "setup" (fun () ->
        let net = build s in
        (* Warm-up: the first send cycles run while every mote's tier-1
           blocks and the sample queues fill; the rate settles after
           [warmup_units].  Users pay this once per fleet, so it is timed
           as set-up rather than left in the measured rounds. *)
        let horizon = ref 0 in
        for _ = 1 to warmup_units do
          horizon := !horizon + slice;
          ignore (span "net.run" (fun () -> Net.run ~domains ~max_cycles:!horizon net))
        done;
        (net, horizon))
  in
  a.setup_s <- now () -. t0;
  List.iter (count_task a) (Net.node net 0).kernel.tasks;
  if not setup_only then begin
    let cycles () = sum_motes net (fun k -> k.m.cycles) in
    let insns () = sum_motes net (fun k -> k.m.insns) in
    let start = now () in
    let deadline = start +. seconds in
    let round = ref (mark a) in
    let last = ref None in
    let i = ref 0 in
    while !i < checkpoint_every || now () < deadline do
      horizon := !horizon + slice;
      let u0 = now () and insns0 = insns () and cycles0 = cycles () in
      let live =
        span ~unit_id:!i "unit" (fun () ->
            span "net.run" (fun () -> Net.run ~domains ~max_cycles:!horizon net))
      in
      add_unit a "cycle" (now () -. u0) ~insns:(insns () - insns0)
        ~cycles:(cycles () - cycles0);
      check a (live = motes) (Printf.sprintf "cycle %d: %d of %d motes live" !i live motes);
      incr i;
      if !i mod checkpoint_every = 0 then begin
        let first = !i = checkpoint_every in
        if first then layer_counts a net;
        last := checkpoint a ~first net;
        close_round a !round;
        round := mark a
      end
    done;
    a.run_wall_s <- now () -. start;
    let st = Workloads.Fleet.stats ~live:motes net in
    check a (st.sent > 0 && st.heard > 0 && st.routed = net.routed)
      "fleet sent or heard nothing";
    Option.iter
      (fun back ->
        span "snapshot.restore" (fun () -> Snapshot.restore_net back net);
        check a (Snapshot.equal (Snapshot.of_net net) back)
          "restored fleet differs from its checkpoint")
      !last;
    (* Kernel overhead base: the same program, cut to a few periods,
       run to completion natively and under SenSmart. *)
    let short =
      Minic.Codegen.compile_source ~name:"fleet"
        (Workloads.Fleet.source ~periods:4 ~copies:s.copies)
    in
    let native = Workloads.Native.run short in
    let k = Kernel.boot [ short ] in
    let stop = Kernel.run ~max_cycles:(10 * Workloads.Fleet.horizon ~periods:4) k in
    check a
      (native.halt = Some Break_hit && stop = Halted Break_hit)
      "short fleet program did not run to completion";
    a.kernel_cycles <- a.kernel_cycles + Machine.Cpu.active_cycles k.m;
    a.native_cycles <- a.native_cycles + native.active_cycles
  end
