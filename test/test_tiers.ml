(* Differential harness for the execution tiers: tier-1 compiled basic
   blocks and tier-2 ahead-of-time compiled OCaml (see {!Machine.Aot})
   against the tier-0 reference interpreter.  The tiers must agree bit
   for bit on every architectural field, every counter, and every stop
   point — on all bundled programs (assembly DSL and minic-compiled),
   on thousands of randomized programs (including cycle-clocked
   peripheral reads, which pin the exact cycle count at every I/O
   access), on whole kernel runs including their trace event streams,
   across snapshot/restore, under fault injection, and on multi-domain
   fleets.

   When the host has no working toolchain, tier-2 degrades to tier-1
   (with one warning) rather than failing, so every comparison below
   still passes — it just stops exercising the compiled path. *)

let assemble = Asm.Assembler.assemble

(* Tier-2 compiles are gated behind an executed-instruction threshold
   in normal use; the differential tests want them immediately. *)
let () = Machine.Aot.set_threshold 0

(* Full observable machine state.  The string values keep Alcotest
   failure messages usable; SRAM is digested (0x1100 bytes). *)
let snapshot (m : Machine.Cpu.t) : (string * string) list =
  [ ("regs", String.concat "," (List.map string_of_int (Array.to_list m.regs)));
    ("pc", string_of_int m.pc);
    ("sp", string_of_int m.sp);
    ("sreg", string_of_int m.sreg);
    ("cycles", string_of_int m.cycles);
    ("idle_cycles", string_of_int m.idle_cycles);
    ("insns", string_of_int m.insns);
    ("mem_reads", string_of_int m.mem_reads);
    ("mem_writes", string_of_int m.mem_writes);
    ("io_reads", string_of_int m.io_reads);
    ("io_writes", string_of_int m.io_writes);
    ("halted", Fmt.str "%a" Fmt.(option Machine.Cpu.pp_halt) m.halted);
    ("sleeping", string_of_bool m.sleeping);
    ("sram", Digest.to_hex (Digest.bytes m.sram)) ]

let check_snapshots what s0 s1 =
  List.iter2
    (fun (k, v0) (k', v1) ->
      assert (k = k');
      Alcotest.(check string) (Printf.sprintf "%s: %s" what k) v0 v1)
    s0 s1

(* Run [img] bare-metal under one tier and snapshot the final state. *)
let native_snap ~tier img =
  let r = Workloads.Native.run ~tier ~max_cycles:200_000_000 img in
  snapshot r.machine

(* The three-way check: tier-0 is the reference, 1 and 2 must match. *)
let check3 what img =
  let s0 = native_snap ~tier:0 img in
  check_snapshots (what ^ ": tier-1") s0 (native_snap ~tier:1 img);
  check_snapshots (what ^ ": tier-2") s0 (native_snap ~tier:2 img)

let bundled_program name () =
  match Workloads.Registry.find_image name with
  | None -> Alcotest.failf "no image for %s" name
  | Some img -> check3 name img

(* Whole-kernel differential at every tier: same images, the tier-0
   kernel forced down by installing a (no-op) per-instruction trace
   hook.  Scheduling, preemption, relocation and the trace event stream
   must all be identical. *)
let kernel_all_tiers images () =
  let boot tier =
    let trace = Trace.create () in
    let k = Kernel.boot ~trace images in
    if tier = 0 then k.m.trace <- Some (fun _ _ -> ());
    let stop = Kernel.run ~tier ~max_cycles:3_000_000 k in
    Kernel.check_invariants k;
    Kernel.publish_counters k;
    (k, stop, trace)
  in
  let k0, stop0, t0 = boot 0 in
  List.iter
    (fun tier ->
      let k1, stop1, t1 = boot tier in
      let what = Printf.sprintf "kernel tier-%d" tier in
      Alcotest.(check string)
        (what ^ " stop")
        (Fmt.str "%a" Machine.Cpu.pp_stop stop0)
        (Fmt.str "%a" Machine.Cpu.pp_stop stop1);
      (* The tier-0 kernel carries the forced hook; ignore the field by
         comparing snapshots, which never include [trace]. *)
      check_snapshots (what ^ " machine") (snapshot k0.m) (snapshot k1.m);
      Alcotest.(check int)
        (what ^ " event count")
        (List.length (Trace.events t0))
        (List.length (Trace.events t1));
      List.iter2
        (fun e0 e1 ->
          Alcotest.(check bool)
            (Fmt.str "event %a = %a" Trace.pp_event e0 Trace.pp_event e1)
            true
            (Trace.equal_event e0 e1))
        (Trace.events t0) (Trace.events t1);
      Alcotest.(check (list (pair string int)))
        (what ^ " counters") (Trace.counters t0) (Trace.counters t1))
    [ 1; 2 ]

let kernel_single () =
  kernel_all_tiers [ assemble (Programs.Crc_bench.program ~passes:3 ()) ] ()

let kernel_multitask () =
  kernel_all_tiers
    [ assemble (Programs.Bintree.feeder ~trees:2 ~nodes:8 ());
      assemble (Programs.Bintree.search ~nodes:8 ());
      assemble (Programs.Lfsr_bench.program ~iters:300 ()) ]
    ()

(* Mid-run snapshot taken under tier-2, restored into a fresh kernel
   and continued under tier-2: the restored machine's flash is adopted
   afresh, so tier-2 re-binds (or recompiles) from the restored image,
   and the continuation must land exactly where an uninterrupted tier-0
   run does. *)
let snapshot_restore_tier2 () =
  let names = [ "crc"; "lfsr" ] in
  let images () = List.map (fun n -> Option.get (Workloads.Registry.find_image n)) names in
  let full = 2_400_000 and cut = 900_000 in
  let k0 = Kernel.boot (images ()) in
  ignore (Kernel.run ~tier:0 ~max_cycles:full k0);
  let k2 = Kernel.boot (images ()) in
  ignore (Kernel.run ~tier:2 ~max_cycles:cut k2);
  let s = Snapshot.of_kernel ~programs:names k2 in
  let k2' = Kernel.boot (images ()) in
  Snapshot.restore_kernel s k2';
  ignore (Kernel.run ~tier:2 ~max_cycles:full k2');
  check_snapshots "snapshot/restore tier-2" (snapshot k0.m) (snapshot k2'.m)

(* Regression: a self-patch through {!Machine.Cpu.load} on a mote whose
   flash aliases a shared template (copy-on-write) must invalidate that
   mote's tier-2 binding — and must *not* disturb siblings still on the
   template.  Would fail if [load] forgot [m.t2 <- T2_unknown]: the
   patched mote would keep executing the stale compiled program. *)
let cow_invalidation () =
  let open Asm.Macros in
  let build k =
    assemble
      (Asm.Ast.program "cowp"
         (lbl "start" :: (sp_init @ [ ldi 24 k; break ])))
  in
  let img5 = build 5 and img7 = build 7 in
  let tpl = Array.make Machine.Layout.flash_words 0xFFFF in
  Array.blit img5.words 0 tpl 0 (Array.length img5.words);
  let boot () =
    let m = Machine.Cpu.create_shared tpl in
    m.pc <- img5.entry;
    m
  in
  let m1 = boot () and m2 = boot () in
  let rerun m =
    m.Machine.Cpu.halted <- None;
    m.pc <- img5.entry;
    ignore (Machine.Cpu.run ~tier:2 ~max_cycles:1_000_000 m);
    m.regs.(24)
  in
  Alcotest.(check int) "mote 1 before patch" 5 (rerun m1);
  Alcotest.(check int) "mote 2 before patch" 5 (rerun m2);
  (* Self-patch mote 1 in place: same program with a different
     immediate.  The COW contract copies the template privately first;
     the tier-2 binding compiled from the template must go with it. *)
  Machine.Cpu.load m1 img7.words;
  Alcotest.(check int) "mote 1 runs its patched code" 7 (rerun m1);
  Alcotest.(check bool) "mote 1 copied before writing" false
    (m1.Machine.Cpu.flash == tpl);
  Alcotest.(check bool) "mote 2 still aliases the template" true
    (m2.Machine.Cpu.flash == tpl);
  Alcotest.(check int) "mote 2 undisturbed" 5 (rerun m2)

(* One machine run in [max_cycles] slices with the tier ceiling rotating
   2, 1, 0, 2, ... between [Cpu.run] calls: the tier-2 binding and the
   tier-1 block cache must survive the slices other tiers run, and the
   final state must be a single tier-0 run's bit for bit.  SLEEP
   fast-forwards to the next wake-up as in [Cpu.run_native]. *)
let rotating_tiers () =
  let total = 200_000_000 in
  (* Slice lengths vary so the cuts land at many different points. *)
  let slice i = 97 + (i * 7919 mod 2003) in
  List.iter
    (fun name ->
      let img = Option.get (Workloads.Registry.find_image name) in
      let m = Machine.Cpu.create () in
      Machine.Cpu.load m img.words;
      List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) img.data_init;
      m.pc <- img.entry;
      let rec go i =
        let tier = [| 2; 1; 0 |].(i mod 3) in
        let max_cycles = min total (m.cycles + slice i) in
        match Machine.Cpu.run ~tier ~max_cycles m with
        | Halted _ -> ()
        | Sleeping ->
          let wake = Machine.Cpu.next_wake m in
          if wake <> max_int && wake <= total then begin
            Machine.Cpu.fast_forward m wake;
            go (i + 1)
          end
        | Preempted ->
          m.preempt_at <- max_int;
          go (i + 1)
        | Out_of_fuel -> if m.cycles < total then go (i + 1)
      in
      go 0;
      check_snapshots (name ^ ": rotating tiers") (native_snap ~tier:0 img)
        (snapshot m))
    [ "crc"; "timer"; "periodic"; "crc_mc" ]

(* Fault containment under tier-2: the same seeded plan replayed at
   tier 0 and at tier 2 must produce identical final state. *)
let fault_tier2 () =
  let images () = [ assemble (Programs.Crc_bench.program ~passes:3 ()) ] in
  let run tier =
    let k = Kernel.boot (images ()) in
    if tier = 0 then k.m.trace <- Some (fun _ _ -> ());
    k.m.tier <- tier;
    let plan =
      Fault.Plan.random ~seed:42 ~n:3 ~window:(100_000, 1_500_000) ()
    in
    let stop = Fault.run_kernel ~max_cycles:2_000_000 ~plan k in
    (Fmt.str "%a" Machine.Cpu.pp_stop stop, snapshot k.m)
  in
  let stop0, s0 = run 0 in
  let stop2, s2 = run 2 in
  Alcotest.(check string) "fault stop" stop0 stop2;
  check_snapshots "fault tier-2" s0 s2

(* Fleets under tier-2: 1, 2 and 4 domains must be byte-identical to
   each other and to the tier-1 single-domain run; motes share one
   template image, so the whole fleet compiles each program once. *)
let fleet_tier2 () =
  let periods = 2 in
  let run ~tier ~domains =
    let net =
      Workloads.Fleet.create ~loss_permille:100 ~periods ~copies:2
        ~topology:(Workloads.Fleet.Grid 4) 12
    in
    let live =
      Net.run ~tier ~domains
        ~max_cycles:(Workloads.Fleet.horizon ~periods)
        net
    in
    ( live,
      Array.to_list net.nodes
      |> List.concat_map (fun (n : Net.node) -> snapshot n.kernel.m) )
  in
  let live1, ref_snap = run ~tier:1 ~domains:1 in
  List.iter
    (fun domains ->
      let live2, s2 = run ~tier:2 ~domains in
      Alcotest.(check int)
        (Printf.sprintf "live motes (%d domains)" domains)
        live1 live2;
      check_snapshots (Printf.sprintf "fleet tier-2 %d domains" domains)
        ref_snap s2)
    [ 1; 2; 4 ]

(* Randomized short programs, I/O blocks included: any divergence in
   dispatch, flag math, cycle pre-summing or side-exit accounting shows
   up as a differing snapshot. *)
let prop_tiers =
  QCheck.Test.make ~name:"random programs: tier-1 == tier-0" ~count:1200
    Gen.arb_program_io
    (fun p ->
      let img = assemble p in
      native_snap ~tier:0 img = native_snap ~tier:1 img)

(* The same randomized coverage against tier-2.  Spawning the toolchain
   1200 times would dominate the suite, so the whole population is
   generated up front and batch-compiled via {!Machine.Aot.preload}
   (which also exercises the multi-module artifact path); the runs then
   bind straight from the registry. *)
let fuzz_count = 1200

let fuzz_tier2 () =
  let progs =
    QCheck.Gen.generate ~n:fuzz_count
      ~rand:(Gen.rand_state ())
      (Gen.gen_program ~io:true)
  in
  let imgs = List.map assemble progs in
  Machine.Aot.preload (List.map (fun (i : Asm.Image.t) -> i.words) imgs);
  List.iteri
    (fun i img ->
      if native_snap ~tier:0 img <> native_snap ~tier:2 img then
        Alcotest.failf
          "random program %d diverges at tier 2 (replay with SENSMART_SEED)" i)
    imgs

let () =
  let bundled =
    List.map
      (fun name ->
        Alcotest.test_case ("bundled " ^ name) `Quick (bundled_program name))
      Workloads.Registry.names
  in
  Alcotest.run "tiers"
    [ ("bundled", bundled);
      ("kernel",
       [ Alcotest.test_case "single task" `Quick kernel_single;
         Alcotest.test_case "multitasking + relocation" `Quick
           kernel_multitask ]);
      ("tier2",
       [ Alcotest.test_case "snapshot/restore" `Quick snapshot_restore_tier2;
         Alcotest.test_case "shared-flash self-patch invalidation" `Quick
           cow_invalidation;
         Alcotest.test_case "fault plan differential" `Quick fault_tier2;
         Alcotest.test_case "rotating tier ceiling" `Quick rotating_tiers;
         Alcotest.test_case "fleet 1/2/4 domains" `Slow fleet_tier2;
         Alcotest.test_case "randomized programs (preloaded)" `Slow fuzz_tier2 ]);
      ("fuzz", List.map Gen.to_alcotest [ prop_tiers ]) ]
