(* The snapshot subsystem's determinism contract: capture at cycle c,
   restore onto a freshly re-created host, run to cycle d — byte-identical
   to an uninterrupted run to d, in both execution tiers and at any
   domain count.  [Snapshot.diff] is exhaustive over the captured state,
   so a [] diff below really means "the whole machine/kernel/network
   state, trace included, is identical".

   Also covered: serialization (round-trip, corrupt and truncated
   inputs, file save/load), structural-compatibility rejection, periodic
   auto-checkpointing in [Net.run], and the bisection driver finding an
   artificially injected single-cycle divergence. *)

let image name =
  match Workloads.Registry.find_image name with
  | Some img -> img
  | None -> Alcotest.failf "no bundled program %s" name

let kernel_images () = [ image "lfsr"; image "timer" ]

let decode s =
  match Snapshot.of_string (Snapshot.to_string s) with
  | Ok s' -> s'
  | Error msg -> Alcotest.failf "decode of a fresh snapshot failed: %s" msg

let check_identical what reference resumed =
  Alcotest.(check (list string)) what [] (Snapshot.diff reference resumed)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- bare machine ---------------------------------------------------------- *)

let boot_machine (img : Asm.Image.t) =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m img.words;
  List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) img.data_init;
  m.pc <- img.entry;
  m

let machine_round_trip () =
  let img = image "lfsr" in
  let m1 = boot_machine img in
  ignore (Machine.Cpu.run ~max_cycles:20_000 m1);
  let snap = decode (Snapshot.of_machine m1) in
  ignore (Machine.Cpu.run ~max_cycles:90_000 m1);
  let reference = Snapshot.of_machine m1 in
  (* The target ran a DIFFERENT program first, far enough to compile
     tier-1 blocks for it: restore must invalidate them along with the
     flash, or the resumed run executes stale closures. *)
  let m2 = boot_machine (image "crc") in
  ignore (Machine.Cpu.run ~max_cycles:5_000 m2);
  Snapshot.restore_machine snap m2;
  ignore (Machine.Cpu.run ~max_cycles:90_000 m2);
  check_identical "machine round-trip (across a stale program)" reference
    (Snapshot.of_machine m2)

let machine_round_trip_interp () =
  let img = image "crc" in
  let m1 = boot_machine img in
  ignore (Machine.Cpu.run ~interp:true ~max_cycles:7_000 m1);
  let snap = decode (Snapshot.of_machine m1) in
  ignore (Machine.Cpu.run ~interp:true ~max_cycles:40_000 m1);
  let m2 = boot_machine img in
  Snapshot.restore_machine snap m2;
  ignore (Machine.Cpu.run ~interp:true ~max_cycles:40_000 m2);
  check_identical "tier-0 machine round-trip" (Snapshot.of_machine m1)
    (Snapshot.of_machine m2)

(* --- kernel ----------------------------------------------------------------- *)

(* Capture under [capture_interp] at [at], resume under [resume_interp]
   to [horizon]; the reference runs uninterrupted under [resume_interp].
   Mixing tiers is legal because they are bit-identical. *)
let kernel_round_trip ~capture_interp ~resume_interp ~at ~horizon () =
  let k1 = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~interp:capture_interp ~max_cycles:at k1);
  let snap = decode (Snapshot.of_kernel k1) in
  let kr = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~interp:resume_interp ~max_cycles:at kr);
  ignore (Kernel.run ~interp:resume_interp ~max_cycles:horizon kr);
  let reference = Snapshot.of_kernel kr in
  let k2 = Kernel.boot (kernel_images ()) in
  Snapshot.restore_kernel snap k2;
  ignore (Kernel.run ~interp:resume_interp ~max_cycles:horizon k2);
  Kernel.check_invariants k2;
  check_identical "kernel round-trip" reference (Snapshot.of_kernel k2)

(* Randomized capture points: the law must hold wherever the capture
   lands — mid-slice, mid-sleep, around relocations and task exits. *)
let prop_random_capture_cycle =
  QCheck.Test.make ~count:12 ~name:"kernel round-trip at random capture cycles"
    QCheck.(pair (int_range 500 130_000) (int_range 1_000 80_000))
    (fun (at, extra) ->
      let horizon = at + extra in
      let k1 = Kernel.boot (kernel_images ()) in
      ignore (Kernel.run ~max_cycles:at k1);
      let snap = Snapshot.of_kernel k1 in
      ignore (Kernel.run ~max_cycles:horizon k1);
      let reference = Snapshot.of_kernel k1 in
      let k2 = Kernel.boot (kernel_images ()) in
      Snapshot.restore_kernel snap k2;
      ignore (Kernel.run ~max_cycles:horizon k2);
      Snapshot.diff reference (Snapshot.of_kernel k2) = [])

(* --- network ---------------------------------------------------------------- *)

let compile ~name src = Minic.Codegen.compile_source ~name src

let leaf ~packets = compile ~name:"leaf" (Printf.sprintf {|
  var sent;
  fun main() {
    sent = 0;
    while (sent < %d) {
      radio_send(0x55);
      radio_send(sent);
      sent = sent + 1;
    }
    halt;
  }
|} packets)

let sink ~bytes = compile ~name:"sink" (Printf.sprintf {|
  var got;
  fun main() {
    got = 0;
    while (got < %d) {
      if (radio_avail()) {
        got = got + radio_recv();
        got = got + 1;
      }
    }
    halt;
  }
|} bytes)

let relay ~bytes = compile ~name:"relay" (Printf.sprintf {|
  var fwd;
  fun main() {
    fwd = 0;
    while (fwd < %d) {
      if (radio_avail()) {
        radio_send(radio_recv());
        fwd = fwd + 1;
      }
    }
    halt;
  }
|} bytes)

(* A lossy 3-mote chain with a multitasking relay: exercises the loss
   LFSR, mid-flight FIFOs, per-mote sinks and the master trace. *)
let make_net () =
  let packets = 30 in
  let bytes = 2 * packets in
  let compute =
    Asm.Assembler.assemble (Programs.Lfsr_bench.program ~iters:300 ())
  in
  let net =
    Net.create ~loss_permille:100
      [ [ sink ~bytes:1_000_000 ]; [ relay ~bytes; compute ];
        [ leaf ~packets ] ]
  in
  Net.chain net;
  net

let net_budget = 1_200_000
let net_checkpoint = 300_000

(* One checkpointed reference run, shared by the per-domain cases. *)
let net_reference =
  lazy
    (let n = make_net () in
     let first = ref None in
     ignore
       (Net.run ~max_cycles:net_budget ~checkpoint_every:net_checkpoint
          ~on_checkpoint:(fun _ net ->
            if !first = None then first := Some (Snapshot.of_net net))
          n);
     match !first with
     | None -> Alcotest.fail "no checkpoint fired"
     | Some snap -> (snap, Snapshot.of_net n))

let net_round_trip domains () =
  let snap, reference = Lazy.force net_reference in
  let snap = decode snap in
  let n2 = make_net () in
  Snapshot.restore_net snap n2;
  ignore (Net.run ~max_cycles:net_budget ~domains n2);
  check_identical
    (Printf.sprintf "net round-trip at %d domains" domains)
    reference (Snapshot.of_net n2)

(* The satellite concern behind the [] diff: after a mid-run restore,
   [Trace.transfer] keeps merging per-mote sinks in node-id order, so
   the master event stream is identical, event by event, in order. *)
let net_trace_order_after_restore () =
  let snap, _ = Lazy.force net_reference in
  let n_ref = make_net () in
  ignore (Net.run ~max_cycles:net_budget n_ref);
  let n2 = make_net () in
  Snapshot.restore_net (decode snap) n2;
  ignore (Net.run ~max_cycles:net_budget ~domains:2 n2);
  let evs_ref = Trace.events n_ref.trace
  and evs_res = Trace.events n2.trace in
  Alcotest.(check int) "same event count" (List.length evs_ref)
    (List.length evs_res);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Fmt.str "in-order event %a" Trace.pp_event a)
        true (Trace.equal_event a b))
    evs_ref evs_res

let net_checkpoint_cadence () =
  let n = make_net () in
  let seen = ref [] in
  ignore
    (Net.run ~max_cycles:net_budget ~checkpoint_every:100_000
       ~on_checkpoint:(fun h _ -> seen := h :: !seen)
       n);
  let seen = List.rev !seen in
  Alcotest.(check bool) "checkpoints fired" true (List.length seen >= 3);
  List.iter
    (fun h ->
      Alcotest.(check int)
        (Printf.sprintf "checkpoint %d on a 100k crossing" h)
        0 (h mod 100_000))
    seen;
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing, no duplicates" true
    (strictly_increasing seen)

(* --- serialization --------------------------------------------------------- *)

let captured_kernel_snapshot () =
  let k = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~max_cycles:20_000 k);
  Snapshot.of_kernel ~programs:[ "lfsr"; "timer" ] k

let serialization_round_trip () =
  let s = captured_kernel_snapshot () in
  let s' = decode s in
  Alcotest.(check string) "re-encodes identically" (Snapshot.to_string s)
    (Snapshot.to_string s');
  Alcotest.(check (list string)) "programs survive" [ "lfsr"; "timer" ]
    (Snapshot.programs s');
  Alcotest.(check int) "capture cycle survives" (Snapshot.at s)
    (Snapshot.at s');
  check_identical "decoded equals original" s s'

let corrupt_inputs_rejected () =
  let data = Snapshot.to_string (captured_kernel_snapshot ()) in
  (match Snapshot.of_string "this is not a snapshot" with
   | Error msg ->
     Alcotest.(check bool) "magic error is actionable" true
       (contains msg "magic")
   | Ok _ -> Alcotest.fail "accepted garbage");
  List.iter
    (fun percent ->
      let cut = String.sub data 0 (String.length data * percent / 100) in
      match Snapshot.of_string cut with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted input truncated to %d%%" percent)
    [ 0; 3; 50; 90; 99 ];
  let bad_version = Bytes.of_string data in
  Bytes.set bad_version 8 '\x63';  (* the version varint, after the magic *)
  match Snapshot.of_string (Bytes.to_string bad_version) with
  | Error msg ->
    Alcotest.(check bool) "version error names both versions" true
      (contains msg "version")
  | Ok _ -> Alcotest.fail "accepted a future format version"

(* Regression: a length varint larger than the bytes that remain must be
   rejected before anything is allocated.  Overwriting five bytes near
   the tail of a bare-machine snapshot with the varint 2^32-1 once made
   [of_string] escape with [Out_of_memory] instead of returning [Error];
   the same overwrite at every offset of the tail must decode or fail
   with [Error], nothing else. *)
let oversized_lengths_rejected () =
  let m = boot_machine (image "crc") in
  ignore (Machine.Cpu.run ~max_cycles:20_000 m);
  let data = Snapshot.to_string (Snapshot.of_machine m) in
  let patched at =
    let b = Bytes.of_string data in
    Bytes.blit_string "\xff\xff\xff\xff\x0f" 0 b at 5;
    Bytes.to_string b
  in
  (match Snapshot.of_string (patched 135460) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted a 2^32-1 element length");
  for at = String.length data - 256 to String.length data - 5 do
    match Snapshot.of_string (patched at) with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "varint at %d escaped: %s" at (Printexc.to_string e)
  done

let save_load_file () =
  let s = captured_kernel_snapshot () in
  let path = Filename.temp_file "sensmart" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save path s;
      match Snapshot.load path with
      | Ok s' -> check_identical "file round-trip" s s'
      | Error msg -> Alcotest.failf "load: %s" msg);
  match Snapshot.load path with
  | Error _ -> ()  (* file is gone: load must report, not raise *)
  | Ok _ -> Alcotest.fail "loaded a deleted file"

(* --- structural compatibility ---------------------------------------------- *)

let expect_incompatible what f =
  match f () with
  | exception Snapshot.Incompatible _ -> ()
  | _ -> Alcotest.failf "%s: restore onto an incompatible host succeeded" what

let net_for_mismatch = lazy (Net.create [ [ image "lfsr" ] ])

let incompatible_hosts_rejected () =
  let snap = captured_kernel_snapshot () in
  expect_incompatible "task-count mismatch" (fun () ->
      Snapshot.restore_kernel snap (Kernel.boot [ image "lfsr" ]));
  expect_incompatible "task-name mismatch" (fun () ->
      Snapshot.restore_kernel snap
        (Kernel.boot [ image "crc"; image "timer" ]));
  expect_incompatible "kind mismatch (kernel onto machine)" (fun () ->
      Snapshot.restore_machine snap (Machine.Cpu.create ()));
  expect_incompatible "kind mismatch (kernel onto net)" (fun () ->
      Snapshot.restore_net snap (Lazy.force net_for_mismatch));
  let nsnap = Snapshot.of_net (Lazy.force net_for_mismatch) in
  expect_incompatible "lockstep parameter mismatch" (fun () ->
      let other = Net.create ~quantum:4_000 [ [ image "lfsr" ] ] in
      Snapshot.restore_net nsnap other)

(* --- bisection -------------------------------------------------------------- *)

let bisect_clean_tiers () =
  let boot () = Kernel.boot (kernel_images ()) in
  let tier1 = Snapshot.Bisect.kernel_subject boot in
  let tier0 = Snapshot.Bisect.kernel_subject ~interp:true boot in
  match Snapshot.Bisect.hunt ~max_cycles:120_000 tier1 tier0 with
  | Snapshot.Bisect.Identical { ran_to; _ } ->
    Alcotest.(check int) "searched the whole horizon" 120_000 ran_to
  | Snapshot.Bisect.Diverged { diff; _ } ->
    Alcotest.failf "tiers diverged: %s" (String.concat "; " diff)

let bisect_finds_injected_divergence () =
  let poke_at = 60_000 and granularity = 64 in
  let boot () = Kernel.boot (kernel_images ()) in
  let poked =
    Snapshot.Bisect.kernel_subject
      ~poke:{ Snapshot.Bisect.poke_at; poke_value = 0x5A }
      boot
  in
  let clean = Snapshot.Bisect.kernel_subject ~interp:true boot in
  match Snapshot.Bisect.hunt ~granularity ~max_cycles:140_000 poked clean with
  | Snapshot.Bisect.Identical _ ->
    Alcotest.fail "missed the injected divergence"
  | Snapshot.Bisect.Diverged { lo; hi; diff; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "interval (%d, %d] brackets the poke at %d" lo hi
         poke_at)
      true
      (lo < hi && hi >= poke_at && lo <= poke_at + 128);
    Alcotest.(check bool) "narrowed to the requested granularity" true
      (hi - lo <= granularity);
    Alcotest.(check bool) "state diff names the poked SRAM byte" true
      (List.exists (fun l -> contains l "sram") diff)

let bisect_net_poke () =
  (* On a network the poke lands on a quantum boundary, so the interval
     bottoms out at quantum spacing rather than the cycle granularity. *)
  let boot () =
    let n = Net.create [ [ image "lfsr" ]; [ image "timer" ] ] in
    Net.chain n;
    n
  in
  let poke_at = 40_000 in
  let poked =
    Snapshot.Bisect.net_subject
      ~poke:{ Snapshot.Bisect.poke_at; poke_value = 0x77 }
      boot
  in
  let clean = Snapshot.Bisect.net_subject ~domains:2 boot in
  match Snapshot.Bisect.hunt ~max_cycles:150_000 poked clean with
  | Snapshot.Bisect.Identical _ -> Alcotest.fail "missed the net poke"
  | Snapshot.Bisect.Diverged { lo; hi; _ } ->
    let quantum = 5_000 in
    Alcotest.(check bool)
      (Printf.sprintf "interval (%d, %d] brackets the poke quantum" lo hi)
      true
      (lo < hi && hi >= poke_at && lo <= poke_at + quantum)

let () =
  Alcotest.run "snapshot"
    [ ("machine",
       [ Alcotest.test_case "round-trip over a stale program (tier-1)" `Quick
           machine_round_trip;
         Alcotest.test_case "round-trip (tier-0)" `Quick
           machine_round_trip_interp ]);
      ("kernel",
       [ Alcotest.test_case "round-trip (tier-1)" `Quick
           (kernel_round_trip ~capture_interp:false ~resume_interp:false
              ~at:50_000 ~horizon:200_000);
         Alcotest.test_case "round-trip (tier-0)" `Quick
           (kernel_round_trip ~capture_interp:true ~resume_interp:true
              ~at:50_000 ~horizon:200_000);
         Alcotest.test_case "round-trip (capture tier-1, resume tier-0)"
           `Quick
           (kernel_round_trip ~capture_interp:false ~resume_interp:true
              ~at:33_000 ~horizon:150_000);
         Gen.to_alcotest prop_random_capture_cycle ]);
      ("net",
       [ Alcotest.test_case "round-trip, 1 domain" `Quick (net_round_trip 1);
         Alcotest.test_case "round-trip, 2 domains" `Quick (net_round_trip 2);
         Alcotest.test_case "round-trip, 4 domains" `Quick (net_round_trip 4);
         Alcotest.test_case "trace merge order after restore" `Quick
           net_trace_order_after_restore;
         Alcotest.test_case "checkpoint cadence" `Quick
           net_checkpoint_cadence ]);
      ("serialization",
       [ Alcotest.test_case "round-trip" `Quick serialization_round_trip;
         Alcotest.test_case "corrupt inputs rejected" `Quick
           corrupt_inputs_rejected;
         Alcotest.test_case "oversized lengths rejected" `Quick
           oversized_lengths_rejected;
         Alcotest.test_case "save/load file" `Quick save_load_file ]);
      ("compatibility",
       [ Alcotest.test_case "incompatible hosts rejected" `Quick
           incompatible_hosts_rejected ]);
      ("bisect",
       [ Alcotest.test_case "clean tiers are identical" `Quick
           bisect_clean_tiers;
         Alcotest.test_case "finds an injected divergence" `Quick
           bisect_finds_injected_divergence;
         Alcotest.test_case "net subject pokes on a quantum" `Quick
           bisect_net_poke ]) ]
