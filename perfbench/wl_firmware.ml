(* Workload "firmware": a small fixed set of distinct images run at
   tier 2 from an empty, private artifact cache (run.py points
   SENSMART_AOT_CACHE at a fresh directory).  The set is the three
   avr-gcc-shaped HEX fixtures plus three seeded programs (two long
   assembler benchmarks and one short minic program); each image goes
   through Loader.Load.of_hex, then Rewrite.pipeline, Kernel.prepare
   and one batched Aot.preload of both its native and its SenSmart
   flash image.  This is the only workload that exercises tier 2, the
   loader and the paper's two axes (Fig. 4 inflation, Fig. 5 kernel
   overhead).

   One unit of work is one run of one image to completion, natively or
   under SenSmart, in a fixed order; one round is a pass through all
   runs.  The fixtures and the short seeded programs stay far below the
   250k-instruction tier-2 threshold, the long ones above it.  Counts
   are taken over the first pass through the runs. *)

open Common

(* One image as HEX text, plus what a HEX file cannot say. *)
type source = {
  name : string;
  hex : string;
  entry : int;
  text_bytes : int;
  data_size : int;
  result : int;  (** logical address of the result cell *)
  expect : int option;  (** known result, when the program has one *)
  byte_result : bool;  (** the result cell is one byte wide, not two *)
}

type image = {
  src : source;
  img : Asm.Image.t;  (** symbol-less, as loaded from HEX *)
  template : Kernel.template;
}

(* A short event-dispatch program in minic, the shape of the eventchain
   benchmark with seeded handler increments and round count. *)
let dispatch_source ~rounds ~incs =
  let handlers =
    String.concat "\n"
      (List.mapi (fun i n -> Printf.sprintf "  fun h%d() { return bump(%d); }" i n) incs)
  and calls = String.concat " " (List.mapi (fun i _ -> Printf.sprintf "h%d();" i) incs) in
  Printf.sprintf
    {|
  var counter;
  var r;
  fun bump(n) { counter = counter + n; return counter; }
%s
  fun main() {
    counter = 0;
    var round = 0;
    while (round < %d) {
      %s
      round = round + 1;
    }
    r = counter;
    halt;
  }
|}
    handlers rounds calls

(* The seeded source programs: (name, image from the assembler or the
   minic compiler, result variable, expected result).  The seed moves
   each program's size only a little, so run times and the kernel
   overhead ratio stay comparable across seeds. *)
let seeded seed =
  let st = rng seed 0x6677 in
  let iters = pick st 48_000 52_000 and passes = pick st 145 155 in
  let rounds = pick st 40 80 and incs = List.init 4 (fun _ -> pick st 1 9) in
  let asm p = span "asm.assemble" (fun () -> Asm.Assembler.assemble p) in
  [ ( Printf.sprintf "lfsr%d" iters,
      asm (Programs.Lfsr_bench.program ~iters ()),
      "bench_result",
      Some (Programs.Lfsr_bench.expected ~iters ()) );
    ( Printf.sprintf "crc%d" passes,
      asm (Programs.Crc_bench.program ~passes ()),
      "bench_result",
      Some (Programs.Crc_bench.expected ~passes ()) );
    ( Printf.sprintf "dispatch%d_mc" rounds,
      span "minic.compile" (fun () ->
          Minic.Codegen.compile_source ~name:"dispatch_mc" (dispatch_source ~rounds ~incs)),
      "r",
      Some (rounds * List.fold_left ( + ) 0 incs land 0xFFFF) ) ]

let sources seed =
  let fixture (f : Loader.Firmware.t) =
    let expect, byte_result =
      match f.name with
      | "blink" -> (Some 8, true)
      | "dispatch" -> (Some 6, false)
      | _ -> (None, false)
    in
    { name = f.name; hex = f.hex; entry = 0; text_bytes = f.text_bytes;
      data_size = f.data_size; result = f.result_addr; expect; byte_result }
  in
  let program (name, (img : Asm.Image.t), var, expect) =
    let result =
      match Asm.Image.find_symbol img var with
      | Some (Data a) -> a
      | _ -> failwith (name ^ ": no result variable")
    in
    { name; hex = Loader.Load.to_hex img.words; entry = img.entry;
      text_bytes = Asm.Image.text_bytes img; data_size = img.data_size; result;
      expect; byte_result = false }
  in
  List.map fixture (Loader.Firmware.all ()) @ List.map program (seeded seed)

let setup a seed =
  let images =
    List.map
      (fun src ->
        counti a "loader.hex_bytes" (String.length src.hex);
        let img =
          match
            span "loader.of_hex" (fun () ->
                Loader.Load.of_hex ~name:src.name ~entry:src.entry
                  ~text_bytes:src.text_bytes ~data_size:src.data_size src.hex)
          with
          | Ok img -> img
          | Error e -> failwith (src.name ^ ": " ^ Loader.Load.error_message e)
        in
        recovery_probe img;
        let _, report = span "rewriter.pipeline" (fun () -> Rewriter.Rewrite.pipeline ~base:0 img) in
        count_report a report;
        let template = span "kernel.prepare" (fun () -> Kernel.prepare [ img ]) in
        { src; img; template })
      (sources seed)
  in
  (* One batch compiles every native and every SenSmart flash image. *)
  let flashes =
    List.concat_map
      (fun i ->
        let k = span "kernel.boot" (fun () -> Kernel.boot_from i.template) in
        [ i.img.words; k.m.flash ])
      images
  in
  span "machine.aot.preload" (fun () -> Machine.Aot.preload flashes);
  images

let native_result { result; byte_result; _ } (r : Workloads.Native.report) =
  if byte_result then Machine.Cpu.read8 r.machine result
  else Machine.Cpu.read16 r.machine result

let kernel_result { result; byte_result; _ } k =
  let lo = Kernel.heap_byte k 0 result in
  if byte_result then lo else lo lor (Kernel.heap_byte k 0 (result + 1) lsl 8)

(* What a tier-1 rerun must reproduce exactly. *)
let fingerprint (m : Machine.Cpu.t) =
  (m.cycles, m.insns, Digest.to_hex (Digest.bytes m.sram))

let tier2_bound (m : Machine.Cpu.t) =
  match m.t2 with T2_ready _ -> true | _ -> false

let max_cycles = 200_000_000

let run a ~seed ~seconds ~setup_only =
  let t0 = now () in
  let images = span "setup" (fun () -> setup a seed) in
  a.setup_s <- now () -. t0;
  let s = Machine.Aot.stats () in
  counti a "machine.aot.compiles" s.compiles;
  counti a "machine.aot.cache_hits" s.cache_hits;
  count a "machine.aot.compile_s" (s.compile_ms /. 1000.);
  check a (s.compiles + s.cache_hits > 0) "tier-2 unavailable: nothing compiled or loaded";
  if not setup_only then begin
    let runs = Array.of_list (List.concat_map (fun i -> [ (i, `Native); (i, `Kernel) ]) images) in
    let n = Array.length runs in
    let native_prints = Hashtbl.create 8 and kernel_prints = Hashtbl.create 8 in
    let results = Hashtbl.create 8 in
    let start = now () in
    let deadline = start +. seconds in
    let u = ref 0 in
    let pass = ref (mark a) in
    while !u < n || now () < deadline do
      let i, mode = runs.(!u mod n) in
      let first = !u < n in
      let u0 = now () in
      (match mode with
       | `Native ->
         let r =
           span ~unit_id:!u "unit" (fun () ->
               span "machine.native_run" (fun () ->
                   Workloads.Native.run ~tier:2 ~max_cycles i.img))
         in
         add_unit a "native" (now () -. u0) ~insns:r.insns ~cycles:r.cycles;
         check a (r.halt = Some Break_hit && tier2_bound r.machine)
           (i.src.name ^ ": native run did not finish at tier 2");
         if first then begin
           Hashtbl.replace native_prints i.src.name (fingerprint r.machine);
           Hashtbl.replace results (i.src.name, `Native) (native_result i.src r);
           a.native_cycles <- a.native_cycles + r.active_cycles;
           count_machine a r.machine
         end
       | `Kernel ->
         let k, stop =
           span ~unit_id:!u "unit" (fun () ->
               let k = span "kernel.boot" (fun () -> Kernel.boot_from i.template) in
               (k, span "kernel.run" (fun () -> Kernel.run ~tier:2 ~max_cycles k)))
         in
         add_unit a "sensmart" (now () -. u0) ~insns:k.m.insns ~cycles:k.m.cycles;
         check a (stop = Halted Break_hit && tier2_bound k.m)
           (i.src.name ^ ": SenSmart run did not finish at tier 2");
         if first then begin
           Hashtbl.replace kernel_prints i.src.name (fingerprint k.m);
           Hashtbl.replace results (i.src.name, `Kernel) (kernel_result i.src k);
           a.kernel_cycles <- a.kernel_cycles + Machine.Cpu.active_cycles k.m;
           count_kernel a k
         end);
      incr u;
      if !u mod n = 0 then begin
        close_round a !pass;
        pass := mark a
      end
    done;
    a.run_wall_s <- now () -. start;
    let s' = Machine.Aot.stats () in
    note a "run_phase_compiles" (Int (s'.compiles - s.compiles));
    (* Oracles outside the timed phase: known results, native = SenSmart
       where the result comes from a peripheral, and tier 2 = tier 1. *)
    List.iter
      (fun i ->
        let nat = Hashtbl.find results (i.src.name, `Native)
        and ker = Hashtbl.find results (i.src.name, `Kernel) in
        check a
          (nat = ker && match i.src.expect with Some e -> nat = e | None -> true)
          (Printf.sprintf "%s: native result %d, SenSmart %d" i.src.name nat ker);
        let r = Workloads.Native.run ~tier:1 ~max_cycles i.img in
        check a
          (Hashtbl.find native_prints i.src.name = fingerprint r.machine)
          (i.src.name ^ ": native tier 2 differs from tier 1");
        let k = Kernel.boot_from i.template in
        ignore (Kernel.run ~tier:1 ~max_cycles k);
        check a
          (Hashtbl.find kernel_prints i.src.name = fingerprint k.m)
          (i.src.name ^ ": SenSmart tier 2 differs from tier 1"))
      images
  end
