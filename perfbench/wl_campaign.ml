(* Workload "campaign": the seeded service load-test mix
   (Service.Engine.loadtest_mix) served by two workers with no ingest
   stall, so it measures compute only.  It runs the same kernel and
   rewriter layers as multitask, but as thousands of short boots, and
   adds dispatch, stealing, fault injection and the warm-snapshot store.

   Set-up generates the mix and runs an intake preflight: every program
   the mix names is assembled and rewritten, and every program set it
   boots is admitted once with Kernel.prepare.  One unit of work is one
   job and one round is one serve of the whole mix; the run serves it
   again and again until the time is up.  Service counts come from the
   first serve. *)

open Common

let jobs = 1024
let workers = min 2 (Domain.recommended_domain_count ())

(* The integer after ["key":] in a flat JSON payload, if any. *)
let json_int key payload =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length payload and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub payload i m = pat then begin
      let j = ref (i + m) in
      while !j < n && payload.[!j] >= '0' && payload.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub payload (i + m) (!j - i - m))
    end
    else find (i + 1)
  in
  find 0

(* Program sets the mix boots, and the single programs it names. *)
let program_sets (specs : Service.Spec.t list) =
  List.sort_uniq compare
    (List.filter_map
       (fun (s : Service.Spec.t) ->
         match s.kind with
         | Campaign { programs; _ } | Bisect { programs; _ } -> Some programs
         | Bench { program; _ } -> Some [ program ]
         | _ -> None)
       specs)

let bench_programs (specs : Service.Spec.t list) =
  List.sort_uniq compare
    (List.filter_map
       (fun (s : Service.Spec.t) ->
         match s.kind with Bench { program; _ } -> Some program | _ -> None)
       specs)

let assemble name =
  match Workloads.Registry.find name with
  | Some p -> span "asm.assemble" (fun () -> Asm.Assembler.assemble p)
  | None -> failwith ("campaign mix names unknown program " ^ name)

let preflight a specs =
  let sets = program_sets specs in
  let images = Hashtbl.create 16 in
  List.iter
    (fun name ->
      if not (Hashtbl.mem images name) then begin
        let img = assemble name in
        recovery_probe img;
        let _, report = span "rewriter.pipeline" (fun () -> Rewriter.Rewrite.pipeline ~base:0 img) in
        count_report a report;
        Hashtbl.replace images name img
      end)
    (List.concat sets);
  List.iter
    (fun set ->
      ignore
        (span "kernel.prepare" (fun () ->
             Kernel.prepare (List.map (Hashtbl.find images) set))))
    sets

(* Kernel overhead base: each bench program of the mix run to
   completion natively and under SenSmart, with its known result. *)
let overhead a specs =
  List.iter
    (fun name ->
      let img = Option.get (Workloads.Registry.find_image name) in
      let want =
        match name with
        | "lfsr" -> Programs.Lfsr_bench.expected ()
        | "crc" -> Programs.Crc_bench.expected ()
        | "eventchain" -> Programs.Eventchain_bench.expected ()
        | _ -> -1
      in
      let native = Workloads.Native.run img in
      let k = Kernel.boot [ img ] in
      let stop = Kernel.run ~max_cycles:100_000_000 k in
      let got = Kernel.read_var k 0 "bench_result" in
      check a
        (stop = Halted Break_hit && Workloads.Native.result img native = want && got = want)
        (Printf.sprintf "bench program %s: wrong result" name);
      a.kernel_cycles <- a.kernel_cycles + Machine.Cpu.active_cycles k.m;
      a.native_cycles <- a.native_cycles + native.active_cycles)
    (bench_programs specs)

let run a ~seed ~seconds ~setup_only =
  let t0 = now () in
  let specs =
    span "setup" (fun () ->
        let specs = Service.Engine.loadtest_mix ~seed jobs in
        preflight a specs;
        specs)
  in
  a.setup_s <- now () -. t0;
  if not setup_only then begin
    let config = { Service.Pool.default_config with workers; stall_us = 0 } in
    let digest = ref "" in
    let busy = ref 0. and served = ref 0. in
    let start = now () in
    let deadline = start +. seconds in
    let round = ref 0 in
    while !round = 0 || now () < deadline do
      let serve = mark a in
      let o =
        span ~unit_id:!round "service.serve" (fun () ->
            Service.Engine.serve ~config ~emit:ignore specs)
      in
      let s = o.summary in
      List.iter
        (fun (r : Service.Pool.result) ->
          let secs = float_of_int r.wall_us /. 1e6 in
          busy := !busy +. secs;
          let field k = Option.value (json_int k r.payload) ~default:0 in
          add_unit a r.job secs ~insns:(field "insns") ~cycles:(field "cycles"))
        s.results;
      close_round a serve;
      served := !served +. s.wall_s;
      check a
        (s.completed = s.queued && s.failed = 0 && s.cancelled = 0)
        (Printf.sprintf "serve %d: %d of %d jobs completed, %d failed" !round
           s.completed s.queued s.failed);
      if !round = 0 then begin
        digest := o.digest;
        counti a "service.stolen" s.stolen;
        counti a "service.dedup_hits" s.dedup_hits;
        counti a "service.retried" s.retried
      end
      else check a (o.digest = !digest) (Printf.sprintf "serve %d: digest changed" !round);
      incr round
    done;
    a.run_wall_s <- now () -. start;
    count a "service.job_busy_s" !busy;
    count a "service.idle_share"
      (1. -. (!busy /. (float_of_int workers *. !served)));
    note a "campaign_digest" (Str !digest);
    note a "serves" (Int !round);
    overhead a specs
  end
