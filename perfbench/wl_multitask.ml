(* Workload "multitask": seeded single-mote sessions of the paper's core
   mechanism.  Each session is a feeder building binary trees, 3-7
   recursive searchers, one crc and one eventchain task, admitted under
   a tight stack budget and run at the default tier for a fixed cycle
   window.  Traps, context switches and stack relocations do the work;
   net, snapshot, service and tier 2 do none.

   Set-up assembles every session's images and prepares its kernel
   template; one unit of work boots a mote from a template and runs the
   window, and one round is a pass through all sessions.  Counts are
   taken over the first pass through the sessions, so they do not
   depend on how many units fit in the run. *)

open Common

let sessions = 100
let window = 5_000_000

type spec = {
  trees : int;
  nodes : int;
  searchers : int;
  search_nodes : int;
  crc_passes : int;
  ev_rounds : int;
  budget : int;  (** stack bytes shared by all tasks *)
}

(* [sessions] values spread evenly over lo..hi, in seeded order.  Every
   seed draws each parameter from the same spread, so seeds differ in
   how the values pair up within sessions, not in how heavy their
   sessions are overall: with independent draws, one seed's median
   session retired 13 % fewer instructions than another's. *)
let spread st lo hi =
  let a = Array.init sessions (fun i -> lo + (i * (hi - lo + 1) / sessions)) in
  for i = sessions - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let specs seed =
  let st = rng seed 0x6d75 in
  let searchers = spread st 3 7 and trees = spread st 3 6 in
  let nodes = spread st 10 24 and search_nodes = spread st 10 40 in
  let crc_passes = spread st 4 24 and ev_rounds = spread st 10 60 in
  let slack = spread st 0 8 in
  List.init sessions (fun i ->
      { trees = trees.(i);
        nodes = nodes.(i);
        searchers = searchers.(i);
        search_nodes = search_nodes.(i);
        crc_passes = crc_passes.(i);
        ev_rounds = ev_rounds.(i);
        budget = 560 + (searchers.(i) * 60) + (16 * slack.(i)) })

let programs s =
  (Programs.Bintree.feeder ~trees:s.trees ~nodes:s.nodes ()
   :: List.init s.searchers (fun i ->
          Programs.Bintree.search ~name:(Printf.sprintf "search%d" i)
            ~nodes:s.search_nodes
            ~seed:(0x1357 + (i * 0x2467))
            ()))
  @ [ Programs.Crc_bench.program ~passes:s.crc_passes ();
      Programs.Eventchain_bench.program ~rounds:s.ev_rounds () ]

type session = { spec : spec; template : Kernel.template }

let setup seed =
  List.map
    (fun spec ->
      let images =
        span "asm.assemble" (fun () ->
            List.map Asm.Assembler.assemble (programs spec))
      in
      List.iter recovery_probe images;
      let config = { Kernel.default_config with stack_budget = Some spec.budget } in
      let template = span "kernel.prepare" (fun () -> Kernel.prepare ~config images) in
      { spec; template })
    (specs seed)

(* What a replay must reproduce exactly. *)
let fingerprint (k : Kernel.t) =
  ( k.m.insns,
    k.m.cycles,
    Digest.to_hex (Digest.bytes k.m.sram),
    Kernel.outcomes k,
    (k.stats.traps, k.stats.context_switches, k.stats.relocations) )

(* The run-to-completion members of a session, with their oracle. *)
let expected name (s : spec) =
  match name with
  | "crc" -> Some (Programs.Crc_bench.expected ~passes:s.crc_passes ())
  | "eventchain" -> Some (Programs.Eventchain_bench.expected ~rounds:s.ev_rounds ())
  | _ -> None

let run a ~seed ~seconds ~setup_only =
  let t0 = now () in
  let all = span "setup" (fun () -> setup seed) in
  a.setup_s <- now () -. t0;
  List.iter (fun s -> List.iter (count_task a) (Kernel.boot_from s.template).tasks) all;
  if not setup_only then begin
    let sessions = Array.of_list all in
    let n = Array.length sessions in
    let prints = Array.make n None in
    let completers = ref [] in
    let start = now () in
    let deadline = start +. seconds in
    let i = ref 0 in
    let pass = ref (mark a) in
    while !i < n || now () < deadline do
      let idx = !i mod n in
      let s = sessions.(idx) in
      let u0 = now () in
      let k, stop =
        span ~unit_id:!i "unit" (fun () ->
            let k = span "kernel.boot" (fun () -> Kernel.boot_from s.template) in
            (k, span "kernel.run" (fun () -> Kernel.run ~max_cycles:window k)))
      in
      add_unit a "session" (now () -. u0) ~insns:k.m.insns ~cycles:k.m.cycles;
      let stopped_ok =
        match stop with Machine.Cpu.Out_of_fuel | Halted Break_hit -> true | _ -> false
      in
      check a stopped_ok (Fmt.str "session %d stopped: %a" idx Machine.Cpu.pp_stop stop);
      (match Kernel.check_invariants k with
       | () -> check a true ""
       | exception Failure msg -> check a false (Printf.sprintf "session %d: %s" idx msg));
      List.iter
        (fun (t : Kernel.Task.t) ->
          match (expected t.name s.spec, t.status) with
          | Some want, Exited "exit" ->
            let got = Kernel.read_var k t.id "bench_result" in
            check a (got = want)
              (Printf.sprintf "session %d %s: result %d, expected %d" idx t.name got want);
            if !i < n then completers := (s.spec, t.name, t.cycles_used) :: !completers
          | Some _, _ -> check a false (Printf.sprintf "session %d %s did not finish" idx t.name)
          | None, _ -> ())
        k.tasks;
      if !i < n then begin
        count_kernel a k;
        prints.(idx) <- Some (fingerprint k)
      end;
      incr i;
      if !i mod n = 0 then begin
        close_round a !pass;
        pass := mark a
      end
    done;
    a.run_wall_s <- now () -. start;
    (* Oracles outside the timed phase: a seeded sample of sessions
       replayed at tier 0 must match tier 1 exactly, and the
       run-to-completion tasks give the native cycle base. *)
    let st = rng seed 0x7265 in
    for _ = 1 to 3 do
      let idx = Random.State.int st n in
      let k = Kernel.boot_from sessions.(idx).template in
      ignore (Kernel.run ~interp:true ~max_cycles:window k);
      check a (prints.(idx) = Some (fingerprint k))
        (Printf.sprintf "session %d: tier-0 replay differs from tier 1" idx)
    done;
    let native = Hashtbl.create 16 in
    List.iter
      (fun (spec, name, kcycles) ->
        let key, prog =
          if name = "crc" then
            (("crc", spec.crc_passes), fun () -> Programs.Crc_bench.program ~passes:spec.crc_passes ())
          else
            (("eventchain", spec.ev_rounds), fun () -> Programs.Eventchain_bench.program ~rounds:spec.ev_rounds ())
        in
        let ncycles =
          match Hashtbl.find_opt native key with
          | Some c -> c
          | None ->
            let img = Asm.Assembler.assemble (prog ()) in
            let r = Workloads.Native.run img in
            check a (Some (Workloads.Native.result img r) = expected name spec)
              (Printf.sprintf "native %s: wrong result" name);
            let c = r.active_cycles in
            Hashtbl.replace native key c;
            c
        in
        a.kernel_cycles <- a.kernel_cycles + kcycles;
        a.native_cycles <- a.native_cycles + ncycles)
      !completers
  end
