(* The measuring program's entry point: run one workload for a seed and
   a time budget, and write the raw record (samples, counts, oracle
   verdicts, host facts) that run.py turns into metrics.

   Usage:
     perfbench.exe --workload NAME --seed N --seconds S
                   [--trace] [--setup-only] --out FILE [--spans FILE] *)

open Common

let workloads =
  [ ("multitask", Wl_multitask.run);
    ("fleet", Wl_fleet.run);
    ("campaign", Wl_campaign.run);
    ("firmware", Wl_firmware.run) ]

(* Host memory high-water mark of this process, in kB. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
      | exception End_of_file -> 0
    in
    let kb = scan () in
    close_in ic;
    kb
  with Sys_error _ -> 0

(* A fixed in-process loop whose wall time lets results from different
   hosts be normalised. *)
let calibrate () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 50_000_000 do
    x := (!x * 1103515245) + i land 0xFFFF
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !x);
  dt

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S [--trace] \
     [--setup-only] --out FILE [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) in
  let out = ref "" and spans_out = ref "" and setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := float_of_string v; parse tl
    | "--out" :: v :: tl -> out := v; parse tl
    | "--spans" :: v :: tl -> spans_out := v; parse tl
    | "--trace" :: tl -> tracing := true; parse tl
    | "--setup-only" :: tl -> setup_only := true; parse tl
    | [] -> ()
    | arg :: _ -> prerr_endline ("unknown argument " ^ arg); usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> prerr_endline ("unknown workload " ^ !workload); usage ()
  in
  if !seed < 0 || !seconds < 0. || !out = "" then usage ();
  let calibration_s = calibrate () in
  let a = acc () in
  run a ~seed:!seed ~seconds:!seconds ~setup_only:!setup_only;
  let gc = Gc.quick_stat () in
  let units =
    List.rev_map
      (fun (kind, s, insns, cycles) ->
        List [ Str kind; Float (s *. 1000.); Int insns; Int cycles ])
      a.units
  in
  let counts =
    Hashtbl.fold (fun k v l -> (k, Float v) :: l) a.counts []
    |> List.sort compare
  in
  let record =
    Obj
      [ ("workload", Str !workload);
        ("seed", Int !seed);
        ("traced", Bool !tracing);
        ("setup_s", Float a.setup_s);
        ("run_wall_s", Float a.run_wall_s);
        ("units_ms", List units);
        ("rounds",
         List
           (List.rev_map
              (fun r -> List [ Int r.r_units; Float r.r_wall; Int r.r_insns; Int r.r_cycles ])
              a.rounds));
        ("sim_insns", Int a.sim_insns);
        ("sim_cycles", Int a.sim_cycles);
        ("native_bytes", Int a.native_bytes);
        ("naturalized_bytes", Int a.naturalized_bytes);
        ("kernel_cycles", Int a.kernel_cycles);
        ("native_cycles", Int a.native_cycles);
        ("attempted", Int a.attempted);
        ("failed", Int a.failed);
        ("failures", List (List.rev_map (fun s -> Str s) a.failures));
        ("counts", Obj counts);
        ("gc",
         Obj
           [ ("minor_collections", Int gc.minor_collections);
             ("major_collections", Int gc.major_collections);
             ("promoted_words", Float gc.promoted_words);
             ("top_heap_words", Int gc.top_heap_words) ]);
        ("peak_rss_kb", Int (peak_rss_kb ()));
        ("info", Obj (List.rev a.info));
        ("host",
         Obj
           [ ("ocaml", Str Sys.ocaml_version);
             ("domains", Int (Domain.recommended_domain_count ()));
             ("calibration_s", Float calibration_s) ]) ]
  in
  let oc = open_out !out in
  output_string oc (json_to_string record);
  close_out oc;
  if !spans_out <> "" then begin
    let oc = open_out !spans_out in
    List.iter
      (fun s ->
        output_string oc
          (json_to_string
             (Obj
                [ ("id", Int s.id); ("name", Str s.name); ("start", Float s.start);
                  ("end", Float s.stop); ("parent", Int s.parent);
                  ("unit", Int s.unit_id) ]));
        output_char oc '\n')
      (List.rev !spans);
    close_out oc
  end
