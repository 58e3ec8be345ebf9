(* Command line of the Eden benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints, as its last line, one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Lines before
   it (prefixed with #) repeat the metrics with units, the failure
   ratio and the host the result was measured on.  A traced run writes
   its spans to .bench_out/spans-NAME-seedN.tsv. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map fst Edenbench.Workloads.all)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (
      match Int64.of_string_opt v with Some s -> seed := s; parse rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0.0 -> seconds := s; parse rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.assoc_opt !workload Edenbench.Workloads.all with
  | None -> usage ()
  | Some run ->
    let ctx = Edenbench.Workloads.create ~seed:!seed ~seconds:!seconds ~trace:!trace in
    let snaps = run ctx in
    Edenbench.Report.compute ctx snaps;
    if !trace then begin
      let dir = ".bench_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-seed%Ld.tsv" dir !workload !seed in
      Edenbench.Spans.write ctx.Edenbench.Workloads.spans path;
      Printf.printf "# spans written to %s\n" path
    end;
    Edenbench.Report.print ~workload:!workload ctx
