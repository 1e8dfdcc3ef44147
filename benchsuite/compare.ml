(* [suite ab OLD NEW]: compare two suite runs workload by workload. Each
   end-to-end metric is gated by its bound from BENCHMARK.json; a rise
   in the share of failed operations is a regression too. Per-layer
   metrics are printed as deltas, for information only. *)

module J = Service.Json

type run = {
  traced : bool;
  workloads : (string * (int * int * (string * float) list)) list;
      (** name -> attempted, failed, metric values *)
}

let load path =
  let file =
    if Sys.is_directory path then
      let r = Filename.concat path "results.json" in
      if Sys.file_exists r then r else Filename.concat path "layers.json"
    else path
  in
  match J.parse (Meter.read_file file) with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok j ->
      let ws = Option.value ~default:[] (Option.bind (J.member "workloads" j) J.arr) in
      let int k w = int_of_float (Option.value ~default:0.0 (J.mem_num k w)) in
      {
        traced = J.mem_bool "trace" j = Some true;
        workloads =
          List.filter_map
            (fun w ->
              match J.mem_str "name" w with
              | None -> None
              | Some name ->
                  let metrics =
                    Option.value ~default:[] (Option.bind (J.member "metrics" w) J.obj)
                    |> List.filter_map (fun (k, v) ->
                           Option.map (fun x -> (k, x)) (J.mem_num "value" v))
                  in
                  Some (name, (int "attempted" w, int "failed" w, metrics)))
            ws;
      }

(* (name, better, bound) of every end-to-end metric. *)
let bounds path =
  match J.parse (Meter.read_file path) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
      Option.value ~default:[] (Option.bind (J.member "end_to_end" j) J.arr)
      |> List.filter_map (fun m ->
             match (J.mem_str "name" m, J.mem_str "better" m, J.mem_num "bound" m) with
             | Some n, Some b, Some x -> Some (n, b, x)
             | _ -> None)

let pct o n = if o = 0.0 then 0.0 else (n -. o) /. o *. 100.0

let run ~benchmark old_path new_path =
  let old_ = load old_path and new_ = load new_path in
  if old_.traced <> new_.traced then
    failwith "ab: one run is traced and the other is not; compare like with like";
  let bounds = bounds benchmark in
  let regressions = ref [] in
  let regress what = regressions := what :: !regressions in
  List.iter
    (fun (w, (na, nf, nm)) ->
      match List.assoc_opt w old_.workloads with
      | None -> Printf.printf "%-14s (new workload)\n" w
      | Some (oa, of_, om) ->
          let ff a f = if a = 0 then 0.0 else float_of_int f /. float_of_int a in
          let verdict = if ff na nf > ff oa of_ then "REGRESSED" else "ok" in
          Printf.printf "%-14s %-28s %12d/%-6d -> %d/%-6d %s\n" w "failed/attempted" of_ oa nf
            na verdict;
          if verdict <> "ok" then regress (w ^ " failed/attempted");
          let names =
            if new_.traced then List.map fst nm else List.map (fun (n, _, _) -> n) bounds
          in
          List.iter
            (fun name ->
              match (List.assoc_opt name om, List.assoc_opt name nm) with
              | Some o, Some n ->
                  let gate =
                    match List.find_opt (fun (m, _, _) -> m = name) bounds with
                    | Some (_, better, bound) when not new_.traced ->
                        let slack = Float.abs o *. bound in
                        let worse = if better = "higher" then n < o -. slack else n > o +. slack in
                        let rule = Printf.sprintf "bound %.0f%%" (bound *. 100.0) in
                        if worse then begin
                          regress (w ^ " " ^ name);
                          Printf.sprintf "REGRESSED (%s)" rule
                        end
                        else Printf.sprintf "ok (%s)" rule
                    | _ -> ""
                  in
                  Printf.printf "%-14s %-28s %12.6g -> %-12.6g (%+.1f%%) %s\n" w name o n
                    (pct o n) gate
              | _ -> Printf.printf "%-14s %-28s (missing in one run)\n" w name)
            names)
    new_.workloads;
  List.iter
    (fun (w, _) ->
      if not (List.mem_assoc w new_.workloads) then Printf.printf "%-14s (dropped)\n" w)
    old_.workloads;
  match List.rev !regressions with
  | [] ->
      print_endline "no regressions beyond the BENCHMARK.json bounds";
      0
  | rs ->
      Printf.printf "REGRESSION in: %s\n" (String.concat ", " rs);
      1
