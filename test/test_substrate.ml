(* Tests of the run-directory substrate: atomic whole-file writes, the
   append-only log (torn tails, compaction, a replay property over every
   truncation and byte flip), the fault-plan grammar table, and the JSON
   codec (a round-trip property and the non-finite number rule). *)

open Substrate

let tmp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "substrate-test-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Fs.mkdir_p d;
  d

let magic = "test-log v1"

(* ---- Fs ---- *)

let test_write_atomic () =
  let dir = Filename.concat (tmp_dir ()) "a/b/c" in
  Fs.mkdir_p dir;
  Alcotest.(check bool) "mkdir_p is recursive" true (Sys.is_directory dir);
  let file = Filename.concat dir "f.json" in
  Fs.write_atomic file "first";
  Fs.write_atomic file "second\n";
  Alcotest.(check string) "last write wins" "second\n" (Fs.read_file file);
  Alcotest.(check (list string)) "no temp file left behind" [ "f.json" ]
    (Array.to_list (Sys.readdir dir))

(* ---- Wal ---- *)

let write_raw file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

let test_wal_append_replay () =
  let file = Filename.concat (tmp_dir ()) "x.log" in
  let w = Wal.open_ ~magic file in
  Wal.append w "one";
  Wal.append w "two words";
  Wal.close w;
  (* Reopening an existing log does not repeat the magic line. *)
  let w = Wal.open_ ~magic file in
  Wal.append w "three";
  Wal.close w;
  Alcotest.(check string) "bytes" "test-log v1\none\ntwo words\nthree\n" (Fs.read_file file);
  let r = Wal.replay ~magic file in
  Alcotest.(check (list (pair int string))) "numbered records"
    [ (2, "one"); (3, "two words"); (4, "three") ]
    r.Wal.records;
  Alcotest.(check int) "clean" 0 (List.length r.Wal.diags);
  let missing = Wal.replay ~magic (file ^ ".missing") in
  Alcotest.(check bool) "missing log replays empty" true
    (missing.Wal.records = [] && missing.Wal.diags = [])

let test_wal_torn_tail () =
  let file = Filename.concat (tmp_dir ()) "x.log" in
  write_raw file "test-log v1\none\ntwo is cu";
  let r = Wal.replay ~magic file in
  Alcotest.(check (list (pair int string))) "torn line is not a record" [ (2, "one") ]
    r.Wal.records;
  Alcotest.(check int) "torn line is diagnosed" 1 (List.length r.Wal.diags);
  (* The next writer cuts the fragment off rather than gluing onto it. *)
  let w = Wal.open_ ~magic file in
  Wal.append w "two";
  Wal.close w;
  Alcotest.(check string) "sealed" "test-log v1\none\ntwo\n" (Fs.read_file file);
  write_raw file "test-l";
  let w = Wal.open_ ~magic file in
  Wal.close w;
  Alcotest.(check string) "torn magic restarts the log" "test-log v1\n" (Fs.read_file file)

let test_wal_rewrite () =
  let file = Filename.concat (tmp_dir ()) "x.log" in
  let w = Wal.open_ ~magic file in
  List.iter (Wal.append w) [ "a"; "b"; "c" ];
  Wal.close w;
  Wal.rewrite ~magic file [ "b" ];
  Alcotest.(check string) "compacted" "test-log v1\nb\n" (Fs.read_file file);
  let w = Wal.open_ ~magic file in
  Wal.append w "d";
  Wal.close w;
  Alcotest.(check (list string)) "appends continue after compaction" [ "b"; "d" ]
    (List.map snd (Wal.replay ~magic file).Wal.records)

(* Every prefix of a log replays exactly the records whose newline it
   contains, plus at most one diagnosis; a flipped byte in the last
   record never makes replay raise. *)
let record_gen =
  QCheck.Gen.(
    string_size ~gen:(char_range ' ' '~') (int_range 1 12)
    |> map (fun s -> if s = magic then s ^ "!" else s))

let test_wal_replay_property =
  QCheck.Test.make ~count:60 ~name:"replay tolerates truncation and byte flips"
    QCheck.(make ~print:Print.(list string) Gen.(list_size (int_range 1 6) record_gen))
    (fun records ->
      let dir = tmp_dir () in
      let file = Filename.concat dir "p.log" in
      let w = Wal.open_ ~magic file in
      List.iter (Wal.append w) records;
      Wal.close w;
      let full = Fs.read_file file in
      let n = String.length full in
      let prefix_ok k =
        write_raw file (String.sub full 0 k);
        let r = Wal.replay ~magic file in
        (* Records complete within the first k bytes: their '\n' is at
           an offset below k. *)
        let expected =
          let rec go off acc = function
            | [] -> List.rev acc
            | rec_ :: rest ->
                let nl = off + String.length rec_ in
                if nl < k then go (nl + 1) (rec_ :: acc) rest else List.rev acc
          in
          go (String.length magic + 1) [] records
        in
        List.map snd r.Wal.records = expected && List.length r.Wal.diags <= 1
      in
      let last_start = n - String.length (List.nth records (List.length records - 1)) - 1 in
      let flip_ok i =
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
        write_raw file (Bytes.to_string b);
        match Wal.replay ~magic file with _ -> true | exception _ -> false
      in
      List.for_all prefix_ok (List.init (n + 1) Fun.id)
      && List.for_all flip_ok (List.init (n - last_start) (fun j -> last_start + j)))

(* ---- Fault_plan ---- *)

let test_fault_plan_grammar () =
  let parse s =
    match Fault_plan.parse s with Ok t -> t | Error e -> Alcotest.failf "%S: %s" s e
  in
  Alcotest.(check int) "empty" 0 (List.length (parse ""));
  Alcotest.(check int) "none" 0 (List.length (parse " none "));
  Alcotest.(check int) "blank tokens ignored" 2 (List.length (parse "a@1, ,b"));
  Alcotest.(check string) "printer" "none" (Fault_plan.to_string []);
  (match parse "c0/noise@2:1:0.5" with
  | [ { Fault_plan.scope = Some "c0"; kind = "noise"; key = Some "2"; args = [ "1"; "0.5" ] } ]
    -> ()
  | _ -> Alcotest.fail "scope/kind/key/args split");
  match parse "kill-worker@a/b" with
  | [ { Fault_plan.scope = None; kind = "kill-worker"; _ } as t ] ->
      Alcotest.(check (option string)) "a '/' past the '@' is key text" (Some "a/b")
        (Fault_plan.site t)
  | _ -> Alcotest.fail "'/' after '@' taken as a scope"

(* ---- Json ---- *)

(* Structural equality, with numbers compared bit for bit (so -0 must
   come back as -0). *)
let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.Arr xs, Json.Arr ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same x y) xs ys
  | _ -> a = b

let finite_gen =
  QCheck.Gen.(
    let of_bits hi lo = Int64.(float_of_bits (logor (shift_left (of_int hi) 32) (of_int lo))) in
    oneof
      [
        oneofl [ 0.0; -0.0; 0.1; 0.8; -1.5; 1e-300; 1e300; Float.min_float; Float.max_float ];
        (* subnormals *)
        map (fun k -> Int64.float_of_bits (Int64.of_int k)) (int_range 1 100_000);
        (* integers around 2^53, where bare printing stops *)
        map (fun k -> float_of_int k +. 9007199254740992.0) (int_range (-6) 6);
        map (fun k -> float_of_int k) int;
        map2 of_bits (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF)
        |> map (fun f -> if Float.is_finite f then f else 0.25);
      ])

(* Any bytes: quotes, backslashes, control characters and bytes >= 0x80. *)
let bytes_gen = QCheck.Gen.(string_size ~gen:char (int_bound 10))

let json_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) finite_gen;
                 map (fun s -> Json.Str s) bytes_gen;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 3))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair bytes_gen (self (n / 3)))) );
               ]))

let test_json_roundtrip_property =
  QCheck.Test.make ~count:500 ~name:"json parse inverts to_string"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      match Json.parse (Json.to_string v) with Ok v' -> same v v' | Error _ -> false)

let test_json_non_finite () =
  List.iter
    (fun (f, word) ->
      let doc = Json.to_string (Json.Arr [ Json.Num f; Json.Obj [ ("x", Json.Num f) ] ]) in
      Alcotest.(check string) (word ^ " prints as a string")
        (Printf.sprintf "[\"%s\",{\"x\":\"%s\"}]" word word)
        doc;
      match Json.parse doc with
      | Ok v ->
          Alcotest.(check bool) (word ^ " reads back as its string") true
            (v = Json.Arr [ Json.Str word; Json.Obj [ ("x", Json.Str word) ] ])
      | Error e -> Alcotest.failf "%s: %s does not parse: %s" word doc e)
    [ (Float.nan, "nan"); (Float.infinity, "inf"); (Float.neg_infinity, "-inf") ]

let suite =
  [
    Alcotest.test_case "write-atomic" `Quick test_write_atomic;
    Alcotest.test_case "wal-append-replay" `Quick test_wal_append_replay;
    Alcotest.test_case "wal-torn-tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal-rewrite" `Quick test_wal_rewrite;
    QCheck_alcotest.to_alcotest test_wal_replay_property;
    Alcotest.test_case "fault-plan-grammar" `Quick test_fault_plan_grammar;
    Alcotest.test_case "fault-plan-table" `Quick Fault_table.check_all;
    QCheck_alcotest.to_alcotest test_json_roundtrip_property;
    Alcotest.test_case "json-non-finite" `Quick test_json_non_finite;
  ]
