(* One table of every fault token the fault layers were written against
   (collected from the unit tests, the smoke scripts and the bench), with
   what each layer makes of it: the typed meaning when it claims the
   token, or a refusal. Each CLI parses its --fault-plan with one layer:
   verify_pll with Resilient.Faults (which also claims the process-level
   kinds of Supervise.Fault), atlas_pll with Atlas.Fault, verifyd with
   Service.Daemon.Fault. Atlas cells solve inline, so Atlas.Fault
   refuses the solver-worker kinds kill@S:I and stall@S:I. *)

module Fp = Substrate.Fault_plan

type row = {
  tok : string;
  canon : string;  (* what every claiming layer prints the token back as *)
  res : Resilient.Faults.plan option;  (* None: refused *)
  atlas : Atlas.Fault.t option;
  daemon : Service.Daemon.Fault.t option;
}

let row ?res ?atlas ?daemon ?canon tok =
  { tok; canon = Option.value canon ~default:tok; res; atlas; daemon }

let proc kind solve iter =
  Resilient.Faults.of_specs ~procs:[ { Supervise.Fault.kind; solve; iter } ] []

let inproc kind solve iter = Resilient.Faults.of_specs [ { Resilient.Faults.kind; solve; iter } ]

(* A solver-worker trigger: verify_pll's worker fault, refused by the
   atlas. *)
let trigger ?canon tok kind solve iter = row ?canon tok ~res:(proc kind solve iter)

(* A corrupt-cache trigger acts on inline solves too: every atlas cell. *)
let cache_trigger ?canon tok solve =
  let p = proc Supervise.Fault.Corrupt_cache solve 0 in
  row ?canon tok ~res:p ~atlas:(Atlas.Fault.Global p)

let in_process tok kind solve iter =
  let p = inproc kind solve iter in
  row tok ~res:p ~atlas:(Atlas.Fault.Global p)

(* kill@CELL: malformed as a solve trigger, so the atlas orchestrator kill. *)
let kill_cell tok cell = row tok ~atlas:(Atlas.Fault.Kill_at_cell cell)
let daemon tok f = row tok ~daemon:f

let rows =
  Supervise.Fault.
    [
      trigger "kill@3:2" Kill 3 2;
      trigger "kill@2:3" Kill 2 3;
      trigger "kill@1:2" Kill 1 2;
      trigger "kill@0:2" Kill 0 2 ~canon:"kill@*:2";
      trigger "stall@*:1" Stall 0 1;
      cache_trigger "corrupt-cache@2" 2;
      cache_trigger "corrupt-cache@1" 1;
      cache_trigger "corrupt-cache@2:5" 2 ~canon:"corrupt-cache@2";
      row "c0/kill@1:2";
      row "c0/stall@*:1";
      row "c0/corrupt-cache@1"
        ~atlas:(Atlas.Fault.Cell_scoped ("c0", proc Corrupt_cache 1 0));
      in_process "fail@1:2" Resilient.Faults.Fail 1 2;
      in_process "trunc@*:3" Resilient.Faults.Truncate 0 3;
      in_process "noise@2:1:0.5" (Resilient.Faults.Noise 0.5) 2 1;
      kill_cell "kill@x:y" "x:y";
      kill_cell "kill@bad" "bad";
      kill_cell "kill@c0" "c0";
      kill_cell "kill@c0-0" "c0-0";
      kill_cell "kill@c0-1" "c0-1";
      kill_cell "kill@c1-0" "c1-0";
      row "kill@";
      row "fail-cell@c1.0" ~atlas:(Atlas.Fault.Fail_cell "c1.0");
      row "fail-cell@c0" ~atlas:(Atlas.Fault.Fail_cell "c0");
      row "fail-cell@";
      row "c0/fail@1:1"
        ~atlas:(Atlas.Fault.Cell_scoped ("c0", inproc Resilient.Faults.Fail 1 1));
      row "c0/bogus@1";
      row "fail@1";
      row "garbage";
      row "bogus@x";
      row "melt@1:2";
      row "melt@1";
      row "melt@j1";
      daemon "kill-worker@j2" (Service.Daemon.Fault.Kill_worker "j2");
      daemon "kill-worker@j1" (Service.Daemon.Fault.Kill_worker "j1");
      daemon "kill-worker@c0" (Service.Daemon.Fault.Kill_worker "c0");
      daemon "kill-worker@c1-1" (Service.Daemon.Fault.Kill_worker "c1-1");
      daemon "stall-worker@c0-0" (Service.Daemon.Fault.Stall_worker "c0-0");
      daemon "kill-cell@c1-1" (Service.Daemon.Fault.Kill_cell "c1-1");
      daemon "kill-cell@c0-0" (Service.Daemon.Fault.Kill_cell "c0-0");
      daemon "drop-client@j1" (Service.Daemon.Fault.Drop_client "j1");
      daemon "drop-client@c0-1" (Service.Daemon.Fault.Drop_client "c0-1");
      daemon "wedge-queue" Service.Daemon.Fault.Wedge_queue;
      row "wedge-queue@j1";
      daemon "die@j3" (Service.Daemon.Fault.Die_at "j3");
      daemon "die@j2" (Service.Daemon.Fault.Die_at "j2");
      daemon "die@c1-0" (Service.Daemon.Fault.Die_at "c1-0");
      daemon "die@" (Service.Daemon.Fault.Die_at "");
    ]

(* Refused by the grammar itself, so by every CLI. *)
let grammar_rejects = [ "/fail@1:1"; "c0/"; "@x" ]

let fail_row r what = Alcotest.failf "fault token %S: %s" r.tok what

let expect r what ~printed expected got =
  match (expected, got) with
  | Some v, Ok v' when v = v' ->
      if printed v' <> r.canon then
        fail_row r (Printf.sprintf "%s prints it back as %S" what (printed v'))
  | None, Error _ -> ()
  | Some _, Ok _ -> fail_row r (what ^ " gives it another meaning")
  | Some _, Error e -> fail_row r (what ^ " refuses it: " ^ e)
  | None, Ok _ -> fail_row r (what ^ " accepts it")

let check_grammar r =
  match Fp.parse r.tok with
  | Ok [ t ] ->
      if Fp.token_to_string t <> r.tok then
        fail_row r ("grammar prints it back as " ^ Fp.token_to_string t)
  | Ok l -> fail_row r (Printf.sprintf "grammar split it into %d tokens" (List.length l))
  | Error e -> fail_row r ("grammar refuses it: " ^ e)

let check_resilient r =
  expect r "Resilient.Faults (verify_pll)" ~printed:Resilient.Faults.to_string r.res
    (Resilient.Faults.of_string r.tok)

let check_atlas r =
  expect r "Atlas.Fault (atlas_pll)"
    ~printed:(fun f -> Atlas.Fault.to_string [ f ])
    r.atlas
    (Result.map (function [ f ] -> f | _ -> fail_row r "not one atlas fault")
       (Atlas.Fault.of_string r.tok))

let check_daemon r =
  expect r "Service.Daemon.Fault (verifyd)"
    ~printed:(fun f -> Service.Daemon.Fault.to_string [ f ])
    r.daemon
    (Result.map (function [ f ] -> f | _ -> fail_row r "not one daemon fault")
       (Service.Daemon.Fault.of_string r.tok))

(* The rows of Supervise.Fault's kinds, as Resilient.Faults claims them. *)
let check_process_kinds () =
  List.iter check_resilient
    (List.filter
       (fun r ->
         List.exists
           (fun k -> String.starts_with ~prefix:(k ^ "@") r.tok)
           [ "kill"; "stall"; "corrupt-cache" ])
       rows)

let check_all () =
  List.iter
    (fun r ->
      List.iter (fun f -> f r)
        [ check_grammar; check_resilient; check_atlas; check_daemon ])
    rows;
  List.iter
    (fun tok ->
      let refused what = function
        | Ok _ -> Alcotest.failf "fault token %S: %s accepts it" tok what
        | Error _ -> ()
      in
      refused "the grammar" (Fp.parse tok);
      refused "Resilient.Faults" (Resilient.Faults.of_string tok);
      refused "Atlas.Fault" (Atlas.Fault.of_string tok);
      refused "Service.Daemon.Fault" (Service.Daemon.Fault.of_string tok))
    grammar_rejects
