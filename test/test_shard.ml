(* Tests for the sharded FL store: the Bucket single-CAS ownership state
   machine, the Shard_map operation surface, degraded reads and
   lease-expiry recovery, a live two-domain ownership transfer, scripted
   owner/requester kills at each protocol fault point (shard.grant,
   shard.ship, shard.ack) with a hard no-hang deadline, and the
   refinement check against the centralized map spec. *)

module Future = Futures.Future
module B = Fl.Bucket

module Int_key = struct
  type t = int

  let compare = Int.compare
  let hash x = x
end

module SM = Fl.Shard_map.Make (Int_key)

let force = Future.force

(* Every test leaves the global injection state clean, even on failure. *)
let with_clean_faults f () =
  Fun.protect ~finally:Faults.clear_all (fun () ->
      Faults.clear_all ();
      f ())

(* Recovery bugs present as hangs (a flush spinning on a transfer nobody
   will complete), so the kill schedules run under a hard deadline from a
   monitor domain: a hang fails the test instead of wedging the suite. *)
let with_timeout ?(seconds = 60.0) label f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        let r = match f () with v -> Ok v | exception e -> Error e in
        Atomic.set result (Some r))
  in
  let deadline = Sync.Mono.now () +. seconds in
  let rec poll () =
    match Atomic.get result with
    | Some r -> (
        Domain.join d;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Sync.Mono.now () > deadline then
          Alcotest.failf "%s: no recovery within %.0fs (transfer hang)" label
            seconds
        else begin
          Unix.sleepf 0.002;
          poll ()
        end
  in
  poll ()

(* ------------------------------ bucket ------------------------------- *)

(* The full transfer protocol, one CAS at a time: acquire → renew →
   request → grant → ship → ack, with every wrong-party step refused and
   the epoch bumped exactly on the change of ownership. *)
let test_bucket_protocol () =
  let b : string B.t = B.create ~id:0 in
  (match B.state b with
  | B.Free 0 -> ()
  | _ -> Alcotest.fail "fresh bucket not Free at epoch 0");
  Alcotest.(check bool) "acquire" true (B.try_acquire b ~me:1 ~lease:60.0);
  Alcotest.(check bool) "second acquire refused" false
    (B.try_acquire b ~me:2 ~lease:60.0);
  (match B.state b with
  | B.Owned { owner = 1; epoch = 0; _ } -> ()
  | _ -> Alcotest.fail "not owned by 1 at epoch 0");
  Alcotest.(check bool) "renew" true (B.try_renew b ~me:1 ~lease:60.0);
  Alcotest.(check bool) "renew by non-owner refused" false
    (B.try_renew b ~me:2 ~lease:60.0);
  Alcotest.(check bool) "request own bucket refused" false
    (B.try_request b ~me:1);
  Alcotest.(check bool) "request" true (B.try_request b ~me:2);
  Alcotest.(check bool) "in flight" true (B.in_flight (B.state b));
  Alcotest.(check bool) "second requester refused" false
    (B.try_request b ~me:3);
  (* An owner with a pending request must grant, not renew. *)
  Alcotest.(check bool) "renew while requested refused" false
    (B.try_renew b ~me:1 ~lease:60.0);
  Alcotest.(check bool) "grant by non-owner refused" false
    (B.try_grant b ~me:2 ~timeout:60.0);
  Alcotest.(check bool) "grant" true (B.try_grant b ~me:1 ~timeout:60.0);
  Alcotest.(check bool) "ship by non-granter refused" false
    (B.try_ship b ~me:2 ~pkg:"w");
  Alcotest.(check bool) "ship" true (B.try_ship b ~me:1 ~pkg:"w");
  Alcotest.(check bool) "ack by non-target refused" true
    (B.try_ack b ~me:1 ~lease:60.0 = None);
  (match B.try_ack b ~me:2 ~lease:60.0 with
  | Some "w" -> ()
  | _ -> Alcotest.fail "ack did not return the shipped package");
  Alcotest.(check bool) "package taken exactly once" true
    (B.try_ack b ~me:2 ~lease:60.0 = None);
  (match B.state b with
  | B.Owned { owner = 2; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "ack did not hand ownership to 2 at epoch 1");
  Alcotest.(check bool) "live state not recoverable" true
    (B.try_recover b ~me:3 ~lease:60.0 = None)

(* A dead owner stops renewing: once the deadline passes, any handle may
   usurp, and a package nobody acked comes back to the recoverer. *)
let test_bucket_expiry_recovery () =
  let b : int list B.t = B.create ~id:1 in
  Alcotest.(check bool) "acquire" true (B.try_acquire b ~me:1 ~lease:0.001);
  Unix.sleepf 0.01;
  Alcotest.(check bool) "lease expired" true
    (B.expired ~now:(Sync.Mono.now ()) (B.state b));
  (match B.try_recover b ~me:2 ~lease:60.0 with
  | Some { B.lost = None } -> ()
  | _ -> Alcotest.fail "recover of an expired lease must return no package");
  (match B.state b with
  | B.Owned { owner = 2; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "recovery did not take ownership at epoch 1");
  (* Shipped and lost: grant with a tiny transfer deadline, ship, let it
     expire, and recover as a third party — the in-flight window must be
     returned so its futures can be poisoned, never dropped. *)
  Alcotest.(check bool) "request" true (B.try_request b ~me:3);
  Alcotest.(check bool) "grant" true (B.try_grant b ~me:2 ~timeout:0.001);
  Alcotest.(check bool) "ship" true (B.try_ship b ~me:2 ~pkg:[ 7 ]);
  Unix.sleepf 0.01;
  (match B.try_recover b ~me:4 ~lease:60.0 with
  | Some { B.lost = Some [ 7 ] } -> ()
  | _ -> Alcotest.fail "recover of an expired ship must return the package");
  (match B.state b with
  | B.Owned { owner = 4; epoch = 2; _ } -> ()
  | _ -> Alcotest.fail "shipped recovery did not take ownership at epoch 2");
  Alcotest.(check bool) "settled" true (not (B.in_flight (B.state b)))

(* ----------------------------- shard map ----------------------------- *)

let test_shard_basic () =
  let m : int SM.t = SM.create ~buckets:4 () in
  let h = SM.handle m in
  let f1 = SM.insert h 5 50 in
  let f2 = SM.find h 5 in
  let f3 = SM.insert h 5 55 in
  let f4 = SM.remove h 5 in
  Alcotest.(check int) "pending" 4 (SM.pending_count h);
  Alcotest.(check bool) "created" true (force f1);
  Alcotest.(check (option int)) "found" (Some 50) (force f2);
  Alcotest.(check bool) "bind-once refused" false (force f3);
  Alcotest.(check (option int)) "removed original" (Some 50) (force f4);
  Alcotest.(check int) "drained" 0 (SM.pending_count h);
  Alcotest.(check int) "empty" 0 (SM.size m)

let test_shard_bindings () =
  let m : int SM.t = SM.create ~buckets:2 () in
  let h = SM.handle m in
  List.iter (fun k -> ignore (SM.insert h k (k * 10) : bool Future.t))
    [ 9; 1; 5; 3; 7 ];
  SM.flush h;
  Alcotest.(check (list (pair int int)))
    "ascending across buckets"
    [ (1, 10); (3, 30); (5, 50); (7, 70); (9, 90) ]
    (SM.bindings m);
  Alcotest.(check (option int)) "direct get" (Some 50) (SM.get m 5);
  Alcotest.(check int) "bucket count" 2 (SM.buckets m);
  Alcotest.(check int) "size" 5 (SM.size m)

(* One domain, two handles: A owns the only bucket and never services, so
   B's flush must serve its find in degraded read-only mode immediately,
   then wait out A's lease and recover — never hang, never lose its
   mutation. *)
let test_degraded_find_and_expiry_recovery () =
  let m : int SM.t =
    SM.create ~buckets:1 ~lease:0.02 ~grant_timeout:0.001 ()
  in
  let a = SM.handle m in
  ignore (SM.insert a 1 10 : bool Future.t);
  SM.flush a;
  let b = SM.handle m in
  let f_find = SM.find b 1 in
  let f_ins = SM.insert b 2 20 in
  with_timeout "degraded flush" (fun () -> SM.flush b);
  Alcotest.(check (option int)) "degraded find answered" (Some 10)
    (force f_find);
  Alcotest.(check bool) "mutation applied after recovery" true (force f_ins);
  Alcotest.(check (option int)) "segment untouched by recovery" (Some 10)
    (SM.get m 1);
  let s = SM.stats m in
  Alcotest.(check bool) "a request was issued" true (s.SM.requests >= 1);
  Alcotest.(check bool) "the find was served degraded" true
    (s.SM.degraded_finds >= 1);
  Alcotest.(check bool) "ownership recovered at lease expiry" true
    (s.SM.recovers >= 1)

(* A window holding only cancelled ops has nothing left to apply: it is
   withdrawn by the ops' fate and cleared without asking the live foreign
   owner for the bucket. *)
let test_cancelled_window_no_transfer () =
  let m : int SM.t = SM.create ~buckets:1 ~lease:1.0 ~grant_timeout:0.001 () in
  let a = SM.handle m in
  ignore (SM.insert a 1 10 : bool Future.t);
  SM.flush a;
  let b = SM.handle m in
  let f_ins = SM.insert b 2 20 in
  let f_find = SM.find b 1 in
  Alcotest.(check bool) "insert cancelled" true (Future.cancel f_ins);
  Alcotest.(check bool) "find cancelled" true (Future.cancel f_find);
  with_timeout "cancelled-only flush" (fun () -> SM.flush b);
  Alcotest.(check int) "window withdrawn" 0 (SM.pending_count b);
  Alcotest.(check int) "no transfer requested" 0 (SM.stats m).SM.requests;
  Alcotest.(check (option int)) "cancelled insert never applied" None
    (SM.get m 2)

(* Degraded reads during a shed window: with the overload controller at
   Shed and a bucket still owned by a handle that never services (in
   flight from the requester's point of view), finds that the admission
   gate lets through must be answered from the degraded read-only path —
   and both the store's stats and the global obs metrics must count
   them. *)
let test_degraded_find_during_shed_window () =
  let obs_was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled obs_was)
    (fun () ->
      let before = Obs.Metrics.snapshot () in
      let ov = Workload.Overload.create () in
      Workload.Overload.force_stage ov Workload.Overload.Shed;
      let m : int SM.t =
        SM.create ~buckets:1 ~lease:0.02 ~grant_timeout:0.001 ()
      in
      let a = SM.handle m in
      ignore (SM.insert a 1 10 : bool Future.t);
      SM.flush a;
      (* [a] owns the only bucket and goes quiet; [b]'s finds can only be
         answered degraded until the lease expires. *)
      let b = SM.handle m in
      let found = ref 0 in
      let shed = ref 0 in
      for _ = 1 to 100 do
        if Workload.Overload.admit ov then begin
          let f = SM.find b 1 in
          with_timeout "shed-window flush" (fun () -> SM.flush b);
          Alcotest.(check (option int)) "degraded find answered" (Some 10)
            (force f);
          incr found
        end
        else incr shed
      done;
      Alcotest.(check bool) "the window shed some arrivals" true (!shed > 0);
      Alcotest.(check bool) "admitted finds were served" true (!found > 0);
      (* Only finds inside the owner's lease are served degraded; once it
         expires, [b] recovers ownership and serves normally — so the
         counters need at least one degraded serve, not one per find. *)
      let s = SM.stats m in
      Alcotest.(check bool) "stats counted degraded serves" true
        (s.SM.degraded_finds >= 1);
      let d = Obs.Metrics.diff (Obs.Metrics.snapshot ()) before in
      Alcotest.(check bool) "obs counted degraded serves" true
        (d.Obs.Metrics.shard_degraded_finds >= 1);
      Alcotest.(check int) "obs and stats agree" s.SM.degraded_finds
        (d.Obs.Metrics.shard_degraded_finds);
      Alcotest.(check bool) "obs counted the sheds" true
        (d.Obs.Metrics.service_shed >= !shed))

(* Live transfer: the owner keeps servicing (flushing) while the second
   domain's flush routes request → grant → ship → ack; the transfer must
   complete by protocol, not by waiting out the lease. *)
let test_two_domain_transfer () =
  let m : int SM.t =
    SM.create ~buckets:2 ~lease:0.05 ~grant_timeout:0.001 ()
  in
  let owner_ready = Atomic.make false in
  let stop = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        let h = SM.handle m in
        for k = 0 to 19 do
          ignore (SM.insert h k k : bool Future.t)
        done;
        SM.flush h;
        Atomic.set owner_ready true;
        while not (Atomic.get stop) do
          SM.flush h;
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get owner_ready) do
    Domain.cpu_relax ()
  done;
  let b = SM.handle m in
  let f = SM.insert b 100 1000 in
  with_timeout "transfer flush" (fun () -> SM.flush b);
  Atomic.set stop true;
  Domain.join owner;
  Alcotest.(check bool) "cross-shard insert applied" true (force f);
  Alcotest.(check (option int)) "binding visible" (Some 1000) (SM.get m 100);
  let s = SM.stats m in
  Alcotest.(check bool) "transfer completed by ack" true (s.SM.acks >= 1);
  Alcotest.(check bool) "protocol counters monotone" true
    (s.SM.acks <= s.SM.ships
    && s.SM.ships <= s.SM.grants
    && s.SM.grants <= s.SM.requests);
  Alcotest.(check int) "nothing left in flight" 0 (SM.in_flight m)

(* ------------------------- kills per protocol step -------------------- *)

(* Owner killed at [shard.grant]: the request is never granted, the
   requester waits out the dead owner's lease and recovers, and its own
   operations still apply. The owner's segment data survives (transfers
   and recoveries move ownership only). *)
let test_kill_at_grant () =
  let m : int SM.t =
    SM.create ~buckets:1 ~lease:0.02 ~grant_timeout:0.001 ()
  in
  Faults.on "shard.grant" (fun k ->
      if k = 0 then Faults.Kill else Faults.Nothing);
  let owned = Atomic.make false in
  let stop = Atomic.make false in
  let victim_abandoned = Atomic.make (-1) in
  let victim =
    Domain.spawn (fun () ->
        let h = SM.handle m in
        ignore (SM.insert h 1 10 : bool Future.t);
        SM.flush h;
        Atomic.set owned true;
        try
          while not (Atomic.get stop) do
            SM.flush h;
            Domain.cpu_relax ()
          done
        with Faults.Killed _ -> Atomic.set victim_abandoned (SM.abandon h))
  in
  while not (Atomic.get owned) do
    Domain.cpu_relax ()
  done;
  let b = SM.handle m in
  let f = SM.insert b 2 20 in
  with_timeout "kill at grant" (fun () -> SM.flush b);
  Atomic.set stop true;
  Domain.join victim;
  Alcotest.(check bool) "victim was killed servicing the grant" true
    (Atomic.get victim_abandoned >= 0);
  Alcotest.(check bool) "requester's op applied after recovery" true (force f);
  Alcotest.(check (option int)) "owner's applied binding survives" (Some 10)
    (SM.get m 1);
  let s = SM.stats m in
  Alcotest.(check bool) "recovered by deadline" true (s.SM.recovers >= 1);
  Alcotest.(check int) "nothing left in flight" 0 (SM.in_flight m)

(* Owner killed at [shard.ship], with an un-applied window: the window
   stays with the dead owner (the fault point fires before the detach),
   so its abandon must poison the window's futures, and the requester
   recovers the expired Granted state and proceeds. *)
let test_kill_at_ship () =
  let m : int SM.t =
    SM.create ~buckets:1 ~lease:0.02 ~grant_timeout:0.001 ()
  in
  Faults.on "shard.ship" (fun k ->
      if k = 0 then Faults.Kill else Faults.Nothing);
  let owned = Atomic.make false in
  let stop = Atomic.make false in
  let victim_abandoned = Atomic.make (-1) in
  let last_fut : bool Future.t option Atomic.t = Atomic.make None in
  let victim =
    Domain.spawn (fun () ->
        let h = SM.handle m in
        ignore (SM.insert h 1 10 : bool Future.t);
        SM.flush h;
        Atomic.set owned true;
        try
          while not (Atomic.get stop) do
            (* Keep the window non-empty going into each flush, so a
               grant+ship services a real window, not an empty one. *)
            Atomic.set last_fut (Some (SM.insert h 1 10));
            SM.flush h;
            Domain.cpu_relax ()
          done
        with Faults.Killed _ -> Atomic.set victim_abandoned (SM.abandon h))
  in
  while not (Atomic.get owned) do
    Domain.cpu_relax ()
  done;
  let b = SM.handle m in
  let f = SM.insert b 2 20 in
  with_timeout "kill at ship" (fun () -> SM.flush b);
  Atomic.set stop true;
  Domain.join victim;
  Alcotest.(check bool) "abandon poisoned the un-shipped window" true
    (Atomic.get victim_abandoned >= 1);
  (match Atomic.get last_fut with
  | None -> Alcotest.fail "victim never issued its window op"
  | Some fo ->
      Alcotest.check_raises "window op raises Orphaned"
        (Future.Broken Future.Orphaned) (fun () -> ignore (force fo : bool));
      Alcotest.(check bool) "window op poisoned" true (Future.is_poisoned fo));
  Alcotest.(check bool) "requester's op applied after recovery" true (force f);
  let s = SM.stats m in
  Alcotest.(check bool) "grant happened before the kill" true
    (s.SM.grants >= 1);
  Alcotest.(check bool) "recovered by deadline" true (s.SM.recovers >= 1);
  Alcotest.(check int) "nothing left in flight" 0 (SM.in_flight m)

(* Requester killed at [shard.ack]: the package is stuck in Shipped with
   nobody to take it. The surviving owner (or any handle) must recover it
   by deadline and poison the lost window's futures — the exact
   lost-update the protocol exists to prevent. *)
let test_kill_at_ack () =
  let m : int SM.t =
    SM.create ~buckets:1 ~lease:0.02 ~grant_timeout:0.001 ()
  in
  Faults.on "shard.ack" (fun k ->
      if k = 0 then Faults.Kill else Faults.Nothing);
  let a = SM.handle m in
  ignore (SM.insert a 1 10 : bool Future.t);
  SM.flush a;
  let victim_done = Atomic.make false in
  let victim_fut : bool Future.t option Atomic.t = Atomic.make None in
  let victim =
    Domain.spawn (fun () ->
        let h = SM.handle m in
        (* A mutation: unlike a find (answerable degraded), it forces the
           victim to take ownership, so it must reach the ack step. *)
        let f = SM.insert h 2 20 in
        Atomic.set victim_fut (Some f);
        (try SM.flush h
         with Faults.Killed _ -> ignore (SM.abandon h : int));
        Atomic.set victim_done true)
  in
  (* Service the victim's request: keep the window non-empty so the ship
     carries real futures, which the recovery must poison. *)
  let deadline = Sync.Mono.now () +. 30.0 in
  while (not (Atomic.get victim_done)) && Sync.Mono.now () < deadline do
    ignore (SM.insert a 1 10 : bool Future.t);
    SM.flush a;
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "victim finished" true (Atomic.get victim_done);
  Domain.join victim;
  (* Drain whatever the kill left mid-transfer. *)
  let d = SM.handle m in
  let drain_deadline = Sync.Mono.now () +. 30.0 in
  while SM.in_flight m > 0 && Sync.Mono.now () < drain_deadline do
    ignore (SM.recover_all d : int);
    Unix.sleepf 0.0005
  done;
  Alcotest.(check int) "drained" 0 (SM.in_flight m);
  let s = SM.stats m in
  Alcotest.(check bool) "the window was shipped" true (s.SM.ships >= 1);
  Alcotest.(check bool) "recovery poisoned the lost window" true
    (s.SM.poisoned >= 1);
  Alcotest.(check bool) "recovered by deadline" true (s.SM.recovers >= 1);
  (match Atomic.get victim_fut with
  | None -> Alcotest.fail "victim never published its future"
  | Some f ->
      Alcotest.(check bool) "victim's orphaned op poisoned, not dropped" true
        (Future.is_poisoned f));
  Alcotest.(check (option int)) "victim's un-applied op never landed" None
    (SM.get m 2);
  Alcotest.(check (option int)) "applied data survives the lost window"
    (Some 10) (SM.get m 1)

(* ---------------------------- conformance ----------------------------- *)

(* Refinement: recorded multi-domain histories over the sharded store
   check against the centralized Map_spec — transfers, degraded reads and
   recoveries must all be invisible to the spec. *)
let test_shard_conformance () =
  let o = Conformance.check_shard_map ~rounds:6 () in
  (match o.Conformance.first_failure with
  | Some h -> Printf.eprintf "%s\n%!" h
  | None -> ());
  Alcotest.(check int) "refinement violations" 0 o.Conformance.violations

let () =
  Alcotest.run "shard"
    [
      ( "bucket",
        [
          Alcotest.test_case "transfer protocol, one CAS at a time" `Quick
            test_bucket_protocol;
          Alcotest.test_case "expiry recovery (lease and shipped)" `Quick
            test_bucket_expiry_recovery;
        ] );
      ( "shard-map",
        [
          Alcotest.test_case "basic ops" `Quick test_shard_basic;
          Alcotest.test_case "bindings across buckets" `Quick
            test_shard_bindings;
          Alcotest.test_case "degraded find + expiry recovery" `Quick
            test_degraded_find_and_expiry_recovery;
          Alcotest.test_case "cancelled-only window, no transfer" `Quick
            test_cancelled_window_no_transfer;
          Alcotest.test_case "degraded finds during a shed window" `Quick
            test_degraded_find_during_shed_window;
          Alcotest.test_case "two-domain transfer (2 domains)" `Slow
            test_two_domain_transfer;
        ] );
      ( "kills",
        [
          Alcotest.test_case "owner killed at shard.grant" `Slow
            (with_clean_faults test_kill_at_grant);
          Alcotest.test_case "owner killed at shard.ship" `Slow
            (with_clean_faults test_kill_at_ship);
          Alcotest.test_case "requester killed at shard.ack" `Slow
            (with_clean_faults test_kill_at_ack);
        ] );
      ( "conformance",
        [
          Alcotest.test_case "refines the centralized map spec" `Slow
            test_shard_conformance;
        ] );
    ]
