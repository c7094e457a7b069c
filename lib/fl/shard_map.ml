module Future = Futures.Future

module type KEY = sig
  type t

  val compare : t -> t -> int
  val hash : t -> int
end

module Make (K : KEY) = struct
  module M = Lockfree.Harris_kv.Make (K)

  type 'v op =
    | Insert of K.t * 'v * bool Future.t
    | Find of K.t * 'v option Future.t
    | Remove of K.t * 'v option Future.t

  (* A sealed pending window in flight between owners. Once shipped, the
     buffer belongs to whoever wins the ack/recover CAS — exactly one
     handle ever touches it again. *)
  type 'v pkg = 'v op Opbuf.t

  type 'v shard = { b : 'v pkg Bucket.t; kv : 'v M.t }

  type 'v t = {
    shards : 'v shard array;
    lease : float;
    grant_timeout : float;
    next_id : int Atomic.t;
    (* Low-rate protocol statistics; padded so a transfer storm on one
       counter never bounces the others' cache lines. *)
    c_requests : int Atomic.t;
    c_grants : int Atomic.t;
    c_ships : int Atomic.t;
    c_acks : int Atomic.t;
    c_recovers : int Atomic.t;
    c_retries : int Atomic.t;
    c_degraded : int Atomic.t;
    c_poisoned : int Atomic.t;
  }

  type 'v handle = {
    t : 'v t;
    me : int;  (* unique lease-owner identity, never reused *)
    wins : 'v op Opbuf.t array;  (* one pending window per bucket *)
  }

  type stats = {
    requests : int;
    grants : int;
    ships : int;
    acks : int;
    recovers : int;
    retries : int;
    degraded_finds : int;
    poisoned : int;
  }

  let create ?(buckets = 8) ?(lease = 0.05) ?(grant_timeout = 0.002) () =
    if buckets < 1 then invalid_arg "Shard_map.create: buckets < 1";
    if lease <= 0.0 then invalid_arg "Shard_map.create: lease <= 0";
    if grant_timeout <= 0.0 then invalid_arg "Shard_map.create: grant_timeout <= 0";
    {
      shards =
        Array.init buckets (fun id -> { b = Bucket.create ~id; kv = M.create () });
      lease;
      grant_timeout;
      next_id = Atomic.make 0;
      c_requests = Sync.Padded.atomic 0;
      c_grants = Sync.Padded.atomic 0;
      c_ships = Sync.Padded.atomic 0;
      c_acks = Sync.Padded.atomic 0;
      c_recovers = Sync.Padded.atomic 0;
      c_retries = Sync.Padded.atomic 0;
      c_degraded = Sync.Padded.atomic 0;
      c_poisoned = Sync.Padded.atomic 0;
    }

  let handle t =
    {
      t;
      me = Atomic.fetch_and_add t.next_id 1;
      wins = Array.init (Array.length t.shards) (fun _ -> Opbuf.create ());
    }

  let buckets t = Array.length t.shards

  let bucket_of_key t k = (K.hash k land max_int) mod Array.length t.shards

  let stats t =
    {
      requests = Atomic.get t.c_requests;
      grants = Atomic.get t.c_grants;
      ships = Atomic.get t.c_ships;
      acks = Atomic.get t.c_acks;
      recovers = Atomic.get t.c_recovers;
      retries = Atomic.get t.c_retries;
      degraded_finds = Atomic.get t.c_degraded;
      poisoned = Atomic.get t.c_poisoned;
    }

  let in_flight t =
    Array.fold_left
      (fun n sh -> if Bucket.in_flight (Bucket.state sh.b) then n + 1 else n)
      0 t.shards

  let get t k = M.find (t.shards.(bucket_of_key t k)).kv k

  let size t = Array.fold_left (fun n sh -> n + M.size sh.kv) 0 t.shards

  let bindings t =
    Array.fold_left (fun acc sh -> acc @ M.bindings sh.kv) [] t.shards
    |> List.sort (fun (a, _) (b, _) -> K.compare a b)

  (* ------------------------- op plumbing --------------------------- *)

  let key_of = function Insert (k, _, _) | Find (k, _) | Remove (k, _) -> k

  let op_pending = function
    | Insert (_, _, f) -> Future.is_pending f
    | Find (_, f) -> Future.is_pending f
    | Remove (_, f) -> Future.is_pending f

  let poison_op = function
    | Insert (_, _, f) -> Opbuf.orphan f
    | Find (_, f) -> Opbuf.orphan f
    | Remove (_, f) -> Opbuf.orphan f

  (* Poison a window's un-applied futures, counted in the store's
     stats. *)
  let poison_buf t w =
    let k = Opbuf.(abandon [ Ring (w, poison_op) ]) in
    if k > 0 then ignore (Atomic.fetch_and_add t.c_poisoned k);
    k

  (* Withdraw the settled ops — cancelled, or answered by a degraded
     read — and report whether any pending op is left. *)
  let has_pending w = Opbuf.compact op_pending w > 0

  (* Usurp bucket [i]'s expired state; on success poison the lost
     window, if any. Returns the number of futures poisoned. *)
  let try_recover h i =
    let t = h.t in
    match Bucket.try_recover t.shards.(i).b ~me:h.me ~lease:t.lease with
    | None -> 0
    | Some r ->
        let k =
          match r.Bucket.lost with None -> 0 | Some pkg -> poison_buf t pkg
        in
        Atomic.incr t.c_recovers;
        Obs.shard_recover ~bucket:i ~poisoned:k;
        k

  (* Apply a window against a bucket segment: one traversal, ops sorted
     by key (stable, so per-key invocation order is kept), position
     resumed between keys — the same combining as Weak_map.flush.
     Cancelled/poisoned ops are skipped; fulfilment is try_fulfil, since
     the window may have been shipped here and a racing abandon of the
     issuing handle must not turn into Already_fulfilled. *)
  let apply_window kv w =
    let ops = Array.of_list (Opbuf.to_list w) in
    Array.stable_sort (fun a b -> K.compare (key_of a) (key_of b)) ops;
    let pos = ref (M.head_position kv) in
    let applied = ref 0 in
    Array.iter
      (fun op ->
        if op_pending op then begin
          incr applied;
          match op with
          | Insert (k, v, f) ->
              let r, p = M.insert_from kv !pos k v in
              pos := p;
              ignore (Future.try_fulfil f r)
          | Find (k, f) ->
              let r, p = M.find_from kv !pos k in
              pos := p;
              ignore (Future.try_fulfil f r)
          | Remove (k, f) ->
              let r, p = M.remove_from kv !pos k in
              pos := p;
              ignore (Future.try_fulfil f r)
        end)
      ops;
    !applied

  (* A shipped package is owned by nobody's handle, so if its application
     dies mid-way (a kill at a fulfil point under whole-process chaos)
     the survivors must not hang: poison the un-applied remainder before
     re-raising. *)
  let apply_pkg t kv pkg =
    match apply_window kv pkg with
    | n ->
        Opbuf.clear pkg;
        Obs.splice ~kind:Obs.Event.k_shard ~n
    | exception e ->
        ignore (poison_buf t pkg : int);
        raise e

  (* --------------------- degraded read-only mode -------------------- *)

  (* While a bucket is owned elsewhere or in flight, pending finds whose
     key has no earlier pending mutation in this window may be answered
     directly against the segment — a legal weak-FL linearization point
     inside their pending window — leaving only mutations to wait for
     the transfer. A served find is terminal, so [has_pending] withdraws
     it. *)
  let degraded_serve h i =
    let t = h.t in
    let sh = t.shards.(i) in
    let w = h.wins.(i) in
    let mutation_on k =
      let found = ref false in
      Opbuf.iter
        (fun op ->
          match op with
          | Insert (k', _, f) when Future.is_pending f && K.compare k k' = 0 ->
              found := true
          | Remove (k', f) when Future.is_pending f && K.compare k k' = 0 ->
              found := true
          | _ -> ())
        w;
      !found
    in
    for idx = 0 to Opbuf.length w - 1 do
      match Opbuf.get w idx with
      | Find (k, f) when Future.is_pending f && not (mutation_on k) ->
          if Future.try_fulfil f (M.find sh.kv k) then begin
            Atomic.incr t.c_degraded;
            Obs.shard_degraded ~bucket:i
          end
      | _ -> ()
    done

  (* ------------------------ owner-side pump ------------------------- *)

  (* Grant and seal-and-ship every bucket another handle requested from
     us, and renew leases nearing expiry. The [shard.ship] fault point
     fires *before* the window is detached, so a kill there leaves the
     window in this handle where [abandon] can poison it; after a
     successful grant the window rides in the Shipped state and exactly
     one taker (acker or recoverer) settles it. *)
  let service h =
    let t = h.t in
    Array.iteri
      (fun i sh ->
        match Bucket.state sh.b with
        | Bucket.Requested { owner; _ } when owner = h.me ->
            Faults.point "shard.grant";
            if Bucket.try_grant sh.b ~me:h.me ~timeout:t.lease then begin
              Atomic.incr t.c_grants;
              Obs.shard_grant ~bucket:i;
              Faults.point "shard.ship";
              let pkg = Opbuf.create () in
              Opbuf.swap pkg h.wins.(i);
              let n = Opbuf.length pkg in
              (* Stamp before the publishing CAS: the requester acks as
                 soon as Shipped is visible, and its ack must not sort
                 before this ship in the exported trace. *)
              let ship_ts = Obs.now_ns () in
              if Bucket.try_ship sh.b ~me:h.me ~pkg then begin
                Atomic.incr t.c_ships;
                Obs.shard_ship ~ts:ship_ts ~bucket:i ~n
              end
              else
                (* The transfer expired under us and a recoverer owns the
                   bucket: keep our window and re-route it normally. *)
                Opbuf.swap pkg h.wins.(i)
            end
        | Bucket.Owned { owner; until; _ } when owner = h.me ->
            if until -. Sync.Mono.now () < t.lease /. 2.0 then
              ignore (Bucket.try_renew sh.b ~me:h.me ~lease:t.lease)
        | _ -> ())
      t.shards

  (* ------------------------- the flush loop ------------------------- *)

  (* Apply bucket [i]'s window, acquiring/transferring ownership as
     needed. Terminates: every wait is bounded by a lease or transfer
     deadline, after which try_recover succeeds (or another handle's did,
     changing the state we re-read). [service] runs inside the wait so
     two handles requesting each other's buckets cannot deadlock. *)
  let flush_bucket h i =
    let t = h.t in
    let sh = t.shards.(i) in
    let w = h.wins.(i) in
    if Opbuf.length w > 0 then begin
      let bo = Sync.Backoff.create () in
      let attempt = ref 0 in
      let req_deadline = ref infinity in
      let t0 = ref 0 in
      let rec loop () =
        if has_pending w then begin
          let now = Sync.Mono.now () in
          match Bucket.state sh.b with
          | Bucket.Owned { owner; until; _ } when owner = h.me && now < until ->
              if until -. now < t.lease /. 2.0 then begin
                if Bucket.try_renew sh.b ~me:h.me ~lease:t.lease then apply ()
                else wait ()
              end
              else apply ()
          | Bucket.Free _ ->
              if Bucket.try_acquire sh.b ~me:h.me ~lease:t.lease then apply ()
              else wait ()
          | st when Bucket.expired ~now st ->
              ignore (try_recover h i : int);
              loop ()
          | Bucket.Owned _ ->
              (* live foreign lease: read-only service, then request *)
              degraded_serve h i;
              if has_pending w then begin
                if Bucket.try_request sh.b ~me:h.me then begin
                  Atomic.incr t.c_requests;
                  let s = Obs.shard_request ~bucket:i in
                  if !t0 = 0 then t0 := s;
                  req_deadline :=
                    Sync.Mono.now ()
                    +. (t.grant_timeout *. float_of_int (1 lsl min !attempt 8))
                end;
                wait ()
              end
          | Bucket.Requested { to_; _ } when to_ = h.me ->
              if now > !req_deadline then begin
                (* the grant did not come in time: back off exponentially
                   (the lease deadline still bounds the total wait) *)
                Atomic.incr t.c_retries;
                incr attempt;
                req_deadline :=
                  now +. (t.grant_timeout *. float_of_int (1 lsl min !attempt 8))
              end;
              wait ()
          | Bucket.Shipped { to_; _ } when to_ = h.me -> (
              Faults.point "shard.ack";
              match Bucket.try_ack sh.b ~me:h.me ~lease:t.lease with
              | Some pkg ->
                  Atomic.incr t.c_acks;
                  Obs.shard_ack ~bucket:i ~t0:!t0;
                  apply_pkg t sh.kv pkg;
                  loop ()
              | None -> wait ())
          | Bucket.Granted { to_; _ } when to_ = h.me -> wait ()
          | Bucket.Requested _ | Bucket.Granted _ | Bucket.Shipped _ ->
              (* a transfer between other handles: degraded reads only *)
              degraded_serve h i;
              if has_pending w then wait ()
        end
      and apply () =
        (* Applied in place: if this domain dies mid-apply, the window is
           still attached and [abandon] poisons the remainder. *)
        let n = apply_window sh.kv w in
        Opbuf.clear w;
        Obs.splice ~kind:Obs.Event.k_shard ~n
      and wait () =
        service h;
        Sync.Backoff.once bo;
        loop ()
      in
      loop ()
    end

  let flush h =
    service h;
    for i = 0 to Array.length h.wins - 1 do
      flush_bucket h i
    done

  (* After a flush, a future of ours can still be pending only because
     its window was sealed-and-shipped to another handle. Wait for the
     receiver to apply it, pumping deadline recovery (and servicing our
     own incoming requests) so a dead receiver poisons rather than
     hangs us. *)
  let settle h i f_pending =
    if f_pending () then begin
      let b = h.t.shards.(i).b in
      let bo = Sync.Backoff.create () in
      while f_pending () do
        if Bucket.expired ~now:(Sync.Mono.now ()) (Bucket.state b) then
          ignore (try_recover h i : int);
        service h;
        Sync.Backoff.once bo
      done
    end

  (* The evaluator of a future whose op sits in bucket [i]'s window. *)
  let eval h i f =
    flush h;
    settle h i (fun () -> Future.is_pending f)

  let insert h k v =
    let i = bucket_of_key h.t k in
    let f = Future.create_with ~evaluator:(eval h i) in
    Opbuf.push h.wins.(i) (Insert (k, v, f));
    f

  let find h k =
    let i = bucket_of_key h.t k in
    let f = Future.create_with ~evaluator:(eval h i) in
    Opbuf.push h.wins.(i) (Find (k, f));
    f

  let remove h k =
    let i = bucket_of_key h.t k in
    let f = Future.create_with ~evaluator:(eval h i) in
    Opbuf.push h.wins.(i) (Remove (k, f));
    f

  let pending_count h =
    Array.fold_left
      (fun n w ->
        let k = ref 0 in
        Opbuf.iter (fun op -> if op_pending op then incr k) w;
        n + !k)
      0 h.wins

  let abandon h = Array.fold_left (fun n w -> n + poison_buf h.t w) 0 h.wins

  let recover_all h =
    let n = ref 0 in
    Array.iteri
      (fun i sh ->
        if Bucket.expired ~now:(Sync.Mono.now ()) (Bucket.state sh.b) then
          n := !n + try_recover h i)
      h.t.shards;
    !n
end
