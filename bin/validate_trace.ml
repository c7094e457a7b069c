(* validate_trace — schema and conformance check for the Chrome
   trace_event JSON the obs flight recorder exports (CI's obs-smoke and
   conformance-smoke jobs run this on fresh traces).

   The parser is line-oriented and streaming: the exporter writes one
   event per line, so the file is validated a line at a time — a
   million-event trace is checked in constant memory per event, and
   every diagnostic carries the line it came from. In particular a
   truncated capture (end of file in the middle of the traceEvents
   array, or a half-written event line) fails with a per-line
   diagnostic instead of a vacuous pass or a whole-file parse error.

   Schema checks:

     - the file is non-empty and shaped like the exporter's output: a
       `{` line, header fields (fldsDropped is read if present), one
       `"traceEvents": [` line, one event object per line, `]` and `}`;
     - every event carries name (non-empty string), ph = "i", a finite
       non-negative ts, and integer pid/tid;
     - events are sorted by ts (the exporter merges per-domain rings);
     - [--min-events N] / [--min-domains N]: floors on events and
       distinct tids;
     - [--require PREFIX] (repeatable): some event name starts with
       PREFIX;
     - shard transfer pairing: every [shard.ship] is eventually matched
       (per bucket, in ts order) by a [shard.ack] or a [shard.recover],
       and no [shard.ack] appears without an outstanding ship — a
       shipped window that is neither applied nor recovered is exactly
       the lost-update bug the protocol exists to prevent;
     - [--min-transfers N]: at least N completed transfers.

   [--conformance] additionally replays the completed-operation events
   (op.enq / op.deq / op.deq.empty and the stack trio) through one
   {!Lin.Stream} monitor per (family, object id), in timestamp order —
   each event's effect interval is [ts - dur_ns, ts]. The first
   violation is reported with its event index, line and reason. A trace
   whose rings dropped events (fldsDropped > 0) is refused in this mode
   unless [--allow-dropped] is given: an incomplete history can be
   scanned but never certified.

   Exits 0 with a summary on success, 1 with a diagnostic on the first
   violation. Each line's JSON value is read with {!Json.parse}. *)

open Json

(* ----------------------- conformance monitors ----------------------- *)

(* One Lin.Stream monitor per (family, object id). Queue and stack
   events share the 0..63 object-id space but are different structures,
   so the family is part of the key. *)
module S = Lin.Stream

type mon = { family : S.family; obj : int; m : S.t }

let () =
  let file = ref None in
  let min_domains = ref 1 in
  let min_events = ref 1 in
  let min_transfers = ref 0 in
  let required = ref [] in
  let conformance = ref false in
  let allow_dropped = ref false in
  let usage () =
    prerr_endline
      "usage: validate_trace FILE [--min-domains N] [--min-events N] \
       [--min-transfers N] [--require PREFIX]... [--conformance] \
       [--allow-dropped]";
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--min-domains" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m -> min_domains := m
        | None -> usage ());
        parse_args rest
    | "--min-events" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 1 -> min_events := m
        | _ -> usage ());
        parse_args rest
    | "--min-transfers" :: v :: rest ->
        (match int_of_string_opt v with
        | Some m when m >= 0 -> min_transfers := m
        | _ -> usage ());
        parse_args rest
    | "--require" :: p :: rest ->
        required := p :: !required;
        parse_args rest
    | "--conformance" :: rest ->
        conformance := true;
        parse_args rest
    | "--allow-dropped" :: rest ->
        allow_dropped := true;
        parse_args rest
    | a :: rest when !file = None && String.length a > 0 && a.[0] <> '-' ->
        file := Some a;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> usage () in
  let line_no = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s:%d: %s\n" file !line_no m;
        exit 1)
      fmt
  in
  let ic = try open_in_bin file with Sys_error m -> fail "%s" m in
  let next_line () =
    match input_line ic with
    | l ->
        incr line_no;
        Some l
    | exception End_of_file -> None
  in
  (* Skip blank lines (the exporter writes one before `]` when the
     trace is empty). *)
  let rec next_content () =
    match next_line () with
    | None -> None
    | Some l -> if String.trim l = "" then next_content () else Some l
  in
  (* ---------------------------- header ----------------------------- *)
  (match next_content () with
  | None -> fail "empty trace file — the recorder exported nothing"
  | Some l when String.trim l = "{" -> ()
  | Some _ -> fail "expected the opening '{' of the trace document");
  let dropped = ref 0 in
  let rec header () =
    match next_content () with
    | None -> fail "truncated trace — end of file before \"traceEvents\""
    | Some l ->
        let t = String.trim l in
        if t = "\"traceEvents\": [" || t = "\"traceEvents\":[" then ()
        else begin
          (* A header field line: `"key": value,` — parsed as a
             one-entry object so malformed headers get a line-anchored
             diagnostic. *)
          let t =
            if String.length t > 0 && t.[String.length t - 1] = ',' then
              String.sub t 0 (String.length t - 1)
            else t
          in
          (match parse ("{" ^ t ^ "}") with
          | Obj [ ("fldsDropped", Num d) ] when Float.rem d 1.0 = 0.0 ->
              dropped := int_of_float d
          | Obj [ (_, _) ] -> ()
          | _ -> fail "malformed header field"
          | exception Bad m -> fail "malformed header field (%s)" m);
          header ()
        end
  in
  header ();
  (* ---------------------------- events ----------------------------- *)
  let tids = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  let n_events = ref 0 in
  (* Outstanding shipped windows per bucket, and completed transfers
     (acks), maintained in ts order across the merged per-domain rings:
     the ship fires on the granter's domain, the ack on the requester's. *)
  let ships : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let transfers = ref 0 in
  let matched = Array.make (List.length !required) false in
  let req_prefixes = Array.of_list (List.rev !required) in
  (* Conformance state: monitors keyed by (family, obj); the line each
     feed index came from, for violation reports. *)
  let monitors : (int, mon) Hashtbl.t = Hashtbl.create 8 in
  let op_events = ref 0 in
  let op_lines : (int, int) Hashtbl.t = Hashtbl.create 997 in
  let monitor family obj =
    let key = (if family = S.Fifo then 0 else 64) lor obj in
    match Hashtbl.find_opt monitors key with
    | Some mn -> mn.m
    | None ->
        let mn = { family; obj; m = S.create family } in
        Hashtbl.add monitors key mn;
        mn.m
  in
  let handle_op idx name obj_of =
    let args k =
      match obj_of k with
      | Some (Num v) when Float.rem v 1.0 = 0.0 -> int_of_float v
      | _ -> fail "event %d: %s without integer args.%s" idx name k
    in
    let family, ev =
      match name with
      | "op.enq" -> (S.Fifo, S.Add (args "value"))
      | "op.deq" -> (S.Fifo, S.Remove (args "value"))
      | "op.deq.empty" -> (S.Fifo, S.Remove_empty)
      | "op.push" -> (S.Lifo, S.Add (args "value"))
      | "op.pop" -> (S.Lifo, S.Remove (args "value"))
      | "op.pop.empty" -> (S.Lifo, S.Remove_empty)
      | _ -> assert false
    in
    let obj = args "obj" in
    if obj < 0 || obj > 63 then
      fail "event %d: %s with out-of-range args.obj %d" idx name obj;
    let dur = args "dur_ns" in
    if dur < 0 then fail "event %d: %s with negative args.dur_ns" idx name;
    (* ts in the file is microseconds with the ns kept in a 3-digit
       fraction; recover the integer nanosecond stamp. *)
    let stop = int_of_float ((!last_ts *. 1000.0) +. 0.5) in
    incr op_events;
    Hashtbl.replace op_lines idx !line_no;
    try S.feed (monitor family obj) ~index:idx ~start:(stop - dur) ~stop ev
    with Invalid_argument m -> fail "event %d: %s" idx m
  in
  let handle_event idx line =
    let ev =
      match parse line with
      | v -> v
      | exception Bad m ->
          fail "malformed event (%s) — truncated capture?" m
    in
    let obj =
      match ev with Obj kvs -> kvs | _ -> fail "event %d is not an object" idx
    in
    let str k =
      match List.assoc_opt k obj with
      | Some (Str v) -> v
      | _ -> fail "event %d: missing or non-string %S" idx k
    in
    let num k =
      match List.assoc_opt k obj with
      | Some (Num v) -> v
      | _ -> fail "event %d: missing or non-number %S" idx k
    in
    let name = str "name" in
    if name = "" then fail "event %d: empty name" idx;
    if str "ph" <> "i" then fail "event %d: ph is not \"i\"" idx;
    let ts = num "ts" in
    if not (Float.is_finite ts) || ts < 0.0 then
      fail "event %d: ts is not a finite non-negative number" idx;
    if ts < !last_ts then fail "event %d: not sorted by ts" idx;
    last_ts := ts;
    let integral k =
      let v = num k in
      if Float.rem v 1.0 <> 0.0 then fail "event %d: %S not an integer" idx k;
      v
    in
    ignore (integral "pid" : float);
    Hashtbl.replace tids (integral "tid") ();
    Array.iteri
      (fun i p ->
        if (not matched.(i)) && String.starts_with ~prefix:p name then
          matched.(i) <- true)
      req_prefixes;
    let arg k =
      match List.assoc_opt "args" obj with
      | Some (Obj akvs) -> List.assoc_opt k akvs
      | _ -> None
    in
    if name = "shard.ship" || name = "shard.ack" || name = "shard.recover"
    then begin
      let bucket =
        match arg "bucket" with
        | Some (Num b) when Float.rem b 1.0 = 0.0 -> int_of_float b
        | _ -> fail "event %d: %s without integer args.bucket" idx name
      in
      let outstanding =
        Option.value (Hashtbl.find_opt ships bucket) ~default:0
      in
      match name with
      | "shard.ship" -> Hashtbl.replace ships bucket (outstanding + 1)
      | "shard.ack" ->
          if outstanding = 0 then
            fail "event %d: shard.ack on bucket %d with no outstanding ship"
              idx bucket;
          incr transfers;
          Hashtbl.replace ships bucket (outstanding - 1)
      | _ ->
          (* shard.recover: settles the lost in-flight window, if one
             was shipped; a recover of a merely-expired lease is not a
             pairing event. *)
          if outstanding > 0 then Hashtbl.replace ships bucket (outstanding - 1)
    end;
    if
      !conformance
      && (String.length name > 3 && String.sub name 0 3 = "op.")
      && (name = "op.enq" || name = "op.deq" || name = "op.deq.empty"
         || name = "op.push" || name = "op.pop" || name = "op.pop.empty")
    then handle_op idx name arg
  in
  (* Each line inside the array is an event object (with a trailing
     comma on all but the last), until the closing `]`. Running out of
     file here is the truncation this tool exists to catch. *)
  let rec events () =
    match next_content () with
    | None ->
        fail
          "truncated trace — end of file inside traceEvents (%d event(s) \
           parsed so far)"
          !n_events
    | Some l ->
        let t = String.trim l in
        if t = "]" then ()
        else begin
          let t =
            if String.length t > 0 && t.[String.length t - 1] = ',' then
              String.sub t 0 (String.length t - 1)
            else t
          in
          handle_event !n_events t;
          incr n_events;
          events ()
        end
  in
  events ();
  (match next_content () with
  | Some l when String.trim l = "}" -> ()
  | Some _ -> fail "expected the closing '}' of the trace document"
  | None ->
      fail "truncated trace — end of file after traceEvents, before '}'");
  (match next_content () with
  | None -> ()
  | Some _ -> fail "trailing content after the trace document");
  close_in ic;
  (* --------------------------- verdicts ----------------------------- *)
  if !n_events = 0 then fail "traceEvents is empty";
  if !n_events < !min_events then
    fail "only %d event(s), need at least %d" !n_events !min_events;
  let domains = Hashtbl.length tids in
  if domains < !min_domains then
    fail "only %d distinct tid(s), need at least %d" domains !min_domains;
  Hashtbl.iter
    (fun bucket k ->
      if k > 0 then
        fail
          "bucket %d: %d shipped window(s) with no matching shard.ack or \
           shard.recover"
          bucket k)
    ships;
  if !transfers < !min_transfers then
    fail "only %d completed transfer(s) (shard.ack), need at least %d"
      !transfers !min_transfers;
  Array.iteri
    (fun i ok ->
      if not ok then fail "no event with name prefix %S" req_prefixes.(i))
    matched;
  let conf_summary =
    if not !conformance then ""
    else begin
      if !dropped > 0 && not !allow_dropped then begin
        Printf.eprintf
          "%s: %d event(s) dropped by the flight-recorder rings — an \
           incomplete history cannot be certified (--allow-dropped to scan \
           anyway)\n"
          file !dropped;
        exit 1
      end;
      (* Finalize every monitor; report the violation with the smallest
         feed index (deterministic — matches the monitor's own
         tie-break). *)
      let worst = ref None in
      Hashtbl.iter
        (fun _ mn ->
          match S.finalize mn.m with
          | S.Accept -> ()
          | S.Reject { index; reason } -> (
              match !worst with
              | Some (i, _, _) when i <= index -> ()
              | _ -> worst := Some (index, reason, mn)))
        monitors;
      (match !worst with
      | Some (index, reason, mn) ->
          let line =
            Option.value (Hashtbl.find_opt op_lines index) ~default:0
          in
          Printf.eprintf
            "%s:%d: conformance violation at event %d (%s object %d): %s\n"
            file line index
            (match mn.family with S.Fifo -> "queue" | S.Lifo -> "stack")
            mn.obj reason;
          exit 1
      | None -> ());
      Printf.sprintf ", %d op event(s) certified over %d monitor(s)"
        !op_events (Hashtbl.length monitors)
    end
  in
  Printf.printf "%s: OK (%d events, %d domain(s), %d transfer(s)%s)\n" file
    !n_events domains !transfers conf_summary
