(* In-memory span recorder for the traced run. Each domain fills its own
   buffer and publishes it when its work ends; [write] renders every
   published span as a Chrome trace_event "X" (complete) event on the
   same monotonic time base as [Obs.Trace] exports, so Perfetto shows
   both files side by side. Counts are kept exactly elsewhere; spans are
   a bounded sample. *)

type span = {
  name : string;
  id : int;  (** request or op id; spans of one request share it *)
  parent : int;  (** id of the enclosing span, 0 at the top *)
  ts : int;
  te : int;
  tid : int;
}

type buf = { mutable spans : span list; mutable n : int; mutable dropped : int }

let cap_per_buf = 500
let published : span list ref = ref []
let dropped = ref 0
let lock = Mutex.create ()
let ids = Atomic.make 0

let fresh_id () = 1 + Atomic.fetch_and_add ids 1
let local () = { spans = []; n = 0; dropped = 0 }

(* [tid] defaults to the calling domain. *)
let add ?tid b ~name ~id ~parent ts te =
  if b.n < cap_per_buf then begin
    let tid = match tid with Some t -> t | None -> (Domain.self () :> int) in
    b.spans <- { name; id; parent; ts; te; tid } :: b.spans;
    b.n <- b.n + 1
  end
  else b.dropped <- b.dropped + 1

let publish b =
  Mutex.protect lock (fun () ->
      published := List.rev_append b.spans !published;
      dropped := !dropped + b.dropped);
  b.spans <- [];
  b.n <- 0;
  b.dropped <- 0

let write path =
  let spans = List.sort (fun a b -> compare a.ts b.ts) !published in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\"displayTimeUnit\": \"ns\",\n\"perfbenchDropped\": %d,\n\"traceEvents\": [\n"
        !dropped;
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          let d = s.te - s.ts in
          Printf.fprintf oc
            "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%d.%03d,\"dur\":%d.%03d,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
            s.name (s.ts / 1000) (s.ts mod 1000) (d / 1000) (d mod 1000)
            s.tid s.id s.parent)
        spans;
      output_string oc "\n]\n}\n");
  List.length spans
