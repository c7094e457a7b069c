type 'a node = { value : 'a; mutable next : 'a node option }

type 'a t = { head : 'a node option Atomic.t; casc : Sync.Cas_counter.t }

let create () =
  { head = Sync.Padded.atomic None; casc = Sync.Cas_counter.create () }

let cas t expected desired =
  Sync.Cas_counter.incr t.casc;
  Atomic.compare_and_set t.head expected desired

(* The retry loops below are toplevel functions threading a
   [Sync.Backoff.retry] option from [None], so an uncontended op
   allocates only its nodes: no backoff record, no per-call closure. *)

(* Link the private chain [top .. bottom] on top of the stack ([top] is
   boxed once by the caller); only the bottom link is patched on each
   retry. *)
let rec link t top bottom b =
  let head = Atomic.get t.head in
  bottom.next <- head;
  if not (cas t head top) then link t top bottom (Sync.Backoff.retry b)

let push t x =
  let node = { value = x; next = None } in
  link t (Some node) node None

let rec pop_loop t b =
  match Atomic.get t.head with
  | None -> None
  | Some node as head ->
      if cas t head node.next then Some node.value
      else pop_loop t (Sync.Backoff.retry b)

let pop t = pop_loop t None

let peek t =
  match Atomic.get t.head with None -> None | Some n -> Some n.value

let push_list t xs =
  match xs with
  | [] -> ()
  | x1 :: rest ->
      (* Build the chain [xn -> ... -> x1] once. *)
      let bottom = { value = x1; next = None } in
      let top =
        List.fold_left
          (fun below x -> { value = x; next = Some below })
          bottom rest
      in
      link t (Some top) bottom None

(* Indexed-segment variants of [push_list]/[pop_many]: the FL flush
   paths feed them straight from a ring buffer, so a whole pending
   window is spliced with one CAS and no transient list. *)

let push_seg t ~n ~get =
  if n < 0 then invalid_arg "Treiber_stack.push_seg: negative count";
  if n > 0 then begin
    (* Index 0 is pushed deepest (the oldest pending push). *)
    let bottom = { value = get 0; next = None } in
    let top = ref bottom in
    for i = 1 to n - 1 do
      top := { value = get i; next = Some !top }
    done;
    link t (Some !top) bottom None
  end

(* The [n]-th node from [node] (which is the [k]-th), or the bottom one
   when the stack is shorter. *)
let rec seg_last node k n =
  if k = n then node
  else match node.next with None -> node | Some nxt -> seg_last nxt (k + 1) n

(* Hand out the values of the detached chain [node .. last] with [f i v],
   i = 0 for the value that was on top; returns how many. *)
let rec deliver f node last i =
  f i node.value;
  if node == last then i + 1
  else
    match node.next with
    | Some nxt -> deliver f nxt last (i + 1)
    | None -> assert false

let rec pop_seg_loop t n f b =
  match Atomic.get t.head with
  | None -> 0
  | Some first as head ->
      (* Find the split point, detach with one CAS, then deliver from
         the now-private chain. *)
      let last = seg_last first 1 n in
      if cas t head last.next then deliver f first last 0
      else pop_seg_loop t n f (Sync.Backoff.retry b)

let pop_seg t ~n ~f =
  if n < 0 then invalid_arg "Treiber_stack.pop_seg: negative count";
  if n = 0 then 0 else pop_seg_loop t n f None

let pop_many t n =
  if n < 0 then invalid_arg "Treiber_stack.pop_many: negative count";
  let acc = ref [] in
  ignore (pop_seg t ~n ~f:(fun _ v -> acc := v :: !acc) : int);
  List.rev !acc

let is_empty t = Atomic.get t.head = None

let to_list t =
  let rec loop acc = function
    | None -> List.rev acc
    | Some n -> loop (n.value :: acc) n.next
  in
  loop [] (Atomic.get t.head)

let length t = List.length (to_list t)

let cas_count t = Sync.Cas_counter.total t.casc
let reset_cas_count t = Sync.Cas_counter.reset t.casc
