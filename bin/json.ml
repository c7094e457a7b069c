(* The BENCH_*.json record format: the writer flbench's panels append
   to, and the value reader validate_bench and validate_trace share.
   Hand-rolled: the repo deliberately has no JSON dependency. [parse]
   reads exactly one value (surrounding whitespace allowed) and raises
   [Bad] with the byte offset of the first error. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "offset %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> (
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
            | Some _ ->
                (* Non-ASCII code point: validity, not the exact text,
                   is what matters here. *)
                Buffer.add_char b '?'
            | None -> fail "malformed \\u escape")
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content after the value";
  v

(* ------------------------------ writer ------------------------------ *)

(* Every measurement a panel takes while [--json PATH] is set is added to
   the sink as one flat record — bench, impl, slack, domains, then
   numbers — and the sink is written as one document at exit, stamped
   with the git revision and the host (nproc, OCaml version). *)

type sink = { path : string; mutable records : string list }

let sink path = { path; records = [] }

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let add sink ~bench ~impl ~slack ~domains fields =
  let extras =
    List.map (fun (k, v) -> Printf.sprintf ",%S:%s" k (num v)) fields
  in
  sink.records <-
    Printf.sprintf
      "{\"bench\":\"%s\",\"impl\":\"%s\",\"slack\":%d,\"domains\":%d%s}"
      (escape bench) (escape impl) slack domains (String.concat "" extras)
    :: sink.records

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> rev
    | _ -> "unknown"
  with _ -> "unknown"

(* [obs] is an optional block of pre-rendered (key, JSON value) pairs. *)
let write ?(obs = []) sink =
  let obs =
    if obs = [] then ""
    else
      Printf.sprintf ",\n  \"obs\": {\n    %s\n  }"
        (String.concat ",\n    "
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) obs))
  in
  let oc = open_out sink.path in
  Printf.fprintf oc
    "{\n  \"generated_by\": \"flbench\",\n  \"git_rev\": \"%s\",\n\
    \  \"host\": {\"nproc\": %d, \"ocaml_version\": \"%s\"},\n\
    \  \"records\": [\n    %s\n  ]%s\n}\n"
    (escape (git_rev ()))
    (Domain.recommended_domain_count ())
    (escape Sys.ocaml_version)
    (String.concat ",\n    " (List.rev sink.records))
    obs;
  close_out oc;
  Printf.eprintf "wrote %s (%d records)\n%!" sink.path
    (List.length sink.records)
