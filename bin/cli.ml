(* Range-checked argument converters shared by flbench, validate_bench
   and validate_trace. A value out of range is a usage error (cmdliner's
   exit 124), never an exception mid-run. *)

open Cmdliner

let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive number" s))
  in
  Arg.conv (parse, Format.pp_print_float)
