external now_ns : unit -> (int64[@unboxed])
  = "flds_mono_now_byte" "flds_mono_now_unboxed"
[@@noalloc]

external now_ns_int : unit -> (int[@untagged])
  = "flds_mono_now_int_byte" "flds_mono_now_int_unboxed"
[@@noalloc]

let now () = Int64.to_float (now_ns ()) *. 1e-9
