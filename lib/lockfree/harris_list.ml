module type KEY = Harris_kv.KEY

module Make (K : KEY) = struct
  module C = Harris_kv.Make (K)

  type t = unit C.t
  type position = unit C.position

  let create = C.create
  let head_position = C.head_position
  let insert t k = C.insert t k ()
  let remove t k = Option.is_some (C.remove t k)
  let contains t k = Option.is_some (C.find t k)

  let insert_from t pos k = C.insert_from t pos k ()

  let remove_from t pos k =
    let r, pos = C.remove_from t pos k in
    (Option.is_some r, pos)

  let contains_from t pos k =
    let r, pos = C.find_from t pos k in
    (Option.is_some r, pos)

  let to_list t = List.map fst (C.bindings t)
  let is_empty = C.is_empty
  let length = C.size
  let cas_count = C.cas_count
  let reset_cas_count = C.reset_cas_count
end
