(** Harris's lock-free sorted linked list storing key/value bindings
    (Harris, DISC 2001), with a position-resume extension. This module
    owns the one Harris core in the library; {!Harris_list} is its
    unit-valued instance.

    The paper motivates future-returning operations with maps — "binding
    a key to a value", "the result of a map look-up" (§2) — but only
    evaluates sets; this module provides the map substrate for the
    {!Fl.Weak_map} extension and the sharded store. Bindings are
    {e bind-once}: an insert on a present key does not replace the value.
    A live node's value is immutable, which keeps every linearization
    argument of the set intact; replace = remove + insert, two operations.

    Deletion is two-phase: a node is first logically deleted by
    {e marking} its outgoing link, then physically unlinked by any
    traversal that encounters it. OCaml cannot tag pointer bits, so a
    link is a flat variant, [Live_end | Dead_end | Live of node | Dead of
    node], that carries both the successor and this node's mark. CAS
    compares links physically: the end links are immediates, so they
    compare by value, exactly Harris's (mark, NULL) word; node links are
    immutable blocks, so they compare by identity, which implies equal
    (mark, node) values and which the GC makes safe from ABA. Traversals carry the last live node unboxed and build the
    returned position once, so a lookup allocates a constant number of
    words whatever the list length.

    The {e position} API resumes a search from where the previous
    operation was applied, so a key-sorted batch costs a single
    traversal (see {!Harris_list}). *)

module type KEY = sig
  type t

  val compare : t -> t -> int
end

module Make (K : KEY) : sig
  type 'v t

  val create : unit -> 'v t

  val insert : 'v t -> K.t -> 'v -> bool
  (** [insert t k v] binds [k] to [v] if absent; [false] (and no change)
      if [k] is already bound. *)

  val find : 'v t -> K.t -> 'v option
  (** Wait-free lookup. *)

  val remove : 'v t -> K.t -> 'v option
  (** [remove t k] deletes the binding, returning its value. *)

  type 'v position

  val head_position : 'v t -> 'v position
  val insert_from : 'v t -> 'v position -> K.t -> 'v -> bool * 'v position
  val find_from : 'v t -> 'v position -> K.t -> 'v option * 'v position

  val remove_from : 'v t -> 'v position -> K.t -> 'v option * 'v position
  (** As in {!Harris_list}: resume the search from a position obtained
      for a key [<=] the new key; stale positions fall back to a search
      from the head, so results are always correct. *)

  val is_empty : 'v t -> bool
  val size : 'v t -> int

  val bindings : 'v t -> (K.t * 'v) list
  (** Ascending by key; quiescent snapshot. *)

  val cas_count : 'v t -> int
  val reset_cas_count : 'v t -> unit
end
