(** Harris's lock-free sorted linked list implementing a set
    (Harris, DISC 2001), with a position-resume extension.

    This is the unit-valued instance of the one Harris core, which
    {!Harris_kv} owns: deletion is two-phase (a node is first logically
    deleted by {e marking} its outgoing link, then physically unlinked by
    any traversal that encounters it), links are a flat variant whose
    end links are compared by value and node links by identity, and
    traversals allocate nothing per node. See {!Harris_kv} for the
    encoding.

    The {e position} API supports the paper's medium- and weak-FL list
    optimization (§4.3): when successive operations use non-decreasing
    keys, the search can resume from where the previous operation was
    applied rather than from the head, so a whole sorted batch costs a
    single traversal. Positions never compromise safety: a stale position
    (its node was deleted) still leads forward into the live list, and the
    operations re-validate with CAS as usual. *)

module type KEY = Harris_kv.KEY

module Make (K : KEY) : sig
  type t

  val create : unit -> t

  val insert : t -> K.t -> bool
  (** [insert t k] adds [k]; [false] if already present. Lock-free. *)

  val remove : t -> K.t -> bool
  (** [remove t k] logically deletes [k] (then attempts physical unlink);
      [false] if absent. Lock-free. *)

  val contains : t -> K.t -> bool
  (** Wait-free read-only search. *)

  type position
  (** A resumption point strictly below some key. *)

  val head_position : t -> position
  (** The position before the first element. *)

  val insert_from : t -> position -> K.t -> bool * position
  val remove_from : t -> position -> K.t -> bool * position

  val contains_from : t -> position -> K.t -> bool * position
  (** Like the plain operations but starting the search at [position]
      and returning the position just before the affected key. The caller
      must only pass a position obtained for a key [<=] the new key;
      with a stale or unsuitable position the operation falls back to a
      search from the head, so results are always correct. *)

  val is_empty : t -> bool

  val length : t -> int
  (** O(n); exact only in quiescent states. *)

  val to_list : t -> K.t list
  (** Ascending snapshot of the unmarked nodes. *)

  val cas_count : t -> int
  val reset_cas_count : t -> unit
end
