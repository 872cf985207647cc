(** The directory entry of one cache line: its MESI tag, exclusive owner,
    home node, MOESI owner, busy horizon and sharer set.

    {!Coherence} allocates one record on a line's first touch and only
    mutates it afterwards, so every later access to the line allocates
    nothing on the host. The sharer set keeps up to two cores inline in
    the record, which covers almost every line; a third sharer (a
    broadcast storm) spills the set into a {!Bitset} over the core count,
    built on the first spill and reused after {!clear_sharers}. A bitset
    per line would be 36 words at 1024 cores; the whole record is 10.

    The sharer functions take the core count [n] and share {!Bitset}'s
    contract: members in [[0, n)], ascending order, and
    [Invalid_argument] for an out-of-range core from {!add_sharer},
    {!remove_sharer} and {!mem_sharer}. *)

type t = {
  mutable tag : int;  (** {!tag_invalid}, {!tag_shared} or {!tag_modified} *)
  mutable excl : int;  (** exclusive owner core when [tag = tag_modified] *)
  mutable home : int;  (** home (directory) node *)
  mutable owner : int;
      (** MOESI owner (-1 = none): the last writer keeps sourcing data to
          readers until the line is written again *)
  mutable line_busy_until : int;
      (** end of the last owner-sourced transfer of this line: successive
          reads of one dirty line are serviced one at a time (a single
          line has a single set of MSHR/response buffers at its owner),
          which is Figure 6's broadcast storm. Distinct lines pipeline. *)
  mutable sh_n : int;
      (** sharer-set representation, read and written only by the
          functions below *)
  mutable sh0 : int;
  mutable sh1 : int;
  mutable spill : Bitset.t;
}

val tag_invalid : int
val tag_shared : int
val tag_modified : int

val create : home:int -> t
(** An [Invalid] line with no sharers and no owner. *)

val mem_sharer : n:int -> t -> int -> bool
val add_sharer : n:int -> t -> int -> unit
val remove_sharer : n:int -> t -> int -> unit
val clear_sharers : t -> unit
val no_sharers : t -> bool
val n_sharers : t -> int

val next_sharer : t -> int -> int
(** [next_sharer l i] is the smallest sharer [>= i], or [-1] when there
    is none: [let c = ref (next_sharer l 0) in while !c >= 0 do ...;
    c := next_sharer l (!c + 1) done] walks the set in ascending order
    without allocating. *)

val sharers : t -> int list
(** Ascending. *)
