(** Fixed-capacity mutable bitset over small integers (core ids).

    Int-array backed, 32 bits per word: O(1) add/remove/mem with no
    allocation, sized at creation for the capacity it is given (128 cores
    is 4 words, 1024 cores 32). Holds each monitor's ready set of incoming
    channels and the coherence sharer sets that spill: a {!Dir_line}
    keeps up to two sharers inline, and builds a bitset over the core
    count only when a third core shares it. *)

type t

val create : n:int -> t
(** Empty set over [0, n). Raises [Invalid_argument] when [n <= 0]. *)

val capacity : t -> int

val add : t -> int -> unit
val remove : t -> int -> unit

val mem : t -> int -> bool
(** All three raise [Invalid_argument] outside [0, capacity). *)

val clear : t -> unit
val is_empty : t -> bool

val cardinal : t -> int
(** Population count (Kernighan loop per word). *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list
(** Ascending. *)

val next_member : t -> int -> int
(** [next_member t i] is the smallest member [>= i], or [-1] when there is
    none (including [i >= capacity]). Allocation-free; skips empty words
    a word at a time. Raises [Invalid_argument] when [i < 0]. *)

val choose : t -> int
(** Smallest member. Raises [Not_found] when empty. *)

val copy : t -> t
val equal : t -> t -> bool
