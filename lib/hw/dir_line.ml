type t = {
  mutable tag : int;
  mutable excl : int;
  mutable home : int;
  mutable owner : int;
  mutable line_busy_until : int;
  (* Up to two sharers inline, ascending in [sh0] < [sh1] and counted by
     [sh_n], or [sh_n = spilled] with the members in [spill]. *)
  mutable sh_n : int;
  mutable sh0 : int;
  mutable sh1 : int;
  mutable spill : Bitset.t;
}

let tag_invalid = 0
let tag_shared = 1
let tag_modified = 2
let spilled = -1

(* Stands in for the spill bitset until a line first spills. *)
let no_spill = Bitset.create ~n:1

let create ~home =
  {
    tag = tag_invalid;
    excl = -1;
    home;
    owner = -1;
    line_busy_until = 0;
    sh_n = 0;
    sh0 = 0;
    sh1 = 0;
    spill = no_spill;
  }

let check n c =
  if c < 0 || c >= n then
    invalid_arg (Printf.sprintf "Dir_line: sharer %d out of [0, %d)" c n)

let mem_sharer ~n l c =
  check n c;
  let k = l.sh_n in
  if k = spilled then Bitset.mem l.spill c
  else (k >= 1 && l.sh0 = c) || (k = 2 && l.sh1 = c)

let add_sharer ~n l c =
  check n c;
  let k = l.sh_n in
  if k = spilled then Bitset.add l.spill c
  else if k = 0 then begin
    l.sh0 <- c;
    l.sh_n <- 1
  end
  else if k = 1 then begin
    if c > l.sh0 then begin
      l.sh1 <- c;
      l.sh_n <- 2
    end
    else if c < l.sh0 then begin
      l.sh1 <- l.sh0;
      l.sh0 <- c;
      l.sh_n <- 2
    end
  end
  else if c <> l.sh0 && c <> l.sh1 then begin
    if l.spill == no_spill then l.spill <- Bitset.create ~n else Bitset.clear l.spill;
    Bitset.add l.spill l.sh0;
    Bitset.add l.spill l.sh1;
    Bitset.add l.spill c;
    l.sh_n <- spilled
  end

let remove_sharer ~n l c =
  check n c;
  let k = l.sh_n in
  if k = spilled then Bitset.remove l.spill c
  else if k >= 1 && l.sh0 = c then begin
    l.sh0 <- l.sh1;
    l.sh_n <- k - 1
  end
  else if k = 2 && l.sh1 = c then l.sh_n <- 1

let clear_sharers l = l.sh_n <- 0
let no_sharers l = if l.sh_n = spilled then Bitset.is_empty l.spill else l.sh_n = 0
let n_sharers l = if l.sh_n = spilled then Bitset.cardinal l.spill else l.sh_n

let next_sharer l i =
  let k = l.sh_n in
  if k = spilled then Bitset.next_member l.spill i
  else if i < 0 then
    invalid_arg (Printf.sprintf "Dir_line.next_sharer: negative index %d" i)
  else if k >= 1 && l.sh0 >= i then l.sh0
  else if k = 2 && l.sh1 >= i then l.sh1
  else -1

let sharers l =
  let rec from i = match next_sharer l i with -1 -> [] | c -> c :: from (c + 1) in
  from 0
