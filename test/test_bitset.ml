open Mk_hw
open Test_util

(* Word-boundary ids: 0 and 127 are the ends, 63/64 straddle a word edge
   on any plausible word size (the implementation packs 32 bits/word, so
   31/32 are covered by the qcheck below as well). *)
let edge_ids = [ 0; 63; 64; 127 ]

let test_edges () =
  let s = Bitset.create ~n:128 in
  check_bool "fresh empty" true (Bitset.is_empty s);
  List.iter (fun i -> Bitset.add s i) edge_ids;
  check_int "cardinal" 4 (Bitset.cardinal s);
  List.iter
    (fun i -> check_bool (Printf.sprintf "mem %d" i) true (Bitset.mem s i))
    edge_ids;
  check_bool "mem 1" false (Bitset.mem s 1);
  check_bool "mem 62" false (Bitset.mem s 62);
  check_bool "mem 65" false (Bitset.mem s 65);
  check_bool "mem 126" false (Bitset.mem s 126);
  check_bool "to_list ascending" true (Bitset.to_list s = edge_ids);
  Bitset.remove s 63;
  Bitset.remove s 64;
  check_int "cardinal after remove" 2 (Bitset.cardinal s);
  check_bool "63 gone" false (Bitset.mem s 63);
  check_bool "64 gone" false (Bitset.mem s 64);
  check_bool "0 kept" true (Bitset.mem s 0);
  check_bool "127 kept" true (Bitset.mem s 127)

let test_iter_order () =
  let s = Bitset.create ~n:128 in
  List.iter (fun i -> Bitset.add s i) [ 127; 0; 64; 63 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  check_bool "iter ascending" true (List.rev !seen = edge_ids)

let test_choose () =
  let s = Bitset.create ~n:128 in
  Bitset.add s 127;
  check_int "choose lowest" 127 (Bitset.choose s);
  Bitset.add s 64;
  check_int "choose lower" 64 (Bitset.choose s)

let test_clear_copy_equal () =
  let s = Bitset.create ~n:128 in
  List.iter (fun i -> Bitset.add s i) edge_ids;
  let c = Bitset.copy s in
  check_bool "copy equal" true (Bitset.equal s c);
  Bitset.remove c 127;
  check_bool "copy independent" false (Bitset.equal s c);
  Bitset.clear s;
  check_bool "cleared" true (Bitset.is_empty s);
  check_int "cleared cardinal" 0 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create ~n:128 in
  Bitset.add s 63;
  Bitset.add s 63;
  check_int "no double count" 1 (Bitset.cardinal s);
  Bitset.remove s 0;
  check_int "remove absent is noop" 1 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create ~n:128 in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  check_bool "add 128 rejected" true (raises (fun () -> Bitset.add s 128));
  check_bool "add -1 rejected" true (raises (fun () -> Bitset.add s (-1)));
  check_bool "mem 128 rejected" true (raises (fun () -> ignore (Bitset.mem s 128)))

(* Model check vs a sorted-list reference: same membership, same order. *)
let qcheck_vs_reference =
  qtest "bitset matches sorted-set reference"
    QCheck2.Gen.(list (pair bool (int_bound 127)))
    (fun ops ->
      let s = Bitset.create ~n:128 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      let expect =
        Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
      in
      Bitset.to_list s = expect
      && Bitset.cardinal s = List.length expect
      && Bitset.is_empty s = (expect = []))

let test_next_member () =
  let empty = Bitset.create ~n:128 in
  check_int "empty from 0" (-1) (Bitset.next_member empty 0);
  check_int "empty from 127" (-1) (Bitset.next_member empty 127);
  let s = Bitset.create ~n:130 in
  List.iter (fun i -> Bitset.add s i) [ 31; 32; 63; 64; 129 ];
  check_int "from 0" 31 (Bitset.next_member s 0);
  check_int "at 31" 31 (Bitset.next_member s 31);
  check_int "past 31 crosses the word edge" 32 (Bitset.next_member s 32);
  check_int "past 32" 63 (Bitset.next_member s 33);
  check_int "at 63" 63 (Bitset.next_member s 63);
  check_int "past 63" 64 (Bitset.next_member s 64);
  check_int "past 64 skips an empty word" 129 (Bitset.next_member s 65);
  check_int "last bit" 129 (Bitset.next_member s 129);
  check_int "past capacity" (-1) (Bitset.next_member s 130);
  Bitset.remove s 129;
  check_int "past the last member" (-1) (Bitset.next_member s 65);
  check_bool "negative rejected" true
    (match Bitset.next_member s (-1) with _ -> false | exception Invalid_argument _ -> true)

(* [next_member] vs a linear walk over [mem], from every start index. *)
let qcheck_next_member =
  qtest "next_member matches linear reference"
    QCheck2.Gen.(pair (int_range 1 200) (list (int_bound 199)))
    (fun (n, ids) ->
      let s = Bitset.create ~n in
      List.iter (fun i -> if i < n then Bitset.add s i) ids;
      let rec linear i = if i >= n then -1 else if Bitset.mem s i then i else linear (i + 1) in
      List.for_all (fun i -> Bitset.next_member s i = linear i) (List.init (n + 2) Fun.id)
      && (Bitset.is_empty s || Bitset.choose s = linear 0))

let suite =
  ( "bitset",
    [
      tc "word-boundary ids" test_edges;
      tc "iter ascending" test_iter_order;
      tc "choose" test_choose;
      tc "clear/copy/equal" test_clear_copy_equal;
      tc "idempotent ops" test_add_idempotent;
      tc "bounds checks" test_bounds;
      tc "next_member" test_next_member;
      qcheck_vs_reference;
      qcheck_next_member;
    ] )
