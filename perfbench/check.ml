(* Output checks. Every unit's simulated results are reduced to a digest
   — named fields, printed exactly — and compared field by field against
   a reference run of the same unit; invariant violations arrive as
   messages from the workload. A unit with any mismatch, violation or
   exception counts as failed, and each problem is printed with the
   workload, unit and field. *)

type digest = (string * string) list

let int = string_of_int

(* Round-trip exact, so equal digests mean equal floats. *)
let float = Printf.sprintf "%h"

(* Field-by-field differences: (field, reference value, unit value). *)
let diff ~reference got =
  let get d k = Option.value ~default:"<missing>" (List.assoc_opt k d) in
  let keys = List.sort_uniq compare (List.map fst reference @ List.map fst got) in
  List.filter_map
    (fun k ->
      let a = get reference k and b = get got k in
      if a = b then None else Some (k, a, b))
    keys

let mismatches ~against ~reference got =
  List.map
    (fun (k, a, b) -> Printf.sprintf "field %s: %s %s, unit %s" k against a b)
    (diff ~reference got)

(* The committed expected digests: one "KEY FIELD VALUE" line per field,
   KEY being the unit key (a run prints its units' digests in the same
   form, prefixed with "digest"). Blank lines and lines starting with '#'
   are skipped. Returns unit key -> digest, fields in file order. *)
let load_expected file =
  let tbl = Hashtbl.create 8 in
  let ic = open_in file in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> ()
    | l ->
      (match String.split_on_char ' ' (String.trim l) with
      | [ "" ] -> ()
      | w :: _ when w.[0] = '#' -> ()
      | [ key; field; value ] ->
        let d = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (d @ [ (field, value) ])
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" file l));
      go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go;
  tbl

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let failed_frac t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

(* Count one unit; print its problems unless [quiet]. *)
let record ?(quiet = false) t ~workload ~unit problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    if not quiet then
      List.iter
        (fun p -> Printf.printf "FAILED workload=%s unit=%s %s\n%!" workload unit p)
        problems
  end

(* Corrupt one field of a real unit's digest and push it through the same
   comparison and tally a run uses: the failure must show in
   [failed_frac]. Then check that the quantile helper only ever names a
   percentile with at least ten samples beyond it, and the highest one
   that has. Returns the list of self-test failures. *)
let selftest ~workload reference =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match reference with
  | [] -> fail "empty digest for %s" workload
  | (k, v) :: rest ->
    let corrupted = (k, v ^ "#") :: rest in
    let t = tally () in
    record ~quiet:true t ~workload ~unit:"selftest" (mismatches ~against:"reference" ~reference corrupted);
    record ~quiet:true t ~workload ~unit:"selftest-clean" (mismatches ~against:"reference" ~reference reference);
    if t.failed <> 1 || failed_frac t <> 0.5 then
      fail "corrupted field %s not counted in failed_frac (%d of %d failed)" k t.failed t.attempted);
  List.iter
    (fun n ->
      match Probe.tail_level ~n with
      | None -> if n >= 20 then fail "no percentile reported for %d samples" n
      | Some q ->
        if Probe.beyond ~n q < 10 then fail "%s of %d samples has <10 beyond" (Probe.percentile_name q) n;
        List.iter
          (fun q' ->
            if q' > q && Probe.beyond ~n q' >= 10 then
              fail "%s of %d samples skipped for lower %s" (Probe.percentile_name q') n
                (Probe.percentile_name q))
          Probe.tail_levels)
    [ 1; 19; 20; 21; 99; 100; 109; 110; 999; 1000; 1010; 10_000; 123_456 ];
  List.rev !errs
