(* Store-layer tests: the binary segment format (round-trips, direct
   column-cache seeding, corruption -> typed errors), the partition
   catalog (hit/miss keying, zero rebuild on hit), and incremental
   maintenance (local re-splits, delete compaction, agreement with
   from-scratch repartitioning). *)

module V = Relalg.Value
module S = Relalg.Schema
module R = Relalg.Relation
module P = Pkg.Partition

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_dir = Tmp_root.make "store"

let tmp_path name = Filename.concat tmp_dir name

let rel_equal a b =
  S.equal (R.schema a) (R.schema b)
  && R.cardinality a = R.cardinality b
  && begin
       let ok = ref true in
       for i = 0 to R.cardinality a - 1 do
         if R.row a i <> R.row b i then ok := false
       done;
       !ok
     end

(* ------------------------------------------------------------------ *)
(* Random relations for the round-trip properties                     *)
(* ------------------------------------------------------------------ *)

(* Strings cover the CSV corner cases: quotes, commas, newlines,
   leading/trailing spaces, empties. *)
let tricky_strings =
  [|
    "plain"; ""; "with,comma"; "with \"quotes\""; "multi\nline"; " padded ";
    "comma,\"and\nquote\""; "0.5"; "NULL";
  |]

let gen_relation =
  QCheck.Gen.(
    pair (int_range 0 120) (int_range 0 9999) >|= fun (n, seed) ->
    let rng = Datagen.Prng.create (seed + 31) in
    let schema =
      S.make
        [
          { S.name = "i"; ty = V.TInt };
          { S.name = "f"; ty = V.TFloat };
          { S.name = "s"; ty = V.TStr };
          { S.name = "b"; ty = V.TBool };
        ]
    in
    let cell_null () = Datagen.Prng.uniform rng 0. 1. < 0.15 in
    R.of_rows schema
      (List.init n (fun _ ->
           [|
             (if cell_null () then V.Null
              else V.Int (int_of_float (Datagen.Prng.uniform rng (-1e6) 1e6)));
             (if cell_null () then V.Null
              else V.Float (Datagen.Prng.uniform rng (-1e9) 1e9));
             (if cell_null () then V.Null
              else
                V.Str
                  tricky_strings.(int_of_float
                                    (Datagen.Prng.uniform rng 0.
                                       (float_of_int
                                          (Array.length tricky_strings)))
                                  mod Array.length tricky_strings));
             (if cell_null () then V.Null
              else V.Bool (Datagen.Prng.uniform rng 0. 1. < 0.5));
           |])))

(* Segment round-trip: bit-exact relation recovery, via both the
   string image and the file path. *)
let segment_roundtrip_prop =
  QCheck.Test.make ~count:60 ~name:"segment round-trip is exact"
    (QCheck.make gen_relation)
    (fun rel ->
      let image = Store.Segment.to_string rel in
      let back = Store.Segment.of_string image in
      let path = tmp_path "roundtrip.seg" in
      Store.Segment.write path rel;
      let from_file = Store.Segment.read path in
      rel_equal rel back && rel_equal rel from_file
      && Store.Segment.fingerprint rel = Store.Segment.fingerprint back)

(* CSV -> binary -> CSV: what survives a CSV round-trip survives a
   segment round-trip of the same data unchanged. *)
let csv_segment_roundtrip_prop =
  QCheck.Test.make ~count:60 ~name:"csv and segment round-trips agree"
    (QCheck.make gen_relation)
    (fun rel ->
      let via_csv = Relalg.Csv.of_string (Relalg.Csv.to_string rel) in
      let via_seg = Store.Segment.of_string (Store.Segment.to_string rel) in
      (* CSV cannot represent every float bit pattern textually, but it
         does round-trip the values it prints; compare via a second CSV
         pass so both sides saw the same serialization. *)
      let seg_then_csv = Relalg.Csv.of_string (Relalg.Csv.to_string via_seg) in
      rel_equal via_csv seg_then_csv)

(* The numeric columns a loaded segment carries are pre-seeded into the
   relation's column cache and match a fresh extraction. *)
let test_segment_seeds_columns () =
  let rel = Datagen.Galaxy.generate ~seed:5 500 in
  let back = Store.Segment.of_string (Store.Segment.to_string rel) in
  List.iter
    (fun name ->
      let a = R.column_float rel name in
      let b = R.column_float back name in
      checkb (name ^ " column matches") true (a = b);
      (* cached access agrees with the fresh extraction *)
      let c = R.column_exn back name in
      checki (name ^ " cached length") (Array.length a)
        (Array.length (Relalg.Column.data c)))
    [ "ra"; "dec"; "redshift"; "petro_rad" ]

let test_csv_error_still_typed () =
  (* the store does not swallow the CSV layer's typed errors *)
  match Relalg.Csv.of_string "a:int\n1\nnot-an-int\n" with
  | exception Relalg.Csv.Error (3, _) -> ()
  | exception e ->
    Alcotest.failf "expected Csv.Error at line 3, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "malformed CSV accepted"

(* ------------------------------------------------------------------ *)
(* Corruption -> typed errors, never a backtrace                      *)
(* ------------------------------------------------------------------ *)

let expect_store_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: corrupt input accepted" name
  | exception Store.Segment.Error _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Segment.Error, got %s" name
      (Printexc.to_string e)

let test_corrupt_segment () =
  let rel = Datagen.Galaxy.generate ~seed:3 200 in
  let image = Store.Segment.to_string rel in
  let len = String.length image in
  (* truncations at every region: header, body, checksum *)
  List.iter
    (fun keep ->
      expect_store_error
        (Printf.sprintf "truncated to %d bytes" keep)
        (fun () -> Store.Segment.of_string (String.sub image 0 keep)))
    [ 0; 4; 12; 19; len / 2; len - 1 ];
  (* single flipped byte anywhere breaks the checksum *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string image in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      expect_store_error
        (Printf.sprintf "flipped byte at %d" pos)
        (fun () -> Store.Segment.of_string (Bytes.to_string b)))
    [ 0; 9; 30; len / 2; len - 3 ];
  (* version and magic mismatches are reported before the checksum *)
  (match
     Store.Segment.of_string
       ("WRONGMAG" ^ String.sub image 8 (String.length image - 8))
   with
  | exception Store.Segment.Error msg ->
    checkb "magic named in error" true
      (String.length msg >= 9 && String.sub msg 0 9 = "bad magic")
  | _ -> Alcotest.fail "bad magic accepted");
  let b = Bytes.of_string image in
  Bytes.set b 8 '\255';
  match Store.Segment.of_string (Bytes.to_string b) with
  | exception Store.Segment.Error msg ->
    checkb "version named in error" true
      (String.length msg >= 11 && String.sub msg 0 11 = "unsupported")
  | _ -> Alcotest.fail "bad version accepted"

(* A re-sealed segment passes the checksum, so a planted count reaches
   the body decoder: it must be refused as corrupt before anything is
   allocated for it. [offset] is the count's position in the body (the
   image minus its 12-byte header and 8-byte checksum). *)
let check_planted_count what rel ~offset counts =
  let image = Store.Segment.to_string rel in
  let body = Bytes.of_string (String.sub image 12 (String.length image - 20)) in
  List.iter
    (fun count ->
      Bytes.set_int32_le body offset (Int32.of_int count);
      let buf = Buffer.create (Bytes.length body) in
      Buffer.add_bytes buf body;
      let planted =
        Store.Wire.seal ~magic:Store.Segment.magic
          ~version:Store.Segment.version buf
      in
      let before = Gc.allocated_bytes () in
      expect_store_error
        (Printf.sprintf "planted %s %d" what count)
        (fun () -> Store.Segment.of_string planted);
      let allocated = Gc.allocated_bytes () -. before in
      checkb
        (Printf.sprintf "%s %d: %.0f bytes allocated, under 1 MiB" what count
           allocated)
        true
        (allocated < 1048576.))
    counts

let test_planted_counts () =
  let big = [ 1_000_000; 0x7fff_ffff ] in
  (* the row count is the body's second i32 *)
  check_planted_count "row count" (Datagen.Galaxy.generate ~seed:3 200)
    ~offset:4 big;
  (* one string column without NULLs: n_attrs, n_rows, the name "s"
     (length + byte), its type tag and the null-map flag come before
     the dictionary size *)
  let words =
    R.of_rows
      (S.make [ { S.name = "s"; ty = V.TStr } ])
      (List.init 50 (fun i -> [| V.Str (string_of_int (i mod 7)) |]))
  in
  check_planted_count "dictionary size" words ~offset:15 big

let test_corrupt_catalog_entry () =
  let dir = tmp_path "corrupt-cat" in
  let cat = Store.Catalog.open_dir dir in
  let rel = Datagen.Galaxy.generate ~seed:4 300 in
  let part = P.create ~tau:50 ~attrs:[ "ra"; "dec" ] rel in
  let key =
    {
      Store.Catalog.fingerprint = Store.Segment.fingerprint rel;
      attrs = [ "ra"; "dec" ];
      tau = 50;
      radius = P.No_radius;
      level = None;
    }
  in
  Store.Catalog.store cat key part;
  let path =
    Filename.concat (Filename.concat dir "partitions")
      (Store.Catalog.key_id key ^ ".part")
  in
  (* flip one byte in the stored entry *)
  let ic = open_in_bin path in
  let image = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string image in
  Bytes.set b (Bytes.length b / 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  expect_store_error "corrupt catalog entry" (fun () ->
      Store.Catalog.find cat key ~rows:(R.cardinality rel));
  (* listing skips the corrupt entry instead of failing *)
  checki "corrupt entry skipped in listing" 0
    (List.length (Store.Catalog.entries cat))

(* The same for a re-sealed catalog entry of a 300-row table: a planted
   row or group count is refused typed before anything is allocated for
   it, and so is an entry looked up for a table of another
   cardinality. *)
let test_planted_catalog_counts () =
  let dir = tmp_path "planted-cat" in
  let cat = Store.Catalog.open_dir dir in
  let rel = Datagen.Galaxy.generate ~seed:4 300 in
  let attrs = [ "ra" ] in
  let key =
    {
      Store.Catalog.fingerprint = Store.Segment.fingerprint rel;
      attrs;
      tau = 50;
      radius = P.No_radius;
      level = None;
    }
  in
  Store.Catalog.store cat key (P.create ~tau:50 ~attrs rel);
  let path =
    Filename.concat (Filename.concat dir "partitions")
      (Store.Catalog.key_id key ^ ".part")
  in
  let image = In_channel.with_open_bin path In_channel.input_all in
  let magic = String.sub image 0 8 in
  let version = Option.get (Store.Wire.peek_version image) in
  let body = String.sub image 12 (String.length image - 20) in
  (* the body: fingerprint, attrs, tau, radius and level tags, then the
     row count and the group count *)
  let n_rows_at =
    4 + String.length key.fingerprint + 4
    + List.fold_left (fun n a -> n + 4 + String.length a) 0 attrs
    + 8 + 1 + 1
  in
  List.iter
    (fun (what, offset, counts) ->
      List.iter
        (fun count ->
          let planted = Bytes.of_string body in
          Bytes.set_int32_le planted offset (Int32.of_int count);
          Store.Wire.write_file path ~magic ~version
            (Buffer.of_seq (Bytes.to_seq planted));
          let before = Gc.allocated_bytes () in
          expect_store_error
            (Printf.sprintf "planted %s %d" what count)
            (fun () -> Store.Catalog.find cat key ~rows:300);
          let allocated = Gc.allocated_bytes () -. before in
          checkb
            (Printf.sprintf "%s %d: %.0f bytes allocated, under 1 MiB" what
               count allocated)
            true (allocated < 1048576.))
        counts)
    [
      ("row count", n_rows_at, [ 301; 1_000_000; 0x7fff_ffff ]);
      ("group count", n_rows_at + 4, [ 1_000_000; 0x7fff_ffff ]);
    ];
  Store.Wire.write_file path ~magic ~version (Buffer.of_seq (String.to_seq body));
  checkb "the entry as stored loads" true
    (Store.Catalog.find cat key ~rows:300 <> None);
  expect_store_error "entry for another cardinality" (fun () ->
      Store.Catalog.find cat key ~rows:301)

(* Injected store faults surface as the same typed error. *)
let with_faults spec f =
  (match Pkg.Faults.parse spec with
  | Ok s -> Pkg.Faults.install s
  | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec msg);
  Fun.protect ~finally:Pkg.Faults.clear f

let test_store_faults_typed () =
  let rel = Datagen.Galaxy.generate ~seed:6 100 in
  let image = Store.Segment.to_string rel in
  with_faults "store=read:fail" (fun () ->
      expect_store_error "injected read fault" (fun () ->
          Store.Segment.of_string image));
  with_faults "store=checksum:fail" (fun () ->
      match Store.Segment.of_string image with
      | exception Store.Segment.Error msg ->
        checkb "fault flows through checksum verification" true
          (String.length msg >= 8 && String.sub msg 0 8 = "checksum")
      | _ -> Alcotest.fail "checksum fault ignored");
  (* cleared faults leave the path healthy *)
  checkb "clean read after clearing faults" true
    (rel_equal rel (Store.Segment.of_string image))

(* ------------------------------------------------------------------ *)
(* Partition.of_groups invariants (property)                          *)
(* ------------------------------------------------------------------ *)

let of_groups_invariants_prop =
  QCheck.Test.make ~count:60 ~name:"of_groups invariants on random assignments"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 200) (int_range 1 8) (int_range 0 9999)))
    (fun (n, k, seed) ->
      let rng = Datagen.Prng.create (seed + 7) in
      let schema =
        S.make
          [
            { S.name = "x"; ty = V.TFloat };
            { S.name = "y"; ty = V.TFloat };
            { S.name = "tag"; ty = V.TStr };
          ]
      in
      let rel =
        R.of_rows schema
          (List.init n (fun _ ->
               [|
                 V.Float (Datagen.Prng.uniform rng (-50.) 50.);
                 V.Float (Datagen.Prng.uniform rng (-50.) 50.);
                 V.Str "t";
               |]))
      in
      (* random assignment of every row to one of k buckets *)
      let buckets = Array.make k [] in
      for row = n - 1 downto 0 do
        let b = int_of_float (Datagen.Prng.uniform rng 0. (float_of_int k)) in
        let b = min b (k - 1) in
        buckets.(b) <- row :: buckets.(b)
      done;
      let member_sets =
        Array.to_list buckets
        |> List.filter (fun l -> l <> [])
        |> List.map Array.of_list
      in
      QCheck.assume (member_sets <> []);
      let attrs = [ "x"; "y" ] in
      let p = P.of_groups ~attrs rel member_sets in
      let cols = P.numeric_columns rel attrs in
      (* every row in exactly one group, and gid_of_row agrees *)
      let covered = Array.make n 0 in
      Array.iteri
        (fun gid (g : P.group) ->
          Array.iter
            (fun row ->
              covered.(row) <- covered.(row) + 1;
              if p.P.gid_of_row.(row) <> gid then
                QCheck.Test.fail_reportf "gid_of_row(%d)=%d, member of %d" row
                  p.P.gid_of_row.(row) gid)
            g.P.members)
        p.P.groups;
      Array.iteri
        (fun row c ->
          if c <> 1 then
            QCheck.Test.fail_reportf "row %d covered %d times" row c)
        covered;
      (* reps row j holds group j's centroid on the partitioning attrs,
         and centroid/radius match a recomputation *)
      Array.iteri
        (fun gid (g : P.group) ->
          let centroid, radius = P.centroid_radius cols g.P.members in
          if centroid <> g.P.centroid then
            QCheck.Test.fail_reportf "group %d centroid mismatch" gid;
          if Float.abs (radius -. g.P.radius) > 1e-9 then
            QCheck.Test.fail_reportf "group %d radius mismatch" gid;
          let rep = R.row p.P.reps gid in
          List.iteri
            (fun dim attr ->
              let i = S.index_of schema attr in
              match V.to_float_opt (Relalg.Tuple.get rep i) with
              | Some v ->
                if Float.abs (v -. centroid.(dim)) > 1e-9 then
                  QCheck.Test.fail_reportf
                    "group %d rep.%s=%g but centroid=%g" gid attr v
                    centroid.(dim)
              | None ->
                (* NULL rep cell only when every member is NULL there;
                   impossible here — the generator never emits NULLs *)
                QCheck.Test.fail_reportf "group %d rep.%s is NULL" gid attr)
            attrs)
        p.P.groups;
      P.check p rel = Ok ())

(* ------------------------------------------------------------------ *)
(* Catalog                                                            *)
(* ------------------------------------------------------------------ *)

let test_catalog_hit_no_rebuild () =
  let dir = tmp_path "cat-hit" in
  let cat = Store.Catalog.open_dir dir in
  let rel = Datagen.Galaxy.generate ~seed:9 800 in
  let attrs = [ "ra"; "redshift" ] in
  let tau = 100 in
  let key =
    {
      Store.Catalog.fingerprint = Store.Segment.fingerprint rel;
      attrs;
      tau;
      radius = P.No_radius;
      level = None;
    }
  in
  let rows = R.cardinality rel in
  checkb "cold miss" true (Store.Catalog.find cat key ~rows = None);
  let built = ref 0 in
  let p1, s1 =
    Store.Catalog.lookup_or_build cat key ~rows ~build:(fun () ->
        incr built;
        P.create ~tau ~attrs rel)
  in
  checkb "first call builds" true (s1 = `Built && !built = 1);
  (* warm path: the build thunk must never run *)
  let p2, s2 =
    Store.Catalog.lookup_or_build cat key ~rows ~build:(fun () ->
        Alcotest.fail "catalog hit must not rebuild")
  in
  checkb "second call hits" true (s2 = `Hit);
  checkb "identical assignment" true
    (p2.P.gid_of_row = p1.P.gid_of_row);
  checkb "identical groups" true
    (Array.for_all2
       (fun (a : P.group) (b : P.group) ->
         a.P.members = b.P.members && a.P.centroid = b.P.centroid
         && a.P.radius = b.P.radius)
       p1.P.groups p2.P.groups);
  checkb "reps carried over" true (rel_equal p1.P.reps p2.P.reps);
  (match P.check ~tau p2 rel with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* a different tau is a different key -> miss, not a wrong hit *)
  let other = { key with Store.Catalog.tau = tau + 1 } in
  checkb "different tau misses" true (Store.Catalog.find cat other ~rows = None);
  let other = { key with Store.Catalog.fingerprint = "0000000000000000" } in
  checkb "different fingerprint misses" true
    (Store.Catalog.find cat other ~rows = None);
  (* the entry is listed with its key *)
  match Store.Catalog.entries cat with
  | [ e ] ->
    checks "entry id" (Store.Catalog.key_id key) e.Store.Catalog.id;
    checki "entry groups" (P.num_groups p1) e.Store.Catalog.groups;
    checki "entry rows" (R.cardinality rel) e.Store.Catalog.rows;
    checkb "entry bytes positive" true (e.Store.Catalog.bytes > 0)
  | es -> Alcotest.failf "expected 1 catalog entry, got %d" (List.length es)

let test_catalog_table_cache () =
  let dir = tmp_path "cat-table" in
  let cat = Store.Catalog.open_dir dir in
  let rel = Datagen.Galaxy.generate ~seed:10 400 in
  let csv = tmp_path "table.csv" in
  Relalg.Csv.write csv rel;
  checkb "not cached yet" false (Store.Catalog.table_cached cat csv);
  let r1, fp1 = Store.Catalog.load_table cat csv in
  checkb "cached after first load" true (Store.Catalog.table_cached cat csv);
  let r2, fp2 = Store.Catalog.load_table cat csv in
  checks "stable fingerprint" fp1 fp2;
  checkb "csv and segment loads agree" true (rel_equal r1 r2);
  (* .seg paths load directly *)
  let seg = tmp_path "direct.seg" in
  Store.Segment.write seg rel;
  let r3, _ = Store.Catalog.load_table cat seg in
  checkb "direct segment load" true (rel_equal rel r3)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                            *)
(* ------------------------------------------------------------------ *)

let cluster_schema =
  S.make [ { S.name = "x"; ty = V.TFloat }; { S.name = "y"; ty = V.TFloat } ]

(* Two tight, well-separated clusters: appends aimed at one of them
   cannot leak into the other. *)
let cluster_rel ~per_cluster =
  let rng = Datagen.Prng.create 41 in
  let row cx cy =
    [|
      V.Float (cx +. Datagen.Prng.uniform rng (-1.) 1.);
      V.Float (cy +. Datagen.Prng.uniform rng (-1.) 1.);
    |]
  in
  R.of_rows cluster_schema
    (List.init per_cluster (fun _ -> row 0. 0.)
    @ List.init per_cluster (fun _ -> row 100. 100.))

let test_append_local_resplit () =
  let per = 40 in
  let tau = 50 in
  let rel = cluster_rel ~per_cluster:per in
  let p = P.create ~tau ~attrs:[ "x"; "y" ] rel in
  checki "one group per cluster" 2 (P.num_groups p);
  (* remember the far cluster's group physically *)
  let far_gid = p.P.gid_of_row.(2 * per - 1) in
  let far_group = p.P.groups.(far_gid) in
  let near_gid = 1 - far_gid in
  (* a batch landing inside the near cluster, overflowing it past tau *)
  let rng = Datagen.Prng.create 43 in
  let extra =
    R.of_rows cluster_schema
      (List.init (tau - per + 5) (fun _ ->
           [|
             V.Float (Datagen.Prng.uniform rng (-1.) 1.);
             V.Float (Datagen.Prng.uniform rng (-1.) 1.);
           |]))
  in
  let rel' = Store.Recovery.apply rel (Store.Wal.Append extra) in
  let p', stats = Store.Maintain.append ~tau ~radius:P.No_radius p rel' in
  checki "rows appended" (R.cardinality rel)
    (R.cardinality rel' - R.cardinality extra);
  checki "one group touched" 1 stats.Store.Maintain.groups_touched;
  checki "one group re-split" 1 stats.Store.Maintain.groups_resplit;
  checkb "group count grew" true
    (stats.Store.Maintain.groups_after > stats.Store.Maintain.groups_before);
  (* the untouched group's member array is carried over physically *)
  checkb "untouched group shared" true
    (Array.exists (fun (g : P.group) -> g.P.members == far_group.P.members)
       p'.P.groups);
  (* near-cluster rows stayed in near-cluster groups *)
  let near_members = ref 0 in
  Array.iter
    (fun (g : P.group) ->
      if g.P.members != far_group.P.members then
        near_members := !near_members + Array.length g.P.members)
    p'.P.groups;
  checki "near cluster holds the batch" (per + (tau - per + 5)) !near_members;
  ignore near_gid;
  match P.check ~tau p' rel' with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("maintained partition invalid: " ^ m)

let test_append_empty_and_mismatch () =
  let rel = cluster_rel ~per_cluster:10 in
  let p = P.create ~tau:15 ~attrs:[ "x"; "y" ] rel in
  let empty = R.of_rows cluster_schema [] in
  let rel' = Store.Recovery.apply rel (Store.Wal.Append empty) in
  let p', stats = Store.Maintain.append ~tau:15 ~radius:P.No_radius p rel' in
  checkb "no-op append" true
    (rel' == rel && p' == p && stats.Store.Maintain.groups_touched = 0);
  let other = R.of_rows (S.make [ { S.name = "z"; ty = V.TFloat } ]) [] in
  checkb "schema mismatch rejected" true
    (try
       ignore (Store.Recovery.apply rel (Store.Wal.Append other));
       false
     with Store.Wire.Error _ -> true);
  checkb "a table short of the partitioning rejected" true
    (try
       ignore (Store.Maintain.append ~tau:15 ~radius:P.No_radius p empty);
       false
     with Invalid_argument _ -> true)

let test_delete_shrinks_in_place () =
  let per = 40 in
  let tau = 50 in
  let rel = cluster_rel ~per_cluster:per in
  let p = P.create ~tau ~attrs:[ "x"; "y" ] rel in
  let far_gid = p.P.gid_of_row.(2 * per - 1) in
  (* delete a third of the near cluster (row ids 0..per-1), with a
     duplicate id to exercise dedup *)
  let dead = Array.init (per / 3) (fun i -> 3 * i) in
  let dead = Array.append dead [| 0 |] in
  let rel' = Store.Recovery.apply rel (Store.Wal.Delete (Array.to_list dead)) in
  let p', stats = Store.Maintain.delete p rel' dead in
  checki "rows deleted" (per / 3) stats.Store.Maintain.rows_deleted;
  checki "cardinality shrank" (2 * per - per / 3) (R.cardinality rel');
  checki "only the near group touched" 1 stats.Store.Maintain.groups_touched;
  checki "no re-split on delete" 0 stats.Store.Maintain.groups_resplit;
  checki "group count stable" (P.num_groups p) (P.num_groups p');
  (* far group kept its geometry *)
  let far' =
    p'.P.groups.(p'.P.gid_of_row.(R.cardinality rel' - 1))
  in
  checkb "far centroid unchanged" true
    (far'.P.centroid = p.P.groups.(far_gid).P.centroid
    && far'.P.radius = p.P.groups.(far_gid).P.radius);
  (match P.check ~tau p' rel' with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("partition invalid after delete: " ^ m));
  (* deleting everything yields an empty, valid partitioning *)
  let all = Array.init (R.cardinality rel') (fun i -> i) in
  let rel'' =
    Store.Recovery.apply rel' (Store.Wal.Delete (Array.to_list all))
  in
  let p'', _ = Store.Maintain.delete p' rel'' all in
  checki "empty relation" 0 (R.cardinality rel'');
  checki "no groups left" 0 (P.num_groups p'')

(* A maintained catalog answers like a from-scratch repartition: same
   feasibility, objective within the approximation regime. *)
let test_maintained_matches_scratch () =
  let n = 1200 in
  let rel = Datagen.Galaxy.generate ~seed:12 n in
  let d = List.hd (Datagen.Workload.galaxy_queries rel) in
  let attrs = d.Datagen.Workload.attrs in
  let tau = max 1 (n / 10) in
  let p = P.create ~tau ~attrs rel in
  let extra =
    (* fresh rows from the same distribution *)
    Datagen.Galaxy.generate ~seed:13 (n / 4)
  in
  let rel' = Store.Recovery.apply rel (Store.Wal.Append extra) in
  let p', _ = Store.Maintain.append ~tau ~radius:P.No_radius p rel' in
  (match P.check ~tau p' rel' with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let scratch = P.create ~tau ~attrs rel' in
  let spec = Datagen.Workload.compile rel' d in
  let options =
    {
      Pkg.Sketch_refine.default_options with
      limits =
        { Ilp.Branch_bound.default_limits with max_seconds = 20. };
    }
  in
  let run part = Pkg.Sketch_refine.run ~options spec rel' part in
  let rm = run p' and rs = run scratch in
  let feasible (r : Pkg.Eval.report) =
    match r.Pkg.Eval.status with
    | Pkg.Eval.Optimal | Pkg.Eval.Feasible _ -> true
    | _ -> false
  in
  checkb "maintained partition solves" true (feasible rm);
  checkb "scratch partition solves" true (feasible rs);
  match rm.Pkg.Eval.objective, rs.Pkg.Eval.objective with
  | Some om, Some os ->
    (* same approximation regime, not bit equality: both are
       SketchRefine answers over valid partitionings of the same data *)
    let lo, hi = (min om os, max om os) in
    checkb "objectives within 2x" true
      (hi <= 2. *. Float.abs lo +. 1e-9 || Float.abs (hi -. lo) < 1e-6)
  | _ -> Alcotest.fail "missing objective"

(* After Maintain.append, a *fresh* catalog handle on the same
   directory (a cold process) must serve the maintained partitioning
   and the appended table bytes — nothing lives only in the memory of
   the process that did the append. *)
let test_append_survives_cold_reload () =
  let dir = tmp_path "cold-reload" in
  let rel = cluster_rel ~per_cluster:60 in
  let tau = 40 in
  let attrs = [ "x"; "y" ] in
  let key fp =
    { Store.Catalog.fingerprint = fp; attrs; tau; radius = P.No_radius;
      level = None }
  in
  let cat = Store.Catalog.open_dir dir in
  let p = P.create ~tau ~attrs rel in
  Store.Catalog.store cat (key (Store.Segment.fingerprint rel)) p;
  let extra =
    let rng = Datagen.Prng.create 47 in
    R.of_rows cluster_schema
      (List.init 7 (fun _ ->
           [|
             V.Float (Datagen.Prng.uniform rng (-1.) 1.);
             V.Float (Datagen.Prng.uniform rng (-1.) 1.);
           |]))
  in
  let rel' = Store.Recovery.apply rel (Store.Wal.Append extra) in
  let p', _ = Store.Maintain.append ~tau ~radius:P.No_radius p rel' in
  let fp' = Store.Segment.fingerprint rel' in
  Store.Catalog.store cat (key fp') p';
  Store.Segment.write (Filename.concat dir "table.seg") rel';
  (* cold handle: no shared memory with [cat] *)
  let cold = Store.Catalog.open_dir dir in
  let reloaded, _raw_fp =
    Store.Catalog.load_table cold (Filename.concat dir "table.seg")
  in
  checkb "table bytes survive reload" true (rel_equal rel' reloaded);
  checks "fingerprint stable across processes" fp'
    (Store.Segment.fingerprint reloaded);
  (match Store.Catalog.find cold (key fp') ~rows:(R.cardinality rel') with
  | None -> Alcotest.fail "maintained partitioning missing after reload"
  | Some q ->
    checkb "same assignment" true (q.P.gid_of_row = p'.P.gid_of_row);
    checkb "same reps" true (rel_equal q.P.reps p'.P.reps);
    (match P.check ~tau q reloaded with
    | Ok () -> ()
    | Error m -> Alcotest.fail m));
  (* the pre-append entry is still there, under the old fingerprint *)
  checkb "old entry intact" true
    (Store.Catalog.find cold (key (Store.Segment.fingerprint rel))
       ~rows:(R.cardinality rel)
    <> None)

(* Publishes go through tempfile+fsync+rename: a finished store leaves
   no temp droppings, and leftovers from a crashed writer are swept on
   the next open, never loaded. *)
let test_catalog_sweeps_stale_tmp () =
  let dir = tmp_path "cat-sweep" in
  let cat = Store.Catalog.open_dir dir in
  let rel = Datagen.Galaxy.generate ~seed:12 300 in
  let key =
    {
      Store.Catalog.fingerprint = Store.Segment.fingerprint rel;
      attrs = [ "ra" ];
      tau = 60;
      radius = P.No_radius;
      level = None;
    }
  in
  Store.Catalog.store cat key (P.create ~tau:60 ~attrs:[ "ra" ] rel);
  let no_tmp sub =
    Sys.readdir (Filename.concat dir sub)
    |> Array.for_all (fun f ->
           Filename.extension f <> ".tmp"
           && Filename.extension (Filename.remove_extension f) <> ".tmp")
  in
  checkb "no temp droppings in partitions/" true (no_tmp "partitions");
  checkb "no temp droppings in tables/" true (no_tmp "tables");
  (* plant crashed-writer leftovers, both tmp-name shapes *)
  let plant sub name =
    let path = Filename.concat (Filename.concat dir sub) name in
    let oc = open_out path in
    output_string oc "half-written garbage";
    close_out oc;
    path
  in
  let stale =
    [
      plant "partitions" "deadbeef.part.tmp.123";
      plant "partitions" "cafe.part.tmp";
      plant "tables" "0123.seg.tmp.9";
    ]
  in
  let cold = Store.Catalog.open_dir dir in
  List.iter
    (fun p -> checkb ("swept " ^ Filename.basename p) false (Sys.file_exists p))
    stale;
  (* and the real entry still loads *)
  checkb "entry survives the sweep" true
    (Store.Catalog.find cold key ~rows:(R.cardinality rel) <> None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "segment",
        [
          QCheck_alcotest.to_alcotest segment_roundtrip_prop;
          QCheck_alcotest.to_alcotest csv_segment_roundtrip_prop;
          Alcotest.test_case "seeds column cache" `Quick
            test_segment_seeds_columns;
          Alcotest.test_case "csv errors stay typed" `Quick
            test_csv_error_still_typed;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupt segment" `Quick test_corrupt_segment;
          Alcotest.test_case "planted counts" `Quick test_planted_counts;
          Alcotest.test_case "planted catalog counts" `Quick
            test_planted_catalog_counts;
          Alcotest.test_case "corrupt catalog entry" `Quick
            test_corrupt_catalog_entry;
          Alcotest.test_case "injected store faults" `Quick
            test_store_faults_typed;
        ] );
      ( "partition invariants",
        [ QCheck_alcotest.to_alcotest of_groups_invariants_prop ] );
      ( "catalog",
        [
          Alcotest.test_case "hit does not rebuild" `Quick
            test_catalog_hit_no_rebuild;
          Alcotest.test_case "table cache" `Quick test_catalog_table_cache;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "append re-splits locally" `Quick
            test_append_local_resplit;
          Alcotest.test_case "append edge cases" `Quick
            test_append_empty_and_mismatch;
          Alcotest.test_case "delete shrinks in place" `Quick
            test_delete_shrinks_in_place;
          Alcotest.test_case "maintained matches scratch" `Quick
            test_maintained_matches_scratch;
        ] );
      ( "durability",
        [
          Alcotest.test_case "append survives cold reload" `Quick
            test_append_survives_cold_reload;
          Alcotest.test_case "atomic publish, stale tmp swept" `Quick
            test_catalog_sweeps_stale_tmp;
        ] );
    ]
