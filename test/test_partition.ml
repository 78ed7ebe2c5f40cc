(* Unit tests of the partition server (Algorithm 2) in isolation:
   certification rules, timestamp proposals, version lifecycle, blocked
   readers, eviction candidates and abort tombstones. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module PS = Core.Partition_server

let key name = Key.v ~partition:0 name
let txid ?(origin = 0) n = Txid.make ~origin ~number:n

let make_server ?(config = Core.Config.str ()) ?(is_cache = false) ?(node_id = 0) () =
  let sim = Dsim.Sim.create () in
  let clock = Dsim.Clock.create ~sim ~skew_us:0 ~drift_ppm:0. in
  let cpu = Dsim.Cpu.create sim in
  let server = PS.create ~sim ~clock ~cpu ~config ~node_id ~partition:0 ~is_cache () in
  (sim, server)

let load server k v ~ts =
  Mvstore.load (PS.store server) ~ts ~writer:(txid ~origin:(-1) 0) k (Value.Int v)

let prepare ?(origin = 0) ?(rs = 100) ?stack_over server n writes =
  PS.prepare ?stack_over server ~txid:(txid ~origin n) ~origin ~rs
    ~writes:(List.map (fun (k, v) -> (k, Value.Int v)) writes)

(* Final commit of [txid n] at [ct], with committed versions built from
   the server's own pending ones. *)
let commit server n ~ct =
  let id = txid n in
  PS.commit server id (PS.decided_versions server id ~ct ~peer:(fun _ -> None))

(* --- certification --------------------------------------------------- *)

let test_prepare_fresh_key () =
  let _, server = make_server () in
  match prepare server 1 [ (key "a", 1) ] with
  | PS.Prepared { ts; wdeps } ->
    Alcotest.(check bool) "P1-ish: positive proposal" true (ts >= 1);
    Alcotest.(check int) "no wdeps" 0 (List.length wdeps);
    Alcotest.(check bool) "pending registered" true (PS.has_tx server (txid 1))
  | PS.Conflict _ -> Alcotest.fail "unexpected conflict"

let test_conflict_newer_committed () =
  let _, server = make_server () in
  load server (key "a") 5 ~ts:200;
  match prepare ~rs:100 server 1 [ (key "a", 1) ] with
  | PS.Conflict k -> Alcotest.(check string) "conflicting key" "a" (Key.name k)
  | PS.Prepared _ -> Alcotest.fail "must conflict with newer committed version"

let test_conflict_foreign_uncommitted () =
  let _, server = make_server () in
  (match prepare ~origin:0 ~rs:100 server 1 [ (key "a", 1) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "first prepare");
  (* A different-origin transaction cannot stack. *)
  match prepare ~origin:2 ~rs:100 server 2 [ (key "a", 2) ] with
  | PS.Conflict _ -> ()
  | PS.Prepared _ -> Alcotest.fail "foreign uncommitted version must conflict"

let test_local_stacking_requires_local_commit () =
  let _, server = make_server () in
  (match prepare ~rs:100 server 1 [ (key "a", 1) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "first prepare");
  (* Still pre-committed: a sibling's local certification conflicts. *)
  (match prepare ~rs:100 server 2 [ (key "a", 2) ] with
   | PS.Conflict _ -> ()
   | PS.Prepared _ -> Alcotest.fail "pre-committed sibling must conflict");
  (* After local commit, stacking succeeds and records the dependency. *)
  PS.local_commit server (txid 1) ~lc:50;
  match prepare ~rs:100 server 2 [ (key "a", 2) ] with
  | PS.Prepared { wdeps; _ } ->
    Alcotest.(check int) "one wdep" 1 (List.length wdeps);
    Alcotest.(check bool) "dep is tx1" true (Txid.equal (List.hd wdeps) (txid 1))
  | PS.Conflict _ -> Alcotest.fail "stacking over local-committed must succeed"

let test_stacking_needs_visible_lc () =
  let _, server = make_server () in
  (match prepare ~rs:100 server 1 [ (key "a", 1) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "first prepare");
  PS.local_commit server (txid 1) ~lc:150;
  (* lc=150 > rs=100: the sibling's snapshot does not include it. *)
  match prepare ~rs:100 server 2 [ (key "a", 2) ] with
  | PS.Conflict _ -> ()
  | PS.Prepared _ -> Alcotest.fail "invisible local-committed version must conflict"

let test_same_origin_stacking_at_remote_replica () =
  (* At a remote replica (node 5), a prepare stacks over a pre-committed
     version only when it declares the existing writer among its
     dependencies (FIFO channels preserve their origin order). *)
  let _, server = make_server ~node_id:5 () in
  (match prepare ~origin:0 ~rs:100 server 1 [ (key "a", 1) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "first remote prepare");
  (* Without the declared dependency: refused. *)
  (match prepare ~origin:0 ~rs:120 server 2 [ (key "a", 2) ] with
   | PS.Conflict _ -> ()
   | PS.Prepared _ -> Alcotest.fail "undeclared same-origin stacking must conflict");
  match
    prepare ~origin:0 ~rs:120
      ~stack_over:(Txid.Set.singleton (txid ~origin:0 1))
      server 2 [ (key "a", 2) ]
  with
  | PS.Prepared { ts; _ } ->
    Alcotest.(check bool) "stacked above" true
      (match Mvstore.latest_before (PS.store server) (key "a") ~rs:max_int with
       | Some v -> Version.ts v = ts && Txid.equal (Version.writer v) (txid ~origin:0 2)
       | None -> false)
  | PS.Conflict _ -> Alcotest.fail "declared same-origin stacking must succeed"

let test_sr_disabled_no_stacking () =
  let _, server = make_server ~config:(Core.Config.clocksi_rep ()) () in
  (match prepare ~rs:100 server 1 [ (key "a", 1) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "first prepare");
  PS.local_commit server (txid 1) ~lc:50;
  match prepare ~rs:100 server 2 [ (key "a", 2) ] with
  | PS.Conflict _ -> ()
  | PS.Prepared _ -> Alcotest.fail "no stacking without speculative reads"

(* --- proposals ------------------------------------------------------- *)

let test_precise_proposal_from_last_reader () =
  let _, server = make_server () in
  Mvstore.bump_last_reader (PS.store server) (key "a") 500;
  match prepare ~rs:600 server 1 [ (key "a", 1) ] with
  | PS.Prepared { ts; _ } -> Alcotest.(check int) "LastReader + 1" 501 ts
  | PS.Conflict _ -> Alcotest.fail "prepare failed"

let test_precise_proposal_above_chain () =
  let _, server = make_server () in
  load server (key "a") 1 ~ts:300;
  match prepare ~rs:600 server 1 [ (key "a", 2) ] with
  | PS.Prepared { ts; _ } -> Alcotest.(check int) "newest + 1" 301 ts
  | PS.Conflict _ -> Alcotest.fail "prepare failed"

let test_physical_proposal_uses_clock () =
  let sim, server = make_server ~config:(Core.Config.clocksi_rep ()) () in
  Dsim.Sim.schedule sim ~delay:10_000 (fun () ->
      match prepare ~rs:20_000 server 1 [ (key "a", 1) ] with
      | PS.Prepared { ts; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "clock-based proposal %d >= 10000" ts)
          true (ts >= 10_000)
      | PS.Conflict _ -> Alcotest.fail "prepare failed");
  ignore (Dsim.Sim.run sim)

(* A commit drops a [LastReader] slot at or below its timestamp, which
   must never lower a later proposal.  One Precise-Clocks replica serves
   random reads, prepares, commits and aborts on three keys; the model
   keeps the highest snapshot each key was read at, and every proposal
   must be [max (read + 1) (newest version + 1)] over the written keys.
   A slot above the commit timestamp needs a read that did not block on
   the pending version (a blocked one reads again after the decision):
   a local speculative read of a local-committed version, at a snapshot
   the commit stays below. *)
type forget_op =
  | F_read of int * int  (** key, rs *)
  | F_prepare of int list * int  (** keys, rs *)
  | F_local of int * int  (** pending pick, lc above the prepare ts *)
  | F_commit of int * int  (** pending pick, ct above the pending ts *)
  | F_abort of int  (** pending pick *)

let prop_forgetting_keeps_proposals =
  let n_keys = 3 in
  let gen =
    QCheck.Gen.(
      let k = int_range 0 (n_keys - 1) in
      frequency
        [
          (4, map2 (fun k rs -> F_read (k, rs)) k (int_range 1 3000));
          ( 4,
            map2
              (fun ks rs -> F_prepare (List.sort_uniq Int.compare ks, rs))
              (list_size (int_range 1 n_keys) k) (int_range 0 4000) );
          (2, map2 (fun p d -> F_local (p, d)) (int_range 0 100) (int_range 0 400));
          (3, map2 (fun p d -> F_commit (p, d)) (int_range 0 100) (int_range 0 400));
          (1, map (fun p -> F_abort p) (int_range 0 100));
        ])
  in
  QCheck.Test.make ~name:"forgetting a LastReader slot never lowers a proposal" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 80) gen))
    (fun ops ->
      let sim, server = make_server () in
      let store = PS.store server in
      let read_at = Array.make n_keys 0 in
      let pending = ref [] and next = ref 0 in
      let newest k =
        match Mvstore.latest_before store (key (string_of_int k)) ~rs:max_int with
        | Some v -> Version.ts v
        | None -> -1
      in
      let pick p = List.nth !pending (p mod List.length !pending) in
      let step = function
        | F_read (k, rs) ->
          PS.read server ~rs ~reader_origin:0 (key (string_of_int k)) ignore;
          read_at.(k) <- max read_at.(k) rs;
          true
        | F_prepare (ks, rs) ->
          let expected =
            List.fold_left (fun acc k -> max acc (max (read_at.(k) + 1) (newest k + 1))) 0 ks
          in
          incr next;
          (match prepare ~rs server !next (List.map (fun k -> (key (string_of_int k), k)) ks) with
           | PS.Prepared { ts; _ } ->
             pending := (!next, ts) :: !pending;
             ts = expected
           | PS.Conflict _ -> true)
        | F_local (p, d) ->
          if !pending <> [] then begin
            let n, ts = pick p in
            PS.local_commit server (txid n) ~lc:(ts + d);
            pending := List.map (fun (m, t) -> (m, if m = n then ts + d else t)) !pending
          end;
          true
        | F_commit (p, d) ->
          if !pending <> [] then begin
            let n, ts = pick p in
            commit server n ~ct:(ts + d);
            pending := List.filter (fun (m, _) -> m <> n) !pending
          end;
          true
        | F_abort p ->
          if !pending <> [] then begin
            let n, _ = pick p in
            PS.abort server (txid n);
            pending := List.filter (fun (m, _) -> m <> n) !pending
          end;
          true
      in
      List.for_all
        (fun op ->
          let ok = step op in
          ignore (Dsim.Sim.run sim);
          ok)
        ops)

(* --- lifecycle ------------------------------------------------------- *)

let test_commit_finalizes_version () =
  let _, server = make_server () in
  (match prepare ~rs:100 server 1 [ (key "a", 7) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  PS.local_commit server (txid 1) ~lc:101;
  commit server 1 ~ct:140;
  (match Mvstore.latest_before (PS.store server) (key "a") ~rs:200 with
   | Some v ->
     Alcotest.(check bool) "committed" true (Version.is_committed v);
     Alcotest.(check int) "final ts" 140 (Version.ts v)
   | None -> Alcotest.fail "version vanished");
  Alcotest.(check bool) "pending cleared" false (PS.has_tx server (txid 1))

let test_abort_removes_version () =
  let _, server = make_server () in
  (match prepare ~rs:100 server 1 [ (key "a", 7) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  PS.abort server (txid 1);
  Alcotest.(check bool) "chain empty" true
    (Mvstore.latest_before (PS.store server) (key "a") ~rs:max_int = None)

let test_cache_commit_drops_versions () =
  let _, server = make_server ~is_cache:true () in
  (match prepare ~rs:100 server 1 [ (key "a", 7) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  PS.local_commit server (txid 1) ~lc:101;
  PS.drop server (txid 1);
  Alcotest.(check bool) "cache emptied at final commit" true
    (Mvstore.latest_before (PS.store server) (key "a") ~rs:max_int = None)

(* --- blocked readers -------------------------------------------------- *)

let test_reader_blocks_then_sees_commit () =
  let sim, server = make_server () in
  load server (key "a") 1 ~ts:0;
  (match prepare ~rs:100 server 1 [ (key "a", 2) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  let result = ref None in
  (* A remote reader (origin 9) blocks on the pre-committed version. *)
  PS.read server ~rs:400 ~reader_origin:9 (key "a") (fun r -> result := Some r);
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "still blocked" true (!result = None);
  PS.local_commit server (txid 1) ~lc:101;
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "still blocked for remote reader" true (!result = None);
  commit server 1 ~ct:140;
  ignore (Dsim.Sim.run sim);
  (match !result with
   | Some r ->
     Alcotest.(check bool) "got the new value" true (r.PS.value = Some (Value.Int 2))
   | None -> Alcotest.fail "reader never woke")

let test_reader_blocks_then_abort_reveals_old () =
  let sim, server = make_server () in
  load server (key "a") 1 ~ts:0;
  (match prepare ~rs:100 server 1 [ (key "a", 2) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  let result = ref None in
  PS.read server ~rs:400 ~reader_origin:9 (key "a") (fun r -> result := Some r);
  ignore (Dsim.Sim.run sim);
  PS.abort server (txid 1);
  ignore (Dsim.Sim.run sim);
  match !result with
  | Some r -> Alcotest.(check bool) "old value" true (r.PS.value = Some (Value.Int 1))
  | None -> Alcotest.fail "reader never woke"

let test_local_reader_speculates_after_lc () =
  let sim, server = make_server () in
  (match prepare ~rs:100 server 1 [ (key "a", 2) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  let result = ref None in
  PS.read server ~rs:400 ~reader_origin:0 (key "a") (fun r -> result := Some r);
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "blocked while pre-committed" true (!result = None);
  PS.local_commit server (txid 1) ~lc:101;
  ignore (Dsim.Sim.run sim);
  match !result with
  | Some r ->
    Alcotest.(check bool) "speculative" true (r.PS.src = `Speculative);
    Alcotest.(check bool) "writer reported" true (r.PS.writer = Some (txid 1))
  | None -> Alcotest.fail "local reader never woke"

(* --- eviction + tombstones -------------------------------------------- *)

let test_evict_candidates_local_only () =
  let _, server = make_server ~node_id:3 () in
  (* A local (node 3) speculative version and a foreign one. *)
  (match prepare ~origin:3 ~rs:100 server 1 [ (key "a", 1) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare 1");
  PS.local_commit server (txid ~origin:3 1) ~lc:50;
  let victims =
    PS.evict_candidates server
      ~writes:[ (key "a", Value.Int 9) ]
      ~except:(txid ~origin:7 99)
  in
  Alcotest.(check int) "one victim" 1 (List.length victims);
  Alcotest.(check bool) "the local tx" true (Txid.equal (List.hd victims) (txid ~origin:3 1));
  (* Non-conflicting write: no victims. *)
  let none =
    PS.evict_candidates server ~writes:[ (key "b", Value.Int 9) ] ~except:(txid ~origin:7 99)
  in
  Alcotest.(check int) "no victim" 0 (List.length none)

let test_tombstone_refuses_late_prepare () =
  let _, server = make_server ~node_id:4 () in
  (* The abort arrives before the prepare (network race). *)
  PS.abort ~tombstone:true server (txid ~origin:0 9);
  (match prepare ~origin:0 ~rs:100 server 9 [ (key "a", 1) ] with
   | PS.Conflict _ -> ()
   | PS.Prepared _ -> Alcotest.fail "tombstoned prepare must be refused");
  (* The tombstone is consumed: no zombie version was installed. *)
  Alcotest.(check bool) "no version installed" true
    (Mvstore.latest_before (PS.store server) (key "a") ~rs:max_int = None)

let test_abort_unknown_without_tombstone_is_noop () =
  let _, server = make_server () in
  PS.abort server (txid 77);
  match prepare ~rs:100 server 77 [ (key "a", 1) ] with
  | PS.Prepared _ -> ()
  | PS.Conflict _ -> Alcotest.fail "local abort of unknown tx must not tombstone"

(* --- unsafe-speculation strawman -------------------------------------- *)

let test_unsafe_mode_serves_precommitted_remotely () =
  let sim, server = make_server ~config:(Core.Config.unrestricted_speculation ()) () in
  (match prepare ~rs:100 server 1 [ (key "a", 2) ] with
   | PS.Prepared _ -> ()
   | PS.Conflict _ -> Alcotest.fail "prepare");
  let result = ref None in
  PS.read server ~rs:400 ~reader_origin:9 (key "a") (fun r -> result := Some r);
  ignore (Dsim.Sim.run sim);
  match !result with
  | Some r -> Alcotest.(check bool) "served speculatively" true (r.PS.src = `Speculative)
  | None -> Alcotest.fail "unsafe mode must not block"

let () =
  Alcotest.run "partition-server"
    [
      ( "certification",
        [
          Alcotest.test_case "fresh key" `Quick test_prepare_fresh_key;
          Alcotest.test_case "newer committed conflicts" `Quick test_conflict_newer_committed;
          Alcotest.test_case "foreign uncommitted conflicts" `Quick
            test_conflict_foreign_uncommitted;
          Alcotest.test_case "stacking requires local commit" `Quick
            test_local_stacking_requires_local_commit;
          Alcotest.test_case "stacking requires visible LC" `Quick
            test_stacking_needs_visible_lc;
          Alcotest.test_case "same-origin stacking at remote replica" `Quick
            test_same_origin_stacking_at_remote_replica;
          Alcotest.test_case "no stacking without SR" `Quick test_sr_disabled_no_stacking;
        ] );
      ( "proposals",
        [
          Alcotest.test_case "precise: LastReader+1" `Quick test_precise_proposal_from_last_reader;
          Alcotest.test_case "precise: above chain" `Quick test_precise_proposal_above_chain;
          Alcotest.test_case "physical: clock" `Quick test_physical_proposal_uses_clock;
          QCheck_alcotest.to_alcotest prop_forgetting_keeps_proposals;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "commit finalizes" `Quick test_commit_finalizes_version;
          Alcotest.test_case "abort removes" `Quick test_abort_removes_version;
          Alcotest.test_case "cache drops at commit" `Quick test_cache_commit_drops_versions;
        ] );
      ( "blocked-readers",
        [
          Alcotest.test_case "block then commit" `Quick test_reader_blocks_then_sees_commit;
          Alcotest.test_case "block then abort" `Quick test_reader_blocks_then_abort_reveals_old;
          Alcotest.test_case "local reader speculates after LC" `Quick
            test_local_reader_speculates_after_lc;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "evict candidates local only" `Quick test_evict_candidates_local_only;
          Alcotest.test_case "tombstone refuses late prepare" `Quick
            test_tombstone_refuses_late_prepare;
          Alcotest.test_case "local unknown abort no-op" `Quick
            test_abort_unknown_without_tombstone_is_noop;
        ] );
      ( "strawman",
        [
          Alcotest.test_case "unsafe serves pre-committed remotely" `Quick
            test_unsafe_mode_serves_precommitted_remotely;
        ] );
    ]
