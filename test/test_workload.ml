(* Tests for the benchmark workloads: Zipf distribution, synthetic
   key generation, TPC-C and RUBiS schemas and transaction logic. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value

let placement9 = Placement.ring ~n_nodes:9 ~replication_factor:6 ()

(* --- Zipf ----------------------------------------------------------- *)

let test_zipf_skew () =
  let z = Workload.Zipf.make ~n:100 ~theta:1.0 in
  let rng = Dsim.Rng.create ~seed:1 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Workload.Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 10 beats rank 90" true (counts.(10) > counts.(90));
  (* Rough mass check: rank 0 of zipf(1.0, 100) has ~19% of the mass. *)
  let share = float_of_int counts.(0) /. 20_000. in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 share %.3f in [0.12, 0.28]" share)
    true
    (share > 0.12 && share < 0.28)

let test_zipf_uniform_theta0 () =
  let z = Workload.Zipf.make ~n:10 ~theta:0. in
  Alcotest.(check bool) "uniform mass" true
    (abs_float (Workload.Zipf.mass z 0 -. 0.1) < 1e-9)

let prop_zipf_bounds =
  QCheck.Test.make ~name:"zipf draws stay in range" ~count:200
    QCheck.(pair (int_range 1 500) (int_range 0 20))
    (fun (n, theta10) ->
      let z = Workload.Zipf.make ~n ~theta:(float_of_int theta10 /. 10.) in
      let rng = Dsim.Rng.create ~seed:(n + theta10) in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Workload.Zipf.draw z rng in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let prop_zipf_mass_sums_to_one =
  QCheck.Test.make ~name:"zipf masses sum to 1" ~count:100
    QCheck.(int_range 1 200)
    (fun n ->
      let z = Workload.Zipf.make ~n ~theta:0.8 in
      let total = ref 0. in
      for k = 0 to n - 1 do
        total := !total +. Workload.Zipf.mass z k
      done;
      abs_float (!total -. 1.) < 1e-9)

(* --- synthetic ------------------------------------------------------ *)

let test_synthetic_keys_partitions () =
  let params = Workload.Synthetic.synth_a in
  let wl = Workload.Synthetic.make ~params placement9 in
  let rng = Dsim.Rng.create ~seed:3 in
  (* Generate many programs and check the keys they touch. *)
  for node = 0 to 8 do
    for _ = 1 to 20 do
      let p = wl.Workload.Spec.next_program rng ~node in
      Alcotest.(check string) "label" "rmw" p.Workload.Spec.label;
      Alcotest.(check bool) "not read-only" false p.Workload.Spec.read_only
    done
  done

let test_synthetic_local_remote_split () =
  (* Run a tiny sim and verify local keys go to the local partition and
     remote keys to non-replicated partitions. *)
  let params =
    { Workload.Synthetic.synth_a with keys_per_tx = 10; remote_access_prob = 0.5 }
  in
  let wl = Workload.Synthetic.make ~params placement9 in
  let sim = Dsim.Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:9 ~rtt_ms:50. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:4 in
  let net =
    Dsim.Network.create ~sim ~topology ~node_dc:(Array.init 9 Fun.id) ~jitter:0. ~rng
  in
  let eng = Core.Engine.create ~sim ~net ~placement:placement9 ~config:(Core.Config.str ()) () in
  let h = Spsi.History.create () in
  Core.Engine.set_observer eng (Spsi.History.record h);
  Dsim.Fiber.spawn sim (fun () ->
      let prog = wl.Workload.Spec.next_program rng ~node:4 in
      let tx = Core.Engine.begin_tx eng ~origin:4 in
      (try
         prog.Workload.Spec.body eng tx;
         ignore (Core.Engine.commit eng tx)
       with Core.Types.Tx_abort _ -> ()));
  ignore (Dsim.Sim.run sim);
  let tx = List.hd (Spsi.History.transactions h) in
  Alcotest.(check bool) "wrote 10 keys" true
    (Spsi.History.KeySet.cardinal tx.Spsi.History.writes = 10);
  Spsi.History.KeySet.iter
    (fun k ->
      let p = Key.partition k in
      let name = Key.name k in
      if name.[0] = 'l' then Alcotest.(check int) "local key at home partition" 4 p
      else
        Alcotest.(check bool)
          (Printf.sprintf "remote key partition %d not replicated at 4" p)
          false
          (Placement.replicates placement9 ~node:4 ~partition:p))
    tx.Spsi.History.writes

let test_synthetic_scale_keys () =
  let p = Workload.Synthetic.scale_keys Workload.Synthetic.synth_a 4 in
  Alcotest.(check int) "keys scaled" 40 p.Workload.Synthetic.keys_per_tx;
  Alcotest.(check int) "local hot scaled" 4 p.Workload.Synthetic.local_hot;
  Alcotest.(check int) "remote hot scaled" 3200 p.Workload.Synthetic.remote_hot;
  Alcotest.(check int) "space scaled" 4_000_000 p.Workload.Synthetic.local_space

(* The synthetic key generator as it was written before it dropped
   [Printf.sprintf] and the per-program dedupe table: the reference the
   current one must match draw for draw. *)
let reference_accesses (params : Workload.Synthetic.params) placement =
  let open Workload.Synthetic in
  let local_key ~partition i = Key.v ~partition (Printf.sprintf "l%d" i) in
  let remote_key ~partition i = Key.v ~partition (Printf.sprintf "r%d" i) in
  let pick_index rng ~hot_prob ~hot ~cold ~zipf =
    if Dsim.Rng.float rng < hot_prob && hot > 0 then
      match zipf with
      | Some z when Workload.Zipf.n z = hot -> Workload.Zipf.draw z rng
      | Some _ | None -> Dsim.Rng.int rng hot
    else hot + Dsim.Rng.int rng (max 1 cold)
  in
  let zipf n =
    match params.zipf_theta with
    | Some theta when n > 1 -> Some (Workload.Zipf.make ~n ~theta)
    | Some _ | None -> None
  in
  let zipf_local = zipf params.local_hot and zipf_remote = zipf params.remote_hot in
  let remote_parts =
    Array.init (Placement.n_nodes placement) (fun n ->
        Array.of_list
          (List.filter
             (fun p -> not (Placement.replicates placement ~node:n ~partition:p))
             (List.init (Placement.n_partitions placement) Fun.id)))
  in
  fun rng node ->
    let seen = Hashtbl.create 16 in
    let rec draw acc n =
      if n = 0 then acc
      else begin
        let remotes = remote_parts.(node) in
        let access =
          if Array.length remotes > 0 && Dsim.Rng.float rng < params.remote_access_prob
          then begin
            let p = remotes.(Dsim.Rng.int rng (Array.length remotes)) in
            let i =
              pick_index rng ~hot_prob:params.hot_prob ~hot:params.remote_hot
                ~cold:params.remote_space ~zipf:zipf_remote
            in
            `Remote (remote_key ~partition:p i)
          end
          else begin
            let i =
              pick_index rng ~hot_prob:params.hot_prob ~hot:params.local_hot
                ~cold:params.local_space ~zipf:zipf_local
            in
            `Local (local_key ~partition:node i)
          end
        in
        let key = match access with `Remote k | `Local k -> k in
        if Hashtbl.mem seen key then draw acc n
        else begin
          Hashtbl.add seen key ();
          draw (access :: acc) (n - 1)
        end
      end
    in
    draw [] params.keys_per_tx

let test_synthetic_matches_reference () =
  let show = function
    | `Local k -> "L " ^ Key.to_string k
    | `Remote k -> "R " ^ Key.to_string k
  in
  List.iter
    (fun (name, params) ->
      let current = Workload.Synthetic.accesses params placement9 in
      let reference = reference_accesses params placement9 in
      for seed = 1 to 200 do
        for node = 0 to 8 do
          let a = Dsim.Rng.create ~seed and b = Dsim.Rng.create ~seed in
          (* Three programs in a row, then one more draw: the streams
             must agree key for key and leave the generator in step. *)
          for _ = 1 to 3 do
            Alcotest.(check (list string))
              (Printf.sprintf "%s seed %d node %d" name seed node)
              (List.map show (reference b node))
              (List.map show (current a ~node))
          done;
          Alcotest.(check int) "next draw" (Dsim.Rng.int b 1_000_000) (Dsim.Rng.int a 1_000_000)
        done
      done)
    [
      ("synth-a", Workload.Synthetic.synth_a);
      ("synth-b", Workload.Synthetic.synth_b);
      ( "cold uniform",
        {
          Workload.Synthetic.default with
          hot_prob = 0.0;
          local_space = 20_000;
          remote_space = 20_000;
          remote_access_prob = 0.1;
        } );
      ("zipf", { Workload.Synthetic.synth_b with zipf_theta = Some 0.99; local_hot = 50 });
    ]

(* --- TPC-C ---------------------------------------------------------- *)

let small_tpcc =
  {
    Workload.Tpcc.default with
    warehouses_per_node = 2;
    districts = 3;
    customers_per_district = 10;
    items = 50;
    think_us = 1_000;
  }

let mini_cluster () =
  let sim = Dsim.Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:3 ~rtt_ms:40. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:5 in
  let net =
    Dsim.Network.create ~sim ~topology ~node_dc:[| 0; 1; 2 |] ~jitter:0. ~rng
  in
  let placement = Placement.ring ~n_nodes:3 ~replication_factor:2 () in
  let eng = Core.Engine.create ~sim ~net ~placement ~config:(Core.Config.str ()) () in
  (sim, placement, eng, rng)

let test_tpcc_load () =
  let sim, placement, eng, _ = mini_cluster () in
  ignore sim;
  let wl, _ = Workload.Tpcc.make ~params:small_tpcc placement in
  wl.Workload.Spec.load eng;
  (* Warehouse 0 lives on node 0 (partition 0). *)
  let store0 =
    Core.Partition_server.store (Core.Engine.server eng ~node:0 ~partition:0)
  in
  (* 2 warehouses x (1 w + 3 d + 3 delivery cursors + 3*10 c + 50 s)
     = 2 * 87 = 174 keys. *)
  Alcotest.(check int) "rows loaded on node 0" 174 (Mvstore.key_count store0)

let test_tpcc_mixes () =
  List.iter
    (fun (m : Workload.Tpcc.mix) ->
      let total =
        m.new_order +. m.payment +. m.order_status +. m.delivery +. m.stock_level
      in
      Alcotest.(check bool) "mix sums to 1" true (abs_float (total -. 1.) < 1e-9))
    [ Workload.Tpcc.mix_a; Workload.Tpcc.mix_b; Workload.Tpcc.mix_c; Workload.Tpcc.mix_full ]

let test_tpcc_delivery_and_stock_level () =
  (* Place some orders, then deliver them and scan stock levels. *)
  let sim, placement, eng, _ = mini_cluster () in
  let wl, _ = Workload.Tpcc.make ~params:small_tpcc placement in
  wl.Workload.Spec.load eng;
  let p = small_tpcc in
  let stamped = ref 0 and credited = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      (* One order per (warehouse, district) of node 0, customer 3. *)
      for w = 0 to 1 do
        for d = 0 to p.Workload.Tpcc.districts - 1 do
          let tx = Core.Engine.begin_tx eng ~origin:0 in
          let dk = Workload.Tpcc.district_key p w d in
          (match Core.Engine.read eng tx dk with
           | Some (Value.Rec _ as row) ->
             let oid = Value.int (Value.field row "next_o_id") in
             Core.Engine.write eng tx dk
               (Value.set_field row "next_o_id" (Value.Int (oid + 1)));
             Core.Engine.write eng tx
               (Workload.Tpcc.order_key p w d oid)
               (Value.Rec [ ("c_id", Value.Int 3); ("ol_cnt", Value.Int 1) ]);
             Core.Engine.write eng tx
               (Workload.Tpcc.order_line_key p w d oid 0)
               (Value.Rec
                  [ ("item", Value.Int 1); ("qty", Value.Int 2); ("amount", Value.Int 50) ])
           | Some _ | None -> ());
          ignore (Core.Engine.commit eng tx)
        done
      done;
      Dsim.Fiber.sleep sim 1_000;
      (* Delivery batch-processes every district of one warehouse. *)
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      Workload.Tpcc.delivery p (Dsim.Rng.create ~seed:0) 0 eng tx;
      ignore (Core.Engine.commit eng tx);
      Dsim.Fiber.sleep sim 1_000;
      (* Verify: one warehouse's orders are stamped and its customers
         credited; stock-level runs cleanly on top. *)
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      for w = 0 to 1 do
        for d = 0 to p.Workload.Tpcc.districts - 1 do
          (match Core.Engine.read eng tx (Workload.Tpcc.order_key p w d 1) with
           | Some (Value.Rec _ as o) ->
             if Value.field_opt o "carrier" <> None then incr stamped
           | Some _ | None -> ());
          match Core.Engine.read eng tx (Workload.Tpcc.customer_key p w d 3) with
          | Some (Value.Rec _ as c) ->
            if Value.int (Value.field c "balance") = 50 then incr credited
          | Some _ | None -> ()
        done
      done;
      Workload.Tpcc.stock_level p (Dsim.Rng.create ~seed:0) 0 eng tx;
      ignore (Core.Engine.commit eng tx));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int) "one warehouse's districts delivered" p.Workload.Tpcc.districts
    !stamped;
  Alcotest.(check int) "its customers credited" p.Workload.Tpcc.districts !credited

let test_tpcc_new_order_then_status () =
  let sim, placement, eng, _rng = mini_cluster () in
  let wl, counters = Workload.Tpcc.make ~params:small_tpcc placement in
  wl.Workload.Spec.load eng;
  let ok = ref false in
  Dsim.Fiber.spawn sim (fun () ->
      (* Deterministic new-order on warehouse 0 district 0 customer 0. *)
      let tx = Core.Engine.begin_tx eng ~origin:0 in
      let dk = Workload.Tpcc.district_key small_tpcc 0 0 in
      (match Core.Engine.read eng tx dk with
       | Some (Value.Rec _ as row) ->
         let oid = Value.int (Value.field row "next_o_id") in
         Core.Engine.write eng tx dk
           (Value.set_field row "next_o_id" (Value.Int (oid + 1)));
         Core.Engine.write eng tx
           (Workload.Tpcc.order_key small_tpcc 0 0 oid)
           (Value.Rec [ ("c_id", Value.Int 0); ("ol_cnt", Value.Int 2) ]);
         for n = 0 to 1 do
           Core.Engine.write eng tx
             (Workload.Tpcc.order_line_key small_tpcc 0 0 oid n)
             (Value.Rec [ ("item", Value.Int n); ("qty", Value.Int 1); ("amount", Value.Int 5) ])
         done;
         let ck = Workload.Tpcc.customer_key small_tpcc 0 0 0 in
         (match Core.Engine.read eng tx ck with
          | Some (Value.Rec _ as c) ->
            Core.Engine.write eng tx ck (Value.set_field c "last_order" (Value.Int oid))
          | _ -> ())
       | _ -> ());
      ignore (Core.Engine.commit eng tx);
      Dsim.Fiber.sleep sim 1_000;
      (* Now order-status must see the complete order. *)
      let tx2 = Core.Engine.begin_tx eng ~origin:0 in
      let body = Workload.Tpcc.order_status small_tpcc (Dsim.Rng.create ~seed:1) counters 0 in
      ignore body;
      let ck = Workload.Tpcc.customer_key small_tpcc 0 0 0 in
      (match Core.Engine.read eng tx2 ck with
       | Some (Value.Rec _ as c) ->
         let last = Value.int (Value.field c "last_order") in
         Alcotest.(check int) "last order recorded" 1 last;
         (match Core.Engine.read eng tx2 (Workload.Tpcc.order_key small_tpcc 0 0 last) with
          | Some (Value.Rec _ as o) ->
            let cnt = Value.int (Value.field o "ol_cnt") in
            for n = 0 to cnt - 1 do
              match
                Core.Engine.read eng tx2 (Workload.Tpcc.order_line_key small_tpcc 0 0 last n)
              with
              | Some _ -> ()
              | None -> Alcotest.fail "order line missing (Listing 1 anomaly!)"
            done;
            ok := true
          | _ -> Alcotest.fail "order row missing")
       | _ -> Alcotest.fail "customer missing");
      ignore (Core.Engine.commit eng tx2));
  ignore (Dsim.Sim.run sim);
  Alcotest.(check bool) "scenario completed" true !ok

let test_tpcc_run_no_anomalies () =
  (* Drive the full workload with several clients; the Listing-1 counter
     must stay at zero under STR. *)
  let sim, placement, eng, rng = mini_cluster () in
  let wl, counters =
    Workload.Tpcc.make ~params:small_tpcc ~mix:Workload.Tpcc.mix_b placement
  in
  wl.Workload.Spec.load eng;
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:3_000_000 in
  for node = 0 to 2 do
    for _ = 1 to 6 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:3_000_000
        ~start_delay:(Dsim.Rng.int crng 20_000)
    done
  done;
  ignore (Dsim.Sim.run ~until:4_000_000 sim);
  Alcotest.(check bool) "orders were checked" true (counters.Workload.Tpcc.orders_checked >= 0);
  Alcotest.(check int) "no null order lines" 0 counters.Workload.Tpcc.null_order_lines;
  Alcotest.(check bool) "committed some" true
    ((Core.Engine.total_stats eng).Core.Stats.commits > 20)

(* --- RUBiS ---------------------------------------------------------- *)

let small_rubis =
  {
    Workload.Rubis.default with
    users_per_node = 20;
    items_per_node = 30;
    think_min_us = 1_000;
    think_max_us = 5_000;
  }

let test_rubis_statics () =
  Alcotest.(check int) "26 interactions" 26 Workload.Rubis.interaction_count;
  Alcotest.(check bool)
    (Printf.sprintf "update fraction %.3f = 0.15" Workload.Rubis.update_fraction)
    true
    (abs_float (Workload.Rubis.update_fraction -. 0.15) < 1e-9)

let test_rubis_mix_draw () =
  let wl = Workload.Rubis.make ~params:small_rubis placement9 in
  let rng = Dsim.Rng.create ~seed:6 in
  let updates = ref 0 and total = 10_000 in
  for _ = 1 to total do
    let p = wl.Workload.Spec.next_program rng ~node:0 in
    if not p.Workload.Spec.read_only then incr updates;
    Alcotest.(check bool) "think time in range" true
      (p.Workload.Spec.think_us >= small_rubis.Workload.Rubis.think_min_us
       && p.Workload.Spec.think_us <= small_rubis.Workload.Rubis.think_max_us)
  done;
  let frac = float_of_int !updates /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "measured update fraction %.3f in [0.13, 0.17]" frac)
    true
    (frac > 0.13 && frac < 0.17)

let test_rubis_run () =
  let sim, placement, eng, rng = mini_cluster () in
  let wl = Workload.Rubis.make ~params:small_rubis placement in
  wl.Workload.Spec.load eng;
  let shared = Harness.Client.make_shared ~measure_from:0 ~measure_to:3_000_000 in
  for node = 0 to 2 do
    for _ = 1 to 8 do
      let crng = Dsim.Rng.split rng in
      Harness.Client.spawn eng wl ~node ~rng:crng ~shared ~stop_at:3_000_000
        ~start_delay:(Dsim.Rng.int crng 20_000)
    done
  done;
  ignore (Dsim.Sim.run ~until:4_000_000 sim);
  let stats = Core.Engine.total_stats eng in
  Alcotest.(check bool) "committed transactions" true (stats.Core.Stats.commits > 30);
  match Core.Engine.check_invariants eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_rubis_every_interaction_runs () =
  (* Each of the 26 interaction bodies must execute and commit against a
     loaded store without raising (beyond transactional aborts). *)
  let sim, placement, eng, _ = mini_cluster () in
  let wl = Workload.Rubis.make ~params:small_rubis placement in
  wl.Workload.Spec.load eng;
  let rng = Dsim.Rng.create ~seed:17 in
  let seen = Hashtbl.create 32 in
  let committed = ref 0 in
  Dsim.Fiber.spawn sim (fun () ->
      (* Draw programs until every interaction type has run once. *)
      let budget = ref 2_000 in
      while Hashtbl.length seen < Workload.Rubis.interaction_count && !budget > 0 do
        decr budget;
        let prog = wl.Workload.Spec.next_program rng ~node:(Dsim.Rng.int rng 3) in
        if not (Hashtbl.mem seen prog.Workload.Spec.label) then begin
          Hashtbl.add seen prog.Workload.Spec.label ();
          let tx = Core.Engine.begin_tx eng ~origin:0 in
          match
            prog.Workload.Spec.body eng tx;
            Core.Engine.commit eng tx
          with
          | _ -> incr committed
          | exception Core.Types.Tx_abort _ -> ()
        end
      done);
  ignore (Dsim.Sim.run sim);
  Alcotest.(check int)
    "all 26 interactions drawn and executed" Workload.Rubis.interaction_count
    (Hashtbl.length seen);
  Alcotest.(check bool) "most committed" true (!committed >= 24)

let test_rubis_id_counters_isolated () =
  (* Two concurrent StoreBid-like transactions on the same node must end
     up with distinct bid ids (the local-index counter is transactional). *)
  let sim, placement, eng, _ = mini_cluster () in
  let wl = Workload.Rubis.make ~params:small_rubis placement in
  wl.Workload.Spec.load eng;
  let ids = ref [] in
  for i = 0 to 1 do
    Dsim.Fiber.spawn sim (fun () ->
        Dsim.Fiber.sleep sim (i * 100);
        let rec attempt n =
          if n < 10 then begin
            let tx = Core.Engine.begin_tx eng ~origin:0 in
            match
              let id = Workload.Rubis.next_id eng tx 0 "bid" in
              Core.Engine.write eng tx
                (Workload.Rubis.bid_key 0 id)
                (Value.Rec [ ("amount", Value.Int 1) ]);
              ignore (Core.Engine.commit eng tx);
              id
            with
            | id -> ids := id :: !ids
            | exception Core.Types.Tx_abort _ -> attempt (n + 1)
          end
        in
        attempt 0)
  done;
  ignore (Dsim.Sim.run sim);
  match !ids with
  | [ a; b ] -> Alcotest.(check bool) "distinct bid ids" true (a <> b)
  | other -> Alcotest.fail (Printf.sprintf "expected 2 bids, got %d" (List.length other))

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "theta=0 uniform" `Quick test_zipf_uniform_theta0;
          QCheck_alcotest.to_alcotest prop_zipf_bounds;
          QCheck_alcotest.to_alcotest prop_zipf_mass_sums_to_one;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "program generation" `Quick test_synthetic_keys_partitions;
          Alcotest.test_case "local/remote key split" `Quick test_synthetic_local_remote_split;
          Alcotest.test_case "scale_keys" `Quick test_synthetic_scale_keys;
          Alcotest.test_case "keys match the reference generator" `Quick
            test_synthetic_matches_reference;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "load" `Quick test_tpcc_load;
          Alcotest.test_case "mixes" `Quick test_tpcc_mixes;
          Alcotest.test_case "delivery + stock-level" `Quick test_tpcc_delivery_and_stock_level;
          Alcotest.test_case "new-order then order-status" `Quick test_tpcc_new_order_then_status;
          Alcotest.test_case "full run, no Listing-1 anomalies" `Slow test_tpcc_run_no_anomalies;
        ] );
      ( "rubis",
        [
          Alcotest.test_case "statics" `Quick test_rubis_statics;
          Alcotest.test_case "mix draw" `Quick test_rubis_mix_draw;
          Alcotest.test_case "full run" `Slow test_rubis_run;
          Alcotest.test_case "every interaction runs" `Quick test_rubis_every_interaction_runs;
          Alcotest.test_case "id counters isolated" `Quick test_rubis_id_counters_isolated;
        ] );
    ]
