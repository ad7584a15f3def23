#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "service/sharded_broker.h"
#include "sim/thread_pool.h"
#include "topo/internet.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

namespace cronets::service {
namespace {

constexpr std::uint64_t kWorldSeed = 42;

struct ScenarioResult {
  ShardedBrokerStats stats;
  std::size_t peak_concurrent = 0;
  int crossing_before = 0;
  int crossing_after = -1;
  double global_nic_used_bps = 0.0;
  double global_nic_peak_bps = 0.0;
  std::uint64_t overlay_denied = 0;
};

BrokerConfig scenario_config() {
  BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  return cfg;
}

/// One broker run: churn workload + a transit-adjacency failure halfway
/// through. Every field of the result must be a pure function of the
/// seeds and config — never of `shards` or `threads` (nor of
/// `incremental`, the dirty-set scheduler being a pure performance knob).
ScenarioResult run_scenario(int shards, int threads, double nic_cap_bps = 0.0,
                            bool incremental = true) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(12);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  BrokerConfig cfg = scenario_config();
  cfg.nic_capacity_bps = nic_cap_bps;
  cfg.probe.incremental = incremental;
  sim::ThreadPool pool(sim::Parallelism{threads});
  ShardedBroker broker(&world.internet(), &world.meter(), &pool, overlays,
                       shards, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = kWorldSeed ^ 0x5e55;
  churn_params.target_concurrent = 400;
  churn_params.mean_duration_s = 20.0;
  churn_params.horizon = sim::Time::seconds(60);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();

  ScenarioResult r;
  int fail_a = -1, fail_b = -1;
  broker.queue().schedule(sim::Time::seconds(30), [&] {
    if (!broker.busiest_transit_adjacency(&fail_a, &fail_b)) return;
    r.crossing_before = broker.sessions_traversing(fail_a, fail_b);
    world.internet().set_adjacency_up(fail_a, fail_b, false);
  });
  broker.queue().schedule(
      sim::Time::seconds(30) + cfg.failover_delay + sim::Time::milliseconds(1),
      [&] {
        if (fail_a >= 0) r.crossing_after = broker.sessions_traversing(fail_a, fail_b);
      });
  broker.run_until(churn_params.horizon);

  r.stats = broker.stats();
  r.peak_concurrent = churn.stats().peak_concurrent;
  r.global_nic_used_bps = broker.global_nic().total_used_bps();
  r.global_nic_peak_bps = broker.global_nic().peak_used_bps();
  for (const auto& ss : r.stats.shards) r.overlay_denied += ss.overlay_denied;
  return r;
}

void expect_same_decisions(const ScenarioResult& a, const ScenarioResult& b) {
  // The merged per-pair decision chains hash every admission and repin —
  // a single diverging decision on any shard flips the fingerprint.
  EXPECT_EQ(a.stats.decision_fingerprint, b.stats.decision_fingerprint);
  EXPECT_EQ(a.stats.sessions_admitted, b.stats.sessions_admitted);
  EXPECT_EQ(a.stats.sessions_released, b.stats.sessions_released);
  EXPECT_EQ(a.stats.admitted_via_overlay, b.stats.admitted_via_overlay);
  EXPECT_EQ(a.stats.migrations, b.stats.migrations);
  EXPECT_EQ(a.stats.probes, b.stats.probes);
  EXPECT_EQ(a.stats.ranking_flips, b.stats.ranking_flips);
  EXPECT_EQ(a.stats.failover_repins, b.stats.failover_repins);
  // Regret is floating point, but folded per pair in global-pair-id order:
  // bitwise equality is the contract, not approximate equality.
  EXPECT_EQ(a.stats.regret_sum, b.stats.regret_sum);
  EXPECT_EQ(a.stats.regret_samples, b.stats.regret_samples);
  EXPECT_EQ(a.peak_concurrent, b.peak_concurrent);
  EXPECT_EQ(a.crossing_before, b.crossing_before);
  EXPECT_EQ(a.crossing_after, b.crossing_after);
  // Physical capacity is one book no matter how many shards keep accounts.
  EXPECT_EQ(a.global_nic_used_bps, b.global_nic_used_bps);
}

TEST(ServiceDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const ScenarioResult serial = run_scenario(/*shards=*/1, /*threads=*/1);
  const ScenarioResult parallel = run_scenario(/*shards=*/1, /*threads=*/4);
  expect_same_decisions(serial, parallel);
  // The workload actually exercised the paths being compared.
  EXPECT_GT(serial.stats.sessions_admitted, 500u);
  EXPECT_GT(serial.stats.probes, 0u);
}

TEST(ServiceFailover, AllSessionsOffFailedAdjacencyWithinOneInterval) {
  const ScenarioResult r = run_scenario(/*shards=*/1, /*threads=*/1);
  // The injected failure actually hit live sessions...
  EXPECT_GT(r.crossing_before, 0);
  // ...and one failover delay later none remained on the dead adjacency.
  EXPECT_EQ(r.crossing_after, 0);
  EXPECT_EQ(r.stats.failover_events, 1u);
  EXPECT_GT(r.stats.failover_repins, 0u);
  // Reaction time is the configured delay, within the advertised bound of
  // one probe interval.
  EXPECT_EQ(r.stats.last_failover_reaction, sim::Time::seconds(1));
  EXPECT_LE(r.stats.last_failover_reaction, sim::Time::seconds(10));
}

TEST(ServiceAdmission, OverlayReservationsNeverExceedNicCapacity) {
  // A tight NIC cap forces denials; the capacity invariant must hold at
  // the peak, not just at the end.
  const double cap = 2e6;
  const ScenarioResult r = run_scenario(/*shards=*/1, /*threads=*/1, cap);
  EXPECT_LE(r.global_nic_peak_bps, cap);
  EXPECT_GT(r.global_nic_peak_bps, 0.0);
  EXPECT_GT(r.overlay_denied, 0u);
  // Denied sessions still got service (direct fallback admits always).
  EXPECT_GT(r.stats.sessions_admitted, 500u);
}

TEST(ServiceAdmission, DirectPathAdmitsWhenEveryOverlayIsFull) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  BrokerConfig cfg;
  cfg.nic_capacity_bps = 1.0;  // nothing fits on any overlay NIC
  ShardedBroker broker(&world.internet(), &world.meter(), nullptr, overlays,
                       /*num_shards=*/1, cfg);
  const int pair = broker.register_pair(clients[0], servers[0]);
  broker.warm_up();
  const std::uint64_t id = broker.open_session(pair, 5e6);
  ASSERT_NE(id, SessionManager::kInvalidSession);
  const Session& s = broker.shard_sessions(broker.pair_shard(pair)).session(id);
  EXPECT_EQ(broker.pair(pair).candidates[s.candidate].kind,
            core::PathKind::kDirect);
  EXPECT_EQ(broker.global_nic().peak_used_bps(), 0.0);
}

TEST(PathRanker, EwmaSmoothsAndHysteresisDamsFlapping) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();
  const std::vector<int> overlays = {world.rent_paper_overlays()[0]};

  RankerConfig cfg;
  cfg.ewma_alpha = 1.0;  // no smoothing: isolate the hysteresis margin
  cfg.hysteresis = 0.10;
  PathRanker ranker(&world.internet(), cfg, overlays);
  const int idx = ranker.add_pair(clients[0], servers[0]);

  const auto sample = [&](double direct, double split) {
    core::PairSample s;
    s.src = clients[0];
    s.dst = servers[0];
    s.direct_bps = direct;
    core::OverlaySample o;
    o.overlay_ep = overlays[0];
    o.split_bps = split;
    s.overlays.push_back(o);
    return s;
  };

  // First probe: overlay wins outright (clears the 10% margin).
  EXPECT_TRUE(ranker.apply_sample(idx, sample(10.0, 20.0), sim::Time::seconds(1)));
  EXPECT_EQ(ranker.pair(idx).best, 1);
  // Challenger better but inside the margin: no flip (21 < 20 * 1.1).
  EXPECT_FALSE(ranker.apply_sample(idx, sample(21.0, 20.0), sim::Time::seconds(2)));
  EXPECT_EQ(ranker.pair(idx).best, 1);
  // Clearing the margin flips back (23 > 22).
  EXPECT_TRUE(ranker.apply_sample(idx, sample(23.0, 20.0), sim::Time::seconds(3)));
  EXPECT_EQ(ranker.pair(idx).best, 0);

  // With smoothing on, one outlier probe moves the score only by alpha.
  RankerConfig smooth;
  smooth.ewma_alpha = 0.3;
  PathRanker smoothed(&world.internet(), smooth, overlays);
  const int idx2 = smoothed.add_pair(clients[1], servers[0]);
  auto s1 = sample(10.0, 20.0);
  s1.src = clients[1];
  auto s2 = sample(100.0, 20.0);
  s2.src = clients[1];
  smoothed.apply_sample(idx2, s1, sim::Time::seconds(1));
  smoothed.apply_sample(idx2, s2, sim::Time::seconds(2));
  EXPECT_DOUBLE_EQ(smoothed.pair(idx2).candidates[0].score_bps,
                   0.3 * 100.0 + 0.7 * 10.0);
}

TEST(PathRanker, RegretInputsClampUnreachableCandidates) {
  // An unreachable direct path samples as a huge bogus number (the flow
  // model evaluates an empty path); the ranker must clamp it out of the
  // score, the history, and the oracle/pinned regret inputs.
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();
  const std::vector<int> overlays = {world.rent_paper_overlays()[0]};
  PathRanker ranker(&world.internet(), RankerConfig{}, overlays);
  const int idx = ranker.add_pair(clients[0], servers[0]);

  // Forge an invalid direct path by failing the adjacency it uses until no
  // route remains... simpler: point the candidate at an invalid PathRef.
  auto invalid = std::make_shared<topo::RouterPath>();  // valid = false
  ranker.pair(idx).candidates[0].path = invalid;

  core::PairSample s;
  s.src = clients[0];
  s.dst = servers[0];
  s.direct_bps = 3e11;  // the garbage an empty path samples as
  core::OverlaySample o;
  o.overlay_ep = overlays[0];
  o.split_bps = 5e6;
  s.overlays.push_back(o);
  ranker.apply_sample(idx, s, sim::Time::seconds(1));

  const PairState& p = ranker.pair(idx);
  EXPECT_EQ(p.candidates[0].last_bps, 0.0);
  EXPECT_EQ(p.history.direct.back(), 0.0);
  EXPECT_EQ(p.best, 1);
  EXPECT_DOUBLE_EQ(p.last_oracle_bps, 5e6);
  // The pin was the (unreachable) direct path at sample time: zero goodput.
  EXPECT_EQ(p.last_pinned_bps, 0.0);
}

TEST(ProbeScheduler, BudgetSelectsMostStaleFirst) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(4);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  PathRanker ranker(&world.internet(), RankerConfig{}, overlays);
  const int a = ranker.add_pair(clients[0], servers[0]);
  const int b = ranker.add_pair(clients[1], servers[0]);
  const int c = ranker.add_pair(clients[2], servers[0]);
  const int d = ranker.add_pair(clients[3], servers[0]);

  ProbeConfig cfg;
  cfg.interval = sim::Time::seconds(10);
  cfg.budget_per_tick = 2;
  ProbeScheduler sched(cfg);

  // b and d never probed; a stale; c fresh.
  ranker.pair(a).last_probe = sim::Time::seconds(5);
  ranker.pair(c).last_probe = sim::Time::seconds(19);
  std::vector<int> out;
  sched.select(ranker, sim::Time::seconds(20), &out);
  // Never-probed pairs are the most stale, in index order; budget cuts
  // the also-due `a`.
  EXPECT_EQ(out, (std::vector<int>{b, d}));
  EXPECT_EQ(sched.backlog(), 1u);

  // Once those two are probed (the broker stamps last_probe when applying
  // the sample), the backlog drains on the next tick.
  ranker.pair(b).last_probe = sim::Time::seconds(20);
  ranker.pair(d).last_probe = sim::Time::seconds(20);
  out.clear();
  sched.select(ranker, sim::Time::seconds(21), &out);
  EXPECT_EQ(out, std::vector<int>{a});
  EXPECT_EQ(sched.backlog(), 0u);
}

TEST(IncrementalReRank, DirtySetSweepsMatchFullScanBitwise) {
  // The dirty-set machinery (incremental probe scheduling + cached
  // admission orders) is a pure performance knob: the full-scan reference
  // run must agree decision for decision, bit for bit.
  const ScenarioResult inc = run_scenario(1, 1, 0.0, /*incremental=*/true);
  const ScenarioResult full = run_scenario(1, 1, 0.0, /*incremental=*/false);
  expect_same_decisions(inc, full);
  EXPECT_EQ(inc.stats.probe_ticks, full.stats.probe_ticks);
  // Same decisions, far less work: the stateless scan examines every pair
  // on every tick, the incremental sweep only the due prefix.
  EXPECT_GT(inc.stats.probe_ticks, 0u);
  EXPECT_LT(inc.stats.sweep_pairs_touched, full.stats.sweep_pairs_touched);
}

TEST(IncrementalReRank, CleanSteadyStateSweepTouchesZeroPairs) {
  // Warm-up probes every pair at t=0; with a 10 s staleness interval the
  // ticks at t=1..5 find a fully fresh fleet, and the incremental sweep
  // must notice that without examining a single pair.
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  ShardedBroker broker(&world.internet(), &world.meter(), nullptr, overlays,
                       /*num_shards=*/1, cfg);
  for (int c : clients) broker.register_pair(c, servers[0]);
  broker.warm_up();
  broker.run_until(sim::Time::seconds(5));
  EXPECT_GT(broker.stats().probe_ticks, 0u);
  EXPECT_EQ(broker.stats().sweep_pairs_touched, 0u);
  EXPECT_EQ(broker.last_sweep_touched(), 0u);
  // Once the interval elapses the whole fleet comes due again.
  broker.run_until(sim::Time::seconds(10));
  EXPECT_EQ(broker.last_sweep_touched(), clients.size());
}

TEST(IncrementalReRank, IncrementalSelectionMatchesStatelessScan) {
  // Same staleness state as the BudgetSelectsMostStaleFirst scenario, fed
  // through the ordered due set: identical selection, but last_scan()
  // counts only the due prefix.
  ProbeConfig cfg;
  cfg.interval = sim::Time::seconds(10);
  cfg.budget_per_tick = 2;
  ProbeScheduler sched(cfg);
  for (int i = 0; i < 4; ++i) sched.track_pair(i);
  // b(1) and d(3) never probed; a(0) stale; c(2) fresh.
  sched.on_probed(0, sim::Time::seconds(5));
  sched.on_probed(2, sim::Time::seconds(19));
  std::vector<int> out;
  sched.select_incremental(sim::Time::seconds(20), &out);
  EXPECT_EQ(out, (std::vector<int>{1, 3}));
  EXPECT_EQ(sched.backlog(), 1u);
  EXPECT_EQ(sched.last_scan(), 3u);  // the three due pairs, not all four

  sched.on_probed(1, sim::Time::seconds(20));
  sched.on_probed(3, sim::Time::seconds(20));
  out.clear();
  sched.select_incremental(sim::Time::seconds(21), &out);
  EXPECT_EQ(out, std::vector<int>{0});
  EXPECT_EQ(sched.backlog(), 0u);
  EXPECT_EQ(sched.last_scan(), 1u);

  // Fresh fleet: the due prefix is empty.
  sched.on_probed(0, sim::Time::seconds(21));
  out.clear();
  sched.select_incremental(sim::Time::seconds(22), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(sched.last_scan(), 0u);

  // age_all resets every pair to never-probed (adjacency restore).
  sched.age_all();
  out.clear();
  sched.select_incremental(sim::Time::seconds(22), &out);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));  // index order, budget 2
  EXPECT_EQ(sched.last_scan(), 4u);
}

TEST(IncrementalReRank, FailoverMarksExactlyTheAdjacentPairsDirty) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(12);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  PathRanker ranker(&world.internet(), RankerConfig{}, overlays);
  for (int c : clients) {
    for (int s : servers) ranker.add_pair(c, s);
  }
  // Clean every pair's cached order, then fail an adjacency some direct
  // path actually crosses.
  for (int i = 0; i < static_cast<int>(ranker.size()); ++i) {
    ranker.admission_order(i);
    ASSERT_FALSE(ranker.order_dirty(i));
  }
  const auto& seq = ranker.pair(0).candidates[0].path->as_seq;
  ASSERT_GE(seq.size(), 2u);
  const int as_a = seq[0], as_b = seq[1];
  // The ranker is told about a failure after the topology applied it: the
  // pairs holding paths the PathCache replaced are the ones to check.
  ASSERT_TRUE(world.internet().set_adjacency_up(as_a, as_b, false));
  std::vector<int> affected;
  ranker.mark_adjacency_down(as_a, as_b, &affected);
  ASSERT_FALSE(affected.empty());
  // Exactly the pairs with a candidate crossing (as_a, as_b) are dirty.
  std::vector<int> expected;
  for (int i = 0; i < static_cast<int>(ranker.size()); ++i) {
    const PairState& p = ranker.pair(i);
    bool crosses = false;
    for (const Candidate& c : p.candidates) {
      crosses = crosses ||
                (c.path && path_uses_adjacency(*c.path, as_a, as_b)) ||
                (c.leg2 && path_uses_adjacency(*c.leg2, as_a, as_b));
    }
    if (crosses) expected.push_back(i);
    EXPECT_EQ(ranker.order_dirty(i), crosses) << "pair " << i;
  }
  EXPECT_EQ(affected, expected);
  EXPECT_LT(expected.size(), ranker.size()) << "failure should not hit all";
}

TEST(PathRanker, AdmissionOrderMatchesRankedOrderAndCaches) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  PathRanker ranker(&world.internet(), RankerConfig{}, overlays);
  const int idx = ranker.add_pair(clients[0], servers[0]);

  core::PairSample s;
  s.src = clients[0];
  s.dst = servers[0];
  s.direct_bps = 10e6;
  for (std::size_t i = 0; i < overlays.size(); ++i) {
    core::OverlaySample o;
    o.overlay_ep = overlays[i];
    o.split_bps = 5e6 + 1e6 * static_cast<double>(i);
    s.overlays.push_back(o);
  }
  std::vector<int> reference;
  for (int probe = 0; probe < 3; ++probe) {
    s.direct_bps += 7e6;  // moves the ranking around
    ranker.apply_sample(idx, s, sim::Time::seconds(probe + 1));
    EXPECT_TRUE(ranker.order_dirty(idx));
    const std::uint64_t rebuilds = ranker.order_rebuilds();
    ranker.ranked_order(idx, &reference);
    EXPECT_EQ(ranker.admission_order(idx), reference);  // rebuilt
    EXPECT_EQ(ranker.admission_order(idx), reference);  // cached
    EXPECT_EQ(ranker.order_rebuilds(), rebuilds + 1);
    EXPECT_FALSE(ranker.order_dirty(idx));
  }
  EXPECT_GT(ranker.order_hits(), 0u);
}

TEST(InternetMutation, ListenersObserveEventsAndUnsubscribe) {
  wkld::World world(kWorldSeed);
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();

  std::vector<topo::Mutation> seen;
  const int id = net.add_mutation_listener(
      [&](const topo::Mutation& m) { seen.push_back(m); });

  topo::LinkEvent ev;
  ev.link_id = 0;
  ev.from = sim::Time::seconds(1);
  ev.until = sim::Time::seconds(2);
  ev.util_boost = 0.5;
  net.add_event(ev);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].kind, topo::Mutation::Kind::kTransientEvent);
  EXPECT_EQ(seen[0].event.link_id, 0);
  // An event is not route state: no interned path moved.
  EXPECT_EQ(net.path_cache().version(), 0u);

  // An adjacency flap delivers change + restore, after the PathCache has
  // re-expanded what moved.
  const auto path = net.cached_path(clients[0], servers[0]);
  ASSERT_TRUE(path->valid);
  ASSERT_GE(path->as_seq.size(), 2u);
  const int as_a = path->as_seq[0], as_b = path->as_seq[1];
  net.set_adjacency_up(as_a, as_b, false);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].kind, topo::Mutation::Kind::kAdjacencyChange);
  EXPECT_EQ(seen[1].as_a, as_a);
  EXPECT_EQ(seen[1].as_b, as_b);
  EXPECT_FALSE(seen[1].up);
  EXPECT_GE(net.path_cache().version(), 1u);

  // The PathCache already replaced the interned path before the listener
  // ran: a fresh query reroutes while the old ref stays readable.
  const auto rerouted = net.cached_path(clients[0], servers[0]);
  EXPECT_NE(rerouted.get(), path.get());
  EXPECT_TRUE(path->valid);  // stale, not dangling

  net.set_adjacency_up(as_a, as_b, true);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[2].up);

  net.remove_mutation_listener(id);
  net.add_event(ev);
  EXPECT_EQ(seen.size(), 3u);  // unsubscribed: no further deliveries
}

TEST(ShardedDeterminism, BitwiseIdenticalAcrossShardCounts) {
  const ScenarioResult one = run_scenario(/*shards=*/1, /*threads=*/1);
  const ScenarioResult four = run_scenario(/*shards=*/4, /*threads=*/1);
  const ScenarioResult eight = run_scenario(/*shards=*/8, /*threads=*/1);
  expect_same_decisions(one, four);
  expect_same_decisions(one, eight);
  // The workload actually exercised the paths being compared.
  EXPECT_GT(one.stats.sessions_admitted, 500u);
  EXPECT_GT(one.stats.probes, 0u);
  EXPECT_GT(one.stats.migrations, 0u);
}

TEST(ShardedDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const ScenarioResult serial = run_scenario(/*shards=*/8, /*threads=*/1);
  const ScenarioResult parallel = run_scenario(/*shards=*/8, /*threads=*/4);
  expect_same_decisions(serial, parallel);
}

TEST(ShardedDeterminism, ShardAssignmentIsPureAndDense) {
  // shard_of is a pure function of the endpoints — no registration-order
  // or seed dependence — and spreads a realistic pair population across
  // every shard.
  std::vector<int> hits(8, 0);
  for (int src = 0; src < 64; ++src) {
    for (int dst = 64; dst < 96; ++dst) {
      const int s = ShardedBroker::shard_of(src, dst, 8);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 8);
      ASSERT_EQ(s, ShardedBroker::shard_of(src, dst, 8));
      ++hits[static_cast<std::size_t>(s)];
    }
  }
  for (int s = 0; s < 8; ++s) EXPECT_GT(hits[static_cast<std::size_t>(s)], 0);
}

TEST(ShardedFailover, RepinsSpanShardBoundaries) {
  const ScenarioResult r = run_scenario(/*shards=*/8, /*threads=*/1);
  // The injected failure hit live sessions, and one failover delay later
  // none remained on the dead adjacency — across every shard.
  EXPECT_GT(r.crossing_before, 0);
  EXPECT_EQ(r.crossing_after, 0);
  EXPECT_EQ(r.stats.failover_events, 1u);
  EXPECT_GT(r.stats.failover_repins, 0u);
  EXPECT_EQ(r.stats.last_failover_reaction, sim::Time::seconds(1));
  // The busiest transit adjacency carries pairs owned by multiple shards,
  // so the coordinated failover must have repinned on at least two.
  int shards_with_repins = 0;
  for (const auto& ss : r.stats.shards) {
    if (ss.failover_repins > 0) ++shards_with_repins;
  }
  EXPECT_GE(shards_with_repins, 2);
}

TEST(ShardedAccounting, PerShardBooksSumToGlobalLedger) {
  const ScenarioResult r = run_scenario(/*shards=*/8, /*threads=*/1);
  double shard_sum = 0.0;
  std::uint64_t admitted = 0, released = 0, probes = 0;
  std::size_t pairs = 0;
  for (const auto& ss : r.stats.shards) {
    shard_sum += ss.nic_used_bps;
    admitted += ss.sessions_admitted;
    released += ss.sessions_released;
    probes += ss.probes;
    pairs += ss.pairs;
    // Every shard owns a slice of the pair space and did real work.
    EXPECT_GT(ss.pairs, 0u);
    EXPECT_GT(ss.probes, 0u);
  }
  EXPECT_GT(r.global_nic_used_bps, 0.0);
  EXPECT_NEAR(shard_sum, r.global_nic_used_bps,
              1e-9 * std::max(1.0, r.global_nic_used_bps));
  EXPECT_EQ(admitted, r.stats.sessions_admitted);
  EXPECT_EQ(released, r.stats.sessions_released);
  EXPECT_EQ(probes, r.stats.probes);
  EXPECT_EQ(pairs, std::size_t{12} * 10);  // clients x servers
  // The shared ledger's peak respects the per-VM cap at all times.
  EXPECT_GT(r.global_nic_peak_bps, 0.0);
}

TEST(ShardedAccounting, SessionIdsRouteToOwningShard) {
  wkld::World world(kWorldSeed);
  const auto clients = world.make_web_clients(4);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  ShardedBroker broker(&world.internet(), &world.meter(), /*pool=*/nullptr,
                       overlays, /*num_shards=*/8, scenario_config());
  std::vector<std::uint64_t> ids;
  for (int c : clients) {
    for (int s : servers) {
      const int g = broker.register_pair(c, s);
      const std::uint64_t id = broker.open_session(g, 1e6);
      // The id's top byte names the owning shard (tag = shard + 1).
      EXPECT_EQ(SessionManager::id_tag_of(id) - 1, broker.pair_shard(g));
      ids.push_back(id);
    }
  }
  EXPECT_EQ(broker.active_sessions(), ids.size());
  for (std::uint64_t id : ids) broker.close_session(id);
  EXPECT_EQ(broker.active_sessions(), 0u);
  // Stale and foreign-tagged ids are ignored, not misrouted.
  broker.close_session(ids.front());
  broker.close_session(0xff00000000000001ull);
  EXPECT_EQ(broker.active_sessions(), 0u);
}

}  // namespace
}  // namespace cronets::service
