// The routing plane's contract: the delay policy converges to (near)
// shortest-delay routes under the hop bound on a pathological backbone
// where detours genuinely win; hysteresis damps metric-chatter flaps;
// the backpressure policy keeps its virtual queues bounded when drain
// capacity exceeds arrivals; DC outages propagate through the Internet's
// mutation listeners (routes withdrawn while dark, restored after); a via
// chain through a DC the broker does not rent is never admitted; and
// every routing table and broker decision is bitwise identical across
// measurement thread counts and broker shard counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chaos/injector.h"
#include "chaos/scenario.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "sim/thread_pool.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

namespace cronets::route {
namespace {

constexpr std::uint64_t kSeed = 42;

/// A backbone mesh that violates the triangle inequality: detour factors
/// up to 3x make some direct edges slower than two-hop chains, so the
/// delay policy has real k >= 2 routes to find.
topo::CloudParams pathological_cloud() {
  topo::CloudParams cp;
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

void warm(RoutePlane* plane, int rounds, int offset_s = 0) {
  for (int k = 0; k < rounds; ++k) {
    plane->step(sim::Time::seconds(offset_s + k + 1));
  }
}

/// Hop-bounded Bellman-Ford over the graph's latched delays (the metric
/// the policy actually reads) — the centralized reference the distributed
/// exchange must approach.
std::vector<double> bf_distances(const OverlayGraph& g, int max_hops) {
  const int n = g.size();
  std::vector<double> dist(static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n),
                           kInfMetric);
  for (int i = 0; i < n; ++i) dist[static_cast<std::size_t>(i * n + i)] = 0.0;
  for (int hop = 0; hop < max_hops; ++hop) {
    std::vector<double> next = dist;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j || !g.node_up(i) || !g.node_up(j) || !g.edge_measured(i, j))
          continue;
        const double w = g.metric_delay_ms(i, j);
        for (int d = 0; d < n; ++d) {
          const double via = w + dist[static_cast<std::size_t>(j * n + d)];
          double& cur = next[static_cast<std::size_t>(i * n + d)];
          cur = std::min(cur, via);
        }
      }
    }
    dist = std::move(next);
  }
  return dist;
}

TEST(RoutePlane, DelayPolicyConvergesTowardShortestRoutes) {
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
  RouteConfig cfg;
  cfg.policy = Policy::kDelay;
  cfg.hysteresis = 0.0;  // exact chase: no damping slack in this test
  RoutePlane plane(&world.internet(), &world.flow(), world.seed(), cfg);
  warm(&plane, 16);

  const OverlayGraph& g = plane.graph();
  const int n = g.size();
  ASSERT_GE(n, 3);
  const std::vector<double> dist = bf_distances(g, cfg.max_hops);

  int multi_hop_routes = 0;
  std::vector<int> via;
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < n; ++d) {
      if (i == d) continue;
      const RouteEntry& e =
          plane.agents()[static_cast<std::size_t>(i)]
              .table[static_cast<std::size_t>(d)];
      ASSERT_GE(e.next, 0) << "no route " << i << " -> " << d;
      EXPECT_LE(e.hops, cfg.max_hops);
      if (e.hops >= 2) ++multi_hop_routes;

      // The composed chain must be loop-free, hop-bounded, and its total
      // current delay within a noise margin of the centralized optimum
      // (the table lags the newest EWMAs by one exchange round).
      ASSERT_TRUE(plane.route(g.node_ep(i), g.node_ep(d), &via));
      ASSERT_GE(via.size(), 2u);
      EXPECT_EQ(via.front(), g.node_ep(i));
      EXPECT_EQ(via.back(), g.node_ep(d));
      EXPECT_LE(static_cast<int>(via.size()) - 1, cfg.max_hops);
      double chain = 0.0;
      for (std::size_t h = 0; h + 1 < via.size(); ++h) {
        const int a = g.node_of_ep(via[h]);
        const int b = g.node_of_ep(via[h + 1]);
        ASSERT_NE(a, b);
        ASSERT_TRUE(g.edge_measured(a, b));
        chain += g.metric_delay_ms(a, b);
      }
      const double best = dist[static_cast<std::size_t>(i * n + d)];
      ASSERT_LT(best, kInfMetric);
      EXPECT_LE(chain, best * 1.25 + 1e-9)
          << "route " << i << " -> " << d << " far from optimal";
    }
  }
  // The pathological mesh must make some detours genuinely shortest.
  EXPECT_GT(multi_hop_routes, 0);
  EXPECT_GE(plane.convergence_round(), 0);
}

TEST(RoutePlane, HysteresisDampsFlaps) {
  wkld::World world_a(kSeed, topo::TopologyParams{}, pathological_cloud());
  wkld::World world_b(kSeed, topo::TopologyParams{}, pathological_cloud());

  RouteConfig chase;
  chase.policy = Policy::kDelay;
  chase.hysteresis = 0.0;
  RoutePlane plane_chase(&world_a.internet(), &world_a.flow(), world_a.seed(),
                         chase);

  RouteConfig damped;
  damped.policy = Policy::kDelay;
  damped.hysteresis = 0.25;
  RoutePlane plane_damped(&world_b.internet(), &world_b.flow(),
                          world_b.seed(), damped);

  warm(&plane_chase, 40);
  warm(&plane_damped, 40);

  // Same worlds, same measurement noise: the only difference is damping.
  EXPECT_LE(plane_damped.flaps(), plane_chase.flaps());
  EXPECT_EQ(plane_chase.rounds(), 40);
  EXPECT_EQ(plane_damped.rounds(), 40);
}

TEST(RoutePlane, BackpressureQueuesStayBounded) {
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
  RouteConfig cfg;
  cfg.policy = Policy::kBackpressure;
  RoutePlane plane(&world.internet(), &world.flow(), world.seed(), cfg);

  const int rounds = 40;
  double peak_queue = 0.0;
  for (int k = 0; k < rounds; ++k) {
    plane.step(sim::Time::seconds(k + 1));
    for (const RoutingAgent& a : plane.agents()) {
      for (double q : a.queue) peak_queue = std::max(peak_queue, q);
    }
  }
  // Drain capacity exceeds the arrival rate on every healthy edge, so the
  // virtual queues must stay near empty instead of growing with rounds —
  // the stability half of the backpressure guarantee.
  EXPECT_LT(peak_queue, cfg.bp_arrival * 20.0);
  EXPECT_GT(plane.rounds(), 0);

  // Spot-check table sanity: installed next-hops are real node indices.
  const int n = plane.graph().size();
  for (const RoutingAgent& a : plane.agents()) {
    for (int d = 0; d < n; ++d) {
      const RouteEntry& e = a.table[static_cast<std::size_t>(d)];
      if (d == a.node || e.next < 0) continue;
      EXPECT_LT(e.next, n);
      EXPECT_NE(e.next, a.node);
    }
  }
}

TEST(RoutePlane, DcOutageWithdrawsAndRestoresRoutes) {
  wkld::World world(kSeed);
  auto& net = world.internet();
  RouteConfig cfg;
  cfg.policy = Policy::kDelay;
  RoutePlane plane(&net, &world.flow(), world.seed(), cfg);
  warm(&plane, 8);

  const OverlayGraph& g = plane.graph();
  const int tok = net.dc_endpoint("tok");
  const int down = g.node_of_ep(tok);
  ASSERT_GE(down, 0);
  ASSERT_TRUE(g.node_up(down));

  std::vector<int> via;
  ASSERT_TRUE(plane.route(net.dc_endpoint("wdc"), tok, &via));

  // Take the DC dark exactly the way the chaos injector does: every BGP
  // adjacency of its cloud AS goes down through the production mutation
  // path, which must reach the graph via its listener — no polling.
  const std::uint64_t epoch_before = g.liveness_epoch();
  const std::uint64_t version_before = plane.route_version();
  const int dc_as = net.endpoint(tok).as_id;
  std::vector<std::pair<int, int>> downed;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(dc_as)].adj) {
    if (adj.up) downed.emplace_back(dc_as, adj.nbr_as);
  }
  ASSERT_FALSE(downed.empty());
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, false);

  EXPECT_GT(g.liveness_epoch(), epoch_before);
  EXPECT_GT(plane.route_version(), version_before);
  EXPECT_FALSE(g.node_up(down));
  EXPECT_FALSE(plane.route(net.dc_endpoint("wdc"), tok, &via));

  // After the next exchange round no surviving route may thread through
  // the dark DC.
  warm(&plane, 2, /*offset_s=*/8);
  const auto& eps = net.dc_endpoints();
  for (int a : eps) {
    for (int b : eps) {
      if (a == b || a == tok || b == tok) continue;
      ASSERT_TRUE(plane.route(a, b, &via));
      for (int ep : via) EXPECT_NE(ep, tok);
    }
  }

  // Restore: liveness flips back and routes to the DC re-form within a
  // couple of rounds (its edges were still measured while it was dark).
  for (const auto& [a, b] : downed) net.set_adjacency_up(a, b, true);
  EXPECT_TRUE(g.node_up(down));
  warm(&plane, 2, /*offset_s=*/10);
  EXPECT_TRUE(plane.route(net.dc_endpoint("wdc"), tok, &via));
  EXPECT_EQ(via.back(), tok);
}

// Replays a seeded chaos timeline (DC outages + a link-flap/storm mix)
// against two planes on the SAME world — one incremental, one running the
// full-recompute reference — and asserts the table fingerprints are
// bitwise identical at every round index. The window crosses fault begins,
// fault ends, periodic full refreshes, and plain quiescent rounds, so the
// delta path is exercised on every kind of round the plane has.
TEST(RoutePlane, IncrementalMatchesFullUnderChaos) {
  for (const Policy policy : {Policy::kDelay, Policy::kBackpressure}) {
    wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud());
    auto& net = world.internet();

    sim::EventQueue queue;
    chaos::ScenarioParams sp;
    sp.horizon = sim::Time::seconds(48);
    sp.link_flaps = 6;  // flap storm: several overlapping adjacency flaps
    sp.dc_outages = 2;
    sp.congestion_storms = 3;
    sp.gray_failures = 2;
    sp.mean_repair_s = 8.0;
    sp.min_repair_s = 3.0;
    const chaos::Scenario scenario =
        chaos::Scenario::generate(net, sp, kSeed, /*scenario_seed=*/7);
    chaos::Injector injector(&net, &queue);
    injector.arm(scenario);

    RouteConfig inc_cfg;
    inc_cfg.policy = policy;
    inc_cfg.incremental = true;
    inc_cfg.full_refresh_rounds = 16;  // several refreshes inside the window
    RouteConfig full_cfg = inc_cfg;
    full_cfg.incremental = false;
    // Both planes observe the same mutation timeline through their own
    // listeners; measurements are keyed on (seed, pair, t), so sharing the
    // world cannot couple them.
    RoutePlane inc(&net, &world.flow(), world.seed(), inc_cfg);
    RoutePlane full(&net, &world.flow(), world.seed(), full_cfg);

    const int rounds = 48;
    for (int k = 0; k < rounds; ++k) {
      const sim::Time t = sim::Time::seconds(k + 1);
      while (queue.next_time() <= t) queue.run_next();
      inc.step(t);
      full.step(t);
      ASSERT_EQ(inc.table_fingerprint(), full.table_fingerprint())
          << policy_name(policy) << " diverged at round " << k + 1;
    }
    EXPECT_GT(injector.begun(), 0u);

    // Identical change trajectories...
    EXPECT_EQ(inc.flaps(), full.flaps()) << policy_name(policy);
    EXPECT_EQ(inc.deltas_total(), full.deltas_total()) << policy_name(policy);
    EXPECT_EQ(inc.graph().edges_probed_total(),
              full.graph().edges_probed_total())
        << policy_name(policy);
    // ...for strictly less exchange work on the delay policy. Backpressure
    // has no incremental path (its queues move every round), so both
    // modes recompute every entry.
    if (policy == Policy::kDelay) {
      EXPECT_LT(inc.entries_recomputed_total(),
                full.entries_recomputed_total());
    } else {
      EXPECT_EQ(inc.entries_recomputed_total(),
                full.entries_recomputed_total());
    }
    // The probe budget must have bitten: far fewer probes than rounds * E.
    const int n = inc.graph().size();
    EXPECT_LT(inc.graph().edges_probed_total(),
              static_cast<std::uint64_t>(rounds) *
                  static_cast<std::uint64_t>(n) *
                  static_cast<std::uint64_t>(n - 1))
        << policy_name(policy);
  }
}

struct ControlResult {
  std::uint64_t decision_fp = 0;
  std::uint64_t table_fp = 0;
  std::uint64_t admitted = 0;
  /// Multi-hop candidates whose current via chain crosses a DC the broker
  /// does not rent, and live sessions reserved on such a DC.
  int unrented_chains = 0;
  int sessions_on_unrented = 0;
};

/// One full control-plane run with the plane wired into the ranker, on a
/// ShardedBroker with `num_shards` shards; threads only affects
/// measurement fan-out. The broker rents every DC the plane spans, or
/// with `rent_all` false only the paper's five, so plane routes can cross
/// DCs it holds no VM in. Every field must be a pure function of the seed.
ControlResult run_control(Policy policy, int num_shards, int threads,
                          bool rent_all = true) {
  wkld::World world(kSeed, topo::TopologyParams{}, pathological_cloud(),
                    sim::Parallelism{threads});
  auto& net = world.internet();
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays =
      rent_all ? world.rent_all_overlays() : world.rent_paper_overlays();

  RouteConfig rcfg;
  rcfg.policy = policy;
  rcfg.round_interval = sim::Time::seconds(1);
  RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(10);
  cfg.probe.tick = sim::Time::seconds(1);
  cfg.probe.budget_per_tick = 16;
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.route_plane = &plane;
  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                num_shards, cfg);

  wkld::SessionChurnParams churn_params;
  churn_params.seed = kSeed ^ 0x90f7e5;
  churn_params.target_concurrent = 100;
  churn_params.mean_duration_s = 15.0;
  churn_params.horizon = sim::Time::seconds(30);
  wkld::SessionChurn churn(&broker, clients, servers, churn_params);
  churn.start();
  broker.warm_up();
  broker.run_until(churn_params.horizon);

  ControlResult r;
  const auto st = broker.stats();
  r.decision_fp = st.decision_fingerprint;
  r.admitted = st.sessions_admitted;
  r.table_fp = plane.table_fingerprint();
  const auto unrented = [&](const std::vector<int>& eps) {
    return std::any_of(eps.begin(), eps.end(), [&](int ep) {
      return std::find(overlays.begin(), overlays.end(), ep) == overlays.end();
    });
  };
  for (std::size_t g = 0; g < broker.pair_count(); ++g) {
    for (const auto& c : broker.pair(static_cast<int>(g)).candidates) {
      if (c.kind == core::PathKind::kMultiHop && unrented(c.via())) {
        ++r.unrented_chains;
      }
    }
  }
  for (int s = 0; s < broker.num_shards(); ++s) {
    broker.shard_sessions(s).for_each_live(
        [&](std::uint64_t, const service::Session& sess) {
          if (unrented(sess.reserved_eps)) ++r.sessions_on_unrented;
        });
  }
  return r;
}

TEST(RoutePlane, DecisionsBitwiseInvariantAcrossThreadsAndShards) {
  for (const Policy policy : {Policy::kDelay, Policy::kBackpressure}) {
    const ControlResult t1 = run_control(policy, /*num_shards=*/1, 1);
    const ControlResult t4 = run_control(policy, /*num_shards=*/1, 4);
    const ControlResult s4 = run_control(policy, /*num_shards=*/4, 4);

    EXPECT_GT(t1.admitted, 0u);
    EXPECT_EQ(t1.decision_fp, t4.decision_fp) << policy_name(policy);
    EXPECT_EQ(t1.table_fp, t4.table_fp) << policy_name(policy);
    EXPECT_EQ(t1.decision_fp, s4.decision_fp) << policy_name(policy);
    EXPECT_EQ(t1.table_fp, s4.table_fp) << policy_name(policy);
    EXPECT_EQ(t1.admitted, s4.admitted) << policy_name(policy);
  }
}

TEST(RoutePlane, ChainsThroughUnrentedDcsAreNeverAdmitted) {
  // A plane spanning every DC under a broker renting only the paper's five:
  // some via chains detour through a DC with no rented VM, and admission
  // must treat those chains as inadmissible rather than reserve NIC
  // capacity nobody holds.
  const ControlResult r = run_control(Policy::kDelay, /*num_shards=*/1, 1,
                                      /*rent_all=*/false);
  EXPECT_GT(r.admitted, 0u);
  EXPECT_GT(r.unrented_chains, 0);
  EXPECT_EQ(r.sessions_on_unrented, 0);
}

}  // namespace
}  // namespace cronets::route
