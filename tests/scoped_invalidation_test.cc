// Scoped invalidation oracles: after every mutation of a chaos sequence
// (link flaps, a DC outage, restores, transient events), state that lived
// through the sequence must equal state rebuilt from scratch on the same
// mutated world, and only what a route move touched may have been redone.
//  - PathCache: every entry equals a fresh expansion over freshly computed
//    routing tables; unmoved entries keep their object; the moved-key log
//    names exactly the replaced entries.
//  - Meter: a long-lived ModelMeasurement's batches are bitwise equal to a
//    fresh FlowModel + ModelMeasurement's.
//  - Broker: every re-resolved candidate holds the current cache entries,
//    every current multi-hop chain is the plane's route.
// No production switch is involved: the references are fresh objects.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "chaos/injector.h"
#include "chaos/scenario.h"
#include "core/measure_model.h"
#include "model/flow_model.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "topo/internet.h"
#include "wkld/world.h"

namespace cronets {
namespace {

using topo::PathCache;
using topo::PathRef;

// One step of the chaos sequence: adjacency changes or one transient event.
struct Step {
  std::string what;
  std::vector<std::pair<int, int>> adjs;
  bool up = false;
  bool event = false;
  topo::Traversal hop{};  ///< event: the link direction it boosts
};

// A transit adjacency crossed by the first valid path of `probe` pairs,
// skipping `avoid`.
std::pair<int, int> crossed_transit(topo::Internet& net,
                                    const std::vector<std::pair<int, int>>& probe,
                                    const std::vector<std::pair<int, int>>& avoid) {
  for (const auto& [a, b] : probe) {
    const PathRef p = net.cached_path(a, b);
    if (!p->valid) continue;
    for (std::size_t i = 1; i + 1 < p->as_seq.size(); ++i) {
      const int u = p->as_seq[i], v = p->as_seq[i + 1];
      const auto t = [&](int as) {
        const auto tier = net.ases()[static_cast<std::size_t>(as)].tier;
        return tier == topo::Tier::kTier1 || tier == topo::Tier::kTier2;
      };
      const std::pair<int, int> adj{u, v};
      if (t(u) && t(v) &&
          std::find(avoid.begin(), avoid.end(), adj) == avoid.end()) {
        return adj;
      }
    }
  }
  return {-1, -1};
}

// Flap a transit adjacency, fail a client's access session, take one DC
// dark, then restore everything in a different order, with transient
// events in between.
std::vector<Step> chaos_sequence(topo::Internet& net,
                                 const std::vector<std::pair<int, int>>& probe,
                                 int client, int dc_ep) {
  std::vector<Step> steps;
  const auto t1 = crossed_transit(net, probe, {});
  const auto t2 = crossed_transit(net, probe, {t1});
  const PathRef access = net.cached_path(client, probe.back().second);
  const std::pair<int, int> edge{access->as_seq[0], access->as_seq[1]};
  const int dc_as = net.endpoint(dc_ep).as_id;
  std::vector<std::pair<int, int>> dc_adjs;
  for (const auto& adj : net.ases()[static_cast<std::size_t>(dc_as)].adj) {
    dc_adjs.emplace_back(dc_as, adj.nbr_as);
  }
  // A core link direction some path crosses, for the transient events.
  const topo::Traversal hop = access->traversals[access->traversals.size() / 2];
  steps.push_back({"transit flap down", {t1}, false, false});
  steps.push_back({"event", {}, false, true, hop});
  steps.push_back({"access down", {edge}, false, false});
  steps.push_back({"second transit down", {t2}, false, false});
  steps.push_back({"transit flap up", {t1}, true, false});
  steps.push_back({"dc outage", dc_adjs, false, false});
  steps.push_back({"event", {}, false, true, hop});
  steps.push_back({"access up", {edge}, true, false});
  steps.push_back({"dc restore", dc_adjs, true, false});
  steps.push_back({"second transit up", {t2}, true, false});
  return steps;
}

bool valid(const std::vector<Step>& steps) {
  for (const Step& s : steps) {
    for (const auto& [a, b] : s.adjs) {
      if (a < 0 || b < 0) return false;
    }
  }
  return true;
}

// Apply one step; adjacency changes are checked one at a time by `check`.
template <typename Check>
void apply(topo::Internet& net, const Step& s, int index, Check check) {
  if (s.event) {
    // Boost the link for the next hour.
    topo::LinkEvent ev;
    ev.link_id = s.hop.link_id;
    ev.forward = s.hop.forward;
    ev.from = sim::Time::minutes(10 * index);
    ev.until = sim::Time::minutes(10 * index + 60);
    ev.util_boost = 0.4;
    ev.loss_boost = 0.01;
    check([&] { net.add_event(ev); }, s.what);
    return;
  }
  for (const auto& [a, b] : s.adjs) {
    check([&, a = a, b = b] { ASSERT_TRUE(net.set_adjacency_up(a, b, s.up)); },
          s.what);
  }
}

std::vector<int> mesh(wkld::World& world) {
  std::vector<int> eps = world.make_web_clients(6);
  for (int s : world.make_servers()) eps.push_back(s);
  for (int o : world.rent_paper_overlays()) eps.push_back(o);
  return eps;
}

bool same_path(const topo::RouterPath& a, const topo::RouterPath& b) {
  if (a.valid != b.valid || a.as_seq != b.as_seq || a.routers != b.routers ||
      a.traversals.size() != b.traversals.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.traversals.size(); ++i) {
    if (a.traversals[i].link_id != b.traversals[i].link_id ||
        a.traversals[i].forward != b.traversals[i].forward) {
      return false;
    }
  }
  return true;
}

TEST(PathCacheOracle, ChaosSequenceKeepsEntriesFreshAndUnmovedEntriesIdentical) {
  wkld::World world(7);
  topo::Internet& net = world.internet();
  const std::vector<int> eps = mesh(world);
  const std::vector<int>& dcs = net.dc_endpoints();
  std::vector<std::pair<int, int>> keys;
  for (int a : eps)
    for (int b : eps)
      if (a != b) keys.emplace_back(a, b);
  std::vector<std::pair<int, int>> backbone;
  for (int a : dcs)
    for (int b : dcs)
      if (a != b) backbone.emplace_back(a, b);

  const auto snapshot = [&] {
    std::vector<PathRef> out;
    for (const auto& [a, b] : keys) out.push_back(net.cached_path(a, b));
    for (const auto& [a, b] : backbone) out.push_back(net.cached_backbone_path(a, b));
    return out;
  };
  snapshot();  // intern the mesh

  int mutations = 0;
  std::uint64_t moved_total = 0;
  const auto check = [&](auto mutate, const std::string& what) {
    const std::vector<PathRef> before = snapshot();
    const std::uint64_t v0 = net.path_cache().version();
    mutate();
    ++mutations;
    // Fresh routing tables computed from the mutated adjacency state: the
    // reference for every cached AS walk.
    topo::Routing fresh(&net.ases());
    std::vector<std::uint64_t> replaced;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto [a, b] = keys[k];
      const PathRef now = net.cached_path(a, b);
      const topo::RouterPath expanded = net.path(a, b);
      ASSERT_TRUE(same_path(*now, expanded)) << what << ": " << a << "->" << b;
      const std::vector<int> walk =
          fresh.as_path(net.endpoint(a).as_id, net.endpoint(b).as_id);
      EXPECT_EQ(now->valid ? now->as_seq : std::vector<int>{}, walk)
          << what << ": " << a << "->" << b;
      const bool moved = !same_path(*before[k], *now);
      EXPECT_EQ(now.get() != before[k].get(), moved) << what;
      if (moved) replaced.push_back(PathCache::key(a, b));
    }
    for (std::size_t k = 0; k < backbone.size(); ++k) {
      const auto [a, b] = backbone[k];
      // The private mesh reads no routing state: never re-expanded.
      EXPECT_EQ(net.cached_backbone_path(a, b).get(),
                before[keys.size() + k].get());
    }
    const auto log = net.path_cache().moved_since(v0);
    std::vector<std::uint64_t> logged(log.begin(), log.end());
    std::sort(replaced.begin(), replaced.end());
    std::sort(logged.begin(), logged.end());
    EXPECT_EQ(logged, replaced) << what;
    moved_total += logged.size();
  };

  const auto steps = chaos_sequence(net, keys, eps.front(), dcs[1]);
  ASSERT_TRUE(valid(steps));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    apply(net, steps[i], static_cast<int>(i), check);
  }
  EXPECT_GT(mutations, 10);
  EXPECT_GT(moved_total, 0u);
  // Scoped: far fewer entries moved than the cache held, summed over every
  // adjacency change.
  EXPECT_LT(moved_total, static_cast<std::uint64_t>(mutations) * keys.size() / 4);
}

void expect_samples_equal(const core::PairSample& a, const core::PairSample& b) {
  EXPECT_EQ(a.direct_bps, b.direct_bps);
  EXPECT_EQ(a.direct_rtt_ms, b.direct_rtt_ms);
  EXPECT_EQ(a.direct_loss, b.direct_loss);
  EXPECT_EQ(a.direct_hops, b.direct_hops);
  ASSERT_EQ(a.overlays.size(), b.overlays.size());
  for (std::size_t o = 0; o < a.overlays.size(); ++o) {
    EXPECT_EQ(a.overlays[o].overlay_ep, b.overlays[o].overlay_ep);
    EXPECT_EQ(a.overlays[o].plain_bps, b.overlays[o].plain_bps);
    EXPECT_EQ(a.overlays[o].split_bps, b.overlays[o].split_bps);
    EXPECT_EQ(a.overlays[o].discrete_bps, b.overlays[o].discrete_bps);
    EXPECT_EQ(a.overlays[o].leg1_bps, b.overlays[o].leg1_bps);
    EXPECT_EQ(a.overlays[o].leg2_bps, b.overlays[o].leg2_bps);
    EXPECT_EQ(a.overlays[o].rtt_ms, b.overlays[o].rtt_ms);
    EXPECT_EQ(a.overlays[o].loss, b.overlays[o].loss);
  }
}

TEST(BatchMeasureOracle, LongLivedMeterEqualsFreshMeterAfterEveryMutation) {
  wkld::World world(5, topo::TopologyParams{}, topo::CloudParams{},
                    sim::Parallelism{4});
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(8);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();
  std::vector<std::pair<int, int>> pairs;
  for (int c : clients)
    for (int s : servers) pairs.emplace_back(c, s);
  std::vector<core::PairSample> lived(pairs.size()), fresh(pairs.size());
  const core::ModelMeasurement& meter = world.meter();
  // The long-lived meter measures on the pool, so every mutation (events
  // included) lands between parallel batches, where the thread sanitizer
  // can check it.
  const std::size_t batch = 8;
  const auto pooled = [&](sim::Time t) {
    world.pool().parallel_for((pairs.size() + batch - 1) / batch,
                              [&](std::size_t b) {
                                const std::size_t lo = b * batch;
                                meter.measure_batch(
                                    pairs.data() + lo,
                                    std::min(batch, pairs.size() - lo),
                                    overlays, t, lived.data() + lo);
                              });
  };
  pooled(sim::Time::minutes(1));

  int step = 0;
  const auto check = [&](auto mutate, const std::string& what) {
    const std::uint64_t cold0 = meter.plan_stats().cold_batches;
    const std::uint64_t v0 = net.path_cache().version();
    mutate();
    ++step;
    const sim::Time t = sim::Time::minutes(10 * step + 5);  // inside events
    pooled(t);
    model::FlowModel flow(&net, world.flow().seed());
    const core::ModelMeasurement reference(&net, &flow, world.seed());
    reference.measure_batch(pairs.data(), pairs.size(), overlays, t,
                            fresh.data());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      SCOPED_TRACE(what + " pair " + std::to_string(i));
      expect_samples_equal(lived[i], fresh[i]);
    }
    // Nothing moved (an event, or a change no interned path crossed): the
    // long-lived plans stay warm.
    if (net.path_cache().version() == v0) {
      EXPECT_EQ(meter.plan_stats().cold_batches, cold0) << what;
    }
  };

  const auto steps = chaos_sequence(net, pairs, clients.front(),
                                    net.dc_endpoints()[1]);
  ASSERT_TRUE(valid(steps));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    apply(net, steps[i], static_cast<int>(i), check);
  }
  const core::ModelMeasurement::PlanStats ps = meter.plan_stats();
  EXPECT_GT(ps.dropped_legs + ps.dropped_directs, 0u);
}

TEST(PathCacheOracle, TransientEventLeavesRouteStateAloneAndSamplesSeeIt) {
  wkld::World world(11);
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(2);
  const auto servers = world.make_servers();
  const PathRef p = net.cached_path(clients[0], servers[0]);
  const auto agg = world.flow().aggregates(p);
  const sim::Time t = sim::Time::hours(2);
  const model::PathMetrics calm = world.flow().sample(p, t);

  topo::LinkEvent ev;
  ev.link_id = p->traversals[1].link_id;
  ev.forward = p->traversals[1].forward;
  ev.from = sim::Time::hours(1);
  ev.until = sim::Time::hours(3);
  ev.util_boost = 0.5;
  ev.loss_boost = 0.02;
  net.add_event(ev);

  EXPECT_EQ(net.path_cache().version(), 0u);
  EXPECT_EQ(net.cached_path(clients[0], servers[0]).get(), p.get());
  EXPECT_EQ(world.flow().aggregates(p).get(), agg.get());
  ASSERT_EQ(net.link_events(ev.link_id, ev.forward).size(), 1u);
  EXPECT_TRUE(net.link_events(ev.link_id, !ev.forward).empty());

  const model::PathMetrics hot = world.flow().sample(p, t);
  EXPECT_GT(hot.loss, calm.loss);
  const model::FlowModel fresh(&net, world.flow().seed());
  EXPECT_EQ(hot.loss, fresh.sample(p, t).loss);
  EXPECT_EQ(hot.rtt_ms, fresh.sample(p, t).rtt_ms);
  EXPECT_EQ(hot.residual_bps, fresh.sample(p, t).residual_bps);
}

TEST(ShardedScopedInvalidation, CandidatesTrackCacheAndPlaneThroughChaos) {
  wkld::World world(42);
  topo::Internet& net = world.internet();
  const auto clients = world.make_web_clients(10);
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();
  route::RouteConfig rcfg;
  rcfg.policy = route::Policy::kDelay;
  rcfg.round_interval = sim::Time::milliseconds(500);
  route::RoutePlane plane(&net, &world.flow(), world.seed(), rcfg);

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(6);
  cfg.probe.tick = sim::Time::seconds(1);
  const std::size_t n = clients.size() * servers.size();
  cfg.probe.budget_per_tick = static_cast<int>((n + 5) / 6);
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.route_plane = &plane;
  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                /*num_shards=*/3, cfg);
  for (int c : clients)
    for (int s : servers) broker.register_pair(c, s);
  broker.warm_up();

  chaos::ScenarioParams sp;
  sp.horizon = sim::Time::seconds(60);
  sp.link_flaps = 6;
  sp.dc_outages = 2;
  sp.congestion_storms = 2;
  sp.gray_failures = 2;
  sp.mean_repair_s = 5.0;
  sp.min_repair_s = 3.0;
  const auto scenario = chaos::Scenario::generate(net, sp, world.seed(), 17);
  chaos::Injector injector(&net, &broker.queue());
  injector.arm(scenario);

  // After the scenario, a failure that moves a pair's leg to a VM but
  // neither its direct path nor the VM's leg to the destination: only the
  // leg-1 index can mark that pair.
  int cut_a = -1, cut_b = -1;
  for (std::size_t i = 0; i < clients.size() && cut_a < 0; ++i) {
    const int c = clients[i], s = servers.front();
    const PathRef direct = net.cached_path(c, s);
    for (const int o : overlays) {
      const PathRef l1 = net.cached_path(c, o), l2 = net.cached_path(o, s);
      for (std::size_t k = 0; cut_a < 0 && k + 1 < l1->as_seq.size(); ++k) {
        const int u = l1->as_seq[k], v = l1->as_seq[k + 1];
        if (!service::path_uses_adjacency(*direct, u, v) &&
            !service::path_uses_adjacency(*l2, u, v)) {
          cut_a = u;
          cut_b = v;
        }
      }
      if (cut_a >= 0) break;
    }
  }
  ASSERT_GE(cut_a, 0);
  broker.queue().schedule(sim::Time::milliseconds(62500), [&] {
    ASSERT_TRUE(net.set_adjacency_up(cut_a, cut_b, false));
  });
  broker.queue().schedule(sim::Time::milliseconds(66500), [&] {
    ASSERT_TRUE(net.set_adjacency_up(cut_a, cut_b, true));
  });

  std::uint64_t checked_pairs = 0, current_chains = 0;
  const auto check_candidates = [&] {
    for (std::size_t g = 0; g < broker.pair_count(); ++g) {
      const service::PairState& p = broker.pair(static_cast<int>(g));
      if (p.paths_stale) continue;  // re-resolved at its next sample
      ++checked_pairs;
      for (const service::Candidate& c : p.candidates) {
        if (c.kind == core::PathKind::kDirect) {
          EXPECT_EQ(c.path.get(), net.cached_path(p.src, p.dst).get());
          continue;
        }
        EXPECT_EQ(c.path.get(), net.cached_path(p.src, c.overlay_ep).get());
        const int exit = c.kind == core::PathKind::kMultiHop ? c.exit_ep
                                                              : c.overlay_ep;
        EXPECT_EQ(c.leg2.get(), net.cached_path(exit, p.dst).get());
        if (c.kind != core::PathKind::kMultiHop) continue;
        ASSERT_NE(c.chain, nullptr);
        if (c.chain->route_ver != plane.pair_route_version(c.exit_ep)) continue;
        ++current_chains;
        std::vector<int> via;
        plane.route(c.overlay_ep, c.exit_ep, &via);
        EXPECT_EQ(c.via(), via);
      }
    }
  };
  for (int s = 1; s <= 80; ++s) {
    broker.run_until(sim::Time::seconds(s));
    check_candidates();
  }
  EXPECT_EQ(injector.begun(), scenario.faults().size());
  // Quiet for a whole probe interval since the last mutation: every pair
  // has been sampled, so none still holds a replaced path.
  for (std::size_t g = 0; g < broker.pair_count(); ++g) {
    EXPECT_FALSE(broker.pair(static_cast<int>(g)).paths_stale) << g;
  }
  EXPECT_GT(checked_pairs, 0u);
  EXPECT_GT(current_chains, 0u);
  std::uint64_t refreshed = 0;
  for (int s = 0; s < broker.num_shards(); ++s) {
    refreshed += broker.shard_ranker(s).pairs_refreshed();
  }
  EXPECT_GT(refreshed, 0u);
  EXPECT_LT(refreshed, n * 8);  // not every pair after every change
}

}  // namespace
}  // namespace cronets
