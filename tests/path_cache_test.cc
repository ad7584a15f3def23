// The interning PathCache's contract: cached paths are structurally equal
// to fresh expansions across an endpoint mesh, pointer-stable, replaced
// exactly when a topology mutation moves their route, and deterministic
// under concurrent hammering. Also pins the memoized
// FlowModel::sample(PathRef) to a fresh model bit for bit — including after
// transient events, which reach the samples without rebuilding aggregates.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "model/flow_model.h"
#include "topo/internet.h"
#include "wkld/world.h"

namespace cronets {
namespace {

void expect_same_path(const topo::RouterPath& a, const topo::RouterPath& b) {
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.routers, b.routers);
  EXPECT_EQ(a.as_seq, b.as_seq);
  ASSERT_EQ(a.traversals.size(), b.traversals.size());
  for (std::size_t i = 0; i < a.traversals.size(); ++i) {
    EXPECT_EQ(a.traversals[i].link_id, b.traversals[i].link_id);
    EXPECT_EQ(a.traversals[i].forward, b.traversals[i].forward);
  }
}

std::vector<int> mesh_endpoints(wkld::World& world) {
  std::vector<int> eps = world.make_web_clients(5);
  for (int s : world.make_servers()) eps.push_back(s);
  for (int o : world.rent_paper_overlays()) eps.push_back(o);
  return eps;
}

TEST(PathCache, CachedEqualsFreshOverEndpointMesh) {
  wkld::World world(7);
  const std::vector<int> eps = mesh_endpoints(world);
  for (int src : eps) {
    for (int dst : eps) {
      if (src == dst) continue;
      const topo::PathRef cached = world.internet().cached_path(src, dst);
      const topo::RouterPath fresh = world.internet().path(src, dst);
      expect_same_path(*cached, fresh);
    }
  }
  auto& cache = world.internet().path_cache();
  EXPECT_EQ(cache.size(), cache.misses());
}

TEST(PathCache, RepeatLookupsInternOneObjectAndCountHits) {
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);
  const int src = eps.front(), dst = eps.back();

  auto& cache = net.path_cache();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  const topo::PathRef first = net.cached_path(src, dst);
  EXPECT_EQ(cache.misses(), m0 + 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(net.cached_path(src, dst).get(), first.get());
  }
  EXPECT_EQ(cache.hits(), h0 + 10);

  // Distinct ordered pairs intern distinct objects (forward != reverse).
  EXPECT_NE(net.cached_path(dst, src).get(), first.get());
}

// Snapshot of every interned (src, dst) path of the mesh.
std::vector<topo::PathRef> mesh_snapshot(topo::Internet& net,
                                         const std::vector<int>& eps) {
  std::vector<topo::PathRef> out;
  for (int src : eps)
    for (int dst : eps)
      if (src != dst) out.push_back(net.cached_path(src, dst));
  return out;
}

// After a mutation: every entry equals a fresh expansion, an entry kept its
// object iff its route did not move, and the moved-key log since
// `version_before` names exactly the replaced entries.
void expect_scoped_update(topo::Internet& net, const std::vector<int>& eps,
                          const std::vector<topo::PathRef>& before,
                          std::uint64_t version_before) {
  std::vector<std::uint64_t> replaced;
  std::size_t k = 0;
  for (int src : eps) {
    for (int dst : eps) {
      if (src == dst) continue;
      const topo::PathRef now = net.cached_path(src, dst);
      const topo::RouterPath fresh = net.path(src, dst);
      expect_same_path(*now, fresh);
      const topo::RouterPath& old = *before[k++];
      const bool moved = old.valid != fresh.valid || old.routers != fresh.routers ||
                         old.as_seq != fresh.as_seq;
      EXPECT_EQ(now.get() != before[k - 1].get(), moved) << src << "->" << dst;
      if (moved) replaced.push_back(topo::PathCache::key(src, dst));
    }
  }
  const auto log = net.path_cache().moved_since(version_before);
  std::vector<std::uint64_t> logged(log.begin(), log.end());
  std::sort(replaced.begin(), replaced.end());
  std::sort(logged.begin(), logged.end());
  EXPECT_EQ(logged, replaced);
}

TEST(PathCache, AdjacencyChangeReplacesOnlyMovedEntriesAndRefsStayUsable) {
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);
  const int src = eps.front(), dst = eps.back();

  const std::vector<topo::PathRef> mesh = mesh_snapshot(net, eps);
  const topo::PathRef before = net.cached_path(src, dst);
  ASSERT_TRUE(before->valid);
  ASSERT_GE(before->as_seq.size(), 2u);

  // Fail a BGP session on the cached route: the entries crossing it are
  // replaced, every other entry keeps its object.
  const std::uint64_t v0 = net.path_cache().version();
  ASSERT_TRUE(net.set_adjacency_up(before->as_seq[0], before->as_seq[1], false));
  EXPECT_GT(net.path_cache().version(), v0);
  expect_scoped_update(net, eps, mesh, v0);

  const topo::PathRef after = net.cached_path(src, dst);
  EXPECT_NE(after.get(), before.get());
  expect_same_path(*after, net.path(src, dst));
  // The stale ref still points at intact (pre-failure) data.
  EXPECT_TRUE(before->valid);

  ASSERT_TRUE(net.set_adjacency_up(before->as_seq[0], before->as_seq[1], true));
  expect_same_path(*net.cached_path(src, dst), *before);
}

TEST(PathCache, ConcurrentLookupsInternExactlyOneObjectPerPair) {
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);

  std::vector<std::pair<int, int>> pairs;
  for (int src : eps)
    for (int dst : eps)
      if (src != dst) pairs.emplace_back(src, dst);

  constexpr int kThreads = 4;
  std::vector<std::vector<const topo::RouterPath*>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Offset start so threads race on different pairs' first-inserts.
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& [src, dst] = pairs[(i + w * 17) % pairs.size()];
        net.cached_path(src, dst);
      }
      for (const auto& [src, dst] : pairs) {
        seen[w].push_back(net.cached_path(src, dst).get());
      }
    });
  }
  for (auto& t : workers) t.join();

  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(seen[w], seen[0]);  // one interned object per pair, all threads
  }
  EXPECT_EQ(net.path_cache().size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect_same_path(*net.cached_path(pairs[i].first, pairs[i].second),
                     net.path(pairs[i].first, pairs[i].second));
  }
}

TEST(PathCache, FlapStormWithListenerChurnKeepsCacheConsistent) {
  // A chaos-style flap storm: adjacencies bounce rapidly while mutation
  // listeners subscribe and unsubscribe mid-storm. After every bounce the
  // cache must hold fresh expansions, replace exactly the entries whose
  // route moved (and log their keys), and listeners must see exactly the
  // mutations delivered while they were subscribed.
  wkld::World world(7);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);

  // Flap targets: the first transit adjacencies of a few live routes.
  std::vector<std::pair<int, int>> flaps;
  for (std::size_t i = 0; i + 1 < eps.size() && flaps.size() < 3; i += 2) {
    const topo::PathRef p = net.cached_path(eps[i], eps[i + 1]);
    if (!p->valid || p->as_seq.size() < 2) continue;
    const std::pair<int, int> adj{p->as_seq[0], p->as_seq[1]};
    if (std::find(flaps.begin(), flaps.end(), adj) == flaps.end()) {
      flaps.push_back(adj);
    }
  }
  ASSERT_GE(flaps.size(), 2u);

  int early_seen = 0, late_seen = 0;
  const int early = net.add_mutation_listener(
      [&](const topo::Mutation& m) {
        EXPECT_EQ(m.kind, topo::Mutation::Kind::kAdjacencyChange);
        ++early_seen;
      });
  int late = -1;

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [a, b] : flaps) {
      for (const bool up : {false, true}) {
        const std::vector<topo::PathRef> mesh = mesh_snapshot(net, eps);
        const std::uint64_t v0 = net.path_cache().version();
        ASSERT_TRUE(net.set_adjacency_up(a, b, up));
        expect_scoped_update(net, eps, mesh, v0);  // synchronous, scoped
      }
    }
    // Listener churn mid-storm: the early listener leaves halfway, a late
    // one joins — neither unsubscription nor subscription may be missed.
    if (round == kRounds / 2 - 1) {
      net.remove_mutation_listener(early);
      late = net.add_mutation_listener(
          [&](const topo::Mutation& m) {
            EXPECT_EQ(m.kind, topo::Mutation::Kind::kAdjacencyChange);
            ++late_seen;
          });
    }
    // Mid-storm queries re-intern against the current routing state.
    const topo::PathRef q = net.cached_path(eps.front(), eps.back());
    expect_same_path(*q, net.path(eps.front(), eps.back()));
  }
  if (late >= 0) net.remove_mutation_listener(late);

  const int per_round = 2 * static_cast<int>(flaps.size());
  EXPECT_EQ(early_seen, per_round * (kRounds / 2));
  EXPECT_EQ(late_seen, per_round * (kRounds - kRounds / 2));

  // Storm over: every adjacency restored, cache rebuilds to fresh routes.
  for (int src : eps) {
    for (int dst : eps) {
      if (src == dst) continue;
      expect_same_path(*net.cached_path(src, dst), net.path(src, dst));
    }
  }
}

void expect_same_metrics(const model::PathMetrics& a, const model::PathMetrics& b) {
  // Exact comparison on purpose: samples must be bitwise identical.
  EXPECT_EQ(a.rtt_ms, b.rtt_ms);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(a.residual_bps, b.residual_bps);
  EXPECT_EQ(a.capacity_bps, b.capacity_bps);
  EXPECT_EQ(a.hop_count, b.hop_count);
}

TEST(PathAggregates, FastSampleMatchesFreshModelBitwise) {
  // A warm model (aggregates memoized, field memo filled by earlier paths
  // that share links) against a fresh model of the same seed, whose
  // aggregates and memo entries are all built cold.
  wkld::World world(11);
  const std::vector<int> eps = mesh_endpoints(world);
  for (int src : eps) {
    for (int dst : eps) {
      if (src == dst) continue;
      const topo::PathRef p = world.internet().cached_path(src, dst);
      for (const sim::Time t :
           {sim::Time::minutes(7), sim::Time::hours(3), sim::Time::hours(25)}) {
        const model::FlowModel fresh(&world.internet(), world.flow().seed());
        expect_same_metrics(world.flow().sample(p, t), fresh.sample(p, t));
      }
    }
  }
}

TEST(PathAggregates, TransientEventReachesSamplesWithoutRebuilds) {
  wkld::World world(11);
  auto& net = world.internet();
  const std::vector<int> eps = mesh_endpoints(world);
  const int src = eps.front(), dst = eps.back();
  const sim::Time t = sim::Time::hours(2);

  const topo::PathRef p = net.cached_path(src, dst);
  const model::PathMetrics calm = world.flow().sample(p, t);
  const auto agg = world.flow().aggregates(p);

  // Saturate the first traversed link inside a window covering t. Events
  // are read live through the fields: no path, aggregate or route moves.
  topo::LinkEvent ev;
  ev.link_id = p->traversals.front().link_id;
  ev.forward = p->traversals.front().forward;
  ev.from = sim::Time::hours(1);
  ev.until = sim::Time::hours(3);
  ev.util_boost = 0.5;
  net.add_event(ev);
  EXPECT_EQ(net.cached_path(src, dst).get(), p.get());
  EXPECT_EQ(world.flow().aggregates(p).get(), agg.get());
  EXPECT_EQ(net.path_cache().version(), 0u);

  // A model built after the mutation has never seen the calm aggregates,
  // nor shares the warm model's field memo: stale state in either shows.
  const model::FlowModel fresh(&net, world.flow().seed());
  const model::PathMetrics hot = world.flow().sample(p, t);
  expect_same_metrics(hot, fresh.sample(p, t));
  EXPECT_GT(hot.loss, calm.loss);
  EXPECT_LT(hot.residual_bps, calm.residual_bps);

  // Outside the window the event contributes nothing.
  expect_same_metrics(world.flow().sample(p, sim::Time::hours(4)),
                      fresh.sample(p, sim::Time::hours(4)));
}

}  // namespace
}  // namespace cronets
