// The batched SoA measurement kernel's contract: batching is a pure
// performance knob. model::BatchSampler and the batched meter entry points
// must be bitwise identical to the scalar sampler at every batch size
// (including 1 and ragged tails), at every thread count, and across
// topology mutations that force paths to be re-interned.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "model/batch_sampler.h"
#include "sim/rng.h"
#include "wkld/experiments.h"
#include "wkld/world.h"

namespace cronets {
namespace {

topo::TopologyParams small_params(std::uint64_t seed = 42) {
  topo::TopologyParams p;
  p.seed = seed;
  p.num_tier1 = 8;
  p.num_tier2 = 24;
  p.num_stubs = 80;
  return p;
}

struct Populations {
  std::vector<int> clients;
  std::vector<int> servers;
  std::vector<int> overlays;
};

Populations make_populations(wkld::World& world, int num_clients = 10) {
  return Populations{world.make_web_clients(num_clients), world.make_servers(),
                     world.rent_paper_overlays()};
}

// Every path a probe sweep touches: direct plus both overlay legs.
std::vector<topo::PathRef> sweep_paths(wkld::World& world, const Populations& p) {
  std::vector<topo::PathRef> paths;
  for (int s : p.servers) {
    for (int c : p.clients) {
      paths.push_back(world.internet().cached_path(s, c));
      for (int o : p.overlays) {
        paths.push_back(world.internet().cached_path(s, o));
        paths.push_back(world.internet().cached_path(o, c));
      }
    }
  }
  return paths;
}

void expect_metrics_equal(const model::PathMetrics& a, const model::PathMetrics& b,
                          const char* what) {
  EXPECT_EQ(a.rtt_ms, b.rtt_ms) << what;
  EXPECT_EQ(a.loss, b.loss) << what;
  EXPECT_EQ(a.residual_bps, b.residual_bps) << what;
  EXPECT_EQ(a.capacity_bps, b.capacity_bps) << what;
  EXPECT_EQ(a.hop_count, b.hop_count) << what;
}

void expect_pair_samples_equal(const core::PairSample& a, const core::PairSample& b) {
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.direct_bps, b.direct_bps);
  EXPECT_EQ(a.direct_rtt_ms, b.direct_rtt_ms);
  EXPECT_EQ(a.direct_loss, b.direct_loss);
  EXPECT_EQ(a.direct_hops, b.direct_hops);
  ASSERT_EQ(a.overlays.size(), b.overlays.size());
  for (std::size_t o = 0; o < a.overlays.size(); ++o) {
    EXPECT_EQ(a.overlays[o].overlay_ep, b.overlays[o].overlay_ep);
    // Every predictor policy: plain tunnel, split-TCP, discrete bound.
    EXPECT_EQ(a.overlays[o].plain_bps, b.overlays[o].plain_bps);
    EXPECT_EQ(a.overlays[o].split_bps, b.overlays[o].split_bps);
    EXPECT_EQ(a.overlays[o].discrete_bps, b.overlays[o].discrete_bps);
    EXPECT_EQ(a.overlays[o].rtt_ms, b.overlays[o].rtt_ms);
    EXPECT_EQ(a.overlays[o].loss, b.overlays[o].loss);
  }
}

// First tier-1 <-> tier-1 adjacency: cutting it changes transit routes.
std::pair<int, int> tier1_adjacency(const topo::Internet& net) {
  const auto& ases = net.ases();
  for (std::size_t a = 0; a < ases.size(); ++a) {
    if (ases[a].tier != topo::Tier::kTier1) continue;
    for (const auto& adj : ases[a].adj) {
      if (ases[adj.nbr_as].tier == topo::Tier::kTier1) {
        return {static_cast<int>(a), adj.nbr_as};
      }
    }
  }
  return {-1, -1};
}

TEST(BatchSampler, BitwiseEqualsScalarAtEveryBatchSize) {
  wkld::World world(42, small_params());
  const auto pops = make_populations(world, 6);
  const auto paths = sweep_paths(world, pops);
  ASSERT_GT(paths.size(), 256u);

  model::BatchSampler sampler(&world.flow());
  sampler.begin_batch();
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  EXPECT_GT(sampler.unique_fields(), 0u);
  EXPECT_LT(sampler.unique_fields(), paths.size());  // shared fields dedup

  const std::size_t batch_sizes[] = {1, 7, 16, 256, paths.size()};
  const sim::Time times[] = {sim::Time::minutes(90),
                             sim::Time::hours(2) + sim::Time::seconds(13),
                             sim::Time::hours(26)};  // diurnal swing active
  std::vector<model::PathMetrics> out(paths.size());
  for (const sim::Time t : times) {
    for (const std::size_t batch : batch_sizes) {
      for (std::size_t lo = 0; lo < handles.size(); lo += batch) {
        const std::size_t len = std::min(batch, handles.size() - lo);
        sampler.sample_batch(handles.data() + lo, len, t, out.data() + lo);
      }
      for (std::size_t i = 0; i < paths.size(); ++i) {
        expect_metrics_equal(out[i], world.flow().sample(paths[i], t), "batch");
      }
    }
  }
  EXPECT_GT(sampler.dedup_saved(), 0u);

  // One leg named many times among distinct paths: the plan walks each
  // distinct handle's fields once, and every copy still matches scalar.
  std::vector<int> rep;
  std::vector<std::size_t> rep_path;
  for (std::size_t i = 0; i < 64; ++i) {
    rep.push_back(handles[i]);
    rep_path.push_back(i);
    rep.push_back(handles[1]);
    rep_path.push_back(1);
  }
  std::vector<model::PathMetrics> rep_out(rep.size());
  for (const sim::Time t : times) {  // the second and third reuse the plan
    sampler.sample_batch(rep.data(), rep.size(), t, rep_out.data());
    for (std::size_t i = 0; i < rep.size(); ++i) {
      expect_metrics_equal(rep_out[i], world.flow().sample(paths[rep_path[i]], t),
                           "repeated leg");
    }
  }
}

TEST(BatchSampler, ReinternsAfterTopologyMutation) {
  wkld::World world(7, small_params(7));
  const auto pops = make_populations(world, 4);
  auto paths = sweep_paths(world, pops);

  model::BatchSampler sampler(&world.flow());
  ASSERT_FALSE(sampler.begin_batch());
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  std::vector<model::PathMetrics> out(paths.size());
  sampler.sample_batch(handles.data(), handles.size(), sim::Time::minutes(30),
                       out.data());

  // Transient event: same routes, so every handle stays valid — the
  // kernel reads the event live. Put it on a link the paths cross.
  const topo::Traversal hop = paths.front()->traversals.front();
  world.internet().add_event(topo::LinkEvent{hop.link_id, hop.forward,
                                             sim::Time::minutes(40),
                                             sim::Time::minutes(80), 0.3});
  const std::size_t interned = sampler.paths();
  EXPECT_FALSE(sampler.begin_batch());
  EXPECT_EQ(sampler.paths(), interned);
  sampler.sample_batch(handles.data(), handles.size(), sim::Time::minutes(60),
                       out.data());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    expect_metrics_equal(out[i],
                         world.flow().sample(paths[i], sim::Time::minutes(60)),
                         "post-event");
  }

  // BGP failure on a route the paths use: exactly the moved paths'
  // handles are released; the rest keep their handles.
  const auto& seq = paths.front()->as_seq;
  ASSERT_GE(seq.size(), 2u);
  ASSERT_TRUE(world.internet().set_adjacency_up(seq[0], seq[1], false));
  std::vector<int> released;
  EXPECT_TRUE(sampler.begin_batch(&released));
  const auto old_paths = paths;
  const auto old_handles = handles;
  paths = sweep_paths(world, pops);
  handles.clear();
  for (const auto& p : paths) handles.push_back(sampler.intern(p));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const bool moved = paths[i].get() != old_paths[i].get();
    EXPECT_EQ(handles[i] != old_handles[i], moved);
    EXPECT_EQ(std::count(released.begin(), released.end(), old_handles[i]) > 0,
              moved);
  }
  sampler.sample_batch(handles.data(), handles.size(), sim::Time::minutes(90),
                       out.data());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    expect_metrics_equal(out[i],
                         world.flow().sample(paths[i], sim::Time::minutes(90)),
                         "post-failure");
  }
}

TEST(BatchMeasure, BitwiseEqualsScalarMeasureForAllPolicies) {
  wkld::World world(42, small_params());
  const auto pops = make_populations(world, 8);
  const sim::Time at = sim::Time::hours(1) + sim::Time::minutes(7);

  std::vector<std::pair<int, int>> pairs;
  for (int s : pops.servers) {
    for (int c : pops.clients) pairs.emplace_back(s, c);
  }
  std::vector<core::PairSample> expected;
  for (const auto& [s, c] : pairs) {
    expected.push_back(world.meter().measure(s, c, pops.overlays, at));
  }

  // Batch sizes 1, ragged (13 does not divide the pair count), and all.
  std::vector<core::PairSample> got(pairs.size());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{13}, pairs.size()}) {
    for (auto& g : got) g = core::PairSample{};
    for (std::size_t lo = 0; lo < pairs.size(); lo += batch) {
      const std::size_t len = std::min(batch, pairs.size() - lo);
      world.meter().measure_batch(pairs.data() + lo, len, pops.overlays, at,
                                  got.data() + lo);
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      expect_pair_samples_equal(expected[i], got[i]);
    }
  }

  // A pair whose src/dst collide with an overlay endpoint skips it, same
  // as the scalar meter.
  const int o = pops.overlays[2];
  const core::PairSample ref = world.meter().measure(o, pops.clients[0],
                                                     pops.overlays, at);
  core::PairSample via_batch;
  const std::pair<int, int> collide{o, pops.clients[0]};
  world.meter().measure_batch(&collide, 1, pops.overlays, at, &via_batch);
  expect_pair_samples_equal(ref, via_batch);
}

TEST(BatchMeasure, BatchedParallelSweepMatchesScalarSerial) {
  // The fig-2 sweep now runs through the batch kernel on the pool; it must
  // reproduce the scalar serial meter bit for bit at 1 and 4 threads.
  std::vector<std::vector<core::PairSample>> runs;
  for (const int threads : {1, 4}) {
    wkld::World world(11, small_params(11), topo::CloudParams{},
                      sim::Parallelism{threads});
    runs.push_back(wkld::run_web_experiment(world, 12).samples);
  }

  wkld::World scalar_world(11, small_params(11));
  const auto exp_clients = scalar_world.make_web_clients(12);
  const auto exp_servers = scalar_world.make_servers();
  const auto exp_overlays = scalar_world.rent_paper_overlays();
  std::size_t i = 0;
  for (int s : exp_servers) {
    for (int c : exp_clients) {
      const core::PairSample ref =
          scalar_world.meter().measure(s, c, exp_overlays, sim::Time::hours(1));
      ASSERT_LT(i, runs[0].size());
      expect_pair_samples_equal(ref, runs[0][i]);
      expect_pair_samples_equal(ref, runs[1][i]);
      ++i;
    }
  }
}

TEST(BatchMeasure, PostMutationMeasurementsTrackScalar) {
  wkld::World world(5, small_params(5));
  const auto pops = make_populations(world, 5);
  std::vector<std::pair<int, int>> pairs;
  for (int s : pops.servers) {
    for (int c : pops.clients) pairs.emplace_back(s, c);
  }
  std::vector<core::PairSample> got(pairs.size());
  world.meter().measure_batch(pairs.data(), pairs.size(), pops.overlays,
                              sim::Time::minutes(10), got.data());

  // Cut a transit adjacency: routes change, the path cache replaces the
  // moved entries, and the next batch re-plans just the pairs naming them.
  const auto [as_a, as_b] = tier1_adjacency(world.internet());
  ASSERT_GE(as_a, 0);
  ASSERT_TRUE(world.internet().set_adjacency_up(as_a, as_b, false));

  const sim::Time at = sim::Time::minutes(20);
  world.meter().measure_batch(pairs.data(), pairs.size(), pops.overlays, at,
                              got.data());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect_pair_samples_equal(
        world.meter().measure(pairs[i].first, pairs[i].second, pops.overlays, at),
        got[i]);
  }
}

// One measure_batch sweep over `pairs` on the world's pool, batch `order[b]`
// claimed b-th, so which thread measures (and first plans) a pair varies
// with the order.
void pooled_sweep(wkld::World& world, const std::vector<std::pair<int, int>>& pairs,
                  const std::vector<int>& overlays, std::size_t batch,
                  const std::vector<std::size_t>& order, sim::Time t,
                  std::vector<core::PairSample>* out) {
  out->resize(pairs.size());
  world.pool().parallel_for(order.size(), [&](std::size_t b) {
    const std::size_t lo = order[b] * batch;
    const std::size_t len = std::min(batch, pairs.size() - lo);
    world.meter().measure_batch(pairs.data() + lo, len, overlays, t,
                                out->data() + lo);
  });
}

TEST(BatchMeasure, SharedPlansAreThreadAssignmentInvariant) {
  // The pair plans and interned paths are one store shared by the pool:
  // whichever thread plans a pair first, every other thread's batches must
  // read the same plan, and a topology mutation must reset it once for all
  // of them.
  wkld::World world(13, small_params(13), topo::CloudParams{},
                    sim::Parallelism{4});
  const auto pops = make_populations(world, 9);
  std::vector<std::pair<int, int>> pairs;
  for (int s : pops.servers) {
    for (int c : pops.clients) pairs.emplace_back(s, c);
  }
  const std::size_t batch = 5;
  std::vector<std::size_t> order((pairs.size() + batch - 1) / batch);
  for (std::size_t b = 0; b < order.size(); ++b) order[b] = b;
  const auto [as_a, as_b] = tier1_adjacency(world.internet());
  ASSERT_GE(as_a, 0);

  sim::Rng rng(99);
  std::vector<core::PairSample> got;
  for (int sweep = 0; sweep < 5; ++sweep) {
    if (sweep == 3) {
      ASSERT_TRUE(world.internet().set_adjacency_up(as_a, as_b, false));
    }
    if (sweep % 2 == 1) {
      std::reverse(order.begin(), order.end());
    } else if (sweep > 0) {
      rng.shuffle(order);
    }
    const sim::Time t = sim::Time::minutes(10 + 7 * sweep);
    pooled_sweep(world, pairs, pops.overlays, batch, order, t, &got);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      expect_pair_samples_equal(
          world.meter().measure(pairs[i].first, pairs[i].second, pops.overlays, t),
          got[i]);
    }
  }
}

TEST(BatchMeasure, WarmSweepsDoNoPlanning) {
  // Once every pair has been planned by some thread, a re-sweep at a new
  // time does no path-cache lookups on any thread — even on threads that
  // never measured those pairs (each sweep starts four fresh threads and
  // rotates which of them measures which batches).
  wkld::World world(17, small_params(17));
  const auto pops = make_populations(world, 12);
  std::vector<std::pair<int, int>> pairs;
  for (int s : pops.servers) {
    for (int c : pops.clients) pairs.emplace_back(s, c);
  }
  const std::size_t batch = 4;
  const std::size_t nbatches = (pairs.size() + batch - 1) / batch;
  std::vector<core::PairSample> got(pairs.size());
  const auto sweep = [&](std::size_t rotate, sim::Time t) {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < 4; ++k) {
      threads.emplace_back([&, k] {
        for (std::size_t b = 0; b < nbatches; ++b) {
          if ((b + rotate) % 4 != k) continue;
          const std::size_t lo = b * batch;
          const std::size_t len = std::min(batch, pairs.size() - lo);
          world.meter().measure_batch(pairs.data() + lo, len, pops.overlays, t,
                                      got.data() + lo);
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  sweep(0, sim::Time::minutes(5));
  const auto& cache = world.internet().path_cache();
  const std::uint64_t lookups = cache.hits() + cache.misses();
  const sim::Time t = sim::Time::minutes(20);
  sweep(1, t);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups);
  for (std::size_t i = 0; i < pairs.size(); i += 7) {
    expect_pair_samples_equal(
        world.meter().measure(pairs[i].first, pairs[i].second, pops.overlays, t),
        got[i]);
  }
}

TEST(BatchSampler, ReinternsConsistentlyThroughFlapStorm) {
  // Chaos-style storm: an adjacency bounces down/up repeatedly while a
  // mutation listener subscribes and unsubscribes mid-storm. After every
  // bounce the sampler must release exactly the handles of the paths whose
  // route moved, and reproduce the scalar sampler bit for bit against the
  // new routes.
  wkld::World world(9, small_params(9));
  auto& net = world.internet();
  const auto pops = make_populations(world, 4);

  const auto [as_a, as_b] = tier1_adjacency(net);
  ASSERT_GE(as_a, 0);

  model::BatchSampler sampler(&world.flow());
  sampler.begin_batch();
  std::vector<topo::PathRef> paths = sweep_paths(world, pops);
  std::vector<int> handles;
  for (const auto& p : paths) handles.push_back(sampler.intern(p));

  int listener_seen = 0;
  int listener = net.add_mutation_listener(
      [&](const topo::Mutation&) { ++listener_seen; });

  std::vector<model::PathMetrics> out;
  for (int round = 0; round < 6; ++round) {
    const bool up = (round % 2) != 0;
    ASSERT_TRUE(net.set_adjacency_up(as_a, as_b, up));
    // Listener churn mid-storm must not disturb the sampler's sync with
    // the PathCache.
    if (round == 2) {
      net.remove_mutation_listener(listener);
      listener = net.add_mutation_listener(
          [&](const topo::Mutation&) { ++listener_seen; });
    }
    std::vector<int> released;
    const bool any = sampler.begin_batch(&released);
    const auto old_paths = paths;
    const auto old_handles = handles;
    paths = sweep_paths(world, pops);
    handles.clear();
    for (const auto& p : paths) handles.push_back(sampler.intern(p));
    bool moved_any = false;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const bool moved = paths[i].get() != old_paths[i].get();
      moved_any = moved_any || moved;
      EXPECT_EQ(handles[i] != old_handles[i], moved);
      EXPECT_EQ(std::count(released.begin(), released.end(), old_handles[i]) > 0,
                moved);
    }
    EXPECT_EQ(any, moved_any);
    out.resize(paths.size());
    const sim::Time t = sim::Time::minutes(15 * (round + 1));
    sampler.sample_batch(handles.data(), handles.size(), t, out.data());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      expect_metrics_equal(out[i], world.flow().sample(paths[i], t), "storm");
    }
  }
  net.remove_mutation_listener(listener);
  EXPECT_EQ(listener_seen, 6);

  // Quiet world: nothing moved, the interned batch stays valid.
  EXPECT_FALSE(sampler.begin_batch());
}

TEST(BatchKnob, ProbeBatchSizeIsAtLeastOne) {
  EXPECT_GE(core::probe_batch_size(), 1);
}

}  // namespace
}  // namespace cronets
