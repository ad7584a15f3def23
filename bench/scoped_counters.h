#pragma once

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "core/measure_model.h"
#include "service/sharded_broker.h"
#include "topo/internet.h"

namespace cronets::bench {

/// Reporting-only counters of scoped invalidation, one per layer a route
/// move reaches: interned paths moved per adjacency change (topo), cold
/// measure_batch calls and dropped plan legs (core), pairs re-resolved and
/// multi-hop chains composed (service). Counts from construction; attach
/// before the run's first mutation. Nothing here feeds a decision.
class ScopedCounters {
 public:
  explicit ScopedCounters(topo::Internet* net)
      : net_(net), version0_(net->path_cache().version()) {
    listener_ = net_->add_mutation_listener([this](const topo::Mutation& m) {
      if (m.kind == topo::Mutation::Kind::kAdjacencyChange) ++changes_;
    });
  }
  ~ScopedCounters() { net_->remove_mutation_listener(listener_); }
  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

  /// Add the counters to `run`'s JSON extra, keys prefixed `prefix` (the
  /// meter's counters cover its whole lifetime).
  void report(BenchRun& run, const service::ShardedBroker& broker,
              const core::ModelMeasurement& meter,
              const std::string& prefix = "scoped.") const {
    const double moved =
        static_cast<double>(net_->path_cache().version() - version0_);
    std::uint64_t refreshed = 0, compositions = 0;
    for (int s = 0; s < broker.num_shards(); ++s) {
      refreshed += broker.shard_ranker(s).pairs_refreshed();
      compositions += broker.shard_ranker(s).chain_compositions();
    }
    const core::ModelMeasurement::PlanStats ps = meter.plan_stats();
    run.add_extra(prefix + "adjacency_changes", static_cast<double>(changes_));
    run.add_extra(prefix + "paths_moved", moved);
    run.add_extra(prefix + "paths_moved_per_change",
                  changes_ > 0 ? moved / static_cast<double>(changes_) : 0.0);
    run.add_extra(prefix + "measure_batch_calls", static_cast<double>(ps.batches));
    run.add_extra(prefix + "measure_batch_cold", static_cast<double>(ps.cold_batches));
    run.add_extra(prefix + "plan_legs_dropped", static_cast<double>(ps.dropped_legs));
    run.add_extra(prefix + "plan_directs_dropped",
                  static_cast<double>(ps.dropped_directs));
    run.add_extra(prefix + "pairs_refreshed", static_cast<double>(refreshed));
    run.add_extra(prefix + "chain_compositions", static_cast<double>(compositions));
  }

 private:
  topo::Internet* net_;
  std::uint64_t version0_;
  std::uint64_t changes_ = 0;
  int listener_ = -1;
};

}  // namespace cronets::bench
