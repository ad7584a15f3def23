#pragma once

#include <cstdint>
#include <vector>

#include "service/path_ranker.h"
#include "service/probe_scheduler.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace cronets::service {

/// All broker knobs in one place (EXPERIMENTS.md documents each).
struct BrokerConfig {
  ProbeConfig probe;
  RankerConfig ranking;
  /// Per-overlay-VM admission cap; 0 means "use the topology's
  /// CloudParams::vm_nic_bps" (the Softlayer 100 Mbps NIC).
  double nic_capacity_bps = 0.0;
  /// Detection + reroute delay after a route-changing mutation: impacted
  /// pairs are re-probed and their sessions re-pinned this long after the
  /// event fires. Keep it at or below probe.interval — that is the
  /// reaction bound the service advertises.
  sim::Time failover_delay = sim::Time::seconds(1);
};

/// Observer of broker control-plane decisions, invoked synchronously from
/// the single-threaded event queue — hooks see a consistent broker state
/// and may query it (pair state, the owning shard's sessions), but must
/// not mutate it. Pair indices are global pair ids. All overrides default
/// to no-ops; the broker itself works unobserved. The
/// chaos::ResilienceMonitor is the main implementation.
class BrokerMonitor {
 public:
  virtual ~BrokerMonitor() = default;
  /// A session was admitted onto candidate index `candidate` of the pair.
  virtual void on_admit(std::uint64_t id, int pair_idx, int candidate,
                        double demand_bps, sim::Time t) {
    (void)id, (void)pair_idx, (void)candidate, (void)demand_bps, (void)t;
  }
  /// A live session was released.
  virtual void on_release(std::uint64_t id, int pair_idx, sim::Time t) {
    (void)id, (void)pair_idx, (void)t;
  }
  /// A probe sample was folded into the pair's ranking. `repinned` is true
  /// when the pair's sessions were re-evaluated (ranking change or forced
  /// failover); `moved` counts the sessions that actually migrated.
  virtual void on_probe_applied(int pair_idx, sim::Time t, bool repinned,
                                int moved) {
    (void)pair_idx, (void)t, (void)repinned, (void)moved;
  }
  /// A scheduled failover completed: every impacted pair was re-probed and
  /// force-repinned. `began` is when the first batched mutation fired.
  virtual void on_failover_complete(sim::Time began, sim::Time t,
                                    const std::vector<int>& pairs, int moved) {
    (void)began, (void)t, (void)pairs, (void)moved;
  }
};

/// The minimal control-plane surface a session workload drives: pair
/// registration, admission/release, and the event clock. Implemented by
/// the sharded control plane (ShardedBroker); workload generators
/// (wkld::SessionChurn) and bench wrappers program against this surface
/// only.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  /// Register (or find) a (client, server) pair; returns its pair index
  /// (global across shards for the sharded implementation).
  virtual int register_pair(int src, int dst) = 0;
  /// Admit a session for a registered pair at the current simulated time.
  virtual std::uint64_t open_session(int pair_idx, double demand_bps) = 0;
  virtual void close_session(std::uint64_t id) = 0;
  /// Run the control plane up to and including simulated time `t`.
  virtual void run_until(sim::Time t) = 0;
  virtual sim::Time now() const = 0;
  virtual sim::EventQueue& queue() = 0;
  /// When the pair's ranking was last refreshed (negative: never probed) —
  /// the staleness behind the next admission decision.
  virtual sim::Time pair_last_probe(int pair_idx) const = 0;
};

}  // namespace cronets::service
