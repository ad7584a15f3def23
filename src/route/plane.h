#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "route/overlay_graph.h"
#include "route/policy.h"
#include "route/routing_agent.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::route {

/// Turns a node-index route into interned path segments. All lookups go
/// through topo::PathCache (public legs in the normal key space, backbone
/// legs in the backbone key space), so composing a k-hop path allocates
/// nothing once warm and every consumer shares one immutable RouterPath
/// per segment.
class RouteComposer {
 public:
  explicit RouteComposer(topo::Internet* topo) : topo_(topo) {}

  /// The backbone segments between consecutive via DCs:
  /// out[k] = backbone(via_eps[k] -> via_eps[k+1]). `out` is cleared first.
  void mid_segments(const std::vector<int>& via_eps,
                    std::vector<topo::PathRef>* out) const;

  /// Full composed chain: public access leg src -> via_eps.front(), the
  /// backbone mids, then public leg via_eps.back() -> dst.
  void segments(int src_ep, const std::vector<int>& via_eps, int dst_ep,
                std::vector<topo::PathRef>* out) const;

 private:
  topo::Internet* topo_;
};

/// The multi-hop overlay routing plane: the overlay graph, one RoutingAgent
/// per DC, and a RoutePolicy exchanging metrics between them in periodic
/// rounds on the owner's event queue. Consumers (service::PathRanker via
/// RankerConfig::route_plane) treat it as read-only between rounds: they
/// ask `route()` for the current via-chain of an (entry DC, exit DC) pair
/// and watch `pair_route_version()` to re-compose a cached candidate only
/// when the table column or DC liveness behind it actually moved.
///
/// Incrementality (CRONETS_ROUTE_INCREMENTAL, default on): the graph
/// probes only dirty/stale edges per round, the policy recomputes only
/// entries whose inputs moved, and consumers recompose only pairs whose
/// destination version moved. A periodic full-refresh round recomputes
/// everything anyway, and `incremental = false` runs the full-recompute
/// reference over the same probe schedule — tables, fingerprints, and
/// decisions are bitwise identical between the two modes; the benches and
/// CI diff them byte for byte.
///
/// Determinism: rounds run single-threaded on the event queue, agents
/// update in node index order from round-start snapshots, and every edge
/// measurement is keyed on (seed, src, dst, t) — so `table_fingerprint()`
/// is bitwise invariant across worker thread counts, broker shard counts,
/// and SIMD levels. The benches assert exactly that.
class RoutePlane {
 public:
  RoutePlane(topo::Internet* topo, const model::FlowModel* flow,
             std::uint64_t seed, RouteConfig cfg);

  const RouteConfig& config() const { return cfg_; }
  const OverlayGraph& graph() const { return graph_; }
  const RouteComposer& composer() const { return composer_; }
  /// False for Policy::kOff: the plane never produces routes.
  bool enabled() const { return policy_ != nullptr; }

  /// Schedule the first routing round at `start` on `queue`; subsequent
  /// rounds self-reschedule every cfg.round_interval. A plane attaches to
  /// exactly one queue for its lifetime.
  void attach(sim::EventQueue* queue, sim::Time start);
  bool attached() const { return queue_ != nullptr; }

  /// One round now: probe due edges, run the policy exchange, account
  /// flaps/versions/convergence. Benches and tests may call this directly
  /// instead of attach() when they drive time themselves.
  void step(sim::Time t);

  /// Current route entry_ep -> exit_ep as a chain of DC endpoint ids,
  /// including both ends. Falls back to the direct backbone edge when the
  /// table walk fails (no entry, loop, hop budget exceeded) but both DCs
  /// are up; returns false when no usable route exists at all.
  bool route(int entry_ep, int exit_ep, std::vector<int>* via_eps) const;

  /// Min EWMA backbone rate over the chain's consecutive edges (0 when
  /// any edge is unmeasured).
  double route_bottleneck_bps(const std::vector<int>& via_eps) const;
  /// Same, over the chain's node indices.
  double nodes_bottleneck_bps(const std::vector<int>& nodes) const;

  /// Changes whenever a consumer's composed routes may be stale: bumped by
  /// table changes, DC liveness flips and first edge measurements (the
  /// graph's reach_version).
  std::uint64_t route_version() const {
    return table_version_ + graph_.reach_version();
  }

  /// Per-pair staleness: the route() walk toward `exit_ep` reads only the
  /// table column of its exit node plus the graph's liveness and measured
  /// edges, so a consumer caching that pair's chain needs to recompose
  /// only when this moves — and may share one composition per (entry,
  /// exit, version). Identical between incremental and full modes — both
  /// derive destination versions from the same bitwise change trajectory.
  /// Falls back to the global route_version() for non-DC endpoints.
  std::uint64_t pair_route_version(int exit_ep) const {
    const int exit = graph_.node_of_ep(exit_ep);
    if (exit < 0) return route_version();
    return node_route_version(exit);
  }
  /// pair_route_version by exit node index.
  std::uint64_t node_route_version(int exit_node) const {
    return dest_version_[static_cast<std::size_t>(exit_node)] +
           graph_.reach_version();
  }

  /// Order-sensitive hash over every agent's full table and virtual queues
  /// (metric doubles by bit pattern). THE determinism witness: equal
  /// fingerprints mean the distributed computation took the same path.
  std::uint64_t table_fingerprint() const;

  /// Read-only view of the per-node agents (tables + virtual queues), in
  /// node index order. Tests compare these against independent references.
  const std::vector<RoutingAgent>& agents() const { return agents_; }

  int rounds() const { return rounds_; }
  /// Next-hop changes where a previously valid next-hop was replaced or
  /// withdrawn (initial route installation is not a flap).
  int flaps() const { return flaps_; }
  /// The round at which the current stable table state was first
  /// confirmed (a full round with zero next-hop changes); -1 while still
  /// churning. Resets whenever a later round changes something.
  int convergence_round() const { return convergence_round_; }

  /// Incremental-work accounting across all rounds: table entries actually
  /// recomputed and entries that bitwise changed (the deltas that would go
  /// on the wire in a triggered-update protocol). `deltas_total` is
  /// identical between modes; `entries_recomputed_total` is the work saved.
  std::uint64_t entries_recomputed_total() const { return recomputed_total_; }
  std::uint64_t deltas_total() const { return deltas_total_; }

 private:
  void schedule_round(sim::Time t);

  topo::Internet* topo_;
  RouteConfig cfg_;
  OverlayGraph graph_;
  RouteComposer composer_;
  std::unique_ptr<RoutePolicy> policy_;
  std::vector<RoutingAgent> agents_;
  std::vector<std::uint64_t> dest_version_;  ///< per destination node
  sim::EventQueue* queue_ = nullptr;
  std::uint64_t table_version_ = 0;
  std::uint64_t seen_liveness_epoch_ = 0;
  std::uint64_t recomputed_total_ = 0;
  std::uint64_t deltas_total_ = 0;
  int rounds_ = 0;
  int flaps_ = 0;
  int convergence_round_ = -1;
};

}  // namespace cronets::route
