#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/batch_sampler.h"
#include "model/flow_model.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::route {

/// Probing knobs of the overlay graph (a slice of route::RouteConfig,
/// duplicated here so the graph does not depend on the policy header).
struct MeasureConfig {
  double ewma_alpha = 0.3;
  /// An edge is due for a re-probe once it has gone this many rounds
  /// without one. 1 = probe everything every round (the pre-incremental
  /// behaviour).
  int probe_interval_rounds = 8;
  /// Edges re-probed per round on staleness alone; 0 = auto, one
  /// interval's worth of the mesh (ceil(E / probe_interval_rounds)), so
  /// the steady-state backlog never grows. Dirty edges (mutations, never
  /// measured) bypass the budget — they are probed the round they appear.
  int probe_budget = 0;
  /// Relative EWMA change that re-latches the policy-facing metric of an
  /// edge. Policies read the latched values, so estimate jitter below the
  /// threshold provably cannot change any routing decision — that is what
  /// lets the incremental exchange skip untouched (agent, destination)
  /// rows while staying bitwise identical to the full recompute.
  double metric_threshold = 0.10;
  /// Selection structure: the ordered due-set (ProbeScheduler idiom) or
  /// the stateless full-scan reference. Both produce the same probe set
  /// by construction; CRONETS_ROUTE_INCREMENTAL=0 runs the reference so
  /// the equivalence is continuously re-proven by the fingerprint gates.
  bool incremental = true;
};

/// The routing plane's view of the cloud: one node per data-center VM
/// endpoint, one directed edge per ordered DC pair, riding the private
/// backbone (topo::Internet::cached_backbone_path). Edges carry EWMA
/// estimates of backbone TCP rate and delay, refreshed through the SoA
/// batch sampler — the same measurement kernel the probe sweeps use, so an
/// edge estimate is bitwise a pure function of (seed, src VM, dst VM, t)
/// at every SIMD level, and of the probe schedule, which is itself a pure
/// function of the mutation timeline.
///
/// Probing is incremental: each edge carries a staleness key (the round it
/// was last probed; -1 = dirty, probe now). A round probes every dirty
/// edge plus up to `probe_budget` of the most-stale due edges, so a
/// quiescent mesh costs E/interval edge measurements per round instead of
/// E. Mutation listeners feed the dirty set: a transient link event marks
/// every edge whose backbone path crosses the link dirty at the event's
/// start and end, and a BGP adjacency change marks the flipped DC's edges
/// dirty — so faults are re-measured the next round, not an interval later.
///
/// Liveness piggybacks on the Internet's mutation listeners: a BGP
/// adjacency change (chaos DC outages flip every adjacency of one cloud
/// AS) re-derives per-node up/down eagerly and bumps `liveness_epoch`, so
/// routes composed before the outage can be recognized as stale without
/// polling. Backbone links are plain links, not AS adjacencies — they stay
/// "up" through a DC outage, and reachability is gated purely on node
/// liveness, mirroring how a provider's WAN survives one site going dark.
class OverlayGraph {
 public:
  OverlayGraph(topo::Internet* topo, const model::FlowModel* flow,
               std::uint64_t seed, MeasureConfig cfg);
  ~OverlayGraph();
  OverlayGraph(const OverlayGraph&) = delete;
  OverlayGraph& operator=(const OverlayGraph&) = delete;

  int size() const { return n_; }
  int node_ep(int i) const { return eps_[static_cast<std::size_t>(i)]; }
  /// Node index of a DC VM endpoint; -1 for non-DC endpoints.
  int node_of_ep(int ep) const {
    const auto it = node_of_ep_.find(ep);
    return it == node_of_ep_.end() ? -1 : it->second;
  }
  bool node_up(int i) const { return up_[static_cast<std::size_t>(i)] != 0; }
  /// Bumped by every BGP adjacency change (the only mutation that can
  /// change node liveness); a moved epoch makes the next policy round a
  /// full refresh.
  std::uint64_t liveness_epoch() const { return liveness_epoch_; }
  /// Bumped when a node's liveness actually flips or an edge is measured
  /// for the first time: every graph input of RoutePlane::route besides
  /// the agents' tables. Part of RoutePlane::route_version, so a cached
  /// composition is stale exactly when its version moved.
  std::uint64_t reach_version() const { return reach_version_; }

  /// One measurement round at time `t`: probe every dirty edge plus the
  /// budgeted most-stale due edges, fold the samples into the EWMA
  /// estimates, and re-latch policy metrics that moved past the threshold.
  void measure(sim::Time t);

  bool edge_measured(int i, int j) const { return edge(i, j).measured; }
  double ewma_bps(int i, int j) const { return edge(i, j).ewma_bps; }
  double ewma_delay_ms(int i, int j) const { return edge(i, j).ewma_delay_ms; }
  double last_bps(int i, int j) const { return edge(i, j).last_bps; }
  double last_delay_ms(int i, int j) const { return edge(i, j).last_delay_ms; }
  /// Latched policy metrics: the EWMA as of its last threshold crossing.
  /// Both exchange policies read only these, so between latch moves their
  /// inputs are frozen — the incremental skip set falls out of that.
  double metric_bps(int i, int j) const { return edge(i, j).metric_bps; }
  double metric_delay_ms(int i, int j) const {
    return edge(i, j).metric_delay_ms;
  }

  int rounds_measured() const { return rounds_measured_; }
  const MeasureConfig& config() const { return cfg_; }
  /// The resolved per-round staleness budget (auto = ceil(E/interval)).
  int resolved_budget() const { return budget_; }

  /// Edges probed in the latest round / since construction.
  int edges_probed_last_round() const { return probed_last_round_; }
  std::uint64_t edges_probed_total() const { return probed_total_; }

  /// Rows (source nodes) with a delay-latch move in the latest round; the
  /// delay policy re-relaxes exactly these rows plus the dirty
  /// destinations. Valid until the next measure().
  const std::vector<char>& delay_dirty_rows() const {
    return delay_dirty_rows_;
  }
  std::uint64_t latch_moves_total() const { return latch_moves_total_; }

 private:
  struct EdgeState {
    topo::PathRef path;  ///< interned backbone segment (pins the pointer)
    double ewma_bps = 0.0;
    double ewma_delay_ms = 0.0;
    double last_bps = 0.0;
    double last_delay_ms = 0.0;
    double metric_bps = 0.0;       ///< latched (policy-facing) rate
    double metric_delay_ms = 0.0;  ///< latched (policy-facing) delay
    bool measured = false;
  };

  const EdgeState& edge(int i, int j) const {
    return edges_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(j)];
  }
  EdgeState& edge(int i, int j) {
    return edges_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(j)];
  }
  void refresh_liveness(std::vector<int>* flipped = nullptr);
  void mark_dirty(int e);
  void mark_node_edges_dirty(int node);
  void note_link_event(const topo::LinkEvent& ev);
  void select_due(std::vector<int>* out);

  topo::Internet* topo_;
  const model::FlowModel* flow_;
  std::uint64_t seed_;
  MeasureConfig cfg_;
  int budget_ = 0;

  int n_ = 0;
  std::vector<int> eps_;  ///< node index -> DC VM endpoint id
  std::vector<int> as_;   ///< node index -> cloud AS id
  std::unordered_map<int, int> node_of_ep_;
  std::vector<char> up_;
  std::uint64_t liveness_epoch_ = 0;
  std::uint64_t reach_version_ = 0;
  int listener_id_ = -1;
  int rounds_measured_ = 0;

  std::vector<EdgeState> edges_;  ///< n*n row-major; diagonal unused

  // Staleness/dirty bookkeeping. `last_round_[e]` is the round the edge
  // was last probed (-1 = dirty: never measured, or touched by a
  // mutation). The incremental selection keeps the same keys in an
  // ordered due-set, (key, edge) ascending — the ProbeScheduler idiom —
  // whose prefix walk reproduces the full scan's sort exactly.
  std::vector<int> last_round_;            ///< n*n, keyed like edges_
  std::set<std::pair<int, int>> due_set_;  ///< (last_round, edge id)
  std::vector<std::pair<std::int64_t, int>> pending_dirty_;  ///< (ns, edge)
  std::vector<int> selected_;              ///< scratch: this round's probes
  std::vector<std::pair<int, int>> stale_scratch_;

  int probed_last_round_ = 0;
  std::uint64_t probed_total_ = 0;
  std::vector<char> delay_dirty_rows_;
  std::uint64_t latch_moves_total_ = 0;

  // Batched measurement machinery (scratch persists across rounds so a
  // warm round allocates nothing).
  model::BatchSampler sampler_;
  std::vector<int> handles_;  ///< per edge, row-major skipping the diagonal
  bool handles_valid_ = false;
  std::vector<int> sel_handles_;
  std::vector<model::PathMetrics> metrics_;
  std::vector<double> rtt_ms_, loss_, residual_bps_, capacity_bps_,
      rwnd_bytes_, pftk_bps_;
};

}  // namespace cronets::route
