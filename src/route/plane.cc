#include "route/plane.h"

#include <cassert>
#include <cstring>

#include "sim/hash_rng.h"

namespace cronets::route {

void RouteComposer::mid_segments(const std::vector<int>& via_eps,
                                 std::vector<topo::PathRef>* out) const {
  out->clear();
  for (std::size_t k = 1; k < via_eps.size(); ++k) {
    out->push_back(topo_->cached_backbone_path(via_eps[k - 1], via_eps[k]));
  }
}

void RouteComposer::segments(int src_ep, const std::vector<int>& via_eps,
                             int dst_ep,
                             std::vector<topo::PathRef>* out) const {
  out->clear();
  if (via_eps.empty()) {
    out->push_back(topo_->cached_path(src_ep, dst_ep));
    return;
  }
  out->push_back(topo_->cached_path(src_ep, via_eps.front()));
  for (std::size_t k = 1; k < via_eps.size(); ++k) {
    out->push_back(topo_->cached_backbone_path(via_eps[k - 1], via_eps[k]));
  }
  out->push_back(topo_->cached_path(via_eps.back(), dst_ep));
}

RoutePlane::RoutePlane(topo::Internet* topo, const model::FlowModel* flow,
                       std::uint64_t seed, RouteConfig cfg)
    : topo_(topo),
      cfg_(cfg),
      graph_(topo, flow, seed, cfg.measure_config()),
      composer_(topo),
      policy_(make_policy(cfg)) {
  const int n = graph_.size();
  agents_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) agents_[static_cast<std::size_t>(i)].reset(i, n);
  dest_version_.assign(static_cast<std::size_t>(n), 0);
  seen_liveness_epoch_ = graph_.liveness_epoch();
}

void RoutePlane::attach(sim::EventQueue* queue, sim::Time start) {
  assert(queue_ == nullptr && "a plane attaches to exactly one queue");
  queue_ = queue;
  schedule_round(start);
}

void RoutePlane::schedule_round(sim::Time t) {
  queue_->schedule(t, [this, t] {
    step(t);
    schedule_round(t + cfg_.round_interval);
  });
}

void RoutePlane::step(sim::Time t) {
  graph_.measure(t);
  ++rounds_;
  if (policy_ == nullptr) return;
  const bool liveness_moved = graph_.liveness_epoch() != seen_liveness_epoch_;
  seen_liveness_epoch_ = graph_.liveness_epoch();
  RoundContext ctx;
  ctx.incremental = cfg_.incremental;
  // Full refresh: the first round installs everything, a liveness move
  // invalidates node-up terms in every entry, and the periodic refresh
  // keeps a standing audit that the delta path missed nothing.
  ctx.full_refresh = rounds_ == 1 || liveness_moved ||
                     (cfg_.full_refresh_rounds > 0 &&
                      rounds_ % cfg_.full_refresh_rounds == 0);
  ctx.delay_dirty_rows = &graph_.delay_dirty_rows();
  policy_->round(graph_, &agents_, &ctx);
  recomputed_total_ += static_cast<std::uint64_t>(ctx.entries_recomputed);
  deltas_total_ += static_cast<std::uint64_t>(ctx.entries_changed);
  flaps_ += ctx.flaps;
  // Per-destination versions from the policy's changed bitsets: column d
  // moved somewhere => every cached route toward d may be stale. The bits
  // are bitwise change detections, identical between modes.
  if (ctx.changed_words != nullptr && ctx.words_per_agent > 0) {
    const int n = graph_.size();
    const int words = ctx.words_per_agent;
    for (int w = 0; w < words; ++w) {
      std::uint64_t word = 0;
      for (int i = 0; i < n; ++i) {
        word |= ctx.changed_words[static_cast<std::size_t>(i) *
                                      static_cast<std::size_t>(words) +
                                  static_cast<std::size_t>(w)];
      }
      while (word != 0) {
        const int d = w * 64 + __builtin_ctzll(word);
        word &= word - 1;
        if (d < n) ++dest_version_[static_cast<std::size_t>(d)];
      }
    }
  }
  if (ctx.next_changes > 0) {
    ++table_version_;
    convergence_round_ = -1;
  } else if (convergence_round_ < 0) {
    convergence_round_ = rounds_;
  }
}

bool RoutePlane::route(int entry_ep, int exit_ep,
                       std::vector<int>* via_eps) const {
  via_eps->clear();
  const int entry = graph_.node_of_ep(entry_ep);
  const int exit = graph_.node_of_ep(exit_ep);
  if (entry < 0 || exit < 0 || entry == exit) return false;
  const auto fallback = [&]() {
    // Direct backbone edge, the one-hop overlay of the base system.
    via_eps->clear();
    if (!graph_.node_up(entry) || !graph_.node_up(exit) ||
        !graph_.edge_measured(entry, exit)) {
      return false;
    }
    via_eps->push_back(entry_ep);
    via_eps->push_back(exit_ep);
    return true;
  };
  if (policy_ == nullptr) return fallback();
  // Liveness is checked live, not via the tables: between a DC outage and
  // the next exchange round the tables still hold pre-outage routes, and a
  // chain to or through a dark DC must never be handed out.
  if (!graph_.node_up(entry) || !graph_.node_up(exit)) return false;
  int cur = entry;
  via_eps->push_back(entry_ep);
  // The walk is bounded by max_hops edges; a withdrawn entry falls back to
  // the direct edge rather than failing the pair outright. A loop needs no
  // explicit check: the next-hop is a function of the current node alone,
  // so any revisit cycles forever and the hop budget converts it into the
  // same fallback — which is what lets the mesh grow past 64 nodes without
  // a visited bitmask.
  while (cur != exit) {
    if (static_cast<int>(via_eps->size()) > cfg_.max_hops) return fallback();
    const int next = agents_[static_cast<std::size_t>(cur)]
                         .table[static_cast<std::size_t>(exit)]
                         .next;
    if (next < 0 || next >= graph_.size()) return fallback();
    if (!graph_.node_up(next)) return fallback();
    cur = next;
    via_eps->push_back(graph_.node_ep(cur));
  }
  return true;
}

double RoutePlane::route_bottleneck_bps(
    const std::vector<int>& via_eps) const {
  std::vector<int> nodes;
  nodes.reserve(via_eps.size());
  for (const int ep : via_eps) nodes.push_back(graph_.node_of_ep(ep));
  return nodes_bottleneck_bps(nodes);
}

double RoutePlane::nodes_bottleneck_bps(const std::vector<int>& nodes) const {
  double bottleneck = -1.0;
  for (std::size_t k = 1; k < nodes.size(); ++k) {
    const int i = nodes[k - 1];
    const int j = nodes[k];
    if (i < 0 || j < 0 || !graph_.edge_measured(i, j)) return 0.0;
    const double bps = graph_.ewma_bps(i, j);
    if (bottleneck < 0.0 || bps < bottleneck) bottleneck = bps;
  }
  return bottleneck < 0.0 ? 0.0 : bottleneck;
}

std::uint64_t RoutePlane::table_fingerprint() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix_double = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = sim::hash_combine(h, bits);
  };
  for (const RoutingAgent& a : agents_) {
    for (const RouteEntry& e : a.table) {
      h = sim::hash_combine(h, static_cast<std::uint64_t>(e.next + 1));
      mix_double(e.metric);
      h = sim::hash_combine(h, static_cast<std::uint64_t>(e.hops));
    }
    for (double q : a.queue) mix_double(q);
  }
  return h;
}

}  // namespace cronets::route
