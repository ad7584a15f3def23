#include "route/overlay_graph.h"

#include <algorithm>
#include <cmath>

#include "sim/hash_rng.h"

namespace cronets::route {

OverlayGraph::OverlayGraph(topo::Internet* topo, const model::FlowModel* flow,
                           std::uint64_t seed, MeasureConfig cfg)
    : topo_(topo), flow_(flow), seed_(seed), cfg_(cfg), sampler_(flow) {
  if (cfg_.probe_interval_rounds < 1) cfg_.probe_interval_rounds = 1;
  eps_ = topo_->dc_endpoints();
  n_ = static_cast<int>(eps_.size());
  as_.resize(eps_.size());
  for (int i = 0; i < n_; ++i) {
    as_[static_cast<std::size_t>(i)] = topo_->endpoint(eps_[i]).as_id;
    node_of_ep_.emplace(eps_[i], i);
  }
  const std::size_t nn =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  edges_.resize(nn);
  handles_.resize(static_cast<std::size_t>(n_) * (n_ > 0 ? n_ - 1 : 0));
  const int num_edges = n_ * (n_ > 0 ? n_ - 1 : 0);
  budget_ = cfg_.probe_budget > 0
                ? cfg_.probe_budget
                : std::max(1, (num_edges + cfg_.probe_interval_rounds - 1) /
                                  cfg_.probe_interval_rounds);
  last_round_.assign(nn, -1);
  if (cfg_.incremental) {
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (j != i) due_set_.insert({-1, i * n_ + j});
      }
    }
  }
  delay_dirty_rows_.assign(eps_.size(), 0);
  up_.assign(eps_.size(), 1);
  refresh_liveness();
  listener_id_ = topo_->add_mutation_listener([this](const topo::Mutation& m) {
    if (m.kind == topo::Mutation::Kind::kAdjacencyChange) {
      std::vector<int> flipped;
      refresh_liveness(&flipped);
      ++liveness_epoch_;
      if (!flipped.empty()) ++reach_version_;
      // A flipped DC's edges are re-probed next round, so a recovering DC
      // has fresh estimates the moment it is back up.
      for (int node : flipped) mark_node_edges_dirty(node);
    } else if (m.kind == topo::Mutation::Kind::kTransientEvent) {
      note_link_event(m.event);
    }
  });
  // Episodes armed before this graph existed (benches build the event
  // timeline into the world) still deserve prompt re-probes at their
  // start and end.
  for (const auto& ev : topo_->events()) note_link_event(ev);
}

OverlayGraph::~OverlayGraph() {
  if (listener_id_ >= 0) topo_->remove_mutation_listener(listener_id_);
}

void OverlayGraph::refresh_liveness(std::vector<int>* flipped) {
  // A DC is alive while its cloud AS still has any BGP adjacency up; the
  // chaos engine's kDcOutage takes all of them down at once.
  const auto& ases = topo_->ases();
  for (int i = 0; i < n_; ++i) {
    bool any = false;
    for (const auto& a : ases[static_cast<std::size_t>(as_[i])].adj) {
      if (a.up) {
        any = true;
        break;
      }
    }
    const char now = any ? 1 : 0;
    if (flipped != nullptr && up_[static_cast<std::size_t>(i)] != now) {
      flipped->push_back(i);
    }
    up_[static_cast<std::size_t>(i)] = now;
  }
}

void OverlayGraph::mark_dirty(int e) {
  int& key = last_round_[static_cast<std::size_t>(e)];
  if (key < 0) return;  // already due-now
  if (cfg_.incremental) {
    due_set_.erase({key, e});
    due_set_.insert({-1, e});
  }
  key = -1;
}

void OverlayGraph::mark_node_edges_dirty(int node) {
  for (int j = 0; j < n_; ++j) {
    if (j == node) continue;
    mark_dirty(node * n_ + j);
    mark_dirty(j * n_ + node);
  }
}

void OverlayGraph::note_link_event(const topo::LinkEvent& ev) {
  if (ev.link_id < 0) return;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (j == i) continue;
      const topo::PathRef p = topo_->cached_backbone_path(eps_[i], eps_[j]);
      if (!p || !p->valid) continue;
      for (const auto& tr : p->traversals) {
        if (tr.link_id == ev.link_id) {
          // Probe the edge when the episode starts (see the surge) and
          // again just after it ends (see the recovery), instead of
          // waiting out the staleness interval.
          pending_dirty_.emplace_back(ev.from.ns(), i * n_ + j);
          pending_dirty_.emplace_back(ev.until.ns() + 1, i * n_ + j);
          break;
        }
      }
    }
  }
}

void OverlayGraph::select_due(std::vector<int>* out) {
  out->clear();
  const int due_key = rounds_measured_ - cfg_.probe_interval_rounds;
  if (cfg_.incremental) {
    // Ordered due-set prefix walk (the ProbeScheduler idiom): dirty edges
    // (key -1) first in edge order and budget-exempt, then the stale due
    // edges most-stale-first with edge-index tie-break.
    int taken = 0;
    for (const auto& [key, e] : due_set_) {
      if (key < 0) {
        out->push_back(e);
        continue;
      }
      if (key > due_key || taken >= budget_) break;
      out->push_back(e);
      ++taken;
    }
  } else {
    // Stateless full-scan reference: identical selection by construction.
    stale_scratch_.clear();
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (j == i) continue;
        const int e = i * n_ + j;
        const int key = last_round_[static_cast<std::size_t>(e)];
        if (key < 0) {
          out->push_back(e);
        } else if (key <= due_key) {
          stale_scratch_.emplace_back(key, e);
        }
      }
    }
    std::sort(stale_scratch_.begin(), stale_scratch_.end());
    const int take =
        std::min(budget_, static_cast<int>(stale_scratch_.size()));
    for (int s = 0; s < take; ++s) out->push_back(stale_scratch_[s].second);
  }
}

void OverlayGraph::measure(sim::Time t) {
  std::fill(delay_dirty_rows_.begin(), delay_dirty_rows_.end(), 0);
  probed_last_round_ = 0;
  if (handles_.empty()) {
    ++rounds_measured_;
    return;
  }
  // Scheduled dirty marks (link-event start/end) that have come due.
  if (!pending_dirty_.empty()) {
    std::size_t w = 0;
    for (const auto& pd : pending_dirty_) {
      if (pd.first <= t.ns()) {
        mark_dirty(pd.second);
      } else {
        pending_dirty_[w++] = pd;
      }
    }
    pending_dirty_.resize(w);
  }

  // Intern the edges once: a backbone segment between two DC VMs reads no
  // routing state, so no route move ever replaces it.
  if (!handles_valid_) {
    std::size_t k = 0;
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (j == i) continue;
        EdgeState& e = edge(i, j);
        e.path = topo_->cached_backbone_path(eps_[i], eps_[j]);
        handles_[k++] = sampler_.intern(e.path);
      }
    }
    handles_valid_ = true;
  }

  select_due(&selected_);
  const std::size_t m = selected_.size();
  if (m > 0) {
    sel_handles_.resize(m);
    metrics_.resize(m);
    for (std::size_t s = 0; s < m; ++s) {
      const int e = selected_[s];
      const int i = e / n_;
      const int j = e % n_;
      const std::size_t k = static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(n_ - 1) +
                            static_cast<std::size_t>(j < i ? j : j - 1);
      sel_handles_[s] = handles_[k];
    }
    sampler_.sample_batch(sel_handles_.data(), m, t, metrics_.data());

    // Flat PFTK over the probed edges (SIMD-dispatched, bitwise
    // level-invariant), then FlowModel::noisy_tcp on a stream keyed on
    // (seed, src VM, dst VM, t) — so an edge estimate never depends on
    // measurement order or on which other edges share the batch.
    const model::TcpModelParams& p = flow_->params();
    rtt_ms_.clear();
    loss_.clear();
    residual_bps_.clear();
    capacity_bps_.clear();
    rwnd_bytes_.clear();
    for (std::size_t s = 0; s < m; ++s) {
      const int j = selected_[s] % n_;
      model::PathMetrics& mm = metrics_[s];
      mm.rwnd_bytes = static_cast<double>(topo_->endpoint(eps_[j]).rcv_buf);
      rtt_ms_.push_back(mm.rtt_ms);
      loss_.push_back(mm.loss);
      residual_bps_.push_back(mm.residual_bps);
      capacity_bps_.push_back(mm.capacity_bps);
      rwnd_bytes_.push_back(mm.rwnd_bytes);
    }
    pftk_bps_.resize(m);
    model::pftk_throughput_batch(m, rtt_ms_.data(), loss_.data(),
                                 residual_bps_.data(), capacity_bps_.data(),
                                 rwnd_bytes_.data(), p, pftk_bps_.data());

    const double alpha = cfg_.ewma_alpha;
    const double th = cfg_.metric_threshold;
    for (std::size_t s = 0; s < m; ++s) {
      const int eid = selected_[s];
      const int i = eid / n_;
      const int j = eid % n_;
      const model::PathMetrics& mm = metrics_[s];
      sim::DrawStream draws(
          sim::pair_seed(seed_ ^ flow_->seed(), eps_[i], eps_[j], t.ns()));
      const double v = flow_->noisy_tcp(pftk_bps_[s], mm, draws);
      EdgeState& e = edge(i, j);
      e.last_bps = v;
      e.last_delay_ms = mm.rtt_ms;
      if (e.measured) {
        e.ewma_bps = alpha * v + (1.0 - alpha) * e.ewma_bps;
        e.ewma_delay_ms = alpha * mm.rtt_ms + (1.0 - alpha) * e.ewma_delay_ms;
      } else {
        e.ewma_bps = v;
        e.ewma_delay_ms = mm.rtt_ms;
        e.measured = true;
        ++reach_version_;  // RoutePlane::route's fallback edge now exists
      }
      // Re-latch the policy-facing metrics only past the threshold. A
      // fresh edge latches on first sight (|x - 0| > th*0 for any x > 0).
      if (std::abs(e.ewma_bps - e.metric_bps) > th * e.metric_bps) {
        e.metric_bps = e.ewma_bps;
        ++latch_moves_total_;
      }
      if (std::abs(e.ewma_delay_ms - e.metric_delay_ms) >
          th * e.metric_delay_ms) {
        e.metric_delay_ms = e.ewma_delay_ms;
        delay_dirty_rows_[static_cast<std::size_t>(i)] = 1;
        ++latch_moves_total_;
      }
      const int old_key = last_round_[static_cast<std::size_t>(eid)];
      last_round_[static_cast<std::size_t>(eid)] = rounds_measured_;
      if (cfg_.incremental) {
        due_set_.erase({old_key, eid});
        due_set_.insert({rounds_measured_, eid});
      }
    }
  }
  probed_last_round_ = static_cast<int>(m);
  probed_total_ += m;
  ++rounds_measured_;
}

}  // namespace cronets::route
