#include "service/path_ranker.h"

#include <algorithm>
#include <cassert>

namespace cronets::service {

bool path_uses_adjacency(const topo::RouterPath& path, int as_a, int as_b) {
  for (std::size_t i = 1; i < path.as_seq.size(); ++i) {
    const int u = path.as_seq[i - 1], v = path.as_seq[i];
    if ((u == as_a && v == as_b) || (u == as_b && v == as_a)) return true;
  }
  return false;
}

PathRanker::PathRanker(topo::Internet* topo, RankerConfig cfg,
                       std::vector<int> overlay_eps)
    : topo_(topo),
      cfg_(cfg),
      overlay_eps_(std::move(overlay_eps)),
      path_version_(topo->path_cache().version()) {
  const route::RoutePlane* plane = cfg_.route_plane;
  for (std::size_t i = 0; i < overlay_eps_.size(); ++i) {
    const int ep = overlay_eps_[i];
    slot_of_ep_.emplace(ep, static_cast<int>(i));
    const int node = plane != nullptr ? plane->graph().node_of_ep(ep) : -1;
    slot_node_.push_back(node);
  }
  if (plane != nullptr) {
    for (int n = 0; n < plane->graph().size(); ++n) {
      plane_as_.push_back(topo_->endpoint(plane->graph().node_ep(n)).as_id);
    }
  }
  const std::size_t n = overlay_eps_.size();
  probe_split_.resize(n);
  probe_leg1_.resize(n);
  probe_leg2_.resize(n);
  leg1_hit_.resize(n);
  leg2_hit_.resize(n);
  slot_candidate_.resize(n);
}

int PathRanker::add_pair(int src, int dst) {
  const auto [it, inserted] =
      index_.emplace(sim::pack_pair(src, dst), static_cast<int>(pairs_.size()));
  if (!inserted) return it->second;
  sync_paths();  // moves logged so far predate this pair's paths
  PairState p;
  p.src = src;
  p.dst = dst;
  build_candidates(&p);
  if (indexed_) {
    pairs_by_src_[src].push_back(it->second);
    pairs_by_dst_[dst].push_back(it->second);
  }
  pairs_.push_back(std::move(p));
  return it->second;
}

int PathRanker::find_pair(int src, int dst) const {
  const auto it = index_.find(sim::pack_pair(src, dst));
  return it == index_.end() ? -1 : it->second;
}

void PathRanker::build_candidates(PairState* p) {
  p->candidates.clear();
  Candidate direct;
  direct.kind = core::PathKind::kDirect;
  price_candidate(*p, &direct);
  p->candidates.push_back(std::move(direct));
  for (std::size_t i = 0; i < overlay_eps_.size(); ++i) {
    const int o = overlay_eps_[i];
    if (o == p->src || o == p->dst) continue;
    Candidate c;
    c.kind = core::PathKind::kSplitOverlay;
    c.overlay_ep = o;
    c.entry_slot = static_cast<int>(i);
    price_candidate(*p, &c);
    p->candidates.push_back(std::move(c));
  }
  // Multi-hop candidates: every ordered (entry VM, exit VM) pair of plane
  // nodes. The plane decides what happens between them; the candidate only
  // pins where the pair enters and leaves the cloud. Scores compose from
  // the same one-hop probe's per-leg rates, so the feature adds no
  // measurement draws — rankings with the plane off are bitwise unchanged.
  const route::RoutePlane* plane = cfg_.route_plane;
  if (plane != nullptr && plane->enabled()) {
    for (std::size_t ia = 0; ia < overlay_eps_.size(); ++ia) {
      const int oa = overlay_eps_[ia];
      if (oa == p->src || oa == p->dst || slot_node_[ia] < 0) continue;
      for (std::size_t ib = 0; ib < overlay_eps_.size(); ++ib) {
        const int ob = overlay_eps_[ib];
        if (ob == oa || ob == p->src || ob == p->dst || slot_node_[ib] < 0) {
          continue;
        }
        Candidate c;
        c.kind = core::PathKind::kMultiHop;
        c.overlay_ep = oa;
        c.exit_ep = ob;
        c.entry_slot = static_cast<int>(ia);
        c.exit_slot = static_cast<int>(ib);
        set_chain(*p, &c);
        p->candidates.push_back(std::move(c));
      }
    }
  }
  resolve_paths(p);
  p->best = 0;
  p->order_dirty = true;
}

void PathRanker::resolve_paths(PairState* p) {
  // One lookup per distinct path, a pair's 1 + 2 * overlays: the one-hop
  // candidates (which precede the multi-hop ones) resolve the legs, and a
  // multi-hop candidate shares the legs of its entry and exit VMs.
  for (std::size_t ci = 0; ci < p->candidates.size(); ++ci) {
    Candidate& c = p->candidates[ci];
    if (c.kind == core::PathKind::kDirect) {
      c.path = topo_->cached_path(p->src, p->dst);
    } else if (c.kind == core::PathKind::kSplitOverlay) {
      c.path = topo_->cached_path(p->src, c.overlay_ep);
      c.leg2 = topo_->cached_path(c.overlay_ep, p->dst);
      slot_candidate_[static_cast<std::size_t>(c.entry_slot)] = ci;
    } else {
      c.path = p->candidates[slot_candidate_[static_cast<std::size_t>(
                                 c.entry_slot)]].path;
      c.leg2 = p->candidates[slot_candidate_[static_cast<std::size_t>(
                                 c.exit_slot)]].leg2;
    }
  }
  p->paths_stale = false;
}

void PathRanker::mark_stale(int idx) {
  if (idx < 0) return;
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  if (p.paths_stale) return;
  p.paths_stale = true;
  stale_pairs_.push_back(idx);
}

void PathRanker::sync_paths() {
  const topo::PathCache& cache = topo_->path_cache();
  if (path_version_ == cache.version()) return;
  if (!indexed_) {
    // Pairs by endpoint, built on the first route move (not at setup).
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      pairs_by_src_[pairs_[i].src].push_back(static_cast<int>(i));
      pairs_by_dst_[pairs_[i].dst].push_back(static_cast<int>(i));
    }
    indexed_ = true;
  }
  for (const std::uint64_t key : cache.moved_since(path_version_)) {
    // Chains ride private-backbone segments, which never move.
    if (topo::PathCache::key_backbone(key)) continue;
    const int a = topo::PathCache::key_src(key);
    const int b = topo::PathCache::key_dst(key);
    mark_stale(find_pair(a, b));  // a direct path
    if (slot_of_ep_.count(b) != 0) {  // leg 1 of pairs from a via VM b
      const auto it = pairs_by_src_.find(a);
      if (it != pairs_by_src_.end()) {
        for (const int i : it->second) mark_stale(i);
      }
    }
    if (slot_of_ep_.count(a) != 0) {  // leg 2 of pairs to b via VM a
      const auto it = pairs_by_dst_.find(b);
      if (it != pairs_by_dst_.end()) {
        for (const int i : it->second) mark_stale(i);
      }
    }
  }
  path_version_ = cache.version();
}

void PathRanker::set_chain(const PairState& p, Candidate* c) {
  const route::RoutePlane& plane = *cfg_.route_plane;
  const econ::PricingBook* book = cfg_.econ.pricing;
  const topo::Region dst_region = topo_->endpoint(p.dst).region;
  // Without pricing a chain is the same toward every region.
  const int region = book != nullptr ? static_cast<int>(dst_region) + 1 : 0;
  const std::uint64_t ver = plane.node_route_version(
      slot_node_[static_cast<std::size_t>(c->exit_slot)]);
  auto& shared = chains_[sim::pack_pair(c->entry_slot * 8 + region, c->exit_slot)];
  if (shared == nullptr || shared->route_ver != ver) {
    auto chain = std::make_shared<MultiHopChain>();
    if (plane.route(c->overlay_ep, c->exit_ep, &chain->via)) {
      plane.composer().mid_segments(chain->via, &chain->mids);
    }
    chain->route_ver = ver;
    for (const int ep : chain->via) {
      chain->nodes.push_back(plane.graph().node_of_ep(ep));
    }
    if (book != nullptr && !chain->via.empty()) {
      // The chain pays egress at every hop: backbone rate between
      // consecutive VMs, transit rate leaving the exit VM toward dst.
      const auto& via = chain->via;
      for (std::size_t i = 0; i + 1 < via.size(); ++i) {
        const topo::Region from = topo_->endpoint(via[i]).region;
        const topo::Region to = topo_->endpoint(via[i + 1]).region;
        const double rate =
            econ::egress_usd_per_gb(*book, from, to, /*backbone=*/true);
        chain->bills.push_back({via[i], to, core::PathKind::kMultiHop, rate});
        chain->usd_per_gb += rate;
      }
      const topo::Region exit = topo_->endpoint(via.back()).region;
      const double rate = econ::egress_usd_per_gb(*book, exit, dst_region,
                                                  /*backbone=*/false);
      chain->bills.push_back(
          {via.back(), dst_region, core::PathKind::kMultiHop, rate});
      chain->usd_per_gb += rate;
    }
    shared = std::move(chain);
    ++chain_compositions_;
  }
  c->chain = shared;
  // The chain moved, so what it costs moved with it.
  c->usd_per_gb = shared->usd_per_gb;
}

void PathRanker::price_candidate(const PairState& p, Candidate* c) const {
  const econ::PricingBook* book = cfg_.econ.pricing;
  if (book == nullptr) return;
  c->bills.clear();
  c->usd_per_gb = 0.0;
  const topo::Region dst_region = topo_->endpoint(p.dst).region;
  if (c->kind == core::PathKind::kDirect) {
    // Zero-rate cell: delivered traffic is metered even when nothing is
    // billed, so $/Gbps-hour covers the whole fleet, not just relays.
    c->bills.push_back({-1, dst_region, core::PathKind::kDirect, 0.0});
    return;
  }
  const topo::Region vm = topo_->endpoint(c->overlay_ep).region;
  const double rate = econ::egress_usd_per_gb(*book, vm, dst_region,
                                              /*backbone=*/false);
  c->bills.push_back({c->overlay_ep, dst_region, c->kind, rate});
  c->usd_per_gb = rate;
}

double PathRanker::candidate_objective(const Candidate& c) const {
  const econ::EconConfig& e = cfg_.econ;
  if (e.pricing == nullptr) return c.score_bps;
  switch (e.policy) {
    case econ::CostPolicy::kPerformance:
    case econ::CostPolicy::kMaxGoodputUnderBudget:
      // Goodput-ranked (the budget policy constrains admission, not the
      // ranking): exactly the pre-econ objective.
      return c.score_bps;
    case econ::CostPolicy::kMinCostMeetingSlo: {
      if (e.slo_bps <= 0.0) return c.score_bps;
      if (c.score_bps >= e.slo_bps) {
        // SLO met: rank by cheapness inside (1, 2] — any SLO-meeting
        // candidate beats every SLO-missing one.
        const double ref = econ::reference_usd_per_gb(*e.pricing);
        const double cost_norm = ref > 0.0 ? c.usd_per_gb / ref : 0.0;
        return 1.0 + 1.0 / (1.0 + cost_norm);
      }
      // SLO missed: a monotone transform of score into [0, 1), so the
      // fallback ranking is the performance ranking.
      return c.score_bps / e.slo_bps;
    }
    case econ::CostPolicy::kPareto: {
      const double ref = econ::reference_usd_per_gb(*e.pricing);
      const double cost_norm = ref > 0.0 ? c.usd_per_gb / ref : 0.0;
      const double goodput =
          e.pareto_ref_bps > 0.0
              ? std::min(1.0, c.score_bps / e.pareto_ref_bps)
              : 0.0;
      return e.pareto_alpha * goodput +
             (1.0 - e.pareto_alpha) / (1.0 + cost_norm);
    }
  }
  return c.score_bps;
}

bool PathRanker::apply_sample(int idx, const core::PairSample& s, sim::Time t) {
  sync_paths();
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  assert(s.src == p.src && s.dst == p.dst);
  if (p.paths_stale) {
    resolve_paths(&p);
    ++pairs_refreshed_;
  }

  // This probe's per-overlay values by overlay index (-1: not measured —
  // the overlay is the pair's src or dst, or not in the sample).
  std::fill(probe_split_.begin(), probe_split_.end(), -1.0);
  std::fill(probe_leg1_.begin(), probe_leg1_.end(), -1.0);
  std::fill(probe_leg2_.begin(), probe_leg2_.end(), -1.0);
  for (const auto& o : s.overlays) {
    const auto it = slot_of_ep_.find(o.overlay_ep);
    if (it == slot_of_ep_.end()) continue;
    const auto i = static_cast<std::size_t>(it->second);
    if (probe_split_[i] < 0.0) probe_split_[i] = o.split_bps;
    probe_leg1_[i] = o.leg1_bps;
    probe_leg2_[i] = o.leg2_bps;
  }

  // Raw per-candidate values of this probe ([0] = direct, then overlays in
  // candidate order; overlays matched by endpoint id, so a skipped overlay
  // — src/dst collision — simply keeps its old score).
  const int prev_best = p.best;
  double pinned_raw = -1.0;
  double oracle_raw = 0.0;
  double direct_raw = 0.0;
  for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
    Candidate& c = p.candidates[ci];
    double raw = -1.0;
    if (c.kind == core::PathKind::kDirect) {
      raw = s.direct_bps;
    } else if (c.kind == core::PathKind::kMultiHop) {
      const route::RoutePlane* plane = cfg_.route_plane;
      if (plane == nullptr) continue;
      // The table column, liveness or measured edges behind this
      // candidate's route moved since it was read: take the current chain
      // before scoring so the score matches the route sessions would
      // actually ride. Per-destination versions keep unrelated table churn
      // from re-composing every candidate.
      if (c.chain->route_ver !=
          plane->node_route_version(
              slot_node_[static_cast<std::size_t>(c.exit_slot)])) {
        set_chain(p, &c);
      }
      // Compose from the one-hop probe's per-leg rates: leg 1 of the entry
      // VM's split sample, leg 2 of the exit VM's, and the plane's EWMA
      // bottleneck across the backbone hops. One 0.97 split-proxy haircut
      // per VM in the chain (the one-hop relay pays exactly one).
      const double leg1 = probe_leg1_[static_cast<std::size_t>(c.entry_slot)];
      const double leg2 = probe_leg2_[static_cast<std::size_t>(c.exit_slot)];
      if (leg1 < 0.0 || leg2 < 0.0) continue;  // an end VM skipped this probe
      const MultiHopChain& chain = *c.chain;
      if (chain.via.empty()) {
        raw = 0.0;  // no usable plane route right now
      } else {
        raw = std::min(leg1, leg2);
        raw = std::min(raw, plane->nodes_bottleneck_bps(chain.nodes));
        for (std::size_t v = 0; v < chain.via.size(); ++v) raw *= 0.97;
        for (const int node : chain.nodes) {
          if (node < 0 || !plane->graph().node_up(node)) raw = 0.0;
        }
        for (const auto& mid : chain.mids) {
          if (mid && !mid->valid) raw = 0.0;
        }
      }
    } else {
      raw = probe_split_[static_cast<std::size_t>(c.entry_slot)];
    }
    if (raw < 0.0) continue;  // not measured this probe
    // Unreachable candidate (no policy route, or a leg crosses a failed
    // adjacency): the flow model samples such paths as if they were empty
    // and returns a meaningless huge number, so clamp to zero here.
    if ((c.path && !c.path->valid) || (c.leg2 && !c.leg2->valid)) raw = 0.0;
    if (c.kind == core::PathKind::kDirect) direct_raw = raw;
    c.last_bps = raw;
    c.score_bps = c.measured
                      ? cfg_.ewma_alpha * raw + (1.0 - cfg_.ewma_alpha) * c.score_bps
                      : raw;
    c.measured = true;
    c.down = false;  // freshly measured on the current route
    oracle_raw = std::max(oracle_raw, raw);
    if (static_cast<int>(ci) == prev_best) pinned_raw = raw;
  }
  p.last_probe = t;
  ++p.probes;
  p.last_oracle_bps = oracle_raw;
  p.last_pinned_bps = pinned_raw >= 0.0 ? pinned_raw : 0.0;
  if (p.last_oracle_bps > 0.0) {
    p.regret_sum += (p.last_oracle_bps - p.last_pinned_bps) / p.last_oracle_bps;
    ++p.regret_samples;
  }

  if (cfg_.record_history) {
    p.history.direct.push_back(direct_raw);
    std::vector<double> row;
    row.reserve(p.candidates.size() - 1);
    for (std::size_t ci = 1; ci < p.candidates.size(); ++ci) {
      row.push_back(p.candidates[ci].last_bps);
    }
    p.history.overlay.push_back(std::move(row));
    p.achieved_bps.push_back(p.last_pinned_bps);
  }

  // Re-rank: the challenger must clear the hysteresis margin over the
  // incumbent's objective (unless the incumbent is down/unreachable).
  // Under the performance policy the objective IS the smoothed score, so
  // these comparisons are bitwise identical to the pre-econ ranking.
  int challenger = p.best;
  double best_obj = -1.0;
  for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
    const Candidate& c = p.candidates[ci];
    if (c.down || !c.measured) continue;
    const double obj = candidate_objective(c);
    if (obj > best_obj) {
      best_obj = obj;
      challenger = static_cast<int>(ci);
    }
  }
  const Candidate& inc = p.candidates[static_cast<std::size_t>(p.best)];
  const bool incumbent_usable = !inc.down && inc.measured;
  if (challenger != p.best &&
      (!incumbent_usable ||
       best_obj > candidate_objective(inc) * (1.0 + cfg_.hysteresis))) {
    p.best = challenger;
  }
  p.order_dirty = true;  // scores moved; cached admission order is stale
  return p.best != prev_best;
}

void PathRanker::mark_adjacency_down(int as_a, int as_b,
                                     std::vector<int>* affected) {
  sync_paths();
  // A pair whose paths are all current routes around the failed session
  // (the PathCache re-expanded every entry crossing it), so only pairs
  // still holding replaced paths need the leg check. A multi-hop chain is
  // cut when it runs through a VM of as_a/as_b — its backbone mids stay
  // "valid" (plain links, not adjacencies) through a DC outage, so the AS
  // match on the via chain is what catches it — or when a mid crosses the
  // session, which needs both ends to be plane ASes too.
  const bool chains_exposed =
      std::find(plane_as_.begin(), plane_as_.end(), as_a) != plane_as_.end() ||
      std::find(plane_as_.begin(), plane_as_.end(), as_b) != plane_as_.end();
  chain_hit_.clear();
  const auto chain_cut = [&](const MultiHopChain& chain) {
    const auto [it, fresh] = chain_hit_.emplace(&chain, false);
    if (!fresh) return it->second;
    bool cut = false;
    for (const auto& mid : chain.mids) {
      if (mid && path_uses_adjacency(*mid, as_a, as_b)) cut = true;
    }
    for (const int ep : chain.via) {
      const int ep_as = topo_->endpoint(ep).as_id;
      if (ep_as == as_a || ep_as == as_b) cut = true;
    }
    it->second = cut;
    return cut;
  };
  const auto check_pair = [&](int i) {
    PairState& p = pairs_[static_cast<std::size_t>(i)];
    const bool legs = p.paths_stale;
    if (!legs && !chains_exposed) return;
    bool hit = false;
    for (Candidate& c : p.candidates) {
      bool uses = false;
      if (c.kind == core::PathKind::kDirect) {
        uses = legs && path_uses_adjacency(*c.path, as_a, as_b);
      } else if (c.kind == core::PathKind::kSplitOverlay) {
        // The legs every multi-hop candidate through this VM shares.
        const auto e = static_cast<std::size_t>(c.entry_slot);
        if (legs) {
          leg1_hit_[e] = path_uses_adjacency(*c.path, as_a, as_b);
          leg2_hit_[e] = path_uses_adjacency(*c.leg2, as_a, as_b);
        }
        uses = legs && (leg1_hit_[e] || leg2_hit_[e]);
      } else {
        uses = (legs && (leg1_hit_[static_cast<std::size_t>(c.entry_slot)] ||
                         leg2_hit_[static_cast<std::size_t>(c.exit_slot)])) ||
               (chains_exposed && chain_cut(*c.chain));
      }
      if (uses) {
        c.down = true;
        hit = true;
      }
    }
    if (hit) {
      p.order_dirty = true;  // down flags demote candidates in the order
      if (affected) affected->push_back(i);
    }
  };
  if (chains_exposed) {
    for (std::size_t i = 0; i < pairs_.size(); ++i) check_pair(static_cast<int>(i));
    return;
  }
  // Only stale pairs can be hit: visit them in pair order, dropping the
  // ones refreshed since they were listed.
  std::sort(stale_pairs_.begin(), stale_pairs_.end());
  stale_pairs_.erase(
      std::remove_if(stale_pairs_.begin(), stale_pairs_.end(),
                     [&](int i) {
                       return !pairs_[static_cast<std::size_t>(i)].paths_stale;
                     }),
      stale_pairs_.end());
  for (const int i : stale_pairs_) check_pair(i);
}

std::uint64_t PathRanker::partial_decision_fingerprint(
    const std::vector<int>* local_to_global) const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const std::uint64_t gid =
        local_to_global ? static_cast<std::uint64_t>((*local_to_global)[i])
                        : static_cast<std::uint64_t>(i);
    sum += pair_decision_term(gid, pairs_[i]);
  }
  return sum;
}

void PathRanker::ranked_order(int idx, std::vector<int>* out) const {
  const PairState& p = pairs_[static_cast<std::size_t>(idx)];
  // Sort precomputed (down, objective, index) keys: the objective is
  // evaluated once per candidate, not once per comparison. The order is a
  // strict total order on the keys, so the result is unique.
  order_keys_.clear();
  for (int ci = 0; ci < static_cast<int>(p.candidates.size()); ++ci) {
    if (ci == p.best) continue;
    const Candidate& c = p.candidates[static_cast<std::size_t>(ci)];
    order_keys_.push_back({c.down, candidate_objective(c), ci});
  }
  std::sort(order_keys_.begin(), order_keys_.end(),
            [](const OrderKey& a, const OrderKey& b) {
              if (a.down != b.down) return !a.down;  // down candidates last
              if (a.objective != b.objective) return a.objective > b.objective;
              return a.index < b.index;
            });
  out->clear();
  out->push_back(p.best);
  for (const OrderKey& k : order_keys_) out->push_back(k.index);
}

const std::vector<int>& PathRanker::admission_order(int idx) {
  PairState& p = pairs_[static_cast<std::size_t>(idx)];
  if (p.order_dirty) {
    ranked_order(idx, &p.order_cache);
    p.order_dirty = false;
    ++order_rebuilds_;
  } else {
    ++order_hits_;
  }
  return p.order_cache;
}

}  // namespace cronets::service
