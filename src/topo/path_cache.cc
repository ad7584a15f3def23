#include "topo/path_cache.h"

#include <algorithm>
#include <utility>

#include "topo/internet.h"

namespace cronets::topo {

namespace {
bool same_route(const RouterPath& a, const RouterPath& b) {
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
}  // namespace

PathRef PathCache::get(int ep_src, int ep_dst) {
  return get_keyed(key(ep_src, ep_dst), ep_src, ep_dst, /*backbone=*/false);
}

PathRef PathCache::get_backbone(int dc_ep_a, int dc_ep_b) {
  return get_keyed(key(dc_ep_a, dc_ep_b, /*backbone=*/true), dc_ep_a, dc_ep_b,
                   /*backbone=*/true);
}

PathRef PathCache::peek(std::uint64_t k) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  const auto it = cache_.find(k);
  return it == cache_.end() ? nullptr : it->second;
}

PathRef PathCache::get_keyed(std::uint64_t k, int ep_src, int ep_dst,
                             bool backbone) {
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    auto it = cache_.find(k);
    if (it != cache_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Compute outside the lock: paths are deterministic, so losing the
  // insert race below just discards an identical duplicate.
  auto path = std::make_shared<const RouterPath>(
      backbone ? topo_->backbone_path(ep_src, ep_dst)
               : topo_->path(ep_src, ep_dst));
  std::unique_lock<std::shared_mutex> lk(mu_);
  return cache_.emplace(k, std::move(path)).first->second;
}

void PathCache::on_adjacency_change(
    int as_a, int as_b, const std::unordered_map<int, std::vector<char>>& diff) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  const std::size_t before = moved_.size();
  for (auto& [k, ref] : cache_) {
    const int src = key_src(k);
    const int dst = key_dst(k);
    const bool backbone = key_backbone(k);
    if (backbone && topo_->on_backbone(src, dst)) continue;
    const RouterPath& p = *ref;
    // The expansion follows the destination table's next hops from the
    // source AS, so it can only move if one of those hops moved — or, for
    // an unreachable pair, the source's own entry. Crossing the changed
    // adjacency forces a check too: which of two parallel sessions a hop
    // rides is decided at expansion, not in the table.
    const auto d = diff.find(topo_->endpoint(dst).as_id);
    const std::vector<char>* hop_moved = d == diff.end() ? nullptr : &d->second;
    bool check = false;
    if (!p.valid) {
      check = hop_moved != nullptr &&
              (*hop_moved)[static_cast<std::size_t>(topo_->endpoint(src).as_id)];
    }
    for (std::size_t i = 0; !check && i + 1 < p.as_seq.size(); ++i) {
      const int u = p.as_seq[i], v = p.as_seq[i + 1];
      check = (hop_moved != nullptr && (*hop_moved)[static_cast<std::size_t>(u)]) ||
              (u == as_a && v == as_b) || (u == as_b && v == as_a);
    }
    if (!check) continue;
    RouterPath fresh = backbone ? topo_->backbone_path(src, dst)
                                : topo_->path(src, dst);
    if (same_route(fresh, p)) continue;
    ref = std::make_shared<const RouterPath>(std::move(fresh));
    moved_.push_back(k);
  }
  // Log one mutation's keys in key order, not hash-map order.
  std::sort(moved_.begin() + static_cast<std::ptrdiff_t>(before), moved_.end());
}

void PathCache::invalidate() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  const std::size_t before = moved_.size();
  for (const auto& [k, ref] : cache_) moved_.push_back(k);
  std::sort(moved_.begin() + static_cast<std::ptrdiff_t>(before), moved_.end());
  cache_.clear();
}

std::size_t PathCache::size() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return cache_.size();
}

}  // namespace cronets::topo
