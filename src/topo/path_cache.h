#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "topo/types.h"

namespace cronets::topo {

class Internet;

/// Thread-safe interning memo of policy-routed paths, keyed on
/// (src_endpoint, dst_endpoint). The paper-scale sweeps sample the same
/// few thousand paths over and over (every `measure()` call touches the
/// direct path plus both legs of every overlay candidate); this cache
/// computes each RouterPath once and hands out shared immutable references,
/// taking path expansion — and its per-call vector churn — off the hot
/// path entirely.
///
/// Mirrors the Routing::to() cache contract: `get` is safe to call
/// concurrently (reader/writer lock; a miss computes outside the lock and
/// the first insert wins, so all threads intern one object per pair).
/// `on_adjacency_change` must not race with queries — topology mutations
/// happen in the single-threaded phase between measurement sweeps.
///
/// Scoped invalidation: an adjacency change re-expands only the entries
/// whose route may have moved, and replaces only those that did. Every
/// other entry keeps its object, so per-path state keyed on a PathRef
/// (aggregates, sampler handles, pair plans, ranker candidates) stays
/// valid. The keys of replaced entries are appended to a moved-key log;
/// its length is the cache's path `version()`, the one number consumers
/// compare to learn whether anything they hold may be stale.
class PathCache {
 public:
  explicit PathCache(Internet* topo) : topo_(topo) {}

  /// The interned policy path src -> dst (computed on first use).
  PathRef get(int ep_src, int ep_dst);

  /// The interned cloud-backbone path between two DC endpoints (see
  /// Internet::backbone_path). Lives in a separate key space — bit 63 of
  /// the packed key, which endpoint ids (non-negative ints) never set — so
  /// a DC pair's public policy path and its private backbone path are
  /// distinct entries.
  PathRef get_backbone(int dc_ep_a, int dc_ep_b);

  /// The current entry under `key`, or null. Counts no hit or miss.
  PathRef peek(std::uint64_t key) const;

  /// Called by Internet::set_adjacency_up once the routing tables reflect
  /// the change (`diff`: the next hops that moved). Re-expands every entry
  /// whose AS walk crosses an AS whose next hop toward the entry's
  /// destination moved, or crosses the changed adjacency itself; replaces
  /// and logs the entries whose expansion differs. Entries on the private
  /// backbone read no routing state and are never re-expanded. Outstanding
  /// PathRefs to replaced entries stay valid — they go stale, not
  /// dangling.
  void on_adjacency_change(int as_a, int as_b,
                           const std::unordered_map<int, std::vector<char>>& diff);

  /// Drop every interned path (micro-benchmarks time cold lookups). Every
  /// dropped key is logged as moved, so consumers re-resolve it.
  void invalidate();

  /// Path version: how many entries have been replaced because their route
  /// moved, since construction. A consumer that remembers the version it
  /// last synced to learns what moved since from `moved_since`.
  std::uint64_t version() const { return moved_.size(); }
  /// Keys of the entries replaced after version `since`, oldest first
  /// (one 8-byte key per move; the log is never trimmed).
  std::span<const std::uint64_t> moved_since(std::uint64_t since) const {
    return std::span<const std::uint64_t>(moved_).subspan(since);
  }

  static std::uint64_t key(int ep_src, int ep_dst, bool backbone = false) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ep_src)) << 32) |
           static_cast<std::uint32_t>(ep_dst) | (backbone ? kBackboneKeyBit : 0);
  }
  /// The key a path was expanded for (its identity fields).
  static std::uint64_t key_of(const RouterPath& p) {
    return key(p.src_ep, p.dst_ep, p.backbone);
  }
  static int key_src(std::uint64_t k) {
    return static_cast<int>((k & ~kBackboneKeyBit) >> 32);
  }
  static int key_dst(std::uint64_t k) {
    return static_cast<int>(static_cast<std::uint32_t>(k));
  }
  static bool key_backbone(std::uint64_t k) { return (k & kBackboneKeyBit) != 0; }

  /// Lifetime hit/miss counters (relaxed; exact in single-threaded runs).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Number of currently interned paths.
  std::size_t size() const;

 private:
  static constexpr std::uint64_t kBackboneKeyBit = 1ull << 63;
  /// Lookup-or-compute under the shared-lock protocol of `get`.
  PathRef get_keyed(std::uint64_t k, int ep_src, int ep_dst, bool backbone);

  Internet* topo_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, PathRef> cache_;
  std::vector<std::uint64_t> moved_;  ///< moved-key log (written single-threaded)
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace cronets::topo
