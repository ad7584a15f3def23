#include <algorithm>
#include <cassert>
#include <queue>

#include "topo/internet.h"

namespace cronets::topo {

namespace {
// Route classes, higher preferred (Gao-Rexford local preference).
constexpr int kSelf = 4;
constexpr int kViaCustomer = 3;
constexpr int kViaPeer = 2;
constexpr int kViaProvider = 1;
constexpr int kNone = 0;

struct PqItem {
  int len;
  int via;  // tie-break: lower neighbour id wins
  int node;
  bool operator>(const PqItem& o) const {
    if (len != o.len) return len > o.len;
    if (via != o.via) return via > o.via;
    return node > o.node;
  }
};
using MinPq = std::priority_queue<PqItem, std::vector<PqItem>, std::greater<>>;
}  // namespace

const std::vector<Routing::Entry>& Routing::to(int dst_as) {
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    auto it = cache_.find(dst_as);
    if (it != cache_.end()) return it->second;
  }
  // Compute outside the lock: tables are deterministic, so losing the
  // insert race below just discards an identical duplicate.
  std::vector<Entry> table = compute(dst_as);
  std::unique_lock<std::shared_mutex> lk(mu_);
  return cache_.emplace(dst_as, std::move(table)).first->second;
}

std::vector<Routing::Entry> Routing::compute(int dst_as) const {
  const auto& ases = *ases_;
  const int n = static_cast<int>(ases.size());
  std::vector<Entry> table(n);
  table[dst_as] = Entry{dst_as, 0, kSelf};

  auto better = [](const Entry& cand, const Entry& cur) {
    if (cand.cls != cur.cls) return cand.cls > cur.cls;
    if (cand.len != cur.len) return cand.len < cur.len;
    return cand.next < cur.next;
  };

  // Pass 1 — customer routes: an AS u has one iff a chain of
  // provider->customer edges descends from u to dst. Propagate from dst
  // upward along "x -> provider of x" edges (Dijkstra, unit weights, with
  // deterministic tie-breaking).
  {
    MinPq pq;
    pq.push({0, dst_as, dst_as});
    while (!pq.empty()) {
      auto [len, via, u] = pq.top();
      pq.pop();
      const Entry& cur = table[u];
      if (cur.cls == kSelf && u != dst_as) continue;
      if (u != dst_as && (cur.cls != kViaCustomer || cur.len != len || cur.next != via))
        continue;  // stale
      for (const auto& a : ases[u].adj) {
        if (!a.up) continue;
        if (a.rel != Rel::kCustomerOf) continue;  // neighbour is u's provider
        const int p = a.nbr_as;
        Entry cand{u, len + 1, kViaCustomer};
        if (p != dst_as && better(cand, table[p])) {
          table[p] = cand;
          pq.push({cand.len, cand.next, p});
        }
      }
    }
  }

  // Pass 2 — peer routes: one settlement-free hop into a neighbour that has
  // a customer route (peers only export customer routes).
  std::vector<Entry> peer_routes(n);
  for (int u = 0; u < n; ++u) {
    if (table[u].cls >= kViaCustomer) continue;  // already has better
    for (const auto& a : ases[u].adj) {
      if (!a.up) continue;
      if (a.rel != Rel::kPeerWith) continue;
      const int v = a.nbr_as;
      if (table[v].cls == kViaCustomer || table[v].cls == kSelf) {
        Entry cand{v, table[v].len + 1, kViaPeer};
        if (better(cand, peer_routes[u])) peer_routes[u] = cand;
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    if (peer_routes[u].cls == kViaPeer && better(peer_routes[u], table[u])) {
      table[u] = peer_routes[u];
    }
  }

  // Pass 3 — provider routes: providers export their chosen route (any
  // class) to customers; chains of up-edges allowed. Dijkstra from every AS
  // that already has a route, descending provider->customer edges.
  {
    MinPq pq;
    for (int u = 0; u < n; ++u) {
      if (table[u].cls != kNone) pq.push({table[u].len, table[u].next, u});
    }
    while (!pq.empty()) {
      auto [len, via, p] = pq.top();
      pq.pop();
      if (table[p].cls == kNone || table[p].len != len) continue;  // stale
      for (const auto& a : ases[p].adj) {
        if (!a.up) continue;
        if (a.rel != Rel::kProviderOf) continue;  // neighbour is p's customer
        const int c = a.nbr_as;
        if (table[c].cls >= kViaPeer) continue;  // prefers its own route
        Entry cand{p, len + 1, kViaProvider};
        if (better(cand, table[c])) {
          table[c] = cand;
          pq.push({cand.len, cand.next, c});
        }
      }
    }
  }

  return table;
}

void Routing::on_adjacency_change(int as_a, int as_b, bool up, Diff* diff) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  for (auto& [dst, table] : cache_) {
    const auto a = static_cast<std::size_t>(as_a);
    const auto b = static_cast<std::size_t>(as_b);
    if (!up && table[a].next != as_b && table[b].next != as_a) continue;
    std::vector<Entry> fresh = compute(dst);
    std::vector<char>* moved = nullptr;
    for (std::size_t u = 0; u < fresh.size(); ++u) {
      if (fresh[u].next == table[u].next) continue;
      if (moved == nullptr) {
        moved = &(*diff)[dst];
        moved->assign(fresh.size(), 0);
      }
      (*moved)[u] = 1;
    }
    // In place: the map is node-based, so references handed out by `to`
    // stay valid (they see the new contents).
    table = std::move(fresh);
  }
}

std::vector<int> Routing::as_path(int src_as, int dst_as) {
  std::vector<int> path;
  if (src_as == dst_as) return {src_as};
  const auto& table = to(dst_as);
  int cur = src_as;
  path.push_back(cur);
  int guard = 0;
  while (cur != dst_as) {
    const Entry& e = table[cur];
    if (e.cls == kNone || e.next < 0) return {};  // unreachable
    cur = e.next;
    path.push_back(cur);
    if (++guard > static_cast<int>(ases_->size())) {
      assert(false && "routing loop");
      return {};
    }
  }
  return path;
}

}  // namespace cronets::topo
