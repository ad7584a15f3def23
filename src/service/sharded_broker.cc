#include "service/sharded_broker.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "sim/hash_rng.h"

namespace cronets::service {

namespace {
std::uint64_t adjacency_key(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

bool is_transit(const topo::Internet& topo, int as_id) {
  const topo::Tier t = topo.ases()[static_cast<std::size_t>(as_id)].tier;
  return t == topo::Tier::kTier1 || t == topo::Tier::kTier2;
}

/// Live sessions of one shard whose pinned candidate crosses the AS
/// adjacency (as_a, as_b).
int count_sessions_traversing(const PathRanker& ranker,
                              const SessionManager& sessions, int as_a,
                              int as_b) {
  int count = 0;
  sessions.for_each_live([&](std::uint64_t, const Session& s) {
    const PairState& p = ranker.pair(s.pair);
    const Candidate& c = p.candidates[static_cast<std::size_t>(s.candidate)];
    bool uses = (c.path && path_uses_adjacency(*c.path, as_a, as_b)) ||
                (c.leg2 && path_uses_adjacency(*c.leg2, as_a, as_b));
    for (const auto& mid : c.mids()) {
      if (!uses && mid && path_uses_adjacency(*mid, as_a, as_b)) uses = true;
    }
    if (uses) ++count;
  });
  return count;
}

/// Accumulate per-transit-adjacency live-session counts into `load`
/// (key = packed sorted AS pair). Used to pick failure-injection targets.
void accumulate_transit_load(const topo::Internet& topo,
                             const PathRanker& ranker,
                             const SessionManager& sessions,
                             std::unordered_map<std::uint64_t, int>* load) {
  const auto count_path = [&](const topo::RouterPath& path) {
    for (std::size_t i = 1; i < path.as_seq.size(); ++i) {
      const int u = path.as_seq[i - 1], v = path.as_seq[i];
      if (is_transit(topo, u) && is_transit(topo, v)) {
        ++(*load)[adjacency_key(u, v)];
      }
    }
  };
  sessions.for_each_live([&](std::uint64_t, const Session& s) {
    const PairState& p = ranker.pair(s.pair);
    const Candidate& c = p.candidates[static_cast<std::size_t>(s.candidate)];
    if (c.path) count_path(*c.path);
    for (const auto& mid : c.mids()) {
      if (mid) count_path(*mid);
    }
    if (c.leg2) count_path(*c.leg2);
  });
}

/// The most-loaded transit-to-transit adjacency in `load` (deterministic
/// tie-break on the packed key). False when the map is empty/all-zero.
bool busiest_adjacency_in(const std::unordered_map<std::uint64_t, int>& load,
                          int* as_a, int* as_b) {
  std::uint64_t best_key = 0;
  int best_count = 0;
  for (const auto& [key, count] : load) {
    if (count > best_count || (count == best_count && key < best_key)) {
      best_count = count;
      best_key = key;
    }
  }
  if (best_count == 0) return false;
  *as_a = static_cast<int>(best_key >> 32);
  *as_b = static_cast<int>(best_key & 0xffffffffu);
  return true;
}

}  // namespace

int ShardedBroker::shard_of(int src, int dst, int num_shards) {
  return static_cast<int>(sim::splitmix64(sim::pack_pair(src, dst)) %
                          static_cast<std::uint64_t>(num_shards));
}

ShardedBroker::ShardedBroker(topo::Internet* topo,
                             const core::ModelMeasurement* meter,
                             sim::ThreadPool* pool,
                             std::vector<int> overlay_eps, int num_shards,
                             BrokerConfig cfg)
    : topo_(topo),
      meter_(meter),
      pool_(pool),
      overlay_eps_(std::move(overlay_eps)),
      cfg_(cfg),
      global_nic_(overlay_eps_),
      scheduler_(cfg.probe) {
  assert(num_shards >= 1 && num_shards <= 255 &&
         "shard tag must fit the session-id top byte");
  assert(cfg_.failover_delay <= cfg_.probe.interval &&
         "failover reaction must stay within one probe interval");
  const AdmissionConfig admission{cfg_.nic_capacity_bps > 0
                                     ? cfg_.nic_capacity_bps
                                     : topo_->cloud().vm_nic_bps};
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        topo_, cfg_, overlay_eps_, admission, &global_nic_,
        static_cast<std::uint64_t>(s + 1) << 56, &global_billing_,
        &global_cost_));
  }
  cursor_.assign(shards_.size(), 0);
  listener_id_ = topo_->add_mutation_listener(
      [this](const topo::Mutation& m) { on_mutation(m); });
  // One routing plane serves every shard (each shard's ranker holds the
  // same pointer); it runs its rounds on the broker's own queue, so routing
  // rounds interleave with probe ticks at fixed simulated times and plane
  // state is identical at every shard count — a precondition of the
  // shard-invariance contract.
  route::RoutePlane* plane = cfg_.ranking.route_plane;
  if (plane != nullptr && plane->enabled() && !plane->attached()) {
    plane->attach(&queue_, now_);
  }
  queue_.schedule(now_ + cfg_.probe.tick, [this] { probe_tick(); });
}

ShardedBroker::~ShardedBroker() {
  if (listener_id_ >= 0) topo_->remove_mutation_listener(listener_id_);
}

int ShardedBroker::register_pair(int src, int dst) {
  const auto it = pair_index_.find(sim::pack_pair(src, dst));
  if (it != pair_index_.end()) return it->second;
  const int gid = static_cast<int>(shard_of_pair_.size());
  const int s = shard_of(src, dst, num_shards());
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  const int local = sh.ranker.add_pair(src, dst);
  assert(static_cast<std::size_t>(local) == sh.local_to_global.size() &&
         "shard-local pair ids are dense and append-only");
  sh.local_to_global.push_back(gid);
  pair_index_.emplace(sim::pack_pair(src, dst), gid);
  shard_of_pair_.push_back(s);
  local_of_pair_.push_back(local);
  global_last_probe_.push_back(sim::Time{-1});
  scheduler_.track_pair(gid);
  // Registration is the only place the shard's sweep scratch may grow: any
  // sweep measures at most every pair the shard owns, so steady-state
  // probe ticks never reallocate.
  if (sh.ranker.size() > sh.probe_results.capacity()) {
    const std::size_t want =
        std::max(sh.ranker.size(), 2 * sh.probe_results.capacity());
    sh.probe_results.reserve(want);
    sh.req_pairs.reserve(want);
    sh.sel_local.reserve(want);
  }
  return gid;
}

std::uint64_t ShardedBroker::open_session(int pair_idx, double demand_bps) {
  const int s = shard_of_pair_[static_cast<std::size_t>(pair_idx)];
  const int local = local_of_pair_[static_cast<std::size_t>(pair_idx)];
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  const std::uint64_t id = sh.sessions.admit(sh.ranker, local, demand_bps, now_);
  const Session& sess = sh.sessions.session(id);
  ++sh.admitted;
  if (sh.ranker.pair(local)
          .candidates[static_cast<std::size_t>(sess.candidate)]
          .kind != core::PathKind::kDirect) {
    ++sh.via_overlay;
  }
  stamp_pair_admit(sh.ranker.pair(local), sess.candidate);
  if (monitor_) {
    monitor_->on_admit(id, pair_idx, sess.candidate, demand_bps, now_);
  }
  return id;
}

std::uint64_t ShardedBroker::open_session(int src, int dst, double demand_bps) {
  return open_session(register_pair(src, dst), demand_bps);
}

void ShardedBroker::close_session(std::uint64_t id) {
  const int tag = SessionManager::id_tag_of(id);
  if (tag < 1 || tag > num_shards()) return;
  Shard& sh = *shards_[static_cast<std::size_t>(tag - 1)];
  if (!sh.sessions.live(id)) return;
  const int local = sh.sessions.session(id).pair;
  sh.sessions.release(sh.ranker, id, now_);
  ++sh.released;
  if (monitor_) {
    monitor_->on_release(
        id, sh.local_to_global[static_cast<std::size_t>(local)], now_);
  }
}

void ShardedBroker::warm_up() {
  sel_scratch_.resize(pair_count());
  for (std::size_t g = 0; g < sel_scratch_.size(); ++g) {
    sel_scratch_[g] = static_cast<int>(g);
  }
  measure_selection(sel_scratch_, now_);
  apply_selection(sel_scratch_, now_, /*force_repin=*/false);
}

void ShardedBroker::run_until(sim::Time t) {
  while (queue_.next_time() <= t && queue_.run_next(&now_)) {
  }
  now_ = t;
}

void ShardedBroker::probe_tick() {
  sel_scratch_.clear();
  if (cfg_.probe.incremental) {
    scheduler_.select_incremental(now_, &sel_scratch_);
  } else {
    scheduler_.select(global_last_probe_, now_, &sel_scratch_);
  }
  last_sweep_touched_ =
      cfg_.probe.incremental ? scheduler_.last_scan() : pair_count();
  ++probe_ticks_;
  sweep_pairs_touched_ += last_sweep_touched_;
  if (!sel_scratch_.empty()) {
    measure_selection(sel_scratch_, now_);
    apply_selection(sel_scratch_, now_, /*force_repin=*/false);
  }
  queue_.schedule(now_ + cfg_.probe.tick, [this] { probe_tick(); });
}

void ShardedBroker::measure_selection(const std::vector<int>& sel,
                                      sim::Time t) {
  for (auto& sh : shards_) {
    sh->sel_local.clear();
    sh->req_pairs.clear();
  }
  // Route each globally selected pair to its owning shard, preserving the
  // global selection order within every shard's slice.
  for (const int g : sel) {
    const int s = shard_of_pair_[static_cast<std::size_t>(g)];
    const int local = local_of_pair_[static_cast<std::size_t>(g)];
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    const PairState& p = sh.ranker.pair(local);
    sh.sel_local.push_back(local);
    sh.req_pairs.emplace_back(p.src, p.dst);
  }
  // One task per (shard, batch-of-pairs) slice: every task writes a
  // disjoint range of its shard's result array, and each measurement is a
  // pure function of (seed, src, dst, t) — the fan-out is a performance
  // knob only.
  const std::size_t batch = static_cast<std::size_t>(core::probe_batch_size());
  tasks_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    assert(sh.req_pairs.size() <= sh.probe_results.capacity() &&
           "probe scratch reserved at registration must cover every sweep");
    if (sh.probe_results.size() < sh.req_pairs.size()) {
      sh.probe_results.resize(sh.req_pairs.size());
    }
    for (std::size_t lo = 0; lo < sh.req_pairs.size(); lo += batch) {
      tasks_.emplace_back(static_cast<int>(s), lo);
    }
  }
  const auto measure_task = [&](std::size_t ti) {
    const auto [s, lo] = tasks_[ti];
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    const std::size_t n = std::min(batch, sh.req_pairs.size() - lo);
    meter_->measure_batch(sh.req_pairs.data() + lo, n, overlay_eps_, t,
                          sh.probe_results.data() + lo);
  };
  if (pool_ != nullptr && sel.size() >= 8 && tasks_.size() > 1) {
    pool_->parallel_for(tasks_.size(), measure_task);
  } else {
    for (std::size_t ti = 0; ti < tasks_.size(); ++ti) measure_task(ti);
  }
}

int ShardedBroker::apply_selection(const std::vector<int>& sel, sim::Time t,
                                   bool force_repin) {
  // Samples are applied in the *global* selection order, not shard by
  // shard: repins of different pairs interact through the shared NIC
  // ledger, so the application order must be a pure function of the
  // selection (which is itself partition-invariant).
  std::fill(cursor_.begin(), cursor_.end(), std::size_t{0});
  int moved = 0;
  for (const int g : sel) {
    const int s = shard_of_pair_[static_cast<std::size_t>(g)];
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    const std::size_t k = cursor_[static_cast<std::size_t>(s)]++;
    moved += apply_probe(sh, g, sh.sel_local[k], sh.probe_results[k], t,
                         force_repin);
  }
  return moved;
}

int ShardedBroker::apply_probe(Shard& sh, int global_id, int local_idx,
                               const core::PairSample& s, sim::Time t,
                               bool force_repin) {
  PairState& p = sh.ranker.pair(local_idx);
  const bool changed = sh.ranker.apply_sample(local_idx, s, t);
  if (changed) ++sh.flips;
  int moved = 0;
  if (changed || force_repin) {
    moved = sh.sessions.repin_pair(sh.ranker, local_idx, t);
    sh.migrations += static_cast<std::uint64_t>(moved);
    if (force_repin) sh.failover_repins += static_cast<std::uint64_t>(moved);
    stamp_pair_repin(p, moved);
  }
  ++sh.probes;
  global_last_probe_[static_cast<std::size_t>(global_id)] = p.last_probe;
  scheduler_.on_probed(global_id, p.last_probe);
  if (monitor_) {
    monitor_->on_probe_applied(global_id, t, changed || force_repin, moved);
  }
  return moved;
}

void ShardedBroker::on_mutation(const topo::Mutation& m) {
  if (m.kind != topo::Mutation::Kind::kAdjacencyChange) {
    return;  // transient congestion: rankings adapt through normal probing
  }
  // Mark the pairs holding moved paths now; each re-resolves them at its
  // next sample.
  for (auto& sh : shards_) sh->ranker.sync_paths();
  if (m.up) {
    // Restored adjacency: age every ranking fleet-wide so the budgeted
    // prober re-ranks over the coming ticks (moved paths re-resolved
    // lazily).
    for (auto& sh : shards_) {
      for (int i = 0; i < static_cast<int>(sh->ranker.size()); ++i) {
        sh->ranker.pair(i).last_probe = sim::Time{-1};
      }
    }
    std::fill(global_last_probe_.begin(), global_last_probe_.end(),
              sim::Time{-1});
    scheduler_.age_all();
    return;
  }
  // Failure: fan the mark-down out to every shard (shard-index order) and
  // merge the impacted pairs into one globally sorted failover batch.
  for (auto& sh : shards_) {
    local_scratch_.clear();
    sh->ranker.mark_adjacency_down(m.as_a, m.as_b, &local_scratch_);
    for (const int l : local_scratch_) {
      pending_failover_pairs_.push_back(
          sh->local_to_global[static_cast<std::size_t>(l)]);
    }
  }
  std::sort(pending_failover_pairs_.begin(), pending_failover_pairs_.end());
  pending_failover_pairs_.erase(std::unique(pending_failover_pairs_.begin(),
                                            pending_failover_pairs_.end()),
                                pending_failover_pairs_.end());
  if (!pending_failover_pairs_.empty() && pending_failover_since_.ns() < 0) {
    pending_failover_since_ = now_;
  }
  if (!failover_scheduled_ && !pending_failover_pairs_.empty()) {
    failover_scheduled_ = true;
    queue_.schedule(now_ + cfg_.failover_delay, [this] { handle_failover(); });
  }
}

void ShardedBroker::handle_failover() {
  failover_scheduled_ = false;
  std::vector<int> pairs;
  pairs.swap(pending_failover_pairs_);
  const sim::Time since = pending_failover_since_;
  pending_failover_since_ = sim::Time{-1};
  if (pairs.empty()) return;

  measure_selection(pairs, now_);
  const int moved = apply_selection(pairs, now_, /*force_repin=*/true);
  ++failover_events_;
  last_failover_reaction_ = now_ - since;
  if (monitor_) monitor_->on_failover_complete(since, now_, pairs, moved);
}

void ShardedBroker::settle_billing() {
  // Global-pair-id order, not shard order: each settled session appends to
  // the global billing ledger's doubles, and the accumulation order must
  // be a pure function of the registration order for the ledger to stay
  // bitwise invariant to the partitioning.
  for (std::size_t g = 0; g < shard_of_pair_.size(); ++g) {
    const int s = shard_of_pair_[g];
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    sh.sessions.settle_pair(sh.ranker, local_of_pair_[g], now_);
  }
}

std::size_t ShardedBroker::active_sessions() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh->sessions.active();
  return n;
}

const PairState& ShardedBroker::pair(int pair_idx) const {
  const int s = shard_of_pair_[static_cast<std::size_t>(pair_idx)];
  return shards_[static_cast<std::size_t>(s)]->ranker.pair(
      local_of_pair_[static_cast<std::size_t>(pair_idx)]);
}

const PathRanker& ShardedBroker::shard_ranker(int shard) const {
  return shards_[static_cast<std::size_t>(shard)]->ranker;
}

const SessionManager& ShardedBroker::shard_sessions(int shard) const {
  return shards_[static_cast<std::size_t>(shard)]->sessions;
}

ShardedBrokerStats ShardedBroker::stats() const {
  ShardedBrokerStats out;
  out.shards.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardStats ss;
    ss.pairs = sh->ranker.size();
    ss.active_sessions = sh->sessions.active();
    ss.sessions_admitted = sh->admitted;
    ss.sessions_released = sh->released;
    ss.admitted_via_overlay = sh->via_overlay;
    ss.migrations = sh->migrations;
    ss.probes = sh->probes;
    ss.ranking_flips = sh->flips;
    ss.failover_repins = sh->failover_repins;
    ss.overlay_denied = sh->sessions.overlay_denied();
    ss.nic_used_bps = sh->sessions.ledger().total_used_bps();
    ss.nic_peak_bps = sh->sessions.ledger().peak_used_bps();
    out.sessions_admitted += ss.sessions_admitted;
    out.sessions_released += ss.sessions_released;
    out.admitted_via_overlay += ss.admitted_via_overlay;
    out.migrations += ss.migrations;
    out.probes += ss.probes;
    out.ranking_flips += ss.ranking_flips;
    out.failover_repins += ss.failover_repins;
    // Merge the per-pair decision chains shard by shard, in shard-index
    // order; wrapping addition keyed by global pair id makes the merged
    // fingerprint independent of the partitioning.
    out.decision_fingerprint +=
        sh->ranker.partial_decision_fingerprint(&sh->local_to_global);
    out.budget_denied += sh->sessions.budget_denied();
    out.slo_met += sh->sessions.slo_met();
    out.slo_total += sh->sessions.slo_total();
    out.shards.push_back(ss);
  }
  out.failover_events = failover_events_;
  out.probe_ticks = probe_ticks_;
  out.sweep_pairs_touched = sweep_pairs_touched_;
  out.last_failover_reaction = last_failover_reaction_;
  // Fold per-pair regret in global-pair-id order: a fixed floating-point
  // summation order, so the aggregate is bitwise shard-count-invariant.
  for (std::size_t g = 0; g < shard_of_pair_.size(); ++g) {
    const PairState& p = pair(static_cast<int>(g));
    out.regret_sum += p.regret_sum;
    out.regret_samples += p.regret_samples;
  }
  return out;
}

int ShardedBroker::sessions_traversing(int as_a, int as_b) const {
  int count = 0;
  for (const auto& sh : shards_) {
    count += count_sessions_traversing(sh->ranker, sh->sessions, as_a, as_b);
  }
  return count;
}

bool ShardedBroker::busiest_transit_adjacency(int* as_a, int* as_b) const {
  std::unordered_map<std::uint64_t, int> load;
  for (const auto& sh : shards_) {
    accumulate_transit_load(*topo_, sh->ranker, sh->sessions, &load);
  }
  return busiest_adjacency_in(load, as_a, as_b);
}

}  // namespace cronets::service
