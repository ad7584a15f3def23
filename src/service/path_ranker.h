#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/measure_model.h"
#include "core/overlay.h"
#include "core/selection.h"
#include "econ/billing_ledger.h"
#include "econ/pricing_book.h"
#include "route/plane.h"
#include "sim/hash_rng.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::service {

/// Smoothing and stability knobs of the per-pair path tables.
struct RankerConfig {
  /// EWMA weight of a fresh probe sample (1 = no smoothing). Smoothing is
  /// what keeps rankings from flapping on per-probe measurement noise —
  /// the delay-based-routing lesson: raw probe-driven selection oscillates.
  double ewma_alpha = 0.3;
  /// A challenger must beat the incumbent best path's smoothed score by
  /// this relative margin before the pair switches (and sessions migrate).
  double hysteresis = 0.10;
  /// Record every probe into a core::PairHistory per pair (direct +
  /// per-overlay split samples plus the score the pinned path achieved),
  /// so regret and the core/selection baselines can be computed offline.
  bool record_history = true;
  /// Multi-hop routing plane (not owned; null = feature off, zero new
  /// candidates, all fingerprints unchanged). When set AND the plane's
  /// policy is enabled, every pair also ranks kMultiHop candidates: enter
  /// the cloud at one VM, ride the plane's current backbone route, exit at
  /// another. The plane must outlive the ranker and run on the same event
  /// queue as the owning broker so that route reads are deterministic
  /// (the brokers attach an un-attached plane to their own queue at
  /// construction). One plane instance per control plane — never share
  /// one across brokers being compared against each other.
  route::RoutePlane* route_plane = nullptr;
  /// The economics plane (econ::EconConfig). With `econ.pricing` null the
  /// plane is off: no candidate is priced, the ranking objective is raw
  /// smoothed goodput, and every fingerprint is bitwise unchanged. With a
  /// pricing book attached, candidates carry their $/GB and billing cells,
  /// and `econ.policy` selects the ranking objective (the kPerformance
  /// policy still ranks on goodput alone — pricing is then pure
  /// observation for the metered ledger).
  econ::EconConfig econ;
};

/// One multi-hop route as composed from the routing plane: the DC
/// endpoint chain entry..exit (>= 2 entries; empty = no usable route), the
/// plane node of each, its interned backbone segments, the plane version
/// it was read at (RoutePlane::pair_route_version of the exit), and — with
/// the economics plane on — its price toward one destination region.
/// Composed once per (entry, exit, destination region, version) per
/// ranker and shared, immutable, by every candidate riding it.
struct MultiHopChain {
  std::vector<int> via;
  std::vector<int> nodes;
  std::vector<topo::PathRef> mids;
  std::uint64_t route_ver = 0;
  double usd_per_gb = 0.0;
  std::vector<econ::BillCell> bills;
};

/// One candidate route of a (src, dst) pair: the direct policy path, a
/// split-TCP relay through one overlay VM, or a multi-hop chain entering
/// the cloud at `overlay_ep` and exiting at `exit_ep` along the routing
/// plane's current backbone route.
struct Candidate {
  core::PathKind kind = core::PathKind::kDirect;
  int overlay_ep = -1;        ///< kSplitOverlay/kMultiHop: entry VM
  int exit_ep = -1;           ///< kMultiHop only: exit VM
  int entry_slot = -1;        ///< overlay index of overlay_ep (ranker list)
  int exit_slot = -1;         ///< kMultiHop only: overlay index of exit_ep
  double score_bps = 0.0;     ///< EWMA-smoothed predicted throughput
  double last_bps = 0.0;      ///< most recent raw probe sample
  bool measured = false;      ///< at least one probe applied
  bool down = false;          ///< traverses a failed adjacency (await repin)
  topo::PathRef path;         ///< direct path, or leg src -> entry VM
  topo::PathRef leg2;         ///< overlay kinds: exit VM -> dst
  /// kMultiHop: the shared plane route the score was composed against
  /// (stale version => re-read on the next probe). Never null.
  std::shared_ptr<const MultiHopChain> chain;
  /// Economics plane (RankerConfig::econ.pricing set): what one GB of this
  /// candidate's traffic costs, and — direct and one-hop kinds — the
  /// metering cell behind that number: direct pays nothing, a one-hop
  /// relay pays transit egress at its VM, a multi-hop chain pays backbone
  /// egress at every intermediate hop plus transit at the exit (its cells
  /// live in the chain). Recomputed whenever the candidate's route is
  /// (re)built, so the price always matches the current chain.
  double usd_per_gb = 0.0;
  std::vector<econ::BillCell> bills;

  /// kMultiHop: the chain's DC endpoints; empty otherwise.
  const std::vector<int>& via() const {
    static const std::vector<int> kNone;
    return chain ? chain->via : kNone;
  }
  /// kMultiHop: the chain's backbone segments; empty otherwise.
  const std::vector<topo::PathRef>& mids() const {
    static const std::vector<topo::PathRef> kNone;
    return chain ? chain->mids : kNone;
  }
  /// The per-hop metering cells of this candidate's traffic.
  const std::vector<econ::BillCell>& bill_cells() const {
    return chain ? chain->bills : bills;
  }
};

/// Ranked path table of one (src, dst) pair, plus the broker bookkeeping
/// that rides along with it (pinned sessions, probe staleness, history).
struct PairState {
  int src = -1;
  int dst = -1;
  std::vector<Candidate> candidates;  ///< [0] = direct, then overlays
  int best = 0;                       ///< hysteresis-stable current choice
  sim::Time last_probe{-1};           ///< negative: never probed
  std::uint64_t probes = 0;
  /// A candidate's path was replaced in the PathCache since the pair
  /// resolved them; the pair re-resolves before its next sample.
  bool paths_stale = false;
  /// Session slots currently pinned to this pair (owned by SessionManager;
  /// order = admission order, with swap-removal on release).
  std::vector<std::uint32_t> sessions;
  /// Probe log for offline analysis (RankerConfig::record_history).
  core::PairHistory history;
  std::vector<double> achieved_bps;  ///< pinned path's raw sample per probe
  /// Regret inputs of the latest applied sample, both clamped to 0 on
  /// unreachable candidates: the best raw value any candidate scored, and
  /// what the path pinned *before* the sample was applied scored.
  double last_oracle_bps = 0.0;
  double last_pinned_bps = 0.0;
  /// Per-pair goodput regret, accumulated by apply_sample in probe-time
  /// order. Unlike a broker-global running sum, a per-pair sum is a pure
  /// function of the pair's own probe sequence, so it is bitwise identical
  /// no matter how the pair space is partitioned across broker shards.
  double regret_sum = 0.0;
  std::uint64_t regret_samples = 0;
  /// Order-sensitive hash chain over this pair's own control-plane
  /// decisions (admissions and repins, stamped via stamp_pair_admit /
  /// stamp_pair_repin). All of a pair's decisions happen on its owning
  /// shard in simulated-time order, so the chain — unlike a broker-global
  /// chain, whose cross-pair interleaving depends on the partitioning —
  /// is invariant to shard count and thread count.
  std::uint64_t decision_fp = 0;
  std::uint64_t admit_seq = 0;  ///< admissions stamped into the chain
  /// Cached admission order (see PathRanker::admission_order) plus its
  /// dirty bit — the heart of dirty-set incremental re-ranking. Set by
  /// every mutation that can change the ranking (apply_sample,
  /// mark_adjacency_down, candidate rebuilds); admissions on a clean pair
  /// reuse the cached order with no sort.
  std::vector<int> order_cache;
  bool order_dirty = true;
};

/// Fold one admission into the pair's decision chain.
inline void stamp_pair_admit(PairState& p, int candidate) {
  ++p.admit_seq;
  p.decision_fp = sim::hash_combine(
      p.decision_fp, sim::hash_combine(0xAD317ull,
                                       sim::hash_combine(p.admit_seq,
                                                         static_cast<std::uint64_t>(
                                                             candidate))));
}

/// Fold one repin (post-probe or failover migration sweep) into the chain.
inline void stamp_pair_repin(PairState& p, int moved) {
  p.decision_fp = sim::hash_combine(
      p.decision_fp,
      sim::hash_combine(0x4E914ull,
                        sim::hash_combine(static_cast<std::uint64_t>(moved),
                                          static_cast<std::uint64_t>(p.best))));
}

/// One pair's contribution to a global decision fingerprint, keyed by its
/// partition-independent global pair id. Contributions combine by wrapping
/// 64-bit addition — commutative and associative — so per-shard partial
/// sums merged in shard-index order equal the 1-shard sum bit for bit.
inline std::uint64_t pair_decision_term(std::uint64_t global_id,
                                        const PairState& p) {
  return sim::splitmix64(sim::hash_combine(
      sim::hash_combine(0x5da4d5ull, global_id),
      sim::hash_combine(p.decision_fp, p.admit_seq)));
}

/// Does this router-level path cross the AS adjacency (as_a, as_b) in
/// either direction?
bool path_uses_adjacency(const topo::RouterPath& path, int as_a, int as_b);

/// Per-pair ranked path tables: direct vs. split-overlay candidates scored
/// by smoothed predicted throughput, backed by interned topo::PathCache
/// PathRefs. The ranker itself is passive — the ProbeScheduler decides when
/// a pair is re-measured, the broker feeds samples in via `apply_sample`.
///
/// Route moves are scoped: the ranker follows the PathCache's moved-key
/// log and re-resolves only the pairs whose direct path or legs moved, at
/// their next sample; an unmoved pair's paths are already the cache's
/// current entries. Multi-hop chains are composed once per (entry, exit,
/// destination region, plane version) for the whole ranker and shared.
class PathRanker {
 public:
  PathRanker(topo::Internet* topo, RankerConfig cfg,
             std::vector<int> overlay_eps);

  /// Register (or find) the pair. Candidate paths are interned on first
  /// registration; scores start unmeasured (the direct path ranks first
  /// until probed).
  int add_pair(int src, int dst);
  int find_pair(int src, int dst) const;  ///< -1 if unknown

  std::size_t size() const { return pairs_.size(); }
  const PairState& pair(int idx) const { return pairs_[idx]; }
  PairState& pair(int idx) { return pairs_[idx]; }
  const std::vector<int>& overlay_eps() const { return overlay_eps_; }
  const RankerConfig& config() const { return cfg_; }

  /// Fold a fresh measurement into the pair's smoothed scores and re-rank
  /// with hysteresis. Returns true when the best candidate changed (the
  /// caller migrates sessions). Also logs regret inputs when recording.
  /// A pair whose paths moved re-resolves them first (smoothed scores
  /// survive — the endpoints didn't move, only the route did — and this
  /// sample corrects them). Every candidate the sample scores leaves with
  /// `down` cleared; a probe of the ranker's full overlay set scores every
  /// candidate, which is what lifts the failover marks.
  bool apply_sample(int idx, const core::PairSample& s, sim::Time t);

  /// Follow the PathCache's moved-key log: mark every pair holding a
  /// replaced path stale (PairState::paths_stale). apply_sample and
  /// mark_adjacency_down do this themselves; an owner reacting to an
  /// adjacency change calls it so the marks are current right away.
  void sync_paths();

  /// Append the indices of pairs with any candidate whose interned path
  /// crosses the AS adjacency (as_a, as_b) that just failed; marks those
  /// candidates `down` so no new session pins to them before the failover
  /// repin. Only pairs holding paths the PathCache has since replaced can
  /// cross it (a current path routes around a down session), plus
  /// multi-hop chains through a VM of as_a/as_b.
  void mark_adjacency_down(int as_a, int as_b, std::vector<int>* affected);

  /// Candidate order for admission: current best first, then the remaining
  /// candidates by descending smoothed score (down candidates last).
  /// Writes indices into `out` (sized to candidates.size()). This is the
  /// full-recompute reference; admissions use admission_order below.
  void ranked_order(int idx, std::vector<int>* out) const;

  /// The pair's cached admission order — identical content to ranked_order,
  /// but only recomputed when the pair's dirty bit is set (a probe was
  /// applied, paths refreshed, or an adjacency failed since the last call).
  /// Steady-state admissions on a clean pair are sort-free, so admission
  /// cost scales with probe/mutation churn instead of session count.
  const std::vector<int>& admission_order(int idx);

  /// The scalar the current cost policy ranks candidates by. Under
  /// kPerformance (or with no pricing book) this is exactly the smoothed
  /// score — same doubles, same comparisons, bitwise-identical rankings.
  /// kMinCostMeetingSlo maps SLO-meeting candidates into (1, 2] by
  /// cheapness and the rest into [0, 1) by score (a monotone transform of
  /// score below the SLO, so the fallback ranking matches performance);
  /// kPareto blends normalized goodput and normalized $/GB with alpha.
  /// Hysteresis applies to this objective, whatever the policy.
  double candidate_objective(const Candidate& c) const;

  /// Whether the pair's cached order is stale (test/bench introspection).
  bool order_dirty(int idx) const {
    return pairs_[static_cast<std::size_t>(idx)].order_dirty;
  }
  /// Cached-order rebuilds / clean reuses since construction.
  std::uint64_t order_rebuilds() const { return order_rebuilds_; }
  std::uint64_t order_hits() const { return order_hits_; }
  /// Reporting only: pairs re-resolved after a route move, and multi-hop
  /// chains composed, since construction.
  std::uint64_t pairs_refreshed() const { return pairs_refreshed_; }
  std::uint64_t chain_compositions() const { return chain_compositions_; }

  /// Sum of this ranker's pair_decision_term contributions, keyed by
  /// `local_to_global` (identity when null). Per-shard partials merged in
  /// shard-index order reproduce the unsharded sum bitwise — the global
  /// decision fingerprint of the sharded control plane.
  std::uint64_t partial_decision_fingerprint(
      const std::vector<int>* local_to_global = nullptr) const;

 private:
  void build_candidates(PairState* p);
  /// Resolve the candidates' paths from the PathCache.
  void resolve_paths(PairState* p);
  void mark_stale(int idx);
  /// Point a kMultiHop candidate at the ranker's current chain for its
  /// (entry, exit, destination region), composing it if stale.
  void set_chain(const PairState& p, Candidate* c);
  /// The direct/one-hop candidate's $/GB and billing cell from the pricing
  /// book (no-op with the economics plane off).
  void price_candidate(const PairState& p, Candidate* c) const;

  topo::Internet* topo_;
  RankerConfig cfg_;
  std::vector<int> overlay_eps_;
  std::unordered_map<int, int> slot_of_ep_;  ///< overlay ep -> overlay index
  std::vector<int> slot_node_;  ///< overlay index -> plane node (-1: none)
  std::vector<int> plane_as_;   ///< ASes of the plane's nodes
  std::vector<PairState> pairs_;
  std::unordered_map<std::uint64_t, int> index_;  // (src,dst) -> pair idx
  std::unordered_map<int, std::vector<int>> pairs_by_src_, pairs_by_dst_;
  bool indexed_ = false;  ///< pairs_by_* built (on the first route move)
  std::uint64_t path_version_ = 0;  ///< PathCache version synced to
  std::vector<int> stale_pairs_;    ///< may hold pairs refreshed since
  /// key: (entry slot, exit slot, destination region) -> current chain.
  std::unordered_map<std::uint64_t, std::shared_ptr<const MultiHopChain>>
      chains_;
  // Per-call scratch.
  std::vector<double> probe_split_, probe_leg1_, probe_leg2_;
  std::vector<char> leg1_hit_, leg2_hit_;
  std::vector<std::size_t> slot_candidate_;  ///< overlay index -> one-hop
  std::unordered_map<const MultiHopChain*, bool> chain_hit_;
  struct OrderKey {
    bool down;
    double objective;
    int index;
  };
  mutable std::vector<OrderKey> order_keys_;
  std::uint64_t order_rebuilds_ = 0;
  std::uint64_t order_hits_ = 0;
  std::uint64_t pairs_refreshed_ = 0;
  std::uint64_t chain_compositions_ = 0;
};

}  // namespace cronets::service
