#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/measure_model.h"
#include "service/broker.h"
#include "service/path_ranker.h"
#include "service/probe_scheduler.h"
#include "service/session_manager.h"
#include "sim/event_queue.h"
#include "sim/thread_pool.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::service {

/// Per-shard slice of the aggregated statistics (reporting only — every
/// decision-bearing quantity lives in the shard-invariant aggregate).
struct ShardStats {
  std::size_t pairs = 0;
  std::size_t active_sessions = 0;
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_released = 0;
  std::uint64_t admitted_via_overlay = 0;
  std::uint64_t migrations = 0;
  std::uint64_t probes = 0;
  std::uint64_t ranking_flips = 0;
  std::uint64_t failover_repins = 0;
  std::uint64_t overlay_denied = 0;
  double nic_used_bps = 0.0;  ///< this shard's current NIC reservations
  double nic_peak_bps = 0.0;  ///< this shard's peak NIC reservation
};

/// Aggregate counters of a sharded run. Integer totals are exact sums over
/// shards; the decision fingerprint and regret are merged per pair (see
/// ShardedBroker), so every field is a pure function of (world seed,
/// workload seed, config) — never of shard count, thread count, or
/// wall-clock.
struct ShardedBrokerStats {
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_released = 0;
  std::uint64_t admitted_via_overlay = 0;
  std::uint64_t migrations = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_ticks = 0;
  /// Pairs the global probe sweeps examined, summed over ticks: the
  /// incremental scheduler walks only each tick's due prefix (zero on a
  /// clean steady-state tick), the stateless scan always walks every pair.
  /// Dividing by probe_ticks gives the dirty-set size the benches report.
  std::uint64_t sweep_pairs_touched = 0;
  std::uint64_t ranking_flips = 0;
  std::uint64_t failover_events = 0;
  std::uint64_t failover_repins = 0;
  /// Reaction time of the most recent failover (mutation -> repin done).
  sim::Time last_failover_reaction{0};
  /// Shard-count- and thread-count-invariant global decision fingerprint:
  /// per-pair decision chains keyed by global pair id, merged across
  /// shards in shard-index order by wrapping 64-bit addition.
  std::uint64_t decision_fingerprint = 0;
  /// Economics-plane counters, summed over shards (exact integers).
  std::uint64_t budget_denied = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t slo_total = 0;
  /// Goodput regret vs. the per-sample oracle, folded over pairs in
  /// global-pair-id order (fixed summation order: bitwise invariant).
  double regret_sum = 0.0;
  std::uint64_t regret_samples = 0;
  std::vector<ShardStats> shards;

  double mean_regret() const {
    return regret_samples ? regret_sum / static_cast<double>(regret_samples)
                          : 0.0;
  }
};

/// Horizontally partitioned CRONets control plane: the pair space is split
/// by a deterministic endpoint hash across N broker shards, each owning
/// its own slot-arena session table, its own per-pair path tables, and its
/// own probe scratch (request buffers + PairSample results), so probe
/// sweeps fan out across shards x batches with zero shared mutable state.
/// Admission capacity stays physical: every shard's session table checks
/// reservations against one shared NIC ledger, because sharding the
/// brokers does not multiply the overlay VMs' NICs.
///
/// Determinism contract — every decision is bitwise identical at any shard
/// count and any thread count:
///  - Probe selection is global: a flat staleness table indexed by global
///    pair id feeds one ProbeScheduler, so which pairs are probed when
///    never depends on the partitioning. Each shard's slice of the
///    selection is its probe-budget share for that tick.
///  - Measurements are pure functions of (seed, src, dst, t); shards and
///    batches are a fan-out knob only.
///  - Samples are applied in global-selection order on the single-threaded
///    event queue, so cross-pair effects through the shared NIC ledger
///    happen in one fixed order.
///  - Topology mutations fan out to every shard in shard-index order
///    through one topo::Internet mutation listener; impacted pairs merge
///    into one globally sorted failover batch.
///  - The global decision fingerprint merges per-pair decision chains
///    (keyed by global pair id) across shards in shard-index order with
///    wrapping addition — commutative, so any partition of the pairs
///    yields the same 64-bit value.
///  - A BrokerMonitor attached with set_monitor sees every decision in
///    that same global order, keyed by global pair id, and never feeds
///    back into a decision.
class ShardedBroker final : public ControlPlane {
 public:
  ShardedBroker(topo::Internet* topo, const core::ModelMeasurement* meter,
                sim::ThreadPool* pool, std::vector<int> overlay_eps,
                int num_shards, BrokerConfig cfg = {});
  ~ShardedBroker() override;

  ShardedBroker(const ShardedBroker&) = delete;
  ShardedBroker& operator=(const ShardedBroker&) = delete;

  /// Owning shard of a (src, dst) pair: a pure function of the endpoint
  /// ids and the shard count (splitmix64 of the packed pair, mod N).
  static int shard_of(int src, int dst, int num_shards);

  int register_pair(int src, int dst) override;
  std::uint64_t open_session(int pair_idx, double demand_bps) override;
  /// Convenience: register-or-find the pair first.
  std::uint64_t open_session(int src, int dst, double demand_bps);
  void close_session(std::uint64_t id) override;

  /// Probe every registered pair once at the current time (parallel across
  /// shards and batches). Call after registering pairs, before run_until.
  void warm_up();

  void run_until(sim::Time t) override;

  /// Attach (or detach with nullptr) a decision observer. Observation
  /// never feeds back into decisions, so the decision fingerprint is
  /// identical with and without a monitor.
  void set_monitor(BrokerMonitor* monitor) { monitor_ = monitor; }

  sim::Time now() const override { return now_; }
  sim::EventQueue& queue() override { return queue_; }
  sim::Time pair_last_probe(int pair_idx) const override {
    return global_last_probe_[static_cast<std::size_t>(pair_idx)];
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t pair_count() const { return shard_of_pair_.size(); }
  std::size_t active_sessions() const;

  /// The pair's state on its owning shard (read-only global view).
  const PairState& pair(int pair_idx) const;
  int pair_shard(int pair_idx) const {
    return shard_of_pair_[static_cast<std::size_t>(pair_idx)];
  }

  const PathRanker& shard_ranker(int shard) const;
  const SessionManager& shard_sessions(int shard) const;
  /// The shared capacity authority all shards reserve against.
  const NicLedger& global_nic() const { return global_nic_; }
  /// The global economics books every shard also writes to, in global
  /// event order — bitwise identical at any shard count (the per-shard
  /// books, reachable via shard_sessions, sum to these within rounding).
  const econ::BillingLedger& global_billing() const { return global_billing_; }
  const econ::CostLedger& global_cost() const { return global_cost_; }

  /// Meter every still-live session's bytes up to the current simulated
  /// time (end-of-run settlement). Pairs are settled in global-pair-id
  /// order — NOT shard order — so the global ledger's accumulation order,
  /// and hence its doubles, stay invariant to the shard count.
  void settle_billing();
  const ProbeScheduler& scheduler() const { return scheduler_; }
  const std::vector<int>& overlay_eps() const { return overlay_eps_; }

  /// Pairs examined by the most recent probe tick's global sweep (0 when
  /// every ranking is fresh).
  std::uint64_t last_sweep_touched() const { return last_sweep_touched_; }

  /// Aggregated + per-shard statistics (merged on demand; see
  /// ShardedBrokerStats for the invariance guarantees).
  ShardedBrokerStats stats() const;

  /// Live sessions across all shards whose pinned path crosses (as_a,
  /// as_b) — 0 after a completed failover.
  int sessions_traversing(int as_a, int as_b) const;
  /// The transit-to-transit AS adjacency carrying the most sessions
  /// fleet-wide right now (failure-injection helper: both ASes are
  /// tier-1/2, so routing reconverges around the cut instead of
  /// partitioning). False if no session crosses any transit adjacency.
  bool busiest_transit_adjacency(int* as_a, int* as_b) const;

 private:
  /// One shard: path tables + session arena + this shard's own sweep
  /// scratch. Scratch vectors are sized at registration time and written
  /// at disjoint ranges by concurrent measurement tasks.
  struct Shard {
    Shard(topo::Internet* topo, const BrokerConfig& cfg,
          const std::vector<int>& overlay_eps, AdmissionConfig admission,
          NicLedger* shared_nic, std::uint64_t id_tag,
          econ::BillingLedger* shared_billing, econ::CostLedger* shared_cost)
        : ranker(topo, cfg.ranking, overlay_eps),
          sessions(admission, overlay_eps, shared_nic, id_tag, shared_billing,
                   shared_cost) {}

    PathRanker ranker;
    SessionManager sessions;
    std::vector<int> local_to_global;
    // Per-shard sweep scratch (this shard's probe-budget slice).
    std::vector<int> sel_local;  ///< local pair idxs, global-selection order
    std::vector<std::pair<int, int>> req_pairs;     ///< endpoint ids
    std::vector<core::PairSample> probe_results;    ///< storage reused
    // Reporting counters (aggregates are recomputed shard-invariantly).
    std::uint64_t admitted = 0;
    std::uint64_t released = 0;
    std::uint64_t via_overlay = 0;
    std::uint64_t migrations = 0;
    std::uint64_t probes = 0;
    std::uint64_t flips = 0;
    std::uint64_t failover_repins = 0;
  };

  void probe_tick();
  /// Partition `sel` (global ids, selection order) across shards and
  /// measure every slice (parallel over shard x batch tasks).
  void measure_selection(const std::vector<int>& sel, sim::Time t);
  /// Apply the measured samples in global-selection order; returns the
  /// number of sessions that migrated.
  int apply_selection(const std::vector<int>& sel, sim::Time t,
                      bool force_repin);
  int apply_probe(Shard& sh, int global_id, int local_idx,
                  const core::PairSample& s, sim::Time t, bool force_repin);
  void on_mutation(const topo::Mutation& m);
  void handle_failover();

  topo::Internet* topo_;
  const core::ModelMeasurement* meter_;
  sim::ThreadPool* pool_;  ///< may be null: fully serial probing
  std::vector<int> overlay_eps_;
  BrokerConfig cfg_;
  sim::EventQueue queue_;
  sim::Time now_{0};
  NicLedger global_nic_;
  econ::BillingLedger global_billing_;
  econ::CostLedger global_cost_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ProbeScheduler scheduler_;
  BrokerMonitor* monitor_ = nullptr;
  int listener_id_ = -1;

  // Global pair directory: id allocation order is the workload's
  // registration order, independent of the partitioning.
  std::unordered_map<std::uint64_t, int> pair_index_;  // (src,dst) -> gid
  std::vector<int> shard_of_pair_;                     // gid -> shard
  std::vector<int> local_of_pair_;                     // gid -> local idx
  std::vector<sim::Time> global_last_probe_;           // gid -> staleness

  std::uint64_t failover_events_ = 0;
  std::uint64_t probe_ticks_ = 0;
  std::uint64_t sweep_pairs_touched_ = 0;
  std::uint64_t last_sweep_touched_ = 0;
  sim::Time last_failover_reaction_{0};
  std::vector<int> pending_failover_pairs_;  // global ids
  sim::Time pending_failover_since_{-1};
  bool failover_scheduled_ = false;

  std::vector<int> sel_scratch_;                   // global selection
  std::vector<std::pair<int, std::size_t>> tasks_; // (shard, slice offset)
  std::vector<std::size_t> cursor_;                // per-shard apply cursor
  std::vector<int> local_scratch_;                 // mutation fan-out
};

}  // namespace cronets::service
