#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "econ/billing_ledger.h"
#include "service/path_ranker.h"
#include "sim/time.h"

namespace cronets::service {

/// Admission-control knobs. The per-overlay cap is the Softlayer 100 Mbps
/// virtual NIC (CloudParams::vm_nic_bps): a split-overlay session reserves
/// its demand on the relay VM's NIC, and a full NIC pushes new sessions to
/// the next-ranked candidate (ultimately the direct path, which consumes
/// no rented resources and always admits).
struct AdmissionConfig {
  double nic_capacity_bps = 100e6;
};

/// Per-overlay-VM NIC reservation book. A plain value type so a session
/// table can keep its own (per-shard accounting) while admission checks go
/// through a shared global instance: the overlay VMs are physical — their
/// NICs don't multiply when the control plane is sharded. All mutation
/// happens on the single-threaded control plane.
class NicLedger {
 public:
  NicLedger() = default;
  explicit NicLedger(const std::vector<int>& overlay_eps);

  void add(int overlay_ep, double bps);
  void sub(int overlay_ep, double bps);
  /// Current reserved bandwidth on one overlay VM's NIC (0 for unknown).
  double used_bps(int overlay_ep) const;
  /// Whether `bps` more still fits under `cap_bps` on one overlay VM's NIC.
  /// False for an endpoint the ledger does not hold: a VM the broker never
  /// rented has no NIC to reserve on (a routing plane may span more DCs
  /// than the rented fleet, so a via chain can name one).
  bool fits(int overlay_ep, double bps, double cap_bps) const;
  /// Highest reservation ever observed on any overlay NIC.
  double peak_used_bps() const { return peak_used_bps_; }
  /// Sum of current reservations across every overlay NIC.
  double total_used_bps() const;

 private:
  std::unordered_map<int, int> slot_;  // overlay ep -> used_ index
  std::vector<double> used_;
  double peak_used_bps_ = 0.0;
};

/// One long-lived client session pinned to a candidate path of its pair.
struct Session {
  int pair = -1;
  int candidate = 0;          ///< index into PairState::candidates
  double demand_bps = 0.0;
  sim::Time admitted{};
  std::uint32_t pos_in_pair = 0;  ///< index into PairState::sessions
  std::uint32_t gen = 0;          ///< odd while live (slot reuse guard)
  /// Overlay VMs this session's demand is reserved on (empty for direct,
  /// one for a one-hop relay, the via chain for multi-hop). Recorded at
  /// reservation time because a multi-hop candidate's chain can be
  /// re-routed while the session stays pinned — releases must return the
  /// capacity to the NICs that actually hold it, not the current chain.
  std::vector<int> reserved_eps;
  /// Economics plane: billing cells and $/GB of the candidate the session
  /// reserved onto, copied at reservation time for the same reason as
  /// reserved_eps — a plane re-route must not silently change what an
  /// already-pinned session pays. `billed_until` is the accrual watermark:
  /// bytes from it to "now" are metered at release/repin/settle time.
  double usd_per_gb = 0.0;
  double cost_rate_usd_per_hour = 0.0;
  sim::Time billed_until{};
  std::vector<econ::BillCell> bills;
};

/// Session table + per-overlay-node NIC accounting. Sessions live in a
/// slot arena (ids are (generation, slot) pairs) so the 10^5..10^6-session
/// workloads run without per-session allocation or hashing on the hot
/// admission path.
class SessionManager {
 public:
  /// `shared_nic` is the capacity authority admission checks and
  /// reservations go through *in addition to* this table's own ledger —
  /// the sharded broker hands every shard the same global ledger so NIC
  /// capacity stays physical while per-shard ledgers keep the accounting
  /// split (they sum to the shared ledger at all times). `id_tag` is OR'd
  /// into the top byte of every session id (shard routing).
  /// `shared_billing` / `shared_cost` play the same authority role for the
  /// economics plane: the sharded broker's global billing ledger and
  /// global spend-rate book, written in global event order so their
  /// contents are bitwise invariant to the shard count, while this table's
  /// own books keep the per-shard split (sums match within rounding).
  SessionManager(AdmissionConfig cfg, const std::vector<int>& overlay_eps,
                 NicLedger* shared_nic, std::uint64_t id_tag,
                 econ::BillingLedger* shared_billing,
                 econ::CostLedger* shared_cost);

  static constexpr std::uint64_t kInvalidSession = 0;
  /// Top-byte tag a session id was minted with.
  static int id_tag_of(std::uint64_t id) { return static_cast<int>(id >> 56); }

  /// Admit a session onto the best admissible candidate of its pair
  /// (ranked order, skipping down candidates and full overlay NICs; the
  /// direct path is the unconditional fallback). Returns the session id.
  std::uint64_t admit(PathRanker& ranker, int pair_idx, double demand_bps,
                      sim::Time now);

  /// Release a live session, metering its bytes up to `now` first (false
  /// if the id is stale).
  bool release(PathRanker& ranker, std::uint64_t id, sim::Time now);

  /// Re-pin the pair's sessions onto its current best candidate, subject
  /// to NIC capacity and hysteresis having already been applied by the
  /// ranker (sessions only move when their candidate differs from best or
  /// is down). A moving session's bytes are metered against its *old*
  /// bills up to `now` before it re-reserves at the new candidate's rates.
  /// Returns the number of migrated sessions.
  int repin_pair(PathRanker& ranker, int pair_idx, sim::Time now);

  /// Meter every live session of the pair up to `now` without releasing
  /// anything (end-of-run settlement). Callers that need a shard-count-
  /// invariant global ledger must settle pairs in global-pair-id order.
  void settle_pair(PathRanker& ranker, int pair_idx, sim::Time now);

  bool live(std::uint64_t id) const;
  const Session& session(std::uint64_t id) const;
  std::size_t active() const { return active_; }

  /// Current reserved bandwidth on one overlay VM's NIC (0 for unknown).
  /// This is the table's *own* (per-shard) accounting.
  double overlay_used_bps(int overlay_ep) const {
    return ledger_.used_bps(overlay_ep);
  }
  /// Highest reservation ever observed on any overlay NIC (capacity
  /// invariant: never exceeds the cap).
  double peak_overlay_used_bps() const { return ledger_.peak_used_bps(); }
  const NicLedger& ledger() const { return ledger_; }
  const AdmissionConfig& config() const { return cfg_; }

  /// Number of admissions/migrations that wanted an overlay candidate but
  /// were pushed to a lower-ranked path by a full NIC.
  std::uint64_t overlay_denied() const { return overlay_denied_; }

  /// This table's own (per-shard) metered billing book and
  /// reserved-spend-rate book.
  const econ::BillingLedger& billing() const { return billing_; }
  const econ::CostLedger& cost_ledger() const { return cost_; }
  /// Admissions/migrations pushed off a paid candidate because reserving
  /// its spend rate would breach CRONETS_COST_BUDGET_USD (the
  /// max_goodput_under_budget policy; 0 everywhere else).
  std::uint64_t budget_denied() const { return budget_denied_; }
  /// SLO attainment counters: of all admissions, how many landed on a
  /// measured candidate whose smoothed score met EconConfig::slo_bps.
  /// Plain integers, so per-shard counts sum exactly to the global count.
  std::uint64_t slo_met() const { return slo_met_; }
  std::uint64_t slo_total() const { return slo_total_; }

  /// Append the ids of the pair's live sessions (admission order with
  /// swap-removals — the same deterministic order repin_pair walks).
  void pair_session_ids(const PairState& p,
                        std::vector<std::uint64_t>* out) const;

  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].gen & 1u) fn(id_of(slot), slots_[slot]);
    }
  }

 private:
  /// Id layout: [tag:8][gen:24][slot+1:32]. The tag routes a session back
  /// to its owning shard; the generation (masked to 24 bits — a slot must
  /// be reused ~8M times before a stale handle aliases) guards slot reuse.
  static constexpr std::uint32_t kGenMask = 0x00ffffffu;
  std::uint64_t id_of(std::uint32_t slot) const {
    return id_tag_ |
           (static_cast<std::uint64_t>(slots_[slot].gen & kGenMask) << 32) |
           (slot + 1);
  }
  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t gen_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32) & kGenMask;
  }

  /// First admissible candidate in ranked order for `demand`.
  int pick_candidate(PathRanker& ranker, int pair_idx, double demand_bps);
  /// Reserve `demand` on the candidate's relay VMs, recording them into
  /// `s.reserved_eps`; unreserve returns exactly what was recorded. Also
  /// snapshots the candidate's bills and reserves the session's spend rate
  /// in the cost books (accrual starts at `now`).
  void reserve(const Candidate& c, double demand_bps, sim::Time now,
               Session* s);
  void unreserve(Session* s);
  /// Meter the session's bytes from its accrual watermark up to `now`
  /// against its snapshotted bills, advancing the watermark.
  void accrue(Session* s, sim::Time now);
  void detach_from_pair(PairState& p, Session& s);

  AdmissionConfig cfg_;
  NicLedger ledger_;    // this table's own (per-shard) accounting
  NicLedger* shared_;   // capacity authority
  std::uint64_t id_tag_;
  econ::BillingLedger billing_;           // per-shard metered billing
  econ::BillingLedger* shared_billing_;   // global book
  econ::CostLedger cost_;                 // per-shard reserved spend rate
  econ::CostLedger* shared_cost_;         // budget authority
  std::vector<Session> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t active_ = 0;
  std::uint64_t overlay_denied_ = 0;
  std::uint64_t budget_denied_ = 0;
  std::uint64_t slo_met_ = 0;
  std::uint64_t slo_total_ = 0;
};

}  // namespace cronets::service
