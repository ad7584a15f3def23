#include "service/session_manager.h"

#include <algorithm>
#include <cassert>

namespace cronets::service {

NicLedger::NicLedger(const std::vector<int>& overlay_eps) {
  for (int ep : overlay_eps) {
    slot_.emplace(ep, static_cast<int>(used_.size()));
    used_.push_back(0.0);
  }
}

void NicLedger::add(int overlay_ep, double bps) {
  const auto it = slot_.find(overlay_ep);
  assert(it != slot_.end());
  double& used = used_[static_cast<std::size_t>(it->second)];
  used += bps;
  peak_used_bps_ = std::max(peak_used_bps_, used);
}

void NicLedger::sub(int overlay_ep, double bps) {
  const auto it = slot_.find(overlay_ep);
  assert(it != slot_.end());
  used_[static_cast<std::size_t>(it->second)] -= bps;
}

double NicLedger::used_bps(int overlay_ep) const {
  const auto it = slot_.find(overlay_ep);
  return it == slot_.end() ? 0.0 : used_[static_cast<std::size_t>(it->second)];
}

bool NicLedger::fits(int overlay_ep, double bps, double cap_bps) const {
  const auto it = slot_.find(overlay_ep);
  return it != slot_.end() &&
         used_[static_cast<std::size_t>(it->second)] + bps <= cap_bps;
}

double NicLedger::total_used_bps() const {
  double sum = 0.0;
  for (double u : used_) sum += u;
  return sum;
}

SessionManager::SessionManager(AdmissionConfig cfg,
                               const std::vector<int>& overlay_eps,
                               NicLedger* shared_nic, std::uint64_t id_tag,
                               econ::BillingLedger* shared_billing,
                               econ::CostLedger* shared_cost)
    : cfg_(cfg),
      ledger_(overlay_eps),
      shared_(shared_nic),
      id_tag_(id_tag),
      shared_billing_(shared_billing),
      shared_cost_(shared_cost) {
  assert((id_tag & ~(0xffull << 56)) == 0 && "tag lives in the top byte");
  assert(shared_ != nullptr && shared_billing_ != nullptr &&
         shared_cost_ != nullptr && "the broker's global books are required");
}

/// Reserved spend rate of a session: USD per wall-clock hour at its demand
/// rate and its candidate's $/GB (demand_bps/8e9 GB/s * 3600 s/h * $/GB).
static double spend_rate_usd_per_hour(double demand_bps, double usd_per_gb) {
  return demand_bps / 8e9 * 3600.0 * usd_per_gb;
}

void SessionManager::reserve(const Candidate& c, double demand_bps,
                             sim::Time now, Session* s) {
  s->reserved_eps.clear();
  if (c.kind == core::PathKind::kSplitOverlay) {
    s->reserved_eps.push_back(c.overlay_ep);
  } else if (c.kind == core::PathKind::kMultiHop) {
    // A multi-hop session relays through every VM on its chain; each one's
    // NIC carries the session's traffic once in and once out, same as a
    // one-hop relay, so each reserves the full demand.
    s->reserved_eps = c.via;
  }
  for (int ep : s->reserved_eps) {
    ledger_.add(ep, demand_bps);
    shared_->add(ep, demand_bps);
  }
  // Billing snapshot + spend-rate reservation (no-op with pricing off:
  // candidates then carry no bills and a zero rate).
  s->bills = c.bills;
  s->usd_per_gb = c.usd_per_gb;
  s->billed_until = now;
  s->cost_rate_usd_per_hour = spend_rate_usd_per_hour(demand_bps, c.usd_per_gb);
  if (s->cost_rate_usd_per_hour > 0.0) {
    cost_.add(s->cost_rate_usd_per_hour);
    shared_cost_->add(s->cost_rate_usd_per_hour);
  }
}

void SessionManager::unreserve(Session* s) {
  for (int ep : s->reserved_eps) {
    ledger_.sub(ep, s->demand_bps);
    shared_->sub(ep, s->demand_bps);
  }
  s->reserved_eps.clear();
  if (s->cost_rate_usd_per_hour > 0.0) {
    cost_.sub(s->cost_rate_usd_per_hour);
    shared_cost_->sub(s->cost_rate_usd_per_hour);
  }
  s->cost_rate_usd_per_hour = 0.0;
  s->bills.clear();
  s->usd_per_gb = 0.0;
}

void SessionManager::accrue(Session* s, sim::Time now) {
  if (now > s->billed_until && !s->bills.empty()) {
    const double gb =
        s->demand_bps * (now - s->billed_until).to_seconds() / 8e9;
    billing_.meter_session(s->bills, gb);
    shared_billing_->meter_session(s->bills, gb);
  }
  s->billed_until = now;
}

int SessionManager::pick_candidate(PathRanker& ranker, int pair_idx,
                                   double demand_bps) {
  // Cached dirty-set order: sort-free on clean pairs (the common
  // steady-state admission), recomputed only after a probe/mutation.
  const std::vector<int>& order = ranker.admission_order(pair_idx);
  const PairState& p = ranker.pair(pair_idx);
  const econ::EconConfig& econ = ranker.config().econ;
  // Budget gate (max_goodput_under_budget): a paid candidate is only
  // admissible while reserving its spend rate keeps the fleet's reserved
  // USD/hour within budget. The check goes through the shared global
  // book, since budgets don't multiply with shards.
  const bool budget_gated =
      econ.pricing != nullptr &&
      econ.policy == econ::CostPolicy::kMaxGoodputUnderBudget &&
      econ.budget_usd_per_hour > 0.0;
  int direct_fallback = 0;
  bool denied = false;
  for (int ci : order) {
    const Candidate& c = p.candidates[static_cast<std::size_t>(ci)];
    if (c.kind == core::PathKind::kDirect) {
      direct_fallback = ci;
      if (!c.down) {
        if (denied) ++overlay_denied_;
        return ci;
      }
      continue;  // direct is down: prefer a live overlay, fall back below
    }
    if (c.down) continue;
    if (budget_gated) {
      const double rate = spend_rate_usd_per_hour(demand_bps, c.usd_per_gb);
      if (rate > 0.0 && shared_cost_->reserved_usd_per_hour() + rate >
                            econ.budget_usd_per_hour) {
        ++budget_denied_;
        denied = true;
        continue;
      }
    }
    // Capacity check against the shared global ledger (NICs are
    // physical). A multi-hop candidate needs headroom on every VM of its
    // chain, and a chain through a VM the ledger does not hold never fits.
    const auto fits = [&](int ep) {
      return shared_->fits(ep, demand_bps, cfg_.nic_capacity_bps);
    };
    const bool multihop = c.kind == core::PathKind::kMultiHop;
    if (multihop && c.via.empty()) continue;  // no usable plane route now
    if (multihop ? std::all_of(c.via.begin(), c.via.end(), fits)
                 : fits(c.overlay_ep)) {
      if (denied) ++overlay_denied_;
      return ci;
    }
    denied = true;
  }
  // Everything down or full: pin to the direct path anyway — it is the
  // default Internet route, which needs no broker resources.
  if (denied) ++overlay_denied_;
  return direct_fallback;
}

std::uint64_t SessionManager::admit(PathRanker& ranker, int pair_idx,
                                    double demand_bps, sim::Time now) {
  const int ci = pick_candidate(ranker, pair_idx, demand_bps);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Session& s = slots_[slot];
  s.pair = pair_idx;
  s.candidate = ci;
  s.demand_bps = demand_bps;
  s.admitted = now;
  s.gen |= 1u;  // odd: live
  PairState& p = ranker.pair(pair_idx);
  s.pos_in_pair = static_cast<std::uint32_t>(p.sessions.size());
  p.sessions.push_back(slot);
  const Candidate& chosen = p.candidates[static_cast<std::size_t>(ci)];
  reserve(chosen, demand_bps, now, &s);
  // SLO attainment at admission time: did the session land on a measured
  // candidate whose smoothed score meets the configured SLO?
  ++slo_total_;
  if (chosen.measured &&
      chosen.score_bps >= ranker.config().econ.slo_bps) {
    ++slo_met_;
  }
  ++active_;
  return id_of(slot);
}

bool SessionManager::live(std::uint64_t id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() && (slots_[slot].gen & kGenMask) == gen_of(id) &&
         (slots_[slot].gen & 1u);
}

const Session& SessionManager::session(std::uint64_t id) const {
  assert(live(id));
  return slots_[slot_of(id)];
}

void SessionManager::detach_from_pair(PairState& p, Session& s) {
  const std::uint32_t pos = s.pos_in_pair;
  assert(pos < p.sessions.size());
  const std::uint32_t last = p.sessions.back();
  p.sessions[pos] = last;
  slots_[last].pos_in_pair = pos;
  p.sessions.pop_back();
}

bool SessionManager::release(PathRanker& ranker, std::uint64_t id,
                             sim::Time now) {
  if (!live(id)) return false;
  Session& s = slots_[slot_of(id)];
  PairState& p = ranker.pair(s.pair);
  accrue(&s, now);
  unreserve(&s);
  detach_from_pair(p, s);
  ++s.gen;  // even: free
  free_.push_back(slot_of(id));
  --active_;
  return true;
}

void SessionManager::pair_session_ids(const PairState& p,
                                      std::vector<std::uint64_t>* out) const {
  out->reserve(out->size() + p.sessions.size());
  for (std::uint32_t slot : p.sessions) out->push_back(id_of(slot));
}

int SessionManager::repin_pair(PathRanker& ranker, int pair_idx,
                               sim::Time now) {
  PairState& p = ranker.pair(pair_idx);
  int migrated = 0;
  // Deterministic session order (admission order with swap-removals); the
  // target choice re-runs full admission per session so capacity freed by
  // one move is visible to the next.
  for (std::uint32_t slot : p.sessions) {
    Session& s = slots_[slot];
    const Candidate& cur = p.candidates[static_cast<std::size_t>(s.candidate)];
    if (s.candidate == p.best && !cur.down) continue;
    accrue(&s, now);  // bytes so far are billed at the *old* path's rates
    unreserve(&s);
    const int target = pick_candidate(ranker, pair_idx, s.demand_bps);
    reserve(p.candidates[static_cast<std::size_t>(target)], s.demand_bps, now,
            &s);
    if (target != s.candidate) {
      s.candidate = target;
      ++migrated;
    }
  }
  return migrated;
}

void SessionManager::settle_pair(PathRanker& ranker, int pair_idx,
                                 sim::Time now) {
  PairState& p = ranker.pair(pair_idx);
  for (std::uint32_t slot : p.sessions) accrue(&slots_[slot], now);
}

}  // namespace cronets::service
