#include "chaos/injector.h"

#include <cassert>

namespace cronets::chaos {

void Injector::arm(const Scenario& scenario) {
  assert(faults_.empty() && "arm() is one-shot");
  faults_ = scenario.faults();
  // Schedule in timeline order: at equal times the queue is FIFO, so the
  // transition order is the deterministic schedule order below.
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    queue_->schedule(faults_[i].begin,
                     [this, i] { begin_fault(faults_[i], faults_[i].begin); });
    queue_->schedule(faults_[i].end,
                     [this, i] { end_fault(faults_[i], faults_[i].end); });
  }
}

void Injector::begin_fault(Fault& f, sim::Time t) {
  switch (f.kind) {
    case FaultKind::kLinkFlap:
      topo_->set_adjacency_up(f.as_a, f.as_b, false);
      break;
    case FaultKind::kDcOutage: {
      const int dc_ep = topo_->dc_endpoints()[static_cast<std::size_t>(f.dc)];
      const int dc_as = topo_->endpoint(dc_ep).as_id;
      // Snapshot the currently-up adjacencies first: the restore at fault
      // end must not resurrect sessions some other fault took down.
      f.downed.clear();
      for (const auto& adj : topo_->ases()[static_cast<std::size_t>(dc_as)].adj) {
        if (adj.up) f.downed.emplace_back(dc_as, adj.nbr_as);
      }
      for (const auto& [a, b] : f.downed) topo_->set_adjacency_up(a, b, false);
      break;
    }
    case FaultKind::kCongestionStorm:
    case FaultKind::kGrayFailure:
      // The events carry their own [begin, end) window; adding them now
      // (not at arm time) is what makes them arrive mid-run.
      for (const auto& ev : f.events) topo_->add_event(ev);
      break;
  }
  ++begun_;
  if (observer_) observer_->on_fault_begin(f, t);
}

void Injector::end_fault(Fault& f, sim::Time t) {
  switch (f.kind) {
    case FaultKind::kLinkFlap:
      topo_->set_adjacency_up(f.as_a, f.as_b, true);
      break;
    case FaultKind::kDcOutage:
      for (const auto& [a, b] : f.downed) topo_->set_adjacency_up(a, b, true);
      break;
    case FaultKind::kCongestionStorm:
    case FaultKind::kGrayFailure:
      break;  // events expire by their own time window
  }
  ++ended_;
  if (observer_) observer_->on_fault_end(f, t);
}

}  // namespace cronets::chaos
