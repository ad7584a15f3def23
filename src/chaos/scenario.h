#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::chaos {

/// The fault vocabulary of the chaos engine. Hard faults (flap, outage)
/// disconnect routes and must trigger the broker's bounded-time failover;
/// soft faults (storm, gray) leave routing intact and must be absorbed by
/// the normal probe/rank/repin loop — the paper's "reachable but bad"
/// default path.
enum class FaultKind : std::uint8_t {
  kLinkFlap,         ///< one transit-transit adjacency down, then restored
  kDcOutage,         ///< every adjacency of one cloud DC AS down
  kCongestionStorm,  ///< transient utilization surge on a set of core links
  kGrayFailure,      ///< loss inflation on core links without disconnect
};

const char* fault_kind_name(FaultKind k);

/// One scheduled fault on the scenario timeline. Faults are pure data —
/// the Injector applies them to the world at `begin`/`end`.
struct Fault {
  FaultKind kind = FaultKind::kLinkFlap;
  int index = -1;  ///< position in the (begin-sorted) timeline
  sim::Time begin{};
  sim::Time end{};

  int as_a = -1, as_b = -1;  ///< kLinkFlap: the failed adjacency
  int dc = -1;               ///< kDcOutage: index into dc_endpoints()

  /// kCongestionStorm / kGrayFailure: prebuilt link events carrying the
  /// [begin, end) window; injected via Internet::add_event at fault begin,
  /// so the episode arrives mid-run (and re-probes the edges it touches).
  std::vector<topo::LinkEvent> events;

  /// kDcOutage: adjacencies actually taken down, filled by the Injector at
  /// fault begin and restored at fault end. Observers may read it while
  /// the fault is active.
  std::vector<std::pair<int, int>> downed;

  /// Hard faults disconnect routes; the failover SLO applies to them.
  bool hard() const {
    return kind == FaultKind::kLinkFlap || kind == FaultKind::kDcOutage;
  }
};

/// Shape of the standard scenario mix. Counts are per kind; intensities
/// are drawn per fault from the seeded stream.
struct ScenarioParams {
  int link_flaps = 4;
  int dc_outages = 1;
  int congestion_storms = 3;
  int gray_failures = 3;
  /// Faults begin inside [0.05, 0.75] x horizon and end by 0.95 x horizon,
  /// so every window closes while the workload still runs.
  sim::Time horizon = sim::Time::seconds(180);
  /// Repair-time (MTTR) distribution of every fault window: exponential
  /// with this mean, floored at `min_repair_s`.
  double mean_repair_s = 20.0;
  double min_repair_s = 5.0;
  /// Mean time to failure driving each fault's begin draw.
  double mean_failure_s = 60.0;
  int storm_links = 6;  ///< core links hit per congestion storm
  double storm_boost_lo = 0.25, storm_boost_hi = 0.55;
  int gray_links = 2;  ///< core links hit per gray failure
  double gray_loss_lo = 0.02, gray_loss_hi = 0.12;
};

/// A deterministic fault timeline: a pure function of the topology and
/// (world_seed, scenario_seed). Per-fault draws run on streams derived via
/// sim::hash_combine, so adding a fault kind or changing one count never
/// perturbs the other kinds' draws.
class Scenario {
 public:
  static Scenario generate(const topo::Internet& topo,
                           const ScenarioParams& params,
                           std::uint64_t world_seed,
                           std::uint64_t scenario_seed);

  const std::vector<Fault>& faults() const { return faults_; }
  int count(FaultKind k) const;
  /// One human-readable line per fault (bench/report output).
  std::string describe(const Fault& f) const;

 private:
  std::vector<Fault> faults_;
};

}  // namespace cronets::chaos
