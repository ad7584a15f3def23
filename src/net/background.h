#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/rng.h"
#include "sim/time.h"

namespace cronets::net {

/// Parameters of the cross-traffic model on one link direction.
///
/// Simulating the millions of competing Internet flows packet-by-packet is
/// infeasible, so each link carries a *background utilization process*
/// u(t) in [0, 1): an AR(1) (discrete Ornstein-Uhlenbeck) process updated on
/// a fixed epoch grid. The link serves foreground traffic at the residual
/// capacity C*(1-u) and drops packets randomly with a probability that grows
/// quadratically once utilization passes a knee — the classic shape of
/// drop-tail loss under increasing offered load.
struct BackgroundParams {
  double mean_util = 0.0;     ///< long-run mean utilization
  double sigma = 0.02;        ///< per-epoch noise stdev
  double theta = 0.2;         ///< mean-reversion strength per epoch
  double knee = 0.70;         ///< utilization where heavy loss starts to grow
  double loss_scale = 0.6;    ///< quadratic loss coefficient above the knee
  /// Mild statistical loss from transient bursts well before saturation
  /// (fills the broad middle of the per-path loss distribution).
  double mild_knee = 0.45;
  double mild_scale = 0.002;
  double base_loss = 0.0;     ///< floor loss (transmission errors etc.)
  sim::Time epoch = sim::Time::milliseconds(500);
  /// Diurnal swing: utilization += diurnal_amp * sin(2*pi*(t/24h) + phase).
  double diurnal_amp = 0.0;
  double diurnal_phase = 0.0;
};

/// Packet-loss probability of a link direction at utilization `u` — the
/// single formula shared by the packet-level links and the analytic flow
/// model so both instruments measure the same world.
inline double loss_from_utilization(const BackgroundParams& p, double u) {
  const double over = std::max(0.0, u - p.knee);
  const double mild = std::max(0.0, u - p.mild_knee);
  return std::min(0.5,
                  p.base_loss + p.loss_scale * over * over + p.mild_scale * mild * mild);
}

/// Deterministic diurnal utilization component at time `now`.
inline double diurnal_component(const BackgroundParams& p, sim::Time now) {
  if (p.diurnal_amp == 0.0) return 0.0;
  constexpr double kDayNs = 24.0 * 3600.0 * 1e9;
  constexpr double kTwoPi = 6.28318530717958647692;
  return p.diurnal_amp *
         std::sin(kTwoPi * (static_cast<double>(now.ns()) / kDayNs) + p.diurnal_phase);
}

/// Lazily-advanced AR(1) utilization process for one link direction.
class BackgroundProcess {
 public:
  BackgroundProcess(BackgroundParams params, sim::Rng rng)
      : p_(params), rng_(std::move(rng)), util_(params.mean_util) {}

  /// Utilization at simulated time `now` (advances internal state forward;
  /// queries must not go backwards in time by more than one epoch).
  double utilization(sim::Time now) {
    const std::int64_t target = now.ns() / std::max<std::int64_t>(p_.epoch.ns(), 1);
    while (epoch_ < target) {
      // Scaled standard normal: same draw sequence, and sigma == 0 stays
      // inside normal_distribution's stddev > 0 precondition.
      util_ += p_.theta * (p_.mean_util - util_) + p_.sigma * rng_.normal(0.0, 1.0);
      util_ = std::clamp(util_, 0.0, 0.98);
      ++epoch_;
    }
    return std::clamp(util_ + diurnal_component(p_, now) + event_boost(now), 0.0, 0.98);
  }

  /// Random-drop probability for a foreground packet at time `now`.
  double loss_prob(sim::Time now) {
    return loss_from_utilization(p_, utilization(now));
  }

  /// Inject a transient congestion episode: utilization is boosted by
  /// `boost` during [from, until). Used to model the AS-level congestion /
  /// failure events observed in the paper's longitudinal study.
  void add_event(sim::Time from, sim::Time until, double boost) {
    event_from_ = from;
    event_until_ = until;
    event_boost_ = boost;
  }

  const BackgroundParams& params() const { return p_; }

 private:
  double event_boost(sim::Time now) const {
    return (now >= event_from_ && now < event_until_) ? event_boost_ : 0.0;
  }

  BackgroundParams p_;
  sim::Rng rng_;
  double util_;
  std::int64_t epoch_ = 0;
  sim::Time event_from_ = sim::Time::max();
  sim::Time event_until_ = sim::Time::max();
  double event_boost_ = 0.0;
};

}  // namespace cronets::net
