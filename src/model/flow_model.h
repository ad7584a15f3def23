#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "model/simd/dispatch.h"
#include "sim/hash_rng.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::model {

/// Instantaneous condition of one end-to-end path at a sample time.
struct PathMetrics {
  double rtt_ms = 0.0;        ///< average RTT incl. queueing
  double loss = 0.0;          ///< end-to-end packet loss probability
  double residual_bps = 0.0;  ///< min residual capacity along the path
  double capacity_bps = 0.0;  ///< min raw capacity (usually the NIC)
  int hop_count = 0;          ///< router-level hops
  /// Receiver window of the connection's sink (0: use TcpModelParams).
  double rwnd_bytes = 0.0;
};

/// Steady-state TCP throughput model parameters.
struct TcpModelParams {
  double mss = 1460.0;
  double b = 1.0;              ///< ACKed segments per ACK
  double rwnd_bytes = 4.0 * 1024 * 1024;
  /// Multiplier on the loss-based throughput term; calibrated against the
  /// packet-level CUBIC stack (CUBIC is more aggressive than the Reno that
  /// PFTK models). See tests/model_calibration_test.cc.
  double aggressiveness = 1.4;
  double noise_sigma = 0.08;   ///< lognormal measurement noise
};

/// PFTK (Padhye et al.) steady-state TCP throughput in bit/s, capped by the
/// receive window and path capacity. `rtt_ms`/`loss` as in PathMetrics.
double pftk_throughput_bps(double rtt_ms, double loss, double residual_bps,
                           double capacity_bps, const TcpModelParams& p);

/// Flat-loop PFTK over parallel arrays: out_bps[i] is bitwise identical to
/// pftk_throughput_bps(rtt_ms[i], ..., p') where p' is `p` with rwnd_bytes
/// replaced by rwnd_bytes[i]. The batched measurement path hoists every
/// deterministic throughput evaluation of a probe batch into one call;
/// the loop dispatches to the vectorized kernels in model/simd/ at the
/// process-wide simd::active_level() (CRONETS_SIMD), every level bitwise
/// identical to the scalar reference.
void pftk_throughput_batch(std::size_t n, const double* rtt_ms,
                           const double* loss, const double* residual_bps,
                           const double* capacity_bps, const double* rwnd_bytes,
                           const TcpModelParams& p, double* out_bps);

/// Explicit-level overload (benches/tests comparing scalar vs SIMD in one
/// process; same bits at every level).
void pftk_throughput_batch(simd::Level level, std::size_t n,
                           const double* rtt_ms, const double* loss,
                           const double* residual_bps,
                           const double* capacity_bps, const double* rwnd_bytes,
                           const TcpModelParams& p, double* out_bps);

/// Analytic "measurement instrument": evaluates per-link utilizations as a
/// stateless hash-indexed random field (stationary AR(1) statistics — the
/// same process the packet-level BackgroundProcess integrates), derives
/// path metrics, and predicts TCP / split-TCP / MPTCP throughput. Used for
/// the paper's large-scale sweeps (6,600 paths) where packet-level
/// simulation would be prohibitive; its agreement with the packet
/// simulator is enforced by tests.
///
/// The per-link formula exists once: `make_link_field` derives a link
/// direction's constants, `eval_field` turns one AR(1) sum into that link's
/// contribution at time t, and `PathAccumulator` folds the contributions
/// along a path. The scalar `sample` and model::BatchSampler differ only in
/// how they compute the AR(1) sums and which fields they share.
///
/// Thread-safety: `utilization` and `sample` are const and safe to call
/// concurrently (`sample` caches through a lock-guarded aggregate memo and
/// a per-thread field memo) — the utilization at (link, direction, t) is a
/// pure function of the model seed and the direction's events, so
/// concurrent measurements see one consistent world regardless of query
/// order or thread count. The
/// throughput predictors draw measurement noise: pass an explicit
/// `sim::DrawStream` (e.g. a per-pair stream) from parallel code; the
/// overloads without one use the model's own serial stream and are NOT
/// thread-safe.
namespace detail {
/// Process-unique tag per FlowModel instance; keys the per-thread
/// field-value memo so models over different topologies never alias.
std::uint64_t next_flow_model_tag();
}  // namespace detail

class FlowModel {
 public:
  FlowModel(topo::Internet* topo, std::uint64_t seed)
      : topo_(topo), seed_(seed), draws_(seed) {}

  /// Utilization of one link direction at time `t` (stationary AR(1)
  /// random field, with diurnal component and scheduled transient events
  /// applied). Pure function of (seed, link, direction, t).
  double utilization(int link_id, bool forward, sim::Time t) const;

  /// Sample the instantaneous metrics of an interned path. Per-path
  /// constants come from the memoized aggregates, and each link
  /// direction's evaluation is memoized per (thread, t), so links shared
  /// by many paths are evaluated once per timestep.
  PathMetrics sample(const topo::PathRef& path, sim::Time t) const;
  /// Metrics of the concatenation A->O->B (one tunnel; RTT and loss add).
  static PathMetrics concat(const PathMetrics& a, const PathMetrics& b);

  /// Static per-link constants of one directed traversal, precomputed at
  /// aggregate-build time so `sample` touches no topology state beyond the
  /// direction's event list.
  struct LinkField {
    net::BackgroundParams bg;   ///< direction-resolved condition (copy)
    double delay_ms = 0.0;
    double capacity_bps = 0.0;
    double pkt_ms = 0.0;        ///< 1500-byte serialization time, ms
    std::uint64_t stream = 0;   ///< AR(1) innovation stream id
    std::int64_t epoch_ns = 1;
    double a = 0.0;             ///< AR(1) coefficient
    int horizon = 1;            ///< truncation length of the weighted sum
    double stationary_sd = 0.0;
    double sqrt_w2 = 1.0;       ///< sqrt of the truncated weight norm
    /// The direction's transients (Internet::link_events), read live: an
    /// event added later applies without rebuilding anything derived from
    /// the field. `world_events` (Internet::events) gates the read: while
    /// the world has no event at all, evaluation touches only that one
    /// shared list header, not the direction's own.
    const std::vector<topo::LinkEvent>* events = nullptr;
    const std::vector<topo::LinkEvent>* world_events = nullptr;
  };

  /// Precomputed static aggregates of one interned path: the quantities
  /// the per-sample loop would otherwise re-derive on every call. A pure
  /// function of the path object (events are read through the fields), so
  /// aggregates never go stale; a path whose route moves is a new object.
  struct PathAggregates {
    topo::PathRef path;          ///< pins the keying pointer alive
    int hop_count = 0;
    double min_capacity_bps = 1e18;
    std::vector<LinkField> links;
  };

  /// One link direction's contribution to a path sample at one instant.
  /// delay_ms and queue_ms stay apart: the accumulate step adds them one
  /// at a time, and pre-summing them would change the bits.
  struct LinkEval {
    double one_minus_loss = 1.0;
    double delay_ms = 0.0;
    double queue_ms = 0.0;
    double residual_bps = 0.0;
  };

  /// The per-link formula: utilization from the AR(1) weighted innovation
  /// sum `acc` (clamp, diurnal swing, transient util_boost), then loss
  /// (with gray-failure loss_boost), queueing delay and residual capacity.
  static LinkEval eval_field(const LinkField& f, double acc, sim::Time t);

  /// The per-path accumulate step: folds LinkEvals in traversal order.
  struct PathAccumulator {
    double survive = 1.0;
    double oneway_ms = 0.0;
    double residual_bps = 1e18;

    void add(const LinkEval& e) {
      survive *= e.one_minus_loss;
      oneway_ms += e.delay_ms;
      oneway_ms += e.queue_ms;
      residual_bps = std::min(residual_bps, e.residual_bps);
    }
    PathMetrics finish(double min_capacity_bps, int hop_count) const {
      PathMetrics m;
      m.capacity_bps = min_capacity_bps;
      m.residual_bps = residual_bps;
      m.loss = 1.0 - survive;
      m.rtt_ms = 2.0 * oneway_ms;
      m.hop_count = hop_count;
      return m;
    }
  };

  /// The (memoized) aggregates of an interned path. Thread-safe. The memo
  /// holds the aggregates of one path object per PathCache key: asking for
  /// a key's new object (its route moved) replaces the old one.
  std::shared_ptr<const PathAggregates> aggregates(const topo::PathRef& path) const;

  // --- Throughput predictors (bit/s), with measurement noise ---
  /// The noisy-TCP step, written once for every measurement path: a rate
  /// above 0.92 of the path's bottleneck (a flow saturating the residual
  /// also builds queue) clips to cap * U(0.88, 0.96), then the result is
  /// multiplied by exp(N(0, noise_sigma)). `pftk_bps` is the deterministic
  /// PFTK rate of `m` (the batched paths compute it in one flat loop).
  double noisy_tcp(double pftk_bps, const PathMetrics& m,
                   sim::DrawStream& draws) const;
  double tcp_throughput(const PathMetrics& m, sim::DrawStream& draws) const;
  /// Plain tunnel overlay: a single TCP connection over the whole A->O->B.
  double overlay_plain(const PathMetrics& leg1, const PathMetrics& leg2,
                       sim::DrawStream& draws) const;
  /// Split-TCP at the overlay node: min of the two legs' own TCP rates.
  double overlay_split(const PathMetrics& leg1, const PathMetrics& leg2,
                       sim::DrawStream& draws) const;
  /// Same draws, same result, but also exposes the two per-leg TCP rates
  /// (either out pointer may be null). The multi-hop ranker reuses a
  /// one-hop probe's leg rates to score k-hop compositions without any
  /// extra measurement draws.
  double overlay_split(const PathMetrics& leg1, const PathMetrics& leg2,
                       sim::DrawStream& draws, double* leg1_bps,
                       double* leg2_bps) const;
  /// Discrete bound: min of independently measured legs (no tunnel cost).
  double discrete(const PathMetrics& leg1, const PathMetrics& leg2,
                  sim::DrawStream& draws) const;
  /// Coupled MPTCP (OLIA/LIA): ~ the best single path.
  double mptcp_coupled(const std::vector<double>& per_path_tput,
                       sim::DrawStream& draws) const;
  /// Uncoupled MPTCP: ~ sum of subflows, capped by the NIC.
  double mptcp_uncoupled(const std::vector<double>& per_path_tput, double nic_bps,
                         sim::DrawStream& draws) const;

  // Serial conveniences drawing from the model's own stream (single-thread).
  double tcp_throughput(const PathMetrics& m) { return tcp_throughput(m, draws_); }
  double overlay_plain(const PathMetrics& l1, const PathMetrics& l2) {
    return overlay_plain(l1, l2, draws_);
  }
  double overlay_split(const PathMetrics& l1, const PathMetrics& l2) {
    return overlay_split(l1, l2, draws_);
  }
  double discrete(const PathMetrics& l1, const PathMetrics& l2) {
    return discrete(l1, l2, draws_);
  }
  double mptcp_coupled(const std::vector<double>& t) { return mptcp_coupled(t, draws_); }
  double mptcp_uncoupled(const std::vector<double>& t, double nic_bps) {
    return mptcp_uncoupled(t, nic_bps, draws_);
  }

  std::uint64_t seed() const { return seed_; }
  topo::Internet* topo() const { return topo_; }
  /// Process-unique instance tag (see detail::next_flow_model_tag): lets
  /// thread-local caches keyed on it (field memo, batch samplers) detect a
  /// different model even if one is reallocated at the same address.
  std::uint64_t instance_tag() const { return model_tag_; }
  const TcpModelParams& params() const { return params_; }
  TcpModelParams& params() { return params_; }

 private:
  /// The only place a link direction's LinkField is derived.
  LinkField make_link_field(int link_id, bool forward) const;
  std::shared_ptr<const PathAggregates> build_aggregates(
      const topo::PathRef& path) const;
  /// eval_field of `f` at `t` through the per-thread field memo.
  LinkEval memo_eval(const LinkField& f, sim::Time t) const;

  topo::Internet* topo_;
  std::uint64_t seed_;
  std::uint64_t model_tag_ = detail::next_flow_model_tag();
  sim::DrawStream draws_;  ///< serial stream backing the legacy overloads only
  TcpModelParams params_;

  // Per-path aggregate memo: one entry per PathCache key, valid for the
  // path object it pins (a hit compares the object), so a route move
  // replaces its key's entry instead of growing the memo.
  mutable std::shared_mutex agg_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<const PathAggregates>>
      agg_cache_;
};

}  // namespace cronets::model
