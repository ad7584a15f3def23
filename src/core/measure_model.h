#pragma once

#include <memory>
#include <vector>

#include "core/overlay.h"
#include "model/flow_model.h"
#include "topo/internet.h"

namespace cronets::core {

/// One overlay node's view of an endpoint pair at a sample time.
struct OverlaySample {
  int overlay_ep = -1;
  double plain_bps = 0.0;
  double split_bps = 0.0;
  double discrete_bps = 0.0;
  /// The two per-leg TCP rates behind split_bps (= 0.97 * min of them).
  /// The multi-hop ranker composes k-hop scores from leg1 of the entry VM
  /// and leg2 of the exit VM, so no extra measurement draws are needed.
  double leg1_bps = 0.0;  ///< src -> overlay VM
  double leg2_bps = 0.0;  ///< overlay VM -> dst
  double rtt_ms = 0.0;   ///< end-to-end RTT through the overlay
  double loss = 0.0;     ///< end-to-end loss through the overlay
};

/// Full measurement of one endpoint pair against a set of overlay nodes.
struct PairSample {
  int src = -1;
  int dst = -1;
  double direct_bps = 0.0;
  double direct_rtt_ms = 0.0;
  double direct_loss = 0.0;
  int direct_hops = 0;
  std::vector<OverlaySample> overlays;

  double best_plain_bps() const;
  double best_split_bps() const;
  double best_discrete_bps() const;
  double min_overlay_rtt_ms() const;
  double min_overlay_loss() const;
  int best_split_overlay_ep() const;
};

/// One work item of a batched probe sweep: measure (src, dst) against
/// `*overlays` (which must outlive the measure_batch call).
struct ProbeRequest {
  int src = -1;
  int dst = -1;
  const std::vector<int>* overlays = nullptr;
};

/// Batch size used by the batched probe consumers (broker probe sweeps,
/// figure sweeps): the CRONETS_BATCH environment variable, default 64,
/// clamped to >= 1. Read once and cached. A pure performance knob — every
/// batch size produces bitwise-identical samples.
int probe_batch_size();

/// Analytic measurement runner: the instrument used for the paper-scale
/// sweeps (6,600 paths x several path types). All throughputs come from
/// the calibrated flow model over the same generated Internet the packet
/// simulator uses.
///
/// Every measurement draws its noise from a private counter-based
/// sim::DrawStream keyed by sim::pair_seed(seed, src, dst, t), so a pair's
/// result depends only on those four values — never on how many other
/// pairs were measured before it, in what order, or on which thread. This
/// is what lets the experiment loops fan pairs out across a thread pool and
/// still produce bitwise-identical results at any thread count. The stream
/// is two words, so the per-pair noise costs only its draws: one
/// FlowModel::noisy_tcp step (a normal, plus a uniform when the rate
/// clips) per TCP prediction.
class ModelMeasurement {
 public:
  ModelMeasurement(topo::Internet* topo, model::FlowModel* flow,
                   std::uint64_t seed = 0);
  ~ModelMeasurement();

  /// Measure (src,dst) against every overlay node at simulated time `t`.
  /// Thread-safe: const, and all randomness is per-call. This is the
  /// scalar reference path; the batched overloads below are bitwise
  /// identical to it.
  PairSample measure(int src_ep, int dst_ep, const std::vector<int>& overlay_eps,
                     sim::Time t) const;

  /// Batched measurement through the SoA kernel (model::BatchSampler):
  /// writes reqs[i]'s sample into out[i]. Link fields shared by any paths
  /// in the batch are evaluated once, and all deterministic PFTK
  /// evaluations run as one flat loop; per-pair noise still comes from the
  /// (seed, src, dst, t) stream, so out[i] is bitwise identical to
  /// measure(reqs[i]...) at every batch size.
  ///
  /// Thread-safe. The measurement plan — each pair's interned path handles
  /// and receiver windows, and the sampler's interned path and field
  /// tables — is one store per meter, shared by every calling thread and
  /// kept for one topology epoch (a new mutation epoch or FlowModel
  /// instance resets it once). A warm batch takes one shared lock on it for
  /// planning lookups and the sampling kernel; a batch with unplanned pairs
  /// resolves their paths and aggregates outside the exclusive lock,
  /// interns them under a short exclusive lock, and retries. The per-pair draws run
  /// outside the lock. Per-thread state is only scratch (reused across
  /// calls, so warm batches allocate nothing — out[i].overlays storage is
  /// reused too). Topology mutations must not run concurrently with it.
  void measure_batch(const ProbeRequest* reqs, std::size_t n, sim::Time t,
                     PairSample* out) const;

  /// Convenience batch: every pairs[i] = (src, dst) measured against the
  /// same overlay set.
  void measure_batch(const std::pair<int, int>* pairs, std::size_t n,
                     const std::vector<int>& overlay_eps, sim::Time t,
                     PairSample* out) const;

 private:
  struct PlanStore;
  struct BatchScratch;
  static BatchScratch& batch_scratch();  ///< this thread's

  /// Pass 1 of measure_batch under the store's shared lock: copy each
  /// request's planned handles, receiver windows and eligible overlays
  /// into `S`. Returns false, listing the unplanned requests in
  /// S.missing, if any request has no complete plan.
  bool gather(const ProbeRequest* reqs, std::size_t n, BatchScratch& S) const;
  /// Plan S.missing: resolve its paths, and the aggregates of those the
  /// store lacks, under the shared lock, then intern them under the
  /// exclusive lock (resetting a stale store first).
  void plan_missing(const ProbeRequest* reqs, BatchScratch& S) const;

  topo::Internet* topo_;
  model::FlowModel* flow_;
  std::uint64_t seed_;
  std::unique_ptr<PlanStore> store_;
};

}  // namespace cronets::core
