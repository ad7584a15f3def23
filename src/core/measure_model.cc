#include "core/measure_model.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "model/batch_sampler.h"
#include "sim/env.h"
#include "sim/hash_rng.h"

namespace cronets::core {

namespace {

// One pair's resolved probe layout: the interned handle of the direct path
// and, per overlay the pair was ever measured against, both legs' handles
// and the receiver window of leg 1 (leg 2 and the direct path end at the
// destination). A steady-state probe sweep re-measures the same pairs
// every tick, so a warm pair costs one hash probe — no path-cache lookups,
// no interning, no endpoint resolution. Legs are only ever appended, so
// two callers measuring one pair against different overlay sets never
// undo each other's plan.
struct PairPlan {
  struct Leg {
    int overlay;
    int leg1;
    int leg2;
    double overlay_rwnd;
  };
  int direct = -1;
  double dst_rwnd = 0.0;
  std::vector<Leg> legs;

  /// The leg through `overlay`; `hint` is its position when the overlay
  /// set is the one the plan was built from (the common case).
  const Leg* find(int overlay, std::size_t hint) const {
    if (hint < legs.size() && legs[hint].overlay == overlay) return &legs[hint];
    for (const Leg& l : legs) {
      if (l.overlay == overlay) return &l;
    }
    return nullptr;
  }
};

}  // namespace

// The shared measurement plan of one meter (see measure_batch). `sampler`
// is null until the first batch; `flow_tag` and `epoch` are the FlowModel
// instance and topology mutation epoch the contents were built for.
struct ModelMeasurement::PlanStore {
  std::shared_mutex mu;
  std::uint64_t flow_tag = 0;
  std::uint64_t epoch = 0;
  std::unique_ptr<model::BatchSampler> sampler;
  std::unordered_map<std::uint64_t, PairPlan> plans;  ///< key: (src, dst)

  bool current(const model::FlowModel& flow, const topo::Internet& topo) const {
    return sampler && flow_tag == flow.instance_tag() &&
           epoch == topo.mutation_epoch();
  }
};

// Per-thread batched-measurement scratch, reused across calls (and across
// meters) so warm batches allocate nothing.
struct ModelMeasurement::BatchScratch {
  model::BatchSampler::Scratch sampler;
  std::vector<std::size_t> missing;  ///< requests without a complete plan
  /// The missing requests' paths (direct, then per eligible overlay leg 1,
  /// leg 2) and, for those the store had not interned, their aggregates.
  std::vector<topo::PathRef> paths;
  std::vector<std::shared_ptr<const model::FlowModel::PathAggregates>> aggs;
  std::vector<int> handles;       ///< direct, then per eligible: leg1, leg2
  std::vector<double> rwnd;       ///< per handle: receiver window (bytes)
  std::vector<int> eligible;      ///< per request: overlays minus src/dst
  std::vector<std::size_t> n_eligible;  ///< per request
  std::vector<model::PathMetrics> metrics;  ///< per handle, rwnd filled in
  std::vector<model::PathMetrics> concat;   ///< per overlay candidate
  // PFTK evaluation table (direct, then per overlay: concat, leg1, leg2).
  std::vector<double> rtt_ms, loss, residual_bps, capacity_bps, rwnd_bytes;
  std::vector<double> pftk_bps;
  std::vector<ProbeRequest> reqs;  ///< backing for the pairs overload
};

ModelMeasurement::BatchScratch& ModelMeasurement::batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

ModelMeasurement::ModelMeasurement(topo::Internet* topo,
                                   model::FlowModel* flow, std::uint64_t seed)
    : topo_(topo), flow_(flow), seed_(seed), store_(std::make_unique<PlanStore>()) {}

ModelMeasurement::~ModelMeasurement() = default;

int probe_batch_size() {
  static const int cached =
      static_cast<int>(sim::env_int("CRONETS_BATCH", 64, 1, 1'000'000));
  return cached;
}

double PairSample::best_plain_bps() const {
  double best = 0.0;
  for (const auto& o : overlays) best = std::max(best, o.plain_bps);
  return best;
}

double PairSample::best_split_bps() const {
  double best = 0.0;
  for (const auto& o : overlays) best = std::max(best, o.split_bps);
  return best;
}

double PairSample::best_discrete_bps() const {
  double best = 0.0;
  for (const auto& o : overlays) best = std::max(best, o.discrete_bps);
  return best;
}

double PairSample::min_overlay_rtt_ms() const {
  double best = 1e18;
  for (const auto& o : overlays) best = std::min(best, o.rtt_ms);
  return best;
}

double PairSample::min_overlay_loss() const {
  double best = 1.0;
  for (const auto& o : overlays) best = std::min(best, o.loss);
  return best;
}

int PairSample::best_split_overlay_ep() const {
  int ep = -1;
  double best = -1.0;
  for (const auto& o : overlays) {
    if (o.split_bps > best) {
      best = o.split_bps;
      ep = o.overlay_ep;
    }
  }
  return ep;
}

PairSample ModelMeasurement::measure(int src_ep, int dst_ep,
                                     const std::vector<int>& overlay_eps,
                                     sim::Time t) const {
  PairSample out;
  out.src = src_ep;
  out.dst = dst_ep;

  // Private noise stream for this (pair, time): the draw sequence below is
  // fixed, so the sample is reproducible no matter where it runs.
  sim::DrawStream draws(
      sim::pair_seed(seed_ ^ flow_->seed(), src_ep, dst_ep, t.ns()));

  // Interned paths + precomputed aggregates: the direct path and both legs
  // of every overlay candidate are looked up, never rebuilt, so the only
  // per-call work left is evaluating the stochastic link field.
  const topo::PathRef direct = topo_->cached_path(src_ep, dst_ep);
  model::PathMetrics dm = flow_->sample(direct, t);
  dm.rwnd_bytes = static_cast<double>(topo_->endpoint(dst_ep).rcv_buf);
  out.direct_bps = flow_->tcp_throughput(dm, draws);
  out.direct_rtt_ms = dm.rtt_ms;
  out.direct_loss = dm.loss;
  out.direct_hops = dm.hop_count;

  out.overlays.reserve(overlay_eps.size());
  for (int o : overlay_eps) {
    if (o == src_ep || o == dst_ep) continue;
    const topo::PathRef leg1 = topo_->cached_path(src_ep, o);
    const topo::PathRef leg2 = topo_->cached_path(o, dst_ep);
    model::PathMetrics m1 = flow_->sample(leg1, t);
    model::PathMetrics m2 = flow_->sample(leg2, t);
    // Split-TCP legs terminate at their own receivers: the overlay VM for
    // leg 1, the final destination for leg 2.
    m1.rwnd_bytes = static_cast<double>(topo_->endpoint(o).rcv_buf);
    m2.rwnd_bytes = static_cast<double>(topo_->endpoint(dst_ep).rcv_buf);
    OverlaySample s;
    s.overlay_ep = o;
    s.plain_bps = flow_->overlay_plain(m1, m2, draws);
    s.split_bps = flow_->overlay_split(m1, m2, draws, &s.leg1_bps, &s.leg2_bps);
    s.discrete_bps = flow_->discrete(m1, m2, draws);
    const model::PathMetrics combined = model::FlowModel::concat(m1, m2);
    s.rtt_ms = combined.rtt_ms;
    s.loss = combined.loss;
    out.overlays.push_back(s);
  }
  return out;
}

bool ModelMeasurement::gather(const ProbeRequest* reqs, std::size_t n,
                              BatchScratch& S) const {
  S.missing.clear();
  S.handles.clear();
  S.rwnd.clear();
  S.eligible.clear();
  S.n_eligible.clear();
  const PlanStore& store = *store_;
  for (std::size_t i = 0; i < n; ++i) {
    const ProbeRequest& r = reqs[i];
    const auto it = store.plans.find(sim::pack_pair(r.src, r.dst));
    if (it == store.plans.end()) {
      S.missing.push_back(i);
      continue;
    }
    const PairPlan& plan = it->second;
    S.handles.push_back(plan.direct);
    S.rwnd.push_back(plan.dst_rwnd);
    std::size_t ne = 0;
    for (int o : *r.overlays) {
      if (o == r.src || o == r.dst) continue;
      const PairPlan::Leg* leg = plan.find(o, ne++);
      if (leg == nullptr) {
        S.missing.push_back(i);
        break;
      }
      // Split-TCP legs terminate at their own receivers: the overlay VM
      // for leg 1, the final destination for leg 2.
      S.handles.push_back(leg->leg1);
      S.handles.push_back(leg->leg2);
      S.rwnd.push_back(leg->overlay_rwnd);
      S.rwnd.push_back(plan.dst_rwnd);
      S.eligible.push_back(o);
    }
    S.n_eligible.push_back(ne);
  }
  return S.missing.empty();
}

void ModelMeasurement::plan_missing(const ProbeRequest* reqs,
                                    BatchScratch& S) const {
  PlanStore& store = *store_;
  // Path-cache lookups and aggregate builds are thread-safe and are the
  // costly part of planning, so they run under the shared lock only (other
  // threads keep measuring meanwhile), and only paths the store lacks
  // fetch their aggregates.
  S.paths.clear();
  S.aggs.clear();
  {
    std::shared_lock<std::shared_mutex> lock(store.mu);
    const bool current = store.current(*flow_, *topo_);
    const auto resolve = [&](int a, int b) {
      topo::PathRef path = topo_->cached_path(a, b);
      S.aggs.push_back(current && store.sampler->find(path) >= 0
                           ? nullptr
                           : flow_->aggregates(path));
      S.paths.push_back(std::move(path));
    };
    for (const std::size_t i : S.missing) {
      const ProbeRequest& r = reqs[i];
      resolve(r.src, r.dst);
      for (int o : *r.overlays) {
        if (o == r.src || o == r.dst) continue;
        resolve(r.src, o);
        resolve(o, r.dst);
      }
    }
  }

  std::unique_lock<std::shared_mutex> lock(store.mu);
  if (!store.current(*flow_, *topo_)) {
    // Topology mutated or a new model: every interned handle is invalid.
    // A mutation resets the sampler in place, keeping its capacity.
    if (!store.sampler || store.flow_tag != flow_->instance_tag()) {
      store.sampler = std::make_unique<model::BatchSampler>(flow_);
      store.flow_tag = flow_->instance_tag();
    }
    store.sampler->begin_batch();
    store.epoch = topo_->mutation_epoch();
    store.plans.clear();
  }
  model::BatchSampler& sampler = *store.sampler;
  const auto intern = [&](std::size_t k) {
    return S.aggs[k] ? sampler.intern(std::move(S.aggs[k]))
                     : sampler.intern(S.paths[k]);
  };
  std::size_t c = 0;
  for (const std::size_t i : S.missing) {
    const ProbeRequest& r = reqs[i];
    PairPlan& plan = store.plans[sim::pack_pair(r.src, r.dst)];
    if (plan.direct < 0) {
      plan.direct = intern(c);
      plan.dst_rwnd = static_cast<double>(topo_->endpoint(r.dst).rcv_buf);
    }
    ++c;
    std::size_t ne = 0;
    for (int o : *r.overlays) {
      if (o == r.src || o == r.dst) continue;
      if (plan.find(o, ne++) == nullptr) {
        plan.legs.push_back(PairPlan::Leg{
            o, intern(c), intern(c + 1),
            static_cast<double>(topo_->endpoint(o).rcv_buf)});
      }
      c += 2;
    }
  }
  // Do not pin paths or aggregates past this epoch.
  S.paths.clear();
  S.aggs.clear();
}

void ModelMeasurement::measure_batch(const ProbeRequest* reqs, std::size_t n,
                                     sim::Time t, PairSample* out) const {
  if (n == 0) return;
  BatchScratch& S = batch_scratch();
  PlanStore& store = *store_;

  // Pass 1 and the sampling kernel, under the store's shared lock: copy
  // each pair's plan (handles, receiver windows, eligible overlays) into
  // the scratch, then one batched sample in which link fields shared by
  // any paths of the batch are evaluated once. Unplanned pairs are planned
  // (see plan_missing) and the batch retried; a warm sweep never leaves
  // the first iteration.
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> lock(store.mu);
      const bool current = store.current(*flow_, *topo_);
      if (current && gather(reqs, n, S)) {
        S.metrics.resize(S.handles.size());
        store.sampler->sample_batch(S.handles.data(), S.handles.size(), t,
                                    S.metrics.data(), S.sampler);
        break;
      }
      if (!current) {
        S.missing.resize(n);
        for (std::size_t i = 0; i < n; ++i) S.missing[i] = i;
      }
    }
    plan_missing(reqs, S);
  }

  // Pass 2: receiver windows (copied from the plans) and the flat PFTK
  // evaluation table, exactly as in measure(). Each overlay contributes
  // three deterministic evaluations — concat, leg1, leg2 — and the leg
  // values are shared between the split and discrete predictors.
  const model::TcpModelParams& p = flow_->params();
  S.concat.clear();
  S.rtt_ms.clear();
  S.loss.clear();
  S.residual_bps.clear();
  S.capacity_bps.clear();
  S.rwnd_bytes.clear();
  const auto push_eval = [&](const model::PathMetrics& m) {
    S.rtt_ms.push_back(m.rtt_ms);
    S.loss.push_back(m.loss);
    S.residual_bps.push_back(m.residual_bps);
    S.capacity_bps.push_back(m.capacity_bps);
    S.rwnd_bytes.push_back(m.rwnd_bytes > 0 ? m.rwnd_bytes : p.rwnd_bytes);
  };
  for (std::size_t k = 0; k < S.handles.size(); ++k) {
    S.metrics[k].rwnd_bytes = S.rwnd[k];
  }
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    push_eval(S.metrics[cursor]);
    for (std::size_t j = 0; j < S.n_eligible[i]; ++j) {
      const model::PathMetrics& m1 = S.metrics[cursor + 1 + 2 * j];
      const model::PathMetrics& m2 = S.metrics[cursor + 2 + 2 * j];
      S.concat.push_back(model::FlowModel::concat(m1, m2));
      push_eval(S.concat.back());
      push_eval(m1);
      push_eval(m2);
    }
    cursor += 1 + 2 * S.n_eligible[i];
  }
  S.pftk_bps.resize(S.rtt_ms.size());
  model::pftk_throughput_batch(S.rtt_ms.size(), S.rtt_ms.data(), S.loss.data(),
                               S.residual_bps.data(), S.capacity_bps.data(),
                               S.rwnd_bytes.data(), p, S.pftk_bps.data());

  // Pass 3: the per-pair stochastic pass — draw-for-draw the sequence
  // measure() makes on its private (seed, src, dst, t) stream, applied to
  // the precomputed PFTK values through the same FlowModel::noisy_tcp.
  cursor = 0;
  std::size_t eval = 0, cc = 0, e = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ProbeRequest& r = reqs[i];
    PairSample& ps = out[i];
    ps.src = r.src;
    ps.dst = r.dst;
    sim::DrawStream draws(
        sim::pair_seed(seed_ ^ flow_->seed(), r.src, r.dst, t.ns()));
    const model::PathMetrics& dm = S.metrics[cursor++];
    ps.direct_bps = flow_->noisy_tcp(S.pftk_bps[eval++], dm, draws);
    ps.direct_rtt_ms = dm.rtt_ms;
    ps.direct_loss = dm.loss;
    ps.direct_hops = dm.hop_count;
    ps.overlays.clear();  // keeps capacity: warm batches do not allocate
    for (std::size_t j = 0; j < S.n_eligible[i]; ++j) {
      const int o = S.eligible[e++];
      const model::PathMetrics& m1 = S.metrics[cursor++];
      const model::PathMetrics& m2 = S.metrics[cursor++];
      const model::PathMetrics& cm = S.concat[cc++];
      const double pftk_cm = S.pftk_bps[eval++];
      const double pftk_1 = S.pftk_bps[eval++];
      const double pftk_2 = S.pftk_bps[eval++];
      OverlaySample s;
      s.overlay_ep = o;
      s.plain_bps = flow_->noisy_tcp(pftk_cm, cm, draws);
      const double t1 = flow_->noisy_tcp(pftk_1, m1, draws);
      const double t2 = flow_->noisy_tcp(pftk_2, m2, draws);
      s.leg1_bps = t1;
      s.leg2_bps = t2;
      s.split_bps = 0.97 * std::min(t1, t2);
      // FlowModel::discrete's draw-order contract: leg 2, then leg 1.
      const double d2 = flow_->noisy_tcp(pftk_2, m2, draws);
      const double d1 = flow_->noisy_tcp(pftk_1, m1, draws);
      s.discrete_bps = std::min(d1, d2);
      s.rtt_ms = cm.rtt_ms;
      s.loss = cm.loss;
      ps.overlays.push_back(s);
    }
  }
}

void ModelMeasurement::measure_batch(const std::pair<int, int>* pairs,
                                     std::size_t n,
                                     const std::vector<int>& overlay_eps,
                                     sim::Time t, PairSample* out) const {
  BatchScratch& S = batch_scratch();
  S.reqs.clear();
  S.reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    S.reqs.push_back(ProbeRequest{pairs[i].first, pairs[i].second, &overlay_eps});
  }
  measure_batch(S.reqs.data(), n, t, out);
}

}  // namespace cronets::core
