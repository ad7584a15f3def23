#include "model/batch_sampler.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "model/simd/dispatch.h"

namespace cronets::model {

namespace {
// FlowModel::make_link_field caps the AR(1) truncation horizon at 64;
// the fold kernels' innovation scratch relies on that bound.
constexpr int kMaxHorizon = 64;

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

BatchSampler::BatchSampler(const FlowModel* flow, simd::Level level)
    : flow_(flow),
      topo_(flow->topo()),
      path_version_(flow->topo()->path_cache().version()),
      level_(level),
      generation_(next_generation()) {
  path_slot_begin_.push_back(0);
}

bool BatchSampler::begin_batch(std::vector<int>* released) {
  const topo::PathCache& cache = topo_->path_cache();
  if (path_version_ == cache.version()) return false;
  bool any = false;
  for (const std::uint64_t key : cache.moved_since(path_version_)) {
    const auto it = handle_of_key_.find(key);
    if (it == handle_of_key_.end()) continue;
    const int h = it->second;
    const auto hs = static_cast<std::size_t>(h);
    if (cache.peek(key) == path_agg_[hs]->path) continue;  // re-interned since
    path_agg_[hs].reset();
    handle_of_key_.erase(it);  // a key that moved twice releases once
    any = true;
    if (released != nullptr) released->push_back(h);
  }
  path_version_ = cache.version();
  return any;
}

std::uint32_t BatchSampler::intern_field(const FlowModel::LinkField& f) {
  const auto [it, inserted] =
      field_index_.emplace(f.stream, static_cast<std::uint32_t>(f_stream_.size()));
  if (!inserted) return it->second;
  assert(f.horizon <= kMaxHorizon);
  f_field_.push_back(f);
  f_stream_.push_back(f.stream);
  f_epoch_ns_.push_back(f.epoch_ns);
  f_horizon_.push_back(f.horizon);
  // Precompute the exponential weights with the scalar sampler's own
  // w *= a recurrence: the lane-ordered reduction over this array is then
  // bitwise identical to the original loop-carried form.
  if (f_weight_begin_.empty()) f_weight_begin_.push_back(0);
  double w = 1.0;
  for (int j = 0; j < f.horizon; ++j) {
    f_weights_.push_back(w);
    w *= f.a;
  }
  f_weight_begin_.push_back(static_cast<std::uint32_t>(f_weights_.size()));
  return it->second;
}

int BatchSampler::find(const topo::PathRef& path) const {
  const auto it = handle_of_key_.find(topo::PathCache::key_of(*path));
  if (it == handle_of_key_.end()) return -1;
  return path_agg_[static_cast<std::size_t>(it->second)]->path == path
             ? it->second
             : -1;
}

int BatchSampler::intern(const topo::PathRef& path) {
  const int handle = find(path);
  if (handle >= 0) return handle;
  // Reuse (and pin) the model's memoized aggregates.
  return intern(flow_->aggregates(path));
}

int BatchSampler::intern(std::shared_ptr<const FlowModel::PathAggregates> agg) {
  const int h = static_cast<int>(path_agg_.size());
  const auto [it, inserted] =
      handle_of_key_.emplace(topo::PathCache::key_of(*agg->path), h);
  if (!inserted) {
    if (path_agg_[static_cast<std::size_t>(it->second)]->path == agg->path) {
      return it->second;
    }
    // A newer object for the key, interned without a sync: the old handle
    // keeps sampling its path but is no longer found.
    it->second = h;
  }
  for (const FlowModel::LinkField& f : agg->links) {
    slot_field_.push_back(intern_field(f));
  }
  path_slot_begin_.push_back(static_cast<std::uint32_t>(slot_field_.size()));
  path_min_capacity_bps_.push_back(agg->min_capacity_bps);
  path_hops_.push_back(agg->hop_count);
  path_agg_.push_back(std::move(agg));
  return h;
}

void BatchSampler::plan(const int* handles, std::size_t n, Scratch& s) const {
  if (++s.stamp_ == 0) {  // stamp wrapped: invalidate every mark
    std::fill(s.field_mark_.begin(), s.field_mark_.end(), 0);
    std::fill(s.handle_mark_.begin(), s.handle_mark_.end(), 0);
    s.stamp_ = 1;
  }
  // The marks only grow with the store; a warm resize is a size compare.
  s.field_mark_.resize(f_stream_.size(), 0);
  s.handle_mark_.resize(path_agg_.size(), 0);
  s.handle_uniq_.resize(path_agg_.size());

  // Path-level dedup: accumulate each distinct handle once in pass 3 and
  // copy its metrics to every position that names it.
  s.plan_uniq_.clear();
  s.plan_out_of_.resize(n);
  std::uint64_t traversals = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::size_t>(handles[i]);
    traversals += path_slot_begin_[h + 1] - path_slot_begin_[h];
    if (s.handle_mark_[h] != s.stamp_) {
      s.handle_mark_[h] = s.stamp_;
      s.handle_uniq_[h] = static_cast<std::uint32_t>(s.plan_uniq_.size());
      s.plan_uniq_.push_back(handles[i]);
    }
    s.plan_out_of_[i] = s.handle_uniq_[h];
  }
  s.uniq_out_.resize(s.plan_uniq_.size());

  // The unique link fields this batch touches, in first-touch order. A
  // repeated handle adds no field its first occurrence did not, so
  // walking the distinct handles yields the same order as walking all of
  // them — and a field crossed by many paths is still collected (and
  // later evaluated) exactly once.
  s.used_.clear();
  for (const int uh : s.plan_uniq_) {
    const auto h = static_cast<std::size_t>(uh);
    for (std::uint32_t k = path_slot_begin_[h]; k < path_slot_begin_[h + 1]; ++k) {
      const std::uint32_t fi = slot_field_[k];
      if (s.field_mark_[fi] != s.stamp_) {
        s.field_mark_[fi] = s.stamp_;
        s.used_.push_back(fi);
      }
    }
  }
  s.plan_handles_.assign(handles, handles + n);
  s.plan_traversals_ = traversals;
  s.plan_generation_ = generation_;

  // Pack the used fields into lane groups of four and transpose their
  // (t-independent) exponential weights for the grouped fold kernel,
  // zero-padding each lane past its own horizon.
  s.plan_groups_.clear();
  s.plan_wt_.clear();
  for (std::size_t g0 = 0; g0 < s.used_.size(); g0 += 4) {
    Scratch::PlanGroup g;
    g.nf = static_cast<int>(std::min<std::size_t>(4, s.used_.size() - g0));
    g.maxh = 0;
    for (int k = 0; k < 4; ++k) {
      const std::uint32_t fi =
          s.used_[g0 + static_cast<std::size_t>(std::min(k, g.nf - 1))];
      g.field[k] = fi;
      if (k < g.nf) g.maxh = std::max(g.maxh, f_horizon_[fi]);
    }
    g.wt_begin = static_cast<std::uint32_t>(s.plan_wt_.size());
    s.plan_wt_.resize(s.plan_wt_.size() + 4 * static_cast<std::size_t>(g.maxh),
                      0.0);
    for (int k = 0; k < g.nf; ++k) {
      const std::uint32_t fi = g.field[k];
      const double* w = f_weights_.data() + f_weight_begin_[fi];
      for (int j = 0; j < f_horizon_[fi]; ++j) {
        s.plan_wt_[g.wt_begin + 4 * static_cast<std::size_t>(j) +
                   static_cast<std::size_t>(k)] = w[j];
      }
    }
    s.plan_groups_.push_back(g);
  }
}

void BatchSampler::sample_batch(const int* handles, std::size_t n, sim::Time t,
                                PathMetrics* out, Scratch& s) const {
  // Pass 1: the dedup plan (unique fields and handles of this batch). It
  // depends only on the handle set, not on t, so re-sampling the same
  // handles reuses the scratch's previous plan after a content compare.
  const bool plan_hit = s.plan_generation_ == generation_ &&
                        s.plan_handles_.size() == n &&
                        std::equal(handles, handles + n, s.plan_handles_.begin());
  if (!plan_hit) plan(handles, n, s);
  s.dedup_saved_ += s.plan_traversals_ - s.used_.size();

  // Pass 2: evaluate each used field once, four fields per grouped kernel
  // call (see model/simd/): the AR(1) innovations are pure integer hashing
  // plus an exact uint->double conversion, and the exponentially-weighted
  // fold runs one field per SIMD lane in the scalar fold's strict j order
  // — the serial chain that bounds this pass advances four fields per
  // vector add without touching the accumulation order (or bits) of the
  // scalar sampler. FlowModel::eval_field then turns each sum into the
  // field's loss complement, delay, queueing and residual, once per field
  // instead of once per traversal.
  s.f_eval_.resize(f_stream_.size());
  for (const Scratch::PlanGroup& g : s.plan_groups_) {
    std::uint64_t streams4[4];
    std::int64_t ns4[4];
    int hz4[4];
    double acc4[4];
    for (int k = 0; k < 4; ++k) {
      const std::uint32_t gfi = g.field[k];
      streams4[k] = f_stream_[gfi];
      ns4[k] = t.ns() / f_epoch_ns_[gfi];
      hz4[k] = f_horizon_[gfi];
    }
    simd::ar1_weighted_sums(level_, g.nf, streams4, ns4, hz4,
                            s.plan_wt_.data() + g.wt_begin, g.maxh, acc4);
    for (int k = 0; k < g.nf; ++k) {
      const std::uint32_t fi = g.field[k];
      s.f_eval_[fi] = FlowModel::eval_field(f_field_[fi], acc4[k], t);
    }
  }

  // Pass 3: the scalar sampler's accumulate step over the per-field
  // values, in link order. Only distinct handles are walked (plan_uniq_);
  // duplicates get a struct copy below.
  for (std::size_t u = 0; u < s.plan_uniq_.size(); ++u) {
    const auto h = static_cast<std::size_t>(s.plan_uniq_[u]);
    FlowModel::PathAccumulator acc;
    for (std::uint32_t k = path_slot_begin_[h]; k < path_slot_begin_[h + 1]; ++k) {
      acc.add(s.f_eval_[slot_field_[k]]);
    }
    s.uniq_out_[u] = acc.finish(path_min_capacity_bps_[h], path_hops_[h]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s.uniq_out_[s.plan_out_of_[i]];
  }
}

}  // namespace cronets::model
