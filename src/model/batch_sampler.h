#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "model/flow_model.h"
#include "model/simd/dispatch.h"
#include "sim/time.h"
#include "topo/internet.h"

namespace cronets::model {

/// Batch-oriented, SIMD-friendly path sampler over interned paths. Each
/// path becomes a dense handle that pins its FlowModel::PathAggregates;
/// the sampler keeps in contiguous arrays only what its loops read (per
/// field: stream id, epoch, horizon, exponential weights; per path: min
/// capacity and hop count) and points at the aggregates' LinkFields for
/// everything else. `sample_batch` evaluates a whole batch of paths at one
/// timestamp with
///
///  1. *deduplicated* link-field evaluation — each (link direction, t) is
///     computed exactly once per batch no matter how many paths cross it
///     (core links shared by many overlay legs are the common case), and
///  2. the grouped SIMD AR(1) fold (model/simd/), four fields per call,
///     feeding FlowModel::eval_field and FlowModel::PathAccumulator — the
///     same per-link formula and accumulate step the scalar sampler runs.
///
/// Results are bitwise identical to FlowModel::sample(PathRef, t) at every
/// batch size — enforced by tests/batch_sampler_test.cc and the
/// bench_micro "batch sample == scalar sample" check. Unlike the scalar
/// sampler, no per-sample lock, hash-map memo probe, or shared_ptr
/// refcount is touched.
///
/// Thread-safety: the sampler is a store (interned paths and fields) plus
/// a default Scratch. `intern` and `begin_batch` write the store;
/// `sample_batch(..., Scratch&) const` only reads it, so any number of
/// threads may sample one store concurrently, each into its own Scratch,
/// while no thread interns (core::ModelMeasurement shares one store across
/// its pool this way, behind a shared_mutex). The member `sample_batch`
/// uses the sampler's own Scratch and is single-threaded. Interning pins
/// the path's aggregates (and through them the RouterPath); `begin_batch`
/// revalidates against the topology mutation epoch and resets the store
/// (invalidating all handles) when the world has mutated, so callers
/// re-intern their paths at the start of every batch.
class BatchSampler {
 public:
  /// One caller's working state for `sample_batch`: the t-independent
  /// dedup plan of the last batch it sampled and the per-batch scratch.
  /// Persistent, so warm batches do not allocate; valid against any store
  /// (a plan built against another store, or before a reset, is ignored).
  class Scratch {
    friend class BatchSampler;
    /// Lane group of the grouped simd::ar1_weighted_sums kernel: four
    /// used fields and their lane-transposed, zero-padded weight block.
    /// Spare lanes of a short tail group repeat the last field; their
    /// outputs are ignored.
    struct PlanGroup {
      std::uint32_t field[4];
      int nf;
      int maxh;
      std::uint32_t wt_begin;  ///< row-major maxh x 4 block in plan_wt_
    };

    /// Dedup-plan cache: the plan depends only on the handle set (not on
    /// t) and the store it was built against, so re-sampling the same
    /// handles — every probe tick, every bench rep — reuses it after one
    /// memcmp-cheap content compare.
    std::uint64_t plan_generation_ = 0;  ///< store generation; 0 = none
    std::vector<int> plan_handles_;
    std::uint64_t plan_traversals_ = 0;
    std::vector<std::uint32_t> used_;  ///< unique fields, first-touch order
    std::vector<PlanGroup> plan_groups_;
    std::vector<double> plan_wt_;
    /// Path-level dedup: a batch that names the same handle k times
    /// (overlay legs shared across pairs, typically) pays for its
    /// accumulation once — identical handle, identical metrics, so the
    /// remaining copies are struct copies and cannot change bits.
    std::vector<int> plan_uniq_;              ///< unique handles, first-touch
    std::vector<std::uint32_t> plan_out_of_;  ///< input i -> plan_uniq_ index
    /// Batch stamps per field and per handle (grown with the store, never
    /// cleared), so building a plan costs in proportion to the batch.
    std::vector<std::uint32_t> field_mark_;
    std::vector<std::uint32_t> handle_mark_;
    std::vector<std::uint32_t> handle_uniq_;  ///< valid where marked
    std::uint32_t stamp_ = 0;
    std::vector<FlowModel::LinkEval> f_eval_;  ///< per-field evaluation at t
    std::vector<PathMetrics> uniq_out_;        ///< per-unique-path scratch
    /// Link-field evaluations saved by within-batch dedup through this
    /// scratch: (total path-link traversals sampled) - (unique fields
    /// evaluated).
    std::uint64_t dedup_saved_ = 0;
  };

  /// `level` selects the innovation-kernel ISA (default: the process-wide
  /// CRONETS_SIMD choice). Every level is bitwise identical — the override
  /// exists so benches and tests can compare scalar against SIMD in one
  /// process.
  explicit BatchSampler(const FlowModel* flow,
                        simd::Level level = simd::active_level());

  /// Revalidate against the topology mutation epoch. Returns true if the
  /// store was reset (every previously returned handle is now invalid).
  bool begin_batch();

  /// Dense handle of `path`, interning its aggregates into the store on
  /// first use. Valid until the next store reset (see begin_batch).
  int intern(const topo::PathRef& path);
  /// Handle of `path` if the store has interned it, else -1. Reads only.
  int find(const topo::PathRef& path) const;
  /// Same, with the path's aggregates already resolved (FlowModel::
  /// aggregates is thread-safe, so callers sharing a store resolve them
  /// before taking their write lock).
  int intern(std::shared_ptr<const FlowModel::PathAggregates> agg);

  /// Metrics of handles[i] at time `t` into out[i], planned in `scratch`.
  /// Bitwise identical to FlowModel::sample(handle's path, t) for every
  /// element. Reads the store only.
  void sample_batch(const int* handles, std::size_t n, sim::Time t,
                    PathMetrics* out, Scratch& scratch) const;
  /// Same, through the sampler's own Scratch.
  void sample_batch(const int* handles, std::size_t n, sim::Time t,
                    PathMetrics* out) {
    sample_batch(handles, n, t, out, scratch_);
  }

  std::size_t paths() const { return path_agg_.size(); }
  std::size_t unique_fields() const { return f_stream_.size(); }
  simd::Level simd_level() const { return level_; }
  /// Link-field evaluations saved by the member sample_batch's within-batch
  /// dedup since construction: (total path-link traversals sampled) -
  /// (unique fields evaluated).
  std::uint64_t dedup_saved() const { return scratch_.dedup_saved_; }

 private:
  std::uint32_t intern_field(const FlowModel::LinkField& f);
  /// Build `s`'s dedup plan for this handle set (the t-independent part of
  /// sample_batch).
  void plan(const int* handles, std::size_t n, Scratch& s) const;
  void reset();

  const FlowModel* flow_;
  const topo::Internet* topo_;
  std::uint64_t epoch_;
  simd::Level level_;
  /// Process-unique id of the store's current contents: taken afresh at
  /// construction and at every reset, so a Scratch never reuses a plan
  /// whose handles meant something else.
  std::uint64_t generation_;

  // --- interned paths (each pinned aggregate also pins its RouterPath) ---
  std::unordered_map<const topo::RouterPath*, int> path_index_;
  std::vector<std::shared_ptr<const FlowModel::PathAggregates>> path_agg_;
  /// Pass 3's per-path constants, dense so it never chases an aggregate.
  std::vector<double> path_min_capacity_bps_;
  std::vector<int> path_hops_;
  std::vector<std::uint32_t> path_slot_begin_;  ///< size paths+1 (prefix sums)
  std::vector<std::uint32_t> slot_field_;       ///< per traversal: field index

  // --- unique link-direction fields (deduplicated by stream id) ---
  std::unordered_map<std::uint64_t, std::uint32_t> field_index_;
  /// The field's constants, inside the pinned aggregate that interned it.
  std::vector<const FlowModel::LinkField*> f_field_;
  std::vector<std::uint64_t> f_stream_;
  std::vector<std::int64_t> f_epoch_ns_;
  std::vector<int> f_horizon_;
  /// Exponential weights a^j per field, flattened (f_weight_begin_ indexes
  /// the start of each field's `horizon` weights). Generated by the same
  /// w *= a recurrence the scalar fold runs, so the lane-ordered
  /// reduction over them reproduces its bits while dropping the
  /// loop-carried multiply from the hot loop.
  std::vector<std::uint32_t> f_weight_begin_;  ///< size fields+1 into f_weights_
  std::vector<double> f_weights_;

  Scratch scratch_;  ///< the member sample_batch's
};

}  // namespace cronets::model
