#include "model/flow_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "sim/hash_rng.h"

namespace cronets::model {

using sim::Time;

namespace detail {
std::uint64_t next_flow_model_tag() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

// Per-thread memo of eval_field results, keyed by the link direction's
// innovation stream id. The value is a pure function of (model, topology
// mutation epoch, stream, t); the tag comparison is exact, so a hit returns
// the same bits a recompute would. Shared links — access links on every
// overlay leg, common backbone hops — are evaluated once per (thread,
// timestep) instead of once per path traversal. A default entry never
// hits: model tags start at 1.
struct FieldMemoEntry {
  std::uint64_t model = 0;
  std::uint64_t epoch = 0;
  std::int64_t t_ns = 0;
  FlowModel::LinkEval eval;
};

std::unordered_map<std::uint64_t, FieldMemoEntry>& field_memo() {
  thread_local std::unordered_map<std::uint64_t, FieldMemoEntry> memo;
  return memo;
}

// Stationary AR(1) as a stateless random field: the process value at
// integer epoch n is the exponentially-weighted sum of hash-indexed
// innovations, u_n = mean + c * sum_{j<J} a^j e_{n-j}, truncated where the
// tail weight is negligible and rescaled so the variance is exactly the
// stationary sigma^2/(1-a^2). Consecutive epochs share J-1 innovations,
// reproducing the AR(1) autocorrelation a^|d| — but unlike the recursive
// form, any (link, direction, t) can be evaluated independently, in any
// order, on any thread, with identical bits. This is the scalar fold of
// the weighted sum; BatchSampler runs the same j-ordered fold through
// simd::ar1_weighted_sums.
double ar1_sum(const FlowModel::LinkField& f, Time t) {
  const std::int64_t n = t.ns() / f.epoch_ns;
  double acc = 0.0, w = 1.0;
  for (int j = 0; j < f.horizon; ++j) {
    acc += w * sim::hash_centered(
                   sim::hash_combine(f.stream, static_cast<std::uint64_t>(n - j)));
    w *= f.a;
  }
  return acc;
}

// Utilization of `f` given its AR(1) sum: the stationary value, clamped,
// plus the diurnal swing and any active transient boosts, clamped again.
double field_utilization(const FlowModel::LinkField& f, double acc, Time t) {
  double u = f.bg.mean_util + acc * f.stationary_sd / f.sqrt_w2;
  u = std::clamp(u, 0.0, 0.98);
  double out = u + net::diurnal_component(f.bg, t);
  for (const auto& ev : f.events) {
    if (t >= ev.from && t < ev.until) out += ev.util_boost;
  }
  return std::clamp(out, 0.0, 0.98);
}

}  // namespace

double pftk_throughput_bps(double rtt_ms, double loss, double residual_bps,
                           double capacity_bps, const TcpModelParams& p) {
  const double rtt = std::max(rtt_ms / 1e3, 1e-4);
  double loss_bound_Bps = 1e18;
  if (loss > 1e-9) {
    const double bp = p.b * loss;
    const double t0 = std::max(0.2, 2.0 * rtt);  // RTO estimate
    const double denom = rtt * std::sqrt(2.0 * bp / 3.0) +
                         t0 * std::min(1.0, 3.0 * std::sqrt(3.0 * bp / 8.0)) * loss *
                             (1.0 + 32.0 * loss * loss);
    loss_bound_Bps = p.aggressiveness * p.mss / denom;
  }
  const double wnd_bound_Bps = p.rwnd_bytes / rtt;
  const double cap_Bps = std::min(residual_bps, capacity_bps) / 8.0;
  return 8.0 * std::min({loss_bound_Bps, wnd_bound_Bps, cap_Bps});
}

void pftk_throughput_batch(std::size_t n, const double* rtt_ms,
                           const double* loss, const double* residual_bps,
                           const double* capacity_bps, const double* rwnd_bytes,
                           const TcpModelParams& p, double* out_bps) {
  pftk_throughput_batch(simd::active_level(), n, rtt_ms, loss, residual_bps,
                        capacity_bps, rwnd_bytes, p, out_bps);
}

void pftk_throughput_batch(simd::Level level, std::size_t n,
                           const double* rtt_ms, const double* loss,
                           const double* residual_bps,
                           const double* capacity_bps, const double* rwnd_bytes,
                           const TcpModelParams& p, double* out_bps) {
  // Element-wise mirror of pftk_throughput_bps with the rwnd override
  // applied per element; every kernel level keeps the scalar expression
  // shape (the loss branch becomes a lane blend), so the results are
  // bitwise identical.
  simd::pftk_batch(level, n, rtt_ms, loss, residual_bps, capacity_bps,
                   rwnd_bytes, p, out_bps);
}

FlowModel::LinkField FlowModel::make_link_field(int link_id,
                                                bool forward) const {
  const auto& link = topo_->links()[link_id];
  LinkField f;
  f.bg = forward ? link.bg_fwd : link.bg_rev;
  f.delay_ms = link.delay_ms;
  f.capacity_bps = link.capacity_bps;
  f.pkt_ms = 1500.0 * 8.0 / link.capacity_bps * 1e3;
  f.stream = sim::hash_combine(
      seed_, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(link_id)) << 1) |
                 (forward ? 1u : 0u));
  f.epoch_ns = std::max<std::int64_t>(f.bg.epoch.ns(), 1);
  // AR(1) truncation (see ar1_sum): the smallest J with a^J <= 1e-3, capped
  // to keep the cost bounded, and the weight norm that rescales the
  // truncated sum to the stationary variance.
  f.a = std::clamp(1.0 - f.bg.theta, 0.0, 0.999);
  f.horizon = 1;
  if (f.a > 1e-3) {
    f.horizon = std::min(64, static_cast<int>(std::ceil(-6.907755 / std::log(f.a))));
  }
  double w = 1.0, w2_sum = 0.0;
  for (int j = 0; j < f.horizon; ++j) {
    w2_sum += w * w;
    w *= f.a;
  }
  f.stationary_sd = f.bg.sigma / std::sqrt(std::max(1e-9, 1.0 - f.a * f.a));
  f.sqrt_w2 = std::sqrt(w2_sum);
  for (const auto& ev : topo_->events()) {
    if (ev.link_id == link_id && ev.forward == forward) f.events.push_back(ev);
  }
  return f;
}

double FlowModel::utilization(int link_id, bool forward, Time t) const {
  const LinkField f = make_link_field(link_id, forward);
  return field_utilization(f, ar1_sum(f, t), t);
}

FlowModel::LinkEval FlowModel::eval_field(const LinkField& f, double acc,
                                          Time t) {
  const double u = field_utilization(f, acc, t);
  LinkEval e;
  // Gray-failure loss events compose multiplicatively onto the survival
  // factor; with no active event the operation sequence is unchanged, so
  // event-free samples keep their exact bits.
  e.one_minus_loss = 1.0 - net::loss_from_utilization(f.bg, u);
  for (const auto& ev : f.events) {
    if (ev.loss_boost != 0.0 && t >= ev.from && t < ev.until) {
      e.one_minus_loss *= (1.0 - ev.loss_boost);
    }
  }
  e.delay_ms = f.delay_ms;
  // Light cross-traffic queueing (M/M/1-ish, negligible except when hot).
  e.queue_ms = std::min(5.0, u / std::max(0.02, 1.0 - u) * f.pkt_ms);
  e.residual_bps = f.capacity_bps * (1.0 - u);
  return e;
}

std::shared_ptr<const FlowModel::PathAggregates> FlowModel::build_aggregates(
    const topo::PathRef& path) const {
  auto agg = std::make_shared<PathAggregates>();
  agg->path = path;
  agg->hop_count = static_cast<int>(path->routers.size());
  agg->links.reserve(path->traversals.size());
  for (const auto& trav : path->traversals) {
    LinkField f = make_link_field(trav.link_id, trav.forward);
    agg->min_capacity_bps = std::min(agg->min_capacity_bps, f.capacity_bps);
    agg->links.push_back(std::move(f));
  }
  return agg;
}

std::shared_ptr<const FlowModel::PathAggregates> FlowModel::aggregates(
    const topo::PathRef& path) const {
  const std::uint64_t epoch = topo_->mutation_epoch();
  {
    std::shared_lock<std::shared_mutex> lk(agg_mu_);
    if (agg_epoch_ == epoch) {
      auto it = agg_cache_.find(path.get());
      if (it != agg_cache_.end()) return it->second;
    }
  }
  // Build outside the lock; the first insert wins on a race (identical
  // aggregates either way — they are a pure function of path and epoch).
  auto agg = build_aggregates(path);
  std::unique_lock<std::shared_mutex> lk(agg_mu_);
  if (agg_epoch_ != epoch) {
    agg_cache_.clear();
    agg_epoch_ = epoch;
  }
  return agg_cache_.emplace(path.get(), std::move(agg)).first->second;
}

FlowModel::LinkEval FlowModel::memo_eval(const LinkField& f, Time t) const {
  const std::uint64_t epoch = topo_->mutation_epoch();
  FieldMemoEntry& memo = field_memo()[f.stream];
  if (memo.model != model_tag_ || memo.epoch != epoch || memo.t_ns != t.ns()) {
    memo.model = model_tag_;
    memo.epoch = epoch;
    memo.t_ns = t.ns();
    memo.eval = eval_field(f, ar1_sum(f, t), t);
  }
  return memo.eval;
}

PathMetrics FlowModel::sample(const topo::PathRef& path, Time t) const {
  const auto agg = aggregates(path);
  PathAccumulator acc;
  for (const LinkField& f : agg->links) acc.add(memo_eval(f, t));
  return acc.finish(agg->min_capacity_bps, agg->hop_count);
}

PathMetrics FlowModel::concat(const PathMetrics& a, const PathMetrics& b) {
  PathMetrics m;
  m.rtt_ms = a.rtt_ms + b.rtt_ms;
  m.loss = 1.0 - (1.0 - a.loss) * (1.0 - b.loss);
  m.residual_bps = std::min(a.residual_bps, b.residual_bps);
  m.capacity_bps = std::min(a.capacity_bps, b.capacity_bps);
  m.hop_count = a.hop_count + b.hop_count;
  m.rwnd_bytes = b.rwnd_bytes > 0 ? b.rwnd_bytes : a.rwnd_bytes;
  return m;
}

double FlowModel::noisy_tcp(double pftk_bps, const PathMetrics& m,
                            sim::DrawStream& draws) const {
  double t = pftk_bps;
  // When the flow saturates the residual capacity it also builds queue;
  // throughput clips slightly below the residual rate.
  const double cap = std::min(m.residual_bps, m.capacity_bps);
  if (t > 0.92 * cap) t = cap * draws.uniform(0.88, 0.96);
  return t * std::exp(draws.normal(0.0, params_.noise_sigma));
}

double FlowModel::tcp_throughput(const PathMetrics& m,
                                 sim::DrawStream& draws) const {
  TcpModelParams p = params_;
  if (m.rwnd_bytes > 0) p.rwnd_bytes = m.rwnd_bytes;
  return noisy_tcp(
      pftk_throughput_bps(m.rtt_ms, m.loss, m.residual_bps, m.capacity_bps, p),
      m, draws);
}

double FlowModel::overlay_plain(const PathMetrics& leg1, const PathMetrics& leg2,
                                sim::DrawStream& draws) const {
  return tcp_throughput(concat(leg1, leg2), draws);
}

double FlowModel::overlay_split(const PathMetrics& leg1, const PathMetrics& leg2,
                                sim::DrawStream& draws) const {
  return overlay_split(leg1, leg2, draws, nullptr, nullptr);
}

double FlowModel::overlay_split(const PathMetrics& leg1, const PathMetrics& leg2,
                                sim::DrawStream& draws, double* leg1_bps,
                                double* leg2_bps) const {
  // Each leg runs its own TCP; the proxy relays with ample buffer. A small
  // efficiency haircut models the proxy's buffer coupling.
  const double t1 = tcp_throughput(leg1, draws);
  const double t2 = tcp_throughput(leg2, draws);
  if (leg1_bps != nullptr) *leg1_bps = t1;
  if (leg2_bps != nullptr) *leg2_bps = t2;
  return 0.97 * std::min(t1, t2);
}

double FlowModel::discrete(const PathMetrics& leg1, const PathMetrics& leg2,
                           sim::DrawStream& draws) const {
  // Draw-order contract: leg 2's draws come first, then leg 1's.
  // ModelMeasurement::measure_batch replays this sequence.
  const double t2 = tcp_throughput(leg2, draws);
  const double t1 = tcp_throughput(leg1, draws);
  return std::min(t1, t2);
}

double FlowModel::mptcp_coupled(const std::vector<double>& per_path_tput,
                                sim::DrawStream& draws) const {
  double best = 0.0;
  for (double t : per_path_tput) best = std::max(best, t);
  // OLIA converges to (roughly) the best path; small shortfall/overshoot
  // from probing the other subflows.
  return best * draws.uniform(0.92, 1.04);
}

double FlowModel::mptcp_uncoupled(const std::vector<double>& per_path_tput,
                                  double nic_bps, sim::DrawStream& draws) const {
  double sum = 0.0;
  for (double t : per_path_tput) sum += t;
  return std::min(sum * draws.uniform(0.95, 1.0), nic_bps * 0.97);
}

}  // namespace cronets::model
