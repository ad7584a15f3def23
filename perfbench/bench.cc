// The repository benchmark: runs one named workload from a workload seed
// with every CRONETS_* knob pinned, checks the outputs, and prints one JSON
// line of metrics. Each layer is timed from outside, around calls into its
// public functions (see tracer.h); no library code is instrumented.
//
//   cronets_perfbench --workload churn|sweep|reroute --seed N
//                     --seconds S --trace 0|1 [--spans FILE]
//   cronets_perfbench --selftest
//
// A run repeats one episode until `--seconds` of wall time have passed.
// An episode builds a fresh world from the seed (set-up), then runs the
// workload's fixed amount of simulated work (the timed loop), so every
// episode of a run does identical work and must end in identical
// fingerprints. With `--trace 1`, even episodes from 2 are traced and odd
// ones are not: their fingerprints must match and their loop CPU times
// give the tracing overhead.
//
// Workloads (perfbench/README.md maps each metric to its layer):
//  - churn:   sharded broker under session churn at a few hundred
//             thousand concurrent sessions, one mid-run transit failure;
//             admission, release, event queue and probe ticks.
//  - sweep:   repeated measure_batch sweeps of a large client population
//             x 10 mirrors x every DC overlay; the measurement engine alone.
//  - reroute: sharded broker + multi-hop routing plane on a many-DC
//             pathological backbone, min_cost_meeting_slo, dense chaos;
//             the invalidation and failover writes the other two skip.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chaos/injector.h"
#include "chaos/scenario.h"
#include "core/measure_model.h"
#include "econ/pricing_book.h"
#include "model/batch_sampler.h"
#include "route/plane.h"
#include "service/sharded_broker.h"
#include "sim/hash_rng.h"
#include "tracer.h"
#include "wkld/session_churn.h"
#include "wkld/world.h"

extern char** environ;

using namespace cronets;
using perfbench::Scoped;
using perfbench::Span;
using perfbench::Tracer;
using perfbench::now_ns;

namespace {

constexpr int kShards = 4;
constexpr int kMaxThreads = 4;
/// Set-up-only repetitions before the episodes; the first is dropped.
constexpr int kSetups = 12;
constexpr std::uint64_t kRerouteWorld = 42;

// ---------------------------------------------------------------- knobs --

/// One core is left to the rest of the machine, so a pool thread is not
/// descheduled mid-batch whenever anything else on the host runs.
int pool_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw - 1, 1, kMaxThreads);
}

/// Drop every inherited CRONETS_* variable and pin the ones the library
/// reads on the paths the workloads take, so a run never depends on the
/// caller's environment. The ranking, route and cost knobs are set in code
/// below; only their `from_env` helpers read the environment, and those are
/// never called.
void pin_knobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CRONETS_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
  const std::string threads = std::to_string(pool_threads());
  const std::pair<const char*, const char*> pinned[] = {
      {"CRONETS_THREADS", threads.c_str()},
      {"CRONETS_BATCH", "64"},
      {"CRONETS_SIMD", "auto"},
  };
  for (const auto& [k, v] : pinned) setenv(k, v, 1);
}

// The end-to-end timings other than the sampled admissions are CPU time,
// not wall time. On a shared host a thread's wall time adds whatever time
// it spent descheduled or its virtual CPU spent stolen by the hypervisor,
// and that moved the sweep's loop by a third from one run to the next; its
// CPU time moved by a few percent.

std::int64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of the calling thread, for a call that runs on one thread.
std::int64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of the whole process, every thread summed, for a phase that
/// fans out over the pool.
std::int64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// Wall and process CPU time of one phase.
struct Stopwatch {
  std::int64_t wall0 = now_ns();
  std::int64_t cpu0 = process_cpu_ns();
  double wall_s() const { return static_cast<double>(now_ns() - wall0) / 1e9; }
  double cpu_s() const {
    return static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  }
};

// -------------------------------------------------------------- hashing --

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return sim::hash_combine(h, v);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(h, bits);
}

std::uint64_t mix_endpoints(std::uint64_t h, const topo::Internet& net,
                            const std::vector<int>& eps) {
  for (int ep : eps) {
    const auto& e = net.endpoint(ep);
    h = mix(h, static_cast<std::uint64_t>(e.as_id));
    h = mix(h, static_cast<std::uint64_t>(e.region));
    h = mix(h, static_cast<std::uint64_t>(e.rcv_buf));
  }
  return h;
}

std::uint64_t mix_sample(std::uint64_t h, const core::PairSample& s) {
  h = mix(h, static_cast<std::uint64_t>(s.src));
  h = mix(h, static_cast<std::uint64_t>(s.dst));
  h = mix_double(h, s.direct_bps);
  h = mix_double(h, s.direct_rtt_ms);
  h = mix_double(h, s.direct_loss);
  h = mix(h, static_cast<std::uint64_t>(s.direct_hops));
  for (const auto& o : s.overlays) {
    h = mix(h, static_cast<std::uint64_t>(o.overlay_ep));
    h = mix_double(h, o.plain_bps);
    h = mix_double(h, o.split_bps);
    h = mix_double(h, o.discrete_bps);
    h = mix_double(h, o.leg1_bps);
    h = mix_double(h, o.leg2_bps);
    h = mix_double(h, o.rtt_ms);
    h = mix_double(h, o.loss);
  }
  return h;
}

// -------------------------------------------------------------- results --

/// Everything one episode produced. Fingerprints and counts are pure
/// functions of the seed; the walls and samples are measurements.
struct Episode {
  bool traced = false;
  double rss_mb = 0.0;  ///< process peak RSS when the episode ended
  double setup_s = 0.0;      ///< set-up wall
  double setup_cpu_s = 0.0;  ///< set-up process CPU time
  double loop_s = 0.0;       ///< timed loop wall
  double loop_cpu_s = 0.0;   ///< timed loop process CPU time
  double warm_up_s = 0.0;
  std::uint64_t ops = 0;         ///< admissions, or pairs measured
  std::vector<double> op_us;     ///< sampled per-operation time
  std::vector<double> round_ms;  ///< per control round CPU time

  std::uint64_t inputs_fp = 0;
  std::uint64_t decision_fp = 0;
  std::uint64_t cost_fp = 0;
  std::uint64_t table_fp = 0;
  std::uint64_t sweep_fp = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Layer counters, read through public accessors after the loop.
  std::uint64_t probe_ticks = 0;
  std::uint64_t sweep_pairs_touched = 0;
  std::uint64_t failover_repins = 0;
  std::uint64_t overlay_denied = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t slo_total = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t route_rounds = 0;
  std::uint64_t edges_probed = 0;
  std::uint64_t entries_recomputed = 0;
  std::uint64_t deltas = 0;
  std::uint64_t flaps = 0;
  std::uint64_t faults_begun = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
};

/// Workload size. A factor below 1 shrinks the populations, session
/// targets, DC count and sweep count for the self-tests; the benchmark
/// always runs at 1.
struct Scale {
  double f = 1.0;
  int at_least(double full, int floor) const {
    return std::max(floor, static_cast<int>(std::lround(full * f)));
  }
};

// ------------------------------------------------------- the wrapper --

/// Forwarding ControlPlane around the sharded broker: the workload drives
/// this instead of the broker, so every register/open/close/run_until call
/// is timed at the boundary. With no tracer it only forwards.
class TimedPlane final : public service::ControlPlane {
 public:
  TimedPlane(service::ControlPlane* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  int register_pair(int src, int dst) override {
    Scoped s(tracer_, Span::kRegisterPair);
    return inner_->register_pair(src, dst);
  }
  std::uint64_t open_session(int pair_idx, double demand_bps) override {
    Scoped s(tracer_, Span::kOpenSession);
    return inner_->open_session(pair_idx, demand_bps);
  }
  void close_session(std::uint64_t id) override {
    Scoped s(tracer_, Span::kCloseSession);
    inner_->close_session(id);
  }
  void run_until(sim::Time t) override {
    Scoped s(tracer_, Span::kRunUntil);
    inner_->run_until(t);
  }
  sim::Time now() const override { return inner_->now(); }
  sim::EventQueue& queue() override { return inner_->queue(); }
  sim::Time pair_last_probe(int pair_idx) const override {
    return inner_->pair_last_probe(pair_idx);
  }

 private:
  service::ControlPlane* inner_;
  Tracer* tracer_;
};

/// Knobs of one episode that are not the workload: tracing, and whether
/// the workload drives the wrapper or the broker directly (self-test).
struct Drive {
  Tracer* tracer = nullptr;
  bool wrap = true;
  bool setup_only = false;  ///< return right after set-up
  Scale scale;
};

// ----------------------------------------------------- shared checks --

/// Sharded NIC and cost books must sum to the global ledgers.
void check_books(const service::ShardedBroker& broker, Episode* ep) {
  const auto close_rel = [](double a, double b) {
    return std::abs(a - b) <=
           1e-9 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
  };
  const auto st = broker.stats();
  double nic = 0.0;
  for (const auto& ss : st.shards) nic += ss.nic_used_bps;
  ep->check(close_rel(nic, broker.global_nic().total_used_bps()),
            "per-shard NIC books do not sum to the global ledger");
  double usd = 0.0, gb = 0.0;
  for (int s = 0; s < broker.num_shards(); ++s) {
    usd += broker.shard_sessions(s).billing().total_usd();
    gb += broker.shard_sessions(s).billing().delivered_gb();
  }
  ep->check(close_rel(usd, broker.global_billing().total_usd()) &&
                close_rel(gb, broker.global_billing().delivered_gb()),
            "per-shard cost books do not sum to the global ledger");
}

void read_broker_counters(const service::ShardedBroker& broker, Episode* ep) {
  const auto st = broker.stats();
  ep->ops = st.sessions_admitted;
  ep->probe_ticks = st.probe_ticks;
  ep->sweep_pairs_touched = st.sweep_pairs_touched;
  ep->failover_repins = st.failover_repins;
  for (const auto& ss : st.shards) ep->overlay_denied += ss.overlay_denied;
  ep->slo_met = st.slo_met;
  ep->slo_total = st.slo_total;
  ep->decision_fp = st.decision_fingerprint;
  ep->cost_fp = broker.global_billing().fingerprint();
}

void read_cache_counters(topo::Internet& net, Episode* ep) {
  ep->cache_hits = net.path_cache().hits();
  ep->cache_misses = net.path_cache().misses();
}

void take_latency(const wkld::SessionChurn& churn, Episode* ep) {
  for (const std::uint32_t ns : churn.stats().admit_wall_ns) {
    ep->op_us.push_back(static_cast<double>(ns) / 1e3);
  }
}

/// Run the control plane to `horizon` one round at a time, timing each.
void run_rounds(service::ControlPlane* cp, sim::Time round, sim::Time horizon,
                Episode* ep) {
  for (sim::Time t = round; t <= horizon; t += round) {
    const std::int64_t cpu0 = process_cpu_ns();
    cp->run_until(t);
    ep->round_ms.push_back(static_cast<double>(process_cpu_ns() - cpu0) / 1e6);
  }
}

// --------------------------------------------------------------- churn --

Episode run_churn(std::uint64_t seed, const Drive& d) {
  Episode ep;
  Tracer* tr = d.tracer;
  const Stopwatch setup;
  const int setup_token = tr ? tr->open(Span::kSetup) : -1;

  const std::uint64_t world_seed = sim::splitmix64(seed);
  wkld::World world(world_seed, topo::TopologyParams{}, topo::CloudParams{},
                    sim::Parallelism{pool_threads()});
  auto& net = world.internet();
  const auto clients = world.make_web_clients(d.scale.at_least(120, 6));
  const auto servers = world.make_servers();
  const auto overlays = world.rent_paper_overlays();

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(20);
  cfg.probe.tick = sim::Time::seconds(1);
  const std::size_t pairs = clients.size() * servers.size();
  cfg.probe.budget_per_tick = static_cast<int>((pairs + 19) / 20);
  cfg.failover_delay = sim::Time::seconds(1);
  const econ::PricingBook book;
  cfg.ranking.econ.pricing = &book;
  cfg.ranking.econ.policy = econ::CostPolicy::kPerformance;
  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                kShards, cfg);
  TimedPlane timed(&broker, tr);
  service::ControlPlane* cp = d.wrap ? static_cast<service::ControlPlane*>(&timed)
                                     : &broker;

  wkld::SessionChurnParams cp_params;
  cp_params.seed = sim::splitmix64(seed ^ 0xc0ffeeull);
  cp_params.target_concurrent = 200'000.0 * d.scale.f;
  cp_params.mean_duration_s = 30.0;
  cp_params.horizon = sim::Time::seconds(90);
  cp_params.record_latency = true;
  cp_params.latency_sample_every = 8;
  wkld::SessionChurn churn(cp, clients, servers, cp_params);
  churn.start();
  {
    const std::int64_t w0 = now_ns();
    Scoped s(tr, Span::kWarmUp);
    broker.warm_up();
    ep.warm_up_s = static_cast<double>(now_ns() - w0) / 1e9;
  }

  ep.inputs_fp = mix(mix(world_seed, cp_params.seed),
                     static_cast<std::uint64_t>(cp_params.target_concurrent));
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, clients);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, servers);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, overlays);

  // Fail the busiest transit adjacency mid-run; one failover delay later
  // no session may still cross it.
  const sim::Time t_fail = cp_params.horizon / 2;
  int fail_a = -1, fail_b = -1, crossing_before = 0, crossing_after = -1;
  broker.queue().schedule(t_fail, [&] {
    if (!broker.busiest_transit_adjacency(&fail_a, &fail_b)) return;
    crossing_before = broker.sessions_traversing(fail_a, fail_b);
    net.set_adjacency_up(fail_a, fail_b, false);
  });
  broker.queue().schedule(
      t_fail + cfg.failover_delay + sim::Time::milliseconds(1), [&] {
        if (fail_a >= 0) {
          crossing_after = broker.sessions_traversing(fail_a, fail_b);
        }
      });
  if (tr) tr->close(setup_token);
  ep.setup_s = setup.wall_s();
  ep.setup_cpu_s = setup.cpu_s();
  if (d.setup_only) return ep;

  const Stopwatch loop;
  {
    Scoped episode(tr, Span::kEpisode);
    run_rounds(cp, cfg.probe.tick, cp_params.horizon, &ep);
    Scoped s(tr, Span::kSettleBilling);
    broker.settle_billing();
  }
  ep.loop_s = loop.wall_s();
  ep.loop_cpu_s = loop.cpu_s();

  read_cache_counters(net, &ep);
  read_broker_counters(broker, &ep);
  take_latency(churn, &ep);
  check_books(broker, &ep);
  ep.check(fail_a >= 0, "no transit adjacency carried sessions to fail");
  // Every session that crossed the failed adjacency is one operation the
  // failover had to move; each one still crossing it failed.
  ep.attempted += static_cast<std::uint64_t>(crossing_before);
  if (crossing_after != 0) {
    ep.failed += static_cast<std::uint64_t>(std::max(1, crossing_after));
    ep.errors.push_back("sessions still cross the failed adjacency after "
                        "the failover delay");
  }
  ep.attempted += ep.ops;
  return ep;
}

// --------------------------------------------------------------- sweep --

/// Per-thread kernel-only state for the traced sweep: a sampler of this
/// thread's own and the handles it interned for each batch.
struct KernelScratch {
  std::uint64_t flow_tag = 0;  ///< FlowModel::instance_tag it was built for
  std::unique_ptr<model::BatchSampler> sampler;
  std::unordered_map<std::size_t, std::vector<int>> handles;  ///< per batch
  std::vector<model::PathMetrics> out;
};

int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

Episode run_sweep(std::uint64_t seed, const Drive& d) {
  Episode ep;
  Tracer* tr = d.tracer;
  const Stopwatch setup;
  const int setup_token = tr ? tr->open(Span::kSetup) : -1;

  const std::uint64_t world_seed = sim::splitmix64(seed);
  wkld::World world(world_seed, topo::TopologyParams{}, topo::CloudParams{},
                    sim::Parallelism{pool_threads()});
  auto& net = world.internet();
  const auto clients = world.make_web_clients(d.scale.at_least(2000, 20));
  const auto servers = world.make_servers();
  const auto overlays = world.rent_all_overlays();
  const core::ModelMeasurement& meter = world.meter();
  sim::ThreadPool& pool = world.pool();

  std::vector<core::ProbeRequest> reqs;
  reqs.reserve(clients.size() * servers.size());
  for (int c : clients) {
    for (int s : servers) reqs.push_back({c, s, &overlays});
  }
  const std::size_t n = reqs.size();
  const auto batch = static_cast<std::size_t>(core::probe_batch_size());
  const std::size_t nbatches = (n + batch - 1) / batch;
  std::vector<core::PairSample> out(n);
  std::vector<std::int64_t> batch_t0(nbatches), batch_t1(nbatches);
  std::vector<std::int64_t> batch_cpu(nbatches);
  std::vector<int> batch_thread(nbatches);
  // Hand the batches' spans, timed on pool threads, to the open span.
  const auto hand_over = [&](Span name) {
    std::vector<perfbench::SpanRecord> spans(nbatches);
    for (std::size_t b = 0; b < nbatches; ++b) {
      spans[b].start_ns = batch_t0[b];
      spans[b].end_ns = batch_t1[b];
      spans[b].name = name;
      spans[b].thread = static_cast<std::uint8_t>(batch_thread[b]);
    }
    tr->add_parallel(spans);
  };

  // `traced` is false for the warm-up sweep, so the measure_batch layer
  // counts only the timed loop.
  const auto sweep = [&](sim::Time t, bool traced) {
    pool.parallel_for(nbatches, [&](std::size_t b) {
      const std::size_t lo = b * batch;
      const std::size_t len = std::min(batch, n - lo);
      const std::int64_t cpu0 = thread_cpu_ns();
      batch_t0[b] = now_ns();
      meter.measure_batch(reqs.data() + lo, len, t, out.data() + lo);
      batch_t1[b] = now_ns();
      batch_cpu[b] = thread_cpu_ns() - cpu0;
      batch_thread[b] = thread_slot();
    });
    if (tr != nullptr && traced) hand_over(Span::kMeasureBatch);
  };

  // Warm-up: one cold sweep interns every path and per-pair plan.
  {
    const std::int64_t w0 = now_ns();
    Scoped s(tr, Span::kWarmUp);
    sweep(sim::Time::zero(), false);
    ep.warm_up_s = static_cast<double>(now_ns() - w0) / 1e9;
  }
  ep.inputs_fp = mix(world_seed, n);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, clients);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, servers);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, overlays);
  if (tr) tr->close(setup_token);
  ep.setup_s = setup.wall_s();
  ep.setup_cpu_s = setup.cpu_s();
  if (d.setup_only) return ep;
  const std::uint64_t hits0 = net.path_cache().hits();
  const std::uint64_t misses0 = net.path_cache().misses();

  // Sweeps at advancing simulated times. Every 97th pair (offset by the
  // sweep index) is kept for the scalar-reference check after the loop.
  const int sweeps = d.scale.at_least(24, 3);
  const sim::Time step = sim::Time::seconds(15);
  struct Kept {
    sim::Time t;
    std::size_t idx;
    core::PairSample sample;
  };
  std::vector<Kept> kept;
  std::uint64_t fp = 0;
  for (int k = 1; k <= sweeps; ++k) {
    const sim::Time t = step * k;
    const Stopwatch round;
    {
      Scoped s(tr, Span::kSweep);
      sweep(t, true);
    }
    const double cpu_s = round.cpu_s();
    ep.loop_s += round.wall_s();
    ep.loop_cpu_s += cpu_s;
    ep.round_ms.push_back(cpu_s * 1e3);
    for (std::size_t b = 0; b < nbatches; ++b) {
      ep.op_us.push_back(static_cast<double>(batch_cpu[b]) / 1e3);
    }
    // Outside the timed region: fold the sweep into the fingerprint and
    // keep the sampled subset.
    for (std::size_t i = 0; i < n; ++i) fp = mix_sample(fp, out[i]);
    for (std::size_t i = static_cast<std::size_t>(k) % 97; i < n; i += 97) {
      kept.push_back({t, i, out[i]});
    }
  }
  ep.ops = static_cast<std::uint64_t>(sweeps) * n;
  ep.sweep_fp = fp;
  ep.cache_hits = net.path_cache().hits() - hits0;
  ep.cache_misses = net.path_cache().misses() - misses0;

  // Kernel-only pass (traced episodes): sample_batch over the same
  // interned paths the sweeps measured, at the same times, without the
  // PFTK and per-pair draw layers above it.
  if (tr != nullptr) {
    for (int k = 1; k <= sweeps; ++k) {
      const sim::Time t = step * k;
      pool.parallel_for(nbatches, [&](std::size_t b) {
        thread_local KernelScratch ks;
        if (ks.flow_tag != world.flow().instance_tag()) {
          ks = KernelScratch{};
          ks.flow_tag = world.flow().instance_tag();
          ks.sampler = std::make_unique<model::BatchSampler>(&world.flow());
        }
        if (ks.sampler->begin_batch()) ks.handles.clear();
        auto& h = ks.handles[b];
        if (h.empty()) {
          const std::size_t lo = b * batch;
          for (std::size_t i = lo; i < std::min(lo + batch, n); ++i) {
            const int src = reqs[i].src, dst = reqs[i].dst;
            h.push_back(ks.sampler->intern(net.cached_path(src, dst)));
            for (int o : overlays) {
              if (o == src || o == dst) continue;
              h.push_back(ks.sampler->intern(net.cached_path(src, o)));
              h.push_back(ks.sampler->intern(net.cached_path(o, dst)));
            }
          }
        }
        ks.out.resize(h.size());
        batch_t0[b] = now_ns();
        ks.sampler->sample_batch(h.data(), h.size(), t, ks.out.data());
        batch_t1[b] = now_ns();
        batch_thread[b] = thread_slot();
      });
      hand_over(Span::kSampleBatch);
    }
  }

  // A measured pair fails when its batched sample breaks the scalar
  // reference bit for bit.
  std::uint64_t broken = 0;
  for (const Kept& k : kept) {
    const core::PairSample ref = meter.measure(
        reqs[k.idx].src, reqs[k.idx].dst, overlays, k.t);
    if (mix_sample(0, ref) != mix_sample(0, k.sample)) ++broken;
  }
  ep.attempted += ep.ops;
  if (broken > 0) {
    ep.failed += broken;
    ep.errors.push_back(std::to_string(broken) +
                        " sampled pairs: measure_batch != scalar measure");
  }
  return ep;
}

// ------------------------------------------------------------- reroute --

/// Long AS-level detours and a congestion-ridden core, as in the routing
/// bench: bad enough public legs that k-hop chains win.
topo::TopologyParams pathological_topology() {
  topo::TopologyParams tp;
  tp.core_severe_fraction = 0.10;
  tp.core_hot_fraction = 0.18;
  tp.detour_mu = 0.55;
  tp.detour_sigma = 0.55;
  return tp;
}

/// A synthetic n-DC cloud on deterministic positions whose backbone fiber
/// detours up to 3x the great circle, so the mesh violates the triangle
/// inequality and the plane's rounds have real work.
topo::CloudParams many_dc_cloud(int n) {
  topo::CloudParams cp;
  cp.dcs.clear();
  for (int i = 0; i < n; ++i) {
    const double lat = -60.0 + 120.0 * static_cast<double>((i * 37) % n) / n;
    const double lon = -180.0 + 360.0 * static_cast<double>(i) / n;
    cp.dcs.push_back({"d" + std::to_string(i), {lat, lon}});
  }
  cp.backbone_detour_lo = 1.0;
  cp.backbone_detour_hi = 3.0;
  return cp;
}

/// Marks every fault in the trace and, for hard faults, schedules the
/// check that no live session still crosses a failed adjacency one
/// failover delay after it failed.
class FaultMarks final : public chaos::FaultObserver {
 public:
  FaultMarks(service::ShardedBroker* broker, sim::Time delay, Tracer* tr,
             Episode* ep)
      : broker_(broker), delay_(delay), tr_(tr), ep_(ep) {}

  void on_fault_begin(const chaos::Fault& f, sim::Time t) override {
    if (tr_) tr_->mark(Span::kFault);
    ++ep_->faults_begun;
    if (!f.hard()) return;
    std::vector<std::pair<int, int>> adjs = f.downed;
    if (f.kind == chaos::FaultKind::kLinkFlap) adjs = {{f.as_a, f.as_b}};
    broker_->queue().schedule(
        t + delay_ + sim::Time::milliseconds(1), [this, adjs] {
          ep_->attempted += broker_->active_sessions();
          int crossing = 0;
          for (const auto& [a, b] : adjs) {
            crossing += broker_->sessions_traversing(a, b);
          }
          if (crossing > 0) {
            ep_->failed += static_cast<std::uint64_t>(crossing);
            ep_->errors.push_back(std::to_string(crossing) +
                                  " sessions still cross a failed adjacency "
                                  "after the failover delay");
          }
        });
  }

 private:
  service::ShardedBroker* broker_;
  sim::Time delay_;
  Tracer* tr_;
  Episode* ep_;
};

/// Schedule routing rounds on the broker's queue every `interval` up to
/// `horizon`, timing each step in thread CPU time (a step runs on the
/// driving thread alone).
void schedule_rounds(sim::EventQueue* q, route::RoutePlane* plane,
                     sim::Time t, sim::Time interval, sim::Time horizon,
                     Tracer* tr, Episode* ep) {
  if (t > horizon) return;
  q->schedule(t, [=] {
    const std::int64_t cpu0 = thread_cpu_ns();
    {
      Scoped s(tr, Span::kRouteStep);
      plane->step(t);
    }
    ep->round_ms.push_back(static_cast<double>(thread_cpu_ns() - cpu0) / 1e6);
    schedule_rounds(q, plane, t + interval, interval, horizon, tr, ep);
  });
}

Episode run_reroute(std::uint64_t seed, const Drive& d) {
  Episode ep;
  Tracer* tr = d.tracer;
  const Stopwatch setup;
  const int setup_token = tr ? tr->open(Span::kSetup) : -1;

  // The network under test is one fixed many-DC world with one fixed fault
  // scenario; the seed draws the session stream on it. With a world drawn
  // per seed, the admission median moved by up to a quarter between seeds,
  // and with a scenario drawn per seed, by up to a half.
  const std::uint64_t world_seed = kRerouteWorld;
  const int dcs = d.scale.at_least(16, 6);
  wkld::World world(world_seed, pathological_topology(), many_dc_cloud(dcs),
                    sim::Parallelism{pool_threads()});
  auto& net = world.internet();
  const auto clients = world.make_web_clients(d.scale.at_least(24, 4));
  const auto servers = world.make_servers();
  // Every plane node must be a rented overlay: sessions reserve NIC
  // capacity on each DC of their via chain.
  const auto overlays = world.rent_all_overlays();

  const sim::Time horizon = sim::Time::seconds(90);
  route::RouteConfig rcfg;
  rcfg.policy = route::Policy::kDelay;
  rcfg.round_interval = sim::Time::milliseconds(250);
  rcfg.incremental = true;
  route::RoutePlane plane(&net, &world.flow(), world_seed, rcfg);
  // The broker attaches an unattached plane to its own queue; park the
  // plane on a queue that never runs so the benchmark can schedule (and
  // time) every step itself on the broker's queue instead.
  sim::EventQueue parked;
  plane.attach(&parked, sim::Time::zero());

  service::BrokerConfig cfg;
  cfg.probe.interval = sim::Time::seconds(20);
  cfg.probe.tick = sim::Time::seconds(1);
  const std::size_t pairs = clients.size() * servers.size();
  cfg.probe.budget_per_tick = static_cast<int>((pairs + 19) / 20);
  cfg.failover_delay = sim::Time::seconds(1);
  cfg.ranking.route_plane = &plane;
  // 1 Gbps VM NICs: with the 100 Mbps default the fleet saturates, and
  // admission cost then hinges on how far down each seed's saturated
  // candidate lists the walk goes, not on the code under test.
  cfg.nic_capacity_bps = 1e9;
  const econ::PricingBook book;
  cfg.ranking.econ.pricing = &book;
  cfg.ranking.econ.policy = econ::CostPolicy::kMinCostMeetingSlo;
  service::ShardedBroker broker(&net, &world.meter(), &world.pool(), overlays,
                                kShards, cfg);
  TimedPlane timed(&broker, tr);
  service::ControlPlane* cp = d.wrap ? static_cast<service::ControlPlane*>(&timed)
                                     : &broker;
  schedule_rounds(&broker.queue(), &plane, sim::Time::zero(),
                  rcfg.round_interval, horizon, tr, &ep);

  wkld::SessionChurnParams cp_params;
  cp_params.seed = sim::splitmix64(seed ^ 0x90f7e5ull);
  cp_params.target_concurrent = 3000.0 * d.scale.f;
  cp_params.mean_duration_s = 30.0;
  cp_params.horizon = horizon;
  cp_params.record_latency = true;
  wkld::SessionChurn churn(cp, clients, servers, cp_params);

  chaos::ScenarioParams sp;
  sp.horizon = horizon;
  sp.link_flaps = 8;
  sp.dc_outages = 2;
  sp.congestion_storms = 6;
  sp.gray_failures = 6;
  sp.mean_repair_s = 5.0;
  sp.min_repair_s = 5.0;
  const std::uint64_t scenario_seed = sim::splitmix64(world_seed ^ 0xc7a05ull);
  const auto scenario =
      chaos::Scenario::generate(net, sp, world_seed, scenario_seed);
  FaultMarks marks(&broker, cfg.failover_delay, tr, &ep);
  chaos::Injector injector(&net, &broker.queue());
  injector.set_observer(&marks);
  injector.arm(scenario);

  churn.start();
  {
    const std::int64_t w0 = now_ns();
    Scoped s(tr, Span::kWarmUp);
    broker.warm_up();
    ep.warm_up_s = static_cast<double>(now_ns() - w0) / 1e9;
  }
  ep.inputs_fp = mix(mix(world_seed, cp_params.seed), scenario_seed);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, clients);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, servers);
  ep.inputs_fp = mix_endpoints(ep.inputs_fp, net, overlays);
  for (const auto& f : scenario.faults()) {
    ep.inputs_fp = mix(ep.inputs_fp, static_cast<std::uint64_t>(f.kind));
    ep.inputs_fp = mix(ep.inputs_fp, static_cast<std::uint64_t>(f.begin.ns()));
    ep.inputs_fp = mix(ep.inputs_fp, static_cast<std::uint64_t>(f.end.ns()));
    ep.inputs_fp = mix(ep.inputs_fp, static_cast<std::uint64_t>(f.as_a + 1));
    ep.inputs_fp = mix(ep.inputs_fp, static_cast<std::uint64_t>(f.as_b + 1));
    ep.inputs_fp = mix(ep.inputs_fp, static_cast<std::uint64_t>(f.dc + 1));
  }
  if (tr) tr->close(setup_token);
  ep.setup_s = setup.wall_s();
  ep.setup_cpu_s = setup.cpu_s();
  if (d.setup_only) return ep;

  const Stopwatch loop;
  {
    Scoped episode(tr, Span::kEpisode);
    for (sim::Time t = cfg.probe.tick; t <= horizon; t += cfg.probe.tick) {
      cp->run_until(t);
    }
    Scoped s(tr, Span::kSettleBilling);
    broker.settle_billing();
  }
  ep.loop_s = loop.wall_s();
  ep.loop_cpu_s = loop.cpu_s();

  read_cache_counters(net, &ep);
  read_broker_counters(broker, &ep);
  take_latency(churn, &ep);
  check_books(broker, &ep);
  ep.check(injector.begun() == scenario.faults().size(),
           "not every scheduled fault began");
  ep.table_fp = plane.table_fingerprint();
  ep.route_rounds = static_cast<std::uint64_t>(plane.rounds());
  ep.edges_probed = plane.graph().edges_probed_total();
  ep.entries_recomputed = plane.entries_recomputed_total();
  ep.deltas = plane.deltas_total();
  ep.flaps = static_cast<std::uint64_t>(plane.flaps());
  ep.attempted += ep.ops;
  return ep;
}

// ------------------------------------------------------------- running --

using Runner = Episode (*)(std::uint64_t, const Drive&);

Runner runner_for(const std::string& workload) {
  if (workload == "churn") return run_churn;
  if (workload == "sweep") return run_sweep;
  if (workload == "reroute") return run_reroute;
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of pooled samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool same_outputs(const Episode& a, const Episode& b) {
  return a.inputs_fp == b.inputs_fp && a.decision_fp == b.decision_fp &&
         a.cost_fp == b.cost_fp && a.table_fp == b.table_fp &&
         a.sweep_fp == b.sweep_fp && a.ops == b.ops;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::vector<Metric> end_to_end(std::span<const Episode> eps,
                               const std::vector<double>& setup) {
  std::vector<double> rate, op_us, round_ms;
  for (const Episode& e : eps) {
    rate.push_back(static_cast<double>(e.ops) / e.loop_cpu_s);
    op_us.insert(op_us.end(), e.op_us.begin(), e.op_us.end());
    round_ms.insert(round_ms.end(), e.round_ms.begin(), e.round_ms.end());
  }
  return {
      {"setup_s", median(setup), "s"},
      // Read after the first timed episode: every episode has the same
      // footprint, and later ones would add only the growing sample store.
      {"peak_rss_mb", eps.front().rss_mb, "MB"},
      {"ops_per_cpu_s", median(rate), "1/s"},
      {"op_p99_us", percentile(op_us, 0.99), "us"},
      {"round_p50_ms", percentile(round_ms, 0.50), "ms"},
      {"round_p90_ms", percentile(round_ms, 0.90), "ms"},
  };
}

/// Per-layer metrics of one traced episode (run id `run`), against the
/// untraced episode that ran just before it.
std::vector<Metric> layer_metrics(const Episode& e, const Episode& untraced,
                                  const Tracer& tr, std::uint32_t run) {
  const auto f = [](auto x) { return static_cast<double>(x); };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto T = [&](Span s) { return tr.run_totals(run, s); };
  const double loop_ns = e.loop_s * 1e9;
  double unattributed = 0.0;
  for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
    if (perfbench::is_container(static_cast<Span>(s))) {
      unattributed += f(T(static_cast<Span>(s)).self_ns);
    }
  }
  const auto open = T(Span::kOpenSession), close = T(Span::kCloseSession);
  const auto run_until = T(Span::kRunUntil), step = T(Span::kRouteStep);
  const auto measure = T(Span::kMeasureBatch), kernel = T(Span::kSampleBatch);
  const double rounds = f(e.route_rounds);
  return {
      {"trace.overhead_ratio", ratio(e.loop_cpu_s, untraced.loop_cpu_s) - 1.0,
       "share"},
      {"trace.unattributed_share", ratio(unattributed, loop_ns), "share"},
      {"trace.loop_wall_s", e.loop_s, "s"},
      {"setup.warm_up_share", ratio(e.warm_up_s, e.setup_s), "share"},
      {"service.open_session.calls", f(open.calls), "count"},
      {"service.open_session.busy_share", ratio(f(open.busy_ns), loop_ns),
       "share"},
      {"service.open_session.p50_us",
       open.calls > 0 ? percentile(e.op_us, 0.50) : 0.0, "us"},
      {"service.open_session.p99_us",
       open.calls > 0 ? percentile(e.op_us, 0.99) : 0.0, "us"},
      {"service.close_session.calls", f(close.calls), "count"},
      {"service.close_session.busy_share", ratio(f(close.busy_ns), loop_ns),
       "share"},
      {"service.run_until.calls", f(run_until.calls), "count"},
      {"service.run_until.self_share", ratio(f(run_until.self_ns), loop_ns),
       "share"},
      {"service.probe_ticks", f(e.probe_ticks), "count"},
      {"service.sweep_pairs_per_tick",
       ratio(f(e.sweep_pairs_touched), f(e.probe_ticks)), "count/round"},
      {"service.failover_repins", f(e.failover_repins), "count"},
      {"service.overlay_denied_ratio", ratio(f(e.overlay_denied), f(e.ops)),
       "share"},
      {"core.measure_batch.calls", f(measure.calls), "count"},
      {"core.measure_batch.busy_share",
       ratio(f(measure.busy_ns), loop_ns * pool_threads()), "share"},
      {"model.sample_batch.calls", f(kernel.calls), "count"},
      {"core.draw_floor_share",
       measure.busy_ns > 0
           ? 1.0 - ratio(f(kernel.busy_ns), f(measure.busy_ns))
           : 0.0,
       "share"},
      {"topo.path_cache.hits", f(e.cache_hits), "count"},
      {"topo.path_cache.misses", f(e.cache_misses), "count"},
      {"topo.path_cache.hit_ratio",
       ratio(f(e.cache_hits), f(e.cache_hits + e.cache_misses)), "share"},
      {"route.step.calls", f(step.calls), "count"},
      {"route.step.busy_share", ratio(f(step.busy_ns), loop_ns), "share"},
      {"route.edges_probed_per_round", ratio(f(e.edges_probed), rounds),
       "count/round"},
      {"route.entries_recomputed_per_round",
       ratio(f(e.entries_recomputed), rounds), "count/round"},
      {"route.deltas_per_round", ratio(f(e.deltas), rounds), "count/round"},
      {"route.flaps", f(e.flaps), "count"},
      {"econ.settle_billing.busy_share",
       ratio(f(T(Span::kSettleBilling).busy_ns), loop_ns), "share"},
      {"econ.slo_met_ratio", ratio(f(e.slo_met), f(e.slo_total)), "share"},
      {"chaos.faults_begun", f(e.faults_begun), "count"},
  };
}

/// Medians over the traced episodes (even run ids from 2).
std::vector<Metric> per_layer(const std::vector<Episode>& eps,
                              const Tracer& tr) {
  std::vector<std::vector<Metric>> traced;
  for (std::size_t r = 2; r < eps.size(); r += 2) {
    traced.push_back(layer_metrics(eps[r], eps[r - 1], tr,
                                   static_cast<std::uint32_t>(r)));
  }
  std::vector<Metric> out = traced.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& m : traced) v.push_back(m[i].value);
    out[i].value = median(v);
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
  bool selftest = false;
};

bool parse(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      o->selftest = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o->seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      o->spans = argv[++i];
    } else {
      return false;
    }
  }
  if (o->selftest) return true;
  return runner_for(o->workload) != nullptr && have_seed && o->seconds > 0.0 &&
         (o->trace == 0 || o->trace == 1);
}

// ------------------------------------------------------------ self-test --

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  Drive small;
  small.scale.f = 0.05;
  for (const char* w : {"churn", "sweep", "reroute"}) {
    const Runner run = runner_for(w);
    const std::string name = w;
    Tracer tracer;
    Drive traced = small;
    traced.tracer = &tracer;
    const Episode a = run(1, small);
    const Episode b = run(1, small);
    const Episode t = run(1, traced);
    const Episode c = run(2, small);
    expect(a.failed == 0 && b.failed == 0 && t.failed == 0 && c.failed == 0,
           name + ": every operation and check passes");
    expect(same_outputs(a, b), name + ": same seed, same inputs and outputs");
    expect(a.inputs_fp != c.inputs_fp, name + ": another seed, other inputs");
    expect(same_outputs(a, t), name + ": tracing leaves every output as is");
    if (name != "sweep") {
      Drive direct = small;
      direct.wrap = false;
      const Episode r = run(1, direct);
      expect(same_outputs(a, r),
             name + ": the ControlPlane wrapper is decision-neutral");
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload churn|sweep|reroute --seed N "
                 "--seconds S --trace 0|1 [--spans FILE] | --selftest\n",
                 argv[0]);
    return 2;
  }
  pin_knobs();
  if (opt.selftest) return selftest();

  const Runner run = runner_for(opt.workload);
  // Set-up is short next to the loop, so it is timed on its own: a fixed
  // number of set-up-only repetitions, back to back before any episode, so
  // that neither the loop nor the number of episodes that fit in `seconds`
  // moves it. The first pays the process's cold start and is dropped.
  std::vector<double> setups;
  for (int i = 0; opt.trace == 0 && i < kSetups; ++i) {
    Drive d;
    d.setup_only = true;
    const double s = run(opt.seed, d).setup_cpu_s;
    if (i > 0) setups.push_back(s);
  }

  Tracer tracer;
  std::vector<Episode> eps;
  // Episode 0 is a warm-up whose timings are dropped (it pays the first
  // page faults and lazy allocation); its checks still count. Episodes
  // stop starting once `seconds` have passed, with at least three timed
  // ones (two untraced/traced pairs when tracing), and never after 120 s.
  const std::size_t min_eps = opt.trace ? 5 : 4;
  const std::int64_t start = now_ns();
  while (true) {
    const auto id = static_cast<std::uint32_t>(eps.size());
    const bool traced = opt.trace == 1 && id > 0 && id % 2 == 0;
    tracer.set_run(id);
    Drive d;
    d.tracer = traced ? &tracer : nullptr;
    eps.push_back(run(opt.seed, d));
    eps.back().traced = traced;
    eps.back().rss_mb = peak_rss_mb();
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    std::printf("episode %u%s: setup %.3f s (CPU %.3f s), loop %.3f s "
                "(CPU %.3f s), %llu ops, "
                "fingerprints inputs %016llx decisions %016llx cost %016llx "
                "tables %016llx sweep %016llx\n",
                id, traced ? " (traced)" : id == 0 ? " (warm-up)" : "",
                eps.back().setup_s, eps.back().setup_cpu_s, eps.back().loop_s,
                eps.back().loop_cpu_s,
                static_cast<unsigned long long>(eps.back().ops),
                static_cast<unsigned long long>(eps.back().inputs_fp),
                static_cast<unsigned long long>(eps.back().decision_fp),
                static_cast<unsigned long long>(eps.back().cost_fp),
                static_cast<unsigned long long>(eps.back().table_fp),
                static_cast<unsigned long long>(eps.back().sweep_fp));
    if (elapsed > 120.0) break;
    if (eps.size() >= min_eps && elapsed >= opt.seconds &&
        (opt.trace == 0 || eps.size() % 2 == 1)) {
      break;
    }
  }
  // A host too slow to reach the minimum within 120 s gets no result.
  if (eps.size() < min_eps) {
    std::fprintf(stderr, "only %zu episodes ran in 120 s; need %zu\n",
                 eps.size(), min_eps);
    return 1;
  }
  const std::span<const Episode> timed(eps.data() + 1, eps.size() - 1);

  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    Episode& e = eps[i];
    // Every episode of a run replays the same inputs, traced or not, so
    // every fingerprint must repeat.
    e.check(same_outputs(e, eps.front()),
            "fingerprints differ from episode 0" +
                std::string(e.traced ? " (traced)" : ""));
    for (const auto& err : e.errors) {
      std::printf("FAILED episode %zu: %s\n", i, err.c_str());
    }
    attempted += e.attempted;
    failed += e.failed;
  }
  std::size_t samples = 0, rounds = 0;
  for (const Episode& e : timed) {
    samples += e.op_us.size();
    rounds += e.round_ms.size();
  }
  std::printf("%zu timed episodes, %zu operation samples, %zu round samples, "
              "%zu set-ups\n",
              timed.size(), samples, rounds, setups.size());
  if (opt.trace == 1 && !opt.spans.empty()) {
    if (tracer.write(opt.spans)) {
      std::printf("%zu spans written to %s\n", tracer.records(),
                  opt.spans.c_str());
    } else {
      std::printf("FAILED to write spans to %s\n", opt.spans.c_str());
      ++failed;
    }
  }
  print_result(failed == 0, attempted, failed,
               opt.trace == 1 ? per_layer(eps, tracer) : end_to_end(timed, setups));
  return failed == 0 ? 0 : 1;
}
