#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times from outside: each is a call
/// into one public library function, or a container the benchmark itself
/// opens around a phase of an episode.
enum class Span : std::uint8_t {
  kEpisode,        ///< container: one episode's timed run loop
  kSetup,          ///< container: world, populations, registration, warm-up
  kWarmUp,         ///< ShardedBroker::warm_up / the first (cold) sweep
  kRunUntil,       ///< ControlPlane::run_until (container of the calls below)
  kRegisterPair,   ///< ControlPlane::register_pair
  kOpenSession,    ///< ControlPlane::open_session
  kCloseSession,   ///< ControlPlane::close_session
  kRouteStep,      ///< route::RoutePlane::step
  kSettleBilling,  ///< ShardedBroker::settle_billing
  kSweep,          ///< container: one measure_batch fan-out over every pair
  kMeasureBatch,   ///< core::ModelMeasurement::measure_batch (pool threads)
  kSampleBatch,    ///< model::BatchSampler::sample_batch (pool threads)
  kFault,          ///< chaos::FaultObserver::on_fault_begin (a mark)
  kCount,
};

const char* span_name(Span s);

/// Whether a span is a container whose self time is work no timed layer
/// claims: the trace's unattributed share is their self time over the
/// episode wall.
bool is_container(Span s);

/// One finished span. `parent` indexes the enclosing span in the same
/// tracer's record list (-1 for a root); `run` is the episode id.
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t run = 0;
  Span name = Span::kEpisode;
  std::uint8_t thread = 0;
};

/// Exact per-layer totals, kept for every call whether or not its record
/// is kept.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;  ///< summed span durations
  std::int64_t self_ns = 0;  ///< durations minus time covered by children
};

/// Outside-in span recorder for one benchmark process. Spans opened on the
/// driving thread nest through a stack; spans finished on pool threads are
/// handed over by the driving thread after the fan-out returns, and their
/// parent is charged the union of their intervals (they overlap in time).
///
/// Records are kept in memory and written out once, at the end. Hot leaf
/// calls (open/close/register) keep one record in `kLeafSampleEvery`, so a
/// million-session episode does not hold a million records; their totals
/// and their parents' self times stay exact.
class Tracer {
 public:
  static constexpr std::uint64_t kLeafSampleEvery = 64;

  void set_run(std::uint32_t run) { run_ = run; }

  /// Open a span on the driving thread; returns a token for close().
  int open(Span s);
  void close(int token);
  /// A zero-length mark under the currently open span.
  void mark(Span s);
  /// Hand over spans that ran concurrently on pool threads under the
  /// currently open span.
  void add_parallel(const std::vector<SpanRecord>& spans);

  /// Exact totals of one layer over one run id (episode).
  SpanTotals run_totals(std::uint32_t run, Span s) const;
  std::size_t records() const { return records_.size(); }

  /// Write every kept record as one tab-separated line:
  /// index, run, name, parent index, start ns, end ns, thread.
  bool write(const std::string& path) const;

 private:
  struct Open {
    Span name;
    std::int64_t start_ns;
    std::int64_t child_ns;  ///< time covered by children
    std::int32_t record;    ///< reserved record slot, -1 when not kept
  };
  void account(std::uint32_t run, Span s, std::int64_t dur,
               std::int64_t self);

  std::uint32_t run_ = 0;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  /// Per-run totals, indexed [run][span].
  std::vector<std::vector<SpanTotals>> by_run_;
  std::uint64_t leaf_seq_ = 0;
};

/// RAII span on the driving thread; a null tracer makes it a no-op.
class Scoped {
 public:
  Scoped(Tracer* t, Span s) : t_(t), token_(t ? t->open(s) : -1) {}
  ~Scoped() {
    if (t_) t_->close(token_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int token_;
};

}  // namespace perfbench
