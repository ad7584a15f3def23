#include "tracer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace perfbench {

namespace {

bool is_hot_leaf(Span s) {
  return s == Span::kRegisterPair || s == Span::kOpenSession ||
         s == Span::kCloseSession;
}

}  // namespace

const char* span_name(Span s) {
  switch (s) {
    case Span::kEpisode: return "episode";
    case Span::kSetup: return "setup";
    case Span::kWarmUp: return "setup.warm_up";
    case Span::kRunUntil: return "service.run_until";
    case Span::kRegisterPair: return "service.register_pair";
    case Span::kOpenSession: return "service.open_session";
    case Span::kCloseSession: return "service.close_session";
    case Span::kRouteStep: return "route.step";
    case Span::kSettleBilling: return "econ.settle_billing";
    case Span::kSweep: return "core.sweep";
    case Span::kMeasureBatch: return "core.measure_batch";
    case Span::kSampleBatch: return "model.sample_batch";
    case Span::kFault: return "chaos.fault";
    case Span::kCount: break;
  }
  return "?";
}

bool is_container(Span s) {
  return s == Span::kEpisode || s == Span::kRunUntil || s == Span::kSweep;
}

int Tracer::open(Span s) {
  std::int32_t rec = -1;
  if (!is_hot_leaf(s) || leaf_seq_++ % kLeafSampleEvery == 0) {
    rec = static_cast<std::int32_t>(records_.size());
    SpanRecord r;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.run = run_;
    r.name = s;
    records_.push_back(r);
  }
  const std::int64_t t = now_ns();
  if (rec >= 0) records_[static_cast<std::size_t>(rec)].start_ns = t;
  stack_.push_back({s, t, 0, rec});
  return static_cast<int>(stack_.size()) - 1;
}

void Tracer::close(int token) {
  const std::int64_t t = now_ns();
  assert(token == static_cast<int>(stack_.size()) - 1 &&
         "spans close in LIFO order");
  (void)token;
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start_ns;
  account(run_, o.name, dur, dur - o.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.record >= 0) records_[static_cast<std::size_t>(o.record)].end_ns = t;
}

void Tracer::mark(Span s) {
  SpanRecord r;
  r.start_ns = r.end_ns = now_ns();
  r.parent = stack_.empty() ? -1 : stack_.back().record;
  r.run = run_;
  r.name = s;
  records_.push_back(r);
  account(run_, s, 0, 0);
}

void Tracer::add_parallel(const std::vector<SpanRecord>& spans) {
  if (spans.empty()) return;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(spans.size());
  for (SpanRecord r : spans) {
    const std::int64_t dur = r.end_ns - r.start_ns;
    account(run_, r.name, dur, dur);
    r.parent = parent;
    r.run = run_;
    records_.push_back(r);
    iv.emplace_back(r.start_ns, r.end_ns);
  }
  if (stack_.empty()) return;
  // The children overlap each other, so the parent loses only the union
  // of their intervals, not their sum.
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t lo = iv.front().first, hi = iv.front().second;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  covered += hi - lo;
  stack_.back().child_ns += covered;
}

void Tracer::account(std::uint32_t run, Span s, std::int64_t dur,
                     std::int64_t self) {
  if (by_run_.size() <= run) {
    by_run_.resize(run + 1,
                   std::vector<SpanTotals>(static_cast<std::size_t>(Span::kCount)));
  }
  SpanTotals& r = by_run_[run][static_cast<std::size_t>(s)];
  r.calls += 1;
  r.busy_ns += dur;
  r.self_ns += self;
}

SpanTotals Tracer::run_totals(std::uint32_t run, Span s) const {
  if (run >= by_run_.size()) return {};
  return by_run_[run][static_cast<std::size_t>(s)];
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\trun\tname\tparent\tstart_ns\tend_ns\tthread\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f, "%zu\t%u\t%s\t%d\t%lld\t%lld\t%u\n", i, r.run,
                 span_name(r.name), r.parent,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned>(r.thread));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
