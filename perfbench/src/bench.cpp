// Input generation, the worker pool and the span store (bench.hpp).
#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "common/xorshift.hpp"
#include "common/zipf.hpp"

namespace perfbench {

namespace {

// SplitMix64 finalizer: spreads Zipfian ranks over the key range so the hot
// keys land in different shards and buckets instead of clustering at 0.
std::uint64_t scramble(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Seeds are spaced so (seed, stream) pairs never collide; stream 0 is the
// prefill shuffle, stream t + 1 is worker t's operation stream.
scot::Xoshiro256 rng_for(std::uint64_t seed, std::uint64_t stream) {
  return scot::Xoshiro256(seed * 1000003ULL + stream);
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   unsigned workers) {
  Inputs in;
  // Prefill: the first `prefill` keys of a seeded shuffle of the key range,
  // so the set is distinct and its insertion order is random.
  std::vector<std::uint64_t> keys(spec.key_range);
  std::iota(keys.begin(), keys.end(), std::uint64_t{0});
  scot::Xoshiro256 shuffle = rng_for(seed, 0);
  for (std::size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[shuffle.next_in(i + 1)]);
  keys.resize(spec.prefill);
  in.prefill = std::move(keys);

  std::optional<scot::Zipf> zipf;
  if (spec.zipfian) zipf.emplace(spec.key_range, 0.99);
  in.streams.resize(workers);
  for (unsigned t = 0; t < workers; ++t) {
    scot::Xoshiro256 rng = rng_for(seed, t + 1);
    std::vector<std::uint64_t>& s = in.streams[t];
    s.resize(kStreamLen);
    for (std::uint64_t& e : s) {
      // rank + 1: the finalizer has a fixed point at 0.
      const std::uint64_t key =
          zipf ? scramble(zipf->next(rng) + 1) % spec.key_range
               : rng.next_in(spec.key_range);
      const auto roll = static_cast<unsigned>(rng.next_in(100));
      const Op op = roll < spec.read_pct                     ? Op::kRead
                    : roll < spec.read_pct + spec.insert_pct ? Op::kInsert
                                                             : Op::kErase;
      e = key << 2 | static_cast<std::uint64_t>(op);
    }
  }
  return in;
}

std::uint64_t digest(const std::vector<std::uint64_t>& values,
                     std::uint64_t h) {
  h ^= scramble(values.size());
  for (std::uint64_t v : values) {
    h ^= scramble(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// The CPUs this process may run on, in ascending order (empty if unknown).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  return cpus;
}

}  // namespace

unsigned worker_count() {
  auto cpus = static_cast<unsigned>(allowed_cpus().size());
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  return cpus > 1 ? cpus - 1 : 1;
}


scot::SmrConfig bench_smr_config(unsigned workers) {
  scot::SmrConfig cfg;
  cfg.max_threads = workers;
  cfg.scan_threshold = 128;
  cfg.era_freq = 12 * workers;
  // Hyaline hands a batch off per batch_capacity retires; matching it to
  // scan_threshold keeps its reclamation cadence comparable to the others.
  cfg.batch_capacity = std::max(workers + 1, cfg.scan_threshold);
  cfg.track_stats = true;
  cfg.asymmetric_fences = true;
  cfg.background_reclaim = false;
  return cfg;
}

namespace {

const char* span_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kCell: return "cell";
    case SpanKind::kSetup: return "setup";
    case SpanKind::kJoin: return "join";
    case SpanKind::kLeave: return "leave";
    case SpanKind::kRun: return "run";
    case SpanKind::kRead: return "read";
    case SpanKind::kInsert: return "insert";
    case SpanKind::kErase: return "erase";
    case SpanKind::kProbe: return "probe";
  }
  return "?";
}

const char* span_category(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kJoin:
    case SpanKind::kLeave: return "session";
    case SpanKind::kRead:
    case SpanKind::kInsert:
    case SpanKind::kErase: return "op";
    case SpanKind::kProbe: return "probe";
    default: return "bench";
  }
}

}  // namespace

Tracer::Tracer(unsigned threads) : buffers_(threads) {
  for (Buffer& b : buffers_) b.spans.reserve(kOpSpanCap + 1024);
}

// Span ids are (thread << 24) | (index in the thread's buffer + 1), so 0
// never names a span and close() finds its record without a lookup.
std::uint32_t Tracer::push(unsigned thread, const Span& s) {
  Buffer& b = buffers_[thread];
  const auto id = (static_cast<std::uint32_t>(thread) << 24) |
                  static_cast<std::uint32_t>(b.spans.size() + 1);
  b.spans.push_back(s);
  b.spans.back().id = id;
  return id;
}

std::uint32_t Tracer::open(unsigned thread, SpanKind kind,
                           std::uint32_t parent, const char* label) {
  return push(thread, Span{now_ns(), 0, 0, parent, label, kind,
                           static_cast<std::uint8_t>(thread)});
}

void Tracer::close(std::uint32_t id) {
  buffers_[id >> 24].spans[(id & 0xffffffu) - 1].end_ns = now_ns();
}

void Tracer::record_op(unsigned thread, SpanKind kind, std::uint64_t start,
                       std::uint64_t end, std::uint32_t parent) {
  Buffer& b = buffers_[thread];
  if (b.op_spans >= kOpSpanCap) {
    ++b.dropped;
    return;
  }
  ++b.op_spans;
  push(thread, Span{start, end, 0, parent, nullptr, kind,
                    static_cast<std::uint8_t>(thread)});
}

void Tracer::counter(std::uint32_t span, const char* name, double value) {
  counters_.push_back(CounterRec{span, name, value});
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Buffer& b : buffers_)
    for (const Span& s : b.spans) t0 = std::min(t0, s.start_ns);
  std::unordered_map<std::uint32_t, std::vector<const CounterRec*>> by_span;
  for (const CounterRec& c : counters_) by_span[c.span].push_back(&c);

  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u",
                   first ? "" : ",\n", span_name(s.kind),
                   span_category(s.kind), static_cast<unsigned>(s.thread),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent);
      if (s.label != nullptr) std::fprintf(f, ",\"label\":\"%s\"", s.label);
      if (auto it = by_span.find(s.id); it != by_span.end())
        for (const CounterRec* c : it->second)
          std::fprintf(f, ",\"%s\":%.17g", c->name, c->value);
      std::fprintf(f, "}}");
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"op_span_cap_per_thread\":%zu",
               kOpSpanCap);
  std::uint64_t dropped = 0;
  for (const Buffer& b : buffers_) dropped += b.dropped;
  std::fprintf(f, ",\"op_spans_not_kept\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

WorkerPool::WorkerPool(unsigned n) : n_(n == 0 ? 1 : n) {
  threads_.reserve(n_);
  try {
    for (unsigned t = 0; t < n_; ++t)
      threads_.emplace_back([this, t] { loop(t); });
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& th : threads_) th.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    quit_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& th : threads_) th.join();
}

void WorkerPool::start(std::function<void(unsigned)> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = std::move(fn);
    busy_ = n_;
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
}

void WorkerPool::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return busy_ == 0; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void WorkerPool::loop(unsigned t) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return quit_ || generation_ != seen; });
      if (quit_) return;
      seen = generation_;
      job = &job_;
    }
    // job_ is only replaced by start(), which the owner calls after wait().
    try {
      (*job)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
