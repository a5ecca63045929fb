// Layer probes: single-threaded, timed calls into one domain's public
// handle API (and the public NodePool), with the benchmark's SmrConfig.
// Each probe runs kTrials trials and reports the median per-call time.
#include <algorithm>
#include <numeric>

#include "cell.hpp"
#include "common/xorshift.hpp"

namespace perfbench {

namespace {

constexpr int kTrials = 5;
constexpr std::size_t kChainNodes = 256;  // list-read's structure size
constexpr int kChaseWalks = 1000;
constexpr int kOpPairs = 1'000'000;
constexpr int kRetires = 200'000;
constexpr int kPoolBatches = 400;
constexpr std::size_t kPoolBatch = 1024;

struct ChaseNode : scot::ReclaimNode {
  scot::StableAtomic<scot::marked_ptr<ChaseNode>> next;
  std::uint64_t key;
  explicit ChaseNode(std::uint64_t k)
      : next(scot::marked_ptr<ChaseNode>{}), key(k) {}
};

std::atomic<std::uint64_t> g_sink{0};  // keeps probe results observable

// Median over kTrials of `trial()`'s nanoseconds per call, each trial
// recorded as a probe span under `parent`.
template <class Trial>
double median_trial(Tracer* tr, std::uint32_t parent, const char* name,
                    double calls, Trial&& trial) {
  std::vector<double> ns;
  for (int i = 0; i < kTrials; ++i) {
    ScopedSpan span(tr, 0, SpanKind::kProbe, parent, name);
    const std::uint64_t t0 = now_ns();
    trial();
    ns.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return median(std::move(ns));
}

template <class D>
SchemeProbes probes_for(const scot::SmrConfig& cfg, Tracer* tr) {
  using MP = scot::marked_ptr<ChaseNode>;
  SchemeProbes p;
  ScopedSpan scheme_span(tr, 0, SpanKind::kProbe, 0, D::kName);
  const std::uint32_t parent = scheme_span.id();
  D dom(cfg);
  auto h = scot::scoped_handle(dom);

  // Dependent chase: protect hand over hand along a chain linked in a
  // seeded random order, so every load depends on the previous one.
  std::vector<ChaseNode*> nodes;
  for (std::size_t i = 0; i < kChainNodes; ++i)
    nodes.push_back(h->template alloc<ChaseNode>(i));
  scot::Xoshiro256 rng(kChainNodes);
  for (std::size_t i = nodes.size() - 1; i > 0; --i)
    std::swap(nodes[i], nodes[rng.next_in(i + 1)]);
  scot::StableAtomic<MP> head(MP(nodes.front()));
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
    nodes[i]->next.store(MP(nodes[i + 1]), std::memory_order_release);
  p.protect_chase_ns = median_trial(
      tr, parent, "protect_chase",
      static_cast<double>(kChaseWalks) * kChainNodes, [&] {
        std::uint64_t sum = 0;
        for (int w = 0; w < kChaseWalks; ++w) {
          scot::TraversalGuard<typename D::Handle> g(*h);
          auto a = g.template slot<ChaseNode>();
          auto b = g.template slot<ChaseNode>();
          scot::Protected<ChaseNode> cur = a.protect(head);
          for (bool use_b = true; cur; use_b = !use_b) {
            sum += cur->key;
            cur = use_b ? b.protect(cur->next) : a.protect(cur->next);
          }
        }
        g_sink.fetch_add(sum, std::memory_order_relaxed);
      });
  for (ChaseNode* n : nodes) h->dealloc_unpublished(n);

  p.begin_end_op_ns =
      median_trial(tr, parent, "begin_end_op", kOpPairs, [&] {
        for (int i = 0; i < kOpPairs; ++i) {
          h->begin_op();
          h->end_op();
        }
      });

  // alloc + retire inside one operation, as a structure's erase does;
  // scans run whenever the limbo list or batch fills.
  p.retire_ns = median_trial(tr, parent, "retire", kRetires, [&] {
    for (int i = 0; i < kRetires; ++i) {
      scot::TraversalGuard<typename D::Handle> g(*h);
      ChaseNode* n = g.template alloc<ChaseNode>(static_cast<std::uint64_t>(i));
      h->retire(static_cast<scot::ReclaimNode*>(n));
    }
  });
  return p;
}

}  // namespace

SchemeProbes run_scheme_probes(SchemeId s, const scot::SmrConfig& cfg,
                               Tracer* tr) {
  return with_domain(s, [&]<class D>() { return probes_for<D>(cfg, tr); });
}

double probe_pool_alloc_free_ns(Tracer* tr) {
  scot::NodePool pool(1);
  constexpr std::size_t kBytes = sizeof(ChaseNode);
  std::vector<void*> cells(kPoolBatch);
  // Batches of allocations freed in reverse, so the free lists cycle the
  // way a scan's frees and the next allocations do.
  return median_trial(
      tr, 0, "pool_alloc_free",
      static_cast<double>(kPoolBatches) * kPoolBatch, [&] {
        for (int b = 0; b < kPoolBatches; ++b) {
          for (void*& c : cells) c = pool.alloc(0, kBytes);
          for (auto it = cells.rbegin(); it != cells.rend(); ++it)
            pool.free(0, *it, kBytes);
        }
      });
}

}  // namespace perfbench
