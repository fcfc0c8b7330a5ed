// connectit_bench: one seeded workload of the repository's benchmark.
//
//   connectit_bench --workload=NAME --seed=S --seconds=T [--trace=PATH]
//
// Workloads (README.md says why each was chosen):
//   static_rmat   repeated Build of a skewed RMAT graph (k-out sampling)
//   ingest_small  2000-edge Inserts at n = 2^20, an Erase every 30 batches
//   serve_socket  open-loop reads over a Unix socket beside a batch writer
//
// The inputs are generated from the seed and the library receives only those
// inputs. Set-up runs kSetups times and is timed each time; then the
// workload's operation runs for the given number of seconds. Every answer is
// checked against a sequential recompute outside the timed code. The last
// stdout line is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "machine": {...},
//    "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Layers are measured from outside: the program times calls into each
// layer's public functions and reads the public stats::Read* counters. With
// --trace the measured phase runs twice, untraced and then traced, with the
// per-layer probes in between; every timed call becomes a span kept in a
// per-thread buffer, the spans are written to PATH at exit, and each layer's
// self time is summed from them. connectit_bench.py builds this program,
// runs it under a watchdog and keeps the result files.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/core/registry.h"
#include "src/core/sampling.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/stats/counters.h"

namespace connectit::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

// Pool workers on every workload. Half of a 4-cpu machine: a parallel loop
// waits for its slowest worker, so with a worker on every cpu any other
// thread on the machine stalls the whole loop, and the timing measures the
// scheduler rather than the library.
constexpr size_t kPoolWorkers = 2;

size_t PoolWorkers() {
  const size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kPoolWorkers, cpus);
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// ---- sample statistics ----

// Nearest-rank percentile of an ascending sample: the element at rank
// floor(q * n), clamped to the last (bench_serving uses the same rule).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(sorted.size() - 1,
                              static_cast<size_t>(q * sorted.size()));
  return sorted[idx];
}

// Number of samples ranked after Percentile(sorted, q).
size_t CountBeyond(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted.size() - 1 -
         std::min(sorted.size() - 1, static_cast<size_t>(q * sorted.size()));
}

std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

double Median(std::vector<double> values) {
  return Percentile(Sorted(std::move(values)), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    for (Metric& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---- tracing: spans in per-thread buffers, written out at exit ----

struct Span {
  const char* name;  // "<layer>.<call>", a string literal
  uint64_t id;
  uint64_t parent;  // 0 for a root span
  int64_t start_ns;
  int64_t end_ns;
};

struct ThreadSpans {
  size_t thread = 0;
  uint64_t next_id = 0;
  std::vector<Span> spans;
  std::vector<uint64_t> open;  // ids of the spans open on this thread
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  // Opens a span on the calling thread: spans recorded there until the
  // matching Close are its children. Returns 0 when tracing is off.
  uint64_t Open() {
    if (!on()) return 0;
    ThreadSpans& t = Local();
    t.open.push_back((static_cast<uint64_t>(t.thread + 1) << 40) |
                     ++t.next_id);
    return t.open.back();
  }

  void Close(uint64_t id, const char* name, Clock::time_point start,
             Clock::time_point end) {
    if (id == 0) return;
    ThreadSpans& t = Local();
    t.open.pop_back();
    t.spans.push_back({name, id, t.open.empty() ? 0 : t.open.back(),
                       Nanos(start), Nanos(end)});
  }

  // Records a finished span under the calling thread's innermost open span.
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    Close(Open(), name, start, end);
  }

  // Summed self time per layer: a span's duration minus the part its child
  // spans cover; the layer is the span name up to its last '.'.
  std::map<std::string, double> SelfSeconds() const {
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const auto& t : buffers_) {
      for (const Span& s : t->spans) {
        if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (const auto& t : buffers_) {
      for (const Span& s : t->spans) {
        const std::string name = s.name;
        const std::string layer = name.substr(0, name.rfind('.'));
        const auto it = child_ns.find(s.id);
        const int64_t children = it == child_ns.end() ? 0 : it->second;
        self[layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                                  children);
      }
    }
    return self;
  }

  // One JSON object per span and line. Call after every thread has joined.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& t : buffers_) {
      for (const Span& s : t->spans) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"thread\":%zu,\"id\":%llu,"
                     "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     s.name, t->thread, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  // The calling thread's buffer, created on first use. Buffers outlive their
  // threads so that Write() can run after every thread has been joined.
  ThreadSpans& Local() {
    thread_local ThreadSpans* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadSpans>());
      local = buffers_.back().get();
      local->thread = buffers_.size() - 1;
    }
    return *local;
  }

  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

// Runs fn and returns its wall time in seconds. When tracing is on the call
// is recorded as span `name`, and spans fn records nest under it.
template <typename F>
double Timed(const char* name, F&& fn) {
  Tracer& tracer = Tracer::Get();
  const uint64_t span = tracer.Open();
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  tracer.Close(span, name, start, end);
  return Seconds(start, end);
}

// ---- the machine ----

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model;
    for (const char c : std::string(brand)) {
      if (c >= 32 && c < 127 && c != '"' && c != '\\') model += c;
    }
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

long LlcBytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? bytes : 0;
#else
  return 0;
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Restricts the calling thread to `cpus` for the object's lifetime; threads
// it creates meanwhile inherit the restriction. A null set changes nothing.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t* cpus) {
    active_ = cpus != nullptr &&
              sched_getaffinity(0, sizeof(previous_), &previous_) == 0 &&
              sched_setaffinity(0, sizeof(*cpus), cpus) == 0;
  }
  ~ScopedAffinity() {
    if (active_) sched_setaffinity(0, sizeof(previous_), &previous_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t previous_{};
  bool active_ = false;
};

// ---- workloads ----

// What one measured phase did. op_ms holds one sample per operation of the
// workload's kind (Build, Insert, or socket read); work / work_s is the
// work rate in the workload's unit (edges or answered reads).
struct Phase {
  std::vector<double> op_ms;
  double work = 0;
  double work_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics layer;  // per-layer numbers derived from this phase
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Sizes the pool, generates the inputs from `seed` and prepares the
  // index, replacing any state a previous Setup left. Records its per-layer
  // timings in `m`.
  virtual void Setup(uint64_t seed, Metrics& m) = 0;
  virtual Phase Measure(double seconds) = 0;
  // Per-layer probes, run in traced runs only, between the two phases.
  virtual void Probe(Metrics& m) { (void)m; }
  // Checks the final answers; adds to *attempted and *failed.
  virtual void Check(uint64_t* attempted, uint64_t* failed) = 0;
  virtual const Connectivity& index() const = 0;
  // Threads and connections the load generator uses, and how threads are
  // placed on cpus.
  virtual size_t generator_threads() const { return 1; }
  virtual size_t connections() const { return 0; }
  virtual const char* pinning() const { return "none"; }
};

// Undirected-edge key for set semantics (self-loops never matter).
uint64_t EdgeKey(const Edge& e) {
  const NodeId lo = std::min(e.u, e.v);
  const NodeId hi = std::max(e.u, e.v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

NodeId CountRoots(const std::vector<NodeId>& canonical) {
  NodeId roots = 0;
  for (size_t v = 0; v < canonical.size(); ++v) roots += canonical[v] == v;
  return roots;
}

// Per-layer numbers of the Insert path from the serving counters, over
// `inserts` Insert calls that took `insert_ms` on average.
void InsertBreakdown(const stats::ServingSnapshot& before,
                     const stats::ServingSnapshot& after, size_t inserts,
                     double insert_ms, Metrics& m) {
  const double publish_ms =
      inserts == 0 ? 0
                   : 1e-3 * static_cast<double>(after.publication_cost_us -
                                                before.publication_cost_us) /
                         static_cast<double>(inserts);
  m.Set("index.insert_ms", insert_ms, "ms");
  m.Set("index.publish_ms", publish_ms, "ms");
  m.Set("index.process_batch_ms", insert_ms - publish_ms, "ms");
  m.Set("index.publish_share", insert_ms > 0 ? publish_ms / insert_ms : 0,
        "ratio");
  m.Set("index.publications",
        static_cast<double>(after.snapshot_publications -
                            before.snapshot_publications),
        "count");
}

// static_rmat: the paper's static kernel, Build with k-out sampling on the
// default variant, repeated on one CSR graph.
class StaticWorkload : public Workload {
 public:
  void Setup(uint64_t seed, Metrics& m) override {
    SetNumWorkers(PoolWorkers());
    index_.reset();
    graph_ = Graph();
    counts_.clear();
    EdgeList edges;
    const double generate_s = Timed("graph.generate", [&] {
      edges = GenerateRmatEdges(kRmatNodes, kRmatEdges, seed);
    });
    const double csr_s =
        Timed("graph.build_csr", [&] { graph_ = BuildGraph(edges); });
    edges = EdgeList();
    index_ = std::make_unique<Connectivity>(
        Connectivity::Spec().Sampling(SamplingConfig::KOut()));
    for (int i = 0; i < kWarmupBuilds; ++i) {
      Timed("core.index.build", [&] { index_->Build(graph_); });
    }
    m.Set("graph.generate_s", generate_s, "s");
    m.Set("graph.build_csr_s", csr_s, "s");
    m.Set("graph.csr_mb",
          (8.0 * (graph_.num_nodes() + 1.0) + 4.0 * graph_.num_arcs()) /
              (1 << 20),
          "MB");
  }

  Phase Measure(double seconds) override {
    Phase p;
    const Clock::time_point deadline = After(Clock::now(), seconds);
    while (Clock::now() < deadline) {
      const double s =
          Timed("core.index.build", [&] { index_->Build(graph_); });
      p.op_ms.push_back(1e3 * s);
      p.work += static_cast<double>(graph_.num_edges());
      p.work_s += s;
      counts_.push_back(index_->NumComponents());
    }
    p.attempted = p.op_ms.size();
    return p;
  }

  void Probe(Metrics& m) override {
    // finish.s is the variant's run (sampling + finish) minus sampling, and
    // the publication is Build minus that run; the three calls interleave
    // so that drift hits all of them alike.
    const SamplingConfig sampling = index_->spec().sampling();
    std::vector<double> sampling_s, run_s, build_s;
    std::vector<NodeId> sampled, labels;
    for (int i = 0; i < kProbeRepeats; ++i) {
      sampling_s.push_back(Timed("core.sampling.run", [&] {
        sampled = IdentityLabels(graph_.num_nodes());
        RunSampling(graph_, sampling, sampled);
      }));
      run_s.push_back(Timed("finish.run", [&] {
        labels = index_->variant().run(graph_, sampling);
      }));
      build_s.push_back(
          Timed("core.index.build", [&] { index_->Build(graph_); }));
    }
    const SamplingQuality quality = MeasureSamplingQuality(graph_, sampled);
    {
      stats::ScopedEnable counting;
      Timed("finish.counted_build", [&] { index_->Build(graph_); });
      const stats::Snapshot c = stats::Read();
      m.Set("unionfind.total_path_length",
            static_cast<double>(c.total_path_length), "count");
      m.Set("unionfind.max_path_length", static_cast<double>(c.max_path_length),
            "count");
      m.Set("unionfind.parent_reads", static_cast<double>(c.parent_reads),
            "count");
      m.Set("unionfind.parent_writes", static_cast<double>(c.parent_writes),
            "count");
      m.Set("unionfind.rounds", static_cast<double>(c.rounds), "count");
    }
    std::vector<double> single_s;
    Timed("parallel.pool.resize", [] { SetNumWorkers(1); });
    for (int i = 0; i < kProbeRepeats; ++i) {
      single_s.push_back(Timed("parallel.pool.single_worker_build",
                               [&] { index_->Build(graph_); }));
    }
    Timed("parallel.pool.resize", [] { SetNumWorkers(PoolWorkers()); });

    const double sample = Median(sampling_s);
    const double run = Median(run_s);
    const double build = Median(build_s);
    m.Set("sampling.s", sample, "s");
    m.Set("sampling.largest_frac", quality.coverage, "ratio");
    m.Set("finish.s", run - sample, "s");
    m.Set("index.publish_ms", 1e3 * (build - run), "ms");
    m.Set("pool.speedup", Median(single_s) / build, "ratio");
  }

  void Check(uint64_t* attempted, uint64_t* failed) override {
    const std::vector<NodeId> expected = SequentialComponents(graph_);
    const NodeId components = CountRoots(expected);
    for (const NodeId c : counts_) *failed += c != components;
    *attempted += 1;
    *failed += !SamePartition(index_->Labels(), expected);
  }

  const Connectivity& index() const override { return *index_; }

 private:
  static constexpr NodeId kRmatNodes = 1u << 20;
  static constexpr EdgeId kRmatEdges = 1u << 23;
  static constexpr int kWarmupBuilds = 2;
  static constexpr int kProbeRepeats = 5;

  Graph graph_;
  std::unique_ptr<Connectivity> index_;
  std::vector<NodeId> counts_;  // NumComponents after each timed Build
};

// ingest_small: small batches where the Θ(n) snapshot publication is most
// of each Insert, with periodic Erases through the dynamic forest.
class IngestSmallWorkload : public Workload {
 public:
  void Setup(uint64_t seed, Metrics& m) override {
    SetNumWorkers(PoolWorkers());
    index_.reset();
    events_.clear();
    cursor_ = 0;
    inserts_since_erase_ = 0;
    EdgeList stream;
    const double generate_s = Timed("graph.generate", [&] {
      stream = GenerateRmatEdges(kNodes, 4ull * kNodes, seed);
    });
    const size_t half = stream.size() / 2;
    base_.num_nodes = kNodes;
    base_.edges.assign(stream.edges.begin(), stream.edges.begin() + half);
    tail_.assign(stream.edges.begin() + half, stream.edges.end());
    index_ = std::make_unique<Connectivity>();
    Timed("core.index.build", [&] { index_->Build(GraphHandle(base_)); });
    Timed("core.index.stream", [&] { index_->Stream(); });
    // An empty Erase arms the dynamic forest, so the timed Erases do not
    // pay for it.
    const double arm_s =
        Timed("core.dynamic.arm", [&] { index_->Erase({}); });
    m.Set("graph.generate_s", generate_s, "s");
    m.Set("dynamic.arm_s", arm_s, "s");
  }

  Phase Measure(double seconds) override {
    Phase p;
    std::vector<double> erase_ms;
    const stats::ServingSnapshot before = stats::ReadServing();
    const Clock::time_point deadline = After(Clock::now(), seconds);
    // Whole cycles of kInsertsPerErase Inserts and one Erase only, so that
    // every run ends in the same state of the cycle. The work rate counts
    // inserted edges over Insert time; Erases are timed on their own.
    while (Clock::now() < deadline || inserts_since_erase_ != 0) {
      if (cursor_ + kBatch > tail_.size()) cursor_ = 0;
      const std::vector<Edge> batch(tail_.begin() + cursor_,
                                    tail_.begin() + cursor_ + kBatch);
      const double s =
          Timed("core.index.insert", [&] { index_->Insert(batch); });
      p.op_ms.push_back(1e3 * s);
      p.work += kBatch;
      p.work_s += s;
      events_.push_back({cursor_, kBatch, false});
      if (++inserts_since_erase_ == kInsertsPerErase) {
        inserts_since_erase_ = 0;
        // An Erase that splits reseeds from the forest, which would hide a
        // wrong Insert: keep the state before the last one for Check.
        before_erase_labels_ = index_->Labels();
        before_erase_events_ = events_.size();
        const std::vector<Edge> erase(batch.begin(), batch.begin() + kErase);
        const double e =
            Timed("core.dynamic.erase", [&] { index_->Erase(erase); });
        erase_ms.push_back(1e3 * e);
        events_.push_back({cursor_, kErase, true});
      }
      cursor_ += kBatch;
    }
    const stats::ServingSnapshot after = stats::ReadServing();
    const size_t batches = p.op_ms.size() + erase_ms.size();
    p.attempted = batches;
    // Every Insert and Erase publishes exactly one snapshot.
    p.failed += after.snapshot_publications - before.snapshot_publications !=
                batches;
    InsertBreakdown(before, after, p.op_ms.size(), Mean(p.op_ms), p.layer);
    const double erases = static_cast<double>(erase_ms.size());
    auto per_erase = [&](uint64_t delta) {
      return erases == 0 ? 0 : static_cast<double>(delta) / erases;
    };
    p.layer.Set("dynamic.erase_ms", Mean(erase_ms), "ms");
    p.layer.Set("harness.erase_ms_p50", Median(erase_ms), "ms");
    p.layer.Set("dynamic.forest_edge_hits",
                per_erase(after.forest_edge_hits - before.forest_edge_hits),
                "count");
    p.layer.Set("dynamic.replacement_searches",
                per_erase(after.replacement_searches -
                          before.replacement_searches),
                "count");
    p.layer.Set("dynamic.components_split",
                per_erase(after.components_split - before.components_split),
                "count");
    // Each deleted forest edge splits off at most one piece.
    const uint64_t hits = after.forest_edge_hits - before.forest_edge_hits;
    p.layer.Set("dynamic.split_frac",
                hits == 0 ? 0
                          : static_cast<double>(after.components_split -
                                                before.components_split) /
                                static_cast<double>(hits),
                "ratio");
    return p;
  }

  // The labeling before the last Erase and the final one, each against a
  // recompute over the edges surviving at that point.
  void Check(uint64_t* attempted, uint64_t* failed) override {
    *attempted += 2;
    *failed += !SamePartition(
        before_erase_labels_,
        SequentialComponents(Survivors(before_erase_events_)));
    *failed += !SamePartition(index_->Labels(),
                              SequentialComponents(Survivors(events_.size())));
  }

  const Connectivity& index() const override { return *index_; }

 private:
  static constexpr NodeId kNodes = 1u << 20;
  static constexpr size_t kBatch = 2000;
  static constexpr size_t kErase = 1000;
  static constexpr int kInsertsPerErase = 30;

  struct Event {
    size_t start;  // offset into tail_
    size_t count;
    bool erase;
  };

  // The edges present after the base and the first `events` batches, with
  // the set semantics of dynamic_connectivity_test: an Insert adds the
  // undirected edge, an Erase removes it however often it was inserted,
  // and self-loops never count.
  EdgeList Survivors(size_t events) const {
    // (key, live) in the order applied; after a stable sort by key the last
    // entry of each key is its final state.
    std::vector<std::pair<uint64_t, bool>> history;
    for (const Edge& e : base_.edges) {
      if (e.u != e.v) history.push_back({EdgeKey(e), true});
    }
    for (size_t k = 0; k < events; ++k) {
      const Event& ev = events_[k];
      for (size_t i = ev.start; i < ev.start + ev.count; ++i) {
        if (tail_[i].u != tail_[i].v) {
          history.push_back({EdgeKey(tail_[i]), !ev.erase});
        }
      }
    }
    std::stable_sort(history.begin(), history.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    EdgeList survivors;
    survivors.num_nodes = kNodes;
    for (size_t i = 0; i < history.size(); ++i) {
      const bool last =
          i + 1 == history.size() || history[i + 1].first != history[i].first;
      if (last && history[i].second) {
        survivors.edges.push_back(
            {static_cast<NodeId>(history[i].first >> 32),
             static_cast<NodeId>(history[i].first & 0xffffffffu)});
      }
    }
    return survivors;
  }

  EdgeList base_;  // Build's input; the index holds a view of it
  std::vector<Edge> tail_;
  std::unique_ptr<Connectivity> index_;
  std::vector<Event> events_;
  size_t cursor_ = 0;
  int inserts_since_erase_ = 0;
  std::vector<NodeId> before_erase_labels_;
  size_t before_erase_events_ = 0;
};

// serve_socket: the deployed read path. An in-process server (one worker,
// Unix socket) answers one open-loop pipelined read connection while a
// second connection inserts a 2000-edge batch every 50 ms.
//
// With three or more cpus the busy-polling generator gets the first cpu to
// itself and every other thread (server worker and writer, pool, writer
// connection) shares the rest, so the read latency measures the server
// rather than where the scheduler happened to put the busy threads. An
// Insert takes about half the write period, so the writer and its pool
// leave the server worker a cpu most of the time. (With a one-worker pool,
// read p99 at 40k reads/s was ~4 ms against ~50 us with two workers.)
class ServeWorkload : public Workload {
 public:
  ServeWorkload() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 3) {
      return;
    }
    CPU_ZERO(&generator_cpus_);
    CPU_ZERO(&server_cpus_);
    bool first = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      CPU_SET(cpu, first ? &generator_cpus_ : &server_cpus_);
      first = false;
    }
    pinned_ = true;
  }

  ~ServeWorkload() override { TearDown(); }

  void Setup(uint64_t seed, Metrics& m) override {
    // The pool, server and client threads created here inherit this mask.
    const ScopedAffinity server_side(server_cpus());
    TearDown();
    SetNumWorkers(PoolWorkers());
    inserted_.clear();
    sampled_.clear();
    cursor_ = 0;
    EdgeList stream;
    const double generate_s = Timed("graph.generate", [&] {
      stream = GenerateRmatEdges(kNodes, 4ull * kNodes, seed);
    });
    const size_t half = stream.size() / 2;
    base_.num_nodes = kNodes;
    base_.edges.assign(stream.edges.begin(), stream.edges.begin() + half);
    tail_.assign(stream.edges.begin() + half, stream.edges.end());
    rng_ = Rng(seed);
    index_ = std::make_unique<Connectivity>();
    Timed("core.index.build", [&] { index_->Build(GraphHandle(base_)); });
    Timed("core.index.stream", [&] { index_->Stream(); });

    // A relative path: the socket lives in the working directory.
    const std::string path =
        "connectit_bench_" + std::to_string(getpid()) + ".sock";
    serve::ServerConfig server_config;
    server_config.unix_path = path;
    server_config.workers = 1;
    server_ = std::make_unique<serve::Server>(index_.get(), server_config);
    std::string error;
    bool started = false;
    Timed("serve.server.start", [&] { started = server_->Start(&error); });
    serve::ClientConfig client_config;
    client_config.unix_path = path;
    reader_ = std::make_unique<serve::Client>(client_config);
    writer_ = std::make_unique<serve::Client>(client_config);
    if (!started || !reader_->Connect(&error) || !writer_->Connect(&error)) {
      std::fprintf(stderr, "serve_socket: %s\n", error.c_str());
      std::exit(1);
    }
    m.Set("graph.generate_s", generate_s, "s");
  }

  Phase Measure(double seconds) override {
    Phase p;
    const stats::ServingSnapshot serving_before = stats::ReadServing();
    const stats::TransportSnapshot transport_before = stats::ReadTransport();
    std::vector<double> ack_ms;
    uint64_t writer_attempted = 0, writer_failed = 0;
    std::jthread writer;
    {
      const ScopedAffinity server_side(server_cpus());
      writer = std::jthread([&](std::stop_token stop) {
        Clock::time_point next = Clock::now();
        while (!stop.stop_requested()) {
          std::this_thread::sleep_until(next);
          ++writer_attempted;
          double ms = 0;
          if (!InsertNext(&ms, "serve.client.mutate")) {
            ++writer_failed;
          } else {
            ack_ms.push_back(ms);
          }
          next = std::max(After(next, kWritePeriodS), Clock::now());
        }
      });
    }
    std::vector<Step> steps;
    {
      const ScopedAffinity generator_side(generator_cpus());
      for (const RateStep& r : kRates) {
        steps.push_back(RunStep(r.rate, seconds * r.share));
      }
    }
    writer.request_stop();
    writer.join();
    const stats::ServingSnapshot serving_after = stats::ReadServing();
    const stats::TransportSnapshot transport_after = stats::ReadTransport();

    p.op_ms = steps[kReferenceStep].latency_ms;
    p.work = static_cast<double>(steps.back().answered);
    p.work_s = steps.back().seconds;
    p.attempted = writer_attempted;
    p.failed = writer_failed;
    double best_rate = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
      const Step& s = steps[i];
      p.attempted += s.attempted;
      p.failed += s.failed;
      const std::vector<double> lat = Sorted(s.latency_ms);
      const std::vector<double> lag = Sorted(s.lag_us);
      const double p99_us = 1e3 * Percentile(lat, 0.99);
      const double lag_p99_us = Percentile(lag, 0.99);
      const std::string tag = kRates[i].tag;
      p.layer.Set("harness.read_us_p50." + tag, 1e3 * Percentile(lat, 0.5),
                  "us");
      p.layer.Set("harness.read_us_p99." + tag, p99_us, "us");
      p.layer.Set("harness.gen_lag_us_p99." + tag, lag_p99_us, "us");
      p.layer.Set("harness.achieved_rate." + tag,
                  static_cast<double>(s.answered) / s.seconds, "1/s");
      if (p99_us <= kSloP99Us && lag_p99_us <= kSloLagUs && s.failed == 0) {
        best_rate = std::max(best_rate, kRates[i].rate);
      }
    }
    p.layer.Set("harness.max_read_rate_at_slo", best_rate, "1/s");
    const std::vector<double> acks = Sorted(ack_ms);
    p.layer.Set("harness.insert_ack_ms_p50", Percentile(acks, 0.5), "ms");
    p.layer.Set("harness.insert_ack_ms_p90", Percentile(acks, 0.9), "ms");
    InsertBreakdown(serving_before, serving_after, acks.size(), Mean(acks),
                    p.layer);
    using Transport = stats::TransportSnapshot;
    auto delta = [&](uint64_t Transport::*field) {
      return static_cast<double>(transport_after.*field -
                                 transport_before.*field);
    };
    const double frames =
        delta(&Transport::frames_in) + delta(&Transport::frames_out);
    const double bytes =
        delta(&Transport::bytes_in) + delta(&Transport::bytes_out);
    p.layer.Set("server.frames_in", delta(&Transport::frames_in), "count");
    p.layer.Set("server.frames_out", delta(&Transport::frames_out), "count");
    p.layer.Set("server.bytes_per_frame", frames == 0 ? 0 : bytes / frames,
                "B");
    p.layer.Set("server.backpressure_rejections",
                delta(&Transport::backpressure_rejections), "count");
    p.layer.Set("server.queue_depth_hwm",
                static_cast<double>(transport_after.queue_depth_hwm), "count");
    // A well-formed client never causes either.
    const double protocol_errors = delta(&Transport::protocol_errors);
    const double dropped = delta(&Transport::connections_dropped);
    p.layer.Set("server.protocol_errors", protocol_errors, "count");
    p.layer.Set("server.connections_dropped", dropped, "count");
    p.failed += static_cast<uint64_t>(protocol_errors + dropped);
    return p;
  }

  void Probe(Metrics& m) override {
    // Blocking round trips on the idle server, from the generator's cpu.
    const ScopedAffinity generator_side(generator_cpus());
    std::vector<double> rtt_us, mutate_ms;
    for (uint64_t i = 0; i < kRttSamples; ++i) {
      const NodeId u = Key(i, 0), v = Key(i, 1);
      serve::Status status = serve::Status::kOk;
      bool connected = false;
      std::string error;
      bool ok = false;
      const double s = Timed("serve.client.same_component", [&] {
        ok = reader_->SameComponent(u, v, &status, &connected, &error);
      });
      if (ok && status == serve::Status::kOk) rtt_us.push_back(1e6 * s);
    }
    for (int i = 0; i < kMutateSamples; ++i) {
      double ms = 0;
      if (InsertNext(&ms, "serve.client.mutate")) mutate_ms.push_back(ms);
    }
    const std::vector<double> rtt = Sorted(rtt_us);
    m.Set("client.rtt_us_p50", Percentile(rtt, 0.5), "us");
    m.Set("client.rtt_us_p99", Percentile(rtt, 0.99), "us");
    m.Set("client.mutate_rtt_ms", Median(mutate_ms), "ms");

    // Codec microloops: one SameComponent frame, one 2000-edge InsertBatch.
    constexpr int kSmallLoops = 200000;
    constexpr int kBatchLoops = 200;
    std::vector<uint8_t> frame;
    uint64_t sink = 0;
    const double encode_s = Timed("serve.protocol.encode", [&] {
      for (int i = 0; i < kSmallLoops; ++i) {
        frame.clear();
        serve::AppendSameComponentRequest(i, Key(i, 0), Key(i, 1), &frame);
        sink += frame[8];
      }
    });
    const double decode_s = Timed("serve.protocol.decode", [&] {
      for (int i = 0; i < kSmallLoops; ++i) sink += DecodeSmall(frame);
    });
    serve::MutateRequest request;
    request.edges.assign(tail_.begin(), tail_.begin() + kWriteBatch);
    const double mutate_encode_s = Timed("serve.protocol.mutate_encode", [&] {
      for (int i = 0; i < kBatchLoops; ++i) {
        frame.clear();
        serve::AppendMutateRequest(serve::Opcode::kInsertBatch, i, request,
                                   &frame);
        sink += frame[8];
      }
    });
    const double mutate_decode_s = Timed("serve.protocol.mutate_decode", [&] {
      for (int i = 0; i < kBatchLoops; ++i) sink += DecodeMutate(frame);
    });
    if (sink == 0) std::fprintf(stderr, "serve_socket: empty codec loops\n");
    m.Set("protocol.encode_ns", 1e9 * encode_s / kSmallLoops, "ns");
    m.Set("protocol.decode_ns", 1e9 * decode_s / kSmallLoops, "ns");
    m.Set("protocol.mutate_encode_us", 1e6 * mutate_encode_s / kBatchLoops,
          "us");
    m.Set("protocol.mutate_decode_us", 1e6 * mutate_decode_s / kBatchLoops,
          "us");
  }

  // Inserts only grow components, so every sampled "connected" answer must
  // hold in the final labeling, and the component count read over the wire
  // must match a recompute over the base plus every acknowledged batch.
  void Check(uint64_t* attempted, uint64_t* failed) override {
    EdgeList all = base_;
    for (const auto& [start, count] : inserted_) {
      all.edges.insert(all.edges.end(), tail_.begin() + start,
                       tail_.begin() + start + count);
    }
    const std::vector<NodeId> expected = SequentialComponents(all);
    for (const Sampled& s : sampled_) {
      *attempted += 1;
      *failed += s.connected && expected[s.u] != expected[s.v];
    }
    serve::Status status = serve::Status::kOk;
    NodeId count = 0;
    uint64_t version = 0;
    std::string error;
    const bool ok = reader_->NumComponents(&status, &count, &version, &error);
    *attempted += 1;
    *failed += !ok || status != serve::Status::kOk ||
               count != CountRoots(expected);
  }

  const Connectivity& index() const override { return *index_; }
  size_t generator_threads() const override { return 2; }
  size_t connections() const override { return 2; }
  const char* pinning() const override {
    return pinned_ ? "generator on the first cpu, all else on the rest"
                   : "none";
  }

 private:
  static constexpr NodeId kNodes = 1u << 20;
  static constexpr size_t kWriteBatch = 2000;
  static constexpr double kWritePeriodS = 0.050;
  static constexpr double kSloP99Us = 1000;
  static constexpr double kSloLagUs = 50;
  static constexpr uint64_t kRttSamples = 2000;
  static constexpr int kMutateSamples = 10;
  static constexpr uint64_t kSampleEvery = 1000;
  // Drain budget for the replies still in flight when a step ends.
  static constexpr int kDrainMs = 2000;

  struct RateStep {
    double rate;   // offered reads per second
    double share;  // share of the measured seconds
    const char* tag;
  };
  static constexpr RateStep kRates[] = {
      {10000, 0.2, "r10k"}, {40000, 0.5, "r40k"}, {160000, 0.3, "r160k"}};
  static constexpr size_t kReferenceStep = 1;  // 40k: the gated read latency

  struct Step {
    std::vector<double> latency_ms;  // reply time minus scheduled send
    std::vector<double> lag_us;      // actual send minus scheduled send
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t answered = 0;
    double seconds = 0;
  };

  struct Sampled {
    NodeId u, v;
    bool connected;
  };

  NodeId Key(uint64_t i, uint64_t salt) const {
    return static_cast<NodeId>(rng_.GetBounded(2 * i + salt, kNodes));
  }

  const cpu_set_t* generator_cpus() const {
    return pinned_ ? &generator_cpus_ : nullptr;
  }
  const cpu_set_t* server_cpus() const {
    return pinned_ ? &server_cpus_ : nullptr;
  }

  // Sends the next kWriteBatch tail edges as one blocking InsertBatch.
  // Records acknowledged batches for Check; false on any failure.
  bool InsertNext(double* ms, const char* span) {
    if (cursor_ + kWriteBatch > tail_.size()) cursor_ = 0;
    serve::MutateRequest request;
    request.edges.assign(tail_.begin() + cursor_,
                         tail_.begin() + cursor_ + kWriteBatch);
    serve::MutateResponse response;
    std::string error;
    bool ok = false;
    *ms = 1e3 * Timed(span, [&] {
      ok = writer_->Mutate(serve::Opcode::kInsertBatch, request, &response,
                           &error);
    });
    ok = ok && response.status == serve::Status::kOk;
    if (ok) inserted_.push_back({cursor_, kWriteBatch});
    cursor_ += kWriteBatch;
    return ok;
  }

  // Open loop at `rate` for `seconds`: request i is due at i / rate, and
  // the generator polls for replies while it waits, never sleeping.
  Step RunStep(double rate, double seconds) {
    Step step;
    const uint64_t total = static_cast<uint64_t>(rate * seconds);
    struct Pending {
      Clock::time_point due;
      Clock::time_point sent;
      uint64_t i;
      uint8_t kind;
    };
    std::vector<Pending> pending;
    pending.reserve(total);
    uint64_t first_id = 0;
    Tracer& tracer = Tracer::Get();
    serve::Client::Response response;
    std::string error;
    bool broken = false;
    auto receive = [&](Clock::time_point now) {
      const uint64_t idx = response.request_id - first_id;
      if (response.request_id < first_id || idx >= pending.size()) {
        ++step.failed;  // a reply nobody asked for
        return;
      }
      const Pending& req = pending[idx];
      ++step.answered;
      step.latency_ms.push_back(1e3 * Seconds(req.due, now));
      tracer.Record("serve.client.read", req.sent, now);
      if (response.status != serve::Status::kOk) {
        ++step.failed;
        return;
      }
      if (req.kind == 0) {
        serve::Status status = serve::Status::kOk;
        bool connected = false;
        std::string decode_error;
        if (!serve::DecodeSameComponentResponse(
                response.payload.data(), response.payload.size(), &status,
                &connected, &decode_error)) {
          ++step.failed;
        } else if (req.i % kSampleEvery == 0) {
          sampled_.push_back({Key(req.i, 0), Key(req.i, 1), connected});
        }
      }
    };

    const Clock::time_point t0 = After(Clock::now(), 0.001);
    // A generator this far behind its schedule gives up on the step.
    const Clock::time_point give_up = After(t0, seconds + 1.0);
    uint64_t next = 0;
    while (!broken && next < total) {
      const Clock::time_point now = Clock::now();
      if (now > give_up) {
        error = "generator fell behind its schedule";
        broken = true;
        break;
      }
      bool sent = false;
      while (next < total) {
        const Clock::time_point due = After(t0, next / rate);
        if (due > now) break;
        // 90% SameComponent, 5% Component, 4% ComponentSizes, 1%
        // NumComponents: bench_serving's socket mix.
        const uint64_t i = read_seq_++;
        const uint64_t roll = rng_.Get(~i) % 100;
        const uint8_t kind = roll < 90 ? 0 : roll < 95 ? 1 : roll < 99 ? 2 : 3;
        uint64_t id = 0;
        switch (kind) {
          case 0: id = reader_->SendSameComponent(Key(i, 0), Key(i, 1)); break;
          case 1: id = reader_->SendComponent(Key(i, 0)); break;
          case 2: id = reader_->SendComponentSizes(16); break;
          default: id = reader_->SendNumComponents(); break;
        }
        if (pending.empty()) first_id = id;
        pending.push_back({due, now, i, kind});
        step.lag_us.push_back(1e6 * Seconds(due, now));
        ++next;
        sent = true;
      }
      if (sent && !reader_->Flush(&error)) broken = true;
      while (!broken && reader_->Poll(&response, 0, &error)) {
        receive(Clock::now());
      }
      if (error != "request timed out") broken = true;
    }
    // Replies still in flight.
    while (!broken && step.answered < pending.size()) {
      if (!reader_->Poll(&response, kDrainMs, &error)) break;
      receive(Clock::now());
    }
    step.attempted = total;
    step.failed += total - step.answered;
    step.seconds = std::max(seconds, Seconds(t0, Clock::now()));
    if (broken) std::fprintf(stderr, "serve_socket: %s\n", error.c_str());
    return step;
  }

  static uint64_t DecodeSmall(const std::vector<uint8_t>& frame) {
    serve::FrameHeader header;
    std::string error;
    NodeId u = 0, v = 0;
    const uint8_t* payload = frame.data() + serve::kFrameHeaderBytes;
    if (!serve::DecodeFrameHeader(frame.data(), frame.size(), &header,
                                  &error) ||
        !serve::ValidatePayload(header, payload, &error) ||
        !serve::DecodeSameComponentRequest(payload, header.payload_length, &u,
                                           &v, &error)) {
      return 0;
    }
    return 1 + u + v;
  }

  static uint64_t DecodeMutate(const std::vector<uint8_t>& frame) {
    serve::FrameHeader header;
    std::string error;
    serve::MutateRequest request;
    const uint8_t* payload = frame.data() + serve::kFrameHeaderBytes;
    if (!serve::DecodeFrameHeader(frame.data(), frame.size(), &header,
                                  &error) ||
        !serve::ValidatePayload(header, payload, &error) ||
        !serve::DecodeMutateRequest(serve::Opcode::kInsertBatch, payload,
                                    header.payload_length, &request, &error)) {
      return 0;
    }
    return request.edges.size();
  }

  // Clients close before the server stops; the server stops before the
  // index it serves is destroyed.
  void TearDown() {
    reader_.reset();
    writer_.reset();
    if (server_ != nullptr) {
      Timed("serve.server.stop", [&] { server_->Stop(); });
    }
    server_.reset();
    index_.reset();
  }

  EdgeList base_;  // Build's input; the index holds a view of it
  std::vector<Edge> tail_;
  Rng rng_;
  std::unique_ptr<Connectivity> index_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> reader_;
  std::unique_ptr<serve::Client> writer_;
  std::vector<std::pair<size_t, size_t>> inserted_;  // acknowledged batches
  std::vector<Sampled> sampled_;
  size_t cursor_ = 0;
  uint64_t read_seq_ = 0;
  bool pinned_ = false;
  cpu_set_t generator_cpus_{};
  cpu_set_t server_cpus_{};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "static_rmat") return std::make_unique<StaticWorkload>();
  if (name == "ingest_small") return std::make_unique<IngestSmallWorkload>();
  if (name == "serve_socket") return std::make_unique<ServeWorkload>();
  return nullptr;
}

// ---- in-process read probe ----

// Times direct SameComponent and Acquire calls against the index, one pair
// about every millisecond, and samples the epoch reclaim backlog every ten
// pairs. Runs on its own thread beside a traced phase (reads under the
// workload's mutator), or inline for a fixed count (idle reads).
struct ReadProbe {
  std::vector<double> read_ns;
  std::vector<double> acquire_ns;
  uint64_t backlog_max = 0;

  void Run(const Connectivity& index, std::stop_token stop,
           size_t max_samples) {
    const Rng rng(0x5eed);
    const NodeId n = index.num_nodes();
    uint64_t sink = 0;
    for (size_t i = 0; i < max_samples && !stop.stop_requested(); ++i) {
      const NodeId u = static_cast<NodeId>(rng.GetBounded(2 * i, n));
      const NodeId v = static_cast<NodeId>(rng.GetBounded(2 * i + 1, n));
      read_ns.push_back(1e9 * Timed("core.index.same_component", [&] {
                          sink += index.SameComponent(u, v);
                        }));
      {
        Snapshot snap;
        acquire_ns.push_back(1e9 * Timed("core.index.acquire", [&] {
                               snap = index.Acquire();
                             }));
        sink += snap.num_nodes();
      }
      if (i % 10 == 0) {
        backlog_max =
            std::max(backlog_max, stats::ReadServing().reclaim_backlog());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (sink == 0) std::fprintf(stderr, "read probe: empty index\n");
  }
};

// ---- output ----

void PrintJsonNumber(double value) {
  if (value != value || value - value != 0) {
    std::printf("null");  // NaN or infinity
  } else {
    std::printf("%.17g", value);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? argv[i] + len : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      args->trace_path = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  std::unique_ptr<Workload> workload;
  if (!ParseArgs(argc, argv, &args) ||
      (workload = MakeWorkload(args.workload)) == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload=static_rmat|ingest_small|serve_socket "
                 "--seed=S --seconds=T "
                 "[--trace=PATH]\n",
                 argv[0]);
    return 2;
  }
  const bool trace = !args.trace_path.empty();
  Tracer& tracer = Tracer::Get();
  tracer.SetOn(trace);
  Metrics m;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(
        Timed("harness.setup", [&] { workload->Setup(args.seed, m); }));
  }

  // End-to-end numbers always come from an untraced phase.
  tracer.SetOn(false);
  const Phase plain =
      workload->Measure(trace ? args.seconds / 2 : args.seconds);
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  // Kept in the result file; a traced phase overwrites them.
  for (const Metric& x : plain.layer.items()) {
    m.Set(x.name, x.value, x.unit.c_str());
  }
  const std::vector<double> ops = Sorted(plain.op_ms);
  const double work_per_s = plain.work_s > 0 ? plain.work / plain.work_s : 0;

  if (trace) {
    tracer.SetOn(true);
    ReadProbe idle;
    idle.Run(workload->index(), std::stop_token(), 200);
    workload->Probe(m);

    const stats::ServingSnapshot before = stats::ReadServing();
    ReadProbe busy;
    std::jthread prober([&](std::stop_token stop) {
      busy.Run(workload->index(), stop, static_cast<size_t>(-1));
    });
    Phase traced;
    Timed("harness.measure",
          [&] { traced = workload->Measure(args.seconds / 2); });
    prober.request_stop();
    prober.join();
    const stats::ServingSnapshot after = stats::ReadServing();
    tracer.SetOn(false);

    attempted += traced.attempted;
    failed += traced.failed;
    for (const Metric& x : traced.layer.items()) {
      m.Set(x.name, x.value, x.unit.c_str());
    }
    const std::vector<double> idle_ns = Sorted(idle.read_ns);
    const std::vector<double> busy_ns = Sorted(busy.read_ns);
    m.Set("index.read_idle_ns_p50", Percentile(idle_ns, 0.5), "ns");
    m.Set("index.read_ns_p50", Percentile(busy_ns, 0.5), "ns");
    m.Set("index.read_ns_p99", Percentile(busy_ns, 0.99), "ns");
    m.Set("index.acquire_ns", Median(busy.acquire_ns), "ns");
    m.Set("epoch.advances",
          static_cast<double>(after.epoch_advances - before.epoch_advances),
          "count");
    m.Set("epoch.snapshots_reclaimed",
          static_cast<double>(after.snapshots_reclaimed -
                              before.snapshots_reclaimed),
          "count");
    m.Set("epoch.reclaim_backlog_max", static_cast<double>(busy.backlog_max),
          "count");

    // Tracing overhead: the traced phase against the untraced one.
    const std::vector<double> traced_ops = Sorted(traced.op_ms);
    const double traced_rate =
        traced.work_s > 0 ? traced.work / traced.work_s : 0;
    auto overhead = [](double traced_value, double plain) {
      return plain > 0 ? traced_value / plain - 1 : 0;
    };
    m.Set("harness.trace_overhead.op_ms_p50",
          overhead(Percentile(traced_ops, 0.5), Percentile(ops, 0.5)),
          "ratio");
    m.Set("harness.trace_overhead.op_ms_p90",
          overhead(Percentile(traced_ops, 0.9), Percentile(ops, 0.9)),
          "ratio");
    m.Set("harness.trace_overhead.work_per_s",
          overhead(traced_rate, work_per_s), "ratio");
    for (const auto& [layer, seconds] : tracer.SelfSeconds()) {
      if (layer != "harness") m.Set("self_s." + layer, seconds, "s");
    }
  }
  const double peak_rss_mb = PeakRssMb();

  workload->Check(&attempted, &failed);

  m.Set("setup_s", Median(setup_s), "s");
  m.Set("op_ms_p50", Percentile(ops, 0.5), "ms");
  m.Set("op_ms_p90", Percentile(ops, 0.9), "ms");
  m.Set("work_per_s", work_per_s, "1/s");
  m.Set("peak_rss_mb", peak_rss_mb, "MB");
  m.Set("harness.samples", static_cast<double>(ops.size()), "count");
  m.Set("harness.samples_beyond_p90",
        static_cast<double>(CountBeyond(ops, 0.9)), "count");
  m.Set("harness.nproc", std::thread::hardware_concurrency(), "count");
  m.Set("harness.threads", static_cast<double>(workload->generator_threads()),
        "count");
  m.Set("harness.connections", static_cast<double>(workload->connections()),
        "count");
  m.Set("pool.workers", static_cast<double>(NumWorkers()), "count");

  bool trace_written = true;
  if (trace) trace_written = tracer.Write(args.trace_path);
  if (!trace_written) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
  }

  const bool correct = failed == 0 && trace_written;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"machine\": {\"nproc\": %u, \"cpu_model\": \"%s\", "
      "\"llc_bytes\": %ld, \"pool_workers\": %zu, "
      "\"generator_threads\": %zu, \"connections\": %zu, "
      "\"pinning\": \"%s\", \"seed\": %llu}, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      std::thread::hardware_concurrency(), CpuModel().c_str(), LlcBytes(),
      NumWorkers(), workload->generator_threads(), workload->connections(),
      workload->pinning(), static_cast<unsigned long long>(args.seed));
  const std::vector<Metric>& items = m.items();
  for (size_t i = 0; i < items.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                items[i].name.c_str());
    PrintJsonNumber(items[i].value);
    std::printf(", \"unit\": \"%s\"}", items[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace connectit::bench

int main(int argc, char** argv) { return connectit::bench::Main(argc, argv); }
