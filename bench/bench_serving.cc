// Serving under traffic: open-loop load against the Connectivity façade —
// in-process, and end-to-end over the network subsystem (src/serve/).
//
// Replays configurable request mixes (read-mostly, write-heavy, bursty
// arrivals, Zipfian keys, delete-heavy insert+erase churn) against one
// Connectivity index while a writer applies edge batches.
//
// Transports (--transport=inproc|socket|all):
//
//   inproc — N client threads call the façade directly: wait-free reads
//   of its epoch-published immutable snapshots.
//
//   socket — the same open-loop schedule driven through a live
//   connectit_server over a Unix-domain socket by K forked client
//   *processes* (--client-procs, default 4), each a single-threaded
//   pipelined serve::Client; the writer sends InsertBatch/EraseBatch
//   frames over its own connection (retrying on kBackpressure), so the
//   wire protocol, epoll workers, mutation queue, and writer thread are
//   all on the measured path. End-to-end p50/p99/p999 land in the same
//   JSON next to the in-process numbers. Children are spawned
//   fork+execv(/proc/self/exe --client-worker ...) so no thread ever
//   crosses a fork.
//
// The generator is open-loop: every request has a *scheduled* arrival time
// drawn from the offered rate, independent of when earlier requests
// completed, and latency is measured from the scheduled arrival to
// completion — so queueing delay under overload is charged to the server,
// not hidden by a slow closed-loop client (the coordinated-omission trap).
// Clients partition one logical arrival schedule by index (the stateless
// Rng/Zipfian samplers make request i a pure function of i), so the
// replayed trace is identical across transports and runs; socket
// clients share the schedule origin through a CLOCK_REALTIME epoch the
// parent pins before forking.
//
// Reports achieved throughput and p50/p99/p999 latency per mix ×
// transport, and writes machine-readable BENCH_serving.json (schema checked
// in CI by tools/check_bench_serving.py) with the machine's nproc and the
// worker pool's size.
//
// Flags: --smoke (tiny run for CI), --out=PATH (default BENCH_serving.json),
//        --readers=N (default 4), --transport=inproc|socket|all (default
//        inproc), --client-procs=K (default 4).
// (--client-worker and its satellite flags are the internal child-process
// entry; not for direct use.)

#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/connectivity_index.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace connectit::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct MixConfig {
  const char* name;
  bool zipf_keys;       // Zipfian(0.99) keys instead of uniform
  bool bursty;          // square-wave arrivals (10x rate, 10% duty)
  size_t batch_size;    // writer batch size
  double batch_pause_s; // writer sleep between batches (0 = saturating)
  // Fraction of each insert batch the writer deletes again right after
  // inserting it (0 = insert-only). Exercises Connectivity::Erase — forest
  // maintenance and replacement search — under concurrent readers.
  double erase_fraction = 0;
};

struct RunConfig {
  NodeId nodes = 0;
  size_t readers = 4;
  size_t ops = 0;                // total read requests per mix x transport
  double offered_rate = 0;       // requests/second across all readers
  size_t warmup_ops = 0;         // executed, not measured
};

struct MixResult {
  std::string mix;
  std::string transport = "inproc";
  size_t client_processes = 0;   // socket transport only
  double offered_rate = 0;
  double achieved_rate = 0;
  size_t ops = 0;
  size_t batches = 0;
  size_t edges_ingested = 0;
  size_t edges_erased = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0, max_us = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(sorted.size() - 1,
                              static_cast<size_t>(q * sorted.size()));
  return sorted[idx];
}

uint64_t RealNowUs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1'000;
}

// Scheduled arrival (seconds from run start) of request i. Steady arrivals
// space requests 1/rate apart; bursty arrivals compress each 1000-request
// period into its first 10% (10x instantaneous rate), preserving the
// average offered rate.
double ArrivalTime(size_t i, double rate, bool bursty) {
  if (!bursty) return static_cast<double>(i) / rate;
  constexpr size_t kPeriodOps = 1000;
  const double period_s = static_cast<double>(kPeriodOps) / rate;
  const size_t period = i / kPeriodOps;
  const size_t within = i % kPeriodOps;
  return static_cast<double>(period) * period_s +
         static_cast<double>(within) / kPeriodOps * (period_s / 10.0);
}

MixResult RunMix(const MixConfig& mix, const RunConfig& cfg,
                 const EdgeList& stream) {
  const size_t bulk = stream.size() / 2;
  EdgeList base;
  base.num_nodes = cfg.nodes;
  base.edges.assign(stream.edges.begin(), stream.edges.begin() + bulk);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();

  // Request i's keys and kind are pure functions of i: identical traces
  // across transports.
  const Rng op_rng(/*seed=*/7);
  const Zipfian zipf(cfg.nodes, /*theta=*/0.99, /*seed=*/11);
  auto key = [&](size_t i, size_t salt) -> NodeId {
    if (mix.zipf_keys) {
      return static_cast<NodeId>(zipf.ScatteredSample(2 * i + salt));
    }
    return static_cast<NodeId>(op_rng.GetBounded(2 * i + salt, cfg.nodes));
  };
  // 90% SameComponent, 5% Component, 4% Acquire + 3 pinned queries,
  // 1% NumComponents.
  auto execute = [&](size_t i) {
    const uint64_t kind = op_rng.Get(i) % 100;
    const NodeId u = key(i, 0), v = key(i, 1);
    if (kind < 90) {
      index.SameComponent(u, v);
    } else if (kind < 95) {
      index.Component(u);
    } else if (kind < 99) {
      const Snapshot snap = index.Acquire();
      snap.SameComponent(u, v);
      snap.Component(u);
      snap.NumComponents();
    } else {
      index.NumComponents();
    }
  };

  // Warmup (unmeasured, closed-loop) so first-touch costs (page faults)
  // do not land in the measured window.
  for (size_t i = 0; i < cfg.warmup_ops; ++i) execute(i);

  // Writer: cycles the held-out tail as insert batches until readers
  // finish, paced by the mix's batch interval. A delete-heavy mix erases
  // a slice of every batch right after inserting it (which also makes the
  // wrap-around re-inserts meaningful: the erased edges really are gone).
  std::atomic<bool> stop{false};
  std::atomic<size_t> batches{0};
  std::atomic<size_t> edges_ingested{0};
  std::atomic<size_t> edges_erased{0};
  std::thread writer([&] {
    size_t cursor = bulk;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t end = std::min(cursor + mix.batch_size, stream.size());
      const std::vector<Edge> batch(stream.edges.begin() + cursor,
                                    stream.edges.begin() + end);
      index.Insert(batch);
      edges_ingested.fetch_add(end - cursor, std::memory_order_relaxed);
      batches.fetch_add(1, std::memory_order_relaxed);
      if (mix.erase_fraction > 0 && !batch.empty()) {
        const size_t k = std::max<size_t>(
            1, static_cast<size_t>(batch.size() * mix.erase_fraction));
        index.Erase(std::vector<Edge>(batch.begin(), batch.begin() + k));
        edges_erased.fetch_add(k, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
      cursor = end < stream.size() ? end : bulk;  // wrap: endless ingest
      if (mix.batch_pause_s > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(mix.batch_pause_s));
      }
    }
  });

  // Readers: partition the arrival schedule by index. Latency is
  // completion minus *scheduled* arrival.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(10);
  std::vector<std::vector<double>> lat_us(cfg.readers);
  std::vector<Clock::time_point> last_done(cfg.readers, t0);
  std::vector<std::thread> readers;
  readers.reserve(cfg.readers);
  for (size_t t = 0; t < cfg.readers; ++t) {
    readers.emplace_back([&, t] {
      lat_us[t].reserve(cfg.ops / cfg.readers + 1);
      for (size_t i = t; i < cfg.ops; i += cfg.readers) {
        const double at = ArrivalTime(i, cfg.offered_rate, mix.bursty);
        const Clock::time_point deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(at));
        // Open loop: wait for the scheduled arrival; if we are already
        // late (overload), fire immediately and charge the delay.
        if (deadline - Clock::now() > std::chrono::milliseconds(1)) {
          std::this_thread::sleep_until(deadline);
        } else {
          while (Clock::now() < deadline) std::this_thread::yield();
        }
        execute(cfg.warmup_ops + i);
        const Clock::time_point done = Clock::now();
        lat_us[t].push_back(
            std::chrono::duration<double, std::micro>(done - deadline)
                .count());
        last_done[t] = done;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();

  std::vector<double> merged;
  merged.reserve(cfg.ops);
  Clock::time_point end = t0;
  for (size_t t = 0; t < cfg.readers; ++t) {
    merged.insert(merged.end(), lat_us[t].begin(), lat_us[t].end());
    end = std::max(end, last_done[t]);
  }
  std::sort(merged.begin(), merged.end());

  MixResult result;
  result.mix = mix.name;
  result.offered_rate = cfg.offered_rate;
  result.ops = merged.size();
  const double elapsed = std::chrono::duration<double>(end - t0).count();
  result.achieved_rate = elapsed > 0 ? merged.size() / elapsed : 0;
  result.batches = batches.load();
  result.edges_ingested = edges_ingested.load();
  result.edges_erased = edges_erased.load();
  result.p50_us = Percentile(merged, 0.50);
  result.p99_us = Percentile(merged, 0.99);
  result.p999_us = Percentile(merged, 0.999);
  result.max_us = merged.empty() ? 0 : merged.back();
  return result;
}

// ---- socket transport: forked pipelined clients over src/serve ----

struct ClientWorkerConfig {
  std::string unix_path;
  std::string lat_out;
  NodeId nodes = 0;
  size_t ops = 0;
  size_t stride = 1;     // total client processes (schedule partition)
  size_t offset = 0;     // this process's slice: offset, offset+stride, ...
  size_t warmup_ops = 0;
  double rate = 0;
  bool bursty = false;
  bool zipf = false;
  uint64_t start_at_us = 0;  // shared CLOCK_REALTIME schedule origin
};

// Child-process entry (--client-worker): one single-threaded pipelined
// client driving its slice of the shared open-loop schedule. Latency
// (completion minus scheduled arrival, µs) for every request is written
// to lat_out as raw doubles for the parent to merge.
int RunClientWorker(const ClientWorkerConfig& w) {
  serve::ClientConfig config;
  config.unix_path = w.unix_path;
  config.request_timeout_ms = 30000;
  serve::Client client(config);
  std::string error;
  if (!client.Connect(&error)) {
    std::fprintf(stderr, "client-worker %zu: %s\n", w.offset, error.c_str());
    return 1;
  }

  const Rng op_rng(/*seed=*/7);
  const Zipfian zipf(w.nodes, /*theta=*/0.99, /*seed=*/11);
  auto key = [&](size_t i, size_t salt) -> NodeId {
    if (w.zipf) return static_cast<NodeId>(zipf.ScatteredSample(2 * i + salt));
    return static_cast<NodeId>(op_rng.GetBounded(2 * i + salt, w.nodes));
  };
  // The socket op mix mirrors the in-process one; the in-process "Acquire
  // + 3 pinned queries" bucket maps to the snapshot-consistent
  // ComponentSizes request (one frame answered from one pinned snapshot).
  auto send = [&](size_t i) -> uint64_t {
    const uint64_t kind = op_rng.Get(i) % 100;
    const NodeId u = key(i, 0), v = key(i, 1);
    if (kind < 90) return client.SendSameComponent(u, v);
    if (kind < 95) return client.SendComponent(u);
    if (kind < 99) return client.SendComponentSizes(16);
    return client.SendNumComponents();
  };

  // Warmup: closed loop, blocking on each response.
  serve::Client::Response response;
  for (size_t i = w.offset; i < w.warmup_ops; i += w.stride) {
    send(i);
    if (!client.Flush(&error) ||
        !client.Poll(&response, config.request_timeout_ms, &error)) {
      std::fprintf(stderr, "client-worker %zu warmup: %s\n", w.offset,
                   error.c_str());
      return 1;
    }
  }

  std::vector<double> latencies;
  latencies.reserve(w.ops / w.stride + 1);
  std::unordered_map<uint64_t, uint64_t> inflight;  // request_id -> deadline
  auto record = [&](const serve::Client::Response& r) -> bool {
    const auto it = inflight.find(r.request_id);
    if (it == inflight.end()) return false;
    const uint64_t now = RealNowUs();
    latencies.push_back(now > it->second
                            ? static_cast<double>(now - it->second)
                            : 0.0);
    inflight.erase(it);
    return true;
  };

  for (size_t i = w.offset; i < w.ops; i += w.stride) {
    const double at = ArrivalTime(i, w.rate, w.bursty);
    const uint64_t deadline_us =
        w.start_at_us + static_cast<uint64_t>(at * 1e6);
    // Open loop: until the scheduled arrival, drain finished responses
    // (pipelining: a slow answer never delays the next send); the final
    // sub-millisecond sleeps to the absolute deadline so the send never
    // fires early and never burns the core.
    while (true) {
      // Drain whatever already arrived (Poll(…, 0, …) never sleeps).
      while (client.Poll(&response, 0, &error)) record(response);
      if (error != "request timed out") {
        std::fprintf(stderr, "client-worker %zu: %s\n", w.offset,
                     error.c_str());
        return 1;
      }
      const uint64_t now = RealNowUs();
      if (now >= deadline_us) break;
      const int wait_ms = static_cast<int>(
          std::min<uint64_t>((deadline_us - now) / 1000, 5));
      if (wait_ms == 0) {
        timespec until;
        until.tv_sec = static_cast<time_t>(deadline_us / 1'000'000);
        until.tv_nsec = static_cast<long>((deadline_us % 1'000'000) * 1000);
        clock_nanosleep(CLOCK_REALTIME, TIMER_ABSTIME, &until, nullptr);
        break;
      }
      if (client.Poll(&response, wait_ms, &error)) {
        record(response);
      } else if (error != "request timed out") {
        std::fprintf(stderr, "client-worker %zu: %s\n", w.offset,
                     error.c_str());
        return 1;
      }
    }
    const uint64_t id = send(w.warmup_ops + i);
    if (!client.Flush(&error)) {
      std::fprintf(stderr, "client-worker %zu: %s\n", w.offset,
                   error.c_str());
      return 1;
    }
    inflight[id] = deadline_us;
  }
  // Tail drain: every in-flight request still gets its answer.
  while (!inflight.empty()) {
    if (!client.Poll(&response, config.request_timeout_ms, &error)) {
      std::fprintf(stderr, "client-worker %zu drain: %s\n", w.offset,
                   error.c_str());
      return 1;
    }
    record(response);
  }

  std::FILE* f = std::fopen(w.lat_out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "client-worker %zu: cannot write %s\n", w.offset,
                 w.lat_out.c_str());
    return 1;
  }
  std::fwrite(latencies.data(), sizeof(double), latencies.size(), f);
  std::fclose(f);
  return 0;
}

// Parent side: a live Server over a Unix socket, K forked client
// processes on the read schedule, mutations driven through a separate
// client connection (InsertBatch/EraseBatch frames, kBackpressure
// retried).
MixResult RunMixSocket(const MixConfig& mix, const RunConfig& cfg,
                       const EdgeList& stream, size_t client_procs,
                       const char* exe) {
  const size_t bulk = stream.size() / 2;
  EdgeList base;
  base.num_nodes = cfg.nodes;
  base.edges.assign(stream.edges.begin(), stream.edges.begin() + bulk);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();

  const std::string sock_path = "/tmp/connectit_bench_" +
                                std::to_string(getpid()) + "_" + mix.name +
                                ".sock";
  serve::ServerConfig server_config;
  server_config.unix_path = sock_path;
  server_config.workers = 2;
  server_config.queue_capacity = 256;
  serve::Server server(&index, server_config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "bench_serving: %s\n", error.c_str());
    std::exit(1);
  }

  // Children execv a fresh image (no forked threads) and share the
  // schedule origin through CLOCK_REALTIME.
  const uint64_t start_at_us = RealNowUs() + 700'000;
  std::vector<pid_t> children;
  std::vector<std::string> lat_files;
  for (size_t j = 0; j < client_procs; ++j) {
    const std::string lat_out = sock_path + ".lat" + std::to_string(j);
    lat_files.push_back(lat_out);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      std::vector<std::string> args = {
          exe,
          "--client-worker",
          "--unix=" + sock_path,
          "--lat-out=" + lat_out,
          "--nodes=" + std::to_string(cfg.nodes),
          "--ops=" + std::to_string(cfg.ops),
          "--stride=" + std::to_string(client_procs),
          "--offset=" + std::to_string(j),
          "--warmup=" + std::to_string(cfg.warmup_ops),
          "--rate=" + std::to_string(cfg.offered_rate),
          "--bursty=" + std::to_string(mix.bursty ? 1 : 0),
          "--zipf=" + std::to_string(mix.zipf_keys ? 1 : 0),
          "--start-at-us=" + std::to_string(start_at_us),
      };
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(exe, argv.data());
      std::perror("execv");
      _exit(127);
    }
    children.push_back(pid);
  }

  // Writer over the wire: same pacing as the in-process writer, but each
  // batch is an InsertBatch frame (plus an EraseBatch slice for
  // delete-heavy mixes); a kBackpressure reply re-offers the same batch.
  std::atomic<bool> stop{false};
  std::atomic<size_t> batches{0};
  std::atomic<size_t> edges_ingested{0};
  std::atomic<size_t> edges_erased{0};
  std::thread writer([&] {
    serve::ClientConfig client_config;
    client_config.unix_path = sock_path;
    serve::Client client(client_config);
    std::string werror;
    if (!client.Connect(&werror)) {
      std::fprintf(stderr, "bench_serving writer: %s\n", werror.c_str());
      std::exit(1);
    }
    auto mutate = [&](serve::Opcode opcode, std::vector<Edge> edges) -> bool {
      serve::MutateRequest request;
      request.edges = std::move(edges);
      serve::MutateResponse response;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Mutate(opcode, request, &response, &werror)) {
          std::fprintf(stderr, "bench_serving writer: %s\n", werror.c_str());
          std::exit(1);
        }
        if (response.status == serve::Status::kOk) return true;
        if (response.status != serve::Status::kBackpressure) {
          std::fprintf(stderr, "bench_serving writer: mutation refused: %s\n",
                       serve::ToString(response.status));
          std::exit(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return false;
    };
    size_t cursor = bulk;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t end = std::min(cursor + mix.batch_size, stream.size());
      std::vector<Edge> batch(stream.edges.begin() + cursor,
                              stream.edges.begin() + end);
      if (!mutate(serve::Opcode::kInsertBatch, batch)) break;
      edges_ingested.fetch_add(end - cursor, std::memory_order_relaxed);
      batches.fetch_add(1, std::memory_order_relaxed);
      if (mix.erase_fraction > 0 && !batch.empty()) {
        const size_t k = std::max<size_t>(
            1, static_cast<size_t>(batch.size() * mix.erase_fraction));
        if (!mutate(serve::Opcode::kEraseBatch,
                    std::vector<Edge>(batch.begin(), batch.begin() + k))) {
          break;
        }
        edges_erased.fetch_add(k, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
      }
      cursor = end < stream.size() ? end : bulk;
      if (mix.batch_pause_s > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(mix.batch_pause_s));
      }
    }
  });

  bool children_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) children_ok = false;
  }
  const uint64_t end_us = RealNowUs();
  stop.store(true);
  writer.join();
  server.Stop();
  if (!children_ok) {
    std::fprintf(stderr, "bench_serving: a client process failed\n");
    std::exit(1);
  }

  std::vector<double> merged;
  merged.reserve(cfg.ops);
  for (const std::string& lat_file : lat_files) {
    std::FILE* f = std::fopen(lat_file.c_str(), "rb");
    if (f == nullptr) continue;
    double value;
    while (std::fread(&value, sizeof(double), 1, f) == 1) {
      merged.push_back(value);
    }
    std::fclose(f);
    unlink(lat_file.c_str());
  }
  std::sort(merged.begin(), merged.end());

  MixResult result;
  result.mix = mix.name;
  result.transport = "socket";
  result.client_processes = client_procs;
  result.offered_rate = cfg.offered_rate;
  result.ops = merged.size();
  const double elapsed =
      end_us > start_at_us ? (end_us - start_at_us) * 1e-6 : 0;
  result.achieved_rate = elapsed > 0 ? merged.size() / elapsed : 0;
  result.batches = batches.load();
  result.edges_ingested = edges_ingested.load();
  result.edges_erased = edges_erased.load();
  result.p50_us = Percentile(merged, 0.50);
  result.p99_us = Percentile(merged, 0.99);
  result.p999_us = Percentile(merged, 0.999);
  result.max_us = merged.empty() ? 0 : merged.back();
  return result;
}

void WriteJson(const char* path, const RunConfig& cfg,
               const std::vector<MixResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serving\",\n");
  std::fprintf(f, "  \"nodes\": %llu,\n",
               static_cast<unsigned long long>(cfg.nodes));
  std::fprintf(f, "  \"readers\": %zu,\n", cfg.readers);
  std::fprintf(f, "  \"nproc\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"pool_workers\": %zu,\n", NumWorkers());
  std::fprintf(f, "  \"mixes\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const MixResult& r = results[i];
    // Every entry reads published snapshots. The constant "mode" keeps the
    // mix/mode/transport entry names of the committed trajectory stable.
    std::fprintf(
        f,
        "    {\"mix\": \"%s\", \"mode\": \"snapshot\", \"transport\": \"%s\", "
        "\"client_processes\": %zu, "
        "\"offered_ops_per_sec\": %.1f, \"achieved_ops_per_sec\": %.1f, "
        "\"ops\": %zu, \"batches\": %zu, \"edges_ingested\": %zu, "
        "\"edges_erased\": %zu, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, "
        "\"max_us\": %.2f}%s\n",
        r.mix.c_str(), r.transport.c_str(), r.client_processes,
        r.offered_rate, r.achieved_rate, r.ops, r.batches, r.edges_ingested,
        r.edges_erased, r.p50_us, r.p99_us, r.p999_us, r.max_us,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace connectit::bench

int main(int argc, char** argv) {
  using namespace connectit;
  using namespace connectit::bench;

  // Child-process mode first: bench_serving re-execs itself with
  // --client-worker for the socket transport's client processes.
  bool client_worker = false;
  ClientWorkerConfig worker;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--client-worker") == 0) client_worker = true;
  }
  if (client_worker) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--client-worker") == 0) {
      } else if (std::strncmp(arg, "--unix=", 7) == 0) {
        worker.unix_path = arg + 7;
      } else if (std::strncmp(arg, "--lat-out=", 10) == 0) {
        worker.lat_out = arg + 10;
      } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
        worker.nodes = static_cast<NodeId>(std::strtoull(arg + 8, nullptr, 10));
      } else if (std::strncmp(arg, "--ops=", 6) == 0) {
        worker.ops = std::strtoull(arg + 6, nullptr, 10);
      } else if (std::strncmp(arg, "--stride=", 9) == 0) {
        worker.stride = std::strtoull(arg + 9, nullptr, 10);
      } else if (std::strncmp(arg, "--offset=", 9) == 0) {
        worker.offset = std::strtoull(arg + 9, nullptr, 10);
      } else if (std::strncmp(arg, "--warmup=", 9) == 0) {
        worker.warmup_ops = std::strtoull(arg + 9, nullptr, 10);
      } else if (std::strncmp(arg, "--rate=", 7) == 0) {
        worker.rate = std::atof(arg + 7);
      } else if (std::strncmp(arg, "--bursty=", 9) == 0) {
        worker.bursty = arg[9] == '1';
      } else if (std::strncmp(arg, "--zipf=", 7) == 0) {
        worker.zipf = arg[7] == '1';
      } else if (std::strncmp(arg, "--start-at-us=", 14) == 0) {
        worker.start_at_us = std::strtoull(arg + 14, nullptr, 10);
      } else {
        std::fprintf(stderr, "client-worker: unknown flag %s\n", arg);
        return 2;
      }
    }
    return RunClientWorker(worker);
  }

  bool smoke = false;
  const char* out = "BENCH_serving.json";
  size_t readers = 4;
  std::string transport = "inproc";
  size_t client_procs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--readers=", 10) == 0) {
      readers = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      transport = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--client-procs=", 15) == 0) {
      client_procs = static_cast<size_t>(std::atoi(argv[i] + 15));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH] [--readers=N]\n"
                   "          [--transport=inproc|socket|all] "
                   "[--client-procs=K]\n",
                   argv[0]);
      return 2;
    }
  }
  if (transport != "inproc" && transport != "socket" && transport != "all") {
    std::fprintf(stderr, "bad --transport: %s\n", transport.c_str());
    return 2;
  }
  if (client_procs == 0) client_procs = 1;

  RunConfig cfg;
  cfg.readers = readers == 0 ? 1 : readers;
  cfg.nodes = smoke ? (1u << 12) : StreamNodes(1u << 20, 1u << 16);
  cfg.ops = smoke ? 3000 : 20000;
  cfg.offered_rate = smoke ? 20000 : 50000;
  cfg.warmup_ops = smoke ? 200 : 2000;

  const EdgeList stream =
      GenerateRmatEdges(cfg.nodes, 4ull * cfg.nodes, /*seed=*/97);

  const size_t batch = smoke ? 512 : 2048;
  const std::vector<MixConfig> mixes = {
      {"read_mostly", /*zipf=*/false, /*bursty=*/false, batch, 0.005},
      {"write_heavy", /*zipf=*/false, /*bursty=*/false, 2 * batch, 0.0},
      {"bursty", /*zipf=*/false, /*bursty=*/true, batch, 0.005},
      {"zipfian", /*zipf=*/true, /*bursty=*/false, batch, 0.005},
      // Fully dynamic: every insert batch is followed by an Erase of half
      // of it, so readers race forest maintenance + replacement searches.
      {"delete_heavy", /*zipf=*/false, /*bursty=*/false, batch, 0.0,
       /*erase_fraction=*/0.5},
  };

  PrintTitle("Serving under open-loop traffic");
  std::printf("%u nodes, %zu readers, offered %.0f ops/s, %zu ops/mix\n",
              cfg.nodes, cfg.readers, cfg.offered_rate, cfg.ops);
  std::printf("%-12s %-8s %12s %12s %10s %10s %10s %8s\n", "Mix", "Transp",
              "Offered/s", "Achieved/s", "p50(us)", "p99(us)", "p999(us)",
              "Batches");
  PrintRule(97);

  std::vector<MixResult> results;
  auto report = [](const MixResult& r) {
    std::printf("%-12s %-8s %12.0f %12.0f %10.1f %10.1f %10.1f %8zu\n",
                r.mix.c_str(), r.transport.c_str(), r.offered_rate,
                r.achieved_rate, r.p50_us, r.p99_us, r.p999_us, r.batches);
  };
  for (const MixConfig& mix : mixes) {
    if (transport == "inproc" || transport == "all") {
      const MixResult r = RunMix(mix, cfg, stream);
      report(r);
      results.push_back(r);
    }
    if (transport == "socket" || transport == "all") {
      const MixResult r =
          RunMixSocket(mix, cfg, stream, client_procs, "/proc/self/exe");
      report(r);
      results.push_back(r);
    }
  }

  WriteJson(out, cfg, results);
  return 0;
}
