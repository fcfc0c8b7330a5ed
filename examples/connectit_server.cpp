// connectit_server — the network front end: serves one
// connectit::Connectivity index over the binary wire protocol
// (src/serve/protocol.h) on a Unix-domain socket and/or TCP.
//
// Usage:
//   connectit_server --unix=/tmp/connectit.sock [--nodes=N]
//   connectit_server --tcp-port=7077 [--tcp-host=127.0.0.1] [--nodes=N]
//
// Flags:
//   --unix=PATH         Unix-domain socket to listen on (replaces an
//                       existing socket file at PATH)
//   --tcp-port=N        TCP port to listen on (with --tcp-host, default
//                       127.0.0.1); --unix and --tcp-port may be combined
//   --nodes=N           cold-start streaming over N isolated vertices
//                       (default 1<<20); clients grow the graph with
//                       InsertBatch / EraseBatch
//   --workers=N         epoll worker threads, each owning its accepted
//                       connections (default 2)
//   --queue-capacity=N  bounded mutation-queue depth; a full queue answers
//                       kBackpressure instead of buffering (default 128)
//   --stats            print the transport counters
//                       (stats::ReadTransport) on shutdown
//
// The server runs until SIGTERM or SIGINT, then drains gracefully:
// listeners close, every queued mutation is applied, every pending
// response is flushed, then the process exits 0 (see Server::Stop).

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/connectivity_index.h"
#include "src/serve/server.h"
#include "src/stats/counters.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const uint8_t byte = 1;
  [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

[[noreturn]] void Usage() {
  std::fprintf(
      stderr,
      "usage: connectit_server (--unix=PATH | --tcp-port=N [--tcp-host=H])\n"
      "                        [--nodes=N] [--workers=N] [--queue-capacity=N]\n"
      "                        [--stats]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace connectit;

  serve::ServerConfig config;
  NodeId nodes = 1u << 20;
  bool print_stats = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--unix", &value)) {
      config.unix_path = value;
    } else if (ParseFlag(argv[i], "--tcp-host", &value)) {
      config.tcp_host = value;
    } else if (ParseFlag(argv[i], "--tcp-port", &value)) {
      config.tcp_port = static_cast<uint16_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--nodes", &value)) {
      nodes = static_cast<NodeId>(std::stoull(value));
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      config.workers = std::stoul(value);
    } else if (ParseFlag(argv[i], "--queue-capacity", &value)) {
      config.queue_capacity = std::stoul(value);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage();
    }
  }
  if (config.unix_path.empty() && config.tcp_port == 0) Usage();

  // The signal handler only writes one byte; the main thread blocks on
  // the pipe so shutdown runs in normal (non-handler) context.
  if (pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = OnSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);

  Connectivity index;
  index.Stream(nodes);

  serve::Server server(&index, config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "connectit_server: %s\n", error.c_str());
    return 1;
  }
  std::printf("connectit_server: serving %u nodes", nodes);
  if (!config.unix_path.empty()) {
    std::printf(" on unix:%s", config.unix_path.c_str());
  }
  if (config.tcp_port != 0) {
    std::printf(" on tcp:%s:%u", config.tcp_host.c_str(), config.tcp_port);
  }
  std::printf(" (%zu workers, queue %zu)\n", config.workers,
              config.queue_capacity);
  std::fflush(stdout);

  uint8_t byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("connectit_server: draining...\n");
  std::fflush(stdout);
  server.Stop();

  if (print_stats) {
    const stats::TransportSnapshot t = stats::ReadTransport();
    const stats::ServingSnapshot s = stats::ReadServing();
    std::printf("transport counters:\n");
    std::printf("  connections accepted    : %llu\n",
                (unsigned long long)t.connections_accepted);
    std::printf("  connections dropped     : %llu\n",
                (unsigned long long)t.connections_dropped);
    std::printf("  frames in / out         : %llu / %llu\n",
                (unsigned long long)t.frames_in,
                (unsigned long long)t.frames_out);
    std::printf("  bytes in / out          : %llu / %llu\n",
                (unsigned long long)t.bytes_in,
                (unsigned long long)t.bytes_out);
    std::printf("  backpressure rejections : %llu\n",
                (unsigned long long)t.backpressure_rejections);
    std::printf("  protocol errors         : %llu\n",
                (unsigned long long)t.protocol_errors);
    std::printf("  queue depth high-water  : %llu\n",
                (unsigned long long)t.queue_depth_hwm);
    std::printf("serving counters:\n");
    std::printf("  snapshot publications   : %llu\n",
                (unsigned long long)s.snapshot_publications);
  }
  std::printf("connectit_server: clean shutdown\n");
  return 0;
}
