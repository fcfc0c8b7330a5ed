// connectit_client — CLI for a running connectit_server, built on the
// blocking mode of src/serve/client.h.
//
// Usage:
//   connectit_client --unix=PATH <command ...>
//   connectit_client --tcp-port=N [--tcp-host=H] <command ...>
//
// Commands:
//   component <v>              the component representative of v
//   same <u> <v>               whether u and v are connected
//   num                        component count + snapshot version
//   sizes [max]                component sizes (top `max` entries, def 32)
//   insert <edges> [queries]   apply an InsertBatch; edge lists are
//                              comma-separated u-v pairs: 1-2,3-4
//   erase <edges> [queries]    apply an EraseBatch (same syntax)
//   stats                      the server's transport + serving counters
//   selftest                   drive every request type with random
//                              batches, mirroring the edge set locally,
//                              then verify the server's answers against a
//                              static recompute over the surviving edges
//                              (exit 0 iff every check passes)
//
// Selftest flags: --nodes=N (default 2048; must not exceed the server's),
// --rounds=N (default 30), --seed=S, --timeout-ms=T.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/connectivity_index.h"
#include "src/graph/coo.h"
#include "src/graph/graph_handle.h"
#include "src/parallel/random.h"
#include "src/serve/client.h"

namespace {

using namespace connectit;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: connectit_client (--unix=PATH | --tcp-port=N "
               "[--tcp-host=H]) [--timeout-ms=T]\n"
               "       component <v> | same <u> <v> | num | sizes [max] |\n"
               "       insert <edges> [queries] | erase <edges> [queries] |\n"
               "       stats | selftest [--nodes=N] [--rounds=N] [--seed=S]\n");
  std::exit(2);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "connectit_client: %s\n", message.c_str());
  std::exit(1);
}

// "1-2,3-4" -> {{1,2},{3,4}}
std::vector<Edge> ParseEdges(const std::string& text) {
  std::vector<Edge> edges;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t dash = text.find('-', pos);
    if (dash == std::string::npos) Die("bad edge list: " + text);
    size_t comma = text.find(',', dash);
    if (comma == std::string::npos) comma = text.size();
    edges.push_back(
        {static_cast<NodeId>(std::stoull(text.substr(pos, dash - pos))),
         static_cast<NodeId>(std::stoull(text.substr(dash + 1,
                                                     comma - dash - 1)))});
    pos = comma + 1;
  }
  return edges;
}

void PrintMutateResult(const serve::MutateResponse& response) {
  std::printf("status: %s\n", serve::ToString(response.status));
  for (size_t i = 0; i < response.answers.size(); ++i) {
    std::printf("query %zu: %s\n", i,
                response.answers[i] != 0 ? "connected" : "separate");
  }
}

// Random insert/erase rounds against the server with a local mirror of
// the live edge set; final answers are checked against a fresh static
// Connectivity built over exactly the surviving edges. Assumes the server
// index holds no edges beyond what this selftest inserts (run it against
// a freshly started server).
int SelfTest(serve::Client& client, NodeId nodes, int rounds, uint64_t seed) {
  std::string error;
  Rng rng(seed);

  // The reference must span the server's full vertex set or the component
  // counts would disagree by the singleton difference.
  serve::StatsProbe setup;
  if (!client.Stats(&setup, &error)) Die(error);
  const NodeId server_nodes = static_cast<NodeId>(setup.num_nodes);
  if (nodes > server_nodes) nodes = server_nodes;
  uint64_t tick = 0;
  std::vector<Edge> live;       // mirror of the server's edge set
  size_t mutations_refused = 0;

  for (int round = 0; round < rounds; ++round) {
    serve::MutateRequest request;
    const bool erase_round = round % 5 == 4 && !live.empty();
    if (erase_round) {
      // Erase a random slice of tracked edges (duplicates are fine: the
      // server counts misses, the mirror just drops what it has).
      const size_t count = 1 + rng.GetBounded(++tick, 8);
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        const size_t pick = rng.GetBounded(++tick, live.size());
        request.edges.push_back(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    } else {
      const size_t count = 4 + rng.GetBounded(++tick, 28);
      for (size_t i = 0; i < count; ++i) {
        request.edges.push_back(
            {static_cast<NodeId>(rng.GetBounded(++tick, nodes)),
             static_cast<NodeId>(rng.GetBounded(++tick, nodes))});
      }
    }
    for (size_t i = 0; i < 4; ++i) {
      request.queries.push_back(
          {static_cast<NodeId>(rng.GetBounded(++tick, nodes)),
           static_cast<NodeId>(rng.GetBounded(++tick, nodes))});
    }
    serve::MutateResponse response;
    const serve::Opcode opcode = erase_round ? serve::Opcode::kEraseBatch
                                             : serve::Opcode::kInsertBatch;
    if (!client.Mutate(opcode, request, &response, &error)) Die(error);
    if (response.status == serve::Status::kBackpressure) {
      // Refused: nothing was applied; put erased picks back in the mirror.
      ++mutations_refused;
      if (erase_round) {
        live.insert(live.end(), request.edges.begin(), request.edges.end());
      }
      continue;
    }
    if (response.status != serve::Status::kOk) {
      Die(std::string("mutation refused: ") +
          serve::ToString(response.status));
    }
    if (!erase_round) {
      live.insert(live.end(), request.edges.begin(), request.edges.end());
    }
  }

  // The reference: a static pass over exactly the surviving edges.
  EdgeList survivors;
  survivors.num_nodes = server_nodes;
  survivors.edges = live;
  Connectivity reference;
  reference.Build(GraphHandle(survivors));

  // NumComponents must agree exactly.
  serve::Status status;
  NodeId server_count = 0;
  uint64_t version = 0;
  if (!client.NumComponents(&status, &server_count, &version, &error)) {
    Die(error);
  }
  if (status != serve::Status::kOk || server_count != reference.NumComponents()) {
    std::fprintf(stderr,
                 "selftest FAIL: NumComponents server=%u reference=%u\n",
                 server_count, reference.NumComponents());
    return 1;
  }

  // SameComponent over random pairs plus every surviving edge's endpoints.
  std::vector<Edge> checks = live;
  for (size_t i = 0; i < 512; ++i) {
    checks.push_back({static_cast<NodeId>(rng.GetBounded(++tick, nodes)),
                      static_cast<NodeId>(rng.GetBounded(++tick, nodes))});
  }
  for (const Edge& check : checks) {
    bool connected = false;
    if (!client.SameComponent(check.u, check.v, &status, &connected,
                              &error)) {
      Die(error);
    }
    if (status != serve::Status::kOk ||
        connected != reference.SameComponent(check.u, check.v)) {
      std::fprintf(stderr, "selftest FAIL: SameComponent(%u, %u)\n", check.u,
                   check.v);
      return 1;
    }
  }

  // Component: two probes per surviving edge agree iff connected; and the
  // label is a valid node id.
  for (size_t i = 0; i < std::min<size_t>(live.size(), 128); ++i) {
    NodeId lu = 0, lv = 0;
    if (!client.Component(live[i].u, &status, &lu, &error)) Die(error);
    if (!client.Component(live[i].v, &status, &lv, &error)) Die(error);
    if (lu != lv || lu >= nodes) {
      std::fprintf(stderr, "selftest FAIL: Component labels of edge %u-%u\n",
                   live[i].u, live[i].v);
      return 1;
    }
  }

  // ComponentSizes: entries sum to the node count when uncapped.
  NodeId count = 0;
  std::vector<serve::ComponentSizesEntry> entries;
  if (!client.ComponentSizes(server_nodes, &status, &count, &entries,
                             &error)) {
    Die(error);
  }
  uint64_t covered = 0;
  for (const serve::ComponentSizesEntry& entry : entries) {
    covered += entry.size;
  }
  if (status != serve::Status::kOk || count != server_count) {
    std::fprintf(stderr, "selftest FAIL: ComponentSizes count=%u\n", count);
    return 1;
  }
  // The server caps entries; only an uncapped reply must cover all nodes.
  if (entries.size() == count && covered < server_nodes) {
    std::fprintf(stderr, "selftest FAIL: sizes cover %llu of %u nodes\n",
                 (unsigned long long)covered, server_nodes);
    return 1;
  }

  // Bad requests answer kBadRequest without dropping the connection.
  NodeId label = 0;
  if (!client.Component(server_nodes + 17, &status, &label, &error)) {
    Die(error);
  }
  if (status != serve::Status::kBadRequest) {
    std::fprintf(stderr, "selftest FAIL: out-of-range Component -> %s\n",
                 serve::ToString(status));
    return 1;
  }

  serve::StatsProbe probe;
  if (!client.Stats(&probe, &error)) Die(error);
  if (probe.protocol_errors != 0) {
    std::fprintf(stderr, "selftest FAIL: server counted %llu protocol errors\n",
                 (unsigned long long)probe.protocol_errors);
    return 1;
  }
  std::printf(
      "selftest ok: %zu surviving edges, %u components, %llu frames served, "
      "%zu mutations backpressured\n",
      live.size(), server_count, (unsigned long long)probe.frames_out,
      mutations_refused);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ClientConfig config;
  NodeId selftest_nodes = 2048;
  int selftest_rounds = 30;
  uint64_t selftest_seed = 1;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--unix", &value)) {
      config.unix_path = value;
    } else if (ParseFlag(argv[i], "--tcp-host", &value)) {
      config.tcp_host = value;
    } else if (ParseFlag(argv[i], "--tcp-port", &value)) {
      config.tcp_port = static_cast<uint16_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "--timeout-ms", &value)) {
      config.request_timeout_ms = std::stoi(value);
    } else if (ParseFlag(argv[i], "--nodes", &value)) {
      selftest_nodes = static_cast<NodeId>(std::stoull(value));
    } else if (ParseFlag(argv[i], "--rounds", &value)) {
      selftest_rounds = std::stoi(value);
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      selftest_seed = std::stoull(value);
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage();
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if ((config.unix_path.empty() && config.tcp_port == 0) || args.empty()) {
    Usage();
  }

  serve::Client client(config);
  std::string error;
  if (!client.Connect(&error)) Die(error);

  const std::string& command = args[0];
  serve::Status status;
  if (command == "component" && args.size() == 2) {
    NodeId label = 0;
    if (!client.Component(static_cast<NodeId>(std::stoull(args[1])), &status,
                          &label, &error)) {
      Die(error);
    }
    if (status != serve::Status::kOk) Die(serve::ToString(status));
    std::printf("component: %u\n", label);
  } else if (command == "same" && args.size() == 3) {
    bool connected = false;
    if (!client.SameComponent(static_cast<NodeId>(std::stoull(args[1])),
                              static_cast<NodeId>(std::stoull(args[2])),
                              &status, &connected, &error)) {
      Die(error);
    }
    if (status != serve::Status::kOk) Die(serve::ToString(status));
    std::printf("%s\n", connected ? "connected" : "separate");
  } else if (command == "num" && args.size() == 1) {
    NodeId count = 0;
    uint64_t version = 0;
    if (!client.NumComponents(&status, &count, &version, &error)) Die(error);
    if (status != serve::Status::kOk) Die(serve::ToString(status));
    std::printf("components: %u (snapshot version %llu)\n", count,
                (unsigned long long)version);
  } else if (command == "sizes" && args.size() <= 2) {
    const uint32_t max_entries =
        args.size() == 2 ? static_cast<uint32_t>(std::stoul(args[1])) : 32;
    NodeId count = 0;
    std::vector<serve::ComponentSizesEntry> entries;
    if (!client.ComponentSizes(max_entries, &status, &count, &entries,
                               &error)) {
      Die(error);
    }
    if (status != serve::Status::kOk) Die(serve::ToString(status));
    std::printf("components: %u (showing %zu)\n", count, entries.size());
    for (const serve::ComponentSizesEntry& entry : entries) {
      std::printf("  rep %u: %u nodes\n", entry.representative, entry.size);
    }
  } else if ((command == "insert" || command == "erase") &&
             (args.size() == 2 || args.size() == 3)) {
    serve::MutateRequest request;
    request.edges = ParseEdges(args[1]);
    if (args.size() == 3) request.queries = ParseEdges(args[2]);
    serve::MutateResponse response;
    if (!client.Mutate(command == "insert" ? serve::Opcode::kInsertBatch
                                           : serve::Opcode::kEraseBatch,
                       request, &response, &error)) {
      Die(error);
    }
    PrintMutateResult(response);
    if (response.status != serve::Status::kOk) return 1;
  } else if (command == "stats" && args.size() == 1) {
    serve::StatsProbe probe;
    if (!client.Stats(&probe, &error)) Die(error);
    std::printf("nodes %llu  components %llu  snapshot version %llu\n",
                (unsigned long long)probe.num_nodes,
                (unsigned long long)probe.num_components,
                (unsigned long long)probe.snapshot_version);
    std::printf("connections %llu (+%llu dropped)  frames %llu in / %llu "
                "out  bytes %llu in / %llu out\n",
                (unsigned long long)probe.connections_accepted,
                (unsigned long long)probe.connections_dropped,
                (unsigned long long)probe.frames_in,
                (unsigned long long)probe.frames_out,
                (unsigned long long)probe.bytes_in,
                (unsigned long long)probe.bytes_out);
    std::printf("backpressure %llu  protocol errors %llu  queue hwm %llu\n",
                (unsigned long long)probe.backpressure_rejections,
                (unsigned long long)probe.protocol_errors,
                (unsigned long long)probe.queue_depth_hwm);
    std::printf("publications %llu\n",
                (unsigned long long)probe.snapshot_publications);
  } else if (command == "selftest" && args.size() == 1) {
    return SelfTest(client, selftest_nodes, selftest_rounds, selftest_seed);
  } else {
    Usage();
  }
  return 0;
}
