// Software instrumentation counters (paper §4.1.1 and Appendix C.1).
//
// The paper annotates union-find executions with the Max Path Length (MPL),
// Total Path Length (TPL), LLC misses, and memory-controller traffic. The
// first two are algorithmic and reproduced exactly; the hardware counters
// are replaced by a deterministic software proxy counting parent-array reads
// and writes, which are precisely the accesses the hardware counters
// observed.
//
// Counters are process-global and disabled by default; enabling them adds
// 10-20% overhead, matching the paper's remark about its instrumentation.

#ifndef CONNECTIT_STATS_COUNTERS_H_
#define CONNECTIT_STATS_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace connectit::stats {

struct Snapshot {
  uint64_t total_path_length = 0;
  uint64_t max_path_length = 0;
  uint64_t parent_reads = 0;
  uint64_t parent_writes = 0;
  uint64_t rounds = 0;
};

namespace internal {
inline std::atomic<bool> g_enabled{false};
inline std::atomic<uint64_t> g_tpl{0};
inline std::atomic<uint64_t> g_mpl{0};
inline std::atomic<uint64_t> g_reads{0};
inline std::atomic<uint64_t> g_writes{0};
inline std::atomic<uint64_t> g_rounds{0};
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

inline void Reset() {
  internal::g_tpl.store(0, std::memory_order_relaxed);
  internal::g_mpl.store(0, std::memory_order_relaxed);
  internal::g_reads.store(0, std::memory_order_relaxed);
  internal::g_writes.store(0, std::memory_order_relaxed);
  internal::g_rounds.store(0, std::memory_order_relaxed);
}

// Records one traversed path of `len` parent hops.
inline void RecordPath(uint64_t len) {
  if (!Enabled()) return;
  internal::g_tpl.fetch_add(len, std::memory_order_relaxed);
  uint64_t cur = internal::g_mpl.load(std::memory_order_relaxed);
  while (len > cur &&
         !internal::g_mpl.compare_exchange_weak(cur, len,
                                                std::memory_order_relaxed)) {
  }
}

inline void RecordParentReads(uint64_t n) {
  if (Enabled()) internal::g_reads.fetch_add(n, std::memory_order_relaxed);
}

inline void RecordParentWrites(uint64_t n) {
  if (Enabled()) internal::g_writes.fetch_add(n, std::memory_order_relaxed);
}

inline void RecordRound() {
  if (Enabled()) internal::g_rounds.fetch_add(1, std::memory_order_relaxed);
}

inline Snapshot Read() {
  Snapshot s;
  s.total_path_length = internal::g_tpl.load(std::memory_order_relaxed);
  s.max_path_length = internal::g_mpl.load(std::memory_order_relaxed);
  s.parent_reads = internal::g_reads.load(std::memory_order_relaxed);
  s.parent_writes = internal::g_writes.load(std::memory_order_relaxed);
  s.rounds = internal::g_rounds.load(std::memory_order_relaxed);
  return s;
}

// ---- serving-layer counters (snapshot publication / epoch reclamation,
// see src/parallel/epoch.h and the Connectivity façade) ----
//
// Unlike the algorithmic counters above these are always on: they tick
// once per *publication* or *reclamation pass* (mutator-path events,
// thousands per second at most), never per query, so there is no
// measurable overhead to gate.

struct ServingSnapshot {
  uint64_t snapshot_publications = 0;  // atomic pointer swaps of a labeling
  uint64_t epoch_advances = 0;         // grace periods opened
  uint64_t snapshots_retired = 0;      // blocks handed to deferred reclaim
  uint64_t snapshots_reclaimed = 0;    // blocks actually freed
  uint64_t publication_cost_us = 0;    // total µs Insert spent publishing
  // ---- batch-deletion path (Connectivity::Erase / DynamicForest) ----
  uint64_t erase_batches = 0;          // Erase calls applied
  uint64_t edges_erased = 0;           // edges actually removed
  uint64_t erase_misses = 0;           // absent-edge / self-loop no-ops
  uint64_t forest_edge_hits = 0;       // deleted edges that were forest edges
  uint64_t replacement_searches = 0;   // deleted forest edges searched
  uint64_t components_split = 0;       // splits (no surviving replacement)
  // Retired-but-not-freed blocks still pinned by an epoch or a held
  // Snapshot (the deferred-reclamation backlog).
  uint64_t reclaim_backlog() const {
    return snapshots_retired - snapshots_reclaimed;
  }
};

namespace internal {
inline std::atomic<uint64_t> g_snapshot_publications{0};
inline std::atomic<uint64_t> g_epoch_advances{0};
inline std::atomic<uint64_t> g_snapshots_retired{0};
inline std::atomic<uint64_t> g_snapshots_reclaimed{0};
inline std::atomic<uint64_t> g_publication_cost_us{0};
inline std::atomic<uint64_t> g_erase_batches{0};
inline std::atomic<uint64_t> g_edges_erased{0};
inline std::atomic<uint64_t> g_erase_misses{0};
inline std::atomic<uint64_t> g_forest_edge_hits{0};
inline std::atomic<uint64_t> g_replacement_searches{0};
inline std::atomic<uint64_t> g_components_split{0};
}  // namespace internal

inline void RecordSnapshotPublication() {
  internal::g_snapshot_publications.fetch_add(1, std::memory_order_relaxed);
}
inline void RecordEpochAdvance() {
  internal::g_epoch_advances.fetch_add(1, std::memory_order_relaxed);
}
inline void RecordSnapshotRetired() {
  internal::g_snapshots_retired.fetch_add(1, std::memory_order_relaxed);
}
inline void RecordSnapshotReclaimed() {
  internal::g_snapshots_reclaimed.fetch_add(1, std::memory_order_relaxed);
}
// The measured cost of one Insert's publication.
inline void RecordPublicationCost(uint64_t micros) {
  internal::g_publication_cost_us.fetch_add(micros,
                                            std::memory_order_relaxed);
}
// One call per applied Erase batch, with that batch's deletion tallies
// (see DynamicForest::EraseStats for the field semantics).
inline void RecordEraseBatch(uint64_t erased, uint64_t misses,
                             uint64_t forest_hits,
                             uint64_t replacement_searches,
                             uint64_t components_split) {
  internal::g_erase_batches.fetch_add(1, std::memory_order_relaxed);
  internal::g_edges_erased.fetch_add(erased, std::memory_order_relaxed);
  internal::g_erase_misses.fetch_add(misses, std::memory_order_relaxed);
  internal::g_forest_edge_hits.fetch_add(forest_hits,
                                         std::memory_order_relaxed);
  internal::g_replacement_searches.fetch_add(replacement_searches,
                                             std::memory_order_relaxed);
  internal::g_components_split.fetch_add(components_split,
                                         std::memory_order_relaxed);
}

inline ServingSnapshot ReadServing() {
  ServingSnapshot s;
  s.snapshot_publications =
      internal::g_snapshot_publications.load(std::memory_order_relaxed);
  s.epoch_advances =
      internal::g_epoch_advances.load(std::memory_order_relaxed);
  s.snapshots_retired =
      internal::g_snapshots_retired.load(std::memory_order_relaxed);
  s.snapshots_reclaimed =
      internal::g_snapshots_reclaimed.load(std::memory_order_relaxed);
  s.publication_cost_us =
      internal::g_publication_cost_us.load(std::memory_order_relaxed);
  s.erase_batches = internal::g_erase_batches.load(std::memory_order_relaxed);
  s.edges_erased = internal::g_edges_erased.load(std::memory_order_relaxed);
  s.erase_misses = internal::g_erase_misses.load(std::memory_order_relaxed);
  s.forest_edge_hits =
      internal::g_forest_edge_hits.load(std::memory_order_relaxed);
  s.replacement_searches =
      internal::g_replacement_searches.load(std::memory_order_relaxed);
  s.components_split =
      internal::g_components_split.load(std::memory_order_relaxed);
  return s;
}

// For tests that assert deltas from a clean slate. Does not touch the
// algorithmic counters above (Reset does that).
inline void ResetServing() {
  internal::g_snapshot_publications.store(0, std::memory_order_relaxed);
  internal::g_epoch_advances.store(0, std::memory_order_relaxed);
  internal::g_snapshots_retired.store(0, std::memory_order_relaxed);
  internal::g_snapshots_reclaimed.store(0, std::memory_order_relaxed);
  internal::g_publication_cost_us.store(0, std::memory_order_relaxed);
  internal::g_erase_batches.store(0, std::memory_order_relaxed);
  internal::g_edges_erased.store(0, std::memory_order_relaxed);
  internal::g_erase_misses.store(0, std::memory_order_relaxed);
  internal::g_forest_edge_hits.store(0, std::memory_order_relaxed);
  internal::g_replacement_searches.store(0, std::memory_order_relaxed);
  internal::g_components_split.store(0, std::memory_order_relaxed);
}

// ---- NUMA locality counters (src/unionfind/numa_dsu.h) ----
//
// Ticked only by the replicated-placement DSU, once per operation with the
// operation's hop tallies, so like the serving counters they are always on.
// On a single-node topology (k == 1) the replicated DSU falls back to the
// flat Dsu and none of these move.

struct LocalitySnapshot {
  // Parent hops resolved inside the calling node's replica (hint chains on
  // non-home nodes; home-node work walks the authoritative array directly
  // and is not counted here).
  uint64_t local_find_depth = 0;
  // Parent hops that had to read the authoritative (home-node) array from a
  // non-home node — each one is a remote DRAM hit on a real machine.
  uint64_t cross_node_find_depth = 0;
  // Roots installed into a local replica by adaptive compression (owner-bit
  // entries); monotone over the process lifetime.
  uint64_t cross_node_compressions = 0;
};

namespace internal {
inline std::atomic<uint64_t> g_local_find_depth{0};
inline std::atomic<uint64_t> g_cross_node_find_depth{0};
inline std::atomic<uint64_t> g_cross_node_compressions{0};
}  // namespace internal

// One call per replicated-DSU operation with its accumulated hop counts.
inline void RecordLocality(uint64_t local_depth, uint64_t cross_depth,
                           uint64_t compressions) {
  if (local_depth != 0) {
    internal::g_local_find_depth.fetch_add(local_depth,
                                           std::memory_order_relaxed);
  }
  if (cross_depth != 0) {
    internal::g_cross_node_find_depth.fetch_add(cross_depth,
                                                std::memory_order_relaxed);
  }
  if (compressions != 0) {
    internal::g_cross_node_compressions.fetch_add(compressions,
                                                  std::memory_order_relaxed);
  }
}

inline LocalitySnapshot ReadLocality() {
  LocalitySnapshot s;
  s.local_find_depth =
      internal::g_local_find_depth.load(std::memory_order_relaxed);
  s.cross_node_find_depth =
      internal::g_cross_node_find_depth.load(std::memory_order_relaxed);
  s.cross_node_compressions =
      internal::g_cross_node_compressions.load(std::memory_order_relaxed);
  return s;
}

inline void ResetLocality() {
  internal::g_local_find_depth.store(0, std::memory_order_relaxed);
  internal::g_cross_node_find_depth.store(0, std::memory_order_relaxed);
  internal::g_cross_node_compressions.store(0, std::memory_order_relaxed);
}

// ---- transport counters (src/serve/: wire protocol + connectit_server) ----
//
// Ticked by the serving subsystem's network layer: connection lifecycle and
// backpressure events on the server, frame/byte totals on both ends, and
// protocol_errors by the decode layer itself (protocol.cc ticks on every
// rejected header/payload, so a fuzzer hitting the parser is counted even
// without a server around it). Always on, like the serving counters:
// per-connection events and per-frame ticks are negligible next to a
// socket round trip. Printed by connectit_server --stats and returned to
// clients by the wire protocol's Stats probe.

struct TransportSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped = 0;   // closed by error/protocol violation
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t backpressure_rejections = 0;  // mutations refused, queue full
  uint64_t protocol_errors = 0;          // frames rejected by the decoder
  uint64_t queue_depth_hwm = 0;          // mutation-queue high-water mark
};

namespace internal {
inline std::atomic<uint64_t> g_connections_accepted{0};
inline std::atomic<uint64_t> g_connections_dropped{0};
inline std::atomic<uint64_t> g_frames_in{0};
inline std::atomic<uint64_t> g_frames_out{0};
inline std::atomic<uint64_t> g_bytes_in{0};
inline std::atomic<uint64_t> g_bytes_out{0};
inline std::atomic<uint64_t> g_backpressure_rejections{0};
inline std::atomic<uint64_t> g_protocol_errors{0};
inline std::atomic<uint64_t> g_queue_depth_hwm{0};
}  // namespace internal

inline void RecordConnectionAccepted() {
  internal::g_connections_accepted.fetch_add(1, std::memory_order_relaxed);
}
inline void RecordConnectionDropped() {
  internal::g_connections_dropped.fetch_add(1, std::memory_order_relaxed);
}
inline void RecordFramesIn(uint64_t frames, uint64_t bytes) {
  internal::g_frames_in.fetch_add(frames, std::memory_order_relaxed);
  internal::g_bytes_in.fetch_add(bytes, std::memory_order_relaxed);
}
inline void RecordFramesOut(uint64_t frames, uint64_t bytes) {
  internal::g_frames_out.fetch_add(frames, std::memory_order_relaxed);
  internal::g_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
}
inline void RecordBackpressureRejection() {
  internal::g_backpressure_rejections.fetch_add(1, std::memory_order_relaxed);
}
inline void RecordProtocolError() {
  internal::g_protocol_errors.fetch_add(1, std::memory_order_relaxed);
}
// Monotone max: the mutation queue's depth observed after an enqueue.
inline void RecordQueueDepth(uint64_t depth) {
  uint64_t cur = internal::g_queue_depth_hwm.load(std::memory_order_relaxed);
  while (depth > cur && !internal::g_queue_depth_hwm.compare_exchange_weak(
                            cur, depth, std::memory_order_relaxed)) {
  }
}

inline TransportSnapshot ReadTransport() {
  TransportSnapshot s;
  s.connections_accepted =
      internal::g_connections_accepted.load(std::memory_order_relaxed);
  s.connections_dropped =
      internal::g_connections_dropped.load(std::memory_order_relaxed);
  s.frames_in = internal::g_frames_in.load(std::memory_order_relaxed);
  s.frames_out = internal::g_frames_out.load(std::memory_order_relaxed);
  s.bytes_in = internal::g_bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = internal::g_bytes_out.load(std::memory_order_relaxed);
  s.backpressure_rejections =
      internal::g_backpressure_rejections.load(std::memory_order_relaxed);
  s.protocol_errors =
      internal::g_protocol_errors.load(std::memory_order_relaxed);
  s.queue_depth_hwm =
      internal::g_queue_depth_hwm.load(std::memory_order_relaxed);
  return s;
}

inline void ResetTransport() {
  internal::g_connections_accepted.store(0, std::memory_order_relaxed);
  internal::g_connections_dropped.store(0, std::memory_order_relaxed);
  internal::g_frames_in.store(0, std::memory_order_relaxed);
  internal::g_frames_out.store(0, std::memory_order_relaxed);
  internal::g_bytes_in.store(0, std::memory_order_relaxed);
  internal::g_bytes_out.store(0, std::memory_order_relaxed);
  internal::g_backpressure_rejections.store(0, std::memory_order_relaxed);
  internal::g_protocol_errors.store(0, std::memory_order_relaxed);
  internal::g_queue_depth_hwm.store(0, std::memory_order_relaxed);
}

// RAII: enables counters on construction and restores the previous state.
class ScopedEnable {
 public:
  ScopedEnable() : previous_(Enabled()) {
    Reset();
    SetEnabled(true);
  }
  ~ScopedEnable() { SetEnabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace connectit::stats

#endif  // CONNECTIT_STATS_COUNTERS_H_
