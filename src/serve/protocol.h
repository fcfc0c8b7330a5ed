// Versioned, checksummed binary wire protocol for the connectivity service.
//
// This is the framing layer the network serving subsystem (connectit_server,
// the client library, and bench_serving's multi-process mode) speaks over a
// TCP or Unix-domain stream. Design follows the .cgc container parser
// (src/graph/container.h): fixed little-endian layout, every frame
// self-validating via two checksums (header and payload), and the decoder
// rejecting malformed bytes with a *field-specific* error string instead of
// crashing, hanging, or misparsing — tests/protocol_fault_test.cc pins that
// contract by flipping and truncating every byte the way
// container_corruption_test.cc does for the on-disk format. Every rejection
// ticks stats::ReadTransport().protocol_errors, right in the decode layer,
// so a server counts hostile bytes without extra plumbing.
//
// Frame layout (all integers little-endian):
//
//   [0,  32)  FrameHeader
//   [32, 32 + payload_length)  opcode-specific payload
//
//   FrameHeader:
//     uint32 magic             kWireMagic ("CnW1")
//     uint8  version           kWireVersion
//     uint8  opcode            request Opcode; responses set kResponseBit
//     uint16 reserved          must be zero
//     uint64 request_id        echoed verbatim in the response frame
//     uint32 payload_length    <= kMaxPayloadBytes
//     uint32 payload_checksum  WireChecksum over the payload bytes
//     uint32 reserved2         must be zero
//     uint32 header_checksum   WireChecksum over the preceding 28 bytes
//
// Request/response payloads are defined per opcode below; every *response*
// payload begins with a one-byte Status so transport-level refusals
// (backpressure, bad request) need no opcode-specific body. Pipelining: a
// client may send any number of request frames before reading; the server
// answers each frame exactly once. Responses to the frames of one
// connection preserve request order for the read opcodes handled by the
// owning worker; mutation responses (applied by the writer thread) may
// interleave after later reads — request_id is the correlation key.
//
// The decode layer distinguishes "incomplete" (need more bytes — not an
// error, keep the connection) from "malformed" (field-specific error, tick
// protocol_errors, drop the connection: after a bad header the stream
// cannot be resynchronized).

#ifndef CONNECTIT_SERVE_PROTOCOL_H_
#define CONNECTIT_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/types.h"
#include "src/stats/counters.h"

namespace connectit::serve {

// "CnW1" read as a little-endian uint32 — distinct from both file magics so
// a client pointed at the wrong port gets "frame magic mismatch", not a
// misparse.
inline constexpr uint32_t kWireMagic = 0x31576e43;
inline constexpr uint8_t kWireVersion = 1;
// Caps one frame's payload (and so one InsertBatch). Large enough for a
// ~256k-edge batch, small enough that a hostile length field cannot make
// the server reserve unbounded memory.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 22;
inline constexpr size_t kFrameHeaderBytes = 32;

enum class Opcode : uint8_t {
  kComponent = 1,       // req: uint32 v            resp: uint32 label
  kSameComponent = 2,   // req: uint32 u, uint32 v  resp: uint8 connected
  kNumComponents = 3,   // req: empty               resp: uint32 count,
                        //                                uint64 version
  kComponentSizes = 4,  // req: uint32 max_entries  resp: uint32 count,
                        //   uint32 entries, entries x (uint32 rep, uint32 sz)
  kInsertBatch = 5,     // req: uint32 E, uint32 Q, E+Q x (uint32 u, uint32 v)
                        // resp: uint32 Q, Q x uint8 connected
  kEraseBatch = 6,      // same shape as kInsertBatch
  kStats = 7,           // req: empty  resp: StatsProbe (fixed uint64 fields)
};
inline constexpr uint8_t kResponseBit = 0x80;

// First payload byte of every response frame.
enum class Status : uint8_t {
  kOk = 0,
  kBackpressure = 1,   // mutation queue full: retry later, nothing applied
  kBadRequest = 2,     // opcode-specific payload failed validation
  kNotStreaming = 3,   // mutation before the server index entered streaming
  kShuttingDown = 4,   // server draining: connection closes after this frame
};

const char* ToString(Status status);

#pragma pack(push, 1)
struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint8_t version = kWireVersion;
  uint8_t opcode = 0;
  uint16_t reserved = 0;
  uint64_t request_id = 0;
  uint32_t payload_length = 0;
  uint32_t payload_checksum = 0;
  uint32_t reserved2 = 0;
  uint32_t header_checksum = 0;  // over the 28 bytes preceding this field
};
#pragma pack(pop)
static_assert(sizeof(FrameHeader) == kFrameHeaderBytes,
              "wire header must stay 32 bytes");

// FNV-1a (32-bit) over `len` bytes; the frame checksum primitive.
uint32_t WireChecksum(const void* data, size_t len);

// ---- typed request/response bodies ----

struct MutateRequest {
  std::vector<Edge> edges;
  std::vector<Edge> queries;
};

struct MutateResponse {
  Status status = Status::kOk;
  std::vector<uint8_t> answers;  // one byte per query, kOk only
};

struct ComponentSizesEntry {
  NodeId representative = 0;
  NodeId size = 0;
};

// The kStats probe's fixed-layout body: the server's transport counters
// plus the serving-layer fields a client dashboard wants next to them.
// Extending it appends fields; the decoder accepts any payload at least as
// long as the fields it knows (forward compatibility within one version).
struct StatsProbe {
  Status status = Status::kOk;
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t backpressure_rejections = 0;
  uint64_t protocol_errors = 0;
  uint64_t queue_depth_hwm = 0;
  uint64_t snapshot_publications = 0;
  // Retired publication-cadence slots, kept for the wire layout: servers
  // report 0 and 1 (every batch publishes).
  uint64_t publication_skips = 0;
  uint64_t publication_cadence_k = 0;
  uint64_t num_nodes = 0;
  uint64_t num_components = 0;
  uint64_t snapshot_version = 0;
};

// ---- encoding ----
//
// Encoders append one complete frame (header + payload) to *out, which is
// how the server reuses one per-connection output buffer with no
// per-request allocation. The request_id is caller-chosen and echoed back.

void AppendFrame(Opcode opcode, bool response, uint64_t request_id,
                 const uint8_t* payload, size_t payload_length,
                 std::vector<uint8_t>* out);

void AppendComponentRequest(uint64_t id, NodeId v, std::vector<uint8_t>* out);
void AppendSameComponentRequest(uint64_t id, NodeId u, NodeId v,
                                std::vector<uint8_t>* out);
void AppendNumComponentsRequest(uint64_t id, std::vector<uint8_t>* out);
void AppendComponentSizesRequest(uint64_t id, uint32_t max_entries,
                                 std::vector<uint8_t>* out);
void AppendMutateRequest(Opcode opcode, uint64_t id, const MutateRequest& req,
                         std::vector<uint8_t>* out);
void AppendStatsRequest(uint64_t id, std::vector<uint8_t>* out);

// Response encoders; a non-kOk status encodes as the status byte alone.
void AppendComponentResponse(uint64_t id, Status status, NodeId label,
                             std::vector<uint8_t>* out);
void AppendSameComponentResponse(uint64_t id, Status status, bool connected,
                                 std::vector<uint8_t>* out);
void AppendNumComponentsResponse(uint64_t id, Status status, NodeId count,
                                 uint64_t version, std::vector<uint8_t>* out);
void AppendComponentSizesResponse(uint64_t id, Status status, NodeId count,
                                  const std::vector<ComponentSizesEntry>& e,
                                  std::vector<uint8_t>* out);
void AppendMutateResponse(Opcode opcode, uint64_t id,
                          const MutateResponse& resp,
                          std::vector<uint8_t>* out);
void AppendStatsResponse(uint64_t id, const StatsProbe& probe,
                         std::vector<uint8_t>* out);
// Transport-level refusal for any opcode (status byte only payload).
void AppendStatusResponse(Opcode opcode, uint64_t id, Status status,
                          std::vector<uint8_t>* out);

// ---- decoding ----

// Validates the 32 header bytes at `data` (len >= kFrameHeaderBytes).
// Returns false with a field-specific diagnostic in *error — magic,
// version, reserved fields, opcode, payload length, header checksum — and
// ticks protocol_errors. Does not look at the payload.
bool DecodeFrameHeader(const uint8_t* data, size_t len, FrameHeader* out,
                       std::string* error);

// Verifies header.payload_checksum over the payload bytes.
bool ValidatePayload(const FrameHeader& header, const uint8_t* payload,
                     std::string* error);

// True if `opcode` (with kResponseBit stripped) names a known operation.
bool KnownOpcode(uint8_t opcode);
// True for the opcodes a server answers from a snapshot (no mutation).
bool IsReadOpcode(Opcode opcode);

// Opcode-specific request-body decoders. Each returns false with a
// field-specific error (and a protocol_errors tick) on any length or value
// violation; payload bytes are only read inside [payload, payload + len).
bool DecodeComponentRequest(const uint8_t* payload, size_t len, NodeId* v,
                            std::string* error);
bool DecodeSameComponentRequest(const uint8_t* payload, size_t len, NodeId* u,
                                NodeId* v, std::string* error);
bool DecodeNumComponentsRequest(const uint8_t* payload, size_t len,
                                std::string* error);
bool DecodeComponentSizesRequest(const uint8_t* payload, size_t len,
                                 uint32_t* max_entries, std::string* error);
bool DecodeMutateRequest(Opcode opcode, const uint8_t* payload, size_t len,
                         MutateRequest* out, std::string* error);
bool DecodeStatsRequest(const uint8_t* payload, size_t len,
                        std::string* error);

// Response-body decoders (client side). The leading status byte is always
// decoded; opcode-specific fields only when status == kOk.
bool DecodeComponentResponse(const uint8_t* payload, size_t len,
                             Status* status, NodeId* label,
                             std::string* error);
bool DecodeSameComponentResponse(const uint8_t* payload, size_t len,
                                 Status* status, bool* connected,
                                 std::string* error);
bool DecodeNumComponentsResponse(const uint8_t* payload, size_t len,
                                 Status* status, NodeId* count,
                                 uint64_t* version, std::string* error);
bool DecodeComponentSizesResponse(const uint8_t* payload, size_t len,
                                  Status* status, NodeId* count,
                                  std::vector<ComponentSizesEntry>* entries,
                                  std::string* error);
bool DecodeMutateResponse(const uint8_t* payload, size_t len,
                          MutateResponse* out, std::string* error);
bool DecodeStatsResponse(const uint8_t* payload, size_t len, StatsProbe* out,
                         std::string* error);

}  // namespace connectit::serve

#endif  // CONNECTIT_SERVE_PROTOCOL_H_
