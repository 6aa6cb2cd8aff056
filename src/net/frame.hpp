// Length-prefixed, versioned, checksummed framing for the gppm RPC layer.
//
// Every message on a gppm connection is one frame:
//
//   offset  size  field
//        0     4  magic "GPPM"
//        4     1  protocol version (kProtocolVersion)
//        5     1  frame type (FrameType)
//        6     2  flags (LE u16, reserved — must be zero)
//        8     4  payload size (LE u32)
//       12     4  payload CRC-32 (LE u32, IEEE)
//       16     8  deadline in microseconds (LE u64, 0 = none)
//       24     …  payload
//
// The deadline rides in the frame header, not the payload, so the server
// can stamp it onto the bridged serve::Request before the payload codec
// runs — request frames carry the client's service deadline, every other
// frame carries 0.
//
// FrameDecoder reassembles frames from an arbitrary chunking of the byte
// stream (TCP segmentation, injected short reads).  Header validation runs
// as soon as the 24 header bytes are buffered — a frame announcing more
// than `max_payload` bytes is rejected *before* any allocation for it, so
// a malicious length field cannot trigger an unbounded alloc.  All
// failures throw ProtocolError; the caller drops the connection.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace gppm::net {

inline constexpr std::array<std::uint8_t, 4> kFrameMagic = {'G', 'P', 'P',
                                                            'M'};
/// Highest protocol version this build speaks.  Version history:
///  - 2 added the health frame pair (HealthRequest/HealthResponse);
///  - 3 added the optional tenant-id trailer on PredictRequest payloads
///    (tenant-0 requests keep the version-1 byte layout);
///  - 4 added the dense PredictRequest counter body: a profile that is
///    exactly its board's counter catalog crosses as a catalog id plus one
///    (total, per-second) pair per catalog index instead of 108 names.
/// Each newer layout is stamped only on the frames that use it, so an
/// older peer keeps working until such a frame actually rides the wire,
/// and then rejects it with a typed error instead of mis-parsing it.
inline constexpr std::uint8_t kProtocolVersion = 4;
/// The original wire version.  Every pre-health frame type is still
/// emitted at this version so a v1-only peer interoperates untouched on
/// the predict path; only the newer frame kinds ride a v2 header, which a
/// v1 peer rejects cleanly (ProtocolError -> typed ErrorReply + drop)
/// instead of mis-parsing.
inline constexpr std::uint8_t kBaseProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 24;
/// Default per-frame payload cap.  A full Kepler (108-counter) predict
/// request is ~1.8 KiB dense and ~4.4 KiB in the name form; 1 MiB leaves
/// two orders of magnitude of headroom while bounding what one frame can
/// make a peer buffer.
inline constexpr std::size_t kDefaultMaxPayload = 1u << 20;

/// Message kinds understood by this protocol version.
enum class FrameType : std::uint8_t {
  Ping = 1,             ///< u64 token, echoed back in a Pong
  Pong = 2,             ///< u64 token
  InfoRequest = 3,      ///< empty payload
  InfoResponse = 4,     ///< boards + model fingerprints (protocol.hpp)
  PredictRequest = 5,   ///< request id + serve::Request
  PredictResponse = 6,  ///< request id + serve::Response
  ErrorReply = 7,       ///< u16 code + message; sent before dropping a peer
  HealthRequest = 8,    ///< v2: u64 token; answered off the predict path
  HealthResponse = 9,   ///< v2: token + HealthStatus (protocol.hpp)
};

/// True for the type values the given protocol version defines.
bool frame_type_known(std::uint8_t raw,
                      std::uint8_t version = kProtocolVersion);

/// The lowest protocol version that defines `type` — the version a frame
/// of that type is stamped with on the wire.
std::uint8_t frame_min_version(FrameType type);

std::string to_string(FrameType type);

struct FrameHeader {
  FrameType type = FrameType::Ping;
  std::uint8_t version = kBaseProtocolVersion;
  std::uint16_t flags = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
  std::uint64_t deadline_micros = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// A decoded frame whose payload is a *view* into the decoder's internal
/// buffer — no copy.  The view stays valid until the next feed() on the
/// decoder that produced it (feed may compact or reallocate the buffer);
/// consumers that must hold payload bytes across a read call copy them
/// (or use next(), which does exactly that).
struct FrameView {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

/// Serialize one frame onto the end of `out` (header computed from the
/// payload).  `version` 0 stamps frame_min_version(type), so legacy
/// traffic stays v1 on the wire; codecs whose payload uses a newer layout
/// (a tenant-carrying PredictRequest) pass the version that layout
/// requires.  Appending lets a writer batch several frames into one
/// buffer and one socket write.
void encode_frame_into(std::vector<std::uint8_t>& out, FrameType type,
                       std::span<const std::uint8_t> payload,
                       std::uint64_t deadline_micros = 0,
                       std::uint8_t version = 0);

/// Serialize one frame into a fresh buffer (wraps encode_frame_into).
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload,
                                       std::uint64_t deadline_micros = 0,
                                       std::uint8_t version = 0);
/// Convenience overload so braced payload literals ({0x01, 0x02}, {})
/// keep working; vectors go through the span overload.
inline std::vector<std::uint8_t> encode_frame(
    FrameType type, std::initializer_list<std::uint8_t> payload,
    std::uint64_t deadline_micros = 0, std::uint8_t version = 0) {
  return encode_frame(
      type, std::span<const std::uint8_t>(payload.begin(), payload.size()),
      deadline_micros, version);
}

/// Incremental frame reassembler over an arbitrarily chunked byte stream.
class FrameDecoder {
 public:
  /// `max_version` caps the protocol versions this decoder accepts
  /// (inclusive; the floor is kBaseProtocolVersion).  The default speaks
  /// everything this build knows; passing kBaseProtocolVersion simulates a
  /// v1-only peer, which the version-gating tests use to prove newer frame
  /// kinds are rejected cleanly rather than mis-parsed.
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload,
                        std::uint8_t max_version = kProtocolVersion)
      : max_payload_(max_payload), max_version_(max_version) {}

  /// Buffer `size` more stream bytes.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Next complete frame with its payload copied out, or nullopt while one
  /// is still partial.  Throws ProtocolError on bad magic / version / flags
  /// / oversized declaration / CRC mismatch; the decoder is unusable
  /// afterwards and the connection should be dropped.
  std::optional<Frame> next();

  /// Zero-copy variant of next(): the returned payload is a span into this
  /// decoder's buffer, valid only until the next feed().  The CRC check
  /// runs in place over the buffered bytes, so a valid frame is surfaced
  /// without a single payload copy.
  std::optional<FrameView> next_view();

  /// Bytes buffered but not yet returned as frames (nonzero at connection
  /// close = the peer died mid-frame).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Capacity of the internal stream buffer — observability hook for the
  /// steady-state no-allocation tests.
  std::size_t buffer_capacity() const { return buffer_.capacity(); }

 private:
  /// Validate and parse the header at the front of the unconsumed region.
  /// nullopt while the header or declared payload is still partial; throws
  /// ProtocolError on any malformed field.
  std::optional<FrameHeader> parse_ready_header() const;

  std::size_t max_payload_;
  std::uint8_t max_version_ = kProtocolVersion;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace gppm::net
