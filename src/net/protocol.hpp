// Payload codecs: serve:: request/response vocabulary <-> frame payloads.
//
// The RPC surface mirrors the in-process PredictionServer exactly — a
// PredictRequest frame carries one serve::Request (kind, board, counter
// profile, pair, policy), a PredictResponse carries the serve::Response
// verbatim including the typed ResponseStatus — so a client cannot tell a
// wire prediction from an in-process one (the loopback integration test
// asserts bit-identity).  The service deadline is NOT part of these
// payloads: it rides in the frame header (frame.hpp) so the transport can
// stamp it onto the bridged request without running the payload codec.
//
// Every decoder validates enum ranges and exact payload consumption and
// throws ProtocolError on anything out of contract.  Model metadata
// (fingerprints) reuses core::model_fingerprint, i.e. the pinned
// core/serialization byte format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "serve/request.hpp"

namespace gppm::net {

/// The protocol version that introduced the dense (catalog-indexed)
/// PredictRequest counter body.
inline constexpr std::uint8_t kDenseRequestVersion = 4;

/// One served board as announced by InfoResponse.
struct ModelInfo {
  sim::GpuModel gpu = sim::GpuModel::GTX680;
  std::uint64_t power_fingerprint = 0;
  std::uint64_t perf_fingerprint = 0;
};

/// Server self-description (InfoResponse payload).
struct ServerInfo {
  std::uint8_t protocol_version = kProtocolVersion;
  std::vector<ModelInfo> boards;
};

/// Error codes carried by ErrorReply frames (u16 on the wire, so the
/// taxonomy can grow without a version bump).
enum class WireErrorCode : std::uint16_t {
  Malformed = 1,     ///< the peer's frame failed to decode
  ShuttingDown = 2,  ///< the backend rejected the request: shutdown
  Internal = 3,      ///< unexpected server-side failure
};

struct WireError {
  WireErrorCode code = WireErrorCode::Internal;
  std::string message;
};

/// A PredictRequest payload, decoded.  The request's deadline has already
/// been stamped from the frame header by decode_predict_request.
struct DecodedRequest {
  std::uint64_t request_id = 0;
  serve::Request request;
};

struct DecodedResponse {
  std::uint64_t request_id = 0;
  serve::Response response;
};

// Decoders take spans so the server's zero-copy path can hand them a view
// straight into the connection's stream buffer (FrameView::payload); a
// std::vector payload converts implicitly, so copy-holding callers (the
// client, the tests) are untouched.

// --- PredictRequest -------------------------------------------------------
/// A request's counter body takes one of two forms:
///  - dense (v4): when the readings are exactly the counter catalog of
///    `request.gpu`'s architecture (same count, order, names and classes),
///    the body is the catalog id (profiler::catalog_id), the run time and
///    one (total, per-second) pair per catalog index — no names;
///  - name form (v1): every other profile (mix pseudo-counters appended, a
///    hand-built one) spells each reading out as name, class and values.
/// A nonzero tenant appends a u32 tenant-id trailer to either form.  The
/// frame carrying the payload must be stamped with the version the payload
/// requires (predict_request_version, or the value the _into variant
/// returns), so an older peer rejects it cleanly instead of mis-parsing.
std::vector<std::uint8_t> encode_predict_request(std::uint64_t request_id,
                                                 const serve::Request& request);
/// Arena variant: append the payload to `w` (not cleared first), sized once
/// up front, and return the frame version it requires.
std::uint8_t encode_predict_request_into(WireWriter& w,
                                         std::uint64_t request_id,
                                         const serve::Request& request);
/// Decodes either form, told apart by the payload alone.  `frame_version`
/// is the version the carrying frame was stamped with: a dense body in a
/// frame stamped below kDenseRequestVersion is a ProtocolError, as are a
/// catalog id other than that of the decoded board's architecture and a
/// dense body that is not exactly one pair per catalog counter (plus the
/// optional trailer).  A dense body decodes to the readings the name form
/// would have carried, field for field.
DecodedRequest decode_predict_request(
    std::span<const std::uint8_t> payload, std::uint64_t deadline_micros,
    std::uint8_t frame_version = kProtocolVersion);
/// The frame version a PredictRequest payload requires: kDenseRequestVersion
/// for the dense form; for the name form, the base version for tenant 0 and
/// version 3 once a tenant trailer rides along.
std::uint8_t predict_request_version(const serve::Request& request);

// --- PredictResponse ------------------------------------------------------
std::vector<std::uint8_t> encode_predict_response(
    std::uint64_t request_id, const serve::Response& response);
/// Arena variant: append the payload to `w` (not cleared first) so a
/// per-connection scratch writer can cycle through responses without
/// reallocating at steady state.
void encode_predict_response_into(WireWriter& w, std::uint64_t request_id,
                                  const serve::Response& response);
DecodedResponse decode_predict_response(std::span<const std::uint8_t> payload);

// --- Info -----------------------------------------------------------------
std::vector<std::uint8_t> encode_server_info(const ServerInfo& info);
ServerInfo decode_server_info(std::span<const std::uint8_t> payload);

// --- Ping / Pong ----------------------------------------------------------
std::vector<std::uint8_t> encode_ping(std::uint64_t token);
std::uint64_t decode_ping(std::span<const std::uint8_t> payload);

// --- Health (protocol v2) -------------------------------------------------

/// Liveness + load snapshot carried by a HealthResponse.  Deliberately
/// small and answered inline by the transport (never bridged through the
/// prediction queue), so a health probe observes queue pressure instead of
/// adding to it.
struct HealthStatus {
  std::uint8_t protocol_version = kProtocolVersion;
  bool accepting = true;            ///< false once shutdown has begun
  std::uint16_t boards = 0;         ///< served model pairs
  std::uint32_t queue_depth = 0;    ///< requests waiting in the serve queue
  std::uint32_t queue_capacity = 0; ///< serve queue bound
  std::uint32_t workers = 0;        ///< prediction worker threads
};

struct DecodedHealth {
  std::uint64_t token = 0;  ///< echo of the request token
  HealthStatus status;
};

std::vector<std::uint8_t> encode_health_request(std::uint64_t token);
std::uint64_t decode_health_request(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_health_response(std::uint64_t token,
                                                 const HealthStatus& status);
DecodedHealth decode_health_response(std::span<const std::uint8_t> payload);

// --- ErrorReply -----------------------------------------------------------
std::vector<std::uint8_t> encode_wire_error(const WireError& error);
WireError decode_wire_error(std::span<const std::uint8_t> payload);

/// Deadline header field <-> serve deadline (Duration; 0 = none).
std::uint64_t deadline_to_micros(Duration deadline);
Duration deadline_from_micros(std::uint64_t micros);

}  // namespace gppm::net
