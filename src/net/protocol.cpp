#include "net/protocol.hpp"

#include <cmath>
#include <optional>

#include "gpusim/device_spec.hpp"
#include "profiler/counters.hpp"

namespace gppm::net {

namespace {

/// Decode a wire enum byte, rejecting values outside [0, count).
template <typename E>
E checked_enum(std::uint8_t raw, std::uint8_t count, const char* what) {
  if (raw >= count) {
    throw ProtocolError(std::string("out-of-range ") + what + " value " +
                        std::to_string(raw));
  }
  return static_cast<E>(raw);
}

void encode_pair(WireWriter& w, sim::FrequencyPair pair) {
  w.u8(static_cast<std::uint8_t>(sim::level_index(pair.core)));
  w.u8(static_cast<std::uint8_t>(sim::level_index(pair.mem)));
}

sim::FrequencyPair decode_pair(WireReader& r) {
  sim::FrequencyPair pair;
  pair.core = checked_enum<sim::ClockLevel>(r.u8(), 3, "core clock level");
  pair.mem = checked_enum<sim::ClockLevel>(r.u8(), 3, "memory clock level");
  return pair;
}

/// Counter-count value that marks a dense (v4) counter body.  The name
/// form cannot carry it: 65,535 readings of at least 19 bytes each exceed
/// the 1 MiB payload cap, and the encoder refuses that many.
constexpr std::uint16_t kDenseMarker = 0xffff;

/// Bytes before the counter body: request id, kind, gpu, policy, pair.
constexpr std::size_t kRequestHeadBytes = 13;

/// The architecture whose counter catalog `request`'s readings are exactly
/// (same count, order, names and classes), or nullopt: such a request
/// crosses the wire in the dense form.
std::optional<sim::Architecture> dense_architecture(
    const serve::Request& request) {
  const sim::Architecture arch = sim::device_spec(request.gpu).architecture;
  const std::vector<profiler::CounterDef>& catalog =
      profiler::counter_catalog(arch);
  const std::vector<profiler::CounterReading>& readings =
      request.counters.counters;
  if (readings.size() != catalog.size()) return std::nullopt;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (readings[i].klass != catalog[i].klass ||
        readings[i].name != catalog[i].name) {
      return std::nullopt;
    }
  }
  return arch;
}

/// The frame version a PredictRequest payload in the given form requires.
std::uint8_t request_version(bool dense, const serve::Request& request) {
  if (dense) return kDenseRequestVersion;
  return request.tenant != 0 ? 3 : kBaseProtocolVersion;
}

void encode_counters(WireWriter& w, const profiler::ProfileResult& counters) {
  GPPM_CHECK(counters.counters.size() < kDenseMarker, "too many counters");
  w.u16(static_cast<std::uint16_t>(counters.counters.size()));
  for (const profiler::CounterReading& c : counters.counters) {
    w.str(c.name);
    w.u8(static_cast<std::uint8_t>(c.klass));
    w.f64(c.total);
    w.f64(c.per_second);
  }
  w.f64(counters.run_time.as_seconds());
}

/// Dense body: catalog id, run time, then (total, per-second) per catalog
/// index.  The names and classes are the catalog's, so none are written.
void encode_dense_counters(WireWriter& w, sim::Architecture arch,
                           const profiler::ProfileResult& counters) {
  w.u16(kDenseMarker);
  w.u64(profiler::catalog_id(arch));
  w.f64(counters.run_time.as_seconds());
  for (const profiler::CounterReading& c : counters.counters) {
    w.f64(c.total);
    w.f64(c.per_second);
  }
}

profiler::ProfileResult decode_counters(WireReader& r, std::size_t count) {
  profiler::ProfileResult result;
  // Each reading is at least 19 bytes (empty name); a count the remaining
  // bytes cannot possibly hold is rejected before reserving for it.
  if (count * 19 > r.remaining()) {
    throw ProtocolError("counter count " + std::to_string(count) +
                        " exceeds payload");
  }
  result.counters.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    profiler::CounterReading reading;
    reading.name = r.str();
    reading.klass =
        checked_enum<profiler::EventClass>(r.u8(), 2, "event class");
    reading.total = r.f64();
    reading.per_second = r.f64();
    result.counters.push_back(std::move(reading));
  }
  result.run_time = Duration::seconds(r.f64());
  return result;
}

/// Inverse of encode_dense_counters: the id must be the catalog id of
/// `gpu`'s architecture, and the rest of the payload exactly one pair per
/// catalog counter plus, optionally, the 4-byte tenant trailer.
profiler::ProfileResult decode_dense_counters(WireReader& r,
                                              sim::GpuModel gpu) {
  const sim::Architecture arch = sim::device_spec(gpu).architecture;
  const std::uint64_t id = r.u64();
  if (id != profiler::catalog_id(arch)) {
    throw ProtocolError("catalog id " + std::to_string(id) + " is not the " +
                        sim::to_string(arch) + " catalog of " +
                        sim::to_string(gpu));
  }
  const std::vector<profiler::CounterDef>& catalog =
      profiler::counter_catalog(arch);
  profiler::ProfileResult result;
  result.run_time = Duration::seconds(r.f64());
  const std::size_t body = catalog.size() * 16;
  if (r.remaining() != body && r.remaining() != body + 4) {
    throw ProtocolError("dense counter body of " +
                        std::to_string(r.remaining()) + " bytes; the " +
                        sim::to_string(arch) + " catalog needs " +
                        std::to_string(body));
  }
  result.counters.reserve(catalog.size());
  for (const profiler::CounterDef& def : catalog) {
    profiler::CounterReading reading;
    reading.name = def.name;
    reading.klass = def.klass;
    reading.total = r.f64();
    reading.per_second = r.f64();
    result.counters.push_back(std::move(reading));
  }
  return result;
}

}  // namespace

std::uint64_t deadline_to_micros(Duration deadline) {
  const double seconds = deadline.as_seconds();
  if (!(seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::ceil(seconds * 1e6));
}

Duration deadline_from_micros(std::uint64_t micros) {
  return Duration::microseconds(static_cast<double>(micros));
}

std::uint8_t encode_predict_request_into(WireWriter& w,
                                         std::uint64_t request_id,
                                         const serve::Request& request) {
  const std::optional<sim::Architecture> dense = dense_architecture(request);
  const std::vector<profiler::CounterReading>& readings =
      request.counters.counters;
  const std::size_t trailer = request.tenant != 0 ? 4 : 0;
  // Size the payload once: head, count, run time and two values per
  // reading, plus the catalog id (dense) or each name and class.
  std::size_t size =
      kRequestHeadBytes + 2 + 8 + readings.size() * 16 + trailer;
  if (dense) {
    size += 8;
  } else {
    for (const profiler::CounterReading& c : readings) {
      size += 3 + c.name.size();
    }
  }
  w.reserve(w.size() + size);

  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(request.kind));
  w.u8(static_cast<std::uint8_t>(request.gpu));
  w.u8(static_cast<std::uint8_t>(request.policy));
  encode_pair(w, request.pair);
  if (dense) {
    encode_dense_counters(w, *dense, request.counters);
  } else {
    encode_counters(w, request.counters);
  }
  // Tenant trailer (v3): only a nonzero tenant changes the byte layout, so
  // tenant-0 traffic stays bit-identical to what a v1 peer expects.
  if (trailer != 0) w.u32(request.tenant);
  return request_version(dense.has_value(), request);
}

std::vector<std::uint8_t> encode_predict_request(
    std::uint64_t request_id, const serve::Request& request) {
  WireWriter w;
  encode_predict_request_into(w, request_id, request);
  return w.take();
}

std::uint8_t predict_request_version(const serve::Request& request) {
  return request_version(dense_architecture(request).has_value(), request);
}

DecodedRequest decode_predict_request(std::span<const std::uint8_t> payload,
                                      std::uint64_t deadline_micros,
                                      std::uint8_t frame_version) {
  WireReader r(payload);
  DecodedRequest decoded;
  decoded.request_id = r.u64();
  decoded.request.kind = checked_enum<serve::RequestKind>(
      r.u8(), serve::kRequestKindCount, "request kind");
  decoded.request.gpu = checked_enum<sim::GpuModel>(
      r.u8(), static_cast<std::uint8_t>(sim::kAllGpus.size()), "gpu model");
  decoded.request.policy =
      checked_enum<core::GovernorPolicy>(r.u8(), 3, "governor policy");
  decoded.request.pair = decode_pair(r);
  const std::uint16_t count = r.u16();
  if (count == kDenseMarker) {
    if (frame_version < kDenseRequestVersion) {
      throw ProtocolError("dense counter body in a version-" +
                          std::to_string(frame_version) + " frame");
    }
    decoded.request.counters = decode_dense_counters(r, decoded.request.gpu);
  } else {
    decoded.request.counters = decode_counters(r, count);
  }
  decoded.request.deadline = deadline_from_micros(deadline_micros);
  if (r.remaining() == 4) {
    decoded.request.tenant = r.u32();
    // The trailer exists precisely because the tenant is nonzero; a zero
    // here means the encoder and decoder disagree about the layout.
    if (decoded.request.tenant == 0) {
      throw ProtocolError("tenant trailer carries tenant 0");
    }
  }
  r.expect_done("predict-request");
  return decoded;
}

void encode_predict_response_into(WireWriter& w, std::uint64_t request_id,
                                  const serve::Response& response) {
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(response.kind));
  w.u8(static_cast<std::uint8_t>(response.status));
  encode_pair(w, response.pair);
  w.f64(response.power_watts);
  w.f64(response.time_seconds);
  w.f64(response.energy_joules);
  w.u8(response.cache_hit ? 1 : 0);
  w.f64(response.latency.as_seconds());
  w.str(response.error);
}

std::vector<std::uint8_t> encode_predict_response(
    std::uint64_t request_id, const serve::Response& response) {
  WireWriter w;
  encode_predict_response_into(w, request_id, response);
  return w.take();
}

DecodedResponse decode_predict_response(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  DecodedResponse decoded;
  decoded.request_id = r.u64();
  decoded.response.kind = checked_enum<serve::RequestKind>(
      r.u8(), serve::kRequestKindCount, "response kind");
  decoded.response.status =
      checked_enum<serve::ResponseStatus>(r.u8(), 5, "response status");
  decoded.response.pair = decode_pair(r);
  decoded.response.power_watts = r.f64();
  decoded.response.time_seconds = r.f64();
  decoded.response.energy_joules = r.f64();
  const std::uint8_t hit = r.u8();
  if (hit > 1) throw ProtocolError("bad cache-hit flag");
  decoded.response.cache_hit = hit != 0;
  decoded.response.latency = Duration::seconds(r.f64());
  decoded.response.error = r.str();
  r.expect_done("predict-response");
  return decoded;
}

std::vector<std::uint8_t> encode_server_info(const ServerInfo& info) {
  WireWriter w;
  w.u8(info.protocol_version);
  GPPM_CHECK(info.boards.size() <= 0xff, "too many boards");
  w.u8(static_cast<std::uint8_t>(info.boards.size()));
  for (const ModelInfo& board : info.boards) {
    w.u8(static_cast<std::uint8_t>(board.gpu));
    w.u64(board.power_fingerprint);
    w.u64(board.perf_fingerprint);
  }
  return w.take();
}

ServerInfo decode_server_info(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  ServerInfo info;
  info.protocol_version = r.u8();
  const std::size_t count = r.u8();
  info.boards.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ModelInfo board;
    board.gpu = checked_enum<sim::GpuModel>(
        r.u8(), static_cast<std::uint8_t>(sim::kAllGpus.size()), "gpu model");
    board.power_fingerprint = r.u64();
    board.perf_fingerprint = r.u64();
    info.boards.push_back(board);
  }
  r.expect_done("info-response");
  return info;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t token) {
  WireWriter w;
  w.u64(token);
  return w.take();
}

std::uint64_t decode_ping(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  const std::uint64_t token = r.u64();
  r.expect_done("ping");
  return token;
}

std::vector<std::uint8_t> encode_health_request(std::uint64_t token) {
  WireWriter w;
  w.u64(token);
  return w.take();
}

std::uint64_t decode_health_request(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  const std::uint64_t token = r.u64();
  r.expect_done("health-request");
  return token;
}

std::vector<std::uint8_t> encode_health_response(std::uint64_t token,
                                                 const HealthStatus& status) {
  WireWriter w;
  w.u64(token);
  w.u8(status.protocol_version);
  w.u8(status.accepting ? 1 : 0);
  w.u16(status.boards);
  w.u32(status.queue_depth);
  w.u32(status.queue_capacity);
  w.u32(status.workers);
  return w.take();
}

DecodedHealth decode_health_response(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  DecodedHealth decoded;
  decoded.token = r.u64();
  decoded.status.protocol_version = r.u8();
  const std::uint8_t accepting = r.u8();
  if (accepting > 1) throw ProtocolError("bad health accepting flag");
  decoded.status.accepting = accepting != 0;
  decoded.status.boards = r.u16();
  decoded.status.queue_depth = r.u32();
  decoded.status.queue_capacity = r.u32();
  decoded.status.workers = r.u32();
  r.expect_done("health-response");
  return decoded;
}

std::vector<std::uint8_t> encode_wire_error(const WireError& error) {
  WireWriter w;
  w.u16(static_cast<std::uint16_t>(error.code));
  w.str(error.message);
  return w.take();
}

WireError decode_wire_error(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireError error;
  const std::uint16_t code = r.u16();
  if (code < 1 || code > 3) {
    throw ProtocolError("unknown wire error code " + std::to_string(code));
  }
  error.code = static_cast<WireErrorCode>(code);
  error.message = r.str();
  r.expect_done("error-reply");
  return error;
}

}  // namespace gppm::net
