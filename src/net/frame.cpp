#include "net/frame.hpp"

#include <algorithm>

namespace gppm::net {

bool frame_type_known(std::uint8_t raw, std::uint8_t version) {
  const std::uint8_t last =
      version >= 2 ? static_cast<std::uint8_t>(FrameType::HealthResponse)
                   : static_cast<std::uint8_t>(FrameType::ErrorReply);
  return raw >= static_cast<std::uint8_t>(FrameType::Ping) && raw <= last;
}

std::uint8_t frame_min_version(FrameType type) {
  switch (type) {
    case FrameType::HealthRequest:
    case FrameType::HealthResponse:
      return 2;
    default:
      return kBaseProtocolVersion;
  }
}

std::string to_string(FrameType type) {
  switch (type) {
    case FrameType::Ping: return "ping";
    case FrameType::Pong: return "pong";
    case FrameType::InfoRequest: return "info-request";
    case FrameType::InfoResponse: return "info-response";
    case FrameType::PredictRequest: return "predict-request";
    case FrameType::PredictResponse: return "predict-response";
    case FrameType::ErrorReply: return "error-reply";
    case FrameType::HealthRequest: return "health-request";
    case FrameType::HealthResponse: return "health-response";
  }
  return "unknown";
}

void encode_frame_into(std::vector<std::uint8_t>& out, FrameType type,
                       std::span<const std::uint8_t> payload,
                       std::uint64_t deadline_micros, std::uint8_t version) {
  GPPM_CHECK(payload.size() <= 0xffffffffull, "frame payload too large");
  if (version == 0) version = frame_min_version(type);
  GPPM_CHECK(version >= frame_min_version(type) && version <= kProtocolVersion,
             "frame version outside this build's range");
  // Stage the full header in a stack array and append it with one insert —
  // two bulk inserts per frame instead of a dozen field-sized pushes.
  std::array<std::uint8_t, kFrameHeaderSize> head;
  std::copy(kFrameMagic.begin(), kFrameMagic.end(), head.begin());
  head[4] = version;
  head[5] = static_cast<std::uint8_t>(type);
  head[6] = 0;  // flags, reserved
  head[7] = 0;
  const auto u32_at = [&head](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      head[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
  };
  u32_at(8, static_cast<std::uint32_t>(payload.size()));
  u32_at(12, crc32(payload));
  for (int i = 0; i < 8; ++i) {
    head[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(deadline_micros >> (8 * i));
  }
  // Grow geometrically: a batch appends frame after frame to one buffer,
  // and an exact-fit reserve would reallocate (and copy) on every frame.
  const std::size_t need = out.size() + kFrameHeaderSize + payload.size();
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload,
                                       std::uint64_t deadline_micros,
                                       std::uint8_t version) {
  std::vector<std::uint8_t> out;
  encode_frame_into(out, type, payload, deadline_micros, version);
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Reclaim fully consumed prefix before growing, so a long-lived
  // connection's buffer stays proportional to one frame, not to traffic.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= (1u << 16)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<FrameHeader> FrameDecoder::parse_ready_header() const {
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;

  WireReader reader(head, kFrameHeaderSize);
  std::array<std::uint8_t, 4> magic;
  for (std::uint8_t& b : magic) b = reader.u8();
  if (magic != kFrameMagic) throw ProtocolError("bad frame magic");
  const std::uint8_t version = reader.u8();
  if (version < kBaseProtocolVersion || version > max_version_) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version));
  }
  const std::uint8_t raw_type = reader.u8();
  if (!frame_type_known(raw_type, version)) {
    throw ProtocolError("unknown frame type " + std::to_string(raw_type) +
                        " for protocol version " + std::to_string(version));
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(raw_type);
  header.version = version;
  if (frame_min_version(header.type) > version) {
    throw ProtocolError(to_string(header.type) +
                        " frame stamped with pre-dating version " +
                        std::to_string(version));
  }
  header.flags = reader.u16();
  if (header.flags != 0) {
    throw ProtocolError("nonzero reserved flags " +
                        std::to_string(header.flags));
  }
  header.payload_size = reader.u32();
  header.payload_crc = reader.u32();
  header.deadline_micros = reader.u64();

  // Reject an oversized declaration before buffering (or allocating) any
  // of the announced payload.
  if (header.payload_size > max_payload_) {
    throw ProtocolError("declared payload of " +
                        std::to_string(header.payload_size) +
                        " bytes exceeds the " + std::to_string(max_payload_) +
                        "-byte cap");
  }
  if (buffered() < kFrameHeaderSize + header.payload_size) return std::nullopt;
  return header;
}

std::optional<FrameView> FrameDecoder::next_view() {
  const std::optional<FrameHeader> header = parse_ready_header();
  if (!header) return std::nullopt;

  // CRC runs in place over the buffered bytes — the payload is never
  // copied on this path.
  const std::span<const std::uint8_t> body(
      buffer_.data() + consumed_ + kFrameHeaderSize, header->payload_size);
  if (crc32(body) != header->payload_crc) {
    throw ProtocolError("payload CRC mismatch on " + to_string(header->type) +
                        " frame");
  }
  consumed_ += kFrameHeaderSize + header->payload_size;
  return FrameView{*header, body};
}

std::optional<Frame> FrameDecoder::next() {
  const std::optional<FrameView> view = next_view();
  if (!view) return std::nullopt;
  Frame frame;
  frame.header = view->header;
  frame.payload.assign(view->payload.begin(), view->payload.end());
  return frame;
}

}  // namespace gppm::net
