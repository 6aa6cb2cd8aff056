// Protocol v4: a predict request whose readings are exactly its board's
// counter catalog crosses the wire as a catalog id plus dense values.
// These tests pin the two forms against each other (same decoded request,
// field for field, over every corpus phase of every board), the rejection
// of every malformed dense body, interoperability with a pre-v4 client, and
// a fixed-iteration fuzz that feeds mutated payloads straight to the
// decoder (the frame fuzz tests cannot reach it: their corruption fails the
// frame CRC first).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/features.hpp"
#include "gpusim/device_spec.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "profiler/counters.hpp"
#include "serve/cache.hpp"
#include "serve/trace.hpp"

namespace gppm::net {
namespace {

/// Dense payload bytes before the per-counter pairs: request id, kind,
/// gpu, policy, pair (13), the 0xffff marker (2), catalog id and run time.
constexpr std::size_t kDenseHeadBytes = 13 + 2 + 8 + 8;
/// Offset of the catalog id in a dense payload.
constexpr std::size_t kCatalogIdOffset = 15;

/// The name-form payload a pre-v4 client writes for `request`: every
/// reading spelled out as name, class, total and per-second value.
std::vector<std::uint8_t> name_form_payload(std::uint64_t request_id,
                                            const serve::Request& request) {
  WireWriter w;
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(request.kind));
  w.u8(static_cast<std::uint8_t>(request.gpu));
  w.u8(static_cast<std::uint8_t>(request.policy));
  w.u8(static_cast<std::uint8_t>(sim::level_index(request.pair.core)));
  w.u8(static_cast<std::uint8_t>(sim::level_index(request.pair.mem)));
  w.u16(static_cast<std::uint16_t>(request.counters.counters.size()));
  for (const profiler::CounterReading& c : request.counters.counters) {
    w.str(c.name);
    w.u8(static_cast<std::uint8_t>(c.klass));
    w.f64(c.total);
    w.f64(c.per_second);
  }
  w.f64(request.counters.run_time.as_seconds());
  if (request.tenant != 0) w.u32(request.tenant);
  return w.take();
}

/// Every board's 114-phase corpus, built once per process.
const serve::PhaseCorpus& corpus(sim::GpuModel gpu) {
  static const std::array<serve::PhaseCorpus, 4> corpora = {
      serve::build_phase_corpus(sim::GpuModel::GTX285, true),
      serve::build_phase_corpus(sim::GpuModel::GTX460, true),
      serve::build_phase_corpus(sim::GpuModel::GTX480, true),
      serve::build_phase_corpus(sim::GpuModel::GTX680, true)};
  return corpora[static_cast<std::size_t>(gpu)];
}

serve::Request catalog_request(sim::GpuModel gpu, std::size_t phase = 0) {
  serve::Request request;
  request.kind = serve::RequestKind::Predict;
  request.gpu = gpu;
  request.counters = corpus(gpu).counters.at(phase);
  request.pair = {sim::ClockLevel::Medium, sim::ClockLevel::High};
  request.policy = core::GovernorPolicy::MinimumEdp;
  return request;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-for-field equality of two decoded requests, doubles by bit
/// pattern.
void expect_same_request(const DecodedRequest& a, const DecodedRequest& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.request.kind, b.request.kind);
  EXPECT_EQ(a.request.gpu, b.request.gpu);
  EXPECT_EQ(a.request.policy, b.request.policy);
  EXPECT_EQ(a.request.pair, b.request.pair);
  EXPECT_EQ(a.request.tenant, b.request.tenant);
  EXPECT_EQ(bits(a.request.deadline.as_seconds()),
            bits(b.request.deadline.as_seconds()));
  EXPECT_EQ(bits(a.request.counters.run_time.as_seconds()),
            bits(b.request.counters.run_time.as_seconds()));
  ASSERT_EQ(a.request.counters.counters.size(),
            b.request.counters.counters.size());
  for (std::size_t i = 0; i < a.request.counters.counters.size(); ++i) {
    const profiler::CounterReading& x = a.request.counters.counters[i];
    const profiler::CounterReading& y = b.request.counters.counters[i];
    EXPECT_EQ(x.name, y.name) << i;
    EXPECT_EQ(x.klass, y.klass) << i;
    EXPECT_EQ(bits(x.total), bits(y.total)) << x.name;
    EXPECT_EQ(bits(x.per_second), bits(y.per_second)) << x.name;
  }
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(NetDenseRequest, CatalogProfileTakesTheDenseForm) {
  for (const sim::GpuModel gpu : sim::kAllGpus) {
    const serve::Request request = catalog_request(gpu);
    const std::size_t n = request.counters.counters.size();
    EXPECT_EQ(predict_request_version(request), kDenseRequestVersion);
    const std::vector<std::uint8_t> dense = encode_predict_request(5, request);
    EXPECT_EQ(dense.size(), kDenseHeadBytes + n * 16) << sim::to_string(gpu);
    EXPECT_LT(dense.size(), name_form_payload(5, request).size());

    WireWriter arena;
    EXPECT_EQ(encode_predict_request_into(arena, 5, request),
              kDenseRequestVersion);
    EXPECT_EQ(arena.data(), dense);
  }
}

TEST(NetDenseRequest, DenseDecodesLikeNameFormOnEveryCorpusPhase) {
  for (const sim::GpuModel gpu : sim::kAllGpus) {
    const serve::PhaseCorpus& phases = corpus(gpu);
    EXPECT_EQ(phases.counters.size(), 114u) << sim::to_string(gpu);
    for (std::size_t p = 0; p < phases.counters.size(); ++p) {
      const serve::Request request = catalog_request(gpu, p);
      const std::vector<std::uint8_t> dense =
          encode_predict_request(p, request);
      ASSERT_EQ(dense.size(),
                kDenseHeadBytes + request.counters.counters.size() * 16)
          << phases.names[p];
      const DecodedRequest from_dense = decode_predict_request(dense, 1500);
      const DecodedRequest from_names = decode_predict_request(
          name_form_payload(p, request), 1500, kBaseProtocolVersion);
      expect_same_request(from_dense, from_names);
      EXPECT_EQ(serve::counters_fingerprint(from_dense.request.counters),
                serve::counters_fingerprint(from_names.request.counters))
          << phases.names[p];
      EXPECT_EQ(serve::counters_fingerprint(from_dense.request.counters),
                serve::counters_fingerprint(request.counters))
          << phases.names[p];
    }
  }
}

TEST(NetDenseRequest, TenantTrailerRidesTheDenseForm) {
  serve::Request request = catalog_request(sim::GpuModel::GTX480);
  request.tenant = 31337;
  const std::vector<std::uint8_t> dense = encode_predict_request(3, request);
  EXPECT_EQ(predict_request_version(request), kDenseRequestVersion);
  EXPECT_EQ(dense.size(),
            kDenseHeadBytes + request.counters.counters.size() * 16 + 4);
  const DecodedRequest decoded = decode_predict_request(dense, 0);
  EXPECT_EQ(decoded.request.tenant, 31337u);
  expect_same_request(decoded, decode_predict_request(
                                   name_form_payload(3, request), 0, 3));

  // A dense trailer announcing tenant 0 is the same layout disagreement as
  // in the name form.
  std::vector<std::uint8_t> zeroed = dense;
  for (std::size_t i = zeroed.size() - 4; i < zeroed.size(); ++i) {
    zeroed[i] = 0;
  }
  EXPECT_THROW(decode_predict_request(zeroed, 0), ProtocolError);
}

TEST(NetDenseRequest, NonCatalogProfilesKeepTheNameForm) {
  const serve::Request base = catalog_request(sim::GpuModel::GTX680);

  serve::Request renamed = base;
  renamed.counters.counters[11].name += "_v2";
  serve::Request reclassed = base;
  profiler::CounterReading& flipped = reclassed.counters.counters[11];
  flipped.klass = flipped.klass == profiler::EventClass::Core
                      ? profiler::EventClass::Memory
                      : profiler::EventClass::Core;
  serve::Request mixed = base;
  mixed.counters.counters.push_back(
      {std::string(core::kMixFeaturePrefix) + "bw_pressure",
       profiler::EventClass::Memory, 0.5, 1.25});
  // test_protocol.cpp's hand-built 3-counter GTX 480 sample.
  serve::Request sample;
  sample.kind = serve::RequestKind::Optimize;
  sample.gpu = sim::GpuModel::GTX480;
  sample.counters.counters = {
      {"inst_issued", profiler::EventClass::Core, 1.25e9, 3.1e9},
      {"fb_subp0_read_sectors", profiler::EventClass::Memory, 7.5e6, 0.1},
      {"", profiler::EventClass::Core, 0.0, -0.0}};
  sample.counters.run_time = Duration::seconds(0.40625);
  sample.pair = {sim::ClockLevel::High, sim::ClockLevel::Low};
  sample.policy = core::GovernorPolicy::PowerCap;

  for (const serve::Request* request :
       {&renamed, &reclassed, &mixed, &sample}) {
    EXPECT_EQ(predict_request_version(*request), kBaseProtocolVersion);
    const std::vector<std::uint8_t> payload =
        encode_predict_request(8, *request);
    // Byte for byte what a pre-v4 client writes.
    EXPECT_EQ(payload, name_form_payload(8, *request));
    const DecodedRequest decoded =
        decode_predict_request(payload, 0, kBaseProtocolVersion);
    ASSERT_EQ(decoded.request.counters.counters.size(),
              request->counters.counters.size());
    for (std::size_t i = 0; i < request->counters.counters.size(); ++i) {
      const profiler::CounterReading& in = request->counters.counters[i];
      const profiler::CounterReading& out =
          decoded.request.counters.counters[i];
      EXPECT_EQ(out.name, in.name);
      EXPECT_EQ(out.klass, in.klass);
      EXPECT_EQ(bits(out.total), bits(in.total));
      EXPECT_EQ(bits(out.per_second), bits(in.per_second));
    }
    EXPECT_EQ(bits(decoded.request.counters.run_time.as_seconds()),
              bits(request->counters.run_time.as_seconds()));
  }
}

TEST(NetDenseRequest, EncoderRefusesTheDenseMarkerCount) {
  // 0xffff readings would collide with the dense marker; no name-form
  // payload that large fits the 1 MiB frame cap anyway.
  serve::Request request = catalog_request(sim::GpuModel::GTX285);
  request.counters.counters.assign(0xffff, profiler::CounterReading{});
  EXPECT_THROW(encode_predict_request(1, request), Error);
}

TEST(NetDenseRequest, RejectsForeignAndUnknownCatalogIds) {
  const std::vector<std::uint8_t> dense =
      encode_predict_request(1, catalog_request(sim::GpuModel::GTX680));
  ASSERT_NO_THROW(decode_predict_request(dense, 0));

  // Another board's catalog id under a Kepler board...
  std::vector<std::uint8_t> foreign = dense;
  put_u64(foreign, kCatalogIdOffset,
          profiler::catalog_id(sim::Architecture::Fermi));
  EXPECT_THROW(decode_predict_request(foreign, 0), ProtocolError);
  // ...an id no catalog has...
  std::vector<std::uint8_t> unknown = dense;
  put_u64(unknown, kCatalogIdOffset, 0x0123456789abcdefull);
  EXPECT_THROW(decode_predict_request(unknown, 0), ProtocolError);
  // ...and a Kepler body relabeled as a Fermi board.
  std::vector<std::uint8_t> relabeled = dense;
  relabeled[9] = static_cast<std::uint8_t>(sim::GpuModel::GTX480);
  EXPECT_THROW(decode_predict_request(relabeled, 0), ProtocolError);
}

TEST(NetDenseRequest, RejectsDenseBodyOneByteShortOrLong) {
  for (const bool tenant : {false, true}) {
    serve::Request request = catalog_request(sim::GpuModel::GTX460);
    request.tenant = tenant ? 9 : 0;
    const std::vector<std::uint8_t> dense = encode_predict_request(2, request);
    ASSERT_NO_THROW(decode_predict_request(dense, 0));
    const std::vector<std::uint8_t> shorter(dense.begin(), dense.end() - 1);
    EXPECT_THROW(decode_predict_request(shorter, 0), ProtocolError) << tenant;
    std::vector<std::uint8_t> longer = dense;
    longer.push_back(0);
    EXPECT_THROW(decode_predict_request(longer, 0), ProtocolError) << tenant;
  }
}

TEST(NetDenseRequest, DenseBodyNeedsAVersion4Frame) {
  const std::vector<std::uint8_t> dense =
      encode_predict_request(4, catalog_request(sim::GpuModel::GTX285));
  EXPECT_NO_THROW(decode_predict_request(dense, 0, kDenseRequestVersion));
  for (const std::uint8_t version : {1, 2, 3}) {
    EXPECT_THROW(decode_predict_request(dense, 0, version), ProtocolError)
        << int{version};
  }
}

TEST(NetDenseRequest, V3CappedDecoderRejectsV4Frame) {
  const std::vector<std::uint8_t> frame =
      encode_frame(FrameType::PredictRequest,
                   encode_predict_request(6, catalog_request(
                                                 sim::GpuModel::GTX680)),
                   0, kDenseRequestVersion);
  EXPECT_EQ(frame[4], kDenseRequestVersion);
  FrameDecoder v4_peer;
  v4_peer.feed(frame.data(), frame.size());
  EXPECT_TRUE(v4_peer.next().has_value());
  FrameDecoder v3_peer(kDefaultMaxPayload, /*max_version=*/3);
  v3_peer.feed(frame.data(), frame.size());
  EXPECT_THROW(v3_peer.next(), ProtocolError);
}

// --- Over loopback ----------------------------------------------------------

/// A GTX 460 backend behind a v4 wire server, plus a v4 client.
struct Gtx460Rig {
  Gtx460Rig() : server(backend) {
    static const core::Dataset ds =
        core::build_dataset(sim::GpuModel::GTX460);
    static const core::UnifiedModel power =
        core::UnifiedModel::fit(ds, core::TargetKind::Power);
    static const core::UnifiedModel perf =
        core::UnifiedModel::fit(ds, core::TargetKind::ExecTime);
    backend.load_models(power, perf);
    ClientOptions options;
    options.port = server.port();
    client = std::make_unique<Client>(options);
  }
  serve::PredictionServer backend;
  Server server;
  std::unique_ptr<Client> client;
};

/// Send one raw frame on a fresh connection and read one frame back.
Frame raw_exchange(std::uint16_t port, const std::vector<std::uint8_t>& frame,
                   Socket& socket) {
  socket = Socket::connect("127.0.0.1", port);
  socket.write_all(frame.data(), frame.size());
  FrameDecoder decoder;
  std::uint8_t buf[4096];
  while (true) {
    if (std::optional<Frame> reply = decoder.next()) return std::move(*reply);
    if (!socket.wait_readable(5000)) throw ConnectionError("no reply");
    const std::size_t n = socket.read_some(buf, sizeof buf);
    if (n == 0) throw ConnectionError("closed before a reply");
    decoder.feed(buf, n);
  }
}

TEST(NetDenseRequest, V3ClientWorksAgainstV4Server) {
  Gtx460Rig rig;
  for (const std::uint32_t tenant : {0u, 12u}) {
    serve::Request request = catalog_request(sim::GpuModel::GTX460, 7);
    request.tenant = tenant;
    // What a v3 client sends: the name form, stamped v1 (v3 with a tenant).
    const std::vector<std::uint8_t> legacy = encode_frame(
        FrameType::PredictRequest, name_form_payload(99, request), 0,
        tenant != 0 ? 3 : kBaseProtocolVersion);
    Socket socket;
    const Frame reply = raw_exchange(rig.server.port(), legacy, socket);
    ASSERT_EQ(reply.header.type, FrameType::PredictResponse);
    const DecodedResponse old_answer = decode_predict_response(reply.payload);
    EXPECT_EQ(old_answer.request_id, 99u);
    ASSERT_TRUE(old_answer.response.ok()) << old_answer.response.error;

    // The same request from this build's client rides the dense form.
    const std::uint64_t sent_before = rig.client->stats().bytes_sent;
    const serve::Response dense_answer = rig.client->predict(request);
    EXPECT_EQ(rig.client->stats().bytes_sent - sent_before,
              kFrameHeaderSize + encode_predict_request(0, request).size());
    EXPECT_TRUE(serve::bit_identical(old_answer.response, dense_answer));
  }
  EXPECT_EQ(rig.server.stats().protocol_errors, 0u);
}

TEST(NetDenseRequest, DenseBodyInV1FrameGetsErrorReplyAndDrop) {
  Gtx460Rig rig;
  const std::vector<std::uint8_t> downgraded = encode_frame(
      FrameType::PredictRequest,
      encode_predict_request(1, catalog_request(sim::GpuModel::GTX460)), 0,
      kBaseProtocolVersion);
  Socket socket;
  const Frame reply = raw_exchange(rig.server.port(), downgraded, socket);
  ASSERT_EQ(reply.header.type, FrameType::ErrorReply);
  EXPECT_EQ(decode_wire_error(reply.payload).code, WireErrorCode::Malformed);
  // Then EOF: the server dropped the connection.
  std::uint8_t buf[256];
  while (true) {
    ASSERT_TRUE(socket.wait_readable(5000));
    if (socket.read_some(buf, sizeof buf) == 0) break;
  }
  for (int i = 0; i < 100 && rig.server.stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rig.server.stats().protocol_errors, 1u);
  // Other connections are untouched.
  EXPECT_TRUE(
      rig.client->predict(catalog_request(sim::GpuModel::GTX460)).ok());
}

// --- Fuzz -------------------------------------------------------------------

TEST(NetPredictFuzz, MutatedPayloadsDecodeOrThrowProtocolError) {
  // Seeds: the dense and the name form (catalog plus one mix
  // pseudo-counter) of every board, with and without a tenant trailer.
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const sim::GpuModel gpu : sim::kAllGpus) {
    for (const std::uint32_t tenant : {0u, 77u}) {
      serve::Request request = catalog_request(gpu, 3);
      request.tenant = tenant;
      seeds.push_back(encode_predict_request(10, request));
      request.counters.counters.push_back(
          {std::string(core::kMixFeaturePrefix) + "sm_share",
           profiler::EventClass::Core, 0.25, 0.5});
      seeds.push_back(encode_predict_request(11, request));
    }
  }
  Rng rng(20261019);
  int decoded = 0;
  int rejected = 0;
  constexpr int kIterations = 6000;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<std::uint8_t> bytes = seeds[rng.uniform_index(seeds.size())];
    switch (rng.uniform_index(4)) {
      case 0: {  // flip 1-4 bytes anywhere
        const int flips = 1 + static_cast<int>(rng.uniform_index(4));
        for (int f = 0; f < flips; ++f) {
          bytes[rng.uniform_index(bytes.size())] ^=
              static_cast<std::uint8_t>(1 + rng.uniform_index(255));
        }
        break;
      }
      case 1:  // flip one byte in the head, count and catalog id
        bytes[rng.uniform_index(kDenseHeadBytes)] ^=
            static_cast<std::uint8_t>(1 + rng.uniform_index(255));
        break;
      case 2:  // truncate
        bytes.resize(rng.uniform_index(bytes.size()));
        break;
      default:  // extend with 1-8 random bytes
        for (std::size_t n = 1 + rng.uniform_index(8); n > 0; --n) {
          bytes.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
        }
        break;
    }
    const std::uint8_t version =
        static_cast<std::uint8_t>(1 + rng.uniform_index(kProtocolVersion));
    // Any exception other than ProtocolError escapes and fails the test.
    try {
      const DecodedRequest request =
          decode_predict_request(bytes, 0, version);
      EXPECT_LE(request.request.counters.counters.size(), bytes.size());
      ++decoded;
    } catch (const ProtocolError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, kIterations);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace gppm::net
