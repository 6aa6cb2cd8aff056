// net::Client — blocking RPC client for the gppm prediction protocol.
//
// One Client owns a small pool of TCP connections to one server; RPCs are
// assigned round-robin and each connection serves one RPC at a time (the
// server answers FIFO per connection, so request/response matching is a
// single id check).  The failure story follows the repo's retry taxonomy:
//
//   * ConnectionError (a TransientError) — refused dial, reset, timeout,
//     unexpected EOF.  The client drops the connection, sleeps a
//     common/retry backoff delay (real wall-clock sleep — this is a live
//     transport, not the simulator), reconnects and resends, up to
//     RetryPolicy::max_attempts.
//   * ProtocolError (permanent) — the server sent bytes out of contract.
//     The connection is dropped and the error propagates immediately;
//     resending cannot help.
//   * RpcError (permanent) — the server answered with a typed ErrorReply
//     (malformed request, shutting down, internal failure).  Note that a
//     request the *backend* cannot serve is not an error at this layer:
//     it comes back as a normal serve::Response with a non-Ok status,
//     exactly as the in-process PredictionServer answers it.
//
// The client's obs::Scope exports its own counts under net.client.*: RPCs,
// reconnects, transport retries, stale evictions, bytes in both
// directions and an RTT histogram.  Each RPC also opens an ObsSpan.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "common/rng.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"

namespace gppm::net {

/// The server answered an RPC with a typed ErrorReply.  Permanent: the
/// request as sent will not succeed against this server.
class RpcError : public NetError {
 public:
  RpcError(WireErrorCode code, const std::string& message)
      : NetError("server error " + std::to_string(static_cast<int>(code)) +
                 ": " + message),
        code_(code) {}
  WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Pooled connections; RPCs are assigned round-robin, so this bounds the
  /// caller's useful concurrency against one server.
  std::size_t pool_size = 1;
  std::size_t max_frame_payload = kDefaultMaxPayload;
  /// Reconnect/resend discipline for transport failures.  Backoff delays
  /// are slept for real.
  RetryPolicy retry;
  /// Seed for the backoff jitter stream.
  std::uint64_t seed = 0x6770706d'6e657431ull;
  /// Pooled connections idle longer than this are closed and redialed on
  /// next use instead of trusting a socket the server may long since have
  /// dropped.  0 disables the idle check (the pre-send liveness probe
  /// still runs).
  int idle_timeout_ms = 0;
};

struct ClientStats {
  std::uint64_t rpcs = 0;
  std::uint64_t connects = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t transport_retries = 0;
  /// Pooled connections found dead/stale *before* a send (EOF or stray
  /// bytes while idle, half-frame leftovers, idle timeout) and replaced
  /// silently — the redial does not burn a retry attempt and no error
  /// surfaces to the caller.
  std::uint64_t stale_evictions = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Blocking pooled client.  Thread-safe: concurrent RPCs proceed in
/// parallel up to pool_size, then serialize per connection.
class Client {
 public:
  /// Connections are dialed lazily, on first use per pool slot.
  /// `injector` may be nullptr; when set, all socket I/O consults the
  /// net.* fault sites (the chaos suite drives this).
  explicit Client(ClientOptions options,
                  fault::FaultInjector* injector = nullptr);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One prediction RPC.  request.deadline rides the frame header and is
  /// enforced by the server's admission queue; a non-Ok ResponseStatus is
  /// a normal return, not an exception.
  serve::Response predict(const serve::Request& request);

  /// Pipelined predictions: every request is written back-to-back on one
  /// pooled connection in a single send, then the responses are read in
  /// request order (the server answers FIFO per connection).  Amortizes
  /// syscalls and thread handoffs roughly batch-fold over predict() —
  /// this is the throughput path.  Transport failures resend the whole
  /// batch on a fresh connection (predictions are pure, so the resend is
  /// idempotent); the returned vector always matches `requests` 1:1.
  std::vector<serve::Response> predict_batch(
      const std::vector<serve::Request>& requests);

  /// Server self-description: protocol version, boards, fingerprints.
  ServerInfo info();

  /// Round-trip liveness probe.  Throws on transport/protocol failure.
  void ping();

  /// Liveness + load snapshot (protocol v2).  The server answers inline on
  /// its reader thread, so this observes prediction-queue pressure instead
  /// of queuing behind it.  A v1 peer rejects the frame with a typed
  /// ErrorReply, which surfaces here as RpcError.
  HealthStatus health();

  /// Drop every pooled connection (an in-flight RPC on another thread
  /// finishes its attempt first; subsequent RPCs redial).
  void close();

  ClientStats stats() const;
  const ClientOptions& options() const { return options_; }

 private:
  struct Conn {
    std::mutex mutex;
    fault::FaultySocket socket;
    FrameDecoder decoder;
    bool connected = false;
    Rng rng{0};
    std::chrono::steady_clock::time_point last_used{};
  };

  /// Send `payload` as a `type` frame and read the next frame back,
  /// reconnecting and resending on transport failure per options_.retry.
  Frame call(FrameType type, const std::vector<std::uint8_t>& payload,
             std::uint64_t deadline_micros, std::uint8_t version = 0);
  Frame attempt(Conn& conn, const std::vector<std::uint8_t>& bytes);
  /// Block until the next whole frame arrives on `conn`.
  Frame read_frame(Conn& conn);
  void ensure_connected(Conn& conn);
  /// True when a nominally connected pool slot cannot be trusted for the
  /// next RPC: idle past the timeout, half a frame buffered from an
  /// aborted exchange, or readable while no response is owed (EOF after a
  /// server restart, or stray bytes).
  bool is_stale(Conn& conn) const;
  /// After a ConnectionError on attempt `retry` (0-based): drop the
  /// connection, count the retry and sleep its backoff.  False once the
  /// attempts or the retry budget are spent (the caller rethrows).
  bool back_off(Conn& conn, int retry, Duration& slept);
  /// ErrorReply handling shared by all RPCs: decode and throw RpcError.
  [[noreturn]] static void raise_error_reply(const Frame& frame);

  ClientOptions options_;
  fault::FaultInjector* injector_;
  std::vector<std::unique_ptr<Conn>> pool_;
  std::atomic<std::uint64_t> next_conn_{0};
  std::atomic<std::uint64_t> next_request_id_{1};

  std::atomic<std::uint64_t> rpcs_{0};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> transport_retries_{0};
  std::atomic<std::uint64_t> stale_evictions_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  /// Round-trip time per successful RPC (or pipelined batch), in us.
  obs::Histogram rtt_us_;
  /// Last member: constructed after and destroyed before what it reads.
  obs::Scope scope_;
};

}  // namespace gppm::net
