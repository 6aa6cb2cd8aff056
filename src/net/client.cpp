#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace gppm::net {

Client::Client(ClientOptions options, fault::FaultInjector* injector)
    : options_(std::move(options)),
      injector_(injector),
      scope_([this](obs::MetricsSnapshot& rows) {
        rows.add_counter("net.client.rpcs", rpcs_.load());
        rows.add_counter("net.client.reconnects", reconnects_.load());
        rows.add_counter("net.client.transport_retries",
                         transport_retries_.load());
        rows.add_counter("net.client.stale_evictions",
                         stale_evictions_.load());
        rows.add_counter("net.client.bytes_tx", bytes_sent_.load());
        rows.add_counter("net.client.bytes_rx", bytes_received_.load());
        rows.add_histogram("net.client.rtt_us", rtt_us_);
      }) {
  if (options_.pool_size == 0) options_.pool_size = 1;
  const Rng root(options_.seed);
  pool_.reserve(options_.pool_size);
  for (std::size_t i = 0; i < options_.pool_size; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->decoder = FrameDecoder(options_.max_frame_payload);
    conn->rng = root.fork(i);
    pool_.push_back(std::move(conn));
  }
}

Client::~Client() { close(); }

void Client::close() {
  for (const std::unique_ptr<Conn>& conn : pool_) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->socket.close();
    conn->connected = false;
  }
}

ClientStats Client::stats() const {
  ClientStats s;
  s.rpcs = rpcs_.load();
  s.connects = connects_.load();
  s.reconnects = reconnects_.load();
  s.transport_retries = transport_retries_.load();
  s.stale_evictions = stale_evictions_.load();
  s.frames_sent = frames_sent_.load();
  s.frames_received = frames_received_.load();
  s.bytes_sent = bytes_sent_.load();
  s.bytes_received = bytes_received_.load();
  return s;
}

bool Client::is_stale(Conn& conn) const {
  // Half a frame buffered from an aborted exchange: the stream position
  // is unknown and the next response would mis-frame.
  if (conn.decoder.buffered() > 0) return true;
  if (options_.idle_timeout_ms > 0 &&
      std::chrono::steady_clock::now() - conn.last_used >
          std::chrono::milliseconds(options_.idle_timeout_ms)) {
    return true;
  }
  // Between RPCs the server owes this connection nothing, so a readable
  // socket means EOF (the server died or restarted) or stray bytes; both
  // make the FD unusable.  This is the probe that lets a killed-and-
  // restarted backend be re-adopted without a stale-FD error burning a
  // retry attempt, let alone surfacing to the caller.
  try {
    return conn.socket.wait_readable(0);
  } catch (const std::exception&) {
    return true;
  }
}

void Client::ensure_connected(Conn& conn) {
  if (conn.connected) {
    if (!is_stale(conn)) return;
    conn.socket.close();
    conn.connected = false;
    stale_evictions_.fetch_add(1);
  }
  conn.socket =
      fault::FaultySocket::connect(options_.host, options_.port, injector_);
  // A fresh connection carries no stale half-frame from the last one.
  conn.decoder = FrameDecoder(options_.max_frame_payload);
  conn.connected = true;
  conn.last_used = std::chrono::steady_clock::now();
  if (connects_.fetch_add(1) >= pool_.size()) reconnects_.fetch_add(1);
}

Frame Client::attempt(Conn& conn, const std::vector<std::uint8_t>& bytes) {
  ensure_connected(conn);
  conn.socket.write_all(bytes.data(), bytes.size());
  frames_sent_.fetch_add(1);
  bytes_sent_.fetch_add(bytes.size());
  return read_frame(conn);
}

Frame Client::read_frame(Conn& conn) {
  std::uint8_t buf[16 * 1024];
  while (true) {
    if (std::optional<Frame> frame = conn.decoder.next()) {
      frames_received_.fetch_add(1);
      conn.last_used = std::chrono::steady_clock::now();
      return std::move(*frame);
    }
    // One RPC waits this long for its response frame before the
    // connection is declared dead (ConnectionError, hence retried).
    constexpr int kResponseTimeoutMs = 30000;
    if (!conn.socket.wait_readable(kResponseTimeoutMs)) {
      throw ConnectionError("timed out after " +
                            std::to_string(kResponseTimeoutMs) +
                            " ms waiting for a response");
    }
    const std::size_t n = conn.socket.read_some(buf, sizeof(buf));
    if (n == 0) throw ConnectionError("server closed the connection");
    bytes_received_.fetch_add(n);
    conn.decoder.feed(buf, n);
  }
}

bool Client::back_off(Conn& conn, int retry, Duration& slept) {
  conn.socket.close();
  conn.connected = false;
  transport_retries_.fetch_add(1);
  if (retry + 1 >= std::max(1, options_.retry.max_attempts)) return false;
  const Duration delay = backoff_delay(options_.retry, retry, conn.rng);
  if (slept + delay > options_.retry.retry_budget) return false;
  slept += delay;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(delay.as_seconds()));
  return true;
}

void Client::raise_error_reply(const Frame& frame) {
  const WireError error = decode_wire_error(frame.payload);
  throw RpcError(error.code, error.message);
}

Frame Client::call(FrameType type, const std::vector<std::uint8_t>& payload,
                   std::uint64_t deadline_micros, std::uint8_t version) {
  obs::ObsSpan span("net.client.rpc");
  const auto start = std::chrono::steady_clock::now();
  Conn& conn =
      *pool_[next_conn_.fetch_add(1, std::memory_order_relaxed) %
             pool_.size()];
  std::lock_guard<std::mutex> lock(conn.mutex);
  const std::vector<std::uint8_t> bytes =
      encode_frame(type, payload, deadline_micros, version);

  // Manual retry loop rather than retry_call: backoff here is real sleep
  // on a live transport, not the acquisition layer's virtual time.  The
  // delay schedule and budget semantics are the same (backoff_delay).
  Duration slept;
  for (int retry = 0;; ++retry) {
    try {
      Frame frame = attempt(conn, bytes);
      rpcs_.fetch_add(1);
      rtt_us_.record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
      if (frame.header.type == FrameType::ErrorReply) {
        raise_error_reply(frame);
      }
      return frame;
    } catch (const ProtocolError&) {
      // Bad bytes: resending cannot help, and the stream position is
      // unknown — drop the connection and propagate.
      conn.socket.close();
      conn.connected = false;
      throw;
    } catch (const ConnectionError&) {
      if (!back_off(conn, retry, slept)) throw;
    }
  }
}

std::vector<serve::Response> Client::predict_batch(
    const std::vector<serve::Request>& requests) {
  std::vector<serve::Response> responses;
  if (requests.empty()) return responses;
  obs::ObsSpan span("net.client.rpc_batch");
  const auto start = std::chrono::steady_clock::now();

  const std::uint64_t base = next_request_id_.fetch_add(
      requests.size(), std::memory_order_relaxed);
  // One scratch payload writer for the whole batch, and each frame appended
  // straight onto the batch buffer: no temporaries per request.
  std::vector<std::uint8_t> bytes;
  WireWriter payload;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    payload.clear();
    const std::uint8_t version =
        encode_predict_request_into(payload, base + i, requests[i]);
    encode_frame_into(bytes, FrameType::PredictRequest, payload.data(),
                      deadline_to_micros(requests[i].deadline), version);
  }

  Conn& conn =
      *pool_[next_conn_.fetch_add(1, std::memory_order_relaxed) %
             pool_.size()];
  std::lock_guard<std::mutex> lock(conn.mutex);
  Duration slept;
  for (int retry = 0;; ++retry) {
    responses.clear();
    try {
      ensure_connected(conn);
      conn.socket.write_all(bytes.data(), bytes.size());
      frames_sent_.fetch_add(requests.size());
      bytes_sent_.fetch_add(bytes.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        Frame frame = read_frame(conn);
        if (frame.header.type == FrameType::ErrorReply) {
          // The remainder of the pipeline is in an unknown state; drop the
          // connection before propagating the typed server error.
          conn.socket.close();
          conn.connected = false;
          raise_error_reply(frame);
        }
        if (frame.header.type != FrameType::PredictResponse) {
          throw ProtocolError("expected PredictResponse, got " +
                              to_string(frame.header.type));
        }
        DecodedResponse decoded = decode_predict_response(frame.payload);
        if (decoded.request_id != base + i) {
          throw ProtocolError(
              "pipelined response id " + std::to_string(decoded.request_id) +
              " does not match expected id " + std::to_string(base + i));
        }
        responses.push_back(std::move(decoded.response));
      }
      rpcs_.fetch_add(requests.size());
      rtt_us_.record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
      return responses;
    } catch (const ProtocolError&) {
      conn.socket.close();
      conn.connected = false;
      throw;
    } catch (const ConnectionError&) {
      if (!back_off(conn, retry, slept)) throw;
    }
  }
}

serve::Response Client::predict(const serve::Request& request) {
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  WireWriter payload;
  const std::uint8_t version =
      encode_predict_request_into(payload, id, request);
  const Frame frame = call(FrameType::PredictRequest, payload.data(),
                           deadline_to_micros(request.deadline), version);
  if (frame.header.type != FrameType::PredictResponse) {
    throw ProtocolError("expected PredictResponse, got " +
                        to_string(frame.header.type));
  }
  DecodedResponse decoded = decode_predict_response(frame.payload);
  if (decoded.request_id != id) {
    throw ProtocolError("response id " + std::to_string(decoded.request_id) +
                        " does not match request id " + std::to_string(id));
  }
  return std::move(decoded.response);
}

ServerInfo Client::info() {
  const Frame frame = call(FrameType::InfoRequest, {}, 0);
  if (frame.header.type != FrameType::InfoResponse) {
    throw ProtocolError("expected InfoResponse, got " +
                        to_string(frame.header.type));
  }
  return decode_server_info(frame.payload);
}

void Client::ping() {
  const std::uint64_t token =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const Frame frame = call(FrameType::Ping, encode_ping(token), 0);
  if (frame.header.type != FrameType::Pong) {
    throw ProtocolError("expected Pong, got " + to_string(frame.header.type));
  }
  if (decode_ping(frame.payload) != token) {
    throw ProtocolError("pong token does not match ping");
  }
}

HealthStatus Client::health() {
  const std::uint64_t token =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const Frame frame =
      call(FrameType::HealthRequest, encode_health_request(token), 0);
  if (frame.header.type != FrameType::HealthResponse) {
    throw ProtocolError("expected HealthResponse, got " +
                        to_string(frame.header.type));
  }
  DecodedHealth decoded = decode_health_response(frame.payload);
  if (decoded.token != token) {
    throw ProtocolError("health token does not match request");
  }
  return decoded.status;
}

}  // namespace gppm::net
