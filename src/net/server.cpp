#include "net/server.hpp"

#include <exception>
#include <utility>

#include "obs/obs.hpp"

namespace gppm::net {

ServeBridge bridge_prediction_server(serve::PredictionServer& backend) {
  ServeBridge bridge;
  bridge.submit = [&backend](serve::Request request) {
    return backend.submit(std::move(request));
  };
  bridge.loaded_models = [&backend] { return backend.loaded_models(); };
  bridge.health = [&backend] {
    HealthStatus status;
    status.accepting = backend.running();
    status.boards = static_cast<std::uint16_t>(backend.loaded_models().size());
    status.queue_depth = static_cast<std::uint32_t>(backend.queue_depth());
    status.queue_capacity =
        static_cast<std::uint32_t>(backend.options().queue_capacity);
    status.workers =
        static_cast<std::uint32_t>(backend.options().worker_threads);
    return status;
  };
  return bridge;
}

Server::Server(serve::PredictionServer& backend, ServerOptions options,
               fault::FaultInjector* injector)
    : Server(bridge_prediction_server(backend), std::move(options), injector) {}

Server::Server(ServeBridge bridge, ServerOptions options,
               fault::FaultInjector* injector)
    : bridge_(std::move(bridge)),
      options_(std::move(options)),
      injector_(injector),
      listener_(options_.bind_address, options_.port),
      scope_([this](obs::MetricsSnapshot& rows) {
        rows.add_counter("net.server.bytes_rx", bytes_received_.load());
        rows.add_counter("net.server.bytes_tx", bytes_sent_.load());
        rows.add_counter("net.server.frames_rx", frames_received_.load());
        rows.add_counter("net.server.frames_tx", frames_sent_.load());
        rows.add_counter("net.server.connections",
                         connections_accepted_.load());
        rows.add_counter("net.server.protocol_errors",
                         protocol_errors_.load());
        rows.add_histogram("net.server.write_queue_depth",
                           write_queue_depth_);
      }) {
  GPPM_CHECK(bridge_.submit && bridge_.loaded_models && bridge_.health,
             "ServeBridge requires submit, loaded_models and health");
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  stopped_.store(true, std::memory_order_release);
  listener_.shutdown();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      conn->replies.close();
      conn->socket.shutdown_both();
    }
  }
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (acceptor_.joinable()) acceptor_.join();
  reap(/*all=*/true);
  // Close (not just shut down) the listener so later dials are refused
  // outright; port() still reports the bound port.
  listener_.close();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_refused = connections_refused_.load();
  s.frames_received = frames_received_.load();
  s.frames_sent = frames_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.bytes_sent = bytes_sent_.load();
  s.protocol_errors = protocol_errors_.load();
  s.requests_bridged = requests_bridged_.load();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    s.connections_active = connections_.size();
  }
  return s;
}

ServerInfo Server::build_info() const {
  ServerInfo info;
  for (const serve::PredictionServer::LoadedModel& m :
       bridge_.loaded_models()) {
    info.boards.push_back({m.gpu, m.power_fingerprint, m.perf_fingerprint});
  }
  return info;
}

void Server::reap(bool all) {
  std::list<std::shared_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || (*it)->exited.load(std::memory_order_acquire) == 2) {
        dead.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::shared_ptr<Connection>& conn : dead) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
}

void Server::accept_loop() {
  while (!stopped_.load(std::memory_order_acquire)) {
    Socket raw;
    try {
      raw = listener_.accept();
    } catch (const ConnectionError&) {
      break;
    }
    if (!raw.valid()) break;  // listener shut down
    reap(/*all=*/false);

    std::size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      active = connections_.size();
    }
    if (active >= options_.max_connections) {
      // Typed refusal instead of a silent close: the peer reads one
      // ErrorReply frame, then EOF.
      connections_refused_.fetch_add(1);
      const std::vector<std::uint8_t> bytes = encode_frame(
          FrameType::ErrorReply,
          encode_wire_error({WireErrorCode::ShuttingDown,
                             "connection limit reached (" +
                                 std::to_string(options_.max_connections) +
                                 ")"}));
      try {
        raw.write_all(bytes.data(), bytes.size());
      } catch (const ConnectionError&) {
      }
      continue;
    }

    connections_accepted_.fetch_add(1);
    // Pending-response bound per connection: back-pressure on the reader
    // once the peer stops draining.
    constexpr std::size_t kWriteQueueCapacity = 256;
    auto conn = std::make_shared<Connection>(kWriteQueueCapacity);
    conn->socket = fault::FaultySocket(std::move(raw), injector_);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
    }
    // The threads hold a shared_ptr so the Connection outlives its list
    // entry even if a reap races the spawn.
    conn->reader = std::thread([this, conn] { reader_loop(*conn); });
    conn->writer = std::thread([this, conn] { writer_loop(*conn); });
  }
}

void Server::reader_loop(Connection& conn) {
  FrameDecoder decoder(options_.max_frame_payload);
  bool open = true;
  while (open && !stopped_.load(std::memory_order_acquire)) {
    try {
      // The idle poll tick bounds how fast stop() is observed.
      constexpr int kPollIntervalMs = 100;
      if (!conn.socket.wait_readable(kPollIntervalMs)) continue;
      const std::size_t n =
          conn.socket.read_some(conn.read_buf.data(), conn.read_buf.size());
      if (n == 0) break;  // orderly EOF
      bytes_received_.fetch_add(n);
      decoder.feed(conn.read_buf.data(), n);
      // next_view() surfaces each frame's payload as a view into the
      // decoder's buffer; dispatch decodes straight from it, so request
      // bytes are copied exactly once (socket -> stream buffer) on this
      // path.  The views die before the next feed(), as required.
      while (std::optional<FrameView> frame = decoder.next_view()) {
        frames_received_.fetch_add(1);
        if (!dispatch(conn, *frame)) {
          open = false;
          break;
        }
      }
    } catch (const ProtocolError& e) {
      // Bad bytes are not retryable: tell the peer why, then drop it.
      protocol_errors_.fetch_add(1);
      PendingReply reply;
      reply.type = FrameType::ErrorReply;
      reply.payload = encode_wire_error({WireErrorCode::Malformed, e.what()});
      conn.replies.push(std::move(reply));
      break;
    } catch (const ConnectionError&) {
      break;
    }
  }
  // Let the writer drain everything already owed, then die; a reader that
  // stops consuming also stops admitting.
  conn.replies.close();
  conn.exited.fetch_add(1, std::memory_order_release);
}

bool Server::dispatch(Connection& conn, const FrameView& frame) {
  obs::ObsSpan span("net.server.dispatch");
  PendingReply reply;
  switch (frame.header.type) {
    case FrameType::Ping:
      reply.type = FrameType::Pong;
      reply.payload = encode_ping(decode_ping(frame.payload));
      break;
    case FrameType::InfoRequest:
      if (!frame.payload.empty()) {
        throw ProtocolError("InfoRequest carries a payload");
      }
      reply.type = FrameType::InfoResponse;
      reply.payload = encode_server_info(build_info());
      break;
    case FrameType::HealthRequest:
      // Answered right here on the reader thread, never bridged through
      // the prediction queue: a probe of a saturated backend must observe
      // the pressure, not queue behind it.
      reply.type = FrameType::HealthResponse;
      reply.payload = encode_health_response(decode_health_request(
                                                 frame.payload),
                                             bridge_.health());
      break;
    case FrameType::PredictRequest: {
      DecodedRequest decoded = decode_predict_request(
          frame.payload, frame.header.deadline_micros, frame.header.version);
      reply.type = FrameType::PredictResponse;
      reply.request_id = decoded.request_id;
      try {
        reply.future = bridge_.submit(std::move(decoded.request));
        requests_bridged_.fetch_add(1);
      } catch (const Error& e) {
        // Backend rejected (shutdown): answer typed, then drop the peer —
        // nothing further can be served on this process.
        reply.future.reset();
        reply.type = FrameType::ErrorReply;
        reply.payload =
            encode_wire_error({WireErrorCode::ShuttingDown, e.what()});
        conn.replies.push(std::move(reply));
        return false;
      }
      break;
    }
    default:
      // Server-bound traffic is Ping / InfoRequest / HealthRequest /
      // PredictRequest only.
      throw ProtocolError("unexpected " + to_string(frame.header.type) +
                          " frame on the server side");
  }
  write_queue_depth_.record(static_cast<double>(conn.replies.size()));
  // push() blocking while the write queue is full is the per-connection
  // back-pressure: a peer that stops reading stalls only its own reader.
  return conn.replies.push(std::move(reply));
}

void Server::writer_loop(Connection& conn) {
  bool open = true;
  while (open) {
    std::vector<PendingReply> batch = conn.replies.pop_batch(16);
    if (batch.empty()) break;  // closed and drained
    // Encode the whole drained batch into the connection arena and send it
    // with one write: a pipelining peer gets its responses in a single
    // segment, the syscall cost amortizes over the batch, and once the
    // arena has warmed to the working-set size the predict reply path
    // allocates nothing.  FIFO order is preserved because futures resolve
    // in dispatch order.
    conn.arena.reset();
    std::vector<std::uint8_t>& out = conn.arena.frames();
    for (PendingReply& reply : batch) {
      FrameType type = reply.type;
      if (reply.future.has_value()) {
        WireWriter& payload = conn.arena.payload();
        payload.clear();
        try {
          encode_predict_response_into(payload, reply.request_id,
                                       reply.future->get());
        } catch (const std::exception& e) {
          type = FrameType::ErrorReply;
          payload.clear();
          const std::vector<std::uint8_t> err =
              encode_wire_error({WireErrorCode::Internal, e.what()});
          payload.bytes(err.data(), err.size());
        }
        encode_frame_into(out, type, payload.data());
      } else {
        encode_frame_into(out, type, reply.payload);
      }
    }
    try {
      conn.socket.write_all(out.data(), out.size());
    } catch (const ConnectionError&) {
      open = false;
      continue;
    }
    frames_sent_.fetch_add(batch.size());
    bytes_sent_.fetch_add(out.size());
  }
  // Close first so a reader blocked in push() wakes; shut the socket so
  // the peer sees EOF and a reader blocked in poll/read wakes too.
  conn.replies.close();
  conn.socket.shutdown_both();
  conn.exited.fetch_add(1, std::memory_order_release);
}

}  // namespace gppm::net
