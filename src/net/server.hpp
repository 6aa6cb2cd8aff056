// net::Server — the prediction server on the wire.
//
// Bridges decoded PredictRequest frames into an existing
// serve::PredictionServer, preserving every in-process serving property:
// dynamic micro-batching (frames from many connections land in the same
// BoundedQueue the in-process submit path uses), the sharded prediction
// cache, load shedding, typed ResponseStatus answers, and per-request
// deadlines (stamped from the frame header's deadline field before the
// request enters the queue).
//
// Thread shape, front to back:
//
//   accept thread ──▶ per-connection reader ──▶ backend.submit()
//                          │ poll() + FrameDecoder        │ future
//                          ▼                              ▼
//                     bounded write queue ──▶ per-connection writer
//                     (serve::BoundedQueue,       (waits the future,
//                      back-pressure when the      encodes, write_all)
//                      peer stops reading)
//
// The reader enqueues a pending reply per frame *in arrival order* and the
// writer resolves them in that order, so responses on one connection are
// FIFO even though the backend answers out of order across the worker
// pool.  The write queue is bounded: a peer that stops draining responses
// eventually blocks its own reader (back-pressure per connection), never
// the server.  stop() is idempotent: it shuts the listener and every
// connection socket down, which unblocks all threads, then joins them.
//
// All socket I/O runs through fault::FaultySocket, so the chaos suite can
// inject short reads and mid-frame resets server-side too.  The server's
// obs::Scope exports its own counts under net.server.* (bytes, frames,
// connections, protocol errors) plus a write-queue-depth histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/arena.hpp"
#include "net/faulty_socket.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"

namespace gppm::net {

struct ServerOptions {
  /// IPv4 address to bind; loopback by default (the deployment shape is a
  /// node-local sidecar the cluster governor talks to).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via Server::port().
  std::uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed with an
  /// ErrorReply, so a client sees a typed refusal instead of a hang.
  std::size_t max_connections = 64;
  std::size_t max_frame_payload = kDefaultMaxPayload;
};

/// Point-in-time transport counters, read from the server's own atomics
/// (its obs::Scope exports the same counts under net.server.*).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t requests_bridged = 0;
};

/// What the transport needs from whatever answers requests.  The classic
/// shape binds a serve::PredictionServer directly; the cluster router
/// binds its own submit path so a whole fleet can sit behind one port.
/// `health` is answered inline on the reader thread — it must be cheap and
/// must never block on the prediction queue.
struct ServeBridge {
  std::function<std::future<serve::Response>(serve::Request)> submit;
  std::function<std::vector<serve::PredictionServer::LoadedModel>()>
      loaded_models;
  std::function<HealthStatus()> health;
};

/// Build the bridge for the single-node shape.  `backend` must outlive
/// every use of the returned functions.
ServeBridge bridge_prediction_server(serve::PredictionServer& backend);

/// TCP front-end over a ServeBridge (a PredictionServer or a cluster
/// router).
class Server {
 public:
  /// Binds and starts serving immediately.  `backend` must outlive the
  /// Server.  `injector` may be nullptr; when set, server-side socket I/O
  /// consults the net.* fault sites.
  Server(serve::PredictionServer& backend, ServerOptions options = {},
         fault::FaultInjector* injector = nullptr);
  /// Same, fronting an arbitrary bridge (all three functions required).
  Server(ServeBridge bridge, ServerOptions options = {},
         fault::FaultInjector* injector = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the chosen one when options.port was 0).
  std::uint16_t port() const { return listener_.port(); }
  const std::string& address() const { return options_.bind_address; }

  /// Shut the listener and every connection down, join all threads.
  /// Idempotent and safe to call concurrently.
  void stop();
  bool running() const { return !stopped_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  /// One reply owed to a peer, in arrival order.  Either an already
  /// encoded control payload (pong, info, error) or a pending backend
  /// future still to be encoded.
  struct PendingReply {
    FrameType type = FrameType::Pong;
    std::vector<std::uint8_t> payload;
    std::uint64_t request_id = 0;
    std::optional<std::future<serve::Response>> future;
  };

  struct Connection {
    explicit Connection(std::size_t write_queue_capacity)
        : replies(write_queue_capacity), read_buf(64 * 1024) {}
    fault::FaultySocket socket;
    serve::BoundedQueue<PendingReply> replies;
    /// Socket read scratch, allocated once per connection (not per loop
    /// iteration) — part of the steady-state zero-allocation contract.
    std::vector<std::uint8_t> read_buf;
    /// Response-assembly buffers for the writer loop, reused per batch.
    Arena arena;
    std::thread reader;
    std::thread writer;
    /// Loop-exit count; 2 = both threads done, safe to reap without
    /// blocking the accept loop on a live connection's join.
    std::atomic<int> exited{0};
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  /// Decode + dispatch one frame; pushes the owed reply.  The frame's
  /// payload is a view into the connection decoder's buffer (zero-copy);
  /// dispatch must finish with it before the next socket read.  Returns
  /// false when the connection should close (backend shut down).
  bool dispatch(Connection& conn, const FrameView& frame);
  ServerInfo build_info() const;
  /// Reap finished connections (joins their threads).  Called from the
  /// accept loop; stop() reaps everything.
  void reap(bool all);

  ServeBridge bridge_;
  ServerOptions options_;
  fault::FaultInjector* injector_;
  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mutex_;

  mutable std::mutex connections_mutex_;
  std::list<std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_refused_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> requests_bridged_{0};
  /// Reply-queue depth seen by each dispatched frame.
  obs::Histogram write_queue_depth_;
  /// Last member: constructed after and destroyed before what it reads.
  obs::Scope scope_;
};

}  // namespace gppm::net
