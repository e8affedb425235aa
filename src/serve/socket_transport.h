// Local-socket transport: an AF_UNIX listener for out-of-process drivers.
//
// The server side owns the listening socket plus one FrameAssembler per
// accepted connection; next_request() multiplexes accept/read over poll(2).
// Clients are identified by their file descriptor. A connection that sends
// malformed bytes (bad magic/version, oversized length) is answered with a
// best-effort ErrorReply and closed — one broken peer cannot wedge the
// service.
//
// POSIX-only by design (the bench/CI hosts are Linux); there is no TCP
// listener because the service is a control plane for co-located drivers,
// not a network daemon.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "serve/codec.h"
#include "serve/transport.h"

namespace imrm::serve {

class SocketServerTransport final : public ServerTransport {
 public:
  /// Binds and listens on `path`, unlinking any stale socket file first.
  /// Throws TransportError when bind/listen fails.
  explicit SocketServerTransport(std::string path);
  ~SocketServerTransport() override;

  SocketServerTransport(const SocketServerTransport&) = delete;
  SocketServerTransport& operator=(const SocketServerTransport&) = delete;

  bool next_request(Envelope& env, std::chrono::microseconds wait) override;
  void send_reply(std::uint64_t client, std::vector<std::uint8_t>& frame) override;
  /// A listener can always accept another connection; the serve loop ends on
  /// a Shutdown request or its --duration backstop instead.
  [[nodiscard]] bool finished() const override { return false; }

  [[nodiscard]] std::size_t connections() const { return clients_.size(); }

 private:
  struct Client {
    FrameAssembler assembler;
  };

  /// One poll round: accept new connections, read every readable client,
  /// queue complete frames. `wait` bounds the poll timeout.
  void pump(std::chrono::microseconds wait);
  void drop_client(int fd);

  std::string path_;
  int listen_fd_ = -1;
  std::map<int, Client> clients_;
  std::deque<Envelope> pending_;
};

class SocketClientTransport final : public ClientTransport {
 public:
  /// Connects to a listening SocketServerTransport. Throws TransportError.
  explicit SocketClientTransport(const std::string& path);
  ~SocketClientTransport() override;

  SocketClientTransport(const SocketClientTransport&) = delete;
  SocketClientTransport& operator=(const SocketClientTransport&) = delete;

  bool send_request(std::vector<std::uint8_t>& frame) override;
  bool next_reply(std::vector<std::uint8_t>& frame,
                  std::chrono::microseconds wait) override;
  void close() override;

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
};

}  // namespace imrm::serve
