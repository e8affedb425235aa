// Transport seam between the admission service and its drivers (ISSUE 8).
//
// The service loop and the load driver talk in whole frames (see
// serve/codec.h); how the frames move is behind these two interfaces:
//
//   * RingTransport   — an in-process SPSC ring pair. Deterministic when the
//     driver and the service interleave on one thread (virtual pacing), and
//     a lock-free two-thread path for wall-clock benchmarks.
//   * Socket transports — a local AF_UNIX listener for real out-of-process
//     drivers (scenario_cli serve / scenario_cli drive --transport socket).
//
// A transport never interprets payloads; it moves opaque byte frames. The
// `client` field of an Envelope routes the reply back to whichever peer sent
// the request (the socket transport runs one assembler per connection).
//
// Frames are caller-owned buffers that the transports trade rather than
// allocate: a send hands the caller a buffer back to encode the next frame
// into, and a receive leaves the caller's previous buffer with the
// transport. Once the buffers in circulation have grown, a request and its
// reply cross the ring transport without a heap allocation (DESIGN.md,
// "Serve frame buffers").
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace imrm::serve {

/// One inbound request frame plus the opaque id of the client that sent it.
struct Envelope {
  std::uint64_t client = 0;
  std::vector<std::uint8_t> frame;
};

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Service-side endpoint: pull requests, push replies.
class ServerTransport {
 public:
  virtual ~ServerTransport() = default;

  /// Fills `env` with the next inbound request; the transport may keep the
  /// buffer `env.frame` held before. Returns false when none was available
  /// within `wait` (zero = poll without blocking).
  virtual bool next_request(Envelope& env, std::chrono::microseconds wait) = 0;

  /// Sends the reply in `frame` to the client named by `client`. On return
  /// `frame` holds a buffer to encode the next reply into (contents
  /// unspecified). A reply to a vanished client (closed connection) is
  /// silently dropped.
  virtual void send_reply(std::uint64_t client, std::vector<std::uint8_t>& frame) = 0;

  /// True once no further requests can ever arrive (every client closed and
  /// all buffered frames were consumed). The socket listener never finishes
  /// on its own — its serve loop ends on a Shutdown request or deadline.
  [[nodiscard]] virtual bool finished() const = 0;
};

/// Driver-side endpoint: push requests, pull replies.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// Sends the request in `frame`; on success `frame` holds a buffer to
  /// encode the next request into (contents unspecified). Returns false,
  /// leaving `frame` untouched, when the transport cannot accept it right
  /// now (ring full); the open-loop driver counts that as transport
  /// backpressure, it does not retry.
  virtual bool send_request(std::vector<std::uint8_t>& frame) = 0;

  /// Fills `frame` with the next reply; the transport may keep the buffer
  /// `frame` held before. False when none arrived in `wait`.
  virtual bool next_reply(std::vector<std::uint8_t>& frame,
                          std::chrono::microseconds wait) = 0;

  /// Signals that no further requests will be sent (lets an in-process
  /// server drain and finish).
  virtual void close() = 0;
};

}  // namespace imrm::serve
