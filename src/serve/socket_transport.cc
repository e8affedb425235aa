#include "serve/socket_transport.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace imrm::serve {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw TransportError("serve socket: path '" + path + "' exceeds the AF_UNIX limit of " +
                         std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// send(2) until the frame is fully written. MSG_NOSIGNAL turns a vanished
/// peer into EPIPE instead of a process-killing SIGPIPE. False on EPIPE /
/// ECONNRESET; throws on anything unexpected.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw TransportError(std::string("serve socket: write failed: ") +
                           std::strerror(errno));
    }
    sent += std::size_t(n);
  }
  return true;
}

}  // namespace

SocketServerTransport::SocketServerTransport(std::string path) : path_(std::move(path)) {
  const sockaddr_un addr = make_addr(path_);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw TransportError(std::string("serve socket: socket() failed: ") +
                         std::strerror(errno));
  }
  ::unlink(path_.c_str());  // stale socket from a crashed previous run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw TransportError("serve socket: cannot bind '" + path_ + "': " + what);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw TransportError("serve socket: listen on '" + path_ + "' failed: " + what);
  }
}

SocketServerTransport::~SocketServerTransport() {
  for (const auto& [fd, client] : clients_) ::close(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
}

void SocketServerTransport::drop_client(int fd) {
  ::close(fd);
  clients_.erase(fd);
}

void SocketServerTransport::pump(std::chrono::microseconds wait) {
  std::vector<pollfd> fds;
  fds.reserve(clients_.size() + 1);
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& [fd, client] : clients_) fds.push_back({fd, POLLIN, 0});

  const int timeout_ms =
      wait.count() <= 0 ? 0 : int((wait.count() + 999) / 1000);
  const int ready = ::poll(fds.data(), nfds_t(fds.size()), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw TransportError(std::string("serve socket: poll failed: ") +
                         std::strerror(errno));
  }
  if (ready == 0) return;

  if ((fds[0].revents & POLLIN) != 0) {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN on a drained backlog; anything else retries next pump
      }
      clients_.emplace(fd, Client{});
      break;  // poll again before accepting more — keeps the loop fair
    }
  }

  for (std::size_t i = 1; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const int fd = fds[i].fd;
    const auto it = clients_.find(fd);
    if (it == clients_.end()) continue;
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      drop_client(fd);
      continue;
    }
    if (n == 0) {  // orderly EOF
      drop_client(fd);
      continue;
    }
    it->second.assembler.feed(chunk, std::size_t(n));
    try {
      std::vector<std::uint8_t> frame;
      while (it->second.assembler.next(frame)) {
        pending_.push_back(Envelope{std::uint64_t(fd), std::move(frame)});
      }
    } catch (const CodecError& e) {
      // The byte stream is unframeable from here on: answer with a typed
      // error (id 0 — the offset of the bad frame is unknown) and hang up.
      std::vector<std::uint8_t> reply;
      encode_reply(0, ErrorReply{ServiceError::kMalformedFrame, e.what()}, reply);
      write_all(fd, reply.data(), reply.size());
      drop_client(fd);
    }
  }
}

bool SocketServerTransport::next_request(Envelope& env, std::chrono::microseconds wait) {
  if (pending_.empty()) pump(wait);
  if (pending_.empty()) return false;
  env = std::move(pending_.front());
  pending_.pop_front();
  return true;
}

void SocketServerTransport::send_reply(std::uint64_t client,
                                       std::vector<std::uint8_t>& frame) {
  const int fd = int(client);
  if (clients_.find(fd) == clients_.end()) return;  // client vanished
  if (!write_all(fd, frame.data(), frame.size())) drop_client(fd);
}

SocketClientTransport::SocketClientTransport(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw TransportError(std::string("serve socket: socket() failed: ") +
                         std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw TransportError("serve socket: cannot connect to '" + path + "': " + what);
  }
}

SocketClientTransport::~SocketClientTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool SocketClientTransport::send_request(std::vector<std::uint8_t>& frame) {
  if (fd_ < 0) return false;
  if (!write_all(fd_, frame.data(), frame.size())) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool SocketClientTransport::next_reply(std::vector<std::uint8_t>& frame,
                                       std::chrono::microseconds wait) {
  if (fd_ < 0) return false;
  if (assembler_.next(frame)) return true;
  pollfd pfd{fd_, POLLIN, 0};
  const int timeout_ms = wait.count() <= 0 ? 0 : int((wait.count() + 999) / 1000);
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return false;
  std::uint8_t chunk[4096];
  const ssize_t n = ::read(fd_, chunk, sizeof chunk);
  if (n <= 0) return false;
  assembler_.feed(chunk, std::size_t(n));
  return assembler_.next(frame);
}

void SocketClientTransport::close() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

}  // namespace imrm::serve
