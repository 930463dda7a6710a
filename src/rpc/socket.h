// POSIX stream-socket wrappers for the gs::rpc serving layer: an
// address type covering TCP and Unix-domain endpoints, a move-only RAII
// socket with deadline-bounded exact reads/writes, a listener, and a
// nonblocking dial with a connect timeout. Every TCP socket, dialed or
// accepted, has TCP_NODELAY set, so a small frame is never held back
// waiting for the ACK of the previous one.
//
// Everything is nonblocking under the hood; blocking semantics are built
// from poll(2) loops so every operation can carry a deadline (the
// Settings::rpc_io_timeout_ms knob) and EINTR never surfaces to callers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/error.h"

namespace gs::rpc {

/// A serving address: "host:port" (IPv4 literal or "localhost") or
/// "unix:/path/to.sock". Port 0 asks the kernel for an ephemeral port
/// (the bound Listener reports the resolved one).
struct Endpoint {
  bool unix_domain = false;
  std::string host = "127.0.0.1";  ///< IPv4 dotted quad (TCP only)
  std::string path;                ///< socket file path (unix only)
  std::uint16_t port = 0;          ///< TCP only

  /// Parses "host:port" | ":port" | "unix:/path". Throws gs::ParseError.
  static Endpoint parse(const std::string& text);

  /// Round-trips through parse(): "127.0.0.1:7544" or "unix:/tmp/x.sock".
  std::string str() const;
};

/// Move-only owner of a connected stream socket (always nonblocking).
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` and switches it to nonblocking mode.
  explicit Socket(int fd);
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  /// Shuts both directions down but keeps the descriptor: a thread
  /// waiting to read wakes to EOF and a writer fails, while the fd stays
  /// owned (so the kernel cannot reuse it) until close().
  void shutdown();

  /// Writes the concatenation of `parts` (at most two: a frame's header
  /// and payload) with gathering sendmsg(2) calls — one call when the
  /// socket buffer has room — or throws gs::IoError (peer reset, or the
  /// overall deadline expired mid-buffer). timeout_ms <= 0 = no deadline.
  void write_all(std::span<const std::span<const std::byte>> parts,
                 std::int64_t timeout_ms);
  void write_all(std::span<const std::byte> data, std::int64_t timeout_ms) {
    write_all(std::span(&data, 1), timeout_ms);
  }

  /// Reads exactly data.size() bytes. Returns false on a clean EOF before
  /// the first byte (peer closed between messages); throws gs::IoError on
  /// EOF mid-buffer, error, or deadline expiry. timeout_ms <= 0 = none.
  bool read_exact(std::span<std::byte> data, std::int64_t timeout_ms);

  /// True when a read would not block (data or EOF pending).
  /// timeout_ms <= 0 polls without waiting.
  bool wait_readable(std::int64_t timeout_ms);

 private:
  int fd_ = -1;
};

class Listener;

/// An eventfd any thread signals to wake the one thread that owns a
/// socket, without touching the socket itself.
class Wakeup {
 public:
  Wakeup();  ///< throws gs::IoError when no eventfd is available
  ~Wakeup();
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// Makes the current or next wait() return. Any thread; never blocks.
  void signal();
  /// Blocks, without a deadline, until signal() (which it consumes) or
  /// until `readable` (when non-null) is readable; true in the latter.
  bool wait(const Socket* readable);
  /// The same for a listener: true when a connection is waiting.
  bool wait(const Listener& readable);

 private:
  bool wait_fd(int readable_fd);

  int fd_ = -1;
};

/// Bound, listening acceptor socket. For unix endpoints the socket file
/// is unlinked on close (and any stale file is replaced at bind).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens. For TCP with port 0 the resolved ephemeral port
  /// is reflected in endpoint(). Throws gs::IoError on failure.
  static Listener bind_listen(const Endpoint& endpoint, int backlog);

  /// The bound address (with the kernel-resolved port).
  const Endpoint& endpoint() const { return endpoint_; }

  /// Accepts one connection, waiting up to timeout_ms (<= 0 polls).
  /// nullopt on timeout; throws gs::IoError on acceptor failure.
  std::optional<Socket> accept(std::int64_t timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

/// Connects to `endpoint` within `timeout_ms` (<= 0 = no deadline).
/// Throws gs::IoError on refusal or timeout.
Socket dial(const Endpoint& endpoint, std::int64_t timeout_ms);

}  // namespace gs::rpc
