#include "perfsight/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstring>

#include "perfsight/wire.h"

namespace perfsight::transport {

int64_t span_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

namespace {

// Remaining milliseconds until `until`, clamped to >= 0 for poll().
// time_point::max() is the "no deadline" sentinel (the subtraction would
// overflow); it polls in hour-long slices.
int remaining_ms(Clock::time_point until) {
  if (until == Clock::time_point::max()) return 1000 * 60 * 60;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      until - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1000 * 60 * 60) return 1000 * 60 * 60;
  return static_cast<int>(left.count());
}

// Waits until fd is ready for `events`; false on timeout.  EINTR retries
// against the same absolute deadline.
bool poll_until(int fd, short events, Clock::time_point until) {
  for (;;) {
    pollfd p{fd, events, 0};
    int ms = remaining_ms(until);
    int rc = ::poll(&p, 1, ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

void set_fd_nonblocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  if (on) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  } else {
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
}

void tune_stream(int fd, const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    // Request/response framing: batch replies must not sit in Nagle's
    // buffer waiting for a payload that is never coming.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

Status errno_status(const std::string& what) {
  return Status::unavailable(what + ": " + std::strerror(errno));
}

struct SockAddr {
  sockaddr_storage storage = {};
  socklen_t len = 0;
  int family = AF_INET;
};

Result<SockAddr> to_sockaddr(const Endpoint& ep) {
  SockAddr sa;
  if (ep.kind == Endpoint::Kind::kTcp) {
    auto* in = reinterpret_cast<sockaddr_in*>(&sa.storage);
    in->sin_family = AF_INET;
    in->sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &in->sin_addr) != 1) {
      return Status::invalid_argument("transport: bad IPv4 address: " +
                                      ep.host);
    }
    sa.len = sizeof(sockaddr_in);
    sa.family = AF_INET;
    return sa;
  }
  auto* un = reinterpret_cast<sockaddr_un*>(&sa.storage);
  un->sun_family = AF_UNIX;
  if (ep.path.size() + 1 > sizeof(un->sun_path)) {
    return Status::invalid_argument("transport: unix path too long: " +
                                    ep.path);
  }
  std::memcpy(un->sun_path, ep.path.c_str(), ep.path.size() + 1);
  sa.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  ep.path.size() + 1);
  sa.family = AF_UNIX;
  return sa;
}

}  // namespace

// --- Endpoint ----------------------------------------------------------------

Endpoint Endpoint::tcp(std::string host, uint16_t port) {
  Endpoint ep;
  ep.kind = Kind::kTcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

Endpoint Endpoint::unix_path(std::string path) {
  Endpoint ep;
  ep.kind = Kind::kUnix;
  ep.path = std::move(path);
  return ep;
}

Result<Endpoint> Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    std::string path = spec.substr(5);
    if (path.empty()) {
      return Status::invalid_argument("transport: empty unix path in '" +
                                      spec + "'");
    }
    return unix_path(std::move(path));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    size_t colon = spec.rfind(':');
    if (colon == 3) {
      return Status::invalid_argument("transport: missing port in '" + spec +
                                      "'");
    }
    std::string host = spec.substr(4, colon - 4);
    std::string_view port_sv(spec.data() + colon + 1,
                             spec.size() - colon - 1);
    uint16_t port = 0;
    auto [ptr, ec] = std::from_chars(port_sv.data(),
                                     port_sv.data() + port_sv.size(), port);
    if (ec != std::errc() || ptr != port_sv.data() + port_sv.size() ||
        host.empty()) {
      return Status::invalid_argument("transport: bad tcp endpoint '" + spec +
                                      "' (want tcp:<host>:<port>)");
    }
    return tcp(std::move(host), port);
  }
  return Status::invalid_argument(
      "transport: unknown endpoint scheme in '" + spec +
      "' (want tcp:<host>:<port> or unix:<path>)");
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// --- Socket ------------------------------------------------------------------

Socket::Socket(Socket&& o) noexcept
    : fd_(o.fd_), rbuf_(std::move(o.rbuf_)), rbeg_(o.rbeg_), rend_(o.rend_) {
  o.fd_ = -1;
  o.rbeg_ = o.rend_ = 0;
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    rbuf_ = std::move(o.rbuf_);
    rbeg_ = o.rbeg_;
    rend_ = o.rend_;
    o.fd_ = -1;
    o.rbeg_ = o.rend_ = 0;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Buffered bytes belonged to the old stream; no later read may see them.
  rbuf_.reset();
  rbeg_ = rend_ = 0;
}

void Socket::set_nonblocking(bool on) {
  if (fd_ >= 0) set_fd_nonblocking(fd_, on);
}

Status Socket::send_all(std::string_view bytes) {
  return send_all_until(bytes, Clock::time_point::max());
}

Status Socket::send_all(std::string_view bytes, WallDuration deadline) {
  return send_all_until(bytes, Clock::now() + deadline);
}

Status Socket::send_all_until(std::string_view bytes,
                              Clock::time_point until) {
  if (fd_ < 0) return Status::unavailable("transport: send on closed socket");
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_DONTWAIT: a blocking socket must not park us in the kernel past
    // the deadline; EAGAIN routes through the deadline-aware poll below.
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's receive window (or our send buffer) is full.  Wait for
      // space, but only until the deadline: a peer that never drains must
      // cost a bounded wait, not a wedged thread.
      if (!poll_until(fd_, POLLOUT, until)) {
        return Status::deadline_exceeded("transport: send deadline after " +
                                         std::to_string(off) + "/" +
                                         std::to_string(bytes.size()) +
                                         " bytes");
      }
      continue;
    }
    return errno_status("transport: send");
  }
  return Status::ok();
}

Status Socket::recv_exact(size_t n, std::string* out, WallDuration deadline) {
  return recv_exact_until(n, out, Clock::now() + deadline);
}

Status Socket::recv_exact_until(size_t n, std::string* out,
                                Clock::time_point until) {
  if (fd_ < 0) return Status::unavailable("transport: recv on closed socket");
  size_t got = 0;
  while (got < n) {
    if (rbeg_ < rend_) {
      const size_t take = std::min(n - got, rend_ - rbeg_);
      out->append(rbuf_.get() + rbeg_, take);
      rbeg_ += take;
      got += take;
      continue;
    }
    // Buffer dry: refill with whatever the kernel holds, up to a whole
    // buffer.  MSG_DONTWAIT keeps a blocking socket from parking us past
    // the deadline; only EAGAIN waits, and only until `until`.
    if (rbuf_ == nullptr) {
      rbuf_ = std::make_unique_for_overwrite<char[]>(kRecvBufferSize);
    }
    rbeg_ = rend_ = 0;
    ssize_t r = ::recv(fd_, rbuf_.get(), kRecvBufferSize, MSG_DONTWAIT);
    if (r > 0) {
      rend_ = static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      return Status::unavailable("transport: peer closed after " +
                                 std::to_string(got) + "/" +
                                 std::to_string(n) + " bytes");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_until(fd_, POLLIN, until)) {
        return Status::deadline_exceeded("transport: read deadline after " +
                                         std::to_string(got) + "/" +
                                         std::to_string(n) + " bytes");
      }
      continue;
    }
    return errno_status("transport: recv");
  }
  return Status::ok();
}

Result<size_t> Socket::read_some(std::string* out) {
  if (fd_ < 0) return Status::unavailable("transport: recv on closed socket");
  if (rbeg_ < rend_) {
    const size_t n = rend_ - rbeg_;
    out->append(rbuf_.get() + rbeg_, n);
    rbeg_ = rend_ = 0;
    return n;
  }
  char buf[65536];
  for (;;) {
    ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r > 0) {
      out->append(buf, static_cast<size_t>(r));
      return static_cast<size_t>(r);
    }
    if (r == 0) return Status::unavailable("transport: peer closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return errno_status("transport: recv");
  }
}

Result<size_t> Socket::write_some(std::string_view bytes) {
  if (fd_ < 0) return Status::unavailable("transport: send on closed socket");
  for (;;) {
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return errno_status("transport: send");
  }
}

// --- Listener ----------------------------------------------------------------

Listener::~Listener() { close(); }

Listener::Listener(Listener&& o) noexcept : fd_(o.fd_), ep_(std::move(o.ep_)) {
  o.fd_ = -1;
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    ep_ = std::move(o.ep_);
    o.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (ep_.kind == Endpoint::Kind::kUnix) ::unlink(ep_.path.c_str());
  }
}

Result<Listener> Listener::listen(const Endpoint& ep) {
  Result<SockAddr> sa = to_sockaddr(ep);
  if (!sa.ok()) return sa.status();

  int fd = ::socket(sa.value().family, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("transport: socket");

  if (ep.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    // A previous run that died without cleanup leaves the socket file
    // behind; bind would fail EADDRINUSE on a path nobody is listening on.
    ::unlink(ep.path.c_str());
  }

  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa.value().storage),
             sa.value().len) < 0) {
    Status st = errno_status("transport: bind " + ep.to_string());
    ::close(fd);
    return st;
  }
  if (::listen(fd, 16) < 0) {
    Status st = errno_status("transport: listen");
    ::close(fd);
    return st;
  }

  Listener l;
  l.fd_ = fd;
  l.ep_ = ep;
  if (ep.kind == Endpoint::Kind::kTcp && ep.port == 0) {
    sockaddr_in bound = {};
    socklen_t blen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
      l.ep_.port = ntohs(bound.sin_port);
    }
  }
  return l;
}

Result<Socket> Listener::accept(WallDuration deadline) {
  if (fd_ < 0) return Status::unavailable("transport: accept on closed listener");
  const Clock::time_point until = Clock::now() + deadline;
  for (;;) {
    if (!poll_until(fd_, POLLIN, until)) {
      return Status::deadline_exceeded("transport: accept deadline on " +
                                       ep_.to_string());
    }
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) {
      tune_stream(cfd, ep_);
      return Socket(cfd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return errno_status("transport: accept");
  }
}

// --- connect -----------------------------------------------------------------

Result<Socket> connect(const Endpoint& ep, WallDuration deadline) {
  Result<SockAddr> sa = to_sockaddr(ep);
  if (!sa.ok()) return sa.status();

  int fd = ::socket(sa.value().family, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("transport: socket");

  // Non-blocking connect: a black-holed SYN must respect the deadline, not
  // the kernel's multi-minute default.
  set_fd_nonblocking(fd, true);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa.value().storage),
                     sa.value().len);
  if (rc < 0 && errno != EINPROGRESS) {
    Status st = errno_status("transport: connect " + ep.to_string());
    ::close(fd);
    return st;
  }
  if (rc < 0) {
    if (!poll_until(fd, POLLOUT, Clock::now() + deadline)) {
      ::close(fd);
      return Status::deadline_exceeded("transport: connect deadline to " +
                                       ep.to_string());
    }
    int err = 0;
    socklen_t elen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) < 0 || err != 0) {
      ::close(fd);
      return Status::unavailable("transport: connect " + ep.to_string() +
                                 ": " + std::strerror(err != 0 ? err : errno));
    }
  }
  set_fd_nonblocking(fd, false);
  tune_stream(fd, ep);
  return Socket(fd);
}

// --- framed reads ------------------------------------------------------------

BatchReadResult read_batch(Socket& s, WallDuration deadline) {
  BatchReadResult out;
  // ONE absolute deadline for the whole length-chain walk.  Passing the
  // relative `deadline` to every recv would restart the budget per step — a
  // peer trickling a frame at a time could then hold the reader for
  // frames × deadline instead of one.
  const Clock::time_point until = Clock::now() + deadline;

  // Header first: it carries the frame count the length chain hangs off.
  Status st = s.recv_exact_until(wire::kBatchHeaderSize, &out.bytes, until);
  if (!st.is_ok()) {
    out.status = st;
    return out;
  }
  wire::DecodeStats header;
  if (!wire::parse_batch_header(out.bytes, &header).ok()) {
    out.status = Status::invalid_argument("transport: stream is not a PSB2 batch");
    return out;
  }

  for (size_t i = 0; i < header.frames_expected; ++i) {
    // Frame prefix: payload_len + checksum.
    size_t frame_start = out.bytes.size();
    st = s.recv_exact_until(wire::kFramePrefixSize, &out.bytes, until);
    if (!st.is_ok()) {
      out.status = st;
      return out;
    }
    Result<wire::Prefix> prefix =
        wire::parse_frame_prefix(out.bytes, frame_start);
    if (!prefix.ok()) {
      // The chain is lying (a length past kMaxPayload); anything further
      // would be read at a wrong offset.  Stop and let decode_batch/reconcile
      // mark the loss.
      out.status = Status::invalid_argument(
          "transport: frame length exceeds cap; stream corrupt");
      return out;
    }
    st = s.recv_exact_until(prefix.value().body_len, &out.bytes, until);
    if (!st.is_ok()) {
      out.status = st;
      return out;
    }
  }
  return out;
}

Result<wire::Message> read_message(Socket& s, WallDuration deadline) {
  std::string bytes;
  // Prefix and body share one absolute budget (same rationale as
  // read_batch: the deadline bounds the message, not each step).
  const Clock::time_point until = Clock::now() + deadline;
  Status st = s.recv_exact_until(wire::kMessagePrefixSize, &bytes, until);
  if (!st.is_ok()) return st;
  Result<wire::Prefix> prefix = wire::parse_message_prefix(bytes);
  if (!prefix.ok()) {
    return Status::invalid_argument("transport: stream is not a PSM2 message");
  }
  st = s.recv_exact_until(prefix.value().body_len, &bytes, until);
  if (!st.is_ok()) return st;
  return wire::decode_message(bytes);
}

Result<Greeting> dial_hello(const Endpoint& ep, WallDuration deadline,
                            const std::string& bind) {
  Result<Socket> s = connect(ep, deadline);
  if (!s.ok()) return s.status();
  Greeting g{std::move(s).take(), {}, 0};
  Result<wire::Message> msg = read_message(g.sock, deadline);
  if (!msg.ok()) return msg.status();
  if (msg.value().kind != wire::MessageKind::kHello) {
    return Status::unavailable("transport: expected a hello from " +
                               ep.to_string() + ", got " +
                               wire::to_string(msg.value().kind));
  }
  Result<wire::HelloMsg> hello = wire::decode_hello(msg.value().body);
  if (!hello.ok()) return hello.status();
  g.hello = std::move(hello).take();
  if (bind.empty()) return g;
  std::string names;
  for (size_t i = 0; i < g.hello.roster.size(); ++i) {
    if (g.hello.roster[i].name == bind) {
      g.bound = i;
      return g;
    }
    names += (i == 0 ? "" : ", ") + g.hello.roster[i].name;
  }
  return Status::failed_precondition("transport: endpoint " + ep.to_string() +
                                     " does not host agent '" + bind +
                                     "' (roster: " + names + ")");
}

}  // namespace perfsight::transport
