// Socket transport for the PSB2/PSM2 wire codec (ROADMAP: "Real sockets
// under the wire codec").
//
// This is the first layer where PerfSight's bytes cross a process boundary:
// a remote-agent stub (remote_agent.h) listens here, the controller-side
// RemoteAgent adapter dials here, and the frames of wire.h travel between
// them over TCP or a unix-domain socket.
//
// Design constraints, in order:
//   - Deadlines on every blocking call.  The collection runtime owns its
//     sweep budget; a wedged peer must cost a bounded wall-clock wait, not a
//     hung controller.  recv/send/accept/connect all poll() with a deadline
//     and report kDeadlineExceeded on expiry.  Multi-step reads (the PSB2
//     length-chain walk) thread ONE absolute deadline through every step, so
//     a trickling peer costs at most one configured deadline of wall clock —
//     never frames × deadline.
//   - Partial data survives.  recv_exact returns whatever arrived before the
//     stream died, so the batch reader can hand a damaged prefix to
//     wire::decode_batch + wire::reconcile instead of discarding a
//     half-received sweep.
//   - Few syscalls per reply.  A Socket reads into its own receive buffer
//     (up to kRecvBufferSize per recv) and serves recv_exact from it, so a
//     PSB2 batch of small frames costs one recv per 64 KiB, not two polls
//     and two recvs per frame.  Bytes past what a read asked for stay
//     buffered for the next read on the same Socket.
//   - Length-chain-aware reads.  read_batch walks the PSB2 structure (header
//     frame-count, per-frame payload_len) with wire's prefix parsers, so a
//     corrupted length prefix caps out at kMaxPayload and never makes the
//     reader trust a multi-gigabyte allocation.
//
// Everything here is wall-clock and OS-level; simulated time never enters —
// it travels *inside* the request messages (BatchRequestMsg::now).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "perfsight/wire.h"

namespace perfsight::transport {

using Clock = std::chrono::steady_clock;
using WallDuration = std::chrono::milliseconds;

// The span clock: monotonic wall nanoseconds since an arbitrary per-process
// epoch.  Server-side trace spans are stamped with it, the hello handshake
// samples it, and the client-side offset estimate maps one process's span
// clock onto another's at trace export.  (Tests skew a *server's* view of
// it via RemoteAgentServer::set_clock_skew_ns to prove the correction.)
int64_t span_clock_ns();

// Where a remote agent listens.  Spec strings:
//   "tcp:<host>:<port>"   e.g. "tcp:127.0.0.1:7070"  (port 0 = ephemeral)
//   "unix:<path>"         e.g. "unix:/tmp/perfsight-agent.sock"
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;  // kTcp: numeric IPv4 address
  uint16_t port = 0; // kTcp; 0 requests an ephemeral port
  std::string path;  // kUnix

  static Endpoint tcp(std::string host, uint16_t port);
  static Endpoint unix_path(std::string path);
  static Result<Endpoint> parse(const std::string& spec);
  std::string to_string() const;
};

// The most one recv pulls into a Socket's receive buffer.
inline constexpr size_t kRecvBufferSize = 64 * 1024;

// A connected stream socket.  Move-only RAII over the fd and its receive
// buffer: a move carries the buffered bytes along, close() discards them.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& o) noexcept;
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  // Bytes already read off the fd and held for the next read.
  size_t buffered() const { return rend_ - rbeg_; }

  // Flips O_NONBLOCK (event-loop servers run every accepted connection
  // nonblocking and multiplex with poll()).
  void set_nonblocking(bool on);

  // Writes all of `bytes` (MSG_NOSIGNAL; a dead peer is a Status, not a
  // SIGPIPE).  kUnavailable on any send error.  Without a deadline the call
  // waits indefinitely for buffer space; with one, a peer that never drains
  // its receive buffer costs kDeadlineExceeded after `deadline` instead of
  // wedging the sending thread forever.
  Status send_all(std::string_view bytes);
  Status send_all(std::string_view bytes, WallDuration deadline);
  Status send_all_until(std::string_view bytes, Clock::time_point until);

  // Reads exactly `n` bytes into `*out` (appended): buffered bytes first,
  // then nonblocking recvs of up to kRecvBufferSize each, polling (until
  // the deadline) only when the socket has nothing to give.  Bytes past `n`
  // stay buffered.  On failure `*out` still holds every byte that arrived —
  // partial data is the caller's to reconcile:
  //   kDeadlineExceeded — the deadline expired mid-read
  //   kUnavailable      — peer closed (EOF) or socket error
  // The _until form takes an absolute deadline, so a multi-step read can
  // thread one total budget through every step.
  Status recv_exact(size_t n, std::string* out, WallDuration deadline);
  Status recv_exact_until(size_t n, std::string* out, Clock::time_point until);

  // Nonblocking single read: appends whatever is available (the buffered
  // bytes if any, else at most one 64 KiB chunk) to `*out` and returns the
  // byte count — 0 with ok() means nothing is pending (EAGAIN).
  // kUnavailable on EOF or socket error.  Event-loop reads only; the socket
  // must be nonblocking.
  Result<size_t> read_some(std::string* out);

  // Nonblocking single write: sends what fits in the socket buffer and
  // returns the byte count — 0 with ok() means the buffer is full (EAGAIN).
  // kUnavailable on a dead peer.  Event-loop writes only.
  Result<size_t> write_some(std::string_view bytes);

 private:
  int fd_ = -1;
  // Receive buffer: [rbeg_, rend_) of rbuf_ is read but not yet handed out.
  // Allocated by the first recv_exact, so event-loop sockets that only
  // read_some never carry one.
  std::unique_ptr<char[]> rbuf_;
  size_t rbeg_ = 0;
  size_t rend_ = 0;
};

// A bound, listening socket.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds + listens.  For tcp port 0, the resolved ephemeral port is
  // reflected into bound_endpoint().  For unix, a stale socket file at the
  // path is removed first.
  static Result<Listener> listen(const Endpoint& ep);

  // Accepts one connection; kDeadlineExceeded if none arrives in time.
  Result<Socket> accept(WallDuration deadline);

  const Endpoint& bound_endpoint() const { return ep_; }
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }  // for event loops polling the listener
  void close();

 private:
  int fd_ = -1;
  Endpoint ep_;
};

// Dials `ep` (non-blocking connect + poll, so the deadline holds even while
// the peer's backlog is full or the host is black-holing SYNs).
Result<Socket> connect(const Endpoint& ep, WallDuration deadline);

// What a stream read of one PSB2 batch yielded.  `bytes` always holds
// everything that arrived — on a clean read the whole batch, on a torn one
// the surviving prefix (which wire::decode_batch turns into verified frames
// and wire::reconcile turns into kMissing blind spots).
struct BatchReadResult {
  std::string bytes;
  Status status = Status::ok();  // ok / kDeadlineExceeded / kUnavailable
  bool clean() const { return status.is_ok(); }
};

// Reads one PSB2 batch off the stream by walking its length chain: the
// 20-byte header yields the frame count; each frame's 12-byte prefix yields
// its payload length.  `deadline` is the budget for the WHOLE batch — one
// absolute deadline threads through every header/prefix/payload step, so a
// peer trickling one frame at a time costs at most one deadline of wall
// clock, never frames × deadline.  A length prefix exceeding
// wire::kMaxPayload stops the read (corrupt stream); the bytes so far are
// returned for reconciliation.
BatchReadResult read_batch(Socket& s, WallDuration deadline);

// Reads and decodes one PSM2 control message (17-byte prefix, then body).
// `deadline` covers prefix + body together (one absolute budget, like
// read_batch).  kDeadlineExceeded / kUnavailable on transport failure,
// kInvalidArgument on a malformed envelope or a body that fails its
// checksum.
Result<wire::Message> read_message(Socket& s, WallDuration deadline);

// A dialed connection whose server hello has been read and decoded, bound
// to one roster entry.
struct Greeting {
  Socket sock;
  wire::HelloMsg hello;
  size_t bound = 0;  // index in hello.roster of the agent bound

  wire::HelloMsg::AgentInfo& agent() { return hello.roster[bound]; }
};
// The first step of every client connection (the remote adapter, the
// stream subscriber): dial `ep`, read the hello the server sends on accept
// (each step gets its own `deadline`) and bind the roster entry named
// `bind`, or the first entry when `bind` is empty.  A name the roster
// lacks is a config error, not a transient: kFailedPrecondition naming the
// roster.
Result<Greeting> dial_hello(const Endpoint& ep, WallDuration deadline,
                            const std::string& bind = {});

}  // namespace perfsight::transport
