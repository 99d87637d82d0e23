// Syscall budget of the batch reader: a PSB2 batch of many small frames,
// already queued in the kernel, must be read in a handful of recv calls —
// one per receive-buffer fill — not two per frame.
//
// This binary defines recv(2) itself, so every recv in the process (the
// transport's included) goes through the counting wrapper below.  That is
// why it is a test binary of its own.
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "perfsight/transport.h"
#include "perfsight/wire.h"

namespace {
std::atomic<int> g_watch_fd{-1};
std::atomic<uint64_t> g_recv_calls{0};
}  // namespace

extern "C" ssize_t recv(int fd, void* buf, size_t n, int flags) {
  if (fd == g_watch_fd.load(std::memory_order_relaxed)) {
    g_recv_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<ssize_t>(
      syscall(SYS_recvfrom, fd, buf, n, flags, nullptr, nullptr));
}

namespace perfsight {
namespace {

void append_le(std::string* s, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) s->push_back(static_cast<char>(v >> (8 * i)));
}

// A structurally valid PSB2 batch; read_batch only walks the length chain,
// so the checksums need not verify.
std::string synthetic_batch(uint32_t frames, uint32_t payload) {
  std::string b;
  append_le(&b, wire::kMagic, 4);
  append_le(&b, frames, 4);
  append_le(&b, 0, 8);  // channel_time_ns
  append_le(&b, 0, 4);  // unknown_ids
  for (uint32_t f = 0; f < frames; ++f) {
    append_le(&b, payload, 4);
    append_le(&b, 0, 8);  // checksum
    b.append(payload, 'x');
  }
  return b;
}

TEST(TransportRecvCountTest, BatchOfSmallFramesCostsOneRecvPerBufferFill) {
  const std::string path =
      "/tmp/ps-recv-count-" + std::to_string(::getpid()) + ".sock";
  Result<transport::Listener> l =
      transport::Listener::listen(transport::Endpoint::unix_path(path));
  ASSERT_TRUE(l.ok()) << l.status().message();
  Result<transport::Socket> c = transport::connect(
      l.value().bound_endpoint(), transport::WallDuration(1000));
  ASSERT_TRUE(c.ok());
  Result<transport::Socket> a = l.value().accept(transport::WallDuration(1000));
  ASSERT_TRUE(a.ok());
  transport::Socket client = std::move(c).take();
  transport::Socket server = std::move(a).take();

  // 1024 frames, about 112 KiB: more than one buffer fill.  The sender's
  // buffer is raised so the whole batch sits in the kernel before the
  // first read, which makes the recv count independent of scheduling.
  const std::string batch = synthetic_batch(1024, 100);
  const int sndbuf = 1 << 20;
  ASSERT_EQ(::setsockopt(server.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  ASSERT_TRUE(server.send_all(batch, transport::WallDuration(1000)).is_ok());

  g_watch_fd.store(client.fd());
  transport::BatchReadResult read =
      transport::read_batch(client, transport::WallDuration(1000));
  g_watch_fd.store(-1);

  ASSERT_TRUE(read.clean()) << read.status.message();
  EXPECT_EQ(read.bytes, batch);
  const uint64_t fills =
      (batch.size() + transport::kRecvBufferSize - 1) /
      transport::kRecvBufferSize;
  EXPECT_LE(g_recv_calls.load(), fills + 2)
      << "bytes=" << batch.size() << " recv calls=" << g_recv_calls.load();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace perfsight
