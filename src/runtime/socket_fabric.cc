#include "src/runtime/socket_fabric.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/channel.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

std::uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Full write with MSG_NOSIGNAL: a dying peer yields EPIPE, not a signal.
bool WriteAll(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Full read with stream reassembly: short reads (a peer trickling a frame
// byte-by-byte) just loop.  Returns 1 on success, 0 on a clean EOF before
// any byte (an orderly connection close at a frame boundary — benign), and
// -1 on an error or an EOF mid-read (the peer died holding half a frame).
int ReadFull(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (r == 0) {
      return got == 0 ? 0 : -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

bool SendFrame(int fd, std::uint8_t type, const std::uint8_t* payload,
               std::size_t len) {
  std::uint8_t hdr[kSocketFrameHeaderBytes];
  hdr[0] = type;
  StoreLe<std::uint32_t>(hdr + 1, static_cast<std::uint32_t>(len));
  return WriteAll(fd, hdr, sizeof(hdr)) && (len == 0 || WriteAll(fd, payload, len));
}

class SocketFabric final : public TransportFabric {
 public:
  SocketFabric(const FabricConfig& config, const TransportOptions& opts)
      : n_(config.num_nodes),
        rank_(opts.rank),
        opts_(opts),
        fds_(static_cast<std::size_t>(n_) * n_, -1),
        returned_(static_cast<std::size_t>(n_) * n_),
        tx_scratch_(static_cast<std::size_t>(n_)) {
    inboxes_.reserve(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      inboxes_.push_back(
          std::make_unique<MpscChannel<WireBatch>>(config.channel_capacity));
    }
  }

  ~SocketFabric() override {
    Shutdown();
    for (int& fd : fds_) {
      if (fd >= 0) {
        close(fd);
        fd = -1;
      }
    }
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    if (!listen_path_.empty()) {
      unlink(listen_path_.c_str());
    }
  }

  bool Init(std::string* error) {
    if (rank_ < 0) {
      // All-in-one: a socketpair per unordered pair; each end is owned (for
      // writes) by one node and read on its behalf by the rx thread.
      for (int i = 0; i < n_; ++i) {
        for (int j = i + 1; j < n_; ++j) {
          int sv[2];
          if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            *error = std::string("socketpair: ") + std::strerror(errno);
            return false;
          }
          Fd(static_cast<NodeId>(i), static_cast<NodeId>(j)) = sv[0];
          Fd(static_cast<NodeId>(j), static_cast<NodeId>(i)) = sv[1];
        }
      }
    } else {
      if (!SetupRanked(error)) {
        return false;
      }
    }
    rx_thread_ = std::thread([this] { RxLoop(); });
    return true;
  }

  void Deliver(NodeId to, WireBatch&& batch) override {
    const NodeId src = batch.src;
    // Per-src serialize scratch: each node thread delivers only as itself.
    Buffer& buf = tx_scratch_[src];
    buf.clear();
    SerializeWireBatch(batch, &buf);
    batch_pool().Recycle(std::move(batch));  // bytes are out; rewarm the slots
    const int fd = Fd(src, to);
    if (fd < 0) {
      SetError("send to node " + std::to_string(static_cast<int>(to)) +
               ": connection is down");
      return;
    }
    if (!SendFrame(fd, kSocketFrameBatch, buf.data(), buf.size())) {
      SetError("send to node " + std::to_string(static_cast<int>(to)) + ": " +
               std::strerror(errno));
    }
  }

  void ReserveScratch(std::size_t frame_bytes) override {
    // tx only: rx_payload_ belongs to the already-running rx thread.
    for (Buffer& buf : tx_scratch_) {
      buf.reserve(frame_bytes);
    }
  }

  std::size_t Drain(NodeId self, std::vector<WireBatch>* out,
                    std::size_t max) override {
    return inboxes_[self]->TryDrain(out, max);
  }

  void Wait(NodeId self, std::chrono::microseconds timeout) override {
    std::vector<WireBatch> none;
    inboxes_[self]->WaitDrain(&none, /*max=*/0, timeout);
  }

  void ReturnCredits(NodeId self, NodeId to, int n) override {
    const int fd = Fd(self, to);
    if (fd < 0) {
      return;  // connection gone; the run is already erroring out
    }
    std::uint8_t payload[4];
    StoreLe<std::uint32_t>(payload, static_cast<std::uint32_t>(n));
    if (!SendFrame(fd, kSocketFrameCredit, payload, sizeof(payload))) {
      SetError("credit return to node " + std::to_string(static_cast<int>(to)) +
               ": " + std::strerror(errno));
    }
  }

  int TakeReturnedCredits(NodeId self, NodeId peer) override {
    return Cell(self, peer).exchange(0, std::memory_order_acquire);
  }

  FabricStats stats(NodeId self) const override {
    const MpscChannel<WireBatch>& inbox = *inboxes_[self];
    return FabricStats{inbox.pushes(), inbox.full_waits(), inbox.wakeups()};
  }

  std::uint64_t InboundDepth(NodeId self) const override {
    return inboxes_[self]->size();
  }

  std::string error() const override {
    std::lock_guard<std::mutex> lock(error_mu_);
    return error_;
  }

  bool faulted() const override {
    return faulted_.load(std::memory_order_acquire);
  }

  void Shutdown() override {
    if (shutdown_.exchange(true)) {
      return;
    }
    // Kick the rx thread out of poll()/recv(): shutdown(2) makes every
    // pending and future read return immediately without racing a close.
    for (const int fd : fds_) {
      if (fd >= 0) {
        shutdown(fd, SHUT_RDWR);
      }
    }
    if (listen_fd_ >= 0) {
      shutdown(listen_fd_, SHUT_RDWR);
    }
    if (rx_thread_.joinable()) {
      rx_thread_.join();
    }
  }

 private:
  int& Fd(NodeId owner, NodeId peer) {
    return fds_[static_cast<std::size_t>(owner) * n_ + peer];
  }
  std::atomic<int>& Cell(NodeId sender, NodeId returner) {
    return returned_[static_cast<std::size_t>(sender) * n_ + returner];
  }

  void SetError(const std::string& e) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_.empty()) {
      error_ = e;
    }
    faulted_.store(true, std::memory_order_release);
  }

  bool SetupRanked(std::string* error) {
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(opts_.connect_timeout_ms) * 1'000'000ull;
    if (!Listen(error)) {
      return false;
    }
    // Lower ranks listen before we connect (they set up their listener first
    // thing too), but their process may simply not have started yet — retry
    // connect until the shared deadline.
    for (int j = 0; j < rank_; ++j) {
      const int fd = ConnectTo(j, deadline, error);
      if (fd < 0) {
        return false;
      }
      const std::uint8_t hello = static_cast<std::uint8_t>(rank_);
      if (!SendFrame(fd, kSocketFrameHello, &hello, 1)) {
        *error = "hello to rank " + std::to_string(j) + ": " + std::strerror(errno);
        close(fd);
        return false;
      }
      Fd(static_cast<NodeId>(rank_), static_cast<NodeId>(j)) = fd;
    }
    // Higher ranks connect to us and identify themselves with HELLO.
    for (int expected = n_ - 1 - rank_; expected > 0; --expected) {
      const int fd = AcceptOne(deadline, error);
      if (fd < 0) {
        return false;
      }
      std::uint8_t hdr[kSocketFrameHeaderBytes];
      std::uint8_t peer = 0;
      if (ReadFull(fd, hdr, sizeof(hdr)) != 1 || hdr[0] != kSocketFrameHello ||
          LoadLe<std::uint32_t>(hdr + 1) != 1 || ReadFull(fd, &peer, 1) != 1 ||
          peer <= rank_ || peer >= n_) {
        *error = "malformed hello from an inbound connection";
        close(fd);
        return false;
      }
      if (Fd(static_cast<NodeId>(rank_), peer) >= 0) {
        *error = "duplicate hello from rank " + std::to_string(int{peer});
        close(fd);
        return false;
      }
      Fd(static_cast<NodeId>(rank_), peer) = fd;
    }
    return true;
  }

  bool Listen(std::string* error) {
    if (opts_.tcp_port_base > 0) {
      listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd_ < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
      }
      const int one = 1;
      setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port_base + rank_));
      if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          listen(listen_fd_, n_) != 0) {
        *error = "bind/listen tcp port " +
                 std::to_string(opts_.tcp_port_base + rank_) + ": " +
                 std::strerror(errno);
        return false;
      }
      return true;
    }
    listen_path_ = opts_.socket_path_base + "." + std::to_string(rank_);
    unlink(listen_path_.c_str());
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (listen_path_.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long: " + listen_path_;
      return false;
    }
    std::strncpy(addr.sun_path, listen_path_.c_str(), sizeof(addr.sun_path) - 1);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(listen_fd_, n_) != 0) {
      *error = "bind/listen " + listen_path_ + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  int ConnectTo(int peer, std::uint64_t deadline, std::string* error) {
    while (true) {
      int fd;
      int rc;
      if (opts_.tcp_port_base > 0) {
        fd = socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port_base + peer));
        rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      } else {
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        const std::string path = opts_.socket_path_base + "." + std::to_string(peer);
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      }
      if (rc == 0) {
        if (opts_.tcp_port_base > 0) {
          const int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        return fd;
      }
      const int err = errno;
      close(fd);
      if (NowNs() > deadline) {
        *error = "connect to rank " + std::to_string(peer) +
                 " refused past deadline: " + std::strerror(err);
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  int AcceptOne(std::uint64_t deadline, std::string* error) {
    while (true) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      const std::uint64_t now = NowNs();
      if (now > deadline) {
        *error = "timed out waiting for inbound rank connections";
        return -1;
      }
      const int timeout_ms = static_cast<int>((deadline - now) / 1'000'000ull) + 1;
      const int rc = poll(&pfd, 1, std::min(timeout_ms, 100));
      if (rc < 0 && errno != EINTR) {
        *error = std::string("poll(listen): ") + std::strerror(errno);
        return -1;
      }
      if (rc > 0 && (pfd.revents & POLLIN) != 0) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          if (opts_.tcp_port_base > 0) {
            const int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          }
          return fd;
        }
      }
    }
  }

  // The fabric's single receive thread: polls every inbound side, reassembles
  // frames, and feeds the per-node inboxes.  One decoded batch is one inbox
  // push — the wakeup-once-per-batch contract rides on MpscChannel as in the
  // in-process backend.
  void RxLoop() {
    std::vector<pollfd> pfds;
    struct LaneRef {
      NodeId owner;  // the local node whose inbox this lane feeds
      NodeId peer;
    };
    std::vector<LaneRef> lanes;
    for (int i = 0; i < n_; ++i) {
      if (rank_ >= 0 && i != rank_) {
        continue;
      }
      for (int j = 0; j < n_; ++j) {
        const int fd = Fd(static_cast<NodeId>(i), static_cast<NodeId>(j));
        if (fd >= 0) {
          pfds.push_back(pollfd{fd, POLLIN, 0});
          lanes.push_back(LaneRef{static_cast<NodeId>(i), static_cast<NodeId>(j)});
        }
      }
    }
    while (!shutdown_.load(std::memory_order_acquire)) {
      const int rc = poll(pfds.data(), pfds.size(), 50);
      if (rc < 0 && errno != EINTR) {
        SetError(std::string("poll: ") + std::strerror(errno));
        return;
      }
      if (rc <= 0) {
        continue;
      }
      for (std::size_t k = 0; k < pfds.size(); ++k) {
        if (pfds[k].fd < 0 ||
            (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        if (!HandleFrame(pfds[k].fd, lanes[k].owner, lanes[k].peer)) {
          pfds[k].fd = -pfds[k].fd - 1;  // stop polling this lane
        }
      }
    }
  }

  // Reads and dispatches one frame; false when the lane is dead.
  bool HandleFrame(int fd, NodeId owner, NodeId peer) {
    std::uint8_t hdr[kSocketFrameHeaderBytes];
    const int hrc = ReadFull(fd, hdr, sizeof(hdr));
    if (hrc <= 0) {
      // A clean close at a frame boundary (hrc == 0) is orderly teardown —
      // the rack-level termination handshake already ran.  Anything else is
      // a peer dying with half a frame on the wire.
      if (hrc < 0 && !shutdown_.load(std::memory_order_acquire)) {
        SetError("peer " + std::to_string(static_cast<int>(peer)) +
                 " hung up mid-frame");
      }
      return false;
    }
    const std::uint8_t type = hdr[0];
    const std::uint32_t len = LoadLe<std::uint32_t>(hdr + 1);
    if (len > kSocketMaxFrameBytes) {
      SetError("oversized frame (" + std::to_string(len) + " bytes) from peer " +
               std::to_string(static_cast<int>(peer)));
      return false;
    }
    // Member payload buffer: HandleFrame only ever runs on the one rx thread,
    // and resize() past the high-water mark is the only allocation.
    rx_payload_.resize(len);
    if (len > 0 && ReadFull(fd, rx_payload_.data(), len) != 1) {
      if (!shutdown_.load(std::memory_order_acquire)) {
        SetError("peer " + std::to_string(static_cast<int>(peer)) +
                 " hung up mid-frame");
      }
      return false;
    }
    switch (type) {
      case kSocketFrameBatch: {
        WireBatch batch = batch_pool().Acquire();  // decode into warm slots
        if (!TryDeserializeWireBatch(rx_payload_.data(), len, &batch)) {
          SetError("undecodable batch frame from peer " +
                   std::to_string(static_cast<int>(peer)));
          batch_pool().Recycle(std::move(batch));
          return false;
        }
        inboxes_[owner]->Push(std::move(batch));
        return true;
      }
      case kSocketFrameCredit: {
        if (len != 4) {
          SetError("malformed credit frame from peer " +
                   std::to_string(static_cast<int>(peer)));
          return false;
        }
        Cell(owner, peer).fetch_add(
            static_cast<int>(LoadLe<std::uint32_t>(rx_payload_.data())),
            std::memory_order_release);
        return true;
      }
      case kSocketFrameHello:
        return true;  // late hello: harmless
      default:
        SetError("unknown frame type " + std::to_string(int{type}) +
                 " from peer " + std::to_string(static_cast<int>(peer)));
        return false;
    }
  }

  const int n_;
  const int rank_;
  const TransportOptions opts_;
  std::vector<int> fds_;  // [owner][peer], -1 when absent
  std::vector<std::unique_ptr<MpscChannel<WireBatch>>> inboxes_;
  std::vector<std::atomic<int>> returned_;
  int listen_fd_ = -1;
  std::string listen_path_;
  std::vector<Buffer> tx_scratch_;  // per src; each node writes only as itself
  Buffer rx_payload_;               // rx-thread-only frame reassembly buffer
  std::thread rx_thread_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> faulted_{false};
  mutable std::mutex error_mu_;
  std::string error_;
};

}  // namespace

std::unique_ptr<TransportFabric> MakeSocketFabric(const FabricConfig& config,
                                                  const TransportOptions& opts,
                                                  std::string* error) {
  auto fabric = std::make_unique<SocketFabric>(config, opts);
  if (!fabric->Init(error)) {
    return nullptr;
  }
  return fabric;
}

}  // namespace cckvs
