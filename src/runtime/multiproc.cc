#include "src/runtime/multiproc.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

constexpr std::uint64_t kArtifactsMagic = 0x63634b565241'01ull;  // "ccKVRA" v1
// PutOp's size with an empty value: session, type, key, value length, clock,
// writer, invoke, complete.
constexpr std::size_t kMinOpBytes = 4 + 1 + 8 + 4 + 4 + 1 + 8 + 8;

void PutOp(BufferWriter* w, const HistoryOp& op) {
  w->PutU32(op.session);
  w->PutU8(static_cast<std::uint8_t>(op.type));
  w->PutU64(op.key);
  w->PutString(op.value);
  w->PutU32(op.ts.clock);
  w->PutU8(op.ts.writer);
  w->PutU64(op.invoke);
  w->PutU64(op.complete);
}

bool GetOp(SafeReader* r, HistoryOp* op) {
  std::uint8_t type = 0;
  std::uint8_t writer = 0;
  if (!r->GetU32(&op->session) || !r->GetU8(&type) || !r->GetU64(&op->key) ||
      !r->GetString(&op->value) || !r->GetU32(&op->ts.clock) || !r->GetU8(&writer) ||
      !r->GetU64(&op->invoke) || !r->GetU64(&op->complete) || type > 1) {
    return false;
  }
  op->type = static_cast<OpType>(type);
  op->ts.writer = static_cast<NodeId>(writer);
  return true;
}

RankArtifacts ArtifactsOf(const LiveReport& report, LiveRack& rack) {
  RankArtifacts a;
  a.completed = report.completed;
  a.rpcs_sent = report.rpcs_sent;
  a.transport_error = report.transport_error;
  a.history = rack.history().ops();
  return a;
}

// Child body: run one rank, tear its rack down (so peers waiting on its
// sockets see them close), then stream the artifact.  Returns the exit code.
int RunChildRank(const LiveRackParams& params, int fd) {
  RankArtifacts artifacts;
  {
    LiveRack rack(params);
    artifacts = ArtifactsOf(rack.Run(), rack);
  }
  const Buffer raw = EncodeRankArtifacts(artifacts);
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = write(fd, raw.data() + off, raw.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return 2;
    }
    off += static_cast<std::size_t>(n);
  }
  return artifacts.transport_error.empty() ? 0 : 1;
}

// Empty on a clean EOF, else the read error.
std::string ReadToEof(int fd, Buffer* out) {
  std::uint8_t chunk[1 << 16];
  while (true) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n == 0) {
      return "";
    }
    if (n < 0) {
      return std::string("pipe read: ") + std::strerror(errno);
    }
    out->insert(out->end(), chunk, chunk + n);
  }
}

// Reaps `pid`; empty on exit status 0, else why it failed.
std::string WaitRank(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return std::string("waitpid: ") + std::strerror(errno);
    }
  }
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    return code == 0 ? "" : "exited with status " + std::to_string(code);
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "exited abnormally";
}

void AddError(std::string* error, int rank, const std::string& what) {
  if (!error->empty()) {
    *error += "; ";
  }
  *error += "rank " + std::to_string(rank) + ": " + what;
}

}  // namespace

Buffer EncodeRankArtifacts(const RankArtifacts& artifacts) {
  Buffer raw;
  BufferWriter w(&raw);
  w.PutU64(kArtifactsMagic);
  w.PutU64(artifacts.completed);
  w.PutU64(artifacts.rpcs_sent);
  w.PutString(artifacts.transport_error);
  w.PutU64(artifacts.history.size());
  for (const HistoryOp& op : artifacts.history) {
    PutOp(&w, op);
  }
  return raw;
}

bool DecodeRankArtifacts(const Buffer& raw, RankArtifacts* out, std::string* error) {
  SafeReader r(raw);
  std::uint64_t magic = 0;
  RankArtifacts a;
  std::uint64_t count = 0;
  if (!r.GetU64(&magic) || magic != kArtifactsMagic || !r.GetU64(&a.completed) ||
      !r.GetU64(&a.rpcs_sent) || !r.GetString(&a.transport_error) ||
      !r.GetU64(&count)) {
    *error = "artifact truncated or not an artifact stream";
    return false;
  }
  // Reject counts the remaining bytes cannot hold before reserving memory.
  if (count > r.remaining() / kMinOpBytes) {
    *error = "artifact claims impossible op count";
    return false;
  }
  a.history.resize(count);
  for (HistoryOp& op : a.history) {
    if (!GetOp(&r, &op)) {
      *error = "artifact has a truncated history op";
      return false;
    }
  }
  if (!r.AtEnd()) {
    *error = "artifact has trailing bytes";
    return false;
  }
  *out = std::move(a);
  return true;
}

RankedRun RunRankedRack(const LiveRackParams& params) {
  LiveRackParams p = params;
  if (p.clock_epoch_ns == 0) {
    p.clock_epoch_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  RankedRun run;
  run.ranks.resize(static_cast<std::size_t>(p.num_nodes));
  struct Child {
    pid_t pid;
    int fd;  // read end of the child's artifact pipe
  };
  std::vector<Child> children;  // children[i] runs rank i + 1

  for (int rank = 1; rank < p.num_nodes; ++rank) {
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      AddError(&run.error, rank, std::string("pipe: ") + std::strerror(errno));
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      // Keep only this rank's write end, so every other pipe reaches EOF as
      // soon as its own child exits.
      close(pipe_fds[0]);
      for (const Child& c : children) {
        close(c.fd);
      }
      p.transport.rank = rank;
      _exit(RunChildRank(p, pipe_fds[1]));
    }
    close(pipe_fds[1]);
    if (pid < 0) {
      close(pipe_fds[0]);
      AddError(&run.error, rank, std::string("fork: ") + std::strerror(errno));
      break;
    }
    children.push_back({pid, pipe_fds[0]});
  }

  if (run.error.empty()) {
    p.transport.rank = 0;
    LiveRack rack(p);
    run.report = rack.Run();
    run.ranks[0] = ArtifactsOf(run.report, rack);
  } else {
    // An incomplete rack would wait on the missing ranks forever.
    for (const Child& c : children) {
      kill(c.pid, SIGKILL);
    }
  }

  for (std::size_t i = 0; i < children.size(); ++i) {
    RankArtifacts& artifacts = run.ranks[i + 1];
    Buffer raw;
    const std::string read_error = ReadToEof(children[i].fd, &raw);
    close(children[i].fd);
    std::string decode_error;
    if (read_error.empty()) {
      DecodeRankArtifacts(raw, &artifacts, &decode_error);
    }
    std::string why = WaitRank(children[i].pid);
    if (!why.empty()) {
      // A dead child's partial artifact says nothing more; a transport
      // failure (exit 1) still delivered a well-formed one.
      if (!artifacts.transport_error.empty()) {
        why += " (" + artifacts.transport_error + ")";
      }
    } else {
      why = read_error.empty() ? decode_error : read_error;
    }
    if (!why.empty()) {
      AddError(&run.error, static_cast<int>(i) + 1, why);
    }
  }
  return run;
}

}  // namespace cckvs
