#include "src/runtime/multiproc.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/rdma/serialize.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

// Bump when the blob layout changes; decode rejects mismatches outright
// (mixed-version racks would disagree on protocol parameters anyway).
constexpr std::uint8_t kParamsVersion = 5;  // v5: two knobs removed
constexpr std::uint64_t kArtifactsMagic = 0x63634b565241'01ull;  // "ccKVRA" v1

std::uint64_t DoubleBits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsDouble(std::uint64_t u) {
  double d = 0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

std::string ToHex(const Buffer& raw) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(raw.size() * 2);
  for (const std::uint8_t b : raw) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

bool FromHex(const std::string& hex, Buffer* raw) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  raw->clear();
  raw->reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    raw->push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

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

}  // namespace

std::string EncodeRackParams(const LiveRackParams& p) {
  Buffer raw;
  BufferWriter w(&raw);
  w.PutU8(kParamsVersion);
  w.PutU32(static_cast<std::uint32_t>(p.num_nodes));
  w.PutU8(static_cast<std::uint8_t>(p.consistency));
  w.PutU64(p.workload.keyspace);
  w.PutU64(DoubleBits(p.workload.zipf_alpha));
  w.PutU64(DoubleBits(p.workload.write_ratio));
  w.PutU32(p.workload.value_bytes);
  w.PutU64(p.workload.scramble_seed);
  w.PutU64(p.workload.drift_period_ops);
  w.PutU64(p.workload.drift_rank_shift);
  w.PutU64(p.cache_capacity);
  w.PutU64(p.partition_buckets);
  w.PutU32(static_cast<std::uint32_t>(p.window_per_node));
  w.PutU64(p.ops_per_node);
  w.PutU32(static_cast<std::uint32_t>(p.bcast_credits_per_peer));
  w.PutU32(static_cast<std::uint32_t>(p.credit_update_batch));
  w.PutU8(p.coalescing ? 1 : 0);
  w.PutU32(static_cast<std::uint32_t>(p.coalesce_max_batch));
  w.PutU64(p.coalesce_flush_deadline_us);
  w.PutU8(p.prefill_hot_set ? 1 : 0);
  w.PutU8(p.online_topk ? 1 : 0);
  w.PutU64(p.topk_epoch_requests);
  w.PutU64(DoubleBits(p.topk_sample_probability));
  w.PutU8(p.record_history ? 1 : 0);
  w.PutU64(p.seed);
  w.PutU8(static_cast<std::uint8_t>(p.transport.kind));
  w.PutU32(static_cast<std::uint32_t>(p.transport.rank));  // -1 round-trips
  w.PutString(p.transport.shm_name);
  w.PutU64(p.transport.shm_ring_bytes);
  w.PutString(p.transport.socket_path_base);
  w.PutU32(static_cast<std::uint32_t>(p.transport.tcp_port_base));
  w.PutU32(static_cast<std::uint32_t>(p.transport.connect_timeout_ms));
  w.PutU64(p.clock_epoch_ns);
  w.PutU8(p.pinning ? 1 : 0);
  w.PutU32(static_cast<std::uint32_t>(p.pin_core_base));
  w.PutU32(static_cast<std::uint32_t>(p.pin_stride));
  w.PutU8(p.busy_poll ? 1 : 0);
  w.PutU8(p.profile ? 1 : 0);
  w.PutU64(p.profile_interval_ms);
  w.PutString(p.profile_csv_path);
  w.PutU8(p.profile_to_stderr ? 1 : 0);
  w.PutU8(p.track_allocs ? 1 : 0);
  w.PutU8(p.alloc_assert ? 1 : 0);
  w.PutU8(p.prefill_store ? 1 : 0);
  w.PutString(p.trace_path);
  w.PutU64(p.trace_sample);
  w.PutU64(p.trace_ring_capacity);
  w.PutU64(p.l1_capacity);
  w.PutU8(static_cast<std::uint8_t>(p.l1_policy));
  w.PutU64(p.workload.node_rank_stride);
  return ToHex(raw);
}

bool DecodeRackParams(const std::string& hex, LiveRackParams* out, std::string* error) {
  Buffer raw;
  if (!FromHex(hex, &raw)) {
    *error = "rack params blob is not valid hex";
    return false;
  }
  SafeReader r(raw.data(), raw.size());
  std::uint8_t version = 0;
  if (!r.GetU8(&version) || version != kParamsVersion) {
    *error = "rack params blob version mismatch";
    return false;
  }
  LiveRackParams p;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::uint8_t u8 = 0;
  const bool ok =
      r.GetU32(&u32) && ((p.num_nodes = static_cast<int>(u32)), true) &&
      r.GetU8(&u8) && ((p.consistency = static_cast<ConsistencyModel>(u8)), true) &&
      r.GetU64(&p.workload.keyspace) &&
      r.GetU64(&u64) && ((p.workload.zipf_alpha = BitsDouble(u64)), true) &&
      r.GetU64(&u64) && ((p.workload.write_ratio = BitsDouble(u64)), true) &&
      r.GetU32(&p.workload.value_bytes) && r.GetU64(&p.workload.scramble_seed) &&
      r.GetU64(&p.workload.drift_period_ops) &&
      r.GetU64(&p.workload.drift_rank_shift) &&
      r.GetU64(&u64) && ((p.cache_capacity = u64), true) &&
      r.GetU64(&u64) && ((p.partition_buckets = u64), true) &&
      r.GetU32(&u32) && ((p.window_per_node = static_cast<int>(u32)), true) &&
      r.GetU64(&p.ops_per_node) &&
      r.GetU32(&u32) && ((p.bcast_credits_per_peer = static_cast<int>(u32)), true) &&
      r.GetU32(&u32) && ((p.credit_update_batch = static_cast<int>(u32)), true) &&
      r.GetU8(&u8) && ((p.coalescing = u8 != 0), true) &&
      r.GetU32(&u32) && ((p.coalesce_max_batch = static_cast<int>(u32)), true) &&
      r.GetU64(&p.coalesce_flush_deadline_us) &&
      r.GetU8(&u8) && ((p.prefill_hot_set = u8 != 0), true) &&
      r.GetU8(&u8) && ((p.online_topk = u8 != 0), true) &&
      r.GetU64(&p.topk_epoch_requests) &&
      r.GetU64(&u64) && ((p.topk_sample_probability = BitsDouble(u64)), true) &&
      r.GetU8(&u8) && ((p.record_history = u8 != 0), true) &&
      r.GetU64(&p.seed) &&
      r.GetU8(&u8) && ((p.transport.kind = static_cast<TransportKind>(u8)), true) &&
      r.GetU32(&u32) && ((p.transport.rank = static_cast<int>(u32)), true) &&
      r.GetString(&p.transport.shm_name) &&
      r.GetU64(&u64) && ((p.transport.shm_ring_bytes = u64), true) &&
      r.GetString(&p.transport.socket_path_base) &&
      r.GetU32(&u32) && ((p.transport.tcp_port_base = static_cast<int>(u32)), true) &&
      r.GetU32(&u32) && ((p.transport.connect_timeout_ms = static_cast<int>(u32)), true) &&
      r.GetU64(&p.clock_epoch_ns) &&
      r.GetU8(&u8) && ((p.pinning = u8 != 0), true) &&
      r.GetU32(&u32) && ((p.pin_core_base = static_cast<int>(u32)), true) &&
      r.GetU32(&u32) && ((p.pin_stride = static_cast<int>(u32)), true) &&
      r.GetU8(&u8) && ((p.busy_poll = u8 != 0), true) &&
      r.GetU8(&u8) && ((p.profile = u8 != 0), true) &&
      r.GetU64(&p.profile_interval_ms) &&
      r.GetString(&p.profile_csv_path) &&
      r.GetU8(&u8) && ((p.profile_to_stderr = u8 != 0), true) &&
      r.GetU8(&u8) && ((p.track_allocs = u8 != 0), true) &&
      r.GetU8(&u8) && ((p.alloc_assert = u8 != 0), true) &&
      r.GetU8(&u8) && ((p.prefill_store = u8 != 0), true) &&
      r.GetString(&p.trace_path) && r.GetU64(&p.trace_sample) &&
      r.GetU64(&u64) && ((p.trace_ring_capacity = u64), true) &&
      r.GetU64(&u64) && ((p.l1_capacity = u64), true) &&
      r.GetU8(&u8) && u8 <= 2 && ((p.l1_policy = static_cast<L1Policy>(u8)), true) &&
      r.GetU64(&p.workload.node_rank_stride) && r.AtEnd();
  if (!ok) {
    *error = "rack params blob truncated or malformed";
    return false;
  }
  *out = std::move(p);
  return true;
}

bool SaveRankArtifacts(const std::string& path, const RankArtifacts& artifacts,
                       std::string* error) {
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
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  f.write(reinterpret_cast<const char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  f.flush();
  if (!f) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

bool LoadRankArtifacts(const std::string& path, RankArtifacts* out,
                       std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  Buffer raw((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  SafeReader r(raw.data(), raw.size());
  std::uint64_t magic = 0;
  RankArtifacts a;
  std::uint64_t count = 0;
  if (!r.GetU64(&magic) || magic != kArtifactsMagic || !r.GetU64(&a.completed) ||
      !r.GetU64(&a.rpcs_sent) || !r.GetString(&a.transport_error) ||
      !r.GetU64(&count)) {
    *error = "artifact file " + path + " truncated or not an artifact file";
    return false;
  }
  // Each op costs ≥ 31 bytes on disk; reject counts the file cannot hold
  // before reserving memory for them.
  if (count > raw.size()) {
    *error = "artifact file " + path + " claims impossible op count";
    return false;
  }
  a.history.resize(count);
  for (HistoryOp& op : a.history) {
    if (!GetOp(&r, &op)) {
      *error = "artifact file " + path + " has a truncated history op";
      return false;
    }
  }
  if (!r.AtEnd()) {
    *error = "artifact file " + path + " has trailing bytes";
    return false;
  }
  *out = std::move(a);
  return true;
}

pid_t SpawnSelf(const std::vector<std::string>& args, std::string* error) {
  std::vector<std::string> argv_storage;
  argv_storage.reserve(args.size() + 1);
  argv_storage.push_back("/proc/self/exe");
  for (const std::string& a : args) {
    argv_storage.push_back(a);
  }
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& a : argv_storage) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return -1;
  }
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    // Only reached on exec failure; _exit avoids running parent atexit hooks.
    _exit(127);
  }
  return pid;
}

bool WaitExit(pid_t pid, int* exit_code, std::string* error) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      *error = std::string("waitpid: ") + std::strerror(errno);
      *exit_code = -1;
      return false;
    }
  }
  if (WIFEXITED(status)) {
    *exit_code = WEXITSTATUS(status);
    return true;
  }
  *exit_code = -1;
  if (WIFSIGNALED(status)) {
    *error = "child killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    *error = "child exited abnormally";
  }
  return false;
}

}  // namespace cckvs
