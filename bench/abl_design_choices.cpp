// Ablations for the design choices the paper discusses but does not chart:
//
//  (a) CRCW vs EREW KVS inside ccKVS (§6.4: CRCW wins ~10% by cutting the
//      cache-thread/KVS-thread connection count).
//  (b) RDMA multicast vs software broadcast for SC updates (§6.3: multicast
//      does not help — the receive side, not the send side, is the bottleneck).
//  (c) Credit-update batching (§6.4: batched header-only credits make flow
//      control negligible).
//  (d) Symmetric-cache size sweep (how much cache buys how much throughput).

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  cckvs::bench::Init(argc, argv);
  using namespace cckvs;
  using namespace cckvs::bench;

  std::printf("Design-choice ablations, 9 nodes, alpha=0.99\n\n");

  {
    // The EREW penalty is extra connections: every remote cache thread needs a
    // QP per KVS thread, and the wider CQ sweep costs CPU (§6.4).  The effect
    // shows where CPU headroom matters, so measure with coalescing on (the
    // network-bound uncoalesced regime hides any CPU-side difference).
    std::printf("(a) KVS concurrency model inside ccKVS (read-only, coalescing):\n");
    RackParams crcw = PaperRack(SystemKind::kCcKvs);
    crcw.coalescing = true;
    RackParams erew = crcw;
    erew.kvs_erew = true;
    const double crcw_mrps = RunRack(crcw).mrps;
    const double erew_mrps = RunRack(erew).mrps;
    std::printf("    CRCW %.1f MRPS | EREW %.1f MRPS | CRCW/EREW = %.2fx "
                "(paper: ~1.10x from fewer connections)\n\n",
                crcw_mrps, erew_mrps, crcw_mrps / erew_mrps);
  }

  {
    // Deep window so both variants run at capacity rather than being paced by
    // closed-loop latency; the question is whether multicast raises capacity.
    std::printf("(b) SC update broadcast mechanism (5%% writes):\n");
    RackParams unicast = PaperRack(SystemKind::kCcKvs, ConsistencyModel::kSc);
    unicast.workload.write_ratio = 0.05;
    unicast.window_per_node = 1024;
    RackParams multicast = unicast;
    multicast.multicast_updates = true;
    const double uni = RunRack(unicast).mrps;
    const double multi = RunRack(multicast).mrps;
    std::printf("    software broadcast %.1f MRPS | RDMA multicast %.1f MRPS "
                "(paper: no benefit / slight decrease; the receive side and the\n"
                "    switch's multicast replication overhead bind)\n\n",
                uni, multi);
  }

  {
    std::printf("(c) credit-update batching (Lin, 5%% writes):\n");
    for (const int batch : {1, 4, 8, 16}) {
      RackParams p = PaperRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
      p.workload.write_ratio = 0.05;
      p.credit_update_batch = batch;
      const RackReport r = RunRack(p);
      const double fc_share =
          r.class_gbps[static_cast<int>(TrafficClass::kCreditUpdate)] /
          r.tx_gbps_per_node;
      std::printf("    batch %2d: %.1f MRPS, flow control = %.2f%% of traffic\n",
                  batch, r.mrps, 100.0 * fc_share);
    }
    std::printf("\n");
  }

  {
    std::printf("(d) symmetric cache size (read-only):\n");
    for (const std::size_t cap : {25'000ull, 100'000ull, 250'000ull, 500'000ull}) {
      RackParams p = PaperRack(SystemKind::kCcKvs);
      p.cache_capacity = cap;
      const RackReport r = RunRack(p);
      std::printf("    %7llu keys (%.3f%% of data): %.1f MRPS, hit rate %.0f%%\n",
                  static_cast<unsigned long long>(cap),
                  100.0 * static_cast<double>(cap) / 250e6, r.mrps,
                  100.0 * r.hit_rate);
    }
    std::printf("\n");
  }

  return 0;
}
