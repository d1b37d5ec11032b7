#include "src/cckvs/report_util.h"

#include "src/net/network.h"

namespace cckvs {

void FillThroughput(std::uint64_t completed, std::uint64_t hit_completed,
                    std::uint64_t miss_completed, double duration_ns,
                    RackReport* report) {
  report->completed = completed;
  if (duration_ns <= 0) {
    return;
  }
  report->mrps = static_cast<double>(completed) / duration_ns * 1e3;
  report->hit_mrps = static_cast<double>(hit_completed) / duration_ns * 1e3;
  report->miss_mrps = static_cast<double>(miss_completed) / duration_ns * 1e3;
  report->hit_rate = completed == 0 ? 0.0
                                    : static_cast<double>(hit_completed) /
                                          static_cast<double>(completed);
}

void FillLatency(const Histogram& latency, RackReport* report) {
  report->avg_latency_us = latency.Mean() / 1e3;
  report->p50_latency_us = static_cast<double>(latency.P50()) / 1e3;
  report->p95_latency_us = static_cast<double>(latency.P95()) / 1e3;
  report->p99_latency_us = static_cast<double>(latency.P99()) / 1e3;
}

std::vector<std::pair<std::string, double>> ReportFields(const RackReport& r) {
  std::vector<std::pair<std::string, double>> f;
#define CCKVS_REPORT_FIELD(type, name) f.emplace_back(#name, r.name);
  CCKVS_RACK_REPORT_FIELDS(CCKVS_REPORT_FIELD)
#undef CCKVS_REPORT_FIELD
  for (int c = 0; c < static_cast<int>(TrafficClass::kNumClasses); ++c) {
    f.emplace_back(std::string("gbps_") + ToString(static_cast<TrafficClass>(c)),
                   r.class_gbps[c]);
  }
  return f;
}

}  // namespace cckvs
