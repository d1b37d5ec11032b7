// One flat JSON object, printed on a single line: the driver's only output
// format (benchmark/run.py reads the last line of each child's stdout).

#ifndef CCKVS_BENCHMARK_DRIVER_JSON_LINE_H_
#define CCKVS_BENCHMARK_DRIVER_JSON_LINE_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace cckvs::benchmark {

class JsonLine {
 public:
  void Add(const std::string& name, double value) {
    char buf[64];
    // Non-finite values are not JSON; null makes run.py reject the metric.
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    fields_.emplace_back(name, buf);
  }
  void Add(const std::string& name, bool value) {
    fields_.emplace_back(name, value ? "true" : "false");
  }
  void Add(const std::string& name, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    quoted += '"';
    fields_.emplace_back(name, std::move(quoted));
  }
  // Without this a string literal would pick the bool overload.
  void Add(const std::string& name, const char* value) {
    Add(name, std::string(value));
  }

  void Print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace cckvs::benchmark

#endif  // CCKVS_BENCHMARK_DRIVER_JSON_LINE_H_
