// Collects a run's metrics, prints each by name with its unit as it is
// measured, and emits the closing one-line JSON result.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Report {
 public:
  /// A metric of the run's result (end-to-end in untraced runs,
  /// per-layer in traced runs): printed now, emitted in the JSON.
  void metric(const std::string& name, double value, const std::string& unit) {
    result_.push_back({name, value, unit});
    std::printf("  %-34s %14s %s\n", name.c_str(), fmt_num(value).c_str(),
                unit.c_str());
  }
  /// A figure shown by name and unit but not part of the JSON result.
  static void info(const std::string& name, double value,
                   const std::string& unit) {
    std::printf("  %-34s %14s %s\n", name.c_str(), fmt_num(value).c_str(),
                unit.c_str());
  }
  static void line(const std::string& text) {
    std::printf("%s\n", text.c_str());
  }

  /// A failed correctness check: the run exits nonzero.
  void violation(const std::string& what) {
    ++violations_;
    std::printf("  CHECK FAILED: %s\n", what.c_str());
  }
  [[nodiscard]] bool correct() const { return violations_ == 0; }

  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  /// The last line of standard output.
  void emit_json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : result_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + m.name + "\": {\"value\": " + fmt_num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> result_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t violations_ = 0;
};

}  // namespace perfbench
