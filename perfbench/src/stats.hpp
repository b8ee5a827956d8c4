// Pure helpers of the node benchmark: latency summaries, the seeded
// open-loop schedule, the stage table and JSON number formatting. Kept
// free of any cluster code so the self-test can pin them down exactly.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fully specified, so a seed means the same stream
/// on every platform and compiler.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream for (seed, tag): each phase of a run
/// draws from its own stream, so adding a phase never shifts another.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix64 m(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  return m.next();
}

/// `n` distinct keys drawn uniformly from [0, 2^width).
inline std::vector<std::uint64_t> make_key_pool(std::uint64_t seed,
                                                std::size_t n,
                                                unsigned width) {
  SplitMix64 rng(mix_seed(seed, 0x6b6579));
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  const std::uint64_t space = std::uint64_t{1} << width;
  while (keys.size() < n) {
    keys.push_back(rng.below(space));
    if (keys.size() == n) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  // Back to a seeded (not sorted) order: pool index = stream source id.
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  return keys;
}

/// One scheduled request of an open-loop phase.
struct Arrival {
  std::int64_t due_ns = 0;    // offset from the phase start
  std::uint32_t key_idx = 0;  // index into the key pool
};

/// Fixed-rate open-loop schedule: request i is due at i / rate, on a
/// key drawn uniformly from the pool. Same inputs, same schedule.
inline std::vector<Arrival> make_schedule(std::uint64_t seed,
                                          std::uint64_t phase_tag,
                                          double rate, double seconds,
                                          std::size_t pool_size) {
  const auto n = std::size_t(std::llround(rate * seconds));
  std::vector<Arrival> out(n);
  SplitMix64 rng(mix_seed(seed, phase_tag));
  const double gap_ns = 1e9 / rate;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].due_ns = std::int64_t(std::llround(double(i) * gap_ns));
    out[i].key_idx = std::uint32_t(rng.below(pool_size));
  }
  return out;
}

/// The highest of the reported percentiles that still has at least
/// ten samples beyond it (0 when there are fewer than 20 samples).
inline double highest_supported_percentile(std::size_t samples) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (double(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps e.g. 0.999 * 1000 from rounding up past 999.
  const double rank = std::ceil(p / 100.0 * double(sorted.size()) - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1, std::size_t(rank) - 1);
  return sorted[idx];
}

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0, p99 = 0, p999 = 0, max = 0;
  /// Highest percentile with >= 10 samples beyond it (see above).
  double supported = 0;
};

inline LatencySummary summarize(std::vector<double> values) {
  LatencySummary s;
  std::sort(values.begin(), values.end());
  s.samples = values.size();
  s.p50 = percentile_sorted(values, 50.0);
  s.p99 = percentile_sorted(values, 99.0);
  s.p999 = percentile_sorted(values, 99.9);
  s.max = values.empty() ? 0.0 : values.back();
  s.supported = highest_supported_percentile(values.size());
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One latency sample stamped with the time that places it in a window
/// (an open loop's due time, a closed loop's start time).
struct TimedSample {
  std::int64_t at_ns = 0;
  double value = 0;
};

/// A run's latency as the median over consecutive windows of each
/// window's percentiles: a rare host stall then moves one window, not
/// the run's figure. `samples` counts all of them; `supported` is the
/// highest percentile with >= 10 samples beyond it in the smallest
/// window counted. Windows with fewer than half the mean window's
/// samples (a ragged tail) are dropped.
inline LatencySummary summarize_windows(const std::vector<TimedSample>& all,
                                        std::int64_t start_ns,
                                        std::int64_t window_ns) {
  std::vector<std::vector<double>> windows;
  for (const auto& s : all) {
    const auto w = std::size_t(std::max<std::int64_t>(0, s.at_ns - start_ns) /
                               window_ns);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(s.value);
  }
  const double mean = windows.empty() ? 0.0
                                      : double(all.size()) / double(windows.size());
  std::vector<double> p50, p99, p999, maxes;
  std::size_t smallest = all.size();
  for (auto& w : windows) {
    if (double(w.size()) < 0.5 * mean) continue;
    const auto s = summarize(std::move(w));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    p999.push_back(s.p999);
    maxes.push_back(s.max);
    smallest = std::min(smallest, s.samples);
  }
  LatencySummary out;
  out.samples = all.size();
  out.p50 = median(p50);
  out.p99 = median(p99);
  out.p999 = median(p999);
  out.max = maxes.empty() ? 0.0 : *std::max_element(maxes.begin(), maxes.end());
  out.supported = p50.empty() ? 0.0 : highest_supported_percentile(smallest);
  return out;
}

/// Stage table: attributed per-stage costs of the client median plus
/// the remainder nobody accounts for. The remainder is reported as-is
/// (it can be negative when stages overlap), never folded away.
struct StageRow {
  std::string name;
  double us = 0;
};

inline std::vector<StageRow> close_stage_table(std::vector<StageRow> rows,
                                               double client_p50_us) {
  double attributed = 0;
  for (const auto& r : rows) attributed += r.us;
  rows.push_back({"unattributed", client_p50_us - attributed});
  return rows;
}

/// Shortest round-trip decimal form of a double (all its digits).
inline std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// True when `name` is a valid metric/workload name: starts with a
/// letter or digit, then only letters, digits, '_', '.', '-', <= 64.
inline bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
