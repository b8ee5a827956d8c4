// Self-test of the benchmark's pure helpers (stats.hpp). Exits 0 when
// every check holds; prints each failure otherwise.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void percentile_selection() {
  using perfbench::highest_supported_percentile;
  // At least ten samples must lie beyond the reported percentile.
  check(highest_supported_percentile(19) == 0.0, "19 samples: none");
  check(highest_supported_percentile(20) == 50.0, "20 samples: p50");
  check(highest_supported_percentile(99) == 50.0, "99 samples: p50");
  check(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  check(highest_supported_percentile(999) == 90.0, "999 samples: p90");
  check(highest_supported_percentile(1000) == 99.0, "1000 samples: p99");
  check(highest_supported_percentile(10000) == 99.9, "10k samples: p99.9");
  check(highest_supported_percentile(100000) == 99.99, "100k: p99.99");

  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  const auto s = perfbench::summarize(v);
  check(s.samples == 1000, "summary counts samples");
  check(s.p50 == 500.0, "nearest-rank p50");
  check(s.p99 == 990.0, "nearest-rank p99");
  check(s.p999 == 999.0, "nearest-rank p99.9");
  check(s.supported == 99.0, "summary names its supported percentile");
  check(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");

  // Windowed summary: a stall inside one window leaves the median of
  // the windows' percentiles alone.
  std::vector<perfbench::TimedSample> timed;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      const double v = w == 2 && i > 900 ? 1e6 : double(i);
      timed.push_back({std::int64_t(w) * 1000 + i - 1, v});
    }
  }
  const auto ws = perfbench::summarize_windows(timed, 0, 1000);
  check(ws.samples == 5000, "windowed summary counts every sample");
  check(ws.p99 == 990.0, "one stalled window does not move the median p99");
  check(ws.max == 1e6, "the stall still shows in the max");
  check(ws.supported == 99.0, "support judged per window");
}

void schedule_is_seeded() {
  using perfbench::make_schedule;
  const auto a = make_schedule(7, 3, 5000.0, 0.5, 16384);
  const auto b = make_schedule(7, 3, 5000.0, 0.5, 16384);
  const auto c = make_schedule(8, 3, 5000.0, 0.5, 16384);
  const auto d = make_schedule(7, 4, 5000.0, 0.5, 16384);
  check(a.size() == 2500, "rate x seconds requests");
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].key_idx == b[i].key_idx;
  }
  check(same, "same seed, same schedule");
  std::size_t diff_seed = 0, diff_tag = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff_seed += a[i].key_idx != c[i].key_idx ? 1 : 0;
    diff_tag += a[i].key_idx != d[i].key_idx ? 1 : 0;
  }
  check(diff_seed > a.size() / 2, "another seed, other keys");
  check(diff_tag > a.size() / 2, "another phase, other keys");
  check(a[1].due_ns == 200000 && a[2499].due_ns == 499800000,
        "fixed spacing of 1/rate");

  const auto p1 = perfbench::make_key_pool(7, 16384, 24);
  const auto p2 = perfbench::make_key_pool(7, 16384, 24);
  check(p1 == p2, "same seed, same key pool");
  auto sorted = p1;
  std::sort(sorted.begin(), sorted.end());
  check(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "pool keys are distinct");
  check(sorted.back() < (1u << 24), "pool keys fit the key width");
}

void stage_table_sums_to_p50() {
  const std::vector<perfbench::StageRow> rows = {
      {"wire", 1.25}, {"clash.accept", 7.5}, {"net.transport", 21.0}};
  for (const double p50 : {40.0, 29.75, 12.0}) {
    const auto t = perfbench::close_stage_table(rows, p50);
    double sum = 0;
    for (const auto& r : t) sum += r.us;
    check(t.back().name == "unattributed", "last row is unattributed");
    check(std::fabs(sum - p50) < 1e-9, "rows plus unattributed equal p50");
  }
  check(perfbench::close_stage_table(rows, 12.0).back().us < 0,
        "over-attribution shows as a negative remainder");
}

void names() {
  using perfbench::valid_name;
  check(valid_name("p50_us") && valid_name("wire.encode_ns.repl_append") &&
            valid_name("bench.gen_lag_p99_us") && valid_name("9x-y"),
        "valid names accepted");
  check(!valid_name("") && !valid_name("_x") && !valid_name("a b") &&
            !valid_name("a/b") && !valid_name(std::string(65, 'a')),
        "invalid names rejected");
  check(perfbench::fmt_num(0.1) == "0.1" && perfbench::fmt_num(1234.5) == "1234.5",
        "numbers keep all their digits");
}

}  // namespace

int main() {
  percentile_selection();
  schedule_is_seeded();
  stage_table_sums_to_p50();
  names();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
