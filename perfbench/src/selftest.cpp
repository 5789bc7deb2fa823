// Self-test of the benchmark's own measurement logic: the tail-percentile
// rule, self-time subtraction, span-tree closure and orphans, and open-loop
// lateness.
// Run by perfbench/run.py before every build is used; exits 1 on the
// first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  using perfbench::bounded_percentile;
  using perfbench::highest_supported_tail;
  // 100 samples: 10 lie beyond p90, 1 beyond p99 -> p90 is the highest.
  const auto t100 = highest_supported_tail(ramp(100));
  EXPECT(t100.pct == 90.0);
  EXPECT(t100.value == 90.0);
  EXPECT(t100.samples == 100);
  // 1000 samples: p99 has exactly 10 beyond it.
  EXPECT(highest_supported_tail(ramp(1000)).pct == 99.0);
  EXPECT(highest_supported_tail(ramp(1000)).value == 990.0);
  // 999 samples: p99 has 9.99 beyond it -> not enough.
  EXPECT(highest_supported_tail(ramp(999)).pct == 90.0);
  // 100k samples: p99.99 has exactly 10 beyond it.
  EXPECT(highest_supported_tail(ramp(100'000)).pct == 99.99);
  // Below 20 samples not even p90 qualifies: the median is reported.
  EXPECT(highest_supported_tail(ramp(19)).pct == 50.0);
  EXPECT(highest_supported_tail(ramp(19)).value == 10.0);
  EXPECT(highest_supported_tail({}).samples == 0);
  // Asking for p99 reads p99 when supported, else falls back.
  EXPECT(bounded_percentile(ramp(5000), 99.0).pct == 99.0);
  EXPECT(bounded_percentile(ramp(5000), 99.0).value == 4950.0);
  EXPECT(bounded_percentile(ramp(500), 99.0).pct == 90.0);
  EXPECT(perfbench::median(ramp(5)) == 3.0);
}

void self_time() {
  using perfbench::Interval;
  using perfbench::self_ns;
  // No children: all self.
  EXPECT(self_ns({0, 100}, {}) == 100);
  // Disjoint children.
  EXPECT(self_ns({0, 100}, {{10, 20}, {30, 50}}) == 70);
  // Overlapping children count their union once.
  EXPECT(self_ns({0, 100}, {{10, 40}, {30, 60}}) == 50);
  // A child nested in another child adds nothing.
  EXPECT(self_ns({0, 100}, {{10, 60}, {20, 30}}) == 50);
  // Children are clipped to the parent.
  EXPECT(self_ns({0, 100}, {{-50, 10}, {90, 200}}) == 80);
  // A child entirely outside covers nothing.
  EXPECT(self_ns({0, 100}, {{200, 300}}) == 100);
  // Touching children.
  EXPECT(self_ns({0, 100}, {{0, 50}, {50, 100}}) == 0);
  // Closure: self time plus the children's union is the duration exactly
  // when every child lies inside the parent.
  EXPECT(perfbench::closes({0, 100}, {{10, 40}, {30, 60}}));
  EXPECT(!perfbench::closes({0, 100}, {{90, 110}}));
  EXPECT(!perfbench::closes({0, 100}, {{-10, 5}}));
  EXPECT(perfbench::union_ns({{10, 40}, {30, 60}, {70, 80}}) == 60);
}

void closure() {
  using perfbench::Span;
  using perfbench::check_trees;
  // root [0,100] -> a [10,40] -> a1 [15,25]; root -> b [50,90]
  std::vector<Span> closed{{"root", 1, 0, 1, 0, 100},
                           {"a", 2, 1, 1, 10, 40},
                           {"a1", 3, 2, 1, 15, 25},
                           {"b", 4, 1, 1, 50, 90}};
  auto check = check_trees(closed, {"root"});
  EXPECT(check.roots == 1);
  EXPECT(check.unclosed == 0);
  EXPECT(check.orphans == 0);
  const auto st = perfbench::summarize(closed);
  EXPECT(st.at("root").self_ns.front() == 30.0);
  EXPECT(st.at("a").self_ns.front() == 20.0);
  // A child that outlives its parent breaks closure.
  std::vector<Span> leaky = closed;
  leaky[3].end = 120;
  EXPECT(check_trees(leaky, {"root"}).unclosed == 1);
  // So does a grandchild that starts before its parent, even though it
  // lies inside the root.
  std::vector<Span> early = closed;
  early[2].begin = 5;
  EXPECT(check_trees(early, {"root"}).unclosed == 1);
  // Concurrent siblings (requests in flight together) close as long as
  // each stays inside the parent.
  std::vector<Span> concurrent = closed;
  concurrent[3].begin = 30;
  EXPECT(check_trees(concurrent, {"root"}).unclosed == 0);
  // A span whose parent was never recorded, or a root of another name,
  // belongs to no tree.
  std::vector<Span> orphaned = closed;
  orphaned.push_back({"server.dispatch", 5, 99, 5, 20, 30});
  orphaned.push_back({"server.dispatch_wait", 6, 0, 6, 20, 30});
  check = check_trees(orphaned, {"root"});
  EXPECT(check.orphans == 2);
  EXPECT(check.unclosed == 0);
  // A request in flight runs beside its parent: it is checked for closure
  // but not subtracted from the parent's self time.
  std::vector<Span> async = closed;
  async.push_back({"proto.exchange", 7, 4, 7, 60, 80, true});
  async.push_back({"server.dispatch", 8, 7, 7, 65, 75});
  const auto ast = perfbench::summarize(async);
  EXPECT(ast.at("b").self_ns.front() == 40.0);
  EXPECT(ast.at("proto.exchange").self_ns.front() == 10.0);
  EXPECT(check_trees(async, {"root"}).unclosed == 0);
  async.back().end = 85;  // the server answers after the client saw it
  EXPECT(check_trees(async, {"root"}).unclosed == 1);
}

void open_loop() {
  // One op every 100 ns from t=1000 ns.
  const perfbench::OpenLoopSchedule s(1000, 100);
  EXPECT(s.due(0) == 1000);
  EXPECT(s.due(5) == 1500);
  // On time: no lateness, latency from due.
  EXPECT(s.lateness(2, 1200) == 0);
  EXPECT(s.lateness(2, 1150) == 0);  // early counts as on time
  EXPECT(s.latency(2, 1260) == 60);
  // The generator stalls 1000 ns at op 3: ops 3..12 go out together at
  // t=2300. Each is late by its own distance from its due time, and its
  // latency includes that wait even though the server answered at once.
  for (std::uint64_t k = 3; k <= 12; ++k) {
    EXPECT(s.lateness(k, 2300) == 2300 - s.due(k));
    EXPECT(s.latency(k, 2310) == 2310 - s.due(k));
  }
  EXPECT(s.latency(3, 2310) == 1010);
  EXPECT(s.latency(12, 2310) == 110);
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  closure();
  open_loop();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
