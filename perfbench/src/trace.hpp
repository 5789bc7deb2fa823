// Span recorder of the benchmark's traced mode. Spans are recorded only in
// the benchmark's own code, around calls into the library's public seams
// (decorators and handler wrappers in stack.hpp, generator-side timing in
// the workloads); nothing inside the library is instrumented.
//
// Each span has a name, start, end, the span that caused it (parent) and
// a per-operation id. Every request the generator sends (an exchange or an
// audit) starts an operation: its client-side span and every server-side
// span of the same request share that op id, and the server spans hang
// below the client span even though they run on other threads (stack.hpp
// links them through the frame). Spans stay in memory — one buffer per
// recording thread, each behind its own uncontended mutex — and are
// written out when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t op = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  /// A request in flight (opened and closed on different threads): it runs
  /// beside its parent, so it does not count against the parent's self time.
  bool async = false;
};

/// A span to hang children below: its id and operation.
struct Link {
  std::uint64_t id = 0;
  std::uint64_t op = 0;
};

/// Per-name summary of the recorded spans.
struct SpanStats {
  std::size_t count = 0;
  std::vector<double> dur_ns;
  std::vector<double> self_ns;
};

class Tracer {
 public:
  static Tracer& get();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append one finished span to the calling thread's buffer.
  void record(const Span& span);

  /// Every span recorded so far, across all threads.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The calling thread's open spans, as Scope maintains them.
struct TraceContext {
  /// Innermost open span: the parent of the next Scope.
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  /// Innermost open span that waits for the requests started inside it:
  /// the parent of the next request this thread sends.
  std::uint64_t async_parent = 0;
};
TraceContext& trace_context() noexcept;

/// Whether a span waits for the requests it starts. A pipelined submit
/// returns before its exchange completes (kDetaches), so that exchange
/// belongs to the enclosing span that waits for it.
enum class Requests { kWaits, kDetaches };

/// RAII span on the calling thread; a no-op while tracing is off.
class Scope {
 public:
  /// A span below the thread's innermost open span, in its operation.
  explicit Scope(const char* name, Requests requests = Requests::kWaits);
  /// A span caused by `cause`, opened on a thread that did not open it
  /// (server side, completion callbacks). A zero cause makes a root,
  /// which the tree check reports as an orphan.
  Scope(const char* name, Link cause);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void open(const char* name, Link parent, bool waits);

  bool active_ = false;
  Span span_;
  TraceContext saved_;
};

/// Self time of every span (duration minus the union of its synchronous
/// children), summarized by name.
[[nodiscard]] std::map<std::string, SpanStats> summarize(
    const std::vector<Span>& spans);

/// The span trees below roots with the given names.
struct TreeCheck {
  std::size_t roots = 0;
  /// Roots with a descendant that reaches outside its parent, so the
  /// parent's duration is not its self time plus its children's.
  std::size_t unclosed = 0;
  /// Spans that belong to no root's tree (an unlinked server-side span, a
  /// request sent outside a round).
  std::size_t orphans = 0;
};
[[nodiscard]] TreeCheck check_trees(const std::vector<Span>& spans,
                                    std::initializer_list<const char*> roots);

/// Write spans as TSV (id, parent, op, name, begin_ns, end_ns), at most
/// `cap` of them in start order; returns the number written.
std::size_t write_spans(const std::string& path, std::vector<Span> spans,
                        std::size_t cap);

}  // namespace perfbench
