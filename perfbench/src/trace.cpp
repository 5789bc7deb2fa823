#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "bench_stats.hpp"

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local_buffer() {
  // Buffers are owned by the tracer, so spans of threads that have
  // already exited (a torn-down stack) stay collectable.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

void Tracer::record(const Span& span) {
  Buffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

TraceContext& trace_context() noexcept {
  thread_local TraceContext context;
  return context;
}

Scope::Scope(const char* name, Requests requests) {
  if (!Tracer::get().enabled()) return;
  const TraceContext& ctx = trace_context();
  open(name, {ctx.parent, ctx.op}, requests == Requests::kWaits);
}

Scope::Scope(const char* name, Link cause) {
  if (!Tracer::get().enabled()) return;
  open(name, cause, true);
}

void Scope::open(const char* name, Link parent, bool waits) {
  active_ = true;
  TraceContext& ctx = trace_context();
  saved_ = ctx;
  span_.name = name;
  span_.id = Tracer::get().next_id();
  span_.parent = parent.id;
  span_.op = parent.op != 0 ? parent.op : span_.id;
  ctx.parent = span_.id;
  ctx.op = span_.op;
  if (waits) ctx.async_parent = span_.id;
  span_.begin = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end = now_ns();
  trace_context() = saved_;
  Tracer::get().record(span_);
}

namespace {

using Children = std::unordered_map<std::uint64_t, std::vector<const Span*>>;

/// Children of every span, by parent id.
Children children_of(const std::vector<Span>& spans) {
  Children children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);
  return children;
}

std::vector<Interval> child_intervals(const Span& s, const Children& kids,
                                      bool sync_only) {
  std::vector<Interval> out;
  if (const auto it = kids.find(s.id); it != kids.end())
    for (const Span* c : it->second)
      if (!(sync_only && c->async)) out.push_back({c->begin, c->end});
  return out;
}

}  // namespace

std::map<std::string, SpanStats> summarize(const std::vector<Span>& spans) {
  const Children kids = children_of(spans);
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    SpanStats& st = out[s.name];
    ++st.count;
    st.dur_ns.push_back(static_cast<double>(s.end - s.begin));
    st.self_ns.push_back(static_cast<double>(
        self_ns({s.begin, s.end}, child_intervals(s, kids, /*sync_only=*/true))));
  }
  return out;
}

TreeCheck check_trees(const std::vector<Span>& spans,
                      std::initializer_list<const char*> roots) {
  const Children kids = children_of(spans);
  const auto is_root = [&](const Span& s) {
    if (s.parent != 0) return false;
    for (const char* r : roots)
      if (std::strcmp(s.name, r) == 0) return true;
    return false;
  };
  TreeCheck check;
  std::size_t reached = 0;
  for (const Span& root : spans) {
    if (!is_root(root)) continue;
    ++check.roots;
    bool closed = true;
    std::vector<const Span*> stack{&root};
    while (!stack.empty()) {
      const Span* s = stack.back();
      stack.pop_back();
      ++reached;
      closed = closed && closes({s->begin, s->end}, child_intervals(*s, kids, false));
      if (const auto it = kids.find(s->id); it != kids.end())
        stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
    if (!closed) ++check.unclosed;
  }
  check.orphans = spans.size() - reached;
  return check;
}

std::size_t write_spans(const std::string& path, std::vector<Span> spans,
                        std::size_t cap) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "id\tparent\top\tname\tbegin_ns\tend_ns\n");
  const std::size_t n = std::min(cap, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.begin),
                 static_cast<long long>(s.end));
  }
  std::fclose(f);
  return n;
}

}  // namespace perfbench
