// The served stack the benchmark drives, wired as quickstart's
// ServerStack (2-shard BackendCluster, 2 AsyncDispatcher lanes at depth
// 8192 with a 25 ms retry hint, the frame recycler wired, default reactor
// shards, a DurableBackend only when a journal directory is given), plus
// the benchmark's tracing seams:
//   * TracedRequest, the client-side span of one request, registered
//     under the frame's link key so that the server-side spans of the same
//     request (found again from the frame on the server's threads) become
//     its children and share its operation id;
//   * TracedBackend, a RoundBackend decorator placed between the endpoint
//     and the cluster (and, with a journal, on both sides of the
//     DurableBackend), and on the client side above RemoteBackend;
//   * wrappers around the dispatcher's AsyncFrameHandler (enqueue time)
//     and its FrameHandler (handler start), whose difference is the lane
//     wait;
//   * TimedTransport, an AsyncTransport decorator timing each exchange
//     from the generator's side as a TracedRequest.
// While tracing is off every seam costs one relaxed atomic load.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/oprf.hpp"
#include "proto/message.hpp"
#include "proto/tcp.hpp"
#include "proto/transport.hpp"
#include "server/cluster.hpp"
#include "server/dispatcher.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace eyw;

// ------------------------------------------------------- request links

/// Link key of a frame: its kind, sender and round plus the last bytes of
/// its payload. The client computes it from the version-1 frame it sends,
/// the server-side wrapper from the version-1 frame the dispatcher gets;
/// requests in flight together differ in it (reports in their sender,
/// audits in their random blinded elements, control frames in kind).
inline std::uint64_t link_key(std::span<const std::uint8_t> frame) {
  if (frame.size() < proto::kEnvelopeHeaderBytes) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto eat = [&h](std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; };
  for (std::size_t i = 6; i < 20; ++i) eat(frame[i]);  // kind, sender, round
  const std::size_t tail =
      std::min<std::size_t>(16, frame.size() - proto::kEnvelopeHeaderBytes);
  for (std::size_t i = frame.size() - tail; i < frame.size(); ++i) eat(frame[i]);
  return h;
}

/// The client-side span of every traced request in flight, by link key.
class RequestLinks {
 public:
  void put(std::uint64_t key, Link link) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.map[key] = link;
  }
  /// The request `key` belongs to, or {0, 0} when none is in flight.
  [[nodiscard]] Link find(std::uint64_t key) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    return it == s.map.end() ? Link{} : it->second;
  }
  void erase(std::uint64_t key, Link link) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    if (const auto it = s.map.find(key); it != s.map.end() && it->second.id == link.id)
      s.map.erase(it);
  }

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Link> map;
  };
  Shard& shard(std::uint64_t key) { return shards_[key % shards_.size()]; }
  std::array<Shard, 16> shards_;
};

inline RequestLinks& request_links() {
  static RequestLinks links;
  return links;
}

/// One request's client-side span while tracing: opened below `parent`
/// where the request is sent, starting a new operation; registered under
/// the link key of the frame that carries it; closed on whichever thread
/// sees it complete. Inactive (and free) while tracing is off.
class TracedRequest {
 public:
  TracedRequest(const char* name, std::uint64_t parent) {
    Tracer& tracer = Tracer::get();
    if (!tracer.enabled()) return;
    span_ = {.name = name, .id = tracer.next_id(), .parent = parent, .async = true};
    span_.op = span_.id;
    span_.begin = now_ns();
  }
  TracedRequest(const char* name, std::uint64_t parent,
                std::span<const std::uint8_t> frame)
      : TracedRequest(name, parent) {
    bind(frame);
  }

  /// Registers the frame that carries the request.
  void bind(std::span<const std::uint8_t> frame) {
    if (span_.id == 0) return;
    key_ = link_key(frame);
    request_links().put(key_, link());
  }
  /// {id, op}: the cause of the request's other spans ({0, 0} when inactive).
  [[nodiscard]] Link link() const noexcept { return {span_.id, span_.op}; }
  /// Unregisters the frame and records the span, ending now.
  void close() {
    if (span_.id == 0) return;
    request_links().erase(key_, link());
    span_.end = now_ns();
    Tracer::get().record(span_);
  }

 private:
  Span span_;
  std::uint64_t key_ = 0;
};

// ---------------------------------------------------------- backend seam

/// Span names of one TracedBackend position, and whether its submits
/// return before their exchange completes.
struct BackendSpanNames {
  const char* begin;
  const char* submit;
  const char* missing;
  const char* adjust;
  const char* finalize;
  Requests submits = Requests::kWaits;
};

/// Client side, above RemoteBackend, whose submits are pipelined.
inline constexpr BackendSpanNames kRemoteSpans{
    "server.remote.begin", "server.remote.submit", "server.remote.missing",
    "server.remote.submit", "server.remote.finalize", Requests::kDetaches};
/// Server side, directly above the cluster.
inline constexpr BackendSpanNames kBackendSpans{
    "server.backend.begin", "server.backend.submit", "server.backend.missing",
    "server.backend.adjust", "server.backend.finalize"};
/// Server side, above the DurableBackend (its children are the
/// kBackendSpans of the cluster below it).
inline constexpr BackendSpanNames kDurableSpans{
    "server.durable.begin", "server.durable.submit", "server.durable.missing",
    "server.durable.adjust", "server.durable.finalize"};

/// Forwards every RoundBackend call to `inner` inside a span.
class TracedBackend final : public server::RoundBackend {
 public:
  TracedBackend(server::RoundBackend& inner, BackendSpanNames names)
      : inner_(inner), names_(names) {}

  [[nodiscard]] const server::BackendConfig& config() const noexcept override {
    return inner_.config();
  }
  void begin_round(std::uint64_t round, std::size_t roster) override {
    Scope s(names_.begin);
    inner_.begin_round(round, roster);
  }
  [[nodiscard]] std::uint64_t current_round() const noexcept override {
    return inner_.current_round();
  }
  [[nodiscard]] bool round_open() const noexcept override {
    return inner_.round_open();
  }
  void submit_report(std::size_t i, std::vector<crypto::BlindCell> c) override {
    Scope s(names_.submit, names_.submits);
    inner_.submit_report(i, std::move(c));
  }
  [[nodiscard]] std::vector<std::size_t> missing_participants() const override {
    Scope s(names_.missing);
    return inner_.missing_participants();
  }
  void submit_adjustment(std::size_t i,
                         std::vector<crypto::BlindCell> c) override {
    Scope s(names_.adjust, names_.submits);
    inner_.submit_adjustment(i, std::move(c));
  }
  void submit_report_frame(std::size_t i, std::vector<crypto::BlindCell> c,
                           std::span<const std::uint8_t> frame) override {
    Scope s(names_.submit, names_.submits);
    inner_.submit_report_frame(i, std::move(c), frame);
  }
  void submit_adjustment_frame(std::size_t i, std::vector<crypto::BlindCell> c,
                               std::span<const std::uint8_t> frame) override {
    Scope s(names_.adjust, names_.submits);
    inner_.submit_adjustment_frame(i, std::move(c), frame);
  }
  [[nodiscard]] server::RoundResult finalize_round(
      util::ThreadPool* pool = nullptr) override {
    Scope s(names_.finalize);
    return inner_.finalize_round(pool);
  }
  [[nodiscard]] server::RoundSnapshot snapshot_round() const override {
    return inner_.snapshot_round();
  }
  void restore_round(const server::RoundSnapshot& snapshot) override {
    inner_.restore_round(snapshot);
  }

 private:
  server::RoundBackend& inner_;
  BackendSpanNames names_;
};

/// Enqueue time and request of each frame between the dispatcher's two
/// handlers, keyed by the frame buffer's address (the dispatcher moves the
/// vector, so the address survives the queue).
class DispatchProbe {
 public:
  struct Entry {
    std::int64_t enqueued = 0;  // 0: the frame was not seen
    Link request;
  };
  void put(const void* frame, Entry entry) {
    Shard& s = shard(frame);
    std::lock_guard<std::mutex> lock(s.mu);
    s.map[frame] = entry;
  }
  Entry take(const void* frame) {
    Shard& s = shard(frame);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(frame);
    if (it == s.map.end()) return {};
    const Entry e = it->second;
    s.map.erase(it);
    return e;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<const void*, Entry> map;
  };
  Shard& shard(const void* p) {
    return shards_[(reinterpret_cast<std::uintptr_t>(p) >> 6) % shards_.size()];
  }
  std::array<Shard, 16> shards_;
};

inline constexpr std::size_t kStackShards = 2;
inline constexpr std::size_t kLaneDepth = 8192;
inline constexpr std::uint32_t kRetryAfterMs = 25;

/// quickstart's ServerStack plus the tracing seams (see file comment).
struct Stack {
  util::Rng rng{7};
  crypto::OprfServer oprf{rng, 256};
  server::BackendCluster cluster;
  TracedBackend traced_cluster{cluster, kBackendSpans};
  std::unique_ptr<server::DurableBackend> durable;
  std::unique_ptr<TracedBackend> traced_durable;
  server::BackendEndpoint backend_ep;
  server::OprfEndpoint oprf_ep{oprf};
  server::AsyncDispatcher::LaneRouter lane_of;
  DispatchProbe probe;
  server::AsyncDispatcher dispatcher;
  proto::FrameServer server;

  Stack(const server::BackendConfig& config, const std::string& journal_dir,
        std::size_t max_connections)
      : cluster(config, kStackShards),
        durable(journal_dir.empty() ? nullptr
                                    : std::make_unique<server::DurableBackend>(
                                          traced_cluster, durability(journal_dir))),
        traced_durable(durable ? std::make_unique<TracedBackend>(*durable,
                                                                 kDurableSpans)
                               : nullptr),
        backend_ep(traced_durable
                       ? static_cast<server::RoundBackend&>(*traced_durable)
                       : static_cast<server::RoundBackend&>(traced_cluster),
                   &cluster, /*serve_control=*/true),
        lane_of(server::cluster_lane_router(cluster)),
        dispatcher(
            [this](std::span<const std::uint8_t> frame) {
              return handle(frame);
            },
            kStackShards, lane_of, server::control_plane_barrier(),
            server::DispatcherLimits{.max_lane_depth = kLaneDepth,
                                     .retry_after_ms = kRetryAfterMs,
                                     .counters = &backend_ep.counters()}),
        server(
            [this, inner = dispatcher.handler()](std::vector<std::uint8_t> f,
                                                 proto::CompletionFn done) {
              if (Tracer::get().enabled())
                probe.put(f.data(), {now_ns(), request_links().find(link_key(f))});
              inner(std::move(f), std::move(done));
            },
            {.port = 0,
             .backlog = static_cast<int>(std::max<std::size_t>(256, max_connections)),
             .max_connections = max_connections}) {
    dispatcher.set_frame_recycler(server.frame_recycler());
  }

  /// quickstart's --journal configuration: defaults but for the directory.
  static server::DurabilityConfig durability(const std::string& dir) {
    server::DurabilityConfig config;
    config.dir = dir;
    return config;
  }

  /// The dispatcher's FrameHandler: lane wait + dispatch span below the
  /// client request the frame carries, then quickstart's kind routing with
  /// one endpoint span per frame.
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> frame) {
    Tracer& tracer = Tracer::get();
    if (!tracer.enabled()) return route(frame);
    const DispatchProbe::Entry e = probe.take(frame.data());
    if (e.enqueued != 0) {
      const std::int64_t start = now_ns();
      static constexpr const char* kWait[] = {"server.dispatch_wait.lane0",
                                              "server.dispatch_wait.lane1"};
      tracer.record({.name = kWait[lane_of(frame) % kStackShards],
                     .id = tracer.next_id(),
                     .parent = e.request.id,
                     .op = e.request.op,
                     .begin = e.enqueued,
                     .end = start});
    }
    Scope s("server.dispatch", e.request);
    return route(frame);
  }

  std::vector<std::uint8_t> route(std::span<const std::uint8_t> frame) {
    const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
    if (kind == proto::MsgKind::kOprfEvalRequest ||
        kind == proto::MsgKind::kOprfKeyQuery) {
      Scope s("server.endpoint.oprf");
      return oprf_ep.handle(frame);
    }
    Scope s(kind == proto::MsgKind::kBlindedReport ? "server.endpoint.report"
            : kind == proto::MsgKind::kAdjustment  ? "server.endpoint.adjust"
                                                   : "server.endpoint.control");
    return backend_ep.handle(frame);
  }
};

/// Generator-side AsyncTransport decorator: hands (kind, completion ns,
/// ok) of every exchange to `on_done`; while tracing, each exchange is a
/// proto.exchange TracedRequest below the sending thread's waiting span.
class TimedTransport final : public proto::AsyncTransport {
 public:
  using DoneFn =
      std::function<void(proto::MsgKind kind, std::int64_t done, bool ok)>;
  TimedTransport(proto::AsyncTransport& inner, DoneFn on_done)
      : inner_(inner), on_done_(std::move(on_done)) {}

  void exchange_async(std::vector<std::uint8_t> frame,
                      proto::AsyncCompletionFn done) override {
    const proto::MsgKind kind =
        proto::peek_kind(frame).value_or(proto::MsgKind::kAck);
    TracedRequest request("proto.exchange", trace_context().async_parent, frame);
    inner_.exchange_async(
        std::move(frame), [this, kind, request, done = std::move(done)](
                              proto::AsyncResult r) mutable {
          const std::int64_t t = now_ns();
          request.close();
          on_done_(kind, t, r.ok() && !r.reply.empty());
          done(std::move(r));
        });
  }

 private:
  proto::AsyncTransport& inner_;
  DoneFn on_done_;
};

}  // namespace perfbench
