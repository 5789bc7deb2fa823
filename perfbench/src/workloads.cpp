#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "bench_stats.hpp"
#include "client/extension.hpp"
#include "client/url_mapper.hpp"
#include "core/local_detector.hpp"
#include "crypto/dh.hpp"
#include "proto/client_reactor.hpp"
#include "proto/raw_frame_io.hpp"
#include "server/remote_backend.hpp"
#include "server/round.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Fewest timed rounds a run makes, however short --seconds is.
constexpr std::size_t kMinRounds = 4;

constexpr std::size_t kRoster = 256;
constexpr std::size_t kMissingPerRound = kRoster / 10;
constexpr std::size_t kIngestReporters = 32768;
constexpr std::size_t kIngestWindow = 2048;
constexpr std::size_t kAuditReporters = 16384;
constexpr std::int64_t kReportIntervalNs = 100'000;  // 10,000 reports/s
constexpr std::int64_t kAuditIntervalNs = 1'000'000;  // 1,000 audits/s
constexpr std::size_t kAuditStreams = 64;
/// The round workloads' one audit batch per round: 64 URLs in one request,
/// the shape of bench_overhead_privacy's oprf_map_batch row.
constexpr std::size_t kAuditBatch = 64;
constexpr std::size_t kSpanFileCap = 200'000;
constexpr std::size_t kTracedRounds = 4;

/// ROADMAP stages the benchmark cannot separate from outside the library.
constexpr const char* kInProgramStages[] = {
    "client keygen vs pair secrets (one RoundCoordinator constructor span)",
    "client pad expansion vs report encode (client.round self time holds both)",
    "wire send/receive vs server frame assembly (inside FrameServer reactors; "
    "proto.exchange minus server.dispatch bounds them together)",
    "decode+validate vs sketch apply (server.endpoint.report self time vs "
    "server.backend.submit is the closest split)",
    "journal copy vs fsync (DurableBackend's writer thread; only "
    "server.durable.submit self time and storage.* counters are visible)",
    "finalize unblind vs id-space scan (one server.backend.finalize span)",
};

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// The generator's budget: its threads (itself plus the client reactor
/// shards) and its TCP connections each stay at or below nproc.
std::size_t generator_shards() {
  return std::clamp<std::size_t>(nproc() > 1 ? nproc() - 1 : 1, 1, 2);
}
std::size_t generator_connections() { return std::min<std::size_t>(4, nproc()); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Host CPU ticks {steal, total} from /proc/stat: the share of time the
/// hypervisor ran something else while this VM wanted to run.
std::pair<double, double> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

/// VmHWM: the process's peak resident set so far, in MB.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  std::fclose(f);
  return kb / 1024.0;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// quickstart's served geometry: the ingest workloads' configuration.
server::BackendConfig ingest_config() {
  return {.cms_params = {.depth = 4, .width = 256},
          .cms_hash_seed = 3,
          .id_space = 10'000,
          .users_rule = core::ThresholdRule::kMean};
}

/// The Section 7.1 round: from_error_bounds(2000, 0.005, 0.005) cells
/// over a 100k-id space.
server::BackendConfig round_config() {
  return {.cms_params = sketch::CmsParams::from_error_bounds(2'000, 0.005, 0.005),
          .cms_hash_seed = 3,
          .id_space = 100'000,
          .users_rule = core::ThresholdRule::kMean};
}

/// Seeded synthetic report of reporter i in `round` (no crypto runs in
/// the ingest workloads; the reference rebuilds the same cells).
std::vector<std::uint32_t> synthetic_cells(const server::BackendConfig& config,
                                           std::uint64_t seed,
                                           std::uint64_t round, std::size_t i) {
  std::vector<std::uint32_t> cells(config.cms_params.cells());
  const std::uint64_t base = mix(seed ^ mix(round * 0x100000001b3ULL ^ i));
  const std::uint64_t step = mix(base) | 1;
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c] = static_cast<std::uint32_t>((base + c * step) >> 17);
  return cells;
}

std::vector<std::uint8_t> report_frame(const server::BackendConfig& config,
                                       std::uint64_t seed, std::uint64_t round,
                                       std::size_t i) {
  return proto::BlindedReport{.participant = static_cast<std::uint32_t>(i),
                              .params = config.cms_params,
                              .cells = synthetic_cells(config, seed, round, i)}
      .encode(round);
}

/// quickstart's deployment invariant: every field of the two results
/// agrees bit for bit.
bool results_identical(const server::RoundResult& want,
                       const server::RoundResult& got) {
  const auto want_cells = want.aggregate.cells();
  const auto got_cells = got.aggregate.cells();
  bool identical = want_cells.size() == got_cells.size() &&
                   want.users_threshold == got.users_threshold &&
                   want.distribution.counts() == got.distribution.counts() &&
                   want.reports == got.reports && want.roster == got.roster;
  for (std::size_t i = 0; identical && i < want_cells.size(); ++i)
    identical = want_cells[i] == got_cells[i];
  return identical;
}

bool is_ack(const proto::AsyncResult& r) {
  if (!r.ok()) return false;
  try {
    (void)proto::expect_reply(r.reply, proto::MsgKind::kAck);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Thread-safe sample sink (completions arrive on reactor threads).
class Samples {
 public:
  void add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    v_.push_back(v);
  }
  [[nodiscard]] std::vector<double> values() const {
    std::lock_guard<std::mutex> lock(mu_);
    return v_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> v_;
};

/// Counts completions of a batch of exchanges down to the waiting thread.
class Countdown {
 public:
  void reset(std::size_t target) {
    std::lock_guard<std::mutex> lock(mu_);
    target_ = target;
    done_ = ok_ = 0;
    last_ns_ = 0;
  }
  void arrive(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    if (ok) ++ok_;
    if (done_ == target_) {
      last_ns_ = now_ns();
      cv_.notify_all();
    }
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ >= target_; });
  }
  [[nodiscard]] bool finished() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_ >= target_;
  }
  [[nodiscard]] std::size_t ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ok_;
  }
  [[nodiscard]] std::int64_t last_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_ns_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t target_ = 0;
  std::size_t done_ = 0;
  std::size_t ok_ = 0;
  std::int64_t last_ns_ = 0;
};

/// One timed round's measurements. Lives in a deque (stable address):
/// completions of the round write into it through a pointer.
struct RoundRecord {
  std::uint64_t round = 0;
  bool traced = false;
  std::int64_t start_ns = 0;
  double round_s = 0.0;
  double ingest_per_s = 0.0;
  std::size_t accepted = 0;
  /// CPU of the round's audit batch, kept out of cpu_ms_per_report.
  double audit_cpu_s = 0.0;
  Samples ack_ms;
  Samples audit_ms;
  Samples late_ms;
  std::vector<std::size_t> reporting;  // blinded_round: who reported
  std::optional<server::RoundResult> result;
};

/// The load generator: one ClientReactor (generator_shards() loop
/// threads) and generator_connections() mux connections; every logical
/// channel below is a MuxStream on one of them.
class Generator {
 public:
  Generator(std::uint16_t port, std::size_t connections, std::uint64_t seed)
      : port_(port),
        threads_before_(proto::raw::process_threads()),
        reactor_(std::make_unique<proto::ClientReactor>(proto::ClientReactorOptions{
            .shards = generator_shards(), .backoff_jitter_seed = seed})) {
    for (std::size_t k = 0; k < connections; ++k)
      conns_.push_back(reactor_->open_mux("127.0.0.1", port));
  }
  ~Generator() { reactor_->stop(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// A dedicated (not multiplexed) connection.
  std::shared_ptr<proto::ClientChannel> channel() {
    return reactor_->open("127.0.0.1", port_);
  }
  /// A new persistent stream on connection i mod connections.
  std::shared_ptr<proto::MuxStream> stream(std::size_t i) {
    return conns_[i % conns_.size()]->open_stream();
  }
  /// Threads the generator runs on: its own plus the reactor's.
  [[nodiscard]] std::size_t threads() const {
    return 1 + (proto::raw::process_threads() - threads_before_);
  }
  [[nodiscard]] std::size_t connections() const {
    return reactor_->counters().connects_established;
  }
  [[nodiscard]] proto::ClientReactorCounters counters() const {
    return reactor_->counters();
  }
  [[nodiscard]] std::uint64_t streams_opened() const {
    std::uint64_t n = 0;
    for (const auto& c : conns_) n += c->streams_opened();
    return n;
  }

 private:
  std::uint16_t port_;
  std::size_t threads_before_;
  std::unique_ptr<proto::ClientReactor> reactor_;
  std::vector<std::shared_ptr<proto::MuxChannel>> conns_;
};

/// Operator control plane: the pipelined RemoteBackend over a timed
/// transport, below the client-side TracedBackend.
struct Control {
  Control(std::shared_ptr<proto::AsyncTransport> link,
          const server::BackendConfig& config, TimedTransport::DoneFn on_done)
      : link(std::move(link)),
        timed(*this->link, std::move(on_done)),
        remote(timed, config),
        backend(remote, kRemoteSpans) {}

  std::shared_ptr<proto::AsyncTransport> link;
  TimedTransport timed;
  server::RemoteBackend remote;
  TracedBackend backend;
};

/// The real-time audit of never-seen ad URLs: blind, one OprfEvalRequest
/// on a mux stream, verified unblind, then the local verdict against the
/// last published aggregate and Users_th. audit_under_ingest audits one
/// URL per request (OprfClient::blind / finalize); the round workloads
/// audit one batch of kAuditBatch URLs after each round (blind_batch /
/// finalize_batch), as bench_overhead_privacy's oprf_map_batch row does.
/// While tracing, each audit is a client.audit request whose blind,
/// server-side and unblind spans hang below it.
class Auditor {
 public:
  Auditor(Generator& gen, std::size_t streams, std::uint64_t seed,
          std::uint64_t id_space)
      : seed_(seed), id_space_(id_space), rng_(mix(seed ^ 0xa0d17)) {
    for (std::size_t s = 0; s < streams; ++s) streams_.push_back(gen.stream(s));
    proto::SyncTransportAdapter link(*streams_[0]);
    const proto::OprfKeyAnswer key = proto::OprfKeyAnswer::decode(
        proto::expect_reply(link.exchange(proto::encode_oprf_key_query()),
                            proto::MsgKind::kOprfKeyAnswer));
    element_bytes_ = key.element_bytes;
    client_.emplace(crypto::RsaPublicKey{.n = key.n, .e = key.e});
    // The auditing user's own browsing: enough ad-serving domains for the
    // detector to give verdicts rather than abstain.
    util::Rng browse(mix(seed ^ 0xb0));
    for (std::uint64_t a = 0; a < 64; ++a)
      detector_.observe(browse.below(id_space), static_cast<core::DomainId>(a % 12),
                        static_cast<core::Day>(a / 10));
  }

  void publish(const server::RoundResult& result) {
    auto snapshot = std::make_shared<const server::RoundResult>(result);
    std::lock_guard<std::mutex> lock(mu_);
    published_ = std::move(snapshot);
  }

  /// Audit URLs first .. first+count-1 in one request, timed from
  /// `due_ns`; the latency lands in `sink`.
  void send(std::uint64_t first, std::size_t count, std::int64_t due_ns,
            Samples* sink) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    TracedRequest audit("client.audit", trace_context().async_parent);
    auto urls = std::make_shared<std::vector<std::string>>();
    for (std::uint64_t k = first; k < first + count; ++k) urls->push_back(url(k));
    auto blinded = std::make_shared<std::vector<crypto::OprfBlinded>>();
    {
      Scope s("client.oprf_blind", audit.link());
      if (count == 1) {
        blinded->push_back(client_->blind(urls->front(), rng_));
      } else {
        const std::vector<std::string_view> views(urls->begin(), urls->end());
        *blinded = client_->blind_batch(views, rng_);
      }
    }
    proto::OprfEvalRequest request{.element_bytes = element_bytes_, .elements = {}};
    for (const crypto::OprfBlinded& b : *blinded)
      request.elements.push_back(b.blinded_element);
    std::vector<std::uint8_t> frame = request.encode(/*sender=*/0);
    audit.bind(frame);
    streams_[first % streams_.size()]->exchange_async(
        std::move(frame),
        [this, first, due_ns, sink, urls, blinded, audit](proto::AsyncResult r) mutable {
          complete(first, due_ns, sink, *urls, *blinded, audit, std::move(r));
        });
  }

  /// Closed-loop audit of `count` URLs: send now and wait for the verdicts.
  void run_batch(std::uint64_t first, std::size_t count, Samples* sink) {
    const std::uint64_t before = completed();
    send(first, count, now_ns(), sink);
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return done_ > before; });
  }

  /// Whether every audit sent so far has completed.
  [[nodiscard]] bool idle() const {
    std::lock_guard<std::mutex> lock(done_mu_);
    return done_ == attempted_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t completed() const {
    std::lock_guard<std::mutex> lock(done_mu_);
    return done_;
  }

  /// Audited URLs whose OPRF output differs from the server's direct
  /// evaluation.
  [[nodiscard]] std::size_t mismatches(const crypto::OprfServer& server) const {
    std::lock_guard<std::mutex> lock(out_mu_);
    std::size_t bad = 0;
    for (const auto& [k, prf] : outputs_)
      if (server.evaluate_direct(url(k)).prf != prf) ++bad;
    return bad;
  }

 private:
  [[nodiscard]] std::string url(std::uint64_t k) const {
    return "https://audit.bench/" + std::to_string(seed_) + "/" + std::to_string(k);
  }

  void complete(std::uint64_t first, std::int64_t due_ns, Samples* sink,
                const std::vector<std::string>& urls,
                const std::vector<crypto::OprfBlinded>& blinded,
                TracedRequest& audit, proto::AsyncResult r) {
    bool ok = false;
    try {
      if (r.error) std::rethrow_exception(r.error);
      const proto::OprfEvalResponse resp = proto::OprfEvalResponse::decode(
          proto::expect_reply(r.reply, proto::MsgKind::kOprfEvalResponse));
      if (resp.elements.size() != urls.size())
        throw std::runtime_error("oprf response count != request count");
      std::vector<crypto::OprfOutput> outs;
      {
        Scope s("client.oprf_unblind", audit.link());
        if (urls.size() == 1) {
          outs.push_back(client_->finalize(urls[0], blinded[0], resp.elements[0]));
        } else {
          const std::vector<std::string_view> views(urls.begin(), urls.end());
          outs = client_->finalize_batch(views, blinded, resp.elements);
        }
      }
      std::shared_ptr<const server::RoundResult> published;
      {
        std::lock_guard<std::mutex> lock(mu_);
        published = published_;
      }
      for (const crypto::OprfOutput& out : outs) {
        const std::uint64_t ad = out.to_ad_id(id_space_);
        const double users =
            published ? static_cast<double>(published->aggregate.query(ad)) : 0.0;
        const double th = published ? published->users_threshold
                                    : std::numeric_limits<double>::infinity();
        (void)detector_.classify(ad, users, th);
      }
      std::lock_guard<std::mutex> lock(out_mu_);
      for (std::size_t i = 0; i < outs.size(); ++i)
        outputs_.emplace_back(first + i, outs[i].prf);
      ok = true;
    } catch (const std::exception&) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (ok) sink->add(static_cast<double>(now_ns() - due_ns) / 1e6);
    audit.close();
    std::lock_guard<std::mutex> lock(done_mu_);
    ++done_;
    done_cv_.notify_all();
  }

  std::uint64_t seed_;
  std::uint64_t id_space_;
  util::Rng rng_;  // generator thread only
  std::uint32_t element_bytes_ = 0;
  std::optional<crypto::OprfClient> client_;
  core::LocalDetector detector_;
  std::vector<std::shared_ptr<proto::MuxStream>> streams_;
  mutable std::mutex mu_;
  std::shared_ptr<const server::RoundResult> published_;
  mutable std::mutex out_mu_;
  std::vector<std::pair<std::uint64_t, crypto::Digest>> outputs_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint64_t done_ = 0;
};

/// Counters read at both ends of the timed window.
struct CounterSnapshot {
  proto::FrameServerStats server;
  proto::ClientReactorCounters client;
  std::uint64_t dispatcher_shed = 0;
  storage::DurabilityStats durable;
  double cpu_s = 0.0;
  std::pair<double, double> steal;
  std::int64_t t_ns = 0;
};

CounterSnapshot snapshot(const Stack& stack, const Generator& gen) {
  return {.server = stack.server.stats(),
          .client = gen.counters(),
          .dispatcher_shed = stack.dispatcher.shed(),
          .durable = stack.durable ? stack.durable->stats()
                                   : storage::DurabilityStats{},
          .cpu_s = cpu_seconds(),
          .steal = steal_ticks(),
          .t_ns = now_ns()};
}

std::string journal_dir(const Options& opt, std::size_t setup) {
  return opt.out_dir + "/journal." + std::to_string(getpid()) + "." +
         std::to_string(setup);
}

/// Everything one workload run holds between set-up and teardown.
/// Declaration order is teardown order reversed: the generator (whose
/// destructor stops the client reactor, firing every pending completion)
/// goes before the state those completions write into, and the stack goes
/// last.
struct Env {
  std::string journal;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Control> control;
  std::unique_ptr<Auditor> auditor;
  std::vector<std::shared_ptr<proto::MuxStream>> reporters;
  // blinded_round only
  std::unique_ptr<client::HashUrlMapper> mapper;
  std::vector<client::BrowserExtension> fleet;
  std::unique_ptr<server::RoundCoordinator> coordinator;
  /// The round the control stream's report acks are credited to.
  std::atomic<RoundRecord*> current{nullptr};

  ~Env() {
    coordinator.reset();
    control.reset();
    gen.reset();  // stops the reactor: completions below still find state
    auditor.reset();
    reporters.clear();
    stack.reset();
    if (!journal.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(journal, ec);
    }
  }
};

/// What each workload plugs into the shared run skeleton.
struct Workload {
  std::function<std::unique_ptr<Env>(std::size_t setup)> setup;
  std::function<void(Env&, RoundRecord&)> round;
  /// Output checks after the window; appends failure messages.
  std::function<void(Env&, const std::deque<RoundRecord>&,
                     std::vector<std::string>&)>
      check;
  bool ingest = true;  // pool-miss budget applies
  bool open_loop = false;
  std::uint64_t reports_per_round = 0;
};

// ------------------------------------------------------------ round bodies

/// Closed-loop ingest of one round: `n` persistent reporters, a window of
/// kIngestWindow exchanges in flight, each completion chaining the next.
/// Returns {first send, last ack, acked}.
struct IngestWindow {
  std::int64_t first = 0;
  std::int64_t last = 0;
  std::size_t acked = 0;
};

IngestWindow closed_loop_reports(Env& env, std::uint64_t seed,
                                 std::uint64_t round, Samples* acks) {
  const std::size_t n = env.reporters.size();
  const server::BackendConfig& config = env.stack->cluster.config();
  Countdown countdown;
  countdown.reset(n);
  std::atomic<std::size_t> next{0};
  // Completions send the next report from reactor threads, which have no
  // open span: every report hangs below the span that waits for them all.
  const std::uint64_t parent = trace_context().async_parent;
  std::function<void(std::size_t)> send = [&](std::size_t i) {
    auto frame = report_frame(config, seed, round, i);
    TracedRequest request("proto.exchange", parent, frame);
    const std::int64_t sent = now_ns();
    env.reporters[i]->exchange_async(
        std::move(frame), [&, i, sent, request](proto::AsyncResult r) mutable {
          const std::int64_t t = now_ns();
          request.close();
          const bool ok = is_ack(r);
          if (ok && acks != nullptr) acks->add(static_cast<double>(t - sent) / 1e6);
          // Chain first, count last: once the final arrival is counted the
          // waiting thread may return and take `send` with it.
          const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k < n) send(k);
          countdown.arrive(ok);
        });
  };
  const std::size_t prime = std::min(kIngestWindow, n);
  next.store(prime, std::memory_order_relaxed);
  const std::int64_t first = now_ns();
  for (std::size_t i = 0; i < prime; ++i) send(i);
  countdown.wait();
  return {first, countdown.last_ns(), countdown.ok()};
}

/// The round workloads' audit: one batch after the round has closed. It
/// runs alone, so the process CPU it takes is its own; that CPU is kept
/// out of cpu_ms_per_report.
void post_round_audit(Env& env, RoundRecord& rec, std::uint64_t& next_audit) {
  Scope s("gen.audits");
  const double cpu0 = cpu_seconds();
  env.auditor->run_batch(next_audit, kAuditBatch, &rec.audit_ms);
  rec.audit_cpu_s = cpu_seconds() - cpu0;
  next_audit += kAuditBatch;
}

/// begin -> closed-loop reports -> missing -> finalize, then audits.
void ingest_round(Env& env, RoundRecord& rec, std::uint64_t seed,
                  std::uint64_t& next_audit) {
  const std::size_t n = env.reporters.size();
  const std::int64_t t0 = now_ns();
  env.control->backend.begin_round(rec.round, n);
  IngestWindow w;
  {
    Scope s("gen.reports");
    w = closed_loop_reports(env, seed, rec.round, &rec.ack_ms);
  }
  if (!env.control->backend.missing_participants().empty())
    throw std::runtime_error("reporters missing at the round barrier");
  rec.result = env.control->backend.finalize_round();
  rec.round_s = static_cast<double>(now_ns() - t0) / 1e9;
  rec.accepted = w.acked;
  rec.ingest_per_s = static_cast<double>(w.acked) /
                     (static_cast<double>(w.last - w.first) / 1e9);
  env.auditor->publish(*rec.result);
  post_round_audit(env, rec, next_audit);
}

/// The ingest workloads' set-up: stack, generator, persistent reporters,
/// auditor, and one untimed warm-up round that fills the buffer pool.
std::unique_ptr<Env> ingest_setup(const Options& opt, std::size_t setup,
                                  bool durable, std::size_t reporters) {
  auto env = std::make_unique<Env>();
  if (durable) env->journal = journal_dir(opt, setup);
  const std::size_t conns = generator_connections();
  env->stack = std::make_unique<Stack>(ingest_config(), env->journal, conns + 8);
  env->gen = std::make_unique<Generator>(env->stack->server.port(), conns, opt.seed);
  // The control plane rides a mux stream of the reporter connections.
  env->control = std::make_unique<Control>(
      env->gen->stream(0), ingest_config(),
      [](proto::MsgKind, std::int64_t, bool) {});
  env->auditor = std::make_unique<Auditor>(*env->gen, kAuditStreams, opt.seed,
                                           ingest_config().id_space);
  env->reporters.reserve(reporters);
  for (std::size_t i = 0; i < reporters; ++i)
    env->reporters.push_back(env->gen->stream(i));
  env->control->backend.begin_round(0, reporters);
  const IngestWindow w = closed_loop_reports(*env, opt.seed, 0, nullptr);
  if (w.acked != reporters) throw std::runtime_error("warm-up round lost reports");
  env->auditor->publish(env->control->backend.finalize_round());
  return env;
}

/// audit_under_ingest's round: 10,000 reports/s and 1,000 audits/s from
/// this one thread, each operation timed from its scheduled send time.
/// Both schedules start when the round opens and end with its last report;
/// the round waits for every report and audit before its barrier, so no
/// audit falls due while the generator sits in missing/finalize/begin.
void open_loop_round(Env& env, RoundRecord& rec, std::uint64_t seed,
                     std::uint64_t& next_audit) {
  const std::size_t n = env.reporters.size();
  const server::BackendConfig& config = env.stack->cluster.config();
  const std::int64_t t0 = now_ns();
  env.control->backend.begin_round(rec.round, n);
  Countdown acks;
  acks.reset(n);
  const std::int64_t first = now_ns();
  {
    Scope s("gen.open_loop");
    const OpenLoopSchedule reports(first, kReportIntervalNs);
    const OpenLoopSchedule audits(first, kAuditIntervalNs);
    const std::int64_t end = reports.due(n);
    std::size_t k = 0;
    std::uint64_t a = 0;
    while (true) {
      const std::int64_t now = now_ns();
      for (; k < n && reports.due(k) <= now; ++k) {
        rec.late_ms.add(static_cast<double>(reports.lateness(k, now)) / 1e6);
        auto frame = report_frame(config, seed, rec.round, k);
        TracedRequest request("proto.exchange", trace_context().async_parent, frame);
        env.reporters[k]->exchange_async(
            std::move(frame),
            [&acks, &rec, reports, k, request](proto::AsyncResult r) mutable {
              const std::int64_t t = now_ns();
              request.close();
              const bool ok = is_ack(r);
              if (ok) rec.ack_ms.add(static_cast<double>(reports.latency(k, t)) / 1e6);
              acks.arrive(ok);
            });
      }
      for (; audits.due(a) < end && audits.due(a) <= now; ++a) {
        rec.late_ms.add(static_cast<double>(audits.lateness(a, now)) / 1e6);
        env.auditor->send(next_audit++, 1, audits.due(a), &rec.audit_ms);
      }
      const bool sending = k < n || audits.due(a) < end;
      if (!sending && acks.finished() && env.auditor->idle()) break;
      std::int64_t wake = now + 200'000;
      if (k < n) wake = std::min(wake, reports.due(k));
      if (audits.due(a) < end) wake = std::min(wake, audits.due(a));
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now_ns()));
    }
  }
  if (!env.control->backend.missing_participants().empty())
    throw std::runtime_error("reporters missing at the round barrier");
  rec.result = env.control->backend.finalize_round();
  rec.round_s = static_cast<double>(now_ns() - t0) / 1e9;
  rec.accepted = acks.ok();
  rec.ingest_per_s = static_cast<double>(acks.ok()) /
                     (static_cast<double>(acks.last_ns() - first) / 1e9);
  env.auditor->publish(*rec.result);
}

// ----------------------------------------------------------- blinded round

std::vector<client::BrowserExtension> make_fleet(client::UrlMapper& mapper,
                                                 std::uint64_t seed) {
  const server::BackendConfig config = round_config();
  const client::ExtensionConfig ecfg{.detector = {},
                                     .cms_params = config.cms_params,
                                     .cms_hash_seed = config.cms_hash_seed};
  std::vector<client::BrowserExtension> fleet;
  fleet.reserve(kRoster);
  util::Rng rng(mix(seed ^ 0xf1ee7));
  for (std::size_t u = 0; u < kRoster; ++u) {
    fleet.emplace_back(static_cast<core::UserId>(u), ecfg, mapper);
    for (int a = 0; a < 35; ++a)
      fleet.back().observe_ad("https://ad.test/" + std::to_string(rng.below(900)),
                              static_cast<core::DomainId>(a % 9), 0);
  }
  return fleet;
}

/// The reporting set of `round`: the roster minus a seeded 10%.
std::vector<std::size_t> reporting_set(std::uint64_t seed, std::uint64_t round) {
  util::Rng rng(mix(seed ^ mix(round + 17)));
  std::vector<bool> missing(kRoster, false);
  for (std::size_t m = 0; m < kMissingPerRound;) {
    const std::size_t i = rng.below(kRoster);
    if (!missing[i]) {
      missing[i] = true;
      ++m;
    }
  }
  std::vector<std::size_t> reporting;
  for (std::size_t i = 0; i < kRoster; ++i)
    if (!missing[i]) reporting.push_back(i);
  return reporting;
}

std::unique_ptr<Env> blinded_setup(const Options& opt, const crypto::DhGroup& group) {
  auto env = std::make_unique<Env>();
  env->stack = std::make_unique<Stack>(round_config(), "", 16);
  env->gen = std::make_unique<Generator>(env->stack->server.port(), 1, opt.seed);
  Env* e = env.get();
  // The round's pipelined RemoteBackend gets a dedicated connection, as in
  // quickstart --connect: on one mux stream its report burst would
  // overrun the server's per-stream backlog (16) and ride shed-and-retry.
  // A report ack is timed from the round's start: every client's report
  // is due then (the coordinator blinds the whole roster, then submits).
  env->control = std::make_unique<Control>(
      env->gen->channel(), round_config(),
      [e](proto::MsgKind kind, std::int64_t done, bool ok) {
        if (kind != proto::MsgKind::kBlindedReport || !ok) return;
        if (RoundRecord* rec = e->current.load(std::memory_order_acquire))
          rec->ack_ms.add(static_cast<double>(done - rec->start_ns) / 1e6);
      });
  env->auditor = std::make_unique<Auditor>(*env->gen, 2, opt.seed,
                                           round_config().id_space);
  env->mapper = std::make_unique<client::HashUrlMapper>(round_config().id_space);
  env->fleet = make_fleet(*env->mapper, opt.seed);
  // The one set-up span: the coordinator constructor (DH keygen, roster,
  // pair secrets).
  Tracer::get().set_enabled(opt.trace);
  {
    Scope s("server.round.setup");
    env->coordinator = std::make_unique<server::RoundCoordinator>(
        group, std::span<client::BrowserExtension>(env->fleet),
        env->control->backend, opt.seed);
  }
  Tracer::get().set_enabled(false);
  return env;
}

void blinded_round(Env& env, RoundRecord& rec, std::uint64_t seed,
                   std::uint64_t& next_audit) {
  rec.reporting = reporting_set(seed, rec.round);
  rec.start_ns = now_ns();
  env.current.store(&rec, std::memory_order_release);
  {
    Scope s("client.round");
    rec.result = env.coordinator->run_round(rec.round, rec.reporting);
  }
  rec.round_s = static_cast<double>(now_ns() - rec.start_ns) / 1e9;
  env.current.store(nullptr, std::memory_order_release);
  // The whole pipeline's rate (blind, submit, adjust, finalize), as
  // bench_overhead_privacy's round_pipeline_report counts it: the report
  // burst itself lasts ~25 ms, too short to time steadily on a shared VM.
  rec.accepted = rec.reporting.size();
  rec.ingest_per_s = static_cast<double>(rec.accepted) / rec.round_s;
  env.auditor->publish(*rec.result);
  post_round_audit(env, rec, next_audit);
}

// ----------------------------------------------------------------- metrics

double median_of(const std::map<std::string, SpanStats>& st, const char* name,
                 bool self, double scale) {
  const auto it = st.find(name);
  if (it == st.end()) return 0.0;
  return median(self ? it->second.self_ns : it->second.dur_ns) / scale;
}

/// Per-parent sum of the durations of spans named in `names`, median
/// over parents named `parent_name`.
double per_parent_sum(const std::vector<Span>& spans,
                      std::initializer_list<const char*> names,
                      const char* parent_name, double scale) {
  std::map<std::uint64_t, double> sums;
  for (const Span& s : spans)
    if (std::strcmp(s.name, parent_name) == 0) sums[s.id] = 0.0;
  for (const Span& s : spans)
    for (const char* n : names)
      if (std::strcmp(s.name, n) == 0) {
        const auto it = sums.find(s.parent);
        if (it != sums.end()) it->second += static_cast<double>(s.end - s.begin);
      }
  std::vector<double> v;
  for (const auto& [id, sum] : sums) v.push_back(sum / scale);
  return median(std::move(v));
}

std::vector<double> pooled(const std::deque<RoundRecord>& rounds,
                           Samples RoundRecord::*field,
                           std::optional<bool> traced = std::nullopt) {
  std::vector<double> all;
  for (const RoundRecord& r : rounds) {
    if (traced && r.traced != *traced) continue;
    const auto v = (r.*field).values();
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0, double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d);
  return buf;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"blinded_round", "mux_ingest",
                                              "durable_ingest", "audit_under_ingest"};
  return names;
}

Outcome run_workload(const Options& opt) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end())
    throw std::invalid_argument("unknown workload " + opt.workload);
  std::filesystem::create_directories(opt.out_dir);
  // Materialize the process-wide pool before anything is counted: its
  // workers are compute fan-out shared by server and clients, not
  // generator threads.
  (void)util::ThreadPool::shared();
  // Precise sleeps for the open-loop generator (default slack is 50 us).
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  Tracer& tracer = Tracer::get();
  std::uint64_t next_audit = 0;
  std::optional<crypto::DhGroup> group;
  Workload w;
  if (opt.workload == "blinded_round") {
    util::Rng rng(mix(opt.seed ^ 0xd4));
    group.emplace(crypto::DhGroup::generate(rng, 256));
    w.ingest = false;
    w.setup = [&](std::size_t) { return blinded_setup(opt, *group); };
    w.round = [&](Env& env, RoundRecord& rec) {
      blinded_round(env, rec, opt.seed, next_audit);
    };
    w.check = [&](Env&, const std::deque<RoundRecord>& rounds,
                  std::vector<std::string>& fails) {
      // In-process reference: same group, fleet and coordinator seed
      // against a local cluster, the last timed round's reporting set.
      const RoundRecord& last = rounds.back();
      client::HashUrlMapper mapper(round_config().id_space);
      auto fleet = make_fleet(mapper, opt.seed);
      server::BackendCluster local(round_config(), kStackShards);
      server::RoundCoordinator ref(*group, std::span<client::BrowserExtension>(fleet),
                                   local, opt.seed);
      const server::RoundResult want = ref.run_round(last.round, last.reporting);
      if (!results_identical(want, *last.result))
        fails.push_back("blinded_round: round " + std::to_string(last.round) +
                        " differs from the in-process RoundCoordinator reference");
    };
  } else if (opt.workload == "mux_ingest" || opt.workload == "durable_ingest") {
    const bool durable = opt.workload == "durable_ingest";
    w.reports_per_round = kIngestReporters;
    w.setup = [&, durable](std::size_t s) {
      return ingest_setup(opt, s, durable, kIngestReporters);
    };
    w.round = [&](Env& env, RoundRecord& rec) {
      ingest_round(env, rec, opt.seed, next_audit);
    };
  } else {
    w.open_loop = true;
    w.reports_per_round = kAuditReporters;
    w.setup = [&](std::size_t s) {
      return ingest_setup(opt, s, false, kAuditReporters);
    };
    w.round = [&](Env& env, RoundRecord& rec) {
      open_loop_round(env, rec, opt.seed, next_audit);
    };
  }
  if (!w.check) {
    w.check = [&](Env& env, const std::deque<RoundRecord>& rounds,
                  std::vector<std::string>& fails) {
      // In-process BackendCluster reference, one per timed round.
      server::BackendCluster ref(ingest_config(), kStackShards);
      const std::size_t n = env.reporters.size();
      for (const RoundRecord& rec : rounds) {
        ref.begin_round(rec.round, n);
        for (std::size_t i = 0; i < n; ++i)
          ref.submit_report(i, synthetic_cells(ingest_config(), opt.seed, rec.round, i));
        if (!results_identical(ref.finalize_round(), *rec.result))
          fails.push_back(opt.workload + ": round " + std::to_string(rec.round) +
                          " differs from the in-process BackendCluster reference");
      }
    };
  }

  // ---- set-up, several times; the last one is kept
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (std::size_t s = 0; s < kSetups; ++s) {
    env.reset();
    const std::int64_t t0 = now_ns();
    env = w.setup(s);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // ---- timed window: whole rounds until --seconds have passed; a traced
  // run traces every other round (at most kTracedRounds, which bounds the
  // spans kept in memory) so the untraced ones measure overhead
  Outcome out;
  std::deque<RoundRecord> rounds;
  std::size_t traced_rounds = 0;
  const CounterSnapshot before = snapshot(*env->stack, *env->gen);
  const std::uint64_t audits_before = env->auditor->attempted();
  while (rounds.size() < kMinRounds ||
         static_cast<double>(now_ns() - before.t_ns) / 1e9 < opt.seconds) {
    RoundRecord& rec = rounds.emplace_back();
    rec.round = rounds.size();
    rec.traced = opt.trace && rounds.size() % 2 == 0 && traced_rounds < kTracedRounds;
    traced_rounds += rec.traced ? 1 : 0;
    tracer.set_enabled(rec.traced);
    {
      Scope root("gen.round");
      w.round(*env, rec);
    }
    tracer.set_enabled(false);
  }
  const CounterSnapshot after = snapshot(*env->stack, *env->gen);
  const double rss_mb = peak_rss_mb();
  out.generator_threads = env->gen->threads();
  out.generator_connections = env->gen->connections();

  // ---- output checks (outside the window)
  std::vector<std::string>& fails = out.check_failures;
  w.check(*env, rounds, fails);
  if (const std::size_t bad = env->auditor->mismatches(env->stack->oprf))
    fails.push_back(std::to_string(bad) +
                    " audit output(s) differ from OprfServer::evaluate_direct");
  if (env->stack->durable) {
    if (env->stack->durable->journal_reencodes() != 0)
      fails.push_back("durable_ingest: journal re-encodes != 0");
    if (after.durable.off_writer_io != 0)
      fails.push_back("durable_ingest: journal I/O off the writer thread");
  }
  const std::uint64_t pool_misses =
      after.server.reactor.pool_misses - before.server.reactor.pool_misses;
  if (w.ingest && pool_misses > kIngestWindow + 128)
    fails.push_back("pool misses after warm-up " + std::to_string(pool_misses) +
                    " exceed the in-flight budget " +
                    std::to_string(kIngestWindow + 128) +
                    " (frame recycler not wired?)");
  if (out.generator_threads > nproc())
    fails.push_back("generator threads " + std::to_string(out.generator_threads) +
                    " > nproc " + std::to_string(nproc()));
  if (out.generator_connections > nproc())
    fails.push_back("generator connections " +
                    std::to_string(out.generator_connections) + " > nproc " +
                    std::to_string(nproc()));
  const std::uint64_t streams = env->gen->streams_opened();
  if (streams / std::max<std::size_t>(1, generator_connections()) >=
      proto::FrameServerOptions{}.max_streams_per_connection)
    fails.push_back("stream ids per connection reach the server's cap");

  // ---- attempted / failed
  std::uint64_t reports_attempted = 0;
  std::uint64_t reports_acked = 0;
  for (const RoundRecord& r : rounds) {
    reports_attempted += w.reports_per_round != 0 ? w.reports_per_round
                                                  : r.reporting.size();
    reports_acked += r.accepted;
  }
  const std::uint64_t audits = env->auditor->attempted() - audits_before;
  const std::uint64_t control = 3 * rounds.size();
  out.attempted = reports_attempted + audits + control;
  out.failed = (reports_attempted - reports_acked) + env->auditor->failed();
  const double failed_frac =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  // ---- end-to-end metrics
  std::vector<double> round_s, ingest, round_s_traced, round_s_plain;
  for (const RoundRecord& r : rounds) {
    round_s.push_back(r.round_s);
    ingest.push_back(r.ingest_per_s);
    (r.traced ? round_s_traced : round_s_plain).push_back(r.round_s);
  }
  // Latencies: the median round's p50, so one stalled round cannot move
  // the figure; tails come from the pooled samples (per-layer gen.*).
  std::vector<double> ack_p50, audit_p50;
  for (const RoundRecord& r : rounds) {
    ack_p50.push_back(median(r.ack_ms.values()));
    audit_p50.push_back(median(r.audit_ms.values()));
  }
  const auto acks = pooled(rounds, &RoundRecord::ack_ms);
  const auto audit_lat = pooled(rounds, &RoundRecord::audit_ms);
  double window_cpu = after.cpu_s - before.cpu_s;
  for (const RoundRecord& r : rounds) window_cpu -= r.audit_cpu_s;
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["round_s"] = {median(round_s), "s"};
  e2e["ingest_reports_per_s"] = {median(ingest), "1/s"};
  e2e["ack_p50_ms"] = {median(ack_p50), "ms"};
  e2e["audit_p50_ms"] = {median(audit_p50), "ms"};
  e2e["cpu_ms_per_report"] = {1e3 * window_cpu / static_cast<double>(reports_acked),
                              "ms"};
  e2e["peak_rss_mb"] = {rss_mb, "MB"};

  // ---- per-layer metrics (spans come from the traced rounds only)
  const std::vector<Span> spans = tracer.collect();
  const auto st = summarize(spans);
  auto& pl = out.per_layer;
  pl["server.round.setup_s"] = {median_of(st, "server.round.setup", false, 1e9), "s"};
  pl["client.blind_ms"] = {median_of(st, "client.round", true, 1e6), "ms"};
  pl["server.remote.submit_ms"] = {
      per_parent_sum(spans, {"server.remote.submit"}, "client.round", 1e6), "ms"};
  pl["server.remote.barrier_ms"] = {
      per_parent_sum(spans, {"server.remote.missing", "server.remote.finalize"},
                     "client.round", 1e6),
      "ms"};
  if (opt.workload != "blinded_round") {
    pl["server.remote.submit_ms"].value = 0.0;  // reports bypass RemoteBackend
    pl["server.remote.barrier_ms"].value = per_parent_sum(
        spans, {"server.remote.missing", "server.remote.finalize"}, "gen.round", 1e6);
  }
  pl["server.backend.finalize_ms"] = {
      median_of(st, "server.backend.finalize", false, 1e6), "ms"};
  pl["server.endpoint.report_us"] = {
      median_of(st, "server.endpoint.report", false, 1e3), "us"};
  pl["server.backend.submit_us"] = {
      median_of(st, "server.backend.submit", false, 1e3), "us"};
  {
    std::vector<double> wait;
    for (const char* lane : {"server.dispatch_wait.lane0", "server.dispatch_wait.lane1"})
      if (const auto it = st.find(lane); it != st.end())
        wait.insert(wait.end(), it->second.dur_ns.begin(), it->second.dur_ns.end());
    pl["server.dispatch_wait_us"] = {median(wait) / 1e3, "us"};
  }
  pl["server.dispatch_wait_us.lane0"] = {
      median_of(st, "server.dispatch_wait.lane0", false, 1e3), "us"};
  pl["server.dispatch_wait_us.lane1"] = {
      median_of(st, "server.dispatch_wait.lane1", false, 1e3), "us"};
  pl["proto.exchange_ms"] = {median_of(st, "proto.exchange", false, 1e6), "ms"};
  const auto& rb = before.server.reactor;
  const auto& ra = after.server.reactor;
  const double frames_in = static_cast<double>(after.server.messages_received -
                                               before.server.messages_received);
  const double exchanges = static_cast<double>(after.client.exchanges_completed -
                                               before.client.exchanges_completed);
  pl["proto.pool_misses"] = {static_cast<double>(pool_misses), "count"};
  pl["proto.frames_pooled"] = {static_cast<double>(ra.frames_pooled - rb.frames_pooled),
                               "count"};
  pl["proto.bytes_copied_ingest"] = {
      static_cast<double>(ra.bytes_copied_ingest - rb.bytes_copied_ingest), "B"};
  pl["proto.server_wakeups_per_frame"] = {
      static_cast<double>(ra.eventfd_wakeups - rb.eventfd_wakeups) / frames_in, "ratio"};
  pl["proto.client_wakeups_per_exchange"] = {
      static_cast<double>(after.client.eventfd_wakeups - before.client.eventfd_wakeups) /
          exchanges,
      "ratio"};
  const double retries = static_cast<double>(after.client.unavailable_retries -
                                             before.client.unavailable_retries);
  pl["proto.useful_frac"] = {
      static_cast<double>(out.attempted - out.failed) /
          (static_cast<double>(out.attempted) + retries),
      "ratio"};
  pl["proto.streams_shed"] = {static_cast<double>(ra.streams_shed - rb.streams_shed),
                              "count"};
  pl["server.dispatcher_shed"] = {
      static_cast<double>(after.dispatcher_shed - before.dispatcher_shed), "count"};
  pl["server.durable.submit_us"] = {
      median_of(st, "server.durable.submit", true, 1e3), "us"};
  const auto& db = before.durable;
  const auto& da = after.durable;
  const double records = static_cast<double>(da.records - db.records);
  pl["storage.enqueue_stalls"] = {static_cast<double>(da.enqueue_stalls - db.enqueue_stalls),
                                  "count"};
  pl["storage.records_per_fsync"] = {
      da.fsyncs > db.fsyncs ? records / static_cast<double>(da.fsyncs - db.fsyncs) : 0.0,
      "ratio"};
  pl["storage.bytes_per_report"] = {
      records > 0 ? static_cast<double>(da.record_bytes - db.record_bytes) / records : 0.0,
      "B"};
  pl["storage.finalize_flush_ms"] = {
      median_of(st, "server.durable.finalize", true, 1e6), "ms"};
  pl["client.oprf_blind_us"] = {median_of(st, "client.oprf_blind", false, 1e3), "us"};
  pl["client.oprf_unblind_us"] = {median_of(st, "client.oprf_unblind", false, 1e3),
                                  "us"};
  pl["server.endpoint.oprf_us"] = {median_of(st, "server.endpoint.oprf", false, 1e3),
                                   "us"};
  const auto late = pooled(rounds, &RoundRecord::late_ms);
  const Tail late_tail = bounded_percentile(late, 99.0);
  out.late_p50_ms = median(late);
  out.late_tail = late_tail;
  const Tail ack_tail = bounded_percentile(acks, 99.0);
  const Tail audit_tail = bounded_percentile(audit_lat, 99.0);
  pl["gen.late_p50_ms"] = {median(late), "ms"};
  pl["gen.late_p99_ms"] = {late_tail.value, "ms"};
  pl["gen.ack_p99_ms"] = {ack_tail.value, "ms"};
  pl["gen.audit_p99_ms"] = {audit_tail.value, "ms"};
  const Tail ack_top = highest_supported_tail(acks);
  const Tail audit_top = highest_supported_tail(audit_lat);
  pl["gen.ack_tail_pct"] = {ack_top.pct, "%"};
  pl["gen.ack_tail_ms"] = {ack_top.value, "ms"};
  pl["gen.ack_samples"] = {static_cast<double>(ack_top.samples), "count"};
  pl["gen.audit_tail_pct"] = {audit_top.pct, "%"};
  pl["gen.audit_tail_ms"] = {audit_top.value, "ms"};
  pl["gen.audit_samples"] = {static_cast<double>(audit_top.samples), "count"};
  pl["gen.threads"] = {static_cast<double>(out.generator_threads), "count"};
  pl["gen.connections"] = {static_cast<double>(out.generator_connections), "count"};
  // Tracing overhead: traced against untraced rounds of the same run —
  // round time, or ack latency for the open loop (whose round time the
  // schedule fixes).
  double overhead = 0.0;
  if (opt.trace) {
    if (w.open_loop) {
      overhead = median(pooled(rounds, &RoundRecord::ack_ms, true)) /
                     median(pooled(rounds, &RoundRecord::ack_ms, false)) -
                 1.0;
    } else {
      overhead = median(round_s_traced) / median(round_s_plain) - 1.0;
    }
  }
  pl["trace.overhead_frac"] = {overhead, "ratio"};
  const double ticks = after.steal.second - before.steal.second;
  out.steal_frac = ticks > 0 ? (after.steal.first - before.steal.first) / ticks : 0.0;
  pl["host.steal_frac"] = {out.steal_frac, "ratio"};
  pl["failed_frac"] = {failed_frac, "ratio"};

  // ---- report lines
  out.report.push_back(fmt("%.0f timed round(s) in %.2f s; failed_frac %.6f",
                           static_cast<double>(rounds.size()),
                           static_cast<double>(after.t_ns - before.t_ns) / 1e9,
                           failed_frac));
  {
    std::string line = "set-ups (s):";
    for (const double t : setup_s) line += fmt(" %.3f", t);
    out.report.push_back(line);
  }
  {
    std::string line = "per round (round_s, ingest/s, ack p50 ms, audit p50 ms):";
    for (const RoundRecord& r : rounds)
      line += fmt(" (%.3f, %.0f, %.3f, %.3f)", r.round_s, r.ingest_per_s,
                  median(r.ack_ms.values()), median(r.audit_ms.values()));
    out.report.push_back(line);
  }
  if (opt.trace) {
    // Every span must hang, through its client request, below a traced
    // round (or the blinded round's set-up span), and lie inside its parent.
    const TreeCheck tree = check_trees(spans, {"gen.round", "server.round.setup"});
    out.report.push_back(fmt("span trees: %.0f of %.0f root(s) close (every span "
                             "inside its parent: duration = self + children); "
                             "%.0f span(s) belong to no root",
                             static_cast<double>(tree.roots - tree.unclosed),
                             static_cast<double>(tree.roots),
                             static_cast<double>(tree.orphans)));
    if (tree.roots < traced_rounds)
      fails.push_back("fewer span roots than traced rounds");
    if (tree.unclosed != 0)
      fails.push_back(std::to_string(tree.unclosed) + " span tree(s) do not close");
    if (tree.orphans != 0)
      fails.push_back(std::to_string(tree.orphans) +
                      " span(s) not linked to a traced round");
    out.report.push_back("self time per span (median / total over traced rounds; "
                         "requests in flight do not count against their parent):");
    for (const auto& [name, s] : st) {
      double total = 0.0;
      for (const double v : s.self_ns) total += v;
      char line[256];
      std::snprintf(line, sizeof line, "  %-28s n=%-8zu dur p50 %10.1f us  self p50 %10.1f us  self total %9.1f ms",
                    name.c_str(), s.count, median(s.dur_ns) / 1e3,
                    median(s.self_ns) / 1e3, total / 1e6);
      out.report.push_back(line);
    }
    for (const char* stage : kInProgramStages)
      out.report.push_back(std::string("left for in-program tracing: ") + stage);
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".tsv";
    const std::size_t written = write_spans(path, spans, kSpanFileCap);
    out.report.push_back(fmt("wrote %.0f of %.0f span(s) to ", static_cast<double>(written),
                             static_cast<double>(spans.size())) + path);
  }
  return out;
}

}  // namespace perfbench
