// Measurement rules of the repository benchmark, kept free of any I/O so
// perfbench_selftest can pin them down:
//   * the tail-percentile rule (report the highest percentile that still
//     has at least ten samples beyond it, together with the sample count);
//   * self time (a span's duration minus the part of it its children
//     cover, overlapping children counted once), and closure (a span's
//     duration equals its self time plus its children's union exactly
//     when no child reaches outside it);
//   * open-loop lateness (an operation is timed from when it was due, so a
//     generator stall is charged to every operation it delayed).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample set (p in
/// [0, 100]); 0 for an empty set.
inline double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[idx];
}

/// Median of an unsorted sample set (sorts a copy); 0 when empty.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50.0);
}

/// One tail figure: the percentile chosen, its value, and how many samples
/// it was read from.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest of 50, 90, 99, 99.9, 99.99 that leaves at least
/// `min_beyond` samples strictly above its rank; below 2 * min_beyond
/// samples nothing qualifies and the median is reported (pct 50).
inline Tail highest_supported_tail(std::vector<double> samples,
                                   std::size_t min_beyond = 10) {
  std::sort(samples.begin(), samples.end());
  Tail t{.pct = 50.0, .value = percentile_sorted(samples, 50.0),
         .samples = samples.size()};
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond + 1e-9 < static_cast<double>(min_beyond)) break;
    t.pct = p;
    t.value = percentile_sorted(samples, p);
  }
  return t;
}

/// Percentile p if at least `min_beyond` samples lie beyond it, otherwise
/// the highest supported tail below it (never a figure read off fewer
/// than ten samples).
inline Tail bounded_percentile(std::vector<double> samples, double p,
                               std::size_t min_beyond = 10) {
  std::sort(samples.begin(), samples.end());
  const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
  if (beyond + 1e-9 >= static_cast<double>(min_beyond))
    return {.pct = p, .value = percentile_sorted(samples, p),
            .samples = samples.size()};
  return highest_supported_tail(std::move(samples), min_beyond);
}

/// A closed time interval [begin, end] in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Length of the union of `intervals` (overlaps counted once).
inline std::int64_t union_ns(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& c) { return c.end <= c.begin; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::int64_t total = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = -1;
  bool open = false;
  for (const Interval& c : intervals) {
    if (!open || c.begin > run_end) {
      if (open) total += run_end - run_begin;
      run_begin = c.begin;
      run_end = c.end;
      open = true;
    } else {
      run_end = std::max(run_end, c.end);
    }
  }
  if (open) total += run_end - run_begin;
  return total;
}

/// Nanoseconds of [parent.begin, parent.end] covered by the union of
/// `children` (each clipped to the parent).
inline std::int64_t covered_ns(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  return union_ns(std::move(children));
}

/// Self time of `parent`: its duration minus what its children cover.
inline std::int64_t self_ns(Interval parent, std::vector<Interval> children) {
  return (parent.end - parent.begin) - covered_ns(parent, std::move(children));
}

/// Whether `parent`'s duration equals its self time plus the union of its
/// children, i.e. no child starts before or ends after it.
inline bool closes(Interval parent, const std::vector<Interval>& children) {
  return self_ns(parent, children) + union_ns(children) == parent.end - parent.begin;
}

/// Open-loop schedule: operation k is due at start + k * interval. The
/// generator records when it actually sent each operation; latency is
/// measured from the due time, so a stall of the generator itself shows
/// up in every operation it pushed back, and lateness (sent - due) is
/// reported on its own.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, std::int64_t interval_ns)
      : start_ns_(start_ns), interval_ns_(interval_ns) {}

  [[nodiscard]] std::int64_t due(std::uint64_t k) const noexcept {
    return start_ns_ + static_cast<std::int64_t>(k) * interval_ns_;
  }
  /// Lateness of operation k sent at `sent_ns` (never negative: a send
  /// before its due time is on time).
  [[nodiscard]] std::int64_t lateness(std::uint64_t k,
                                      std::int64_t sent_ns) const noexcept {
    return std::max<std::int64_t>(0, sent_ns - due(k));
  }
  /// Latency of operation k completed at `done_ns`, from its due time.
  [[nodiscard]] std::int64_t latency(std::uint64_t k,
                                     std::int64_t done_ns) const noexcept {
    return done_ns - due(k);
  }

 private:
  std::int64_t start_ns_;
  std::int64_t interval_ns_;
};

}  // namespace perfbench
