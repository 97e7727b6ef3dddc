/// \file metrics.h
/// \brief The load benchmark's arithmetic: percentiles under the
/// "ten samples beyond" rule, failure accounting, spans and their self
/// times, and how much of a commit the traced replay explains.
///
/// Everything here is plain computation over recorded numbers, kept
/// apart from the driver so it can be unit-tested (metrics_test.cc).

#ifndef GOOD_LOADBENCH_METRICS_H_
#define GOOD_LOADBENCH_METRICS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace good::loadbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr size_t kMinBeyond = 10;

/// \brief One nearest-rank percentile of a sample set.
struct Percentile {
  bool reported = false;    ///< At least `min_beyond` samples beyond it.
  double value = 0;         ///< Sample at rank ceil(q * n).
  size_t samples = 0;       ///< n.
  size_t beyond = 0;        ///< Samples ranked after `value`.
};

/// Nearest-rank percentile: the sample at rank ceil(q * n) of the
/// ascending order; `beyond` counts the n - rank samples after it.
/// Reported only when beyond >= min_beyond.
Percentile PercentileOf(std::vector<double> samples, double q,
                        size_t min_beyond = kMinBeyond);

/// Median of `samples` (mean of the two middle values for even n); 0
/// for an empty set.
double Median(std::vector<double> samples);

/// A measurement tagged with when its request completed and when it was
/// sent, in seconds from the start of the measured window.
struct TimedSample {
  double at_s = 0;
  double value = 0;
  double sent_s = 0;
};

/// Completions per second of the requests sent inside the window: their
/// number divided by the time from the window's start to the last of
/// them completing. Any stall after the window opened lowers it. 0 when
/// no request was sent inside the window.
double WindowRate(const std::vector<TimedSample>& samples);

/// The samples whose request was sent in each of `slices` equal slices of
/// a `window_s`-second window, in sending order; samples sent outside it
/// are dropped. A run reports the median over slices of each percentile,
/// so a disturbance of the machine that lasts less than half the window
/// does not move it. Slicing by send time fixes how many requests of a
/// paced stream each slice holds, however late they complete.
std::vector<std::vector<TimedSample>> SliceByTime(
    std::vector<TimedSample> samples, double window_s, size_t slices);

/// \brief A percentile computed per slice and its median over the slices.
struct SlicedMetric {
  double median = 0;
  std::vector<double> per_slice;
  /// Every slice had at least kMinBeyond samples beyond it.
  bool reported = true;
};

/// Nearest-rank percentile `q` of the values in each slice.
SlicedMetric SlicedPercentile(
    const std::vector<std::vector<TimedSample>>& slices, double q);

/// \brief Attempted and failed operations of a run.
///
/// Every request a client sends counts as attempted. It fails when the
/// commit still fails after retries, the server answers `err`, admission
/// control refuses it, or the answer is wrong.
class ErrorTally {
 public:
  enum class Outcome { kOk, kCommitFailed, kErrReply, kRefused, kWrong };

  void Record(Outcome outcome);
  /// Adds another tally's counts (per-thread tallies merge at the end).
  void Merge(const ErrorTally& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const {
    return commit_failed_ + err_replies_ + refused_ + wrong_;
  }
  uint64_t refused() const { return refused_; }
  uint64_t wrong() const { return wrong_; }
  /// failed / attempted; 0 when nothing was attempted.
  double error_frac() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t commit_failed_ = 0;
  uint64_t err_replies_ = 0;
  uint64_t refused_ = 0;
  uint64_t wrong_ = 0;
};

/// \brief A timed region of the benchmark's own code around a call into
/// one layer. Spans of one request share `request`; `parent` is the id
/// of the enclosing span (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; parts of a
/// child outside the parent are ignored). Indexed like `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// \brief In-memory span store. Thread-safe; spans are written out once
/// at the end (WriteJsonLines).
class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  /// Allocates a span id (ids start at 1).
  uint64_t NewId();
  void Add(Span span);
  /// Every span recorded so far, in id order.
  std::vector<Span> Spans() const;
  /// One JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// \brief RAII span: records [construction, destruction) under `parent`.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t request,
             uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Ends the span now; returns its duration in nanoseconds.
  int64_t End();

 private:
  SpanRecorder* recorder_;
  Span span_;
  bool ended_ = false;
};

/// \brief Share of commit time explained by the replayed commit parts:
/// sum over commits of the replayed parts divided by the sum of the
/// commits' own times. 0 when no commit time was recorded.
class Coverage {
 public:
  /// One commit: its measured time and the times of its replayed parts.
  void AddCommit(double commit_ms, const std::vector<double>& parts_ms);
  /// Adds another accumulator's commits (per-thread merge).
  void Merge(const Coverage& other);
  double coverage() const;
  /// Mean commit time not explained by the replay (may be negative when
  /// the replay runs slower than the commit it mirrors).
  double mean_unexplained_ms() const;
  size_t commits() const { return commits_; }

 private:
  double commit_ms_ = 0;
  double parts_ms_ = 0;
  size_t commits_ = 0;
};

}  // namespace good::loadbench

#endif  // GOOD_LOADBENCH_METRICS_H_
