#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace good::loadbench {

Percentile PercentileOf(std::vector<double> samples, double q,
                        size_t min_beyond) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || q <= 0 || q > 1) return p;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  p.reported = p.beyond >= min_beyond;
  return p;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::vector<std::vector<TimedSample>> SliceByTime(
    std::vector<TimedSample> samples, double window_s, size_t slices) {
  std::vector<std::vector<TimedSample>> out(slices);
  if (slices == 0 || window_s <= 0) return out;
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.sent_s < b.sent_s;
            });
  const double slice_s = window_s / static_cast<double>(slices);
  for (const TimedSample& s : samples) {
    if (s.sent_s < 0 || s.sent_s >= window_s) continue;
    size_t k = std::min(static_cast<size_t>(s.sent_s / slice_s), slices - 1);
    out[k].push_back(s);
  }
  return out;
}

double WindowRate(const std::vector<TimedSample>& samples) {
  size_t n = 0;
  double last_s = 0;
  for (const TimedSample& s : samples) {
    if (s.sent_s < 0) continue;
    ++n;
    last_s = std::max(last_s, s.at_s);
  }
  return last_s > 0 ? static_cast<double>(n) / last_s : 0;
}

SlicedMetric SlicedPercentile(
    const std::vector<std::vector<TimedSample>>& slices, double q) {
  SlicedMetric m;
  for (const std::vector<TimedSample>& slice : slices) {
    std::vector<double> values;
    values.reserve(slice.size());
    for (const TimedSample& s : slice) values.push_back(s.value);
    Percentile p = PercentileOf(std::move(values), q);
    m.per_slice.push_back(p.value);
    m.reported = m.reported && p.reported;
  }
  m.median = Median(m.per_slice);
  return m;
}

// ---- ErrorTally -------------------------------------------------------------

void ErrorTally::Record(Outcome outcome) {
  ++attempted_;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kCommitFailed:
      ++commit_failed_;
      break;
    case Outcome::kErrReply:
      ++err_replies_;
      break;
    case Outcome::kRefused:
      ++refused_;
      break;
    case Outcome::kWrong:
      ++wrong_;
      break;
  }
}

void ErrorTally::Merge(const ErrorTally& other) {
  attempted_ += other.attempted_;
  commit_failed_ += other.commit_failed_;
  err_replies_ += other.err_replies_;
  refused_ += other.refused_;
  wrong_ += other.wrong_;
}

double ErrorTally::error_frac() const {
  if (attempted_ == 0) return 0;
  return static_cast<double>(failed()) / static_cast<double>(attempted_);
}

// ---- Spans ------------------------------------------------------------------

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& parent = spans[it->second];
    int64_t lo = std::max(s.start_ns, parent.start_ns);
    int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::Spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : Spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       uint64_t request, uint64_t parent)
    : recorder_(recorder) {
  span_.id = recorder_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.name = std::move(name);
  span_.start_ns = recorder_->NowNs();
}

ScopedSpan::~ScopedSpan() { End(); }

int64_t ScopedSpan::End() {
  if (!ended_) {
    ended_ = true;
    span_.end_ns = recorder_->NowNs();
    recorder_->Add(span_);
  }
  return span_.duration_ns();
}

// ---- Coverage ---------------------------------------------------------------

void Coverage::AddCommit(double commit_ms,
                         const std::vector<double>& parts_ms) {
  commit_ms_ += commit_ms;
  parts_ms_ += std::accumulate(parts_ms.begin(), parts_ms.end(), 0.0);
  ++commits_;
}

void Coverage::Merge(const Coverage& other) {
  commit_ms_ += other.commit_ms_;
  parts_ms_ += other.parts_ms_;
  commits_ += other.commits_;
}

double Coverage::coverage() const {
  return commit_ms_ > 0 ? parts_ms_ / commit_ms_ : 0;
}

double Coverage::mean_unexplained_ms() const {
  if (commits_ == 0) return 0;
  return (commit_ms_ - parts_ms_) / static_cast<double>(commits_);
}

}  // namespace good::loadbench
