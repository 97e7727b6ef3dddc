// Tests for the load benchmark's own arithmetic (metrics.h).

#include "metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace good::loadbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending on purpose: PercentileOf must sort
}

TEST(PercentileTest, NearestRankWithTenBeyond) {
  Percentile p90 = PercentileOf(OneTo(100), 0.90);
  EXPECT_DOUBLE_EQ(p90.value, 90);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.reported);
}

TEST(PercentileTest, TooFewSamplesBeyondIsNotReported) {
  Percentile p99 = PercentileOf(OneTo(100), 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_FALSE(p99.reported);

  Percentile p99_big = PercentileOf(OneTo(1000), 0.99);
  EXPECT_DOUBLE_EQ(p99_big.value, 990);
  EXPECT_EQ(p99_big.beyond, 10u);
  EXPECT_TRUE(p99_big.reported);

  Percentile p99_short = PercentileOf(OneTo(999), 0.99);
  EXPECT_EQ(p99_short.beyond, 9u);
  EXPECT_FALSE(p99_short.reported);
}

TEST(PercentileTest, MedianAndEdgeCases) {
  Percentile p50 = PercentileOf({4, 1, 3, 2}, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 2);
  EXPECT_EQ(p50.beyond, 2u);
  EXPECT_FALSE(p50.reported);
  EXPECT_TRUE(PercentileOf({4, 1, 3, 2}, 0.5, 2).reported);

  Percentile empty = PercentileOf({}, 0.5);
  EXPECT_FALSE(empty.reported);
  EXPECT_EQ(empty.samples, 0u);

  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

std::vector<double> ValuesOf(const std::vector<TimedSample>& slice) {
  std::vector<double> v;
  for (const TimedSample& s : slice) v.push_back(s.value);
  return v;
}

TEST(SliceTest, SamplesLandInTheSliceTheyWereSentIn) {
  // {completed, value, sent}: each completes 0.5 s after it was sent.
  std::vector<TimedSample> samples = {
      {1.4, 2, 0.9},  {0.5, 1, 0.0}, {1.5, 3, 1.0},
      {4.49, 4, 3.99}, {4.5, 5, 4.0}, {0.4, 6, -0.1}};
  std::vector<std::vector<TimedSample>> slices =
      SliceByTime(samples, 4.0, 4);
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_EQ(ValuesOf(slices[0]), (std::vector<double>{1, 2}));
  EXPECT_EQ(ValuesOf(slices[1]), (std::vector<double>{3}));
  EXPECT_TRUE(slices[2].empty());
  EXPECT_EQ(ValuesOf(slices[3]), (std::vector<double>{4}));
}

/// `n` samples of `value` sent and completing evenly through
/// [start, start + 2).
std::vector<TimedSample> Even(double start, size_t n, double value) {
  std::vector<TimedSample> out;
  for (size_t i = 0; i < n; ++i) {
    const double t =
        start + 2.0 * static_cast<double>(i) / static_cast<double>(n);
    out.push_back({t, value, t});
  }
  return out;
}

TEST(SliceTest, MedianOverSlicesIgnoresOneDisturbedSlice) {
  // Three quiet 2 s slices of 100 fast samples (values 1..100), one
  // slice where the machine was busy: fewer and slower samples.
  std::vector<std::vector<TimedSample>> slices;
  for (int k = 0; k < 3; ++k) {
    std::vector<TimedSample> quiet = Even(2.0 * k, 100, 0);
    std::vector<double> v = OneTo(100);
    for (size_t i = 0; i < quiet.size(); ++i) quiet[i].value = v[i];
    slices.push_back(quiet);
  }
  slices.push_back(Even(6.0, 50, 1000));

  SlicedMetric p90 = SlicedPercentile(slices, 0.90);
  EXPECT_DOUBLE_EQ(p90.median, 90);
  EXPECT_FALSE(p90.reported);  // the busy slice has 5 samples beyond
  SlicedMetric p50 = SlicedPercentile(slices, 0.50);
  EXPECT_DOUBLE_EQ(p50.median, 50);
  EXPECT_TRUE(p50.reported);
}

TEST(RateTest, CountsRequestsSentInTheWindowOverTimeToTheLastOne) {
  // Sent at 0, 1, 2, 3 s; each takes 0.5 s; one more was sent before the
  // window opened and completes inside it.
  std::vector<TimedSample> samples = {
      {0.5, 500, 0}, {1.5, 500, 1}, {2.5, 500, 2}, {3.5, 500, 3},
      {0.2, 500, -0.3}};
  EXPECT_DOUBLE_EQ(WindowRate(samples), 4 / 3.5);
  EXPECT_DOUBLE_EQ(WindowRate({}), 0);
}

TEST(RateTest, AStallLowersTheRate) {
  // A closed loop of 100 requests in the first second, then one request
  // stalled for 3 s: the stall counts in the time.
  std::vector<TimedSample> samples = Even(0.0, 100, 0);
  for (TimedSample& s : samples) {
    s.at_s /= 2;
    s.sent_s = s.at_s;
  }
  samples.push_back({4.0, 3000, 1.0});
  EXPECT_DOUBLE_EQ(WindowRate(samples), 101 / 4.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.name = "s" + std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedSpans) {
  // txn [0,100] with parse [10,30] and exec [40,90]; exec has a child
  // copy [50,70].
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30),
                             MakeSpan(3, 1, 40, 90), MakeSpan(4, 3, 50, 70)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 20);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  // Concurrent children [10,40] and [30,60] cover [10,60] once; a child
  // running past its parent's end counts only inside the parent.
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40),
                             MakeSpan(3, 1, 30, 60), MakeSpan(4, 1, 90, 120)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[3], 30);
}

TEST(SelfTimeTest, OrphanSpanKeepsItsDuration) {
  std::vector<Span> spans = {MakeSpan(7, 99, 5, 25)};
  EXPECT_EQ(SelfTimes(spans)[0], 20);
}

TEST(SpanRecorderTest, ScopedSpansLinkToTheirParent) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "txn", 42);
    ScopedSpan child(&recorder, "exec", 42, root.id());
    EXPECT_GE(child.End(), 0);
  }
  std::vector<Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "txn");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 42u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(ErrorTallyTest, EveryFailureKindCountsAgainstAttempted) {
  using O = ErrorTally::Outcome;
  ErrorTally tally;
  for (int i = 0; i < 6; ++i) tally.Record(O::kOk);
  tally.Record(O::kCommitFailed);
  tally.Record(O::kErrReply);
  tally.Record(O::kRefused);
  tally.Record(O::kWrong);
  EXPECT_EQ(tally.attempted(), 10u);
  EXPECT_EQ(tally.failed(), 4u);
  EXPECT_EQ(tally.refused(), 1u);
  EXPECT_EQ(tally.wrong(), 1u);
  EXPECT_DOUBLE_EQ(tally.error_frac(), 0.4);

  ErrorTally other;
  other.Record(O::kRefused);
  other.Record(O::kOk);
  tally.Merge(other);
  EXPECT_EQ(tally.attempted(), 12u);
  EXPECT_EQ(tally.refused(), 2u);
  EXPECT_DOUBLE_EQ(tally.error_frac(), 5.0 / 12.0);

  EXPECT_DOUBLE_EQ(ErrorTally().error_frac(), 0);
}

TEST(CoverageTest, SumOfPartsOverSumOfCommits) {
  Coverage coverage;
  EXPECT_DOUBLE_EQ(coverage.coverage(), 0);
  coverage.AddCommit(10, {2, 3});
  coverage.AddCommit(20, {5});
  EXPECT_DOUBLE_EQ(coverage.coverage(), 10.0 / 30.0);
  EXPECT_DOUBLE_EQ(coverage.mean_unexplained_ms(), 10);

  Coverage other;
  other.AddCommit(10, {12});  // a replay slower than its commit
  coverage.Merge(other);
  EXPECT_EQ(coverage.commits(), 3u);
  EXPECT_DOUBLE_EQ(coverage.coverage(), 22.0 / 40.0);
  EXPECT_DOUBLE_EQ(coverage.mean_unexplained_ms(), 18.0 / 3.0);
}

}  // namespace
}  // namespace good::loadbench
