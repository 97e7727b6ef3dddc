/// \file traced.cc
/// \brief `--trace 1` of the load benchmark: the same seeded streams,
/// sent through the embedded API (Server::StartSession) with every call
/// wrapped in a span.
///
/// A commit's inner parts cannot be timed from outside the program, so
/// each commit's operations are kept, and once the pass has ended its
/// parts are re-run in commit order through their public functions on
/// benchmark-owned state of the same size (the "shadow"): the
/// snapshot-fork copy, ApplyTransaction + SyncWal on a second durable
/// database, FirstConflict and Publish on a second version chain, the
/// publish copy, and Checkpoint at the server's cadence. Replaying after
/// the pass keeps the writers' contention what it is without spans.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "common/retry.h"
#include "driver.h"
#include "pattern/matcher.h"
#include "program/op_serialize.h"
#include "server/version.h"

namespace good::loadbench {
namespace {

namespace fs = std::filesystem;

/// A commit of the traced pass, kept for the shadow replay.
struct CommitRecord {
  uint64_t version = 0;  ///< The version the commit produced.
  uint64_t pinned = 0;   ///< The version it executed on.
  uint64_t request = 0;
  double commit_ms = 0;
  std::vector<method::Operation> ops;
};

/// What one replay thread recorded.
struct TraceSamples {
  std::vector<double> parse_ops_us, parse_pattern_us, exec_us, commit_ms;
  std::vector<double> copy_ms, validate_us, apply_us, fsync_us;
  std::vector<double> checkpoint_ms, checkpoint_bytes, partitions_written;
  std::vector<double> count_us, match_us;
  uint64_t txns = 0;
  uint64_t retries = 0;
  uint64_t journal_entries = 0;
  uint64_t wal_bytes = 0;
  uint64_t queries = 0;
  pattern::MatchStats match_stats;
  Coverage coverage;
  ErrorTally tally;
  std::vector<CommitRecord> commits;

  void Merge(TraceSamples&& o) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&parse_ops_us, o.parse_ops_us);
    append(&parse_pattern_us, o.parse_pattern_us);
    append(&exec_us, o.exec_us);
    append(&commit_ms, o.commit_ms);
    append(&copy_ms, o.copy_ms);
    append(&validate_us, o.validate_us);
    append(&apply_us, o.apply_us);
    append(&fsync_us, o.fsync_us);
    append(&checkpoint_ms, o.checkpoint_ms);
    append(&checkpoint_bytes, o.checkpoint_bytes);
    append(&partitions_written, o.partitions_written);
    append(&count_us, o.count_us);
    append(&match_us, o.match_us);
    txns += o.txns;
    retries += o.retries;
    journal_entries += o.journal_entries;
    wal_bytes += o.wal_bytes;
    queries += o.queries;
    match_stats += o.match_stats;
    coverage.Merge(o.coverage);
    tally.Merge(o.tally);
    std::move(o.commits.begin(), o.commits.end(), std::back_inserter(commits));
  }
};

/// Benchmark-owned mirror of the commit path (see the file comment).
/// Its version ids follow the server's.
struct Shadow {
  std::optional<storage::Database> db;
  server::VersionChain chain;
  uint64_t commits = 0;
};

/// An embedded server with warmed-up sessions, plus the shadow when the
/// pass is traced.
struct Embedded {
  std::string dir;
  Dataset data;
  std::unique_ptr<QueryPool> pool;
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<Shadow> shadow;
  std::vector<std::unique_ptr<server::Session>> writer_sessions;
  std::vector<std::unique_ptr<WriterStream>> streams;
  std::vector<std::unique_ptr<server::Session>> reader_sessions;

  ~Embedded() {
    writer_sessions.clear();
    reader_sessions.clear();
    if (srv) (void)srv->Close();
    srv.reset();
    shadow.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::remove_all(dir + "-shadow", ec);
  }
};

double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Applies a committed transaction's text to the shadow database, so the
/// shadow tracks the server's state (warm-up commits; not timed).
Status ShadowApply(Shadow* shadow, const std::string& text) {
  GOOD_ASSIGN_OR_RETURN(
      std::vector<method::Operation> ops,
      program::ParseOperations(shadow->db->scheme(), text));
  GOOD_RETURN_NOT_OK(shadow->db->ApplyTransaction(ops));
  return shadow->db->SyncWal();
}

Status SetUpEmbedded(const WorkloadSpec& spec, const Args& args,
                     const std::string& name, bool with_shadow,
                     Embedded* e) {
  e->dir = args.workdir + "/" + name + "-" + std::to_string(::getpid());
  GOOD_ASSIGN_OR_RETURN(e->data, BuildDataset(spec, args.seed));
  GOOD_ASSIGN_OR_RETURN(QueryPool pool, QueryPool::Build(spec, e->data));
  e->pool = std::make_unique<QueryPool>(std::move(pool));
  GOOD_ASSIGN_OR_RETURN(e->srv, OpenServer(e->dir, e->data.db));
  if (with_shadow) {
    const std::string shadow_dir = e->dir + "-shadow";
    std::error_code ec;
    fs::remove_all(shadow_dir, ec);
    fs::create_directories(shadow_dir, ec);
    e->shadow = std::make_unique<Shadow>();
    GOOD_ASSIGN_OR_RETURN(
        storage::Database db,
        storage::Database::Open(shadow_dir, e->data.db, StorageOptions(0)));
    e->shadow->db.emplace(std::move(db));
  }

  const size_t writers = spec.writer_streams();
  for (size_t i = 0; i < writers; ++i) {
    e->writer_sessions.push_back(e->srv->StartSession());
    e->streams.push_back(std::make_unique<WriterStream>(
        args.seed, "w" + std::to_string(i), e->data.doc_names));
  }
  for (size_t i = 0; i < spec.readers; ++i) {
    e->reader_sessions.push_back(e->srv->StartSession());
  }

  // Warm-up, as in the untraced run: fill the windows, run every template
  // once per reader, commit until the first auto-checkpoint.
  auto commit = [&](size_t w) -> Result<size_t> {
    const std::string text = e->streams[w]->Next();
    GOOD_RETURN_NOT_OK(
        CommitEmbedded(e->writer_sessions[w].get(), text).status());
    e->streams[w]->Acked();
    if (e->shadow) GOOD_RETURN_NOT_OK(ShadowApply(e->shadow.get(), text));
    return e->srv->database().log_ops();
  };
  for (size_t w = 0; w < writers; ++w) {
    for (size_t t = 0; t < kWindow + 2; ++t) {
      GOOD_RETURN_NOT_OK(commit(w).status());
    }
  }
  if (writers > 0) {
    size_t last = e->srv->database().log_ops();
    for (size_t guard = 0; guard <= 2 * kCheckpointEvery; ++guard) {
      GOOD_ASSIGN_OR_RETURN(size_t now, commit(0));
      if (now < last) break;
      last = now;
    }
  }
  for (auto& session : e->reader_sessions) {
    for (const std::vector<Query>& t : e->pool->templates()) {
      GOOD_ASSIGN_OR_RETURN(pattern::Pattern p,
                            program::ParsePattern(session->view().scheme,
                                                  t.front().pattern_text));
      GOOD_RETURN_NOT_OK(session->Count(p).status());
    }
  }
  if (e->shadow) {
    auto base = std::make_shared<server::Version>();
    base->id = e->srv->current_version()->id;
    base->db = e->shadow->db->database();
    e->shadow->chain.Reset(std::move(base));
  }
  return Status::OK();
}

/// Re-runs the parts of one commit on the shadow, which holds the state
/// the server applied the commit to, and records them.
void ReplayCommit(const CommitRecord& commit, Shadow* shadow,
                  SpanRecorder* rec, TraceSamples* out) {
  const std::vector<method::Operation>& ops = commit.ops;
  const uint64_t request = commit.request;
  ScopedSpan root(rec, "replay", request);
  std::vector<double> parts_ms;

  // The session forked the version it pinned; the database keeps its
  // size, so a copy of the shadow's state costs what that fork did.
  {
    ScopedSpan span(rec, "graph.fork_copy", request, root.id());
    const program::Database fork = shadow->db->database();
    out->copy_ms.push_back(NsToMs(span.End()));
  }

  ops::ApplyStats stats;
  ops::Footprint footprint;
  const uint64_t wal_before = shadow->db->log_bytes();
  Status applied;
  {
    ScopedSpan span(rec, "storage.apply_txn", request, root.id());
    applied = shadow->db->ApplyTransaction(ops, &stats, &footprint);
    int64_t ns = span.End();
    out->apply_us.push_back(NsToUs(ns));
    parts_ms.push_back(NsToMs(ns));
  }
  if (!applied.ok()) {
    std::printf("CHECK FAILED: shadow apply: %s\n", applied.ToString().c_str());
    out->tally.Record(Outcome::kWrong);
    return;
  }
  out->wal_bytes += shadow->db->log_bytes() - wal_before;
  {
    ScopedSpan span(rec, "version.validate", request, root.id());
    (void)shadow->chain.FirstConflict(commit.pinned, footprint);
    int64_t ns = span.End();
    out->validate_us.push_back(NsToUs(ns));
    parts_ms.push_back(NsToMs(ns));
  }
  {
    ScopedSpan span(rec, "storage.fsync", request, root.id());
    Status synced = shadow->db->SyncWal();
    int64_t ns = span.End();
    if (!synced.ok()) out->tally.Record(Outcome::kWrong);
    out->fsync_us.push_back(NsToUs(ns));
    parts_ms.push_back(NsToMs(ns));
  }
  auto version = std::make_shared<server::Version>();
  {
    ScopedSpan span(rec, "graph.publish_copy", request, root.id());
    version->db = shadow->db->database();
    int64_t ns = span.End();
    out->copy_ms.push_back(NsToMs(ns));
    parts_ms.push_back(NsToMs(ns));
  }
  version->id = commit.version;
  version->footprint = std::move(footprint);
  {
    ScopedSpan span(rec, "version.publish", request, root.id());
    shadow->chain.Publish(std::move(version));
    parts_ms.push_back(NsToMs(span.End()));
  }
  if (++shadow->commits % kCheckpointEvery == 0) {
    storage::CheckpointStats cs;
    ScopedSpan span(rec, "storage.checkpoint", request, root.id());
    Status checkpointed = shadow->db->Checkpoint(&cs);
    int64_t ns = span.End();
    if (!checkpointed.ok()) out->tally.Record(Outcome::kWrong);
    out->checkpoint_ms.push_back(NsToMs(ns));
    out->checkpoint_bytes.push_back(static_cast<double>(cs.bytes_written));
    out->partitions_written.push_back(
        static_cast<double>(cs.partitions_written));
    parts_ms.push_back(NsToMs(ns));
  }
  out->coverage.AddCommit(commit.commit_ms, parts_ms);
}

/// One writer transaction through the embedded API. With a recorder,
/// every call is a span and the commit is kept for the shadow replay.
void ReplayTxn(server::Session* session, WriterStream* stream,
               SpanRecorder* rec, uint64_t request, TraceSamples* out) {
  const std::string text = stream->Next();
  if (rec == nullptr) {
    Result<size_t> retries = CommitEmbedded(session, text);
    if (!retries.ok()) {
      out->tally.Record(Outcome::kCommitFailed);
      return;
    }
    stream->Acked();
    out->tally.Record(Outcome::kOk);
    ++out->txns;
    return;
  }
  ScopedSpan root(rec, "txn", request);
  CommitRecord commit;
  commit.request = request;
  std::vector<method::Operation>& ops = commit.ops;
  for (size_t retries = 0;; ++retries) {
    commit.pinned = session->snapshot()->id;
    {
      ScopedSpan span(rec, "protocol.parse_ops", request, root.id());
      Result<std::vector<method::Operation>> parsed =
          program::ParseOperations(session->view().scheme, text);
      out->parse_ops_us.push_back(NsToUs(span.End()));
      if (!parsed.ok()) {
        out->tally.Record(Outcome::kErrReply);
        return;
      }
      ops = std::move(*parsed);
    }
    Status executed;
    {
      ScopedSpan span(rec, "session.exec", request, root.id());
      executed = session->ExecuteAll(ops);
      out->exec_us.push_back(NsToUs(span.End()));
    }
    if (!executed.ok()) {
      session->Rollback();
      out->tally.Record(Outcome::kErrReply);
      return;
    }
    const graph::UndoJournal* journal = session->view().instance.journal();
    const uint64_t entries = journal ? journal->size() : 0;
    server::CommitResult result;
    {
      ScopedSpan span(rec, "pipeline.commit", request, root.id());
      result = session->Commit();
      commit.commit_ms = NsToMs(span.End());
      out->commit_ms.push_back(commit.commit_ms);
    }
    if (result.ok()) {
      commit.version = result.version;
      out->retries += retries;
      out->journal_entries += entries;
      break;
    }
    if (!common::IsRetriable(result.status) || retries >= kMaxCommitRetries) {
      out->tally.Record(Outcome::kCommitFailed);
      return;
    }
  }
  root.End();
  stream->Acked();
  out->tally.Record(Outcome::kOk);
  ++out->txns;
  out->commits.push_back(std::move(commit));
}

/// One read through the embedded API, checked against the pool.
void ReplayQuery(server::Session* session, const Query& q, SpanRecorder* rec,
                 uint64_t request, TraceSamples* out) {
  std::optional<ScopedSpan> root;
  if (rec) root.emplace(rec, "query", request);
  const uint64_t parent = root ? root->id() : 0;
  Result<pattern::Pattern> parsed = Status::OK();
  {
    std::optional<ScopedSpan> span;
    if (rec) span.emplace(rec, "protocol.parse_pattern", request, parent);
    parsed = program::ParsePattern(session->view().scheme, q.pattern_text);
    if (span) out->parse_pattern_us.push_back(NsToUs(span->End()));
  }
  if (!parsed.ok()) {
    out->tally.Record(Outcome::kErrReply);
    return;
  }
  pattern::MatchOptions options;
  if (rec) options.stats = &out->match_stats;
  pattern::Matcher matcher(*parsed, session->view().instance, options);
  bool ok = false;
  if (q.command == "count") {
    std::optional<ScopedSpan> span;
    if (rec) span.emplace(rec, "pattern.count", request, parent);
    size_t count = matcher.Count();
    if (span) out->count_us.push_back(NsToUs(span->End()));
    ok = Matches(q, count, nullptr);
  } else {
    std::optional<ScopedSpan> span;
    if (rec) span.emplace(rec, "pattern.match", request, parent);
    std::vector<pattern::Matching> matchings = matcher.FindAll();
    if (span) out->match_us.push_back(NsToUs(span->End()));
    std::vector<std::string> lines = RenderMatchings(matchings);
    ok = Matches(q, lines.size(), &lines);
  }
  out->tally.Record(ok ? Outcome::kOk : Outcome::kWrong);
  ++out->queries;
}

/// Runs every stream of `e` to its fixed length (threads, or one after
/// another when `serial`), stopping early only at the `--seconds`
/// deadline; returns the wall time in seconds. With
/// WorkloadSpec::read_share the readers run after the writers have
/// finished, as in the untraced run.
double ReplayStreams(const WorkloadSpec& spec, const Args& args, Embedded* e,
                     SpanRecorder* rec, TraceSamples* total) {
  std::atomic<uint64_t> next_request{1};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(args.seconds);
  std::vector<TraceSamples> samples(e->writer_sessions.size() +
                                    e->reader_sessions.size());
  std::vector<std::function<void()>> jobs;
  std::vector<std::function<void()>> read_jobs;
  for (size_t w = 0; w < e->writer_sessions.size(); ++w) {
    const size_t txns = w < spec.writers ? spec.trace_txns
                                         : spec.trace_paced_txns;
    jobs.push_back([&, w, txns] {
      for (size_t t = 0; t < txns && Clock::now() < deadline; ++t) {
        ReplayTxn(e->writer_sessions[w].get(), e->streams[w].get(), rec,
                  next_request++, &samples[w]);
      }
    });
  }
  for (size_t r = 0; r < e->reader_sessions.size(); ++r) {
    (spec.read_share > 0 ? read_jobs : jobs).push_back([&, r] {
      std::mt19937_64 rng(StreamSeed(args.seed, "reader" + std::to_string(r)));
      server::Session* session = e->reader_sessions[r].get();
      TraceSamples* out = &samples[e->writer_sessions.size() + r];
      for (size_t n = 0; n < spec.trace_queries && Clock::now() < deadline;
           ++n) {
        if (n % kRefreshEvery == 0) (void)session->Refresh();
        ReplayQuery(session, e->pool->Draw(&rng), rec, next_request++, out);
      }
    });
  }
  auto run = [&](const std::vector<std::function<void()>>& group) {
    if (args.serial) {
      for (auto& job : group) job();
      return;
    }
    std::vector<std::thread> threads;
    for (auto& job : group) threads.emplace_back(job);
    for (std::thread& t : threads) t.join();
  };
  Clock::time_point t0 = Clock::now();
  run(jobs);
  run(read_jobs);
  const double wall_s = MsBetween(t0, Clock::now()) / 1000.0;
  for (TraceSamples& s : samples) total->Merge(std::move(s));
  return wall_s;
}

/// Median Client::Version round trip over a loopback socket, in µs.
Result<double> NoopRoundTripUs(server::Server* srv) {
  GOOD_ASSIGN_OR_RETURN(auto listener, server::SocketServer::Listen(srv, {}));
  GOOD_ASSIGN_OR_RETURN(Connection c, Connect(listener->port(), 1));
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    Clock::time_point t0 = Clock::now();
    GOOD_RETURN_NOT_OK(c.client->Version().status());
    us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
  }
  (void)c.client->Quit();
  c = Connection{};
  listener->Stop();
  return Median(us);
}

}  // namespace

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  std::error_code ec;
  fs::create_directories(args.workdir, ec);

  // Pass A: the stream without spans or shadow replay (the baseline of
  // trace.overhead_frac).
  TraceSamples plain;
  double plain_wall_s = 0;
  {
    Embedded e;
    Status status = SetUpEmbedded(spec, args, "trace-plain", false, &e);
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
    plain_wall_s = ReplayStreams(spec, args, &e, nullptr, &plain);
  }

  // Pass B: traced.
  TraceSamples traced;
  SpanRecorder recorder;
  Embedded e;
  Status status = SetUpEmbedded(spec, args, "trace", true, &e);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  Result<double> rtt_us = NoopRoundTripUs(e.srv.get());
  if (!rtt_us.ok()) {
    std::fprintf(stderr, "wire probe failed: %s\n",
                 rtt_us.status().ToString().c_str());
    return 1;
  }
  const graph::Instance& start = e.srv->current_version()->db.instance;
  const size_t nodes_start = start.num_nodes();
  const size_t edges_start = start.num_edges();
  const server::PipelineStats before = e.srv->pipeline_stats();
  const pattern::PlanCacheInfo cache_before = pattern::GlobalPlanCacheInfo();
  const double traced_wall_s = ReplayStreams(spec, args, &e, &recorder, &traced);
  const pattern::PlanCacheInfo cache_after = pattern::GlobalPlanCacheInfo();
  const server::PipelineStats after = e.srv->pipeline_stats();
  server::VersionRef last = e.srv->current_version();
  const size_t nodes_end = last->db.instance.num_nodes();
  const size_t edges_end = last->db.instance.num_edges();

  // The pass's commits, re-run part by part on the shadow in commit order.
  std::sort(traced.commits.begin(), traced.commits.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.version < b.version;
            });
  for (const CommitRecord& commit : traced.commits) {
    ReplayCommit(commit, e.shadow.get(), &recorder, &traced);
  }

  // A checkpoint must be measured even when the stream commits fewer
  // transactions than the cadence.
  if (traced.checkpoint_ms.empty()) {
    storage::CheckpointStats cs;
    ScopedSpan span(&recorder, "storage.checkpoint", 0);
    Status checkpointed = e.shadow->db->Checkpoint(&cs);
    traced.checkpoint_ms.push_back(NsToMs(span.End()));
    traced.checkpoint_bytes.push_back(static_cast<double>(cs.bytes_written));
    traced.partitions_written.push_back(
        static_cast<double>(cs.partitions_written));
    if (!checkpointed.ok()) traced.tally.Record(Outcome::kWrong);
  }

  bool correct = true;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      traced.tally.Record(Outcome::kWrong);
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  };
  check(e.shadow->db->instance().Fingerprint() ==
            last->db.instance.Fingerprint(),
        "shadow replay reaches the server's final state (per-label census)");
  check(last->db.instance.Validate(last->db.scheme).ok(),
        "final version passes Instance::Validate");
  // Both passes must run the same fixed streams to the end, or their wall
  // times and per-transaction counts describe different work.
  const uint64_t want_txns = spec.writers * spec.trace_txns +
                             (spec.paced_writer_hz > 0 ? spec.trace_paced_txns
                                                       : 0);
  const uint64_t want_queries = spec.readers * spec.trace_queries;
  for (const auto& [pass, s] :
       {std::pair<const char*, const TraceSamples*>{"untraced", &plain},
        {"traced", &traced}}) {
    check(s->txns == want_txns && s->queries == want_queries,
          std::string(pass) + " pass ran its streams to the end (" +
              std::to_string(s->txns) + "/" + std::to_string(want_txns) +
              " transactions, " + std::to_string(s->queries) + "/" +
              std::to_string(want_queries) + " queries)");
  }

  // Spans: written out, then self time per span name.
  const std::string span_path = args.workdir + "/spans-" + spec.name + "-" +
                                std::to_string(args.seed) + ".jsonl";
  std::vector<Span> spans = recorder.Spans();
  check(recorder.WriteJsonLines(span_path), "span file written");
  PrintRecord("span_file", span_path + " (" + std::to_string(spans.size()) +
                               " spans)");
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::pair<double, size_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& [ms, n] = by_name[spans[i].name];
    ms += NsToMs(self[i]);
    ++n;
  }
  for (const auto& [name, totals] : by_name) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "self %10.3f ms over %6zu spans",
                  totals.first, totals.second);
    PrintRecord("span." + name, buf);
  }
  PrintRecord("graph_nodes", std::to_string(nodes_start) + " -> " +
                                 std::to_string(nodes_end));
  PrintRecord("graph_edges", std::to_string(edges_start) + " -> " +
                                 std::to_string(edges_end));
  PrintRecord("traced_txns", std::to_string(traced.txns));
  PrintRecord("traced_queries", std::to_string(traced.queries));
  PrintRecord("wall_s", std::to_string(plain_wall_s) + " untraced, " +
                            std::to_string(traced_wall_s) + " traced");

  const double committed =
      static_cast<double>(after.committed - before.committed);
  const double conflicts =
      static_cast<double>(after.conflicts - before.conflicts);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double cache_hits =
      static_cast<double>(cache_after.hits - cache_before.hits);
  const double cache_lookups =
      cache_hits + static_cast<double>(cache_after.misses - cache_before.misses);
  const double txns = static_cast<double>(std::max<uint64_t>(traced.txns, 1));
  const double queries =
      static_cast<double>(std::max<uint64_t>(traced.queries, 1));
  const pattern::MatchStats& ms = traced.match_stats;
  std::vector<Metric> metrics = {
      {"wire.noop_rtt_us", *rtt_us, "us"},
      {"protocol.parse_ops_us", Median(traced.parse_ops_us), "us"},
      {"protocol.parse_pattern_us", Median(traced.parse_pattern_us), "us"},
      {"session.exec_us", Median(traced.exec_us), "us"},
      {"graph.copy_ms", Median(traced.copy_ms), "ms"},
      {"graph.nodes_start", static_cast<double>(nodes_start), "count"},
      {"graph.nodes_end", static_cast<double>(nodes_end), "count"},
      {"graph.edges_start", static_cast<double>(edges_start), "count"},
      {"graph.edges_end", static_cast<double>(edges_end), "count"},
      {"pipeline.commit_ms", Median(traced.commit_ms), "ms"},
      {"pipeline.other_ms", traced.coverage.mean_unexplained_ms(), "ms"},
      {"pipeline.batch_size", batches > 0 ? committed / batches : 0, "count"},
      {"pipeline.conflict_frac",
       committed + conflicts > 0 ? conflicts / (committed + conflicts) : 0,
       "ratio"},
      {"version.validate_us", Median(traced.validate_us), "us"},
      {"client.retries_per_txn", static_cast<double>(traced.retries) / txns,
       "count"},
      {"ops.journal_entries_per_txn",
       static_cast<double>(traced.journal_entries) / txns, "count"},
      {"storage.apply_txn_us", Median(traced.apply_us), "us"},
      {"storage.wal_bytes_per_txn", static_cast<double>(traced.wal_bytes) / txns,
       "B"},
      {"storage.fsync_us", Median(traced.fsync_us), "us"},
      {"storage.checkpoint_ms", Median(traced.checkpoint_ms), "ms"},
      {"storage.checkpoint_bytes", Median(traced.checkpoint_bytes), "B"},
      {"storage.partitions_written", Median(traced.partitions_written),
       "count"},
      {"pattern.count_us", Median(traced.count_us), "us"},
      {"pattern.match_us", Median(traced.match_us), "us"},
      {"pattern.cand_per_result",
       ms.matchings > 0 ? static_cast<double>(ms.candidates_scanned) /
                              static_cast<double>(ms.matchings)
                        : 0,
       "ratio"},
      {"pattern.backtracks_per_query",
       static_cast<double>(ms.backtracks) / queries, "count"},
      {"pattern.plan_hit_rate",
       cache_lookups > 0 ? cache_hits / cache_lookups : 0, "ratio"},
      {"trace.coverage", traced.coverage.coverage(), "ratio"},
      {"trace.overhead_frac",
       plain_wall_s > 0 ? traced_wall_s / plain_wall_s - 1 : 0, "ratio"},
  };
  ErrorTally tally = plain.tally;
  tally.Merge(traced.tally);
  PrintRecord("error_frac", std::to_string(tally.error_frac()) + " (" +
                                std::to_string(tally.failed()) + " of " +
                                std::to_string(tally.attempted()) + ")");
  PrintRecord("correct", correct ? "yes" : "NO");
  PrintResult(correct && tally.failed() == 0, tally.attempted(),
              tally.failed(), metrics);
  return 0;
}

}  // namespace good::loadbench
