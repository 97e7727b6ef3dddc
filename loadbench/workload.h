/// \file workload.h
/// \brief The load benchmark's workloads: the database each one starts
/// from and the seeded request streams its connections send.
///
/// Every stream is plain protocol text (operation sequences for `exec`,
/// pattern blocks for `count`/`match`), generated here from the
/// workload seed alone; the server under test sees nothing else.
///
/// Writes are *size-stationary* and *novel*. One transaction is one
/// `exec` body followed by `commit`:
///  - insert an Info whose `name` is a string never used before, so the
///    node-addition if-not-exists rule (Figure 9) cannot fold it;
///  - add a `links-to` edge from it to an existing document;
///  - once the writer holds kWindow live items, remove its oldest
///    item's edge, the item, and the item's name string.
/// After the windows fill, every transaction adds exactly what it
/// deletes, so the database keeps its size for the whole run.

#ifndef GOOD_LOADBENCH_WORKLOAD_H_
#define GOOD_LOADBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "pattern/matcher.h"
#include "program/program.h"

namespace good::loadbench {

/// \brief Shape of one workload (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  /// Documents of the gen::ScaledHyperMedia database; 0 for the Figure
  /// 2/3 paper instance.
  size_t scaled_docs = 0;
  /// Closed-loop writer / reader connections.
  size_t writers = 0;
  size_t readers = 0;
  /// Open-loop (paced) writer: transactions per second, 0 = none.
  double paced_writer_hz = 0;
  /// Share of the measured window, at its end, in which the readers run
  /// alone after the writers have stopped; 0 = readers and writers run
  /// together through the whole window.
  double read_share = 0;
  /// Readers send only point lookups (see QueryPool).
  bool point_reads = false;
  /// Transactions per writer and queries per reader in the traced
  /// replay (fixed, so replay counts repeat).
  size_t trace_txns = 0;
  size_t trace_queries = 0;
  /// Transactions of the paced writer in the traced replay.
  size_t trace_paced_txns = 0;

  /// Writer streams (closed ones first, then the paced one).
  size_t writer_streams() const { return writers + (paced_writer_hz > 0); }
};

/// The three workloads, by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Flush policy shared by every workload: the group-commit setting of
/// examples/good_server.cpp plus a fixed auto-checkpoint cadence, so
/// checkpoints run inside the measured window.
inline constexpr bool kSyncEveryAppend = false;
inline constexpr size_t kCheckpointEvery = 32;
/// Log records left in the WAL tail before the timed reopen.
inline constexpr size_t kRecoveryTail = 16;
/// Live items a writer keeps before it deletes its oldest one.
inline constexpr size_t kWindow = 4;
/// Generator seed of the scaled database (gen::HyperMediaOptions).
inline constexpr uint64_t kScaledInstanceSeed = 42;

/// \brief The starting database plus what the streams need to address
/// it by value: document names and creation dates.
struct Dataset {
  program::Database db;
  /// Names of documents that are the sole holder of their name, in a
  /// seed-shuffled order; link targets and query anchors come from it.
  /// They set how often writers conflict: the paper instance has 7, the
  /// scaled one 5,000.
  std::vector<std::string> doc_names;
  /// Date literals (protocol text) that Info nodes were created on.
  std::vector<std::string> date_literals;
};

Result<Dataset> BuildDataset(const WorkloadSpec& spec, uint64_t seed);

/// \brief One writer's transactions.
class WriterStream {
 public:
  /// `tag` makes the item names unique to this stream
  /// ("w<seed>.<tag>.<n>"); `targets` are the link endpoints.
  WriterStream(uint64_t seed, const std::string& tag,
               std::vector<std::string> targets);

  /// The next transaction's `exec` body. Call Acked() once it committed.
  std::string Next();
  /// Records that the last transaction from Next() committed.
  void Acked();

  /// Names of this writer's live (acked, not yet deleted) items.
  std::vector<std::string> LiveNames() const;
  uint64_t acked_inserts() const { return acked_inserts_; }
  uint64_t acked_deletes() const { return acked_deletes_; }

 private:
  struct Item {
    std::string name;
    std::string target;
  };
  std::mt19937_64 rng_;
  std::string prefix_;
  std::vector<std::string> targets_;
  uint64_t next_ = 0;
  std::deque<Item> live_;
  Item pending_;
  bool pending_deletes_ = false;
  uint64_t acked_inserts_ = 0;
  uint64_t acked_deletes_ = 0;
};

/// \brief A read request and its expected answer.
struct Query {
  std::string template_name;
  /// "count" or "match".
  std::string command;
  std::string pattern_text;
  /// For count: the matching count. For match: the matchings rendered
  /// as the protocol renders them, sorted (emission order may differ).
  size_t expected_count = 0;
  std::vector<std::string> expected_lines;
};

/// \brief The read templates of a workload with every parameter value
/// a reader may draw, answers precomputed with pattern::Matcher on the
/// generated instance.
///
/// With WorkloadSpec::point_reads: a point lookup of an Info by name, as
/// `match` and as `count`, drawn 1:1. Otherwise four templates drawn
/// 40/20/35/5 %: the point lookup (`match`), a named Info's `links-to`
/// neighbours and their names (`match`), a 2-hop `links-to` join anchored
/// on one creation date (`count`), and the version pattern (`count`).
class QueryPool {
 public:
  static Result<QueryPool> Build(const WorkloadSpec& spec,
                                 const Dataset& data);
  /// Draws a template by weight, then one of its parameter values
  /// uniformly.
  const Query& Draw(std::mt19937_64* rng) const;
  /// Every query of the pool (warm-up runs each once).
  const std::vector<std::vector<Query>>& templates() const {
    return templates_;
  }

 private:
  std::vector<std::vector<Query>> templates_;
  std::vector<size_t> weights_;
};

/// Renders matchings exactly like the protocol's `match` reply: one
/// line per matching, "p->n" pairs in pattern-node order.
std::vector<std::string> RenderMatchings(
    const std::vector<pattern::Matching>& matchings);

/// Sorted protocol rendering of matchings ("p->n" pairs per line),
/// the form QueryPool compares `match` replies in.
std::vector<std::string> SortedLines(std::vector<std::string> lines);

/// Deterministic per-stream seed derived from the workload seed.
uint64_t StreamSeed(uint64_t seed, const std::string& stream);

}  // namespace good::loadbench

#endif  // GOOD_LOADBENCH_WORKLOAD_H_
