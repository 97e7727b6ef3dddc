/// \file driver.h
/// \brief Pieces shared by the untraced run (driver.cc) and the traced
/// replay (traced.cc) of the load benchmark.

#ifndef GOOD_LOADBENCH_DRIVER_H_
#define GOOD_LOADBENCH_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "metrics.h"
#include "program/program.h"
#include "server/client.h"
#include "server/session.h"
#include "server/socket.h"
#include "storage/database.h"
#include "workload.h"

namespace good::loadbench {

using Clock = std::chrono::steady_clock;
using Outcome = ErrorTally::Outcome;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Client-side commit retries. High enough that hot-set conflicts never
/// exhaust them; every retry still counts in the transaction's time.
inline constexpr size_t kMaxCommitRetries = 64;

/// Readers re-pin the newest version every this many queries.
inline constexpr int kRefreshEvery = 8;

/// Command-line arguments (see driver.cc).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool serial = false;
  std::string workdir = ".bench_build/loadbench-run";
  std::string git_sha = "unknown";
  /// Internal: time reopens of this directory (see TimeRestarts).
  std::string restart_dir;
};

/// A printed metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One protocol connection over a loopback socket.
struct Connection {
  std::unique_ptr<server::SocketTransport> transport;
  std::unique_ptr<server::Client> client;
};

/// Prints the `metric` lines and, as the last line of standard output,
/// the JSON result object.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Prints one `run.<key>` line of the run record.
void PrintRecord(const std::string& key, const std::string& value);

/// The flush policy (kSyncEveryAppend) with the given auto-checkpoint
/// cadence.
storage::Options StorageOptions(size_t checkpoint_every);

/// Creates `dir` afresh and serves `db` from it.
Result<std::unique_ptr<server::Server>> OpenServer(const std::string& dir,
                                                   program::Database db);

/// Commits `text` through an embedded session, replaying on retriable
/// aborts like server::Client does. Returns the replays needed.
Result<size_t> CommitEmbedded(server::Session* session,
                              const std::string& text);

/// Checks a matching count or rendered matchings against the
/// precomputed answer.
bool Matches(const Query& q, size_t count,
             const std::vector<std::string>* lines);

/// Connects a client to 127.0.0.1:`port` and says hello.
Result<Connection> Connect(int port, uint64_t jitter_seed);

/// `--trace 1`: the traced replay (traced.cc).
int RunTraced(const Args& args, const WorkloadSpec& spec);

}  // namespace good::loadbench

#endif  // GOOD_LOADBENCH_DRIVER_H_
