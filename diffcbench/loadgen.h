#ifndef DIFFCBENCH_LOADGEN_H_
#define DIFFCBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "checker.h"
#include "net/client.h"
#include "net/server.h"
#include "spans.h"
#include "stats.h"
#include "util/status.h"
#include "workloads.h"

namespace diffcbench {

/// Closed-loop connections: each keeps one request outstanding, with no
/// think time.
inline constexpr int kConnections = 2;

/// The load loop's cycle: throughput is taken per cycle, and on adhoc and
/// revalidate each cycle ends with a registration window.
inline constexpr std::int64_t kCycleNs = 1'000'000'000;

/// The diffcd configuration under test: shipped `ServerOptions` defaults
/// (1% head-sampled tracing included), an ephemeral loopback port, and two
/// engine workers.
diffc::net::ServerOptions BenchServerOptions();

/// What one load phase measured, pooled over the connections.
struct PhaseResult {
  /// CHECK_BATCH and REGISTER_PREMISES round trips.
  LatencyWindows checks;
  LatencyWindows registers;
  /// Traced phases only, per successful CHECK_BATCH: the server-reported
  /// batch wall time, and the round trip minus it.
  std::vector<double> engine_wall_us;
  std::vector<double> outside_engine_us;
  Accounting acct;
  /// Phase start (steady clock) and wall time.
  std::int64_t start_ns = 0;
  double wall_s = 0.0;
  /// The process's peak RSS when the load stopped, before the results
  /// were merged.
  double peak_rss_mb = 0.0;
  /// Goals answered, by the cycle (counted from `start_ns`) their call
  /// completed in.
  std::vector<std::uint64_t> goals_by_cycle;
  /// Goals answered per second of checking, per complete cycle.
  std::vector<double> cycle_goals_per_s;
  /// Goals answered per second of the process's CPU time (client and
  /// server threads together) spent in the checking part, per complete
  /// cycle. CPU time leaves out the time the host takes the vCPUs away,
  /// which wall-clock figures on a shared host do not.
  std::vector<double> cycle_goals_per_cpu_s;
  /// Wall and thread-CPU durations of the host probe (`RunProbe`), run
  /// by the timer every `kProbePeriodNs` during the phase, microseconds.
  std::vector<double> probe_wall_us;
  std::vector<double> probe_cpu_us;
  /// Summed `DiffcClient::stats()` deltas over the phase.
  diffc::net::ClientStats client;
  /// Client-side spans (traced phases only).
  SpanLog spans;

  void Merge(PhaseResult&& o);
};

/// Records one CHECK_BATCH call of `k` goals that ended at `end_ns`: its
/// latency (`kMiss` when the call failed) and the goal accounting into
/// `out`, and the batch's answers into `answers`.
void RecordCheck(const diffc::Result<diffc::net::BatchResultMsg>& reply, std::size_t k,
                 std::int64_t end_ns, double rtt_us, PhaseResult* out, BatchAnswers* answers);

/// A running diffcd server with `kConnections` connected clients, set up
/// for one workload: the shared premise set registered on every
/// connection, then a fixed warm-up. Destruction closes the clients and
/// drains the server.
class Harness {
 public:
  /// Starts the server and clients and runs the warm-up. `shared` must
  /// outlive the harness.
  static diffc::Result<std::unique_ptr<Harness>> Setup(const WorkloadSpec& spec,
                                                       std::uint64_t seed,
                                                       const ConstraintSet& shared);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Runs the closed loop for `seconds`, and on past it until every
  /// latency metric has a full window (at most `max_seconds`). The loop
  /// runs in one-second cycles (`kCycleNs`). On adhoc and revalidate the
  /// last `spec.register_share` of each cycle re-registers the shared set
  /// instead of checking batches, so registration is timed on a server
  /// without checks in flight; the rest checks the connection's next
  /// stream batches. `traced` records a span per call and the
  /// engine/outside split.
  PhaseResult RunLoop(double seconds, double max_seconds, bool traced);

  /// Every connection's sampled answers since its stream began (warm-up
  /// included).
  std::vector<AnswerLog> answer_logs() const;

 private:
  struct Connection;

  Harness(const WorkloadSpec& spec, const ConstraintSet& shared);

  /// One stream batch through `conn`: (churn) register, check, (churn)
  /// release. Records answers into the connection's log and latencies,
  /// accounting and spans into `out`.
  void RunBatch(Connection& conn, bool traced, PhaseResult* out);
  /// Re-registers the shared set on `conn` and releases the handle
  /// (prepared-cache hits).
  void Reregister(Connection& conn, PhaseResult* out);

  const WorkloadSpec& spec_;
  const ConstraintSet& shared_;
  std::unique_ptr<diffc::net::DiffcdServer> server_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

/// Peak resident set size of this process so far, megabytes.
double PeakRssMb();

/// CPU time of all this process's threads so far, seconds.
double ProcessCpuS();

/// How often the load loop's timer runs the host probe (hostprobe.h).
inline constexpr std::int64_t kProbePeriodNs = 50'000'000;

}  // namespace diffcbench

#endif  // DIFFCBENCH_LOADGEN_H_
