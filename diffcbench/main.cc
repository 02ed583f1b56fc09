// diffcbench: the end-to-end diffcd benchmark. Runs one named workload
// against an in-process DiffcdServer on 127.0.0.1 through DiffcClient, as
// a closed loop of two connections, checks a seeded sample of the verdicts,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   diffcbench --workload adhoc|revalidate|churn --seed N --seconds S
//              --trace 0|1 [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the loop
// untraced and then traced (the difference is the tracing overhead),
// replays a prefix of the inputs layer by layer, reports the per-layer
// metrics, and writes every span to FILE as JSON lines. README.md lists
// the workloads, the metrics and which end-to-end metric each layer moves.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "engine/caches.h"
#include "hostprobe.h"
#include "layers.h"
#include "loadgen.h"
#include "obs/trace_store.h"
#include "selftest.h"
#include "stats.h"
#include "workloads.h"

namespace diffcbench {
namespace {

// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 15;
// Host probes run back to back before each setup.
constexpr int kSetupProbes = 5;
// The wall-clock check figures are printed but left out of the result
// line: on a shared host the hypervisor's steal moved them by more than
// 25% between runs of an unchanged tree (README.md).
constexpr const char* kLogOnly = "(same windows; log only, see README.md)";
// Implied answers compared with the oracle per run.
constexpr std::size_t kImpliedSample = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(value);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || FindWorkload(a.workload) == nullptr || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// A JSON number for `v`; a miss (infinite latency) prints as the largest
// double, which is beyond every limit and still valid JSON.
std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", std::isinf(v) ? 1.7976931348623157e308 : v);
  return buf;
}

// The result line. `attempted` counts every call and every goal of the
// measured phases; `failed` the failed ones of each.
void PrintResult(bool correct, const Accounting& acct, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(acct.calls + acct.goals) +
                    ", \"failed\": " + std::to_string(acct.failed_calls + acct.failed_goals) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + ("\"" + metrics[i].name + "\": {\"value\": ") +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void Line(const Metric& m, const std::string& note = "") {
  std::printf("%-36s %14.4f %-6s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.empty() ? "" : ("  " + note).c_str());
}

// The latency figures of a phase's calls: medians over their windows.
struct Figures {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::size_t windows = 0;
  std::size_t calls = 0;

  std::string Note() const {
    return "(median of " + std::to_string(windows) + " windows of " +
           std::to_string(kWindowCalls) + " calls, " + std::to_string(kMinSamplesBeyond) +
           " beyond p99 in each; " + std::to_string(calls) + " calls)";
  }
};

std::optional<Figures> FiguresOf(const LatencyWindows& w) {
  if (w.p50_us().empty()) {
    std::fprintf(stderr, "%zu calls fill no window of %zu\n", w.calls(), kWindowCalls);
    return std::nullopt;
  }
  return Figures{Median(w.p50_us()), Median(w.p90_us()), Median(w.p99_us()), w.p50_us().size(),
                 w.calls()};
}

// Runs the closed loop for `seconds`, on past it until each latency has a
// full window.
PhaseResult Loop(Harness& h, double seconds, bool traced) {
  return h.RunLoop(seconds, seconds * 4 + 10, traced);
}

void PrintAccounting(const char* phase, const PhaseResult& p) {
  std::printf(
      "accounting %-10s calls=%llu failed_calls=%llu goals=%llu failed_goals=%llu "
      "non_ok=%llu unknown=%llu failed_frac=%.6f retries=%llu shed_backoffs=%llu "
      "reconnects=%llu wall=%.3fs\n",
      phase, static_cast<unsigned long long>(p.acct.calls),
      static_cast<unsigned long long>(p.acct.failed_calls),
      static_cast<unsigned long long>(p.acct.goals),
      static_cast<unsigned long long>(p.acct.failed_goals),
      static_cast<unsigned long long>(p.acct.non_ok_statuses),
      static_cast<unsigned long long>(p.acct.unknown_verdicts), p.acct.FailedFraction(),
      static_cast<unsigned long long>(p.client.retries),
      static_cast<unsigned long long>(p.client.shed_backoffs),
      static_cast<unsigned long long>(p.client.reconnects), p.wall_s);
}

// What one setup took (server start, connections, registration of the
// shared set and the warm-up): wall time, the process's CPU time, and
// the median host-probe CPU time just before it.
struct SetupTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double probe_cpu_us = 0.0;
};

// Sets up `count` times from cold caches, keeping the last harness.
std::unique_ptr<Harness> SetUp(const WorkloadSpec& spec, std::uint64_t seed,
                               const ConstraintSet& shared, int count,
                               std::vector<SetupTime>* times) {
  std::unique_ptr<Harness> harness;
  for (int i = 0; i < count; ++i) {
    harness.reset();
    diffc::GlobalWitnessSetCache().Clear();
    diffc::GlobalPreparedPremisesCache().Clear();
    SetupTime t;
    t.probe_cpu_us = MedianProbeCpuUs(kSetupProbes);
    const double cpu0 = ProcessCpuS();
    const std::int64_t t0 = NowNs();
    diffc::Result<std::unique_ptr<Harness>> h = Harness::Setup(spec, seed, shared);
    t.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    t.cpu_s = ProcessCpuS() - cpu0;
    times->push_back(t);
    if (!h.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", h.status().ToString().c_str());
      return nullptr;
    }
    harness = std::move(*h);
  }
  return harness;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Checks the run's answers; returns false on any mismatch.
bool CheckRun(const WorkloadSpec& spec, std::uint64_t seed, const ConstraintSet& shared,
              const std::vector<AnswerLog>& logs) {
  const std::int64_t t0 = NowNs();
  const CheckReport r = CheckAnswers(spec, seed, shared, logs, kImpliedSample);
  std::printf(
      "correctness: a seeded sample of %llu of %llu batches; its %llu counterexamples "
      "checked (all), %llu of its %llu Implied answers checked against %s; %llu mismatches "
      "(%.2fs)\n",
      static_cast<unsigned long long>(r.sampled_batches),
      static_cast<unsigned long long>(r.batches),
      static_cast<unsigned long long>(r.counterexamples_checked),
      static_cast<unsigned long long>(r.implied_checked),
      static_cast<unsigned long long>(r.implied_answers),
      OracleFor(spec) == Oracle::kExhaustive ? "CheckImplicationExhaustive" : "CheckImplication",
      static_cast<unsigned long long>(r.mismatches), static_cast<double>(NowNs() - t0) / 1e9);
  if (r.mismatches != 0) std::printf("first mismatch: %s\n", r.first_error.c_str());
  return r.mismatches == 0;
}

int RunUntraced(const Args& args, const WorkloadSpec& spec, const ConstraintSet& shared) {
  std::vector<SetupTime> setups;
  std::unique_ptr<Harness> h = SetUp(spec, args.seed, shared, kSetups, &setups);
  if (h == nullptr) return 1;
  const bool churn = spec.kind == WorkloadKind::kChurn;
  PhaseResult loop = Loop(*h, args.seconds, false);
  const std::vector<AnswerLog> logs = h->answer_logs();
  h.reset();

  std::printf("workload %s seed %llu: closed loop, %d connections, %.3fs\n", spec.name,
              static_cast<unsigned long long>(args.seed), kConnections, loop.wall_s);
  const std::optional<Figures> check = FiguresOf(loop.checks);
  const std::optional<Figures> regs = FiguresOf(loop.registers);
  if (!check || !regs) return 1;
  // Every gated timing is scaled to the reference host by the host probe
  // taken at the same time (hostprobe.h); the log prints it as measured too.
  const double probe_wall_us = Median(loop.probe_wall_us);
  const double probe_cpu_us = Median(loop.probe_cpu_us);
  std::printf("host probe: wall %.1f us, cpu %.1f us (median of %zu during the loop; "
              "reference %.0f us)\n",
              probe_wall_us, probe_cpu_us, loop.probe_wall_us.size(), kProbeReferenceUs);
  std::vector<double> setup_ref_cpu_s, setup_wall_s;
  for (const SetupTime& t : setups) {
    setup_ref_cpu_s.push_back(t.cpu_s * ToReference(t.probe_cpu_us));
    setup_wall_s.push_back(t.wall_s);
  }
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(setup_ref_cpu_s), "s"});
  Line(m.back(), "(median of " + std::to_string(setups.size()) +
                     " setups: CPU time, each scaled by the probe just before it)");
  Line({"setup_wall_s", Median(setup_wall_s), "s"}, "(wall clock, as measured; log only)");
  Line({"check_p50_us", check->p50_us, "us"}, check->Note() + " log only, see README.md");
  Line({"check_p50_ref_us", check->p50_us * ToReference(probe_wall_us), "us"},
       "(check_p50_us scaled to the reference host; log only)");
  Line({"check_p90_us", check->p90_us, "us"}, kLogOnly);
  Line({"check_p99_us", check->p99_us, "us"}, kLogOnly);
  if (loop.cycle_goals_per_cpu_s.empty()) return 1;
  const double goals_per_cpu_s = Median(loop.cycle_goals_per_cpu_s);
  m.push_back({"goals_per_ref_cpu_s", goals_per_cpu_s / ToReference(probe_cpu_us), "1/s"});
  Line(m.back(), "(goals_per_cpu_s scaled to the reference host)");
  Line({"goals_per_cpu_s", goals_per_cpu_s, "1/s"},
       "(median of " + std::to_string(loop.cycle_goals_per_cpu_s.size()) +
           " one-second cycles, per CPU-second of the process while checking)");
  Line({"goals_per_s", Median(loop.cycle_goals_per_s), "1/s"},
       "(the same cycles, per wall second of checking; log only, see README.md)");
  m.push_back({"register_p50_ref_us", regs->p50_us * ToReference(probe_wall_us), "us"});
  Line(m.back(), "(register_p50_us scaled to the reference host)");
  Line({"register_p50_us", regs->p50_us, "us"}, regs->Note());
  Line({"register_p90_us", regs->p90_us, "us"}, kLogOnly);
  Line({"register_p99_us", regs->p99_us, "us"}, kLogOnly);
  std::printf("  register_* above: %s\n",
              churn ? "fresh sets, prepared-cache misses"
                    : "re-registering the shared set at the end of every cycle, "
                      "prepared-cache hits");
  m.push_back({"peak_rss_mb", loop.peak_rss_mb, "MB"});
  Line(m.back(), "(when the load stopped)");
  PrintAccounting("loop", loop);

  const bool correct = CheckRun(spec, args.seed, shared, logs);
  PrintResult(correct, loop.acct, m);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, const WorkloadSpec& spec, const ConstraintSet& shared) {
  std::vector<SetupTime> setups;
  std::unique_ptr<Harness> h = SetUp(spec, args.seed, shared, 1, &setups);
  if (h == nullptr) return 1;
  const double half = args.seconds / 2;
  PhaseResult untraced = Loop(*h, half, false);
  const std::uint64_t stored_before = diffc::obs::GlobalTraceStore().total();
  const diffc::CacheCounters witness_before = diffc::GlobalWitnessSetCache().counters();
  PhaseResult traced = Loop(*h, half, true);
  const std::uint64_t stored = diffc::obs::GlobalTraceStore().total() - stored_before;
  const diffc::CacheCounters witness_after = diffc::GlobalWitnessSetCache().counters();
  const std::vector<AnswerLog> logs = h->answer_logs();
  h.reset();

  const LayerReport layers =
      ReplayLayers(spec, args.seed, shared, BenchServerOptions().engine);

  std::printf("workload %s seed %llu: traced run\n", spec.name,
              static_cast<unsigned long long>(args.seed));
  PrintAccounting("untraced", untraced);
  PrintAccounting("traced", traced);
  const std::optional<Figures> off = FiguresOf(untraced.checks);
  const std::optional<Figures> on = FiguresOf(traced.checks);
  const std::optional<Figures> regs = FiguresOf(untraced.registers);
  if (!off || !on || !regs) return 1;
  const double p50_off = off->p50_us, p50_on = on->p50_us, reg_p50 = regs->p50_us;
  std::printf("check_p50_us untraced %.2f %s, traced %.2f %s\n", p50_off, off->Note().c_str(),
              p50_on, on->Note().c_str());

  std::vector<double> outside_share;
  for (std::size_t i = 0; i < traced.outside_engine_us.size(); ++i) {
    outside_share.push_back(
        Ratio(traced.outside_engine_us[i],
              traced.outside_engine_us[i] + traced.engine_wall_us[i]));
  }
  const std::uint64_t lookups = (witness_after.hits - witness_before.hits) +
                                (witness_after.misses - witness_before.misses);
  const std::uint64_t calls = traced.acct.calls;

  std::vector<Metric> m;
  auto add = [&](const std::string& name, double v, const char* unit) {
    m.push_back({name, v, unit});
    Line(m.back());
  };
  auto from_replay = [&](const std::string& name, const char* unit) {
    add(name, layers.Get(name), unit);
  };
  add("net.outside_engine_us", Median(traced.outside_engine_us), "us");
  add("net.outside_engine_share", Median(outside_share), "ratio");
  for (const char* name : {"net.check_encode_us", "net.check_decode_us", "net.reply_encode_us",
                           "net.reply_decode_us", "net.register_codec_us"}) {
    from_replay(name, "us");
  }
  from_replay("net.check_frame_bytes", "bytes");
  from_replay("net.reply_frame_bytes", "bytes");
  add("net.retries", static_cast<double>(untraced.client.retries + traced.client.retries),
      "count");
  add("net.shed_backoffs",
      static_cast<double>(untraced.client.shed_backoffs + traced.client.shed_backoffs), "count");
  add("net.reconnects",
      static_cast<double>(untraced.client.reconnects + traced.client.reconnects), "count");
  from_replay("engine.batch_us", "us");
  add("engine.wait_us", Median(traced.engine_wall_us) - layers.Get("engine.batch_us"), "us");
  from_replay("engine.plan_us", "us");
  from_replay("engine.prepare_us", "us");
  add("engine.witness_hit_ratio",
      Ratio(static_cast<double>(witness_after.hits - witness_before.hits),
            static_cast<double>(lookups)),
      "ratio");
  from_replay("engine.sat_time_share", "ratio");
  for (const char* p : {"trivial", "fd-subclass", "interval-cover", "sat", "exhaustive"}) {
    from_replay(std::string("procedures.") + p + ".share", "ratio");
    from_replay(std::string("procedures.") + p + ".us", "us");
  }
  from_replay("procedures.sat.decisions", "count");
  from_replay("procedures.sat.propagations", "count");
  from_replay("core.translate_us", "us");
  from_replay("core.sat_translated_us", "us");
  from_replay("core.translation_clauses", "count");
  from_replay("prop.dpll_solve_us", "us");
  from_replay("rewrite.simplify_us", "us");
  from_replay("rewrite.members_removed_frac", "ratio");
  from_replay("rewrite.passes", "count");
  from_replay("lattice.min_witness_us", "us");
  from_replay("lattice.min_witness_count", "count");
  from_replay("obs.engine_trace_us", "us");
  add("obs.traces_stored_per_kcall",
      Ratio(static_cast<double>(stored) * 1000.0, static_cast<double>(calls)), "count");
  add("trace_overhead.check_p50_us", p50_on - p50_off, "us");
  add("trace_overhead.check_p50_frac", Ratio(p50_on - p50_off, p50_off), "ratio");
  add("cycle.register_share", Ratio(reg_p50, reg_p50 + p50_off), "ratio");
  for (const std::string& note : layers.notes) std::printf("  %s\n", note.c_str());

  // Each workload's reason for existing, confirmed (or not) on this build.
  const double sat_share = layers.Get("engine.sat_time_share");
  const double outside = Median(outside_share);
  const double reg_share = Ratio(reg_p50, reg_p50 + p50_off);
  std::string rationale;
  bool holds = false;
  switch (spec.kind) {
    case WorkloadKind::kAdhoc:
      holds = sat_share >= 0.5;
      rationale = "SAT is most of the engine time (share " + std::to_string(sat_share) + " >= 0.5)";
      break;
    case WorkloadKind::kRevalidate:
      holds = sat_share <= 0.2 && outside >= 0.3;
      rationale = "SAT is a small share of the engine time (" + std::to_string(sat_share) +
                  " <= 0.2) and a sizeable share of the round trip is outside the engine (" +
                  std::to_string(outside) + " >= 0.3)";
      break;
    case WorkloadKind::kChurn:
      holds = reg_share >= 0.25;
      rationale = "registration is a sizeable share of a cycle (" + std::to_string(reg_share) +
                  " >= 0.25)";
      break;
  }
  std::printf("rationale %s: %s: %s\n", spec.name, rationale.c_str(),
              holds ? "holds" : "DOES NOT HOLD");

  if (!args.trace_out.empty()) {
    SpanLog all = layers.spans;
    all.Merge(traced.spans);
    if (!all.WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", all.size(), args.trace_out.c_str());
  }

  const bool correct = CheckRun(spec, args.seed, shared, logs);
  Accounting both = untraced.acct;
  both.Merge(traced.acct);
  PrintResult(correct, both, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace diffcbench

int main(int argc, char** argv) {
  using namespace diffcbench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload adhoc|revalidate|churn --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::vector<std::string> failures = SelfTest();
  for (const std::string& f : failures) std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
  if (!failures.empty()) return 3;

  const WorkloadSpec& spec = *FindWorkload(args->workload);
  const ConstraintSet shared = SharedPremises(spec);
  return args->trace == 1 ? RunTraced(*args, spec, shared) : RunUntraced(*args, spec, shared);
}
