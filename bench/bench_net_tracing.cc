// Experiment E8 — request-tracing overhead on the diffcd loopback path:
// the same CHECK_BATCH workload through an in-process server + client pair
// at three head-sampling rates:
//
//   off      — trace_sample_rate = 0 on both ends: the tracing fast path
//              (one branch, no span allocation) — the baseline.
//   default  — 0.01, the shipped default: ~1% of calls record full span
//              trees into the trace store.
//   full     — 1.0: every call traced client- and server-side, engine
//              spans grafted, stores written.
//
// The headline number is the default-rate overhead over off (the
// acceptance bar is <= 2%, encoded in bench/BENCH_E8.schema.json and
// checked in CI); the full row bounds the worst case an operator can dial
// in. The three servers start once; every trial interleaves the three
// rates call by call, in an order rotated from call to call. Each row
// reports its median trial, and each overhead is the median over trials
// of that trial's ratio to the tracing-off run. Results land in
// BENCH_E8.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/trace_store.h"
#include "util/random.h"

namespace diffc {
namespace {

DifferentialConstraint RandomConstraint(Rng& rng, int n, int members) {
  ItemSet lhs(rng.RandomMask(n, 2.0 / n));
  std::vector<ItemSet> family;
  for (int i = 0; i < members; ++i) {
    Mask m = rng.RandomMask(n, 2.0 / n);
    if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
    family.push_back(ItemSet(m));
  }
  return DifferentialConstraint(lhs, SetFamily(std::move(family)));
}

// The E8 workload: a small premise set and cheap goal batches, so the
// wire + dispatch + tracing path dominates over engine time — the regime
// where per-request tracing overhead is most visible.
void MakeWorkload(int n, ConstraintSet* premises,
                  std::vector<DifferentialConstraint>* goals) {
  Rng rng(20260809);
  premises->clear();
  for (int i = 0; i < 12; ++i) premises->push_back(RandomConstraint(rng, n, 2));
  goals->clear();
  for (int i = 0; i < 8; ++i) goals->push_back(RandomConstraint(rng, n, 2));
}

double MeasureMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// One server + one client at a fixed sampling rate, started once and kept
// for the whole experiment.
struct RateEndpoint {
  double rate = 0;
  std::unique_ptr<net::DiffcdServer> server;
  std::optional<net::DiffcClient> client;
  std::uint64_t handle = 0;
  std::vector<double> trial_ms;  // summed call wall time of each trial
  std::uint64_t implied = 0;     // verdict checksum across the measured calls
  std::uint64_t stored = 0;      // traces added to the store by its calls
};

bool StartEndpoint(RateEndpoint* e, int n, const ConstraintSet& premises) {
  net::ServerOptions sopts;
  sopts.listen_address = "127.0.0.1:0";
  sopts.engine.num_threads = 1;
  sopts.trace_sample_rate = e->rate;
  e->server = std::make_unique<net::DiffcdServer>(sopts);
  Status started = e->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", started.ToString().c_str());
    return false;
  }
  net::ClientOptions copts;
  copts.seed = 20260809;
  copts.trace_sample_rate = e->rate;
  Result<net::DiffcClient> client =
      net::DiffcClient::Connect(e->server->bound_address(), copts);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", client.status().ToString().c_str());
    return false;
  }
  e->client.emplace(std::move(*client));
  Result<net::RegisterOkMsg> reg = e->client->RegisterPremises(n, premises);
  if (!reg.ok()) {
    std::fprintf(stderr, "register failed: %s\n", reg.status().ToString().c_str());
    return false;
  }
  e->handle = reg->handle;
  return true;
}

// `calls` CHECK_BATCH round trips on `e`; false when one fails.
bool RunCalls(RateEndpoint* e, int calls, int n, const std::vector<DifferentialConstraint>& goals,
              std::uint64_t* implied) {
  for (int c = 0; c < calls; ++c) {
    Result<net::BatchResultMsg> res = e->client->CheckBatch(e->handle, n, goals);
    if (!res.ok()) return false;
    *implied += res->stats.implied;
  }
  return true;
}

void RunTracingExperiment() {
  const int n = 16;
  const int kCalls = 200;
  const int kTrials = 31;
  std::printf("=== E8: tracing overhead on the loopback CHECK_BATCH path "
              "(n=%d, %d calls/trial, %d trials, rates interleaved; median trial, "
              "overhead = median per-trial ratio) ===\n",
              n, kCalls, kTrials);
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);

  // Three servers, started once. A trial makes `kCalls` rounds of one
  // call per rate, the order rotated from round to round, and sums each
  // rate's call times: host drift and order effects land on all three
  // rates alike, and every trial still holds about two sampled calls at
  // the default rate.
  RateEndpoint endpoints[3];
  endpoints[0].rate = 0.0;   // off
  endpoints[1].rate = 0.01;  // default
  endpoints[2].rate = 1.0;   // full
  bool failed = false;
  for (RateEndpoint& e : endpoints) {
    // Warm caches (witness/nonce/session) out of the measured region.
    std::uint64_t warm = 0;
    failed = failed || !StartEndpoint(&e, n, premises) || !RunCalls(&e, kCalls, n, goals, &warm);
  }
  for (int t = 0; t < kTrials && !failed; ++t) {
    for (RateEndpoint& e : endpoints) e.trial_ms.push_back(0);
    for (int c = 0; c < kCalls && !failed; ++c) {
      for (int k = 0; k < 3 && !failed; ++k) {
        RateEndpoint& e = endpoints[(t + c + k) % 3];
        const std::uint64_t stored_before = obs::GlobalTraceStore().total();
        e.trial_ms.back() += MeasureMs([&] { failed = !RunCalls(&e, 1, n, goals, &e.implied); });
        e.stored += obs::GlobalTraceStore().total() - stored_before;
      }
    }
  }
  for (RateEndpoint& e : endpoints) {
    if (e.server != nullptr) (void)e.server->Shutdown();
  }
  if (failed) {
    std::fprintf(stderr, "E8 run failed; no BENCH_E8.json written\n");
    return;
  }
  const RateEndpoint& off = endpoints[0];
  const RateEndpoint& def = endpoints[1];
  const RateEndpoint& full = endpoints[2];
  const double off_ms = Median(off.trial_ms);
  const double def_ms = Median(def.trial_ms);
  const double full_ms = Median(full.trial_ms);
  // The overheads pair each trial's rates, which ran interleaved: the
  // median over trials of the per-trial ratio, so a slow stretch of the
  // host cancels out of each ratio instead of landing on one rate's median.
  auto paired_overhead_pct = [&](const RateEndpoint& e) {
    std::vector<double> pct;
    for (std::size_t t = 0; t < e.trial_ms.size(); ++t) {
      pct.push_back((e.trial_ms[t] / off.trial_ms[t] - 1.0) * 100.0);
    }
    return Median(pct);
  };
  const double overhead_default_pct = paired_overhead_pct(def);
  const double overhead_full_pct = paired_overhead_pct(full);
  const bool verdicts_agree = off.implied == def.implied && off.implied == full.implied;
  std::printf("%10s %12s %12s %10s\n", "rate", "batch(ms)", "overhead", "stored");
  std::printf("%10s %12.3f %12s %10llu\n", "0.00", off_ms, "-",
              static_cast<unsigned long long>(off.stored));
  std::printf("%10s %12.3f %10.2f%% %10llu\n", "0.01", def_ms, overhead_default_pct,
              static_cast<unsigned long long>(def.stored));
  std::printf("%10s %12.3f %10.2f%% %10llu\n", "1.00", full_ms, overhead_full_pct,
              static_cast<unsigned long long>(full.stored));
  std::printf("verdicts agree across rates: %s\n", verdicts_agree ? "yes" : "NO");

  // Machine-readable record, shape-checked against BENCH_E8.schema.json
  // (which pins overhead_default_pct <= 2).
  std::ofstream json("BENCH_E8.json");
  json << "{\n";
  json << "  \"experiment\": \"E8\",\n";
  json << "  \"n\": " << n << ",\n";
  json << "  \"calls_per_trial\": " << kCalls << ",\n";
  json << "  \"goals_per_call\": " << goals.size() << ",\n";
  json << "  \"trials\": " << kTrials << ",\n";
  json << "  \"off_ms\": " << off_ms << ",\n";
  json << "  \"default_ms\": " << def_ms << ",\n";
  json << "  \"full_ms\": " << full_ms << ",\n";
  json << "  \"default_sample_rate\": 0.01,\n";
  json << "  \"overhead_default_pct\": " << overhead_default_pct << ",\n";
  json << "  \"overhead_full_pct\": " << overhead_full_pct << ",\n";
  json << "  \"traces_stored_full\": " << full.stored << ",\n";
  json << "  \"verdicts_agree\": " << (verdicts_agree ? "true" : "false") << "\n";
  json << "}\n";
  std::printf("wrote BENCH_E8.json\n\n");
}

void BM_CheckBatchLoopback(benchmark::State& state) {
  const int n = 16;
  ConstraintSet premises;
  std::vector<DifferentialConstraint> goals;
  MakeWorkload(n, &premises, &goals);
  net::ServerOptions sopts;
  sopts.listen_address = "127.0.0.1:0";
  sopts.engine.num_threads = 1;
  sopts.trace_sample_rate = state.range(0) / 100.0;
  net::DiffcdServer server(sopts);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  net::ClientOptions copts;
  copts.seed = 20260809;
  copts.trace_sample_rate = state.range(0) / 100.0;
  Result<net::DiffcClient> client =
      net::DiffcClient::Connect(server.bound_address(), copts);
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Result<net::RegisterOkMsg> reg = client->RegisterPremises(n, premises);
  if (!reg.ok()) {
    state.SkipWithError("register failed");
    return;
  }
  for (auto _ : state) {
    Result<net::BatchResultMsg> res = client->CheckBatch(reg->handle, n, goals);
    if (!res.ok()) {
      state.SkipWithError("CHECK_BATCH failed");
      return;
    }
    benchmark::DoNotOptimize(res->stats.implied);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int>(goals.size()));
}
BENCHMARK(BM_CheckBatchLoopback)->Arg(0)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace diffc

int main(int argc, char** argv) {
  // Fast path for CI schema validation: only the E8 table.
  if (std::getenv("DIFFC_BENCH_E8_ONLY") != nullptr) {
    diffc::RunTracingExperiment();
    return 0;
  }
  diffc::RunTracingExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
