#include "loadgen.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "hostprobe.h"

namespace diffcbench {

using diffc::net::BatchResultMsg;
using diffc::net::ClientOptions;
using diffc::net::ClientStats;
using diffc::net::DiffcClient;
using diffc::net::DiffcdServer;
using diffc::net::RegisterOkMsg;
using diffc::net::ServerOptions;

namespace {

constexpr std::uint64_t kClientSeedTag = 0xc11e0000;

void AddStats(ClientStats* into, const ClientStats& after, const ClientStats& before) {
  into->retries += after.retries - before.retries;
  into->retries_exhausted += after.retries_exhausted - before.retries_exhausted;
  into->reconnects += after.reconnects - before.reconnects;
  into->breaker_transitions += after.breaker_transitions - before.breaker_transitions;
  into->breaker_short_circuits += after.breaker_short_circuits - before.breaker_short_circuits;
  into->shed_backoffs += after.shed_backoffs - before.shed_backoffs;
}

template <typename C>
void Append(C* into, const C& from) {
  into->insert(into->end(), from.begin(), from.end());
}

}  // namespace

struct Harness::Connection {
  Connection(const WorkloadSpec& spec, std::uint64_t seed, int index, const ConstraintSet& shared)
      : index(index), stream(spec, seed, index, shared), log(seed, index) {}

  const int index;
  /// Engaged once connected (`DiffcClient` is move-constructible only).
  std::optional<DiffcClient> client;
  /// The shared set's handle (adhoc, revalidate).
  std::uint64_t handle = 0;
  InputStream stream;
  Batch batch;
  /// Scratch for the current batch's answers.
  BatchAnswers answers;
  AnswerLog log;
  std::uint64_t steps = 0;
};

ServerOptions BenchServerOptions() {
  ServerOptions options;
  options.listen_address = "127.0.0.1:0";
  options.engine.num_threads = 2;
  return options;
}

void PhaseResult::Merge(PhaseResult&& o) {
  checks.Merge(o.checks);
  registers.Merge(o.registers);
  if (goals_by_cycle.size() < o.goals_by_cycle.size()) goals_by_cycle.resize(o.goals_by_cycle.size());
  for (std::size_t i = 0; i < o.goals_by_cycle.size(); ++i) goals_by_cycle[i] += o.goals_by_cycle[i];
  Append(&engine_wall_us, o.engine_wall_us);
  Append(&outside_engine_us, o.outside_engine_us);
  acct.Merge(o.acct);
  AddStats(&client, o.client, ClientStats{});
  spans.Merge(o.spans);
}

void RecordCheck(const diffc::Result<BatchResultMsg>& reply, std::size_t k, std::int64_t end_ns,
                 double rtt_us, PhaseResult* out, BatchAnswers* answers) {
  answers->answers.clear();
  answers->counterexamples.clear();
  ++out->acct.calls;
  out->acct.goals += k;
  if (!reply.ok() || reply->results.size() != k) {
    ++out->acct.failed_calls;
    out->acct.failed_goals += k;
    out->checks.Add(kMiss);
    answers->answers.assign(k, Answer::kFailed);
    return;
  }
  out->checks.Add(rtt_us);
  std::uint64_t answered = 0;
  for (const diffc::net::WireQueryResult& q : reply->results) {
    Answer a = Answer::kFailed;
    if (q.status_code != diffc::StatusCode::kOk) {
      ++out->acct.non_ok_statuses;
    } else if (q.verdict == diffc::ImplicationOutcome::kImplied) {
      a = Answer::kImplied;
    } else if (q.verdict == diffc::ImplicationOutcome::kNotImplied) {
      a = Answer::kNotImplied;
      answers->counterexamples.push_back(q.counterexample);
    } else {
      ++out->acct.unknown_verdicts;
    }
    if (a == Answer::kFailed) {
      ++out->acct.failed_goals;
    } else {
      ++answered;
    }
    answers->answers.push_back(a);
  }
  const std::int64_t cycle = (end_ns - out->start_ns) / kCycleNs;
  if (cycle < 0) return;
  const auto i = static_cast<std::size_t>(cycle);
  if (out->goals_by_cycle.size() <= i) out->goals_by_cycle.resize(i + 1);
  out->goals_by_cycle[i] += answered;
}

Harness::Harness(const WorkloadSpec& spec, const ConstraintSet& shared)
    : spec_(spec), shared_(shared) {}

Harness::~Harness() {
  for (auto& c : conns_) {
    if (c->client.has_value()) c->client->Close();
  }
  conns_.clear();
  if (server_ != nullptr) (void)server_->Shutdown();  // Drain outcome is not measured.
}

diffc::Result<std::unique_ptr<Harness>> Harness::Setup(const WorkloadSpec& spec,
                                                       std::uint64_t seed,
                                                       const ConstraintSet& shared) {
  std::unique_ptr<Harness> h(new Harness(spec, shared));
  h->server_ = std::make_unique<DiffcdServer>(BenchServerOptions());
  if (diffc::Status s = h->server_->Start(); !s.ok()) return s;
  for (int i = 0; i < kConnections; ++i) {
    auto conn = std::make_unique<Connection>(spec, seed, i, shared);
    ClientOptions options;
    options.seed = DeriveSeed(seed, kClientSeedTag + static_cast<std::uint64_t>(i));
    diffc::Result<DiffcClient> client = DiffcClient::Connect(h->server_->bound_address(), options);
    if (!client.ok()) return client.status();
    conn->client.emplace(std::move(*client));
    if (spec.kind != WorkloadKind::kChurn) {
      diffc::Result<RegisterOkMsg> reg = conn->client->RegisterPremises(spec.n, shared);
      if (!reg.ok()) return reg.status();
      conn->handle = reg->handle;
    }
    h->conns_.push_back(std::move(conn));
  }
  PhaseResult warmup;
  warmup.start_ns = NowNs();
  for (auto& c : h->conns_) {
    for (int b = 0; b < spec.warmup_batches; ++b) h->RunBatch(*c, false, &warmup);
  }
  if (warmup.acct.failed_goals != 0 || warmup.acct.failed_calls != 0) {
    return diffc::Status::Internal("warm-up had failed calls or goals");
  }
  return h;
}

void Harness::RunBatch(Connection& c, bool traced, PhaseResult* out) {
  const int n = spec_.n;
  const bool churn = spec_.kind == WorkloadKind::kChurn;
  c.stream.Next(&c.batch);
  const std::size_t k = c.batch.goals.size();
  const std::uint64_t request = (static_cast<std::uint64_t>(c.index) << 48) | c.steps;

  std::uint64_t handle = c.handle;
  if (churn) {
    const std::int64_t t0 = NowNs();
    diffc::Result<RegisterOkMsg> reg = c.client->RegisterPremises(n, c.batch.premises);
    const std::int64_t t1 = NowNs();
    ++out->acct.calls;
    if (traced) out->spans.Add(request, -1, "client.register_premises", t0, t1);
    if (!reg.ok()) {
      // The cycle's goals were never checked: they fail with the call.
      ++out->acct.failed_calls;
      out->registers.Add(kMiss);
      out->acct.goals += k;
      out->acct.failed_goals += k;
      c.answers.answers.assign(k, Answer::kFailed);
      c.answers.counterexamples.clear();
      c.log.Offer(c.answers);
      return;
    }
    out->registers.Add(static_cast<double>(t1 - t0) / 1e3);
    handle = reg->handle;
  }

  const std::int64_t t0 = NowNs();
  diffc::Result<BatchResultMsg> reply = c.client->CheckBatch(handle, n, c.batch.goals);
  const std::int64_t t1 = NowNs();
  const double rtt_us = static_cast<double>(t1 - t0) / 1e3;
  RecordCheck(reply, k, t1, rtt_us, out, &c.answers);
  c.log.Offer(c.answers);
  if (traced && reply.ok()) {
    const double wall_us = static_cast<double>(reply->stats.batch_wall_ns) / 1e3;
    out->engine_wall_us.push_back(wall_us);
    out->outside_engine_us.push_back(rtt_us - wall_us);
    // The server reports only the engine's duration; the span is placed
    // in the middle of the round trip.
    const std::int32_t root = out->spans.Add(request, -1, "client.check_batch", t0, t1);
    const auto wall_ns = static_cast<std::int64_t>(reply->stats.batch_wall_ns);
    const std::int64_t start = t0 + (t1 - t0 - wall_ns) / 2;
    out->spans.Add(request, root, "server.engine_batch", start, start + wall_ns);
  }

  if (churn) {
    ++out->acct.calls;
    if (!c.client->Release(handle).ok()) ++out->acct.failed_calls;
  }
}

void Harness::Reregister(Connection& c, PhaseResult* out) {
  const std::int64_t t0 = NowNs();
  diffc::Result<RegisterOkMsg> reg = c.client->RegisterPremises(spec_.n, shared_);
  const std::int64_t t1 = NowNs();
  ++out->acct.calls;
  if (!reg.ok()) {
    ++out->acct.failed_calls;
    out->registers.Add(kMiss);
    return;
  }
  out->registers.Add(static_cast<double>(t1 - t0) / 1e3);
  ++out->acct.calls;
  if (!c.client->Release(reg->handle).ok()) ++out->acct.failed_calls;
}

PhaseResult Harness::RunLoop(double seconds, double max_seconds, bool traced) {
  const bool reregister = spec_.register_share > 0;
  const auto check_ns = static_cast<std::int64_t>(
      static_cast<double>(kCycleNs) * (1.0 - spec_.register_share));
  std::vector<PhaseResult> parts(conns_.size());
  std::vector<ClientStats> before;
  for (auto& c : conns_) before.push_back(c->client->stats());
  std::atomic<bool> stop{false};
  // Completed check / registration calls, so the loop runs until each
  // latency metric has a full window on every connection.
  std::atomic<std::size_t> checks{0}, registers{0};
  // Connections with a check in flight.
  std::atomic<int> checking{0};
  const std::size_t min_calls = kWindowCalls * conns_.size();

  const std::int64_t start = NowNs();
  for (PhaseResult& p : parts) p.start_ns = start;
  // When the timer stopped the load; read after it is joined.
  std::int64_t stopped_at = 0;
  // The process CPU time at each cycle's start (even entries) and at the
  // end of its checking part (odd entries), sampled by the timer; read
  // after it is joined.
  std::vector<double> cpu_at{ProcessCpuS()};
  const auto sample_time = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(i / 2) * kCycleNs +
           static_cast<std::int64_t>(i % 2) * check_ns;
  };
  std::vector<double> probe_wall_us, probe_cpu_us;
  std::thread timer([&] {
    std::int64_t next_probe = start;
    const auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
    const auto short_of_samples = [&] {
      return checks.load(std::memory_order_relaxed) < min_calls ||
             (reregister && registers.load(std::memory_order_relaxed) < min_calls);
    };
    while (elapsed_s() < max_seconds && (elapsed_s() < seconds || short_of_samples())) {
      const std::int64_t now = NowNs();
      const std::int64_t until_sample = sample_time(cpu_at.size()) - now;
      if (until_sample <= 0) {
        cpu_at.push_back(ProcessCpuS());
        continue;
      }
      if (now >= next_probe) {
        const ProbeTime probe = RunProbe();
        probe_wall_us.push_back(probe.wall_us);
        probe_cpu_us.push_back(probe.cpu_us);
        next_probe += kProbePeriodNs;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>({until_sample, next_probe - now, 5'000'000})));
    }
    stopped_at = NowNs();
    stop.store(true, std::memory_order_relaxed);
  });
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    threads.emplace_back([&, i] {
      Connection& c = *conns_[i];
      while (!stop.load(std::memory_order_relaxed)) {
        ++c.steps;
        if (reregister && (NowNs() - start) % kCycleNs >= check_ns) {
          // Wait out the other connection's check in flight, so that
          // registration is timed without checks running.
          while (checking.load(std::memory_order_acquire) > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          }
          Reregister(c, &parts[i]);
          registers.fetch_add(1, std::memory_order_relaxed);
        } else {
          checking.fetch_add(1, std::memory_order_acq_rel);
          RunBatch(c, traced, &parts[i]);
          checking.fetch_sub(1, std::memory_order_acq_rel);
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  timer.join();

  PhaseResult out;
  out.start_ns = start;
  out.probe_wall_us = std::move(probe_wall_us);
  out.probe_cpu_us = std::move(probe_cpu_us);
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out.peak_rss_mb = PeakRssMb();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    AddStats(&parts[i].client, conns_[i]->client->stats(), before[i]);
    out.Merge(std::move(parts[i]));
  }
  // Goals per second of checking, per cycle completed before the stop; a
  // check belongs to the cycle it completed in.
  const auto cycles = static_cast<std::size_t>((stopped_at - start) / kCycleNs);
  out.goals_by_cycle.resize(std::max(out.goals_by_cycle.size(), cycles));
  for (std::size_t i = 0; i < cycles; ++i) {
    const auto goals = static_cast<double>(out.goals_by_cycle[i]);
    out.cycle_goals_per_s.push_back(goals / (static_cast<double>(check_ns) / 1e9));
    if (2 * i + 1 < cpu_at.size()) {
      out.cycle_goals_per_cpu_s.push_back(goals / (cpu_at[2 * i + 1] - cpu_at[2 * i]));
    }
  }
  return out;
}

std::vector<AnswerLog> Harness::answer_logs() const {
  std::vector<AnswerLog> out;
  for (const auto& c : conns_) out.push_back(c->log);
  return out;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

}  // namespace diffcbench
