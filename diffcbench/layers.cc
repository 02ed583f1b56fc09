#include "layers.h"

#include <array>
#include <map>
#include <memory>

#include "core/implication.h"
#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "engine/planner.h"
#include "engine/prepared_premises.h"
#include "engine/procedures/procedure.h"
#include "lattice/hitting_set.h"
#include "net/wire.h"
#include "prop/cnf.h"
#include "prop/dpll.h"
#include "rewrite/simplifier.h"
#include "stats.h"

namespace diffcbench {

using diffc::DecisionProcedure;
using diffc::EngineOptions;
using diffc::PreparedPremises;

namespace {

struct ProcedureName {
  DecisionProcedure id;
  /// Span name; the metrics are `<span>.us` and `<span>.share`.
  const char* span;
};

constexpr std::array<ProcedureName, 5> kProcedures = {{
    {DecisionProcedure::kTrivial, "procedures.trivial"},
    {DecisionProcedure::kFdSubclass, "procedures.fd-subclass"},
    {DecisionProcedure::kIntervalCover, "procedures.interval-cover"},
    {DecisionProcedure::kSat, "procedures.sat"},
    {DecisionProcedure::kExhaustive, "procedures.exhaustive"},
}};

// A fallback procedure (exhaustive) runs only after SAT blew its budget, so
// the replay times it only where enumerating L(X, Y) stays small.
constexpr int kReplayFallbackFreeBits = 16;

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// The Proposition 5.4 CNF of one query, built the way
// `CheckImplicationSatTranslated` builds it: the goal's left-hand side as
// unit clauses, one negative clause per goal member, then the premise
// clauses.
diffc::prop::Cnf GoalCnf(const diffc::PremiseTranslation& t, const DifferentialConstraint& goal) {
  diffc::prop::Cnf cnf;
  cnf.num_vars = t.num_vars;
  diffc::ForEachBit(goal.lhs().bits(), [&](int a) { cnf.AddClause({a + 1}); });
  for (const diffc::ItemSet& member : goal.rhs().members()) {
    diffc::prop::Clause clause;
    diffc::ForEachBit(member.bits(), [&](int y) { clause.push_back(-(y + 1)); });
    cnf.AddClause(std::move(clause));
  }
  cnf.clauses.insert(cnf.clauses.end(), t.clauses.begin(), t.clauses.end());
  return cnf;
}

// The CHECK_BATCH reply the server would encode for `outcome`.
diffc::net::BatchResultMsg ToReply(const diffc::BatchOutcome& outcome) {
  diffc::net::BatchResultMsg reply;
  for (const diffc::EngineQueryResult& r : outcome.results) {
    diffc::net::WireQueryResult q;
    q.status_code = r.status.code();
    q.status_message = r.status.message();
    q.verdict = static_cast<std::uint8_t>(r.outcome.verdict);
    if (r.outcome.counterexample.has_value()) {
      q.has_counterexample = true;
      q.counterexample = r.outcome.counterexample->bits();
    }
    reply.results.push_back(std::move(q));
  }
  reply.stats.queries = outcome.stats.queries;
  reply.stats.implied = outcome.stats.implied;
  reply.stats.not_implied = outcome.stats.not_implied;
  reply.stats.batch_wall_ns = outcome.stats.batch_wall_ns;
  return reply;
}

}  // namespace

double LayerReport::Get(const std::string& name) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return 0.0;
}

LayerReport ReplayLayers(const WorkloadSpec& spec, std::uint64_t seed,
                         const ConstraintSet& shared, const EngineOptions& engine) {
  LayerReport rep;
  SpanLog& log = rep.spans;
  const int n = spec.n;
  const bool churn = spec.kind == WorkloadKind::kChurn;

  // Same cache state as the load loop: cold, then the same warm-up.
  diffc::GlobalWitnessSetCache().Clear();
  diffc::GlobalPreparedPremisesCache().Clear();
  diffc::ImplicationEngine batch_engine(engine);
  EngineOptions single = engine;
  single.num_threads = 1;
  diffc::ImplicationEngine untraced(single);
  single.trace = true;
  diffc::ImplicationEngine traced(single);
  const diffc::QueryPlanner planner(diffc::ProcedureRegistry::Global().Snapshot());
  diffc::PrepareOptions prepare_options;
  prepare_options.use_rewriter = engine.simplify_level > 0;
  if (engine.simplify_level > 0) prepare_options.simplify_level = engine.simplify_level;
  diffc::rewrite::SimplifyOptions simplify_options;
  simplify_options.level = prepare_options.simplify_level;

  InputStream stream(spec, seed, 0, shared);
  // The artifact the server would check `b` against: through the prepared
  // cache, as REGISTER_PREMISES prepares.
  auto server_prepared = [&](const Batch& b) -> std::shared_ptr<const PreparedPremises> {
    diffc::Result<std::shared_ptr<const PreparedPremises>> p =
        batch_engine.Prepare(n, churn ? b.premises : shared);
    return p.ok() ? *p : nullptr;
  };
  Batch warmup;
  for (int w = 0; w < spec.warmup_batches; ++w) {
    stream.Next(&warmup);
    if (auto p = server_prepared(warmup)) (void)batch_engine.CheckBatch(p, warmup.goals);
  }
  std::vector<Batch> batches(static_cast<std::size_t>(spec.replay_batches));
  for (Batch& b : batches) stream.Next(&b);

  std::vector<double> check_bytes, reply_bytes, clauses, members_removed, passes;
  std::vector<double> sat_decisions, sat_propagations, witness_counts, trace_cost_us;
  std::vector<double> engine_wall_us;
  std::map<DecisionProcedure, std::size_t> answered_by, decide_runs;
  std::map<std::string, std::size_t> rule_edits;
  std::uint64_t wall_all_ns = 0, wall_sat_ns = 0, goals = 0;

  // Pass 1, batch by batch: the registration side (codec, rewrite,
  // compile, translate).
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    const auto req = static_cast<std::uint64_t>(b);
    const ConstraintSet& raw = churn ? batch.premises : shared;
    const std::int32_t root = log.Begin(req, -1, "replay.register");

    log.Time(req, root, "net.register_codec", [&] {
      diffc::net::RegisterPremisesMsg msg;
      msg.n = n;
      msg.premises = raw;
      return diffc::net::DecodeRegisterPremises(diffc::net::EncodeRegisterPremises(msg)).ok();
    });
    log.Time(req, root, "rewrite.simplify",
             [&] { return diffc::rewrite::Simplify(n, raw, simplify_options).size(); });
    diffc::Result<std::shared_ptr<const PreparedPremises>> fresh = log.Time(
        req, root, "engine.prepare", [&] { return PreparedPremises::Build(n, raw, prepare_options); });
    if (!fresh.ok()) {
      rep.notes.push_back("replay: premise compilation failed");
      return rep;
    }
    log.Time(req, root, "core.translate",
             [&] { return diffc::TranslatePremises(n, (*fresh)->constraints()).clauses.size(); });
    const diffc::PrepareStats& ps = (*fresh)->stats();
    clauses.push_back(static_cast<double>(ps.translation_clauses));
    members_removed.push_back(
        ps.cost_members_before == 0
            ? 0.0
            : static_cast<double>(ps.cost_members_before - ps.cost_members_after) /
                  static_cast<double>(ps.cost_members_before));
    passes.push_back(static_cast<double>(ps.rewrite_passes));
    for (const auto& [rule, count] : ps.rewrite_rule_applied) rule_edits[rule] += count;
    log.End(root);
  }

  // Pass 2, back to back so the pool stays as warm as under load: the wire
  // codecs around an engine batch.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    const auto req = static_cast<std::uint64_t>(b);
    const std::shared_ptr<const PreparedPremises> prepared = server_prepared(batch);
    if (prepared == nullptr) return rep;
    const std::int32_t root = log.Begin(req, -1, "replay.check");
    diffc::net::CheckBatchMsg msg;
    msg.handle = 1;
    msg.n = n;
    msg.goals = batch.goals;
    const diffc::net::Frame request =
        log.Time(req, root, "net.check_encode", [&] { return diffc::net::EncodeCheckBatch(msg); });
    check_bytes.push_back(static_cast<double>(diffc::net::SerializeFrame(request).size()));
    log.Time(req, root, "net.check_decode",
             [&] { return diffc::net::DecodeCheckBatch(request).ok(); });
    diffc::Result<diffc::BatchOutcome> outcome = log.Time(
        req, root, "engine.batch", [&] { return batch_engine.CheckBatch(prepared, batch.goals); });
    if (!outcome.ok()) {
      rep.notes.push_back("replay: engine batch failed: " + outcome.status().ToString());
      return rep;
    }
    engine_wall_us.push_back(static_cast<double>(outcome->stats.batch_wall_ns) / 1e3);
    const diffc::net::BatchResultMsg reply = ToReply(*outcome);
    const diffc::net::Frame reply_frame = log.Time(
        req, root, "net.reply_encode", [&] { return diffc::net::EncodeBatchResult(reply); });
    reply_bytes.push_back(static_cast<double>(diffc::net::SerializeFrame(reply_frame).size()));
    log.Time(req, root, "net.reply_decode",
             [&] { return diffc::net::DecodeBatchResult(reply_frame).ok(); });
    log.End(root);
  }

  // Pass 3, goal by goal: the planner, every procedure, the engine's
  // tracing cost, and the core / prop / lattice calls underneath.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    const auto req = static_cast<std::uint64_t>(b);
    const std::shared_ptr<const PreparedPremises> prepared = server_prepared(batch);
    if (prepared == nullptr) return rep;
    const std::int32_t root = log.Begin(req, -1, "replay.goals");
    for (const DifferentialConstraint& goal : batch.goals) {
      ++goals;
      const diffc::ProcedureQuery query{n, &goal};
      log.Time(req, root, "engine.plan",
               [&] { return planner.Plan(*prepared, query, engine).steps.size(); });
      for (const ProcedureName& p : kProcedures) {
        const diffc::DecisionProcedureImpl* impl = diffc::ProcedureRegistry::Global().Find(p.id);
        if (impl == nullptr) continue;
        diffc::QueryStats qs;
        diffc::StopCheck stop;
        diffc::obs::Tracer tracer(false);
        diffc::ProcedureContext ctx;
        ctx.options = &engine;
        ctx.budgets = {engine.max_solver_decisions, engine.witness_max_results};
        ctx.stop = &stop;
        ctx.tracer = &tracer;
        ctx.stats = &qs;
        const std::int64_t t0 = NowNs();
        const diffc::Applicability app = impl->CanDecide(*prepared, query);
        const bool allowed =
            app == diffc::Applicability::kYes ||
            (app == diffc::Applicability::kFallback &&
             n - goal.lhs().size() <= kReplayFallbackFreeBits);
        if (allowed) (void)impl->Decide(*prepared, query, &ctx);  // Verdicts are checked elsewhere.
        log.Add(req, root, p.span, t0, NowNs());
        if (allowed) ++decide_runs[p.id];
        if (allowed && p.id == DecisionProcedure::kSat) {
          sat_decisions.push_back(static_cast<double>(qs.solver.decisions));
          sat_propagations.push_back(static_cast<double>(qs.solver.propagations));
        }
      }

      // Engine tracing on minus off; the order alternates per goal.
      diffc::EngineQueryResult off;
      double off_us = 0.0, on_us = 0.0;
      for (int pass = 0; pass < 2; ++pass) {
        const bool trace_on = (pass == 0) == (goals % 2 == 0);
        const std::int64_t t0 = NowNs();
        diffc::EngineQueryResult r = (trace_on ? traced : untraced).CheckOne(prepared, goal);
        const std::int64_t t1 = NowNs();
        log.Add(req, root, trace_on ? "engine.check_one_traced" : "engine.check_one", t0, t1);
        if (trace_on) {
          on_us = static_cast<double>(t1 - t0) / 1e3;
        } else {
          off_us = static_cast<double>(t1 - t0) / 1e3;
          off = std::move(r);
        }
      }
      trace_cost_us.push_back(on_us - off_us);
      ++answered_by[off.stats.procedure];
      wall_all_ns += off.stats.wall_ns;
      if (off.stats.procedure == DecisionProcedure::kSat) wall_sat_ns += off.stats.wall_ns;

      log.Time(req, root, "core.sat_translated", [&] {
        return diffc::CheckImplicationSatTranslated(n, prepared->translation(), goal).ok();
      });
      const diffc::prop::Cnf cnf = GoalCnf(prepared->translation(), goal);
      diffc::prop::DpllSolver solver(engine.max_solver_decisions);
      log.Time(req, root, "prop.dpll_solve", [&] { return solver.Solve(cnf).ok(); });
      diffc::Result<std::vector<diffc::ItemSet>> witnesses =
          log.Time(req, root, "lattice.min_witness", [&] {
            return diffc::MinimalWitnessSets(goal.rhs(), engine.witness_max_results);
          });
      witness_counts.push_back(witnesses.ok() ? static_cast<double>(witnesses->size()) : 0.0);
      if (churn) {
        log.Time(req, root, "core.exhaustive", [&] {
          return diffc::CheckImplicationExhaustive(n, prepared->constraints(), goal,
                                                   engine.exhaustive_max_free_bits)
              .ok();
        });
      }
    }
    log.End(root);
  }

  auto median_us = [&](const char* span) { return Median(log.DurationsUs(span)); };
  auto& m = rep.metrics;
  m.emplace_back("net.check_encode_us", median_us("net.check_encode"));
  m.emplace_back("net.check_decode_us", median_us("net.check_decode"));
  m.emplace_back("net.reply_encode_us", median_us("net.reply_encode"));
  m.emplace_back("net.reply_decode_us", median_us("net.reply_decode"));
  m.emplace_back("net.register_codec_us", median_us("net.register_codec"));
  m.emplace_back("net.check_frame_bytes", Mean(check_bytes));
  m.emplace_back("net.reply_frame_bytes", Mean(reply_bytes));
  // The engine's own batch wall time, the figure the server reports under
  // load; the "engine.batch" spans time the same calls from outside.
  m.emplace_back("engine.batch_us", Median(engine_wall_us));
  m.emplace_back("engine.plan_us", median_us("engine.plan"));
  m.emplace_back("engine.prepare_us", median_us("engine.prepare"));
  m.emplace_back("engine.sat_time_share",
                 wall_all_ns == 0 ? 0.0
                                  : static_cast<double>(wall_sat_ns) /
                                        static_cast<double>(wall_all_ns));
  for (const ProcedureName& p : kProcedures) {
    m.emplace_back(std::string(p.span) + ".share",
                   goals == 0 ? 0.0
                              : static_cast<double>(answered_by[p.id]) /
                                    static_cast<double>(goals));
    m.emplace_back(std::string(p.span) + ".us", median_us(p.span));
    rep.notes.push_back(std::string(p.span) + ": Decide ran on " +
                        std::to_string(decide_runs[p.id]) + " of " + std::to_string(goals) +
                        " goals (CanDecide alone on the rest)");
  }
  m.emplace_back("procedures.sat.decisions", Mean(sat_decisions));
  m.emplace_back("procedures.sat.propagations", Mean(sat_propagations));
  m.emplace_back("core.translate_us", median_us("core.translate"));
  m.emplace_back("core.sat_translated_us", median_us("core.sat_translated"));
  m.emplace_back("core.translation_clauses", Mean(clauses));
  m.emplace_back("prop.dpll_solve_us", median_us("prop.dpll_solve"));
  m.emplace_back("rewrite.simplify_us", median_us("rewrite.simplify"));
  m.emplace_back("rewrite.members_removed_frac", Mean(members_removed));
  m.emplace_back("rewrite.passes", Mean(passes));
  m.emplace_back("lattice.min_witness_us", median_us("lattice.min_witness"));
  m.emplace_back("lattice.min_witness_count", Mean(witness_counts));
  m.emplace_back("obs.engine_trace_us", Median(trace_cost_us));

  if (churn) {
    rep.notes.push_back("core.exhaustive_us " + std::to_string(median_us("core.exhaustive")) +
                        " us (churn only: n=16 keeps every goal within the free-bit limit)");
  }
  std::string rules = "rewrite rule edits over " + std::to_string(spec.replay_batches) + " sets:";
  for (const auto& [rule, count] : rule_edits) rules += " " + rule + "=" + std::to_string(count);
  rep.notes.push_back(rules);
  return rep;
}

}  // namespace diffcbench
