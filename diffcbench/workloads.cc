#include "workloads.h"

#include <algorithm>
#include <utility>

namespace diffcbench {

using diffc::ItemSet;
using diffc::Mask;
using diffc::Rng;
using diffc::SetFamily;

namespace {

// The shared premise set is part of a workload's definition, not of its
// seeded inputs: DPLL cost differs by up to 2x between random sets of the
// same shape, which would swamp every bound. Seeds vary the goal streams
// (and churn's per-cycle sets, thousands per run).
constexpr std::uint64_t kSharedPremisesSeed = 0x5eed0001;
// Tag separating the connections' streams derived from one --seed.
constexpr std::uint64_t kStreamTag = 0x5eed0100;
// Premises of each churn set built to trigger the rewrite rules; the rest
// are random.
constexpr int kChurnBuiltPremises = 16;
// Bits of the adhoc sent-family filter (2 MiB): a few per mille of fresh
// families collide and are skipped over a run.
constexpr std::size_t kSentFilterBits = std::size_t{1} << 24;

// A nonempty random subset with expected size 2 (the E1/E2 generator's
// density).
Mask SmallMask(Rng& rng, int n) {
  Mask m = rng.RandomMask(n, 2.0 / n);
  if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
  return m;
}

// A random constraint with a small left-hand side and `members` small
// right-hand members.
DifferentialConstraint RandomConstraint(Rng& rng, int n, int members) {
  ItemSet lhs(rng.RandomMask(n, 2.0 / n));
  std::vector<ItemSet> rhs;
  for (int j = 0; j < members; ++j) rhs.push_back(ItemSet(SmallMask(rng, n)));
  return DifferentialConstraint(lhs, SetFamily(std::move(rhs)));
}

int Pick(Rng& rng, std::size_t size) {
  return static_cast<int>(rng.UniformInt(0, static_cast<std::int64_t>(size) - 1));
}

const WorkloadSpec kWorkloads[] = {
    // name, kind, n, premises, goals/batch, register share, warm-up, replay
    {"adhoc", WorkloadKind::kAdhoc, 32, 128, 16, 0.1, 8, 24},
    {"revalidate", WorkloadKind::kRevalidate, 32, 64, 8, 0.1, 48, 128},
    {"churn", WorkloadKind::kChurn, 16, 32, 8, 0.0, 16, 64},
};

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ConstraintSet SharedPremises(const WorkloadSpec& spec) {
  ConstraintSet out;
  if (spec.kind == WorkloadKind::kChurn) return out;
  Rng rng(DeriveSeed(kSharedPremisesSeed, static_cast<std::uint64_t>(spec.kind)));
  for (int i = 0; i < spec.premises; ++i) out.push_back(RandomConstraint(rng, spec.n, 2));
  return out;
}

InputStream::InputStream(const WorkloadSpec& spec, std::uint64_t seed, int connection,
                         const ConstraintSet& shared)
    : spec_(spec),
      connection_(connection),
      shared_(shared),
      rng_(DeriveSeed(seed, kStreamTag + static_cast<std::uint64_t>(connection))) {
  if (spec.kind == WorkloadKind::kAdhoc) sent_.assign(kSentFilterBits, false);
}

void InputStream::Next(Batch* out) {
  out->premises.clear();
  out->goals.clear();
  if (spec_.kind == WorkloadKind::kChurn) out->premises = ChurnPremises();
  for (int i = 0; i < spec_.goals_per_batch; ++i) {
    switch (spec_.kind) {
      case WorkloadKind::kAdhoc:
        out->goals.push_back(AdhocGoal());
        break;
      case WorkloadKind::kRevalidate:
        out->goals.push_back(RevalidateGoal());
        break;
      case WorkloadKind::kChurn:
        out->goals.push_back(RandomConstraint(rng_, spec_.n, 2));
        break;
    }
  }
}

DifferentialConstraint InputStream::AdhocGoal() {
  while (true) {
    DifferentialConstraint g = RandomConstraint(rng_, spec_.n, 2);
    const std::uint64_t h = DeriveSeed(g.rhs().Hash(), 0);
    // Connection c owns the families whose mixed hash has low bit c.
    if (static_cast<int>(h & 1) != connection_) continue;
    const std::size_t bit = (h >> 1) % kSentFilterBits;
    if (sent_[bit]) continue;
    sent_[bit] = true;
    return g;
  }
}

DifferentialConstraint InputStream::RevalidateGoal() {
  // Augmentation: a premise's left-hand side widened, its right-hand family
  // kept. Implied by that premise alone.
  const DifferentialConstraint& p = shared_[Pick(rng_, shared_.size())];
  return DifferentialConstraint(p.lhs().Union(ItemSet(rng_.RandomMask(spec_.n, 2.0 / spec_.n))),
                                p.rhs());
}

ConstraintSet InputStream::ChurnPremises() {
  // Half the set is random; the other half (`kChurnBuiltPremises`) is
  // built so that every rewrite rule has work: duplicates and augmented
  // copies (absorb-subsumed), trivial premises (drop-trivial), a member
  // plus its superset (minimize-rhs), a member overlapping the left-hand
  // side (narrow-members), and a shared left-hand side (merge-same-lhs).
  const int n = spec_.n;
  ConstraintSet base;
  for (int i = 0; i < spec_.premises - kChurnBuiltPremises; ++i) {
    base.push_back(RandomConstraint(rng_, n, 2));
  }
  ConstraintSet out = base;
  auto any_base = [&]() -> const DifferentialConstraint& {
    return base[Pick(rng_, base.size())];
  };
  for (int i = 0; i < 3; ++i) out.push_back(any_base());
  for (int i = 0; i < 2; ++i) {
    const DifferentialConstraint& p = any_base();
    out.push_back(DifferentialConstraint(p.lhs().Union(ItemSet(SmallMask(rng_, n))), p.rhs()));
  }
  for (int i = 0; i < 3; ++i) {
    ItemSet lhs(SmallMask(rng_, n));
    ItemSet inside(rng_.RandomNonemptySubsetOf(lhs.bits()));
    out.push_back(DifferentialConstraint(lhs, SetFamily({inside, ItemSet(SmallMask(rng_, n))})));
  }
  for (int i = 0; i < 3; ++i) {
    const DifferentialConstraint& p = any_base();
    const ItemSet m = p.rhs().member(Pick(rng_, static_cast<std::size_t>(p.rhs().size())));
    std::vector<ItemSet> members = p.rhs().members();
    members.push_back(m.Union(ItemSet(SmallMask(rng_, n))));
    out.push_back(DifferentialConstraint(p.lhs(), SetFamily(std::move(members))));
  }
  for (int i = 0; i < 2; ++i) {
    ItemSet lhs(SmallMask(rng_, n));
    const Mask lowest = lhs.bits() & (~lhs.bits() + 1);
    out.push_back(DifferentialConstraint(
        lhs, SetFamily({ItemSet(lowest | SmallMask(rng_, n)), ItemSet(SmallMask(rng_, n))})));
  }
  for (int i = 0; i < 3; ++i) {
    const DifferentialConstraint& p = any_base();
    out.push_back(DifferentialConstraint(p.lhs(), SetFamily({ItemSet(SmallMask(rng_, n))})));
  }
  std::shuffle(out.begin(), out.end(), rng_.engine());
  return out;
}

}  // namespace diffcbench
