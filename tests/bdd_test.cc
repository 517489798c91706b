#include "bdd/bdd.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace recnet {
namespace bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  Manager mgr_;
};

TEST_F(BddTest, TerminalsAreFixed) {
  EXPECT_EQ(mgr_.False(), kFalse);
  EXPECT_EQ(mgr_.True(), kTrue);
  EXPECT_TRUE(mgr_.IsTerminal(kFalse));
  EXPECT_TRUE(mgr_.IsTerminal(kTrue));
}

TEST_F(BddTest, MakeVarIsCanonical) {
  NodeIndex a1 = mgr_.MakeVar(3);
  NodeIndex a2 = mgr_.MakeVar(3);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, mgr_.MakeVar(4));
}

TEST_F(BddTest, AndOrTerminalRules) {
  NodeIndex x = mgr_.MakeVar(0);
  EXPECT_EQ(mgr_.And(x, kFalse), kFalse);
  EXPECT_EQ(mgr_.And(x, kTrue), x);
  EXPECT_EQ(mgr_.And(x, x), x);
  EXPECT_EQ(mgr_.Or(x, kTrue), kTrue);
  EXPECT_EQ(mgr_.Or(x, kFalse), x);
  EXPECT_EQ(mgr_.Or(x, x), x);
}

TEST_F(BddTest, Commutativity) {
  NodeIndex x = mgr_.MakeVar(0);
  NodeIndex y = mgr_.MakeVar(1);
  EXPECT_EQ(mgr_.And(x, y), mgr_.And(y, x));
  EXPECT_EQ(mgr_.Or(x, y), mgr_.Or(y, x));
}

TEST_F(BddTest, NotIsInvolution) {
  NodeIndex x = mgr_.MakeVar(0);
  NodeIndex y = mgr_.MakeVar(1);
  NodeIndex f = mgr_.Or(mgr_.And(x, y), mgr_.Not(x));
  EXPECT_EQ(mgr_.Not(mgr_.Not(f)), f);
  EXPECT_EQ(mgr_.Not(kTrue), kFalse);
  EXPECT_EQ(mgr_.Not(kFalse), kTrue);
}

TEST_F(BddTest, ExcludedMiddle) {
  NodeIndex x = mgr_.MakeVar(2);
  EXPECT_EQ(mgr_.Or(x, mgr_.Not(x)), kTrue);
  EXPECT_EQ(mgr_.And(x, mgr_.Not(x)), kFalse);
}

// The property absorption provenance relies on (paper Section 4):
// a ∧ (a ∨ b) ≡ a ∨ (a ∧ b) ≡ a — canonical ROBDDs apply it automatically.
TEST_F(BddTest, AbsorptionLaw) {
  NodeIndex a = mgr_.MakeVar(0);
  NodeIndex b = mgr_.MakeVar(1);
  EXPECT_EQ(mgr_.And(a, mgr_.Or(a, b)), a);
  EXPECT_EQ(mgr_.Or(a, mgr_.And(a, b)), a);
}

TEST_F(BddTest, AbsorptionOfLongerDerivations) {
  // A derivation that conjoins a superset of another derivation's base
  // tuples is absorbed: p1 ∨ (p1 ∧ p2 ∧ p3) = p1.
  NodeIndex p1 = mgr_.MakeVar(1);
  NodeIndex p2 = mgr_.MakeVar(2);
  NodeIndex p3 = mgr_.MakeVar(3);
  NodeIndex longer = mgr_.And(p1, mgr_.And(p2, p3));
  EXPECT_EQ(mgr_.Or(p1, longer), p1);
}

TEST_F(BddTest, RestrictFixesVariable) {
  NodeIndex x = mgr_.MakeVar(0);
  NodeIndex y = mgr_.MakeVar(1);
  NodeIndex f = mgr_.Or(mgr_.And(x, y), mgr_.Not(x));  // if x then y else 1
  EXPECT_EQ(mgr_.Restrict(f, 0, true), y);
  EXPECT_EQ(mgr_.Restrict(f, 0, false), kTrue);
  // Restricting an absent variable is the identity.
  EXPECT_EQ(mgr_.Restrict(f, 9, false), f);
}

TEST_F(BddTest, RestrictAllFalseKillsDerivations) {
  NodeIndex p1 = mgr_.MakeVar(1);
  NodeIndex p2 = mgr_.MakeVar(2);
  NodeIndex p3 = mgr_.MakeVar(3);
  // (p1 ∧ p2) ∨ p3.
  NodeIndex f = mgr_.Or(mgr_.And(p1, p2), p3);
  EXPECT_EQ(mgr_.RestrictAllFalse(f, {3}), mgr_.And(p1, p2));
  EXPECT_EQ(mgr_.RestrictAllFalse(f, {1, 3}), kFalse);
  EXPECT_EQ(mgr_.RestrictAllFalse(f, {2, 3}), kFalse);
}

TEST_F(BddTest, CountNodesAndSerializedSize) {
  EXPECT_EQ(mgr_.CountNodes(kTrue), 0u);
  NodeIndex x = mgr_.MakeVar(0);
  EXPECT_EQ(mgr_.CountNodes(x), 1u);
  EXPECT_EQ(mgr_.SerializedSizeBytes(x), 8u + 10u);
  NodeIndex y = mgr_.MakeVar(1);
  NodeIndex f = mgr_.And(x, y);
  EXPECT_EQ(mgr_.CountNodes(f), 2u);
}

TEST_F(BddTest, SupportAndDependsOn) {
  NodeIndex x = mgr_.MakeVar(0);
  NodeIndex y = mgr_.MakeVar(5);
  NodeIndex z = mgr_.MakeVar(9);
  NodeIndex f = mgr_.Or(mgr_.And(x, y), z);
  std::vector<Var> support;
  mgr_.Support(f, &support);
  EXPECT_EQ(support, (std::vector<Var>{0, 5, 9}));
  EXPECT_TRUE(mgr_.DependsOn(f, 5));
  EXPECT_FALSE(mgr_.DependsOn(f, 4));
}

TEST_F(BddTest, AnyWitnessFindsSatisfyingAssignment) {
  NodeIndex p1 = mgr_.MakeVar(1);
  NodeIndex p2 = mgr_.MakeVar(2);
  NodeIndex f = mgr_.And(p1, p2);
  std::vector<std::pair<Var, bool>> assignment;
  ASSERT_TRUE(mgr_.AnyWitness(f, &assignment));
  std::unordered_map<Var, bool> truth(assignment.begin(), assignment.end());
  EXPECT_TRUE(mgr_.Evaluate(f, truth));
  EXPECT_FALSE(mgr_.AnyWitness(kFalse, &assignment));
}

TEST_F(BddTest, EvaluateDefaultsAbsentVarsToFalse) {
  NodeIndex p1 = mgr_.MakeVar(1);
  NodeIndex p2 = mgr_.MakeVar(2);
  NodeIndex f = mgr_.Or(p1, p2);
  EXPECT_FALSE(mgr_.Evaluate(f, {}));
  EXPECT_TRUE(mgr_.Evaluate(f, {{1, true}}));
}

TEST_F(BddTest, HandleRefCountingAllowsGc) {
  size_t before = mgr_.live_nodes();
  {
    Bdd a(&mgr_, mgr_.MakeVar(0));
    Bdd b(&mgr_, mgr_.MakeVar(1));
    Bdd f = a.And(b).Or(a.Not());
    EXPECT_GT(mgr_.live_nodes(), before);
    mgr_.GarbageCollect();
    // f is externally referenced: it must survive.
    EXPECT_FALSE(f.IsFalse());
    std::vector<Var> support;
    mgr_.Support(f.index(), &support);
    EXPECT_EQ(support.size(), 2u);
  }
  mgr_.GarbageCollect();
  EXPECT_EQ(mgr_.live_nodes(), before);
}

TEST_F(BddTest, GcPreservesSemantics) {
  Bdd x(&mgr_, mgr_.MakeVar(0));
  Bdd y(&mgr_, mgr_.MakeVar(1));
  Bdd f = x.And(y);
  // Create and drop garbage.
  for (int i = 0; i < 100; ++i) {
    Bdd g(&mgr_, mgr_.MakeVar(static_cast<Var>(i + 10)));
    Bdd h = g.Or(f);
    (void)h;
  }
  mgr_.GarbageCollect();
  // Rebuilt expression must be pointer-equal to the surviving one
  // (canonicity across GC).
  EXPECT_EQ(x.And(y).index(), f.index());
}

// Free slots are recycled newest-first within their unique-table stripe:
// the GC sweep pushes slot i onto stripe i mod 64's free list in ascending
// index order, and allocation pops the most recent push. Node indices (and
// with them op-cache collisions) therefore stay the same however the free
// lists are stored, and the store does not grow while a stripe has a free
// slot.
TEST_F(BddTest, GcRecyclesFreedSlotsNewestFirstPerStripe) {
  constexpr NodeIndex kStripes = 64;
  constexpr Var kGarbage = kStripes * 40;
  Bdd keep(&mgr_, mgr_.MakeVar(0));
  for (Var v = 1; v <= kGarbage; ++v) mgr_.MakeVar(v);  // Unreferenced.
  const size_t allocated = mgr_.allocated_nodes();
  EXPECT_EQ(mgr_.GarbageCollect(), size_t{kGarbage});

  // Model of each stripe's free list, in push order.
  std::vector<std::vector<NodeIndex>> free_slots(kStripes);
  for (NodeIndex i = 1; i < allocated; ++i) {
    if (i != keep.index() >> 1) free_slots[i % kStripes].push_back(i);
  }
  std::vector<Bdd> fresh;
  for (Var v = 0; v < 300; ++v) {
    fresh.emplace_back(&mgr_, mgr_.MakeVar(kGarbage + 1 + v));
    const NodeIndex n = fresh.back().index() >> 1;
    std::vector<NodeIndex>& stack = free_slots[n % kStripes];
    ASSERT_LT(n, allocated) << "var " << v << " grew the store";
    ASSERT_FALSE(stack.empty()) << "var " << v;
    EXPECT_EQ(n, stack.back()) << "var " << v;
    stack.pop_back();
  }
  EXPECT_EQ(mgr_.allocated_nodes(), allocated);
  // Recycled slots are chained into the unique table like fresh ones.
  EXPECT_EQ(mgr_.MakeVar(kGarbage + 1), fresh.front().index());
  EXPECT_EQ(mgr_.MakeVar(0), keep.index());
}

// Regression: Diff and RestrictAllFalse chain operations whose entry points
// may garbage-collect; intermediates must be pinned. A tiny GC threshold
// forces collections inside the chains.
TEST(BddGcStressTest, DiffAndRestrictSurviveAggressiveGc) {
  Manager::Options options;
  options.gc_threshold = 512;
  options.cache_size = 1 << 12;
  Manager mgr(options);
  Rng rng(17);
  std::vector<Bdd> pool;
  for (Var v = 0; v < 12; ++v) pool.emplace_back(&mgr, mgr.MakeVar(v));
  for (int step = 0; step < 60; ++step) {
    const Bdd& a = pool[rng.NextBounded(pool.size())];
    const Bdd& b = pool[rng.NextBounded(pool.size())];
    Bdd d = a.Diff(b);
    // a ∧ ¬b ∧ b = false always.
    EXPECT_TRUE(d.And(b).IsFalse());
    Bdd u = a.Or(b);
    Bdd r = u.RestrictAllFalse({0, 5, 11});
    // Restricting variables never *adds* satisfying assignments w.r.t. the
    // all-false completion: r evaluated under all-false == u under
    // all-false.
    EXPECT_EQ(mgr.Evaluate(r.index(), {}), mgr.Evaluate(u.index(), {}));
    if (pool.size() < 40) pool.push_back(u);
    if (step % 10 == 9) mgr.GarbageCollect();  // Force GC inside the mix.
  }
  EXPECT_GT(mgr.gc_runs(), 0u);
}

// Regression: recursive BDD operations must not hold references into the
// node vector across calls that can reallocate it.
TEST(BddGcStressTest, DeepNotChainsSurviveNodeStoreGrowth) {
  Manager mgr;
  NodeIndex f = mgr.False();
  for (Var v = 0; v < 200; ++v) {
    Bdd pin(&mgr, f);
    NodeIndex conj = mgr.And(mgr.MakeVar(v),
                             v + 1 < 200 ? mgr.MakeVar(v + 1) : mgr.True());
    Bdd pin2(&mgr, conj);
    f = mgr.Or(f, conj);
  }
  Bdd root(&mgr, f);
  NodeIndex g = mgr.Not(f);
  EXPECT_EQ(mgr.Not(g), f);
  EXPECT_EQ(mgr.And(f, g), kFalse);
}

TEST_F(BddTest, ToDotRendersGraph) {
  Bdd x(&mgr_, mgr_.MakeVar(0));
  Bdd y(&mgr_, mgr_.MakeVar(1));
  Bdd f = x.And(y);
  std::string dot = mgr_.ToDot(f.index());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property test: random expressions evaluated against a brute-force truth
// table over n variables.
// ---------------------------------------------------------------------------

// A reference Boolean expression as a truth table bitmap over kPropVars
// variables.
constexpr int kPropVars = 5;

struct Expr {
  NodeIndex node;
  uint32_t truth;  // Bit i = value under assignment i.
};

class BddPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BddPropertyTest, RandomExpressionsMatchTruthTables) {
  Manager mgr;
  Rng rng(GetParam());
  std::vector<Expr> pool;
  for (Var v = 0; v < kPropVars; ++v) {
    uint32_t truth = 0;
    for (uint32_t a = 0; a < (1u << kPropVars); ++a) {
      if ((a >> v) & 1u) truth |= (1u << a);
    }
    pool.push_back(Expr{mgr.MakeVar(v), truth});
  }
  for (int step = 0; step < 200; ++step) {
    const Expr& a = pool[rng.NextBounded(pool.size())];
    const Expr& b = pool[rng.NextBounded(pool.size())];
    Expr out{};
    switch (rng.NextBounded(4)) {
      case 0:
        out = Expr{mgr.And(a.node, b.node), a.truth & b.truth};
        break;
      case 1:
        out = Expr{mgr.Or(a.node, b.node), a.truth | b.truth};
        break;
      case 2:
        // All-ones mask over the 2^kPropVars truth-table bits, computed in
        // 64-bit so the shift is defined when the table fills the word.
        out = Expr{mgr.Not(a.node),
                   ~a.truth & static_cast<uint32_t>(
                                  (uint64_t{1} << (1u << kPropVars)) - 1u)};
        break;
      default: {
        Var v = static_cast<Var>(rng.NextBounded(kPropVars));
        bool value = rng.NextBool(0.5);
        uint32_t truth = 0;
        for (uint32_t asg = 0; asg < (1u << kPropVars); ++asg) {
          uint32_t fixed = value ? (asg | (1u << v)) : (asg & ~(1u << v));
          if ((a.truth >> fixed) & 1u) truth |= (1u << asg);
        }
        out = Expr{mgr.Restrict(a.node, v, value), truth};
        break;
      }
    }
    // Validate against every assignment.
    for (uint32_t asg = 0; asg < (1u << kPropVars); ++asg) {
      std::unordered_map<Var, bool> truth_map;
      for (Var v = 0; v < kPropVars; ++v) {
        truth_map[v] = (asg >> v) & 1u;
      }
      EXPECT_EQ(mgr.Evaluate(out.node, truth_map),
                static_cast<bool>((out.truth >> asg) & 1u))
          << "step " << step << " assignment " << asg;
    }
    // Canonicity: equal truth tables iff equal node indices.
    for (const Expr& e : pool) {
      EXPECT_EQ(e.truth == out.truth, e.node == out.node);
    }
    pool.push_back(out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Complement-edge representation invariants.
// ---------------------------------------------------------------------------

// Builds a random absorption-shaped function: an Or of short products over a
// small variable window (the repo's provenance workload shape).
BddRef RandomFunction(Manager& mgr, Rng& rng, int terms) {
  BddRef f = kFalse;
  for (int t = 0; t < terms; ++t) {
    Var base = static_cast<Var>(rng.NextBounded(12));
    BddRef p = kTrue;
    for (Var j = 0; j < 3; ++j) {
      p = mgr.And(p, mgr.MakeVar(base + j));
    }
    f = mgr.Or(f, p);
  }
  return f;
}

TEST_F(BddTest, NotIsTagFlipWithoutTableTraffic) {
  Rng rng(101);
  BddRef f = RandomFunction(mgr_, rng, 8);
  const uint64_t probes = mgr_.unique_probes();
  const size_t nodes = mgr_.allocated_nodes();
  BddRef g = f;
  for (int i = 0; i < 1000; ++i) {
    g = mgr_.Not(g);
    // Involution as identity of refs, not just semantic equality.
    if (i % 2 == 1) EXPECT_EQ(g, f);
  }
  EXPECT_EQ(mgr_.Not(f), f ^ 1u);
  EXPECT_EQ(mgr_.unique_probes(), probes);
  EXPECT_EQ(mgr_.allocated_nodes(), nodes);
}

TEST_F(BddTest, ThenEdgesAreAlwaysRegular) {
  // The canonicity rule: complement bits live on else-edges and roots only;
  // every interned node's then-edge is a regular (untagged) ref.
  Rng rng(202);
  std::vector<BddRef> roots;
  for (int i = 0; i < 16; ++i) roots.push_back(RandomFunction(mgr_, rng, 6));
  std::vector<BddRef> stack = roots;
  while (!stack.empty()) {
    BddRef f = stack.back();
    stack.pop_back();
    if (mgr_.IsTerminal(f)) continue;
    const BddRef reg = f & ~1u;
    EXPECT_EQ(mgr_.high_of(reg) & 1u, 0u)
        << "complemented then-edge reachable from root";
    stack.push_back(mgr_.low_of(reg));
    stack.push_back(mgr_.high_of(reg));
  }
}

TEST_F(BddTest, DeMorganDualHitsTheSameCacheEntries) {
  Rng rng(303);
  BddRef a = RandomFunction(mgr_, rng, 6);
  BddRef b = RandomFunction(mgr_, rng, 6);
  // Or is computed as ¬And(¬a, ¬b), so the forward pass fully populates the
  // And cache for the dual call: re-deriving it must be pure cache hits with
  // zero fresh nodes.
  BddRef f = mgr_.Or(a, b);
  const uint64_t hits = mgr_.cache_hits();
  const size_t nodes = mgr_.allocated_nodes();
  BddRef dual = mgr_.And(mgr_.Not(a), mgr_.Not(b));
  EXPECT_EQ(dual, mgr_.Not(f));
  EXPECT_GT(mgr_.cache_hits(), hits);
  EXPECT_EQ(mgr_.allocated_nodes(), nodes);
}

TEST_F(BddTest, DiffOverComplementedOperandsSharesCache) {
  Rng rng(404);
  BddRef a = RandomFunction(mgr_, rng, 6);
  BddRef b = RandomFunction(mgr_, rng, 6);
  // Diff(a, b) = And(a, ¬b): the same tagged pair as Diff(¬b̄, b) etc.; no
  // negation is ever materialized, so repeating over complemented operands
  // is cache-hit-only after the first evaluation.
  BddRef d = mgr_.Diff(mgr_.Not(a), mgr_.Not(b));
  const uint64_t hits = mgr_.cache_hits();
  const size_t nodes = mgr_.allocated_nodes();
  EXPECT_EQ(mgr_.Diff(mgr_.Not(a), mgr_.Not(b)), d);
  EXPECT_EQ(mgr_.And(mgr_.Not(a), b), d);  // Same And pair by definition.
  EXPECT_GT(mgr_.cache_hits(), hits);
  EXPECT_EQ(mgr_.allocated_nodes(), nodes);
}

// Randomized canonicity oracle: semantically equal functions built along
// different operation paths must intern to the identical tagged ref. The
// oracle is the set of satisfying assignments over kPropVars variables.
class ComplementCanonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ComplementCanonicityTest, EquivalentFormsInternIdentically) {
  Manager mgr;
  Rng rng(GetParam());
  for (int step = 0; step < 100; ++step) {
    BddRef a = RandomFunction(mgr, rng, 1 + static_cast<int>(
                                               rng.NextBounded(5)));
    BddRef b = RandomFunction(mgr, rng, 1 + static_cast<int>(
                                               rng.NextBounded(5)));
    // Identity of refs across derivation paths (all are distinct recursion
    // shapes before reduction):
    EXPECT_EQ(mgr.Or(a, b), mgr.Not(mgr.And(mgr.Not(a), mgr.Not(b))));
    EXPECT_EQ(mgr.Diff(a, b), mgr.And(a, mgr.Not(b)));
    EXPECT_EQ(mgr.Not(mgr.Or(a, b)), mgr.And(mgr.Not(a), mgr.Not(b)));
    EXPECT_EQ(mgr.And(a, mgr.Not(a)), kFalse);
    EXPECT_EQ(mgr.Or(a, mgr.Not(a)), kTrue);
    EXPECT_EQ(mgr.Not(mgr.Not(a)), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComplementCanonicityTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace bdd
}  // namespace recnet
