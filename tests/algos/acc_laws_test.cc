// Algebraic-law property tests for every ACC program: the paper's Combine
// contract requires a commutative, associative operator (Section 3.2), and
// Apply must be monotone/idempotent where the engine relies on it (duplicate
// frontier entries, in-place push). Violations here would corrupt results
// silently, so they are checked as laws over random value streams.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "algos/algos.h"
#include "graph/generators.h"

namespace simdx {
namespace {

template <typename Program, typename Gen>
void CheckCombineLaws(const Program& p, Gen gen, int trials = 200) {
  std::mt19937_64 rng(7);
  using Value = typename Program::Value;
  for (int t = 0; t < trials; ++t) {
    const Value a = gen(rng);
    const Value b = gen(rng);
    const Value c = gen(rng);
    EXPECT_EQ(p.Combine(a, b), p.Combine(b, a)) << "commutativity, trial " << t;
    EXPECT_EQ(p.Combine(p.Combine(a, b), c), p.Combine(a, p.Combine(b, c)))
        << "associativity, trial " << t;
    // Identity is neutral.
    EXPECT_EQ(p.Combine(a, p.CombineIdentity()), a) << "identity, trial " << t;
  }
}

TEST(AccLawsTest, BfsCombineIsMin) {
  BfsProgram p;
  CheckCombineLaws(p, [](std::mt19937_64& rng) {
    return static_cast<uint32_t>(rng() % 1000);
  });
}

TEST(AccLawsTest, SsspCombineIsMin) {
  SsspProgram p;
  CheckCombineLaws(p, [](std::mt19937_64& rng) {
    return static_cast<uint32_t>(rng() % 100000);
  });
}

TEST(AccLawsTest, WccCombineIsMin) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  WccProgram p;
  p.graph = &g;
  CheckCombineLaws(p, [](std::mt19937_64& rng) {
    return static_cast<uint32_t>(rng() % 4);
  });
}

TEST(AccLawsTest, KCoreCombineIsSum) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  KCoreProgram p;
  p.graph = &g;
  CheckCombineLaws(p, [](std::mt19937_64& rng) {
    return KCoreValue{static_cast<uint32_t>(rng() % 8), false};
  });
}

// Floating-point sums: associativity holds only up to rounding; check with
// tolerance instead of exact equality.
TEST(AccLawsTest, PageRankCombineIsSumWithinRounding) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  PageRankProgram p;
  p.graph = &g;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 200; ++t) {
    const PageRankValue a{0.0, uni(rng)};
    const PageRankValue b{0.0, uni(rng)};
    const PageRankValue c{0.0, uni(rng)};
    EXPECT_DOUBLE_EQ(p.Combine(a, b).residual, p.Combine(b, a).residual);
    EXPECT_NEAR(p.Combine(p.Combine(a, b), c).residual,
                p.Combine(a, p.Combine(b, c)).residual, 1e-12);
  }
}

// Apply idempotence for the min-family: re-applying the same combined update
// must be a no-op (duplicate frontier entries are harmless).
TEST(AccLawsTest, MinApplyIsIdempotent) {
  BfsProgram bfs;
  SsspProgram sssp;
  std::mt19937_64 rng(13);
  for (int t = 0; t < 200; ++t) {
    const uint32_t old_value = rng() % 1000;
    const uint32_t update = rng() % 1000;
    const uint32_t once = bfs.Apply(0, update, old_value, Direction::kPush);
    EXPECT_EQ(bfs.Apply(0, update, once, Direction::kPush), once);
    const uint32_t s_once = sssp.Apply(0, update, old_value, Direction::kPush);
    EXPECT_EQ(sssp.Apply(0, update, s_once, Direction::kPush), s_once);
  }
}

// k-Core's freeze: once removed, no sequence of updates changes the value —
// the guarantee that a removed vertex never re-sends its removal.
TEST(AccLawsTest, KCoreFreezeIsAbsorbing) {
  const Graph g = Graph::FromEdges(GenerateStar(8), false);
  KCoreProgram p;
  p.graph = &g;
  p.k = 4;
  const KCoreValue removed{2, true};
  std::mt19937_64 rng(17);
  for (int t = 0; t < 100; ++t) {
    const KCoreValue update{static_cast<uint32_t>(rng() % 4), false};
    EXPECT_EQ(p.Apply(1, update, removed, Direction::kPush), removed);
    EXPECT_EQ(p.Apply(1, update, removed, Direction::kPull), removed);
  }
}

// --- CombineCapability enforcement ---
//
// kAssociativeOnly is a promise the pre-combining replay relies on: the
// engine will fold a destination's records with Combine in an arbitrary
// GROUPING (though fixed order) before one Apply. A wrong flag silently
// changes results, so the flag is enforced here: every program declaring
// kAssociativeOnly must pass randomized associativity/commutativity/identity
// law checks on its Combine — exactly for integer values, within rounding
// for floating-point sums — and the order-sensitive declarations are pinned
// with counterexamples showing why folding would be wrong.

// Randomized Combine-law harness; `eq(a, b)` is the value comparator (exact
// or tolerant).
template <typename Program, typename Gen, typename Eq>
void EnforceAssociativeLaws(const Program& p, Gen gen, Eq eq,
                            int trials = 500) {
  ASSERT_EQ(p.combine_capability(), CombineCapability::kAssociativeOnly);
  std::mt19937_64 rng(29);
  for (int t = 0; t < trials; ++t) {
    const auto a = gen(rng);
    const auto b = gen(rng);
    const auto c = gen(rng);
    EXPECT_TRUE(eq(p.Combine(a, b), p.Combine(b, a)))
        << "commutativity, trial " << t;
    EXPECT_TRUE(eq(p.Combine(p.Combine(a, b), c), p.Combine(a, p.Combine(b, c))))
        << "associativity, trial " << t;
    EXPECT_TRUE(eq(p.Combine(a, p.CombineIdentity()), a))
        << "right identity, trial " << t;
    EXPECT_TRUE(eq(p.Combine(p.CombineIdentity(), a), a))
        << "left identity, trial " << t;
  }
}

TEST(CombineCapabilityTest, BfsDeclarationEnforced) {
  BfsProgram p;
  EnforceAssociativeLaws(
      p, [](std::mt19937_64& rng) { return static_cast<uint32_t>(rng() % 1000); },
      [](uint32_t a, uint32_t b) { return a == b; });
  // The fold promise extends through Apply: folding two records then
  // applying once equals applying each in sequence (exact for min).
  std::mt19937_64 rng(31);
  for (int t = 0; t < 300; ++t) {
    const uint32_t old_value = rng() % 1000;
    const uint32_t r1 = rng() % 1000;
    const uint32_t r2 = rng() % 1000;
    const uint32_t folded =
        p.Apply(0, p.Combine(r1, r2), old_value, Direction::kPush);
    const uint32_t seq = p.Apply(
        0, r2, p.Apply(0, r1, old_value, Direction::kPush), Direction::kPush);
    EXPECT_EQ(folded, seq) << "apply-fold equivalence, trial " << t;
  }
}

TEST(CombineCapabilityTest, MsBfsDeclarationEnforced) {
  MsBfsState state;
  MsBfsInit(&state, {0, 1, 2, 3}, 8);
  MsBfsProgram p;
  p.state = &state;
  p.InitialFrontier();  // sizes the level table, as an engine run does
  EnforceAssociativeLaws(
      p, [](std::mt19937_64& rng) { return rng() & 0xFull; },
      [](uint64_t a, uint64_t b) { return a == b; });
  // The fold promise through Apply, INCLUDING the settle-time side effect:
  // OR-folding two records then applying once must produce the same mask
  // and stamp the same levels as applying each record in sequence (bits are
  // idempotent under OR and a bit's level is written only on first
  // arrival, so grouping cannot move a stamp).
  std::mt19937_64 rng(41);
  for (int t = 0; t < 300; ++t) {
    const uint64_t old_value = rng() & 0xFull;
    const uint64_t r1 = rng() & 0xFull;
    const uint64_t r2 = rng() & 0xFull;
    state.depth = 1 + static_cast<uint32_t>(t % 3);
    auto stamp_row = [&](VertexId v) {
      const uint32_t lanes = state.lanes();
      return std::vector<uint32_t>(state.levels.begin() + v * lanes,
                                   state.levels.begin() + (v + 1) * lanes);
    };
    // Vertex 6 takes the folded update, vertex 7 the sequential pair; both
    // start from identical (never-settled) rows.
    const uint64_t folded =
        p.Apply(6, p.Combine(r1, r2), old_value, Direction::kPush);
    const uint64_t seq = p.Apply(
        7, r2, p.Apply(7, r1, old_value, Direction::kPush), Direction::kPush);
    EXPECT_EQ(folded, seq) << "apply-fold equivalence, trial " << t;
    EXPECT_EQ(stamp_row(6), stamp_row(7)) << "settle-stamp equivalence, trial "
                                          << t;
    // Reset the two scratch rows (and their settled census) per trial.
    const uint32_t lanes = state.lanes();
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      state.levels[6 * lanes + lane] = kInfinity;
      state.levels[7 * lanes + lane] = kInfinity;
    }
    state.lanes_set[6] = 0;
    state.lanes_set[7] = 0;
  }
}

TEST(CombineCapabilityTest, WccDeclarationEnforced) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  WccProgram p;
  p.graph = &g;
  EnforceAssociativeLaws(
      p, [](std::mt19937_64& rng) { return static_cast<uint32_t>(rng() % 64); },
      [](uint32_t a, uint32_t b) { return a == b; });
  std::mt19937_64 rng(37);
  for (int t = 0; t < 300; ++t) {
    const uint32_t old_value = rng() % 64;
    const uint32_t r1 = rng() % 64;
    const uint32_t r2 = rng() % 64;
    EXPECT_EQ(p.Apply(0, p.Combine(r1, r2), old_value, Direction::kPush),
              p.Apply(0, r2, p.Apply(0, r1, old_value, Direction::kPush),
                      Direction::kPush));
  }
}

TEST(CombineCapabilityTest, PageRankDeclarationEnforcedWithinRounding) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  PageRankProgram p;
  p.graph = &g;
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  EnforceAssociativeLaws(
      p,
      [&uni](std::mt19937_64& rng) {
        return PageRankValue{0.0, uni(rng)};
      },
      [](const PageRankValue& a, const PageRankValue& b) {
        return std::abs(a.residual - b.residual) <= 1e-12;
      });
}

TEST(CombineCapabilityTest, BpDeclarationEnforcedWithinRounding) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  BpProgram p;
  p.graph = &g;
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  EnforceAssociativeLaws(
      p, [&uni](std::mt19937_64& rng) { return uni(rng); },
      [](double a, double b) { return std::abs(a - b) <= 1e-12; });
}

TEST(CombineCapabilityTest, SpmvDeclarationEnforcedWithinRounding) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  const std::vector<double> x(4, 1.0);
  SpmvProgram p;
  p.graph = &g;
  p.input = &x;
  std::uniform_real_distribution<double> uni(-10.0, 10.0);
  EnforceAssociativeLaws(
      p, [&uni](std::mt19937_64& rng) { return SpmvValue{0.0, uni(rng)}; },
      [](const SpmvValue& a, const SpmvValue& b) {
        return std::abs(a.y - b.y) <= 1e-9;
      });
}

TEST(CombineCapabilityTest, OrderSensitiveDeclarationsPinned) {
  // SSSP: Apply parks each improving-but-out-of-bucket RECORD; folding
  // collapses parks (see sssp.h). k-Core: the freeze fires mid-stream.
  // These must never silently flip to kAssociativeOnly.
  SsspProgram sssp;
  EXPECT_EQ(sssp.combine_capability(), CombineCapability::kOrderSensitive);
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  KCoreProgram kcore;
  kcore.graph = &g;
  EXPECT_EQ(kcore.combine_capability(), CombineCapability::kOrderSensitive);
}

TEST(CombineCapabilityTest, KCoreFoldCounterexample) {
  // The concrete reason k-Core is order-sensitive: per-record applies freeze
  // the degree AT the removal threshold crossing, a fold subtracts
  // everything. Start at degree 12 with k=11 and three removal records.
  const Graph g = Graph::FromEdges(GenerateStar(16), false);
  KCoreProgram p;
  p.graph = &g;
  p.k = 11;
  const KCoreValue old_value{12, 0};
  const KCoreValue rec{1, 0};
  // Sequential: 12 -> 11 (alive) -> 10 (removed, frozen) -> still 10.
  KCoreValue seq = old_value;
  for (int i = 0; i < 3; ++i) {
    seq = p.Apply(1, rec, seq, Direction::kPush);
  }
  EXPECT_EQ(seq, (KCoreValue{10, 1}));
  // Folded: 12 - 3 = 9 — a DIFFERENT frozen degree. Both agree the vertex
  // is removed (monotone), but the value bytes differ, which is exactly
  // what the per-destination determinism gates would trip on.
  const KCoreValue folded =
      p.Apply(1, p.Combine(p.Combine(rec, rec), rec), old_value, Direction::kPush);
  EXPECT_EQ(folded, (KCoreValue{9, 1}));
  EXPECT_NE(seq, folded);
}

// Compute must be direction-independent for the symmetric programs (the
// engine may evaluate the same edge in push or pull mode across iterations).
TEST(AccLawsTest, ComputeDirectionIndependentForTraversals) {
  BfsProgram bfs;
  SsspProgram sssp;
  for (uint32_t v = 0; v < 50; ++v) {
    EXPECT_EQ(bfs.Compute(0, 1, 3, v, Direction::kPush),
              bfs.Compute(0, 1, 3, v, Direction::kPull));
    EXPECT_EQ(sssp.Compute(0, 1, 3, v, Direction::kPush),
              sssp.Compute(0, 1, 3, v, Direction::kPull));
  }
}

// Saturation: unreached sources must contribute the identity, never wrap.
TEST(AccLawsTest, InfinityNeverWraps) {
  BfsProgram bfs;
  SsspProgram sssp;
  EXPECT_EQ(bfs.Compute(0, 1, 1, kInfinity, Direction::kPush), kInfinity);
  EXPECT_EQ(sssp.Compute(0, 1, 64, kInfinity, Direction::kPush), kInfinity);
}

}  // namespace
}  // namespace simdx
