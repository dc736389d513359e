/** @file Branch-and-bound MIP solver tests, incl. brute-force certification. */

#include <gtest/gtest.h>

#include <cmath>

#include "obs/obs.hpp"
#include "solver/mip.hpp"
#include "support/random.hpp"

namespace cmswitch {
namespace {

TEST(Mip, KnapsackOptimal)
{
    // max 60a + 100b + 120c s.t. 10a + 20b + 30c <= 50, binaries.
    // 0/1 knapsack optimum: b + c = 220.
    LinearModel m;
    VarId a = m.addVar("a", 0, 1, VarType::kInteger);
    VarId b = m.addVar("b", 0, 1, VarType::kInteger);
    VarId c = m.addVar("c", 0, 1, VarType::kInteger);
    LinearExpr cap;
    cap.add(a, 10).add(b, 20).add(c, 30);
    m.addConstraint(cap, Rel::kLe, 50);
    LinearExpr obj;
    obj.add(a, 60).add(b, 100).add(c, 120);
    m.setObjective(obj, Sense::kMaximize);

    MipResult r = solveMip(m);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, 220.0, 1e-6);
    EXPECT_NEAR(r.values[0], 0.0, 1e-6);
    EXPECT_NEAR(r.values[1], 1.0, 1e-6);
    EXPECT_NEAR(r.values[2], 1.0, 1e-6);
}

TEST(Mip, IntegralityForcesWorseThanLp)
{
    // max x s.t. 2x <= 7: LP gives 3.5, MIP must give 3.
    LinearModel m;
    VarId x = m.addVar("x", 0, kInfinity, VarType::kInteger);
    m.addConstraint(term(x, 2.0), Rel::kLe, 7);
    m.setObjective(term(x), Sense::kMaximize);
    MipResult r = solveMip(m);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(Mip, MixedIntegerContinuous)
{
    // max 2x + y, x integer <= 2.5-ish via 2x <= 5, y <= 1.5 cont.
    LinearModel m;
    VarId x = m.addVar("x", 0, kInfinity, VarType::kInteger);
    VarId y = m.addVar("y", 0, 1.5);
    m.addConstraint(term(x, 2.0), Rel::kLe, 5);
    LinearExpr obj;
    obj.add(x, 2.0).add(y, 1.0);
    m.setObjective(obj, Sense::kMaximize);
    MipResult r = solveMip(m);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, 5.5, 1e-6); // x=2, y=1.5
}

TEST(Mip, InfeasibleInteger)
{
    // 2 <= 3x <= 4 has no integer point... 3x >= 2 and 3x <= 4 => x in
    // [0.67, 1.33] => x = 1 works! Use [4, 5] => x in [1.33, 1.67]: none.
    LinearModel m;
    VarId x = m.addVar("x", 0, 10, VarType::kInteger);
    m.addConstraint(term(x, 3.0), Rel::kGe, 4);
    m.addConstraint(term(x, 3.0), Rel::kLe, 5);
    m.setObjective(term(x), Sense::kMinimize);
    EXPECT_EQ(solveMip(m).status, SolveStatus::kInfeasible);
}

/** 2 producers x 2 consumers, maximize shipped subject to caps. */
LinearModel
transportationModel()
{
    LinearModel m;
    VarId r00 = m.addVar("r00", 0, 5, VarType::kInteger);
    VarId r01 = m.addVar("r01", 0, 5, VarType::kInteger);
    VarId r10 = m.addVar("r10", 0, 5, VarType::kInteger);
    VarId r11 = m.addVar("r11", 0, 5, VarType::kInteger);
    LinearExpr p0, p1, c0, c1;
    p0.add(r00, 1.0).add(r01, 1.0);
    p1.add(r10, 1.0).add(r11, 1.0);
    c0.add(r00, 1.0).add(r10, 1.0);
    c1.add(r01, 1.0).add(r11, 1.0);
    m.addConstraint(p0, Rel::kLe, 3);  // producer 0 supply
    m.addConstraint(p1, Rel::kLe, 4);  // producer 1 supply
    m.addConstraint(c0, Rel::kLe, 2);  // consumer 0 demand
    m.addConstraint(c1, Rel::kLe, 6);  // consumer 1 demand
    LinearExpr obj;
    obj.add(r00, 1.0).add(r01, 1.0).add(r10, 1.0).add(r11, 1.0);
    m.setObjective(obj, Sense::kMaximize);
    return m;
}

TEST(Mip, TransportationIsIntegral)
{
    MipResult r = solveMip(transportationModel());
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, 7.0, 1e-6); // min(supply 7, demand 8)
}

TEST(Mip, IntegralRootIsSolvedOnce)
{
    // The transportation relaxation has an integral optimal vertex, so
    // the root is the whole search: one node and one LP, not a root
    // solve followed by the same LP again as the first queued node.
    obs::MetricsRegistry registry;
    obs::install(&registry, nullptr);
    MipResult r = solveMip(transportationModel());
    const s64 lp_solves = registry.counter(obs::Met::kLpSolves).get();
    obs::uninstall();
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, 7.0, 1e-6);
    EXPECT_EQ(r.nodesExplored, 1);
    EXPECT_EQ(lp_solves, 1);
}

/**
 * Property: on random small integer programs, branch-and-bound matches
 * exhaustive enumeration exactly.
 */
class RandomMip : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomMip, MatchesBruteForce)
{
    Rng rng(static_cast<u64>(GetParam()) * 7919 + 13);
    const s64 n = rng.nextInt(2, 4);
    const s64 ub = 4;

    LinearModel m;
    std::vector<VarId> vars;
    for (s64 i = 0; i < n; ++i)
        vars.push_back(m.addVar("v", 0, static_cast<double>(ub),
                                VarType::kInteger));
    const s64 n_cons = rng.nextInt(1, 3);
    std::vector<std::vector<s64>> cons_coef;
    std::vector<s64> cons_rhs;
    for (s64 c = 0; c < n_cons; ++c) {
        LinearExpr e;
        std::vector<s64> coef;
        for (s64 i = 0; i < n; ++i) {
            s64 k = rng.nextInt(0, 3);
            coef.push_back(k);
            if (k != 0)
                e.add(vars[static_cast<std::size_t>(i)],
                      static_cast<double>(k));
        }
        s64 rhs = rng.nextInt(2, 12);
        m.addConstraint(e, Rel::kLe, static_cast<double>(rhs));
        cons_coef.push_back(coef);
        cons_rhs.push_back(rhs);
    }
    std::vector<s64> obj_coef;
    LinearExpr obj;
    for (s64 i = 0; i < n; ++i) {
        s64 k = rng.nextInt(1, 5);
        obj_coef.push_back(k);
        obj.add(vars[static_cast<std::size_t>(i)], static_cast<double>(k));
    }
    m.setObjective(obj, Sense::kMaximize);

    // Brute force.
    s64 best = -1;
    std::vector<s64> x(static_cast<std::size_t>(n), 0);
    std::function<void(s64)> enumerate = [&](s64 i) {
        if (i == n) {
            for (s64 c = 0; c < n_cons; ++c) {
                s64 lhs = 0;
                for (s64 j = 0; j < n; ++j)
                    lhs += cons_coef[static_cast<std::size_t>(c)]
                                    [static_cast<std::size_t>(j)]
                         * x[static_cast<std::size_t>(j)];
                if (lhs > cons_rhs[static_cast<std::size_t>(c)])
                    return;
            }
            s64 v = 0;
            for (s64 j = 0; j < n; ++j)
                v += obj_coef[static_cast<std::size_t>(j)]
                   * x[static_cast<std::size_t>(j)];
            best = std::max(best, v);
            return;
        }
        for (s64 v = 0; v <= ub; ++v) {
            x[static_cast<std::size_t>(i)] = v;
            enumerate(i + 1);
        }
    };
    enumerate(0);

    MipResult r = solveMip(m);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, static_cast<double>(best), 1e-6);
    EXPECT_TRUE(m.isFeasible(r.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMip, ::testing::Range(0, 25));

} // namespace
} // namespace cmswitch
