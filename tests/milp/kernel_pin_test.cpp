// Bit pins for the simplex kernel. BasisLu keeps its factors, eta file and
// elimination workspace from one factorize to the next, and SimplexEngine
// keeps its work arrays from one solve to the next. A buffer that is not
// re-initialized exactly as a fresh one would be changes a bit somewhere
// below. Every pin was recorded with a kernel that allocated all of its
// state afresh on each call, so a correct kernel matches by construction.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "assignment_model.h"
#include "milp/lu.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "milp/sparse.h"
#include "util/rng.h"

namespace cgraf::milp {
namespace {

// FNV-1a over 64-bit words: doubles enter as their IEEE bit patterns.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void num(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void vec(const std::vector<double>& v) {
    for (const double x : v) num(x);
  }
};

std::vector<double> random_rhs(Rng& rng, int m) {
  std::vector<double> b(static_cast<size_t>(m), 0.0);
  for (double& v : b)
    if (rng.next_bool(0.3)) v = 2.0 * rng.next_double() - 1.0;
  return b;
}

// Hashes `lu`'s FTRAN and BTRAN of three seeded right-hand sides each.
void hash_solves(BasisLu& lu, std::uint64_t seed, Fnv& f) {
  Rng rng(seed);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> b = random_rhs(rng, lu.dim());
    lu.ftran(b);
    f.vec(b);
    std::vector<double> c = random_rhs(rng, lu.dim());
    lu.btran(c);
    f.vec(c);
  }
}

// One corpus instance: factorize the LP's optimal basis, apply up to 12 eta
// updates with seeded entering columns, hash the solves, refactorize the
// updated basis and hash its solves again.
std::uint64_t lu_instance_hash(BasisLu& lu, int instance) {
  const int ops = (instance % 3 == 0) ? 24 : (instance % 3 == 1) ? 48 : 96;
  const int pes = instance % 2 == 0 ? 36 : 28;
  const Model model =
      assignment_model(ops, pes, 4, 900 + static_cast<std::uint64_t>(instance));
  const CscMatrix a = build_computational_form(model);
  const LpResult lp = solve_lp(model);
  std::vector<int> basis;
  std::vector<char> in_basis(lp.basis.size(), 0);
  for (int j = 0; j < static_cast<int>(lp.basis.size()); ++j) {
    if (lp.basis[static_cast<size_t>(j)] == ColStatus::kBasic) {
      basis.push_back(j);
      in_basis[static_cast<size_t>(j)] = 1;
    }
  }
  Fnv f;
  f.word(static_cast<std::uint64_t>(basis.size()));
  if (!lu.factorize(a, basis)) return 0;
  f.word(static_cast<std::uint64_t>(lu.factor_nnz()));
  hash_solves(lu, 7 * static_cast<std::uint64_t>(instance) + 1, f);

  Rng rng(31 + static_cast<std::uint64_t>(instance));
  for (int u = 0; u < 12; ++u) {
    int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(a.cols)));
    while (in_basis[static_cast<size_t>(j)]) j = (j + 1) % a.cols;
    std::vector<double> spike(static_cast<size_t>(a.rows), 0.0);
    a.axpy_col(j, 1.0, spike);
    lu.ftran(spike);
    f.vec(spike);
    int pos = 0;
    for (int i = 1; i < a.rows; ++i)
      if (std::abs(spike[static_cast<size_t>(i)]) >
          std::abs(spike[static_cast<size_t>(pos)]))
        pos = i;
    if (!lu.update(spike, pos)) continue;
    in_basis[static_cast<size_t>(basis[static_cast<size_t>(pos)])] = 0;
    in_basis[static_cast<size_t>(j)] = 1;
    basis[static_cast<size_t>(pos)] = j;
  }
  f.word(static_cast<std::uint64_t>(lu.num_updates()));
  f.word(static_cast<std::uint64_t>(lu.factor_nnz()));
  hash_solves(lu, 7 * static_cast<std::uint64_t>(instance) + 2, f);

  if (!lu.factorize(a, basis)) return 1;
  f.word(static_cast<std::uint64_t>(lu.factor_nnz()));
  hash_solves(lu, 7 * static_cast<std::uint64_t>(instance) + 3, f);
  return f.h;
}

constexpr std::uint64_t kLuPins[] = {
    0x6c2725f5431fbf42ULL, 0x1b449a2740b64533ULL, 0x182333f221977be7ULL,
    0x64655ed988380297ULL, 0xa6b18b3c97f1a82eULL, 0x6942fed13ea546b0ULL,
};

TEST(KernelPins, LuSolvesMatchRecordedBits) {
  // One object serves the whole corpus, so every instance also runs on
  // workspace left behind by a basis of another size.
  BasisLu shared;
  for (int i = 0; i < static_cast<int>(std::size(kLuPins)); ++i) {
    BasisLu fresh;
    const std::uint64_t want = kLuPins[static_cast<size_t>(i)];
    const std::uint64_t got_fresh = lu_instance_hash(fresh, i);
    const std::uint64_t got_shared = lu_instance_hash(shared, i);
    EXPECT_EQ(got_fresh, want) << "fresh LU, instance " << i;
    EXPECT_EQ(got_shared, want) << "reused LU, instance " << i;
  }
}

std::uint64_t solve_hash(const LpResult& r) {
  Fnv f;
  f.word(static_cast<std::uint64_t>(r.status));
  f.word(static_cast<std::uint64_t>(r.iterations));
  f.word(static_cast<std::uint64_t>(r.stats.dual_iterations));
  f.word(static_cast<std::uint64_t>(r.stats.bound_flips));
  f.word(static_cast<std::uint64_t>(r.stats.refactorizations));
  f.num(r.obj);
  f.vec(r.x);
  for (const ColStatus s : r.basis) f.word(static_cast<std::uint64_t>(s));
  return f.h;
}

// micro_solver's lp_child_resolve/48: the first 16 basic structurals of the
// root optimum, each fixed to 0 in turn and re-solved warm from the root
// basis. Objective bits and iteration counts per child.
struct ChildPin {
  std::uint64_t obj_bits;
  long iterations;
};
constexpr ChildPin kChildPins[] = {
    {0x3ffe6bcf26dd80f6ULL, 9},  {0x3ffd70a45fa510bcULL, 0},
    {0x3ffd70a45fa510bcULL, 0},  {0x3ffd70a8a1dc73f0ULL, 1},
    {0x3ffdcb67c8e83a74ULL, 10}, {0x3ffd762074987c8fULL, 3},
    {0x3ffd9eb0f86bcdb2ULL, 4},  {0x3ffda2e38206892cULL, 12},
    {0x3ffd70a45fa510bcULL, 0},  {0x3ffd70a45fa510bcULL, 0},
    {0x3ffd70a45fa510bcULL, 0},  {0x3ffd9eba83f3ee0aULL, 3},
    {0x3ffd9c1f74433c54ULL, 3},  {0x3ffd72c91a27e3c0ULL, 3},
    {0x3ffd70a45fa510bcULL, 0},  {0x3ffefd85a0fc69b3ULL, 10},
};

TEST(KernelPins, WarmChildResolvesMatchRecordedBits) {
  const Model m = assignment_model(48, 36, 4, 42);
  SimplexEngine engine(m);
  const LpResult root = engine.solve();
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  std::vector<int> branch_vars;
  for (int j = 0;
       j < engine.num_structural() && static_cast<int>(branch_vars.size()) < 16;
       ++j) {
    if (root.basis[static_cast<size_t>(j)] == ColStatus::kBasic)
      branch_vars.push_back(j);
  }
  ASSERT_EQ(branch_vars.size(), std::size(kChildPins));
  const std::vector<double>& lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  long total_iters = 0;
  // Two rounds on one engine: the second re-solves every child on buffers
  // the first round left behind and must reproduce it bit for bit.
  for (int round = 0; round < 2; ++round) {
    for (size_t c = 0; c < branch_vars.size(); ++c) {
      const int v = branch_vars[c];
      const double saved = ub[static_cast<size_t>(v)];
      ub[static_cast<size_t>(v)] = 0.0;
      const LpResult r = engine.solve(lb, ub, &root.basis);
      ub[static_cast<size_t>(v)] = saved;
      EXPECT_TRUE(r.warm_used);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.obj), kChildPins[c].obj_bits)
          << "round " << round << " child " << c << std::hex << " got 0x"
          << std::bit_cast<std::uint64_t>(r.obj);
      EXPECT_EQ(r.iterations, kChildPins[c].iterations)
          << "round " << round << " child " << c;
      if (round == 0) total_iters += r.iterations;
    }
  }
  EXPECT_EQ(total_iters, 58);
}

// A chain of solves on one engine: cold, then re-solves that each fix one
// more column and start warm from the previous basis (every fifth cold),
// and a warm return to the model's own bounds. Each solve's full outcome
// (status, counters, objective, x and basis) is hashed.
constexpr std::uint64_t kChainPins[] = {
    0x0453e55c8f7016b6ULL, 0x58637791d7d2863dULL, 0x0bae3a29d96c219eULL,
    0x0c0f07ba322e8668ULL, 0xc3cf6521024712eaULL, 0x7b7b0c33f0bf871eULL,
    0x8adca5af12459d0cULL, 0x8adca5af12459d0cULL, 0x62dbedce52114d27ULL,
    0xa5a154233843ccb8ULL, 0x3e37c0d13bb54383ULL, 0x31a70bc7792ea3dbULL,
    0xc6f8627a4d53cde5ULL, 0x2882ebd2a2cce493ULL,
};

TEST(KernelPins, SolveChainMatchesRecordedBits) {
  const Model m = assignment_model(96, 36, 4, 5);
  SimplexEngine engine(m);
  std::vector<std::uint64_t> got;
  LpResult r = engine.solve();
  got.push_back(solve_hash(r));
  const std::vector<double>& lb = engine.model_lb();
  std::vector<double> ub = engine.model_ub();
  Rng rng(77);
  std::vector<ColStatus> warm = r.basis;
  for (int step = 0; step < 12; ++step) {
    // Fix the first basic structural at or after a seeded column to 0;
    // every fifth step solves cold.
    const int n = engine.num_structural();
    int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    while (warm[static_cast<size_t>(v)] != ColStatus::kBasic) v = (v + 1) % n;
    ub[static_cast<size_t>(v)] = 0.0;
    r = step % 5 == 4 ? engine.solve(lb, ub) : engine.solve(lb, ub, &warm);
    got.push_back(solve_hash(r));
    if (r.status == SolveStatus::kOptimal) warm = r.basis;
  }
  r = engine.solve(&warm);
  got.push_back(solve_hash(r));
  ASSERT_EQ(got.size(), std::size(kChainPins));
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], kChainPins[i])
        << "solve " << i << std::hex << " got 0x" << got[i];
}

}  // namespace
}  // namespace cgraf::milp
