#include "milp/lu.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cgraf::milp {

namespace {
constexpr double kDropTol = 1e-12;   // entries below this are treated as 0
constexpr double kPivotTol = 1e-9;   // absolute singularity threshold
constexpr double kRelPivot = 0.01;   // threshold partial pivoting factor

// Empties the first n lists of `v`, growing it to n lists if needed. The
// lists keep their capacity.
template <class T>
void clear_lists(std::vector<std::vector<T>>& v, size_t n) {
  if (v.size() < n) v.resize(n);
  for (size_t i = 0; i < n; ++i) v[i].clear();
}
}  // namespace

bool BasisLu::factorize(const CscMatrix& a, const std::vector<int>& basis) {
  m_ = static_cast<int>(basis.size());
  const size_t m = static_cast<size_t>(m_);
  prow_.clear();
  pcol_.clear();
  pivot_.clear();
  l_.clear();
  u_.clear();
  l_start_.assign(1, 0);
  u_start_.assign(1, 0);
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_.clear();
  eta_start_.assign(1, 0);
  if (m_ == 0) return true;

  // Active-matrix working copy: column p of the basis, as (row, value) lists.
  clear_lists(cols_, m);
  clear_lists(row_adj_, m);
  row_count_.assign(m, 0);
  col_count_.assign(m, 0);
  row_alive_.assign(m, 1);
  col_alive_.assign(m, 1);

  for (int p = 0; p < m_; ++p) {
    const int j = basis[static_cast<size_t>(p)];
    CGRAF_ASSERT(j >= 0 && j < a.cols);
    auto& col = cols_[static_cast<size_t>(p)];
    for (int q = a.begin(j); q < a.end(j); ++q) {
      const int r = a.row_idx[static_cast<size_t>(q)];
      const double v = a.value[static_cast<size_t>(q)];
      if (std::abs(v) <= kDropTol) continue;
      col.push_back({r, v});
      row_adj_[static_cast<size_t>(r)].push_back(p);
      ++row_count_[static_cast<size_t>(r)];
    }
    col_count_[static_cast<size_t>(p)] = static_cast<int>(col.size());
    if (col.empty()) return false;  // structurally singular
  }

  // Bucket queue of columns by active count (lazy entries).
  clear_lists(bucket_, m + 1);
  for (int p = 0; p < m_; ++p)
    bucket_[static_cast<size_t>(col_count_[static_cast<size_t>(p)])].push_back(
        p);

  // Scatter workspace for column updates.
  work_.assign(m, 0.0);
  in_work_.assign(m, 0);
  pattern_.clear();
  // Stamp used to dedupe row adjacency scans.
  col_stamp_.assign(m, -1);

  auto compact = [&](int p) {
    auto& col = cols_[static_cast<size_t>(p)];
    std::erase_if(col, [&](const Entry& e) {
      return !row_alive_[static_cast<size_t>(e.idx)];
    });
    col_count_[static_cast<size_t>(p)] = static_cast<int>(col.size());
  };

  for (int step = 0; step < m_; ++step) {
    // --- Pivot selection: smallest-count column, stability-thresholded.
    int q = -1;
    for (int cnt = 1; cnt <= m_ && q < 0; ++cnt) {
      auto& b = bucket_[static_cast<size_t>(cnt)];
      while (!b.empty()) {
        const int cand = b.back();
        if (!col_alive_[static_cast<size_t>(cand)]) {
          b.pop_back();
          continue;
        }
        compact(cand);
        const int actual = col_count_[static_cast<size_t>(cand)];
        if (actual != cnt) {
          b.pop_back();
          if (actual > 0) bucket_[static_cast<size_t>(actual)].push_back(cand);
          else return false;  // column vanished -> singular
          continue;
        }
        q = cand;
        b.pop_back();
        break;
      }
    }
    if (q < 0) return false;

    auto& colq = cols_[static_cast<size_t>(q)];
    // Pick the pivot row: among entries within kRelPivot of the column max,
    // prefer the sparsest row (Markowitz-style fill control).
    double maxabs = 0.0;
    for (const Entry& e : colq) maxabs = std::max(maxabs, std::abs(e.val));
    if (maxabs <= kPivotTol) return false;
    int p = -1;
    double pv = 0.0;
    int best_rc = 0;
    for (const Entry& e : colq) {
      if (std::abs(e.val) < kRelPivot * maxabs) continue;
      const int rc = row_count_[static_cast<size_t>(e.idx)];
      if (p < 0 || rc < best_rc ||
          (rc == best_rc && std::abs(e.val) > std::abs(pv))) {
        p = e.idx;
        pv = e.val;
        best_rc = rc;
      }
    }
    CGRAF_ASSERT(p >= 0);

    // --- Record L column (multipliers) for this step.
    const size_t l_begin = l_.size();
    for (const Entry& e : colq) {
      if (e.idx != p) l_.push_back({e.idx, e.val / pv});
    }

    // --- Gather U row: alive columns j != q containing row p.
    const size_t u_begin = u_.size();
    for (const int j : row_adj_[static_cast<size_t>(p)]) {
      if (j == q || !col_alive_[static_cast<size_t>(j)]) continue;
      if (col_stamp_[static_cast<size_t>(j)] == step) continue;  // dedupe
      col_stamp_[static_cast<size_t>(j)] = step;
      // Find the (alive) row-p entry in column j.
      const auto& colj = cols_[static_cast<size_t>(j)];
      for (const Entry& e : colj) {
        if (e.idx == p) {
          if (std::abs(e.val) > kDropTol) u_.push_back({j, e.val});
          break;
        }
      }
    }
    row_adj_[static_cast<size_t>(p)].clear();

    // --- Eliminate: update every column in the U row. Neither l_ nor u_
    // grows below, so the step's ranges stay put.
    const Entry* const lc_begin = l_.data() + l_begin;
    const Entry* const lc_end = l_.data() + l_.size();
    const Entry* const ur_end = u_.data() + u_.size();
    for (const Entry* u = u_.data() + u_begin; u != ur_end; ++u) {
      const int j = u->idx;
      auto& colj = cols_[static_cast<size_t>(j)];
      pattern_.clear();
      for (const Entry& e : colj) {
        // Skip the pivot-row entry (it becomes the U value) and stale
        // entries of already-eliminated rows.
        if (e.idx == p || !row_alive_[static_cast<size_t>(e.idx)]) continue;
        work_[static_cast<size_t>(e.idx)] = e.val;
        in_work_[static_cast<size_t>(e.idx)] = 1;
        pattern_.push_back(e.idx);
      }
      for (const Entry* l = lc_begin; l != lc_end; ++l) {
        const size_t i = static_cast<size_t>(l->idx);
        if (!in_work_[i]) {
          in_work_[i] = 1;
          work_[i] = 0.0;
          pattern_.push_back(l->idx);
          // Fill-in: row i gains column j.
          row_adj_[i].push_back(j);
          ++row_count_[i];
        }
        work_[i] -= l->val * u->val;
      }
      colj.clear();
      for (const int r : pattern_) {
        const size_t ri = static_cast<size_t>(r);
        if (std::abs(work_[ri]) > kDropTol) {
          colj.push_back({r, work_[ri]});
        } else {
          --row_count_[ri];  // cancellation removed this entry
        }
        in_work_[ri] = 0;
        work_[ri] = 0.0;
      }
      const int new_count = static_cast<int>(colj.size());
      col_count_[static_cast<size_t>(j)] = new_count;
      if (new_count == 0) return false;
      bucket_[static_cast<size_t>(new_count)].push_back(j);
    }

    // --- Retire pivot row and column.
    for (const Entry& e : colq) {
      if (e.idx != p) --row_count_[static_cast<size_t>(e.idx)];
    }
    row_alive_[static_cast<size_t>(p)] = 0;
    col_alive_[static_cast<size_t>(q)] = 0;
    colq.clear();

    prow_.push_back(p);
    pcol_.push_back(q);
    pivot_.push_back(pv);
    l_start_.push_back(static_cast<int>(l_.size()));
    u_start_.push_back(static_cast<int>(u_.size()));
  }
  return true;
}

void BasisLu::ftran(std::vector<double>& b) {
  CGRAF_DCHECK(static_cast<int>(b.size()) == m_);
  // Forward: y = L^{-1} b (in elimination order).
  for (int k = 0; k < m_; ++k) {
    const size_t sk = static_cast<size_t>(k);
    const double t = b[static_cast<size_t>(prow_[sk])];
    if (t != 0.0) {
      for (int q = l_start_[sk]; q < l_start_[sk + 1]; ++q) {
        const Entry& e = l_[static_cast<size_t>(q)];
        b[static_cast<size_t>(e.idx)] -= e.val * t;
      }
    }
  }
  // Backward: solve U x = y; x is indexed by basis position.
  x_.assign(static_cast<size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const size_t sk = static_cast<size_t>(k);
    double acc = b[static_cast<size_t>(prow_[sk])];
    for (int q = u_start_[sk]; q < u_start_[sk + 1]; ++q) {
      const Entry& e = u_[static_cast<size_t>(q)];
      acc -= e.val * x_[static_cast<size_t>(e.idx)];
    }
    x_[static_cast<size_t>(pcol_[sk])] = acc / pivot_[sk];
  }
  b.swap(x_);
  // Apply eta updates in application order.
  for (size_t t = 0; t < eta_pos_.size(); ++t) {
    double& bt = b[static_cast<size_t>(eta_pos_[t])];
    bt /= eta_pivot_[t];
    if (bt != 0.0) {
      for (int q = eta_start_[t]; q < eta_start_[t + 1]; ++q) {
        const Entry& e = eta_[static_cast<size_t>(q)];
        b[static_cast<size_t>(e.idx)] -= e.val * bt;
      }
    }
  }
}

void BasisLu::btran(std::vector<double>& b) {
  CGRAF_DCHECK(static_cast<int>(b.size()) == m_);
  // Eta transposes, newest first.
  for (size_t t = eta_pos_.size(); t-- > 0;) {
    const size_t pos = static_cast<size_t>(eta_pos_[t]);
    double acc = b[pos];
    for (int q = eta_start_[t]; q < eta_start_[t + 1]; ++q) {
      const Entry& e = eta_[static_cast<size_t>(q)];
      acc -= e.val * b[static_cast<size_t>(e.idx)];
    }
    b[pos] = acc / eta_pivot_[t];
  }
  // Solve U^T w = b (increasing elimination order).
  w_.assign(static_cast<size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    const size_t sk = static_cast<size_t>(k);
    const double t = b[static_cast<size_t>(pcol_[sk])] / pivot_[sk];
    w_[sk] = t;
    if (t != 0.0) {
      for (int q = u_start_[sk]; q < u_start_[sk + 1]; ++q) {
        const Entry& e = u_[static_cast<size_t>(q)];
        b[static_cast<size_t>(e.idx)] -= t * e.val;
      }
    }
  }
  // Solve L^T z = w (decreasing order); z indexed by row.
  x_.assign(static_cast<size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const size_t sk = static_cast<size_t>(k);
    double acc = w_[sk];
    for (int q = l_start_[sk]; q < l_start_[sk + 1]; ++q) {
      const Entry& e = l_[static_cast<size_t>(q)];
      acc -= e.val * x_[static_cast<size_t>(e.idx)];
    }
    x_[static_cast<size_t>(prow_[sk])] = acc;
  }
  b.swap(x_);
}

bool BasisLu::update(const std::vector<double>& spike, int pos) {
  CGRAF_DCHECK(static_cast<int>(spike.size()) == m_);
  CGRAF_DCHECK(pos >= 0 && pos < m_);
  double norm = 0.0;
  for (const double v : spike) norm = std::max(norm, std::abs(v));
  const double piv = spike[static_cast<size_t>(pos)];
  if (std::abs(piv) <= kPivotTol || std::abs(piv) < 1e-7 * norm) return false;

  eta_pos_.push_back(pos);
  eta_pivot_.push_back(piv);
  for (int i = 0; i < m_; ++i) {
    if (i == pos) continue;
    const double v = spike[static_cast<size_t>(i)];
    if (std::abs(v) > kDropTol) eta_.push_back({i, v});
  }
  eta_start_.push_back(static_cast<int>(eta_.size()));
  return true;
}

int BasisLu::factor_nnz() const {
  return static_cast<int>(l_.size() + u_.size() + eta_.size() +
                          eta_pos_.size() + pivot_.size());
}

}  // namespace cgraf::milp
