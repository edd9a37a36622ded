// Sparse LU factorization of a simplex basis with product-form (eta) updates.
//
// The basis matrices arising from the floorplanner's assignment-style models
// are extremely sparse (a few nonzeros per column, many slack columns), so a
// Markowitz-ordered right-looking elimination keeps fill-in near zero and
// makes FTRAN/BTRAN effectively linear in the basis nonzero count.
//
// The factors and the eta file live in flat arrays, and the elimination and
// solve workspaces are members that keep their capacity from one call to the
// next: once an object has factorized a basis of a given size, refactorizing,
// updating and solving on same-size bases allocate nothing. One object
// serves one thread (each SimplexEngine owns its own).
#pragma once

#include <vector>

#include "milp/sparse.h"

namespace cgraf::milp {

class BasisLu {
 public:
  // Factorizes B, the m x m matrix whose p-th column is A.column(basis[p]).
  // Returns false if B is numerically singular.
  bool factorize(const CscMatrix& a, const std::vector<int>& basis);

  // Solves B x = b in place (b dense, size m).
  void ftran(std::vector<double>& b);

  // Solves B^T x = b in place.
  void btran(std::vector<double>& b);

  // Product-form update: the basis column at position `pos` is replaced by a
  // column whose FTRAN image (spike) is `spike` (dense, size m, as returned
  // by ftran of the entering column). Returns false when the spike pivot is
  // too small, in which case the caller must refactorize instead.
  bool update(const std::vector<double>& spike, int pos);

  int num_updates() const { return static_cast<int>(eta_pos_.size()); }
  int dim() const { return m_; }

  // Total nonzeros in L and U factors (diagnostics / refactor policy).
  int factor_nnz() const;

 private:
  struct Entry {
    int idx;
    double val;
  };

  int m_ = 0;
  // Elimination pivots in order: at step k, pivot at (prow_[k], pcol_[k]).
  std::vector<int> prow_, pcol_;
  std::vector<double> pivot_;
  // Step k's multipliers a_iq/pivot for the rows i active at step k are
  // l_[l_start_[k] .. l_start_[k+1]); its U row, the row-p entries
  // (column position j, value) active at step k, is u_[u_start_[k] ..
  // u_start_[k+1]).
  std::vector<Entry> l_, u_;
  std::vector<int> l_start_, u_start_;
  // Eta file in application order: eta t replaces basis position
  // eta_pos_[t], pivots on eta_pivot_[t] (spike[pos]) and carries the spike
  // entries with idx != pos in eta_[eta_start_[t] .. eta_start_[t+1]).
  std::vector<int> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<Entry> eta_;
  std::vector<int> eta_start_;

  // Elimination workspace. Only the first m_ lists of cols_ and row_adj_ and
  // the first m_+1 of bucket_ are in use; factorize clears them.
  std::vector<std::vector<Entry>> cols_;   // active column p: (row, value)
  std::vector<std::vector<int>> row_adj_;  // columns with an entry in row r
  std::vector<std::vector<int>> bucket_;   // columns by active count (lazy)
  std::vector<int> row_count_, col_count_, col_stamp_, pattern_;
  std::vector<char> row_alive_, col_alive_, in_work_;
  std::vector<double> work_;
  // Solve scratch: filled, then swapped into the caller's vector.
  std::vector<double> x_, w_;
};

}  // namespace cgraf::milp
