// Sparse basis factorization for the revised simplex.
//
// The LP constraint matrices in this library are sparse (chord rows carry
// two or three structural entries, cut rows a handful) and the simplex
// basis changes by one column per pivot, so refactorizing a dense B every
// iteration would waste almost all of its work.  This module provides the
// three pieces the revised simplex needs:
//
//  * SparseColumns -- compressed column storage (CSC), built once.
//  * SparseLu      -- LU of a sparse basis with Markowitz pivoting: each
//                     elimination step picks the admissible entry with the
//                     smallest (r_i-1)(c_j-1) fill bound, subject to a
//                     relative column-magnitude threshold for stability.
//                     Row and column counts and column maxima are kept
//                     current as rows are eliminated, and zero-score
//                     pivots (column singletons, admissible row singletons
//                     -- the slack and artificial columns that make up
//                     most simplex bases) come from a queue of candidate
//                     columns, so a step costs work in proportion to its
//                     pivot row and column; only the nucleus left without
//                     singletons is scanned in full.  The pivots are the
//                     ones a full rescan of the active submatrix at every
//                     step would choose.  The stored L and U columns serve
//                     all four triangular solves, so one factorization
//                     answers both FTRAN (B x = b) and BTRAN (B^T y = c).
//  * EtaFile       -- product-form rank-1 updates: replacing basis column
//                     r by a column with FTRAN image w multiplies B by an
//                     elementary matrix E (identity except column r = w),
//                     and B_new^{-1} = E^{-1} B^{-1}.  Applying an eta
//                     costs O(nnz(w)); a solve through base factor + eta
//                     file replaces a refactorization per pivot.
//
// Everything here is deterministic: pivot ties break on the smallest
// (markowitz, column, row) tuple, eta entries are gathered in index order,
// and no randomized or timing-dependent choices exist.  Two runs on the
// same inputs produce bit-identical factors and solves on any thread.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace hslb::linalg {

/// Compressed-column (CSC) matrix.  Columns are appended once via
/// add_entry()/finish_column(), or all at once by assign_transpose(), and
/// then read through spans; reset() recycles the storage for the next
/// build.
class SparseColumns {
 public:
  SparseColumns() = default;
  explicit SparseColumns(int rows) { reset(rows); }

  void reset(int rows) {
    rows_ = rows;
    start_.assign(1, 0);
    index_.clear();
    value_.clear();
  }

  /// Append an entry to the column currently under construction.  Zeros are
  /// skipped so callers can feed dense rows without pre-filtering.
  void add_entry(int row, double value) {
    if (value != 0.0) {
      index_.push_back(row);
      value_.push_back(value);
    }
  }

  /// Close the column under construction (every column must be closed, even
  /// when empty).
  void finish_column() { start_.push_back(static_cast<int>(index_.size())); }

  /// Rebuild as the `cols`-column transpose of a row-compressed matrix: row
  /// i holds the (column, value) entries entries[row_start[i] ..
  /// row_start[i + 1]), every column below `cols`.  One counting pass,
  /// O(nnz + cols); each column lists its entries in ascending row order,
  /// and entries are copied as given (zeros too).
  void assign_transpose(
      int cols, std::span<const std::size_t> row_start,
      std::span<const std::pair<std::size_t, double>> entries);

  int rows() const { return rows_; }
  int cols() const { return static_cast<int>(start_.size()) - 1; }
  std::size_t nnz() const { return index_.size(); }

  std::span<const int> col_index(int j) const {
    return std::span<const int>(index_)
        .subspan(static_cast<std::size_t>(start_[j]),
                 static_cast<std::size_t>(start_[j + 1] - start_[j]));
  }
  std::span<const double> col_value(int j) const {
    return std::span<const double>(value_)
        .subspan(static_cast<std::size_t>(start_[j]),
                 static_cast<std::size_t>(start_[j + 1] - start_[j]));
  }

 private:
  int rows_ = 0;
  std::vector<int> start_{0};  // size cols+1
  std::vector<int> index_;
  std::vector<double> value_;
};

struct SparseLuOptions {
  /// A pivot must reach this fraction of its column's largest active
  /// magnitude (the classic threshold-pivoting compromise between fill and
  /// stability).
  double rel_pivot_tol = 0.1;
  /// Below this absolute magnitude a candidate is treated as zero; if no
  /// column offers any admissible pivot the matrix is declared singular.
  double abs_pivot_tol = 1e-12;
};

/// Sparse LU with Markowitz pivoting.  factorize() consumes a square CSC
/// matrix (column k = basis position k); ftran()/btran() then solve against
/// B and B^T from the same stored factors.  The elimination scratch lives in
/// the object and keeps its capacity, so refactorizing through one SparseLu
/// allocates nothing once the buffers have grown to the basis size.
class SparseLu {
 public:
  /// Factorize the m x m matrix `b`.  Returns false when singular under the
  /// pivot thresholds; the factor is then unusable.
  bool factorize(const SparseColumns& b, const SparseLuOptions& opts = {});

  int size() const { return m_; }
  bool valid() const { return valid_; }
  /// Entries stored in L and U together (the fill measure the simplex uses
  /// to budget eta growth).
  long factor_nnz() const {
    return static_cast<long>(l_index_.size() + u_index_.size()) + m_;
  }

  /// Solve B x = rhs.  `rhs` is indexed by row, `out` by basis position
  /// (the convention the simplex ratio test wants).  `work` must hold m
  /// doubles.  Aliasing rhs/out is allowed.
  void ftran(std::span<const double> rhs, std::span<double> out,
             std::span<double> work) const;

  /// Solve B^T y = rhs.  `rhs` is indexed by basis position, `out` by row
  /// (the pricing convention).  `work` must hold m doubles.
  void btran(std::span<const double> rhs, std::span<double> out,
             std::span<double> work) const;

 private:
  int m_ = 0;
  bool valid_ = false;
  // Column-compressed L (unit diagonal implicit, entries strictly below it)
  // and U (entries strictly above, diagonal separate), both in pivot-order
  // coordinates.
  std::vector<int> l_start_, u_start_;
  std::vector<int> l_index_, u_index_;
  std::vector<double> l_value_, u_value_;
  std::vector<double> u_diag_;
  std::vector<int> row_at_;  // pivot position k -> original row
  std::vector<int> col_at_;  // pivot position k -> original column

  /// Put column j on the zero-score candidate heap unless it is there.
  void enqueue(int j);

  // Elimination scratch (see factorize()).
  struct Entry {
    int row;
    double value;
  };
  // Active entries of each column: survivors keep their order and fill is
  // appended, which fixes the L and U storage order.  The outer vectors
  // never shrink, so the inner ones keep their capacity.
  std::vector<std::vector<Entry>> cols_;
  // Row -> columns holding an entry in it; may still list eliminated
  // columns.
  std::vector<std::vector<int>> row_cols_;
  std::vector<int> row_count_;  // active columns with an entry in the row
  std::vector<double> col_max_;  // largest active magnitude in the column
  std::vector<int> pos_of_row_, pos_of_col_;  // pivot step, -1 while active
  std::vector<int> mark_;  // row -> slot in the column being updated
  std::vector<int> queue_;  // min-heap of zero-score candidate columns
  std::vector<char> queued_;
  // U entries as (pivot step, original column, value) until the
  // permutation is complete.
  std::vector<int> u_step_, u_col_, fill_at_;
  std::vector<double> u_val_;
};

/// Product-form eta file.  Each record remembers the pivot position r and
/// the FTRAN image w of the entering column; solves stream through the
/// records after (FTRAN) or before (BTRAN, transposed, in reverse) the base
/// factor.  Storage is two flat pools, so clear() recycles capacity and a
/// long solve sequence performs no per-eta allocation in steady state.
class EtaFile {
 public:
  void clear() {
    recs_.clear();
    index_.clear();
    value_.clear();
  }

  int count() const { return static_cast<int>(recs_.size()); }
  long nnz() const { return static_cast<long>(index_.size()); }

  /// Append an update: basis position r replaced by a column whose FTRAN
  /// image (through base factor + existing etas) is the dense vector `w`.
  /// Returns false -- file unchanged -- when |w[r]| falls below
  /// `stability_tol * max(1, ||w||_inf)`: such an eta would amplify error
  /// on every later solve, and the caller must refactorize instead.
  bool append(std::span<const double> w, int r, double stability_tol);

  /// Apply every eta in order: x := E_k^{-1} ... E_1^{-1} x.
  void apply_ftran(std::span<double> x) const;

  /// Apply every eta transposed in reverse order (the BTRAN prologue).
  void apply_btran(std::span<double> y) const;

 private:
  struct Rec {
    int start = 0;  // into index_/value_
    int len = 0;
    int r = 0;      // pivot position
    double wr = 0;  // w[r]
  };
  std::vector<Rec> recs_;
  std::vector<int> index_;
  std::vector<double> value_;
};

}  // namespace hslb::linalg
