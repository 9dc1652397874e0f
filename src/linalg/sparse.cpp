// Markowitz-pivoting sparse LU and the product-form eta file.
//
// The factorization is a right-looking elimination over compacted column
// lists.  The pivot rule is the plain Markowitz one: the smallest
// (score, column, row) among threshold-admissible active entries, score =
// (row count - 1) * (column count - 1).  Simplex bases are mostly slack and
// artificial singletons, so most steps have a score-0 pivot, and the
// elimination is organized to find those without scanning:
//
//  * each column keeps only its active entries, a row -> columns index
//    reaches the columns a pivot row touches, and row counts and column
//    maxima are updated as each pivot row and column leave;
//  * a min-heap holds every column that may offer a score-0 pivot (a
//    column singleton, or an admissible entry in a row singleton).  A
//    column is queued whenever its entries, its count or the count of one
//    of its rows changes, and is checked when it comes off the heap, so the
//    first column that passes is the smallest one with a score-0 pivot;
//  * only when the heap runs dry -- on the nucleus that is left once the
//    singletons are gone -- does a step scan every active entry.
//
// A step therefore costs work in proportion to its pivot row and column.
// The pivot sequence, and with it every L and U entry and its storage
// order, is the one the rule picks when it rescans the whole active
// submatrix at every step: no choice depends on the queue's history.
#include "hslb/linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "hslb/common/error.hpp"

namespace hslb::linalg {

void SparseColumns::assign_transpose(
    int cols, std::span<const std::size_t> row_start,
    std::span<const std::pair<std::size_t, double>> entries) {
  HSLB_ASSERT(!row_start.empty() && row_start.back() == entries.size(),
              "row_start must close on the entry count");
  rows_ = static_cast<int>(row_start.size()) - 1;
  const auto n = static_cast<std::size_t>(cols);
  // Count column j's entries in start_[j + 2]; the prefix sum then leaves
  // column j's first slot in start_[j + 1], which serves as its fill cursor
  // and ends at column j's end, i.e. the next column's start.
  start_.assign(n + 2, 0);
  for (const auto& e : entries) {
    ++start_[e.first + 2];
  }
  for (std::size_t j = 2; j < n + 2; ++j) {
    start_[j] += start_[j - 1];
  }
  index_.resize(entries.size());
  value_.resize(entries.size());
  for (std::size_t i = 0; i + 1 < row_start.size(); ++i) {
    for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
      const auto slot =
          static_cast<std::size_t>(start_[entries[k].first + 1]++);
      index_[slot] = static_cast<int>(i);
      value_[slot] = entries[k].second;
    }
  }
  start_.pop_back();
}

void SparseLu::enqueue(int j) {
  auto& queued = queued_[static_cast<std::size_t>(j)];
  if (queued == 0) {
    queued = 1;
    queue_.push_back(j);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
  }
}

bool SparseLu::factorize(const SparseColumns& b, const SparseLuOptions& opts) {
  const int m = b.rows();
  HSLB_ASSERT(b.cols() == m, "SparseLu requires a square matrix");
  const auto sm = static_cast<std::size_t>(m);
  m_ = m;
  valid_ = false;
  l_start_.assign(1, 0);
  u_start_.clear();
  l_index_.clear();
  l_value_.clear();
  u_index_.clear();
  u_value_.clear();
  u_diag_.assign(sm, 0.0);
  row_at_.assign(sm, 0);
  col_at_.assign(sm, 0);
  if (m == 0) {
    valid_ = true;
    return true;
  }

  if (cols_.size() < sm) {
    cols_.resize(sm);
    row_cols_.resize(sm);
  }
  row_count_.assign(sm, 0);
  col_max_.assign(sm, 0.0);
  pos_of_row_.assign(sm, -1);
  pos_of_col_.assign(sm, -1);
  mark_.assign(sm, -1);
  queued_.assign(sm, 0);
  queue_.clear();
  u_step_.clear();
  u_col_.clear();
  u_val_.clear();
  const auto column_max = [](const std::vector<Entry>& col) {
    double cm = 0.0;
    for (const Entry& e : col) {
      const double av = std::fabs(e.value);
      if (av > cm) {
        cm = av;
      }
    }
    return cm;
  };
  for (std::size_t i = 0; i < sm; ++i) {
    row_cols_[i].clear();
  }
  for (int j = 0; j < m; ++j) {
    auto& cj = cols_[static_cast<std::size_t>(j)];
    cj.clear();
    const auto idx = b.col_index(j);
    const auto val = b.col_value(j);
    for (std::size_t t = 0; t < idx.size(); ++t) {
      cj.push_back({idx[t], val[t]});
      ++row_count_[static_cast<std::size_t>(idx[t])];
      row_cols_[static_cast<std::size_t>(idx[t])].push_back(j);
    }
    col_max_[static_cast<std::size_t>(j)] = column_max(cj);
    if (cj.size() == 1) {
      enqueue(j);
    }
  }
  for (std::size_t i = 0; i < sm; ++i) {
    if (row_count_[i] == 1) {
      enqueue(row_cols_[i].front());
    }
  }

  const auto threshold = [&](int j) {
    return std::max(opts.abs_pivot_tol,
                    opts.rel_pivot_tol * col_max_[static_cast<std::size_t>(j)]);
  };

  for (int k = 0; k < m; ++k) {
    int piv_row = -1;
    int piv_col = -1;
    double piv_value = 0.0;

    // Score-0 pivot: the smallest queued column that still offers one,
    // at its smallest such row.
    while (piv_row < 0 && !queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      const int j = queue_.back();
      queue_.pop_back();
      queued_[static_cast<std::size_t>(j)] = 0;
      if (pos_of_col_[static_cast<std::size_t>(j)] >= 0) {
        continue;
      }
      const auto& cj = cols_[static_cast<std::size_t>(j)];
      const bool singleton = cj.size() == 1;
      const double thresh = threshold(j);
      for (const Entry& e : cj) {
        if (std::fabs(e.value) < thresh ||
            (!singleton && row_count_[static_cast<std::size_t>(e.row)] != 1)) {
          continue;
        }
        if (piv_row < 0 || e.row < piv_row) {
          piv_row = e.row;
          piv_col = j;
          piv_value = e.value;
        }
      }
    }

    // Nucleus: no score-0 pivot anywhere, so scan every active entry for
    // the smallest (score, column, row).
    if (piv_row < 0) {
      long piv_score = 0;
      for (int j = 0; j < m; ++j) {
        if (pos_of_col_[static_cast<std::size_t>(j)] >= 0) {
          continue;
        }
        const auto& cj = cols_[static_cast<std::size_t>(j)];
        const double thresh = threshold(j);
        for (const Entry& e : cj) {
          if (std::fabs(e.value) < thresh) {
            continue;
          }
          const long score =
              static_cast<long>(row_count_[static_cast<std::size_t>(e.row)] -
                                1) *
              static_cast<long>(cj.size() - 1);
          if (piv_row < 0 || score < piv_score ||
              (score == piv_score &&
               (j < piv_col || (j == piv_col && e.row < piv_row)))) {
            piv_row = e.row;
            piv_col = j;
            piv_score = score;
            piv_value = e.value;
          }
        }
      }
      if (piv_row < 0) {
        return false;  // no admissible pivot anywhere: numerically singular
      }
    }

    row_at_[static_cast<std::size_t>(k)] = piv_row;
    col_at_[static_cast<std::size_t>(k)] = piv_col;
    pos_of_row_[static_cast<std::size_t>(piv_row)] = k;
    pos_of_col_[static_cast<std::size_t>(piv_col)] = k;
    u_diag_[static_cast<std::size_t>(k)] = piv_value;

    // L column k: the pivot column's other entries, scaled.  The pivot
    // column leaves the active submatrix, so each of their rows loses one.
    const std::size_t l_begin = l_index_.size();
    for (const Entry& e : cols_[static_cast<std::size_t>(piv_col)]) {
      if (e.row != piv_row) {
        l_index_.push_back(e.row);  // original row id; remapped below
        l_value_.push_back(e.value / piv_value);
        --row_count_[static_cast<std::size_t>(e.row)];
      }
    }
    const std::size_t l_end = l_index_.size();
    l_start_.push_back(static_cast<int>(l_end));

    // Eliminate the pivot row from the other active columns that hold an
    // entry in it: drop that entry, and where it is nonzero record it in U
    // and subtract its multiple of the L column (fill is appended in L
    // order).
    for (const int j : row_cols_[static_cast<std::size_t>(piv_row)]) {
      if (pos_of_col_[static_cast<std::size_t>(j)] >= 0) {
        continue;
      }
      auto& cj = cols_[static_cast<std::size_t>(j)];
      double u = 0.0;
      std::size_t kept = 0;
      for (const Entry& e : cj) {
        if (e.row == piv_row) {
          u = e.value;
        } else {
          cj[kept++] = e;
        }
      }
      cj.resize(kept);
      if (u != 0.0) {
        u_step_.push_back(k);
        u_col_.push_back(j);
        u_val_.push_back(u);
        if (l_end > l_begin) {
          for (std::size_t t = 0; t < cj.size(); ++t) {
            mark_[static_cast<std::size_t>(cj[t].row)] = static_cast<int>(t);
          }
          for (std::size_t t = l_begin; t < l_end; ++t) {
            const int i = l_index_[t];
            const double contrib = l_value_[t] * u;
            const int at = mark_[static_cast<std::size_t>(i)];
            if (at >= 0) {
              cj[static_cast<std::size_t>(at)].value -= contrib;
            } else {
              cj.push_back({i, -contrib});  // fill-in
              ++row_count_[static_cast<std::size_t>(i)];
              row_cols_[static_cast<std::size_t>(i)].push_back(j);
            }
          }
          for (const Entry& e : cj) {
            mark_[static_cast<std::size_t>(e.row)] = -1;
          }
        }
      }
      col_max_[static_cast<std::size_t>(j)] = column_max(cj);
      enqueue(j);
    }

    // A row of the pivot column left with one active column makes that
    // column a candidate.  Drop eliminated columns from its index on the
    // way.
    for (std::size_t t = l_begin; t < l_end; ++t) {
      const auto i = static_cast<std::size_t>(l_index_[t]);
      if (row_count_[i] != 1) {
        continue;
      }
      auto& ri = row_cols_[i];
      std::erase_if(ri, [&](int j) {
        return pos_of_col_[static_cast<std::size_t>(j)] >= 0;
      });
      enqueue(ri.front());
    }
  }

  // Remap L's original row ids into pivot positions (all strictly below the
  // diagonal: a row active at step k is eliminated at a later step).
  for (int& i : l_index_) {
    i = pos_of_row_[static_cast<std::size_t>(i)];
  }
  // Build column-compressed U from the (step, column, value) triples.  The
  // triples were generated in step order, so each U column's entries land
  // sorted by row position -- a fixed accumulation order for the solves.
  u_start_.assign(sm + 1, 0);
  for (const int j : u_col_) {
    ++u_start_[static_cast<std::size_t>(
                   pos_of_col_[static_cast<std::size_t>(j)]) +
               1];
  }
  for (std::size_t k = 0; k < sm; ++k) {
    u_start_[k + 1] += u_start_[k];
  }
  fill_at_.assign(u_start_.begin(), u_start_.end() - 1);
  u_index_.resize(u_step_.size());
  u_value_.resize(u_step_.size());
  for (std::size_t t = 0; t < u_step_.size(); ++t) {
    const int c = pos_of_col_[static_cast<std::size_t>(u_col_[t])];
    const int at = fill_at_[static_cast<std::size_t>(c)]++;
    u_index_[static_cast<std::size_t>(at)] = u_step_[t];
    u_value_[static_cast<std::size_t>(at)] = u_val_[t];
  }

  valid_ = true;
  return true;
}

void SparseLu::ftran(std::span<const double> rhs, std::span<double> out,
                     std::span<double> work) const {
  HSLB_ASSERT(valid_, "ftran on an invalid factor");
  const int m = m_;
  for (int k = 0; k < m; ++k) {
    work[static_cast<std::size_t>(k)] =
        rhs[static_cast<std::size_t>(row_at_[static_cast<std::size_t>(k)])];
  }
  for (int k = 0; k < m; ++k) {  // L z = Pb, forward
    const double z = work[static_cast<std::size_t>(k)];
    if (z != 0.0) {
      for (int t = l_start_[static_cast<std::size_t>(k)];
           t < l_start_[static_cast<std::size_t>(k) + 1]; ++t) {
        work[static_cast<std::size_t>(l_index_[static_cast<std::size_t>(t)])] -=
            l_value_[static_cast<std::size_t>(t)] * z;
      }
    }
  }
  for (int k = m - 1; k >= 0; --k) {  // U x' = z, backward
    const double z =
        work[static_cast<std::size_t>(k)] / u_diag_[static_cast<std::size_t>(k)];
    work[static_cast<std::size_t>(k)] = z;
    if (z != 0.0) {
      for (int t = u_start_[static_cast<std::size_t>(k)];
           t < u_start_[static_cast<std::size_t>(k) + 1]; ++t) {
        work[static_cast<std::size_t>(u_index_[static_cast<std::size_t>(t)])] -=
            u_value_[static_cast<std::size_t>(t)] * z;
      }
    }
  }
  for (int k = 0; k < m; ++k) {
    out[static_cast<std::size_t>(col_at_[static_cast<std::size_t>(k)])] =
        work[static_cast<std::size_t>(k)];
  }
}

void SparseLu::btran(std::span<const double> rhs, std::span<double> out,
                     std::span<double> work) const {
  HSLB_ASSERT(valid_, "btran on an invalid factor");
  const int m = m_;
  for (int k = 0; k < m; ++k) {
    work[static_cast<std::size_t>(k)] =
        rhs[static_cast<std::size_t>(col_at_[static_cast<std::size_t>(k)])];
  }
  for (int k = 0; k < m; ++k) {  // U^T z = c', forward
    double s = work[static_cast<std::size_t>(k)];
    for (int t = u_start_[static_cast<std::size_t>(k)];
         t < u_start_[static_cast<std::size_t>(k) + 1]; ++t) {
      s -= u_value_[static_cast<std::size_t>(t)] *
           work[static_cast<std::size_t>(u_index_[static_cast<std::size_t>(t)])];
    }
    work[static_cast<std::size_t>(k)] =
        s / u_diag_[static_cast<std::size_t>(k)];
  }
  for (int k = m - 1; k >= 0; --k) {  // L^T w = z, backward
    double s = work[static_cast<std::size_t>(k)];
    for (int t = l_start_[static_cast<std::size_t>(k)];
         t < l_start_[static_cast<std::size_t>(k) + 1]; ++t) {
      s -= l_value_[static_cast<std::size_t>(t)] *
           work[static_cast<std::size_t>(l_index_[static_cast<std::size_t>(t)])];
    }
    work[static_cast<std::size_t>(k)] = s;
  }
  for (int k = 0; k < m; ++k) {
    out[static_cast<std::size_t>(row_at_[static_cast<std::size_t>(k)])] =
        work[static_cast<std::size_t>(k)];
  }
}

bool EtaFile::append(std::span<const double> w, int r, double stability_tol) {
  double winf = 0.0;
  for (const double v : w) {
    const double av = std::fabs(v);
    if (av > winf) {
      winf = av;
    }
  }
  const double wr = w[static_cast<std::size_t>(r)];
  if (std::fabs(wr) < stability_tol * std::max(1.0, winf)) {
    return false;
  }
  Rec rec;
  rec.start = static_cast<int>(index_.size());
  rec.r = r;
  rec.wr = wr;
  for (int i = 0; i < static_cast<int>(w.size()); ++i) {
    const double v = w[static_cast<std::size_t>(i)];
    if (i != r && v != 0.0) {
      index_.push_back(i);
      value_.push_back(v);
    }
  }
  rec.len = static_cast<int>(index_.size()) - rec.start;
  recs_.push_back(rec);
  return true;
}

void EtaFile::apply_ftran(std::span<double> x) const {
  for (const Rec& rec : recs_) {
    const double xr = x[static_cast<std::size_t>(rec.r)] / rec.wr;
    for (int t = rec.start; t < rec.start + rec.len; ++t) {
      x[static_cast<std::size_t>(index_[static_cast<std::size_t>(t)])] -=
          value_[static_cast<std::size_t>(t)] * xr;
    }
    x[static_cast<std::size_t>(rec.r)] = xr;
  }
}

void EtaFile::apply_btran(std::span<double> y) const {
  for (auto it = recs_.rbegin(); it != recs_.rend(); ++it) {
    const Rec& rec = *it;
    double s = y[static_cast<std::size_t>(rec.r)];
    for (int t = rec.start; t < rec.start + rec.len; ++t) {
      s -= value_[static_cast<std::size_t>(t)] *
           y[static_cast<std::size_t>(index_[static_cast<std::size_t>(t)])];
    }
    y[static_cast<std::size_t>(rec.r)] = s / rec.wr;
  }
}

}  // namespace hslb::linalg
