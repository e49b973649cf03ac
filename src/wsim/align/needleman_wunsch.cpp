#include "wsim/align/needleman_wunsch.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "wsim/align/matrix.hpp"

namespace wsim::align {

namespace {

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

std::int32_t gap_cost(const SwParams& params, std::size_t length) noexcept {
  return length == 0 ? 0
                     : params.gap_open +
                           static_cast<std::int32_t>(length - 1) * params.gap_extend;
}

/// Traceback record of one cell, one byte: where H came from (low two
/// bits) and whether E and F extended an open gap.
enum class HFrom : std::uint8_t { kDiag = 0, kVertical = 1, kHorizontal = 2 };
constexpr std::uint8_t kFromMask = 3;
constexpr std::uint8_t kEExtends = 4;
constexpr std::uint8_t kFExtends = 8;

}  // namespace

NwAlignment nw_align(std::string_view query, std::string_view target,
                     const SwParams& params) {
  const std::size_t m = query.size();
  const std::size_t n = target.size();
  // Scores roll row by row as in nw_score; only the traceback bits keep the
  // whole (m + 1) x (n + 1) table. Row 0 and column 0 need no bits: the
  // traceback walks the borders without reading them.
  std::vector<std::int32_t> h(n + 1);
  std::vector<std::int32_t> f(n + 1, kNegInf);  // vertical (consumes query)
  Matrix<std::uint8_t> trace(m + 1, n + 1, 0);
  for (std::size_t j = 0; j <= n; ++j) {
    h[j] = gap_cost(params, j);
  }

  for (std::size_t i = 1; i <= m; ++i) {
    std::int32_t diag_prev = h[0];  // H(i-1, 0)
    h[0] = gap_cost(params, i);
    std::int32_t e = kNegInf;  // horizontal (consumes target), E(i, j-1)
    for (std::size_t j = 1; j <= n; ++j) {
      std::uint8_t bits = 0;
      const std::int32_t open_h = h[j - 1] + params.gap_open;
      const std::int32_t extend_h = e + params.gap_extend;
      if (extend_h > open_h) {
        e = extend_h;
        bits |= kEExtends;
      } else {
        e = open_h;
      }
      const std::int32_t open_v = h[j] + params.gap_open;
      const std::int32_t extend_v = f[j] + params.gap_extend;
      if (extend_v > open_v) {
        f[j] = extend_v;
        bits |= kFExtends;
      } else {
        f[j] = open_v;
      }
      const std::int32_t diag =
          diag_prev + substitution_score(params, query[i - 1], target[j - 1]);
      diag_prev = h[j];
      // Precedence on ties: diagonal > vertical > horizontal.
      std::int32_t best = diag;
      HFrom from = HFrom::kDiag;
      if (f[j] > best) {
        best = f[j];
        from = HFrom::kVertical;
      }
      if (e > best) {
        best = e;
        from = HFrom::kHorizontal;
      }
      h[j] = best;
      trace(i, j) = static_cast<std::uint8_t>(bits | static_cast<std::uint8_t>(from));
    }
  }

  NwAlignment result;
  result.score = h[n];

  std::vector<std::pair<char, std::size_t>> ops;
  auto push = [&ops](char op) {
    if (!ops.empty() && ops.back().first == op) {
      ++ops.back().second;
    } else {
      ops.emplace_back(op, 1);
    }
  };

  std::size_t i = m;
  std::size_t j = n;
  while (i > 0 || j > 0) {
    if (i == 0) {
      push('D');
      --j;
      continue;
    }
    if (j == 0) {
      push('I');
      --i;
      continue;
    }
    switch (static_cast<HFrom>(trace(i, j) & kFromMask)) {
      case HFrom::kDiag:
        push('M');
        --i;
        --j;
        break;
      case HFrom::kVertical:
        // Follow the F chain while it extends.
        while ((trace(i, j) & kFExtends) != 0 && i > 1) {
          push('I');
          --i;
        }
        push('I');
        --i;
        break;
      case HFrom::kHorizontal:
        while ((trace(i, j) & kEExtends) != 0 && j > 1) {
          push('D');
          --j;
        }
        push('D');
        --j;
        break;
    }
  }

  std::string cigar;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    cigar += std::to_string(it->second);
    cigar += it->first;
  }
  result.cigar = std::move(cigar);
  return result;
}

std::int32_t nw_score(std::string_view query, std::string_view target,
                      const SwParams& params) {
  const std::size_t m = query.size();
  const std::size_t n = target.size();
  std::vector<std::int32_t> h(n + 1);
  std::vector<std::int32_t> f(n + 1, kNegInf);
  h[0] = 0;
  for (std::size_t j = 1; j <= n; ++j) {
    h[j] = gap_cost(params, j);
  }
  for (std::size_t i = 1; i <= m; ++i) {
    std::int32_t diag_prev = h[0];  // H(i-1, 0)
    h[0] = gap_cost(params, i);
    std::int32_t e_row = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      e_row = std::max(h[j - 1] + params.gap_open, e_row + params.gap_extend);
      f[j] = std::max(h[j] + params.gap_open, f[j] + params.gap_extend);
      const std::int32_t diag =
          diag_prev + substitution_score(params, query[i - 1], target[j - 1]);
      diag_prev = h[j];
      h[j] = std::max({diag, e_row, f[j]});
    }
  }
  return h[n];
}

}  // namespace wsim::align
