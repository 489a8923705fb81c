// Shape assertions over the committed experiment goldens.
//
// tests/golden/experiments/<id>.quick.txt is pinned byte for byte to
// `bench_paper <id> --quick` by the experiment_<id> ctest cases, so those
// cases catch any change of a number. These tests pin the direction the
// paper predicts instead: a golden regenerated after an intended change must
// still show it. Each bound is derived from the committed quick value with
// the margin stated next to it; a bound is never widened to fit new output.

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef FAULTROUTE_SOURCE_DIR
#error "test_paper_shapes requires FAULTROUTE_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace {

/// One printed table of an experiment golden. Table::to_string separates
/// columns by at least two spaces, so column starts are read off the header
/// line; cells may contain single spaces ("2.0 (Thm 10)").
class GoldenTable {
 public:
  GoldenTable(const std::string& id, const std::string& title) {
    const std::string path =
        std::string(FAULTROUTE_SOURCE_DIR) + "/tests/golden/experiments/" + id + ".quick.txt";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    const std::string banner = "== " + title + ":";
    std::string line;
    while (std::getline(in, line) && line.rfind(banner, 0) != 0) {
    }
    if (!in) throw std::runtime_error("no table '" + title + "' in " + path);
    std::getline(in, header_);
    for (std::size_t i = 0; i < header_.size();) {
      starts_.push_back(i);
      const std::size_t gap = header_.find("  ", i);
      if (gap == std::string::npos) break;
      i = header_.find_first_not_of(' ', gap);
      if (i == std::string::npos) break;
    }
    std::getline(in, line);  // the rule under the header
    while (std::getline(in, line) && !line.empty()) rows_.push_back(line);
  }

  /// The cell of `column` in the first row whose first cell is `key`.
  [[nodiscard]] std::string cell(const std::string& key, const std::string& column) const {
    const std::size_t c = column_index(column);
    for (const std::string& row : rows_) {
      if (field(row, 0) == key) return field(row, c);
    }
    throw std::runtime_error("no row '" + key + "'");
  }

  [[nodiscard]] double number(const std::string& key, const std::string& column) const {
    return std::stod(cell(key, column));
  }

 private:
  [[nodiscard]] std::size_t column_index(const std::string& column) const {
    for (std::size_t c = 0; c < starts_.size(); ++c) {
      if (field(header_, c) == column) return c;
    }
    throw std::runtime_error("no column '" + column + "'");
  }

  [[nodiscard]] std::string field(const std::string& line, std::size_t c) const {
    const std::size_t end = c + 1 < starts_.size() ? starts_[c + 1] : line.size();
    std::string text = line.substr(starts_[c], end - starts_[c]);
    text.erase(text.find_last_not_of(' ') + 1);
    return text;
  }

  std::string header_;
  std::vector<std::size_t> starts_;
  std::vector<std::string> rows_;
};

TEST(PaperShapes, HypercubeProbesBlowUpAcrossAlphaHalf) {
  // Theorem 3: routing turns from polynomial to super-polynomial as alpha
  // crosses 1/2. Committed quick blow-up factors (alpha 0.65 over 0.45):
  // 3.7 at n = 10 and 3.6 at n = 12; the bound keeps a factor of 2.
  const GoldenTable verdict("hypercube-phase", "E1 verdict");
  EXPECT_GE(verdict.number("10", "blowup_factor"), 2.0);
  EXPECT_GE(verdict.number("12", "blowup_factor"), 2.0);
}

TEST(PaperShapes, GnpOracleScalesBelowLocalRouting) {
  // Theorems 10 and 11: local routing costs Theta(n^2), the oracle router
  // Theta(n^{3/2}). Committed quick log-log exponents: local 1.62, oracle
  // 1.40. The bound is the ordering itself.
  const GoldenTable fits("gnp-routing", "E6 fits");
  EXPECT_LT(fits.number("oracle", "loglog_exponent"), fits.number("local", "loglog_exponent"));
}

TEST(PaperShapes, GnpLocalOracleGapGrowsWithN) {
  // The gap local/oracle is Theta(sqrt n), so it grows with n. Committed
  // quick gaps: 5.2 at n = 500 and 8.7 at n = 1000; the bound is growth.
  const GoldenTable gap("gnp-routing", "E6 gap");
  EXPECT_GT(gap.number("1000", "gap"), gap.number("500", "gap"));
}

}  // namespace
