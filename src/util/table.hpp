// Aligned ASCII tables — the harness prints the paper's tables/series as
// human-readable rows (and mirrors them to CSV, see csv.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cspls::util {

/// Column alignment within a rendered table.
enum class Align { kLeft, kRight };

/// Simple row/column text table.  Build with add_row(); render() pads and
/// aligns each column to its widest cell and draws a header separator.
class Table {
 public:
  explicit Table(std::vector<std::string> headers,
                 std::vector<Align> aligns = {});

  /// Append a row; it must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number formatting helpers (fixed decimals / significant digits).
  static std::string num(double value, int decimals = 2);
  static std::string sig(double value, int significant = 3);

  /// Render as aligned text, optionally with a title line above.
  [[nodiscard]] std::string render(std::string_view title = {}) const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cspls::util
