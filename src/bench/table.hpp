// Minimal aligned-table printer for the scot_figs figure/table grids.
// Output mirrors the series the paper plots: one row per thread count, one
// column per SMR scheme.
#pragma once

#include <string>
#include <vector>

namespace scot::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  // Renders as a GitHub-style markdown table.
  std::string str() const;
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string format_double(double v, int precision = 2);
std::string format_si(double v);  // 1234567 -> "1.23M"

}  // namespace scot::bench
