#include "telemetry/table.h"

#include <algorithm>
#include <cstdio>

namespace ccml {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back({false, std::move(cells)});
}

void TextTable::add_rule() { rows_.push_back({true, {}}); }

std::string TextTable::num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const Row& r : rows_) {
    if (r.rule) continue;
    for (std::size_t c = 0; c < r.cells.size(); ++c) {
      widths[c] = std::max(widths[c], r.cells[c].size());
    }
  }
  auto render_line = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      line += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };
  auto rule = [&] {
    std::string line = "+";
    for (const std::size_t w : widths) {
      line += std::string(w + 2, '-') + "+";
    }
    return line + "\n";
  };
  std::string out = rule() + render_line(headers_) + rule();
  for (const Row& r : rows_) {
    out += r.rule ? rule() : render_line(r.cells);
  }
  // A rule as the last row already closes the table.
  if (rows_.empty() || !rows_.back().rule) out += rule();
  return out;
}

}  // namespace ccml
