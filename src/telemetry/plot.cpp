#include "telemetry/plot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace ccml {

namespace {
constexpr char kGlyphs[] = {'*', 'o', '+', 'x', '#', '@', '%', '&'};
constexpr int kPlotWidth = 78;  // columns of the plot area
}

std::string render_plot(const std::vector<Series>& series,
                        PlotOptions options) {
  double xmin = std::numeric_limits<double>::infinity();
  double xmax = -xmin, ymin = xmin, ymax = -xmin;
  for (const Series& s : series) {
    for (const auto& [x, y] : s.points) {
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
  }
  if (!std::isfinite(xmin) || !std::isfinite(ymin)) return "(no data)\n";
  if (xmax == xmin) xmax = xmin + 1;
  if (ymax == ymin) ymax = ymin + 1;

  const int W = kPlotWidth, H = options.height;
  std::vector<std::string> grid(H, std::string(W, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char g = kGlyphs[si % sizeof(kGlyphs)];
    for (const auto& [x, y] : series[si].points) {
      const int col = static_cast<int>((x - xmin) / (xmax - xmin) * (W - 1));
      const int row = static_cast<int>((y - ymin) / (ymax - ymin) * (H - 1));
      grid[H - 1 - row][col] = g;
    }
  }

  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%10.3g +", ymax);
  out += buf;
  out += std::string(W, '-') + "\n";
  for (int r = 0; r < H; ++r) {
    out += "           |" + grid[r] + "\n";
  }
  std::snprintf(buf, sizeof(buf), "%10.3g +", ymin);
  out += buf;
  out += std::string(W, '-') + "\n";
  std::snprintf(buf, sizeof(buf), "            %-12.4g%*s%12.4g  (%s)\n", xmin,
                W - 24, "", xmax, options.x_label.c_str());
  out += buf;
  for (std::size_t si = 0; si < series.size(); ++si) {
    std::snprintf(buf, sizeof(buf), "            %c = %s\n",
                  kGlyphs[si % sizeof(kGlyphs)], series[si].name.c_str());
    out += buf;
  }
  return out;
}

Series cdf_series(std::string name, const Cdf& cdf, std::size_t points) {
  Series s;
  s.name = std::move(name);
  for (const auto& [value, frac] : cdf.curve(points)) {
    s.points.emplace_back(value, frac);
  }
  return s;
}

std::string render_circle(const std::vector<CircularIntervalSet>& rings,
                          const std::vector<char>& glyphs, int radius) {
  const int R = radius;
  const int W = 2 * (R + static_cast<int>(rings.size()) * 2) + 3;
  const int H = W;
  const double cx = W / 2.0, cy = H / 2.0;
  std::vector<std::string> grid(H, std::string(W, ' '));

  for (std::size_t ri = 0; ri < rings.size(); ++ri) {
    const CircularIntervalSet& set = rings[ri];
    const double rr = R + 2.0 * static_cast<double>(ri);
    const double per = static_cast<double>(set.perimeter().ns());
    const int steps = 360;
    for (int a = 0; a < steps; ++a) {
      // Counter-clockwise from the positive x-axis, like the paper's figures.
      const double frac = static_cast<double>(a) / steps;
      const double theta = 2.0 * M_PI * frac;
      const int col = static_cast<int>(std::lround(cx + rr * std::cos(theta)));
      const int row = static_cast<int>(
          std::lround(cy - rr * 0.55 * std::sin(theta)));  // terminal aspect
      if (col < 0 || col >= W || row < 0 || row >= H) continue;
      const Duration pos = Duration::nanos(
          static_cast<std::int64_t>(frac * per));
      const bool covered = set.contains(pos);
      const char glyph = covered
                             ? (ri < glyphs.size() ? glyphs[ri] : '#')
                             : '.';
      if (grid[row][col] == ' ' || covered) grid[row][col] = glyph;
    }
  }

  std::string out;
  for (const std::string& line : grid) out += line + "\n";
  return out;
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  std::string out;
  for (const double v : values) {
    int idx = hi == lo ? 0
                       : static_cast<int>((v - lo) / (hi - lo) * 7.999);
    idx = std::clamp(idx, 0, 7);
    out += kBlocks[idx];
  }
  return out;
}

}  // namespace ccml
