// ASCII plotting for bench output: line charts for time series (Fig. 1b/1c,
// Fig. 2), CDF curves (Fig. 1d) and circle diagrams for the geometric
// abstraction (Fig. 3/4/5).
#pragma once

#include <string>
#include <vector>

#include "util/circular.h"
#include "util/stats.h"

namespace ccml {

/// One named series of (x, y) points.
struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

struct PlotOptions {
  int height = 16;
  std::string x_label;
};

/// Renders one or more series on a shared scale, 78 columns wide; each
/// series gets its own glyph ('*', 'o', '+', ...).
std::string render_plot(const std::vector<Series>& series,
                        PlotOptions options = {});

/// Renders a CDF as a plot series.
Series cdf_series(std::string name, const Cdf& cdf, std::size_t points = 60);

/// Renders circular interval sets as concentric text rings — the paper's
/// circle figures.  Each set is drawn as one ring; covered arcs print the
/// set's glyph.
std::string render_circle(const std::vector<CircularIntervalSet>& rings,
                          const std::vector<char>& glyphs, int radius = 11);

/// One-line sparkline of values (8-level unicode blocks).
std::string sparkline(const std::vector<double>& values);

}  // namespace ccml
