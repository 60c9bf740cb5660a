#include "cc/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace ccml {

namespace {

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw std::invalid_argument("cc-table line " + std::to_string(line) + ": " +
                              what);
}

double parse_num(const std::string& tok, int line, const char* what) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != tok.size()) {
    parse_fail(line, std::string("bad ") + what + " '" + tok + "'");
  }
  return v;
}

// A bin selector: a non-negative integer or the `*` wildcard (-1).
std::int32_t parse_selector(const std::string& tok, int line) {
  if (tok == "*") return -1;
  const double v = parse_num(tok, line, "bin selector");
  const auto i = static_cast<std::int32_t>(v);
  if (static_cast<double>(i) != v || i < 0) {
    parse_fail(line, "bin selector '" + tok + "' is not a non-negative int");
  }
  return i;
}

constexpr const char* kDimNames[4] = {"rtt_us", "gradient", "ecn", "progress"};

}  // namespace

std::int32_t CcPolicyTable::bin_of(double x,
                                   const std::vector<double>& edges) {
  // Bin k holds edges[k-1] < x <= ... (upper_bound): K edges -> K+1 bins.
  return static_cast<std::int32_t>(
      std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
}

CcPolicyTable CcPolicyTable::parse(std::istream& in) {
  CcPolicyTable t;
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  bool saw_default = false;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments, then skip blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;

    if (!saw_header) {
      std::string v;
      if (word != "ccml-cc-table" || !(ls >> v) || v != "v1") {
        parse_fail(lineno, "expected header 'ccml-cc-table v1'");
      }
      saw_header = true;
      continue;
    }

    if (word == "cadence_us") {
      std::string tok;
      if (!(ls >> tok)) parse_fail(lineno, "cadence_us needs a value");
      const double us = parse_num(tok, lineno, "cadence");
      if (us <= 0.0) parse_fail(lineno, "cadence must be positive");
      t.cadence_ = Duration::from_micros_f(us);
    } else if (word == "bins") {
      std::string dim;
      if (!(ls >> dim)) parse_fail(lineno, "bins needs a dimension name");
      int d = -1;
      for (int i = 0; i < 4; ++i) {
        if (dim == kDimNames[i]) d = i;
      }
      if (d < 0) {
        parse_fail(lineno, "unknown dimension '" + dim +
                               "' (rtt_us|gradient|ecn|progress)");
      }
      if (!t.edges_[d].empty()) {
        parse_fail(lineno, "duplicate bins for '" + dim + "'");
      }
      std::string tok;
      while (ls >> tok) {
        const double e = parse_num(tok, lineno, "bin edge");
        if (!t.edges_[d].empty() && e <= t.edges_[d].back()) {
          parse_fail(lineno, "bin edges must be strictly ascending");
        }
        t.edges_[d].push_back(e);
      }
      if (t.edges_[d].empty()) parse_fail(lineno, "bins needs >= 1 edge");
    } else if (word == "rule") {
      Rule r;
      for (int d = 0; d < 4; ++d) {
        std::string tok;
        if (!(ls >> tok)) parse_fail(lineno, "rule needs 4 bin selectors");
        r.bins[d] = parse_selector(tok, lineno);
      }
      std::string tok;
      if (!(ls >> tok)) parse_fail(lineno, "rule needs a rate multiplier");
      r.action.rate_multiplier = parse_num(tok, lineno, "multiplier");
      if (r.action.rate_multiplier < 0.0) {
        parse_fail(lineno, "multiplier must be >= 0");
      }
      if (ls >> tok) {
        r.action.additive_bps = parse_num(tok, lineno, "additive step") * 1e6;
      }
      t.rules_.push_back(r);
    } else if (word == "default") {
      std::string tok;
      if (!(ls >> tok)) parse_fail(lineno, "default needs a rate multiplier");
      t.default_.rate_multiplier = parse_num(tok, lineno, "multiplier");
      if (t.default_.rate_multiplier < 0.0) {
        parse_fail(lineno, "multiplier must be >= 0");
      }
      if (ls >> tok) {
        t.default_.additive_bps = parse_num(tok, lineno, "additive step") * 1e6;
      }
      saw_default = true;
    } else {
      parse_fail(lineno, "unknown directive '" + word + "'");
    }
  }
  if (!saw_header) parse_fail(lineno, "missing 'ccml-cc-table v1' header");
  if (!saw_default && t.rules_.empty()) {
    parse_fail(lineno, "table has no rules and no default action");
  }
  // Validate every selector against its dimension's bin count (declared
  // edges may follow the rules textually, so this runs at the end).
  for (std::size_t i = 0; i < t.rules_.size(); ++i) {
    for (int d = 0; d < 4; ++d) {
      const std::int32_t sel = t.rules_[i].bins[d];
      const auto nbins = static_cast<std::int32_t>(t.edges_[d].size()) + 1;
      if (sel >= nbins) {
        throw std::invalid_argument(
            "cc-table rule " + std::to_string(i) + ": selector " +
            std::to_string(sel) + " out of range for " + kDimNames[d] + " (" +
            std::to_string(nbins) + " bins)");
      }
    }
  }
  t.loaded_ = true;
  return t;
}

CcPolicyTable CcPolicyTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cc-table: cannot open '" + path + "'");
  }
  return parse(in);
}

std::int32_t CcPolicyTable::lookup(const CcObservation& obs,
                                   CcAction& out) const {
  const std::int32_t b[4] = {
      bin_of(obs.rtt_us, edges_[0]),
      bin_of(obs.rtt_gradient, edges_[1]),
      bin_of(obs.ecn_fraction, edges_[2]),
      bin_of(obs.phase_progress, edges_[3]),
  };
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& r = rules_[i];
    bool match = true;
    for (int d = 0; d < 4; ++d) {
      if (r.bins[d] >= 0 && r.bins[d] != b[d]) {
        match = false;
        break;
      }
    }
    if (match) {
      out = r.action;
      return static_cast<std::int32_t>(i);
    }
  }
  out = default_;
  return -1;
}

std::string CcPolicyTable::summary() const {
  std::ostringstream os;
  for (int d = 0; d < 4; ++d) {
    if (d > 0) os << "x";
    os << edges_[d].size() + 1;
  }
  os << " bins, " << rules_.size() << " rules";
  return os.str();
}

TablePolicy::TablePolicy(TableConfig config)
    : RateMachine(config.min_rate, config.base_rtt, config.table.cadence(),
                  "table.decisions", /*representation_byte=*/false),
      config_(std::move(config)),
      rng_(config_.seed),
      kmin_bytes_(config_.kmin.count()),
      kmax_bytes_(config_.kmax.count()) {
  assert(!config_.table.empty());
  assert(config_.kmax > config_.kmin);
  mark_scale_ = config_.pmax / (kmax_bytes_ - kmin_bytes_);
}

void TablePolicy::mark_link(TableLink& link, double /*cap_bps*/,
                            double /*arrival_bps*/) const {
  const double p = red_probability(link.queue_b);
  link.log_keep = p > 0.0 ? std::log1p(-std::min(p, 1.0 - 1e-12)) : 0.0;
}

double TablePolicy::decide(Network& net, TimePoint now, std::uint32_t slot,
                           std::int64_t /*elapsed_ns*/) {
  TableFlow& f = flows_[slot];
  // Observation assembly: RTT + gradient (TIMELY's filter with Swift's
  // first-sample guard), route ECN fraction, delivery.
  double sum_log_keep = 0.0;
  const Duration rtt = sample_rtt(
      net, slot, [&](const TableLink& l) { sum_log_keep += l.log_keep; });
  CcObservation obs;
  obs.rtt_us = rtt.to_micros();
  obs.rtt_gradient =
      f.rtt.update(rtt, config_.ewma_alpha, config_.base_rtt.to_micros(),
                   /*guard_first=*/true);
  obs.ecn_fraction = sum_log_keep < 0.0 ? 1.0 - std::exp(sum_log_keep) : 0.0;
  obs.delivered_bytes = f.deliv_b;
  obs.phase_progress = net.progress_at(slot);
  f.deliv_b = 0.0;

  CcAction action;
  f.rule = config_.table.lookup(obs, action);
  if (config_.explore > 0.0) {
    action.rate_multiplier *=
        1.0 + config_.explore * (2.0 * rng_.uniform() - 1.0);
  }
  const double rate =
      apply_cc_action(action, rate_bps_[slot], min_bps_, line_bps_[slot]);
  if (events_.on()) [[unlikely]] {
    events_.emit(TraceEventKind::kCcDecision, now, net.flow_at(slot), rate,
                 static_cast<double>(f.rule));
  }
  return rate;
}

void TablePolicy::put_flow(StateBuf& out, const TableFlow& f,
                           std::int64_t since_ns) const {
  out.put_f64(f.rtt.ewma_us);
  out.put_f64(f.rtt.gradient(config_.base_rtt.to_micros()));
  out.put_f64(f.deliv_b);
  out.put_i64(f.rtt.prev_rtt_ns);
  out.put_i64(since_ns);
  out.put_u32(static_cast<std::uint32_t>(f.rule));
}

template class RateMachine<TablePolicy, TableLink, TableFlow>;

}  // namespace ccml
