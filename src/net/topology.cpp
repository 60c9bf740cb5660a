#include "net/topology.h"

#include <cassert>
#include <initializer_list>
#include <string_view>

namespace ccml {

namespace {

// Builds a node name by appending its parts.  (A `"literal" + std::string`
// chain inlines an insert at offset 0, on which GCC 12 reports a spurious
// -Wrestrict.)
std::string join(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

}  // namespace

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kHost: return "host";
    case NodeKind::kTor: return "tor";
    case NodeKind::kSpine: return "spine";
    case NodeKind::kCore: return "core";
  }
  return "?";
}

NodeId Topology::add_node(NodeKind kind, std::string name) {
  const NodeId id{static_cast<std::int32_t>(nodes_.size())};
  nodes_.push_back({id, kind, std::move(name)});
  out_links_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId src, NodeId dst, Rate capacity,
                          Duration propagation) {
  assert(src.valid() && dst.valid());
  assert(static_cast<std::size_t>(src.value) < nodes_.size());
  assert(static_cast<std::size_t>(dst.value) < nodes_.size());
  assert(capacity.is_positive());
  const LinkId id{static_cast<std::int32_t>(links_.size())};
  const std::string name =
      nodes_[src.value].name + "->" + nodes_[dst.value].name;
  links_.push_back({id, src, dst, capacity, propagation, name});
  out_links_[src.value].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Topology::add_duplex_link(NodeId a, NodeId b,
                                                    Rate capacity,
                                                    Duration propagation) {
  return {add_link(a, b, capacity, propagation),
          add_link(b, a, capacity, propagation)};
}

const NodeInfo& Topology::node(NodeId id) const {
  assert(id.valid() && static_cast<std::size_t>(id.value) < nodes_.size());
  return nodes_[id.value];
}

const LinkInfo& Topology::link(LinkId id) const {
  assert(id.valid() && static_cast<std::size_t>(id.value) < links_.size());
  return links_[id.value];
}

const std::vector<LinkId>& Topology::links_from(NodeId node) const {
  assert(node.valid() && static_cast<std::size_t>(node.value) < nodes_.size());
  return out_links_[node.value];
}

LinkId Topology::find_link(NodeId src, NodeId dst) const {
  for (const LinkId lid : links_from(src)) {
    if (links_[lid.value].dst == dst) return lid;
  }
  return LinkId{};
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kHost) out.push_back(n.id);
  }
  return out;
}

Topology Topology::dumbbell(int n_pairs, Rate host_rate, Rate bottleneck_rate) {
  assert(n_pairs >= 1);
  Topology t;
  const NodeId s_left = t.add_node(NodeKind::kTor, "swL");
  const NodeId s_right = t.add_node(NodeKind::kTor, "swR");
  t.add_duplex_link(s_left, s_right, bottleneck_rate);
  for (int i = 0; i < n_pairs; ++i) {
    const NodeId src = t.add_node(NodeKind::kHost, "src" + std::to_string(i));
    const NodeId dst = t.add_node(NodeKind::kHost, "dst" + std::to_string(i));
    t.add_duplex_link(src, s_left, host_rate);
    t.add_duplex_link(s_right, dst, host_rate);
  }
  return t;
}

Topology Topology::leaf_spine(int n_tors, int hosts_per_tor, int n_spines,
                              Rate host_rate, Rate fabric_rate) {
  assert(n_tors >= 1 && hosts_per_tor >= 1 && n_spines >= 1);
  Topology t;
  std::vector<NodeId> tors;
  tors.reserve(n_tors);
  for (int i = 0; i < n_tors; ++i) {
    tors.push_back(t.add_node(NodeKind::kTor, "tor" + std::to_string(i)));
  }
  std::vector<NodeId> spines;
  spines.reserve(n_spines);
  for (int i = 0; i < n_spines; ++i) {
    spines.push_back(t.add_node(NodeKind::kSpine, "spine" + std::to_string(i)));
  }
  for (int i = 0; i < n_tors; ++i) {
    for (int h = 0; h < hosts_per_tor; ++h) {
      const NodeId host = t.add_node(
          NodeKind::kHost,
          join({"h", std::to_string(i), "_", std::to_string(h)}));
      t.add_duplex_link(host, tors[i], host_rate);
    }
    for (const NodeId spine : spines) {
      t.add_duplex_link(tors[i], spine, fabric_rate);
    }
  }
  return t;
}

Topology Topology::fat_tree(int k, Rate rate) {
  assert(k >= 2 && k % 2 == 0);
  Topology t;
  const int half = k / 2;

  // Core layer: (k/2)^2 switches, indexed (i, j).
  std::vector<NodeId> core;
  core.reserve(half * half);
  for (int i = 0; i < half; ++i) {
    for (int j = 0; j < half; ++j) {
      core.push_back(t.add_node(
          NodeKind::kCore,
          join({"core", std::to_string(i), "_", std::to_string(j)})));
    }
  }

  for (int pod = 0; pod < k; ++pod) {
    std::vector<NodeId> edges, aggs;
    for (int e = 0; e < half; ++e) {
      edges.push_back(t.add_node(
          NodeKind::kTor,
          join({"p", std::to_string(pod), "_edge", std::to_string(e)})));
    }
    for (int a = 0; a < half; ++a) {
      aggs.push_back(t.add_node(
          NodeKind::kSpine,
          join({"p", std::to_string(pod), "_agg", std::to_string(a)})));
    }
    // Hosts under each edge switch.
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        const NodeId host = t.add_node(
            NodeKind::kHost, join({"p", std::to_string(pod), "_e",
                                   std::to_string(e), "_h",
                                   std::to_string(h)}));
        t.add_duplex_link(host, edges[e], rate);
      }
    }
    // Full mesh edge <-> agg within the pod.
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        t.add_duplex_link(edges[e], aggs[a], rate);
      }
    }
    // Agg a connects to core switches (a, 0..half-1).
    for (int a = 0; a < half; ++a) {
      for (int j = 0; j < half; ++j) {
        t.add_duplex_link(aggs[a], core[a * half + j], rate);
      }
    }
  }
  return t;
}

}  // namespace ccml
