// Union-find over dense indices with path halving.  Groups jobs that
// (transitively) share links — the paper's §5 cluster-level compatibility
// domains — in the run harnesses and the interference graph.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

namespace ccml {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace ccml
