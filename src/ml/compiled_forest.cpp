#include "ml/compiled_forest.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/reduce.hpp"

namespace airfinger::ml {

namespace {

// Descends trees to their leaves: idx[t] holds tree t's root node on entry
// and its reached leaf on exit. Four trees walk at once in interleaved
// scalar code. The four walks are data-independent, so the out-of-order
// core overlaps their dependent node loads instead of serializing one
// pointer-chase per tree (DESIGN.md §15). Leaf indices are integers, so
// the descent order cannot change a bit; fewer than four trees left walk
// one at a time.
void forest_leaves(const std::int32_t* feature, const double* threshold,
                   const std::int32_t* child, const double* x,
                   std::int32_t* idx, std::size_t count) {
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    auto i0 = static_cast<std::size_t>(idx[t]);
    auto i1 = static_cast<std::size_t>(idx[t + 1]);
    auto i2 = static_cast<std::size_t>(idx[t + 2]);
    auto i3 = static_cast<std::size_t>(idx[t + 3]);
    std::int32_t f0 = feature[i0], f1 = feature[i1], f2 = feature[i2],
                 f3 = feature[i3];
    // The AND of the four feature words has the sign bit set only once
    // every walk has reached a leaf (feature < 0), so this loop runs to
    // the deepest walk while finished lanes idle on their leaf.
    while ((f0 & f1 & f2 & f3) >= 0) {
      if (f0 >= 0) {
        i0 = static_cast<std::size_t>(child[i0]) +
             (x[static_cast<std::size_t>(f0)] < threshold[i0] ? 0u : 1u);
        f0 = feature[i0];
      }
      if (f1 >= 0) {
        i1 = static_cast<std::size_t>(child[i1]) +
             (x[static_cast<std::size_t>(f1)] < threshold[i1] ? 0u : 1u);
        f1 = feature[i1];
      }
      if (f2 >= 0) {
        i2 = static_cast<std::size_t>(child[i2]) +
             (x[static_cast<std::size_t>(f2)] < threshold[i2] ? 0u : 1u);
        f2 = feature[i2];
      }
      if (f3 >= 0) {
        i3 = static_cast<std::size_t>(child[i3]) +
             (x[static_cast<std::size_t>(f3)] < threshold[i3] ? 0u : 1u);
        f3 = feature[i3];
      }
    }
    idx[t] = static_cast<std::int32_t>(i0);
    idx[t + 1] = static_cast<std::int32_t>(i1);
    idx[t + 2] = static_cast<std::int32_t>(i2);
    idx[t + 3] = static_cast<std::int32_t>(i3);
  }
  for (; t < count; ++t) {
    auto i = static_cast<std::size_t>(idx[t]);
    std::int32_t f = feature[i];
    while (f >= 0) {
      i = static_cast<std::size_t>(child[i]) +
          (x[static_cast<std::size_t>(f)] < threshold[i] ? 0u : 1u);
      f = feature[i];
    }
    idx[t] = static_cast<std::int32_t>(i);
  }
}

}  // namespace

CompiledForest::CompiledForest(const RandomForest& forest)
    : num_classes_(static_cast<std::size_t>(forest.num_classes())) {
  AF_EXPECT(forest.tree_count() >= 1,
            "CompiledForest requires a fitted forest");
  AF_EXPECT(num_classes_ >= 1, "CompiledForest requires at least one class");
  std::size_t total_nodes = 0;
  for (const auto& tree : forest.trees()) total_nodes += tree.node_count();
  feature_.reserve(total_nodes);
  threshold_.reserve(total_nodes);
  child_.reserve(total_nodes);
  leaf_offset_.reserve(total_nodes);
  roots_.reserve(forest.tree_count());
  for (const auto& tree : forest.trees())
    roots_.push_back(static_cast<std::int32_t>(flatten(tree)));
}

std::size_t CompiledForest::flatten(const DecisionTree& tree) {
  const std::vector<DecisionTree::Node>& nodes = tree.nodes();
  AF_EXPECT(!nodes.empty(), "CompiledForest requires fitted trees");
  const std::size_t base = feature_.size();

  // Breadth-first re-numbering placing each internal node's two children
  // adjacently, so traversal computes child_[i] + (went_right ? 1 : 0).
  // DecisionTree stores its root at index 0.
  std::vector<std::size_t> order{0};
  std::vector<std::int32_t> renumbered(nodes.size(), -1);
  renumbered[0] = static_cast<std::int32_t>(base);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const DecisionTree::Node& node = nodes[order[head]];
    if (node.is_leaf()) continue;
    const auto left = static_cast<std::size_t>(node.left);
    const auto right = static_cast<std::size_t>(node.right);
    renumbered[left] =
        static_cast<std::int32_t>(base + order.size());
    renumbered[right] =
        static_cast<std::int32_t>(base + order.size() + 1);
    order.push_back(left);
    order.push_back(right);
  }

  for (std::size_t old_idx : order) {
    const DecisionTree::Node& node = nodes[old_idx];
    if (node.is_leaf()) {
      AF_EXPECT(node.distribution.size() <= num_classes_,
                "tree class count exceeds the forest's");
      feature_.push_back(-1);
      threshold_.push_back(0.0);
      child_.push_back(-1);
      leaf_offset_.push_back(static_cast<std::int32_t>(leaf_dist_.size()));
      leaf_dist_.insert(leaf_dist_.end(), node.distribution.begin(),
                        node.distribution.end());
      leaf_dist_.resize(leaf_dist_.size() +
                            (num_classes_ - node.distribution.size()),
                        0.0);
    } else {
      feature_.push_back(node.feature);
      threshold_.push_back(node.threshold);
      child_.push_back(renumbered[static_cast<std::size_t>(node.left)]);
      leaf_offset_.push_back(-1);
    }
  }
  return base;
}

void CompiledForest::predict_proba_into(std::span<const double> x,
                                        std::span<double> out) const {
  AF_EXPECT(compiled(), "predict requires a compiled forest");
  AF_EXPECT(out.size() == num_classes_,
            "predict_proba output size must match the class count");
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* child = child_.data();
  const double* leaves = leaf_dist_.data();
  for (double& v : out) v = 0.0;
  // Batch-wise traversal: forest_leaves descends a chunk of trees, four
  // at a time, then the leaf distributions accumulate in tree order — the
  // same order the old one-tree-at-a-time loop used, so the probabilities
  // stay bit-identical.
  constexpr std::size_t kChunk = 64;
  std::int32_t leaf[kChunk];
  for (std::size_t t0 = 0; t0 < roots_.size(); t0 += kChunk) {
    const std::size_t count = std::min(kChunk, roots_.size() - t0);
    std::copy(roots_.begin() + static_cast<std::ptrdiff_t>(t0),
              roots_.begin() + static_cast<std::ptrdiff_t>(t0 + count), leaf);
    forest_leaves(feature, threshold, child, x.data(), leaf, count);
    for (std::size_t t = 0; t < count; ++t) {
      const auto idx = static_cast<std::size_t>(leaf[t]);
      const double* dist =
          leaves + static_cast<std::size_t>(leaf_offset_[idx]);
      common::reduce::accumulate(out, {dist, out.size()});
    }
  }
  const auto total = static_cast<double>(roots_.size());
  for (double& v : out) v /= total;
}

std::vector<double> CompiledForest::predict_proba(
    std::span<const double> x) const {
  std::vector<double> out(num_classes_, 0.0);
  predict_proba_into(x, out);
  return out;
}

int CompiledForest::predict(std::span<const double> x) const {
  const auto proba = predict_proba(x);
  return static_cast<int>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

}  // namespace airfinger::ml
