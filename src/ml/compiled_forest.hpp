// Compiled SoA random forest for the inference hot path (DESIGN.md §11).
//
// A fitted RandomForest stores each tree as a vector of nodes that each own
// a heap-allocated leaf distribution; traversal chases pointers across many
// small allocations and predict_proba() builds a fresh vector per call. A
// CompiledForest flattens every tree of the forest into contiguous
// structure-of-arrays node storage — feature index, threshold, first-child
// index, and leaf-distribution offset each in their own array — plus one
// concatenated leaf-distribution block. Traversal touches four dense arrays
// and predict_proba_into() writes into caller storage, so steady-state
// prediction performs zero heap allocations.
//
// Layout notes:
//   - Children of an internal node are adjacent (left at child_[i], right at
//     child_[i] + 1), so the branch reduces to an index add.
//   - Leaf distributions are padded with zeros to the forest-wide class
//     count. Distributions are non-negative, so accumulating the padding
//     zeros is bit-identical to the reference path that skips the missing
//     classes (only -0.0 + 0.0 could differ, and -0.0 never occurs).
//   - predict_proba_into descends trees in chunks, four interleaved walks
//     at a time; every walk follows the exact branch rule of the tree
//     walk and the leaf accumulation stays in tree order, so batching does
//     not disturb the bit-identity invariant below.
//
// Invariant (locked by tests/compiled_forest_test.cpp): predictions are
// bit-identical to RandomForest::predict/predict_proba on the same input.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/random_forest.hpp"

namespace airfinger::ml {

/// Immutable flattened view of a fitted RandomForest. Safe to share across
/// threads once constructed.
class CompiledForest {
 public:
  /// An empty (not yet compiled) forest; predict* calls are invalid.
  CompiledForest() = default;

  /// Flattens `forest`, which must be fitted.
  explicit CompiledForest(const RandomForest& forest);

  bool compiled() const { return !roots_.empty(); }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return feature_.size(); }
  std::size_t num_classes() const { return num_classes_; }

  /// Mean class-probability across trees, written into caller storage of
  /// size num_classes(). Allocation-free and bit-identical to
  /// RandomForest::predict_proba.
  void predict_proba_into(std::span<const double> x,
                          std::span<double> out) const;

  /// Allocating conveniences mirroring the RandomForest surface.
  std::vector<double> predict_proba(std::span<const double> x) const;
  int predict(std::span<const double> x) const;

 private:
  std::size_t flatten(const DecisionTree& tree);

  // SoA node storage. feature_[i] < 0 marks a leaf whose distribution lives
  // at leaf_dist_[leaf_offset_[i] .. leaf_offset_[i] + num_classes_).
  std::vector<std::int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> child_;        // first (left) child index
  std::vector<std::int32_t> leaf_offset_;  // into leaf_dist_, leaves only
  std::vector<double> leaf_dist_;          // concatenated padded leaves
  std::vector<std::int32_t> roots_;        // root node index per tree
  std::size_t num_classes_ = 0;
};

}  // namespace airfinger::ml
