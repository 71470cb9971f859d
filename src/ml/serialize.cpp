#include "ml/serialize.hpp"

#include "ml/logistic.hpp"
#include "ml/naive_bayes.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace airfinger::ml {

namespace detail {

void write_double(std::ostream& os, double v) {
  // Hex-float representation: exact round-trip, locale-independent.
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  os << buffer;
}

double read_double(std::istream& is) {
  std::string token;
  is >> token;
  AF_EXPECT(!token.empty(), "serialized model truncated (double expected)");
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  AF_EXPECT(end != token.c_str(), "malformed double in serialized model");
  return v;
}

void expect_tag(std::istream& is, const char* expected) {
  std::string tag;
  is >> tag;
  AF_EXPECT(tag == expected, std::string("serialized model: expected tag '") +
                                 expected + "', found '" + tag + "'");
}

namespace {
/// Plausibility ceiling for any serialized element count. Real models are
/// orders of magnitude below this; a corrupted count above it must throw
/// instead of driving a multi-gigabyte resize (a model stream carries no
/// integrity footer of its own, so loaders defend themselves).
constexpr std::size_t kMaxSerializedCount = std::size_t{1} << 24;

std::size_t read_capped_count(std::istream& is, const char* what) {
  std::size_t n = 0;
  is >> n;
  AF_EXPECT(is.good() || (is.eof() && !is.fail()),
            std::string("serialized model: malformed ") + what + " count");
  AF_EXPECT(n <= kMaxSerializedCount,
            std::string("serialized model: implausible ") + what +
                " count (corrupt input?)");
  return n;
}
}  // namespace

}  // namespace detail

void save_tree(std::ostream& os, const DecisionTree& tree) {
  tree.save(os);
}

DecisionTree load_tree(std::istream& is) { return DecisionTree::load(is); }

void save_forest(std::ostream& os, const RandomForest& forest) {
  forest.save(os);
}

RandomForest load_forest(std::istream& is) {
  return RandomForest::load(is);
}

// ---------------------------------------------------------------- tree

void DecisionTree::save(std::ostream& os) const {
  AF_EXPECT(!nodes_.empty(), "cannot save an unfitted tree");
  os << "af_tree 1\n";
  os << "classes " << num_classes_ << "\n";
  os << "importances " << importances_.size();
  for (double v : importances_) {
    os << ' ';
    detail::write_double(os, v);
  }
  os << "\n";
  os << "nodes " << nodes_.size() << "\n";
  for (const auto& node : nodes_) {
    os << node.feature << ' ';
    detail::write_double(os, node.threshold);
    os << ' ' << node.left << ' ' << node.right << ' '
       << node.distribution.size();
    for (double v : node.distribution) {
      os << ' ';
      detail::write_double(os, v);
    }
    os << "\n";
  }
}

DecisionTree DecisionTree::load(std::istream& is) {
  detail::expect_tag(is, "af_tree");
  int version = 0;
  is >> version;
  AF_EXPECT(version == 1, "unsupported tree format version");

  DecisionTree tree;
  detail::expect_tag(is, "classes");
  is >> tree.num_classes_;
  AF_EXPECT(tree.num_classes_ >= 1 && is.good(),
            "malformed class count in serialized tree");

  detail::expect_tag(is, "importances");
  const std::size_t importance_count =
      detail::read_capped_count(is, "tree importance");
  tree.importances_.resize(importance_count);
  for (auto& v : tree.importances_) v = detail::read_double(is);

  detail::expect_tag(is, "nodes");
  const std::size_t node_count = detail::read_capped_count(is, "tree node");
  AF_EXPECT(node_count >= 1, "serialized tree has no nodes");
  tree.nodes_.resize(node_count);
  for (auto& node : tree.nodes_) {
    is >> node.feature;
    node.threshold = detail::read_double(is);
    std::size_t dist = 0;
    is >> node.left >> node.right >> dist;
    AF_EXPECT(is.good(), "truncated node in serialized tree");
    AF_EXPECT(dist <= static_cast<std::size_t>(tree.num_classes_),
              "serialized tree node distribution wider than class count");
    node.distribution.resize(dist);
    for (auto& v : node.distribution) v = detail::read_double(is);
    const auto limit = static_cast<std::int32_t>(node_count);
    AF_EXPECT(node.left < limit && node.right < limit,
              "serialized tree has out-of-range child indices");
  }
  return tree;
}

// ---------------------------------------------------------------- forest

void RandomForest::save(std::ostream& os) const {
  AF_EXPECT(!trees_.empty(), "cannot save an unfitted forest");
  os << "af_forest 1\n";
  os << "classes " << num_classes_ << "\n";
  os << "importances " << importances_.size();
  for (double v : importances_) {
    os << ' ';
    detail::write_double(os, v);
  }
  os << "\n";
  os << "trees " << trees_.size() << "\n";
  for (const auto& tree : trees_) tree.save(os);
}

RandomForest RandomForest::load(std::istream& is) {
  detail::expect_tag(is, "af_forest");
  int version = 0;
  is >> version;
  AF_EXPECT(version == 1, "unsupported forest format version");

  RandomForest forest;
  detail::expect_tag(is, "classes");
  is >> forest.num_classes_;
  AF_EXPECT(forest.num_classes_ >= 1 && is.good(),
            "malformed class count in serialized forest");

  detail::expect_tag(is, "importances");
  const std::size_t importance_count =
      detail::read_capped_count(is, "forest importance");
  forest.importances_.resize(importance_count);
  for (auto& v : forest.importances_) v = detail::read_double(is);

  detail::expect_tag(is, "trees");
  const std::size_t tree_count = detail::read_capped_count(is, "forest tree");
  AF_EXPECT(tree_count >= 1, "serialized forest has no trees");
  forest.trees_.reserve(tree_count);
  for (std::size_t t = 0; t < tree_count; ++t)
    forest.trees_.push_back(DecisionTree::load(is));
  forest.config_.num_trees = tree_count;
  return forest;
}

// ---------------------------------------------------------------- LR

namespace detail {
namespace {
void write_vector(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  for (double x : v) {
    os << ' ';
    write_double(os, x);
  }
  os << "\n";
}

std::vector<double> read_vector(std::istream& is) {
  const std::size_t n = read_capped_count(is, "vector element");
  std::vector<double> v(n);
  for (auto& x : v) x = read_double(is);
  return v;
}
}  // namespace
}  // namespace detail

void LogisticRegression::save(std::ostream& os) const {
  AF_EXPECT(!weights_.empty(), "cannot save an unfitted model");
  os << "af_logistic 1\n";
  os << "classes " << num_classes_ << "\n";
  os << "mean ";
  detail::write_vector(os, feature_mean_);
  os << "scale ";
  detail::write_vector(os, feature_scale_);
  os << "biases ";
  detail::write_vector(os, biases_);
  os << "weights " << weights_.size() << "\n";
  for (const auto& row : weights_) detail::write_vector(os, row);
}

LogisticRegression LogisticRegression::load(std::istream& is) {
  detail::expect_tag(is, "af_logistic");
  int version = 0;
  is >> version;
  AF_EXPECT(version == 1, "unsupported logistic format version");
  LogisticRegression model;
  detail::expect_tag(is, "classes");
  is >> model.num_classes_;
  AF_EXPECT(model.num_classes_ >= 2 && is.good(),
            "malformed class count in serialized model");
  detail::expect_tag(is, "mean");
  model.feature_mean_ = detail::read_vector(is);
  detail::expect_tag(is, "scale");
  model.feature_scale_ = detail::read_vector(is);
  detail::expect_tag(is, "biases");
  model.biases_ = detail::read_vector(is);
  detail::expect_tag(is, "weights");
  std::size_t rows = 0;
  is >> rows;
  AF_EXPECT(rows == model.biases_.size(),
            "serialized logistic weight/bias arity mismatch");
  model.weights_.clear();
  for (std::size_t r = 0; r < rows; ++r)
    model.weights_.push_back(detail::read_vector(is));
  return model;
}

// ---------------------------------------------------------------- BNB

void BernoulliNaiveBayes::save(std::ostream& os) const {
  AF_EXPECT(!log_prior_.empty(), "cannot save an unfitted model");
  os << "af_bnb 1\n";
  os << "thresholds ";
  detail::write_vector(os, thresholds_);
  os << "prior ";
  detail::write_vector(os, log_prior_);
  os << "p " << log_p_.size() << "\n";
  for (const auto& row : log_p_) detail::write_vector(os, row);
  os << "q " << log_q_.size() << "\n";
  for (const auto& row : log_q_) detail::write_vector(os, row);
}

BernoulliNaiveBayes BernoulliNaiveBayes::load(std::istream& is) {
  detail::expect_tag(is, "af_bnb");
  int version = 0;
  is >> version;
  AF_EXPECT(version == 1, "unsupported BNB format version");
  BernoulliNaiveBayes model;
  detail::expect_tag(is, "thresholds");
  model.thresholds_ = detail::read_vector(is);
  detail::expect_tag(is, "prior");
  model.log_prior_ = detail::read_vector(is);
  detail::expect_tag(is, "p");
  std::size_t rows = 0;
  is >> rows;
  AF_EXPECT(rows == model.log_prior_.size(),
            "serialized BNB prior/emission arity mismatch");
  model.log_p_.clear();
  for (std::size_t r = 0; r < rows; ++r)
    model.log_p_.push_back(detail::read_vector(is));
  detail::expect_tag(is, "q");
  is >> rows;
  AF_EXPECT(rows == model.log_prior_.size(),
            "serialized BNB q arity mismatch");
  model.log_q_.clear();
  for (std::size_t r = 0; r < rows; ++r)
    model.log_q_.push_back(detail::read_vector(is));
  return model;
}

}  // namespace airfinger::ml
