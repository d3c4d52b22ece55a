#ifndef XCQ_ALGEBRA_OP_H_
#define XCQ_ALGEBRA_OP_H_

/// \file op.h
/// The Core XPath set algebra (Sec. 3.1): expressions over node sets
/// built from relation leaves, `{root}`, `V`, the query context, the
/// binary operations `∪ ∩ −`, axis applications, and the root filter
/// `V|root(S) = { V if root ∈ S, ∅ otherwise }`.
///
/// A `QueryPlan` is the expression flattened into evaluation order
/// (post-order, common subexpressions shared); both the compressed-DAG
/// engine and the uncompressed-tree baseline interpret the same plan.

#include <cstdint>
#include <string>
#include <vector>

#include "xcq/xpath/ast.h"

namespace xcq::algebra {

enum class OpKind {
  kRelation,    ///< All nodes in a named unary relation (tag or `str:`).
  kRoot,        ///< {root}.
  kAllNodes,    ///< V.
  kContext,     ///< The caller-supplied context node set.
  kAxis,        ///< χ(input0).
  kUnion,       ///< input0 ∪ input1.
  kIntersect,   ///< input0 ∩ input1.
  kDifference,  ///< input0 − input1.
  kRootFilter,  ///< V|root(input0).
};

const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kAllNodes;
  xpath::Axis axis = xpath::Axis::kSelf;  ///< kAxis only.
  std::string relation;                   ///< kRelation only.
  int32_t input0 = -1;
  int32_t input1 = -1;

  bool operator==(const Op&) const = default;
};

/// \brief A compiled query: ops in evaluation order; the last op's node
/// set is the query result.
struct QueryPlan {
  std::vector<Op> ops;

  /// Human-readable listing, one op per line.
  std::string ToString() const;

  /// Number of axis applications that can split vertices on a DAG
  /// (i.e. non-upward axes; Cor. 3.7's tree-pattern queries have zero).
  size_t SplittingAxisCount() const;
};

}  // namespace xcq::algebra

#endif  // XCQ_ALGEBRA_OP_H_
