#include "src/opt/cost_model.h"

#include <algorithm>

namespace sgl {

namespace {

// The model's constants, in work units per operation.
struct CostConstants {
  double pair_eval = 1.0;       ///< evaluate predicates on one candidate
  double emit = 0.5;            ///< materialize one match
  double grid_build = 1.5;      ///< per point
  double grid_probe = 4.0;      ///< per-probe cell setup
  double grid_slack = 2.0;      ///< candidate inflation from cell granularity
  double hash_build = 1.2;      ///< per point
  double hash_probe = 2.0;      ///< per probe
};

}  // namespace

double EstimateJoinCost(JoinStrategy strategy, const JoinCostInputs& in) {
  constexpr CostConstants c;
  const double n = std::max(1.0, in.outer_rows);
  const double m = std::max(1.0, in.inner_rows);
  const double box_matches = m * in.box_selectivity;
  switch (strategy) {
    case JoinStrategy::kNestedLoop:
      return n * m * c.pair_eval + n * box_matches * c.emit;
    case JoinStrategy::kGrid: {
      const double build = c.grid_build * m;
      const double candidates = box_matches * c.grid_slack;
      const double probe =
          n * (c.grid_probe + candidates * c.pair_eval + box_matches * c.emit);
      return build + probe;
    }
    case JoinStrategy::kHash: {
      const double build = c.hash_build * m;
      const double bucket = m * in.hash_selectivity;
      const double probe =
          n * (c.hash_probe + bucket * c.pair_eval + bucket * c.emit);
      return build + probe;
    }
  }
  return 1e18;
}

namespace {

// Recognizes lo/hi expressions of the form `outer_field ± literal` (the
// dominant pattern: x - range, x + range) and returns the literal width
// contribution; nullopt otherwise.
std::optional<double> BoundOffset(const Expr* e) {
  if (e == nullptr) return std::nullopt;
  if (e->kind == ExprKind::kArith &&
      (e->arith == ArithOp::kAdd || e->arith == ArithOp::kSub)) {
    const Expr* rhs = e->kids[1].get();
    if (rhs->kind == ExprKind::kNumLit) {
      return e->arith == ArithOp::kAdd ? rhs->num : -rhs->num;
    }
  }
  if (e->kind == ExprKind::kStateRead || e->kind == ExprKind::kLocal) {
    return 0.0;
  }
  if (e->kind == ExprKind::kNumLit) return std::nullopt;  // absolute bound
  return std::nullopt;
}

}  // namespace

double EstimateBoxSelectivity(const AccumOp& op, const TableStats& inner,
                              double fallback_frac) {
  double sel = 1.0;
  for (const RangeDim& d : op.range_dims) {
    const ColumnStats* cs = nullptr;
    if (static_cast<size_t>(d.inner_field) < inner.columns.size()) {
      cs = &inner.columns[static_cast<size_t>(d.inner_field)];
    }
    double dim_sel = fallback_frac;
    if (cs != nullptr && cs->samples > 0 && cs->max > cs->min) {
      auto lo_off = BoundOffset(d.lo.get());
      auto hi_off = BoundOffset(d.hi.get());
      if (lo_off.has_value() && hi_off.has_value()) {
        // Box width is (hi - lo); anchored at a moving outer value, so the
        // average selectivity is width / column extent.
        double width = *hi_off - *lo_off;
        dim_sel = std::clamp(width / (cs->max - cs->min), 0.0, 1.0);
      } else if (d.lo != nullptr && d.lo->kind == ExprKind::kNumLit &&
                 d.hi != nullptr && d.hi->kind == ExprKind::kNumLit) {
        dim_sel = cs->RangeSelectivity(d.lo->num, d.hi->num);
      }
    }
    sel *= dim_sel;
  }
  return sel;
}

}  // namespace sgl
