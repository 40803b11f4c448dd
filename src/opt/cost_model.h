// Analytical cost model for AccumOp join strategies (§4.1): nested loop,
// the grid index, and the entity-id hash.
//
// Costs are in abstract "work units" (roughly: inner-tuple touches plus
// per-probe overheads); only the *ranking* matters. Estimates combine the
// sampled column statistics (selectivity of the average query box) with the
// structural costs of each access path, including the per-tick index
// rebuild — the workload's defining feature is that O(n) rows move per tick,
// so build cost is charged to every tick.

#ifndef SGL_OPT_COST_MODEL_H_
#define SGL_OPT_COST_MODEL_H_

#include "src/opt/stats.h"
#include "src/ra/plan.h"

namespace sgl {

/// Inputs describing one potential execution of an AccumOp this tick.
struct JoinCostInputs {
  double outer_rows = 0;     ///< rows surviving the outer guard
  double inner_rows = 0;     ///< size of the iteration domain
  double box_selectivity = 1.0;  ///< est. fraction of inner in the range box
  double hash_selectivity = 1.0;  ///< est. fraction matching the hash key
};

/// Estimated total work units for `strategy` under `in`.
double EstimateJoinCost(JoinStrategy strategy, const JoinCostInputs& in);

/// Estimates the average box selectivity of an AccumOp's range predicate
/// using column stats: the average query box side is derived from the lo/hi
/// expressions when they are `field ± literal` forms, else falls back to
/// `fallback_frac` of the column's range per dimension.
double EstimateBoxSelectivity(const AccumOp& op, const TableStats& inner,
                              double fallback_frac = 0.1);

}  // namespace sgl

#endif  // SGL_OPT_COST_MODEL_H_
