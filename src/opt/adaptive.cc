#include "src/opt/adaptive.h"

#include <algorithm>

namespace sgl {

const char* PlanModeName(PlanMode mode) {
  switch (mode) {
    case PlanMode::kStaticNL: return "static-nested-loop";
    case PlanMode::kStaticGrid: return "static-grid";
    case PlanMode::kStaticHash: return "static-hash";
    case PlanMode::kCostBased: return "cost-based";
    case PlanMode::kAdaptive: return "adaptive";
  }
  return "?";
}

AdaptiveController::AdaptiveController(const Options& options, int num_sites)
    : options_(options), sites_(static_cast<size_t>(num_sites)) {}

namespace {

// Smoothing weight of the newest sample in each site's per-strategy
// time-per-outer-row estimate.
constexpr double kEwmaAlpha = 0.3;

// The grid access path is legal only up to the executor's stack-array
// dimensionality bound (kMaxIndexDims).
bool RangeIndexable(const AccumOp& op) {
  return !op.range_dims.empty() &&
         op.range_dims.size() <= static_cast<size_t>(kMaxIndexDims);
}

// A static mode's strategy where the op allows it, else nested loop. So a
// set-domain site runs nested loop under every static mode.
JoinStrategy StaticPick(const AccumOp& op, JoinStrategy want) {
  JoinStrategy buf[3];
  const int n = AdaptiveController::CandidateList(op, buf);
  return std::find(buf, buf + n, want) != buf + n ? want
                                                  : JoinStrategy::kNestedLoop;
}

}  // namespace

int AdaptiveController::CandidateList(const AccumOp& op,
                                      JoinStrategy out[3]) {
  int n = 0;
  out[n++] = JoinStrategy::kNestedLoop;
  if (op.inner_set_field != kInvalidField) return n;  // set domain: NL only
  if (RangeIndexable(op)) out[n++] = JoinStrategy::kGrid;
  if (!op.hash_dims.empty()) out[n++] = JoinStrategy::kHash;
  return n;
}

std::vector<JoinStrategy> AdaptiveController::Candidates(const AccumOp& op) {
  JoinStrategy buf[3];
  const int n = CandidateList(op, buf);
  return std::vector<JoinStrategy>(buf, buf + n);
}

JoinStrategy AdaptiveController::CostBasedPick(const AccumOp& op,
                                               const TableStats* inner_stats,
                                               size_t outer_rows) const {
  JoinCostInputs in;
  in.outer_rows = static_cast<double>(outer_rows);
  in.inner_rows =
      inner_stats != nullptr ? static_cast<double>(inner_stats->row_count) : 0;
  in.box_selectivity =
      inner_stats != nullptr ? EstimateBoxSelectivity(op, *inner_stats) : 0.1;
  // An entity-id hash key matches at most one row.
  in.hash_selectivity = in.inner_rows > 0 ? 1.0 / in.inner_rows : 0.0;
  JoinStrategy best = JoinStrategy::kNestedLoop;
  double best_cost = EstimateJoinCost(best, in);
  JoinStrategy candidates[3];
  const int count = CandidateList(op, candidates);
  for (int i = 0; i < count; ++i) {
    double cost = EstimateJoinCost(candidates[i], in);
    if (cost < best_cost) {
      best = candidates[i];
      best_cost = cost;
    }
  }
  return best;
}

JoinStrategy AdaptiveController::Choose(const AccumOp& op, Tick tick,
                                        const TableStats* inner_stats,
                                        size_t outer_rows) {
  switch (options_.mode) {
    case PlanMode::kStaticNL:
      return JoinStrategy::kNestedLoop;
    case PlanMode::kStaticGrid:
      return StaticPick(op, JoinStrategy::kGrid);
    case PlanMode::kStaticHash:
      return StaticPick(op, JoinStrategy::kHash);
    case PlanMode::kCostBased:
      return CostBasedPick(op, inner_stats, outer_rows);
    case PlanMode::kAdaptive:
      break;
  }

  SiteState& site = sites_[static_cast<size_t>(op.site_id)];
  if (!site.initialized) {
    site.candidates = Candidates(op);
    site.time_per_outer.assign(site.candidates.size(),
                               Ewma(kEwmaAlpha));
    site.last = CostBasedPick(op, inner_stats, outer_rows);
    site.initialized = true;
    return site.last;
  }
  if (site.candidates.size() == 1) return site.candidates[0];

  // Periodic exploration: probe the next unexplored/stale candidate.
  bool probing = site.last_probe < 0 ||
                 tick - site.last_probe >= kProbeInterval;
  if (probing) {
    site.last_probe = tick;
    site.probe_cursor =
        (site.probe_cursor + 1) % static_cast<int>(site.candidates.size());
    JoinStrategy probe =
        site.candidates[static_cast<size_t>(site.probe_cursor)];
    if (probe != site.last) {
      ++switches_;
      site.last = probe;
    }
    return site.last;
  }

  // Exploit: lowest measured time-per-outer-row; unmeasured candidates are
  // considered infinitely attractive only during probes.
  JoinStrategy best = site.last;
  double best_time = 1e300;
  for (size_t i = 0; i < site.candidates.size(); ++i) {
    const Ewma& e = site.time_per_outer[i];
    if (!e.initialized()) continue;
    if (e.value() < best_time) {
      best_time = e.value();
      best = site.candidates[i];
    }
  }
  if (best != site.last) {
    ++switches_;
    site.last = best;
  }
  return site.last;
}

void AdaptiveController::Feedback(const SiteFeedback& fb) {
  if (fb.site < 0 || static_cast<size_t>(fb.site) >= sites_.size()) return;
  if (options_.mode != PlanMode::kAdaptive) return;
  SiteState& site = sites_[static_cast<size_t>(fb.site)];
  if (!site.initialized || fb.outer_rows == 0) return;
  double per_outer = static_cast<double>(fb.micros) /
                     static_cast<double>(fb.outer_rows);
  for (size_t i = 0; i < site.candidates.size(); ++i) {
    if (site.candidates[i] == fb.strategy) {
      site.time_per_outer[i].Add(per_outer);
    }
  }
  // Drift detection on join fan-out: when the short-horizon average departs
  // from the long-horizon one, the workload changed mode — forget timings.
  double fanout = static_cast<double>(fb.matches) /
                  static_cast<double>(fb.outer_rows);
  site.fanout_fast.Add(fanout);
  site.fanout_slow.Add(fanout);
  if (site.fanout_slow.initialized() && site.fanout_fast.initialized()) {
    double slow = site.fanout_slow.value() + 1e-9;
    double fast = site.fanout_fast.value() + 1e-9;
    double ratio = fast > slow ? fast / slow : slow / fast;
    if (ratio > kDriftRatio) {
      for (Ewma& e : site.time_per_outer) e.Reset();
      site.fanout_slow = site.fanout_fast;
      site.last_probe = -1;  // probe immediately next tick
      ++drift_resets_;
    }
  }
}

}  // namespace sgl
