// Adaptive plan selection (§4.1).
//
// "We are currently exploring the idea of compiling several query plans
// optimized for different workloads and switching between them as the game
// progresses." Every AccumOp is a *site* with a set of candidate physical
// strategies (the compiled plan set). The controller picks one per tick:
//
//   kStatic*    — always the same strategy (the baselines of bench E5)
//   kCostBased  — rank candidates with the cost model on current stats
//   kAdaptive   — cost-based seeding + runtime feedback: keeps an EWMA of
//                 measured time per strategy, re-probes non-best strategies
//                 periodically, and resets its beliefs when the observed
//                 join fan-out drifts (workload-mode switches such as
//                 "exploring" -> "fighting")
//
// All decisions are made between ticks, so switching costs nothing during
// the tick itself. The join strategy is the only physical choice: every
// strategy evaluates its expressions on the bytecode VM and range sites
// always probe their index batched, so there is no backend to price.

#ifndef SGL_OPT_ADAPTIVE_H_
#define SGL_OPT_ADAPTIVE_H_

#include <vector>

#include "src/opt/cost_model.h"
#include "src/opt/stats.h"
#include "src/ra/plan.h"

namespace sgl {

/// Plan-selection policy for the whole engine.
enum class PlanMode : uint8_t {
  kStaticNL,
  kStaticRangeTree,
  kStaticGrid,
  kStaticHash,
  kCostBased,
  kAdaptive,
};

const char* PlanModeName(PlanMode mode);

/// What the executor reports after running one AccumOp.
struct SiteFeedback {
  int site = -1;
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  int64_t outer_rows = 0;
  int64_t candidates = 0;    ///< pairs inspected
  int64_t matches = 0;       ///< pairs surviving all predicates
  int64_t micros = 0;
  int64_t probe_micros = 0;  ///< time inside batched QueryBatch calls
  int64_t effects = 0;       ///< effect writes applied (pair writes)
};

/// Picks an AccumOp strategy each tick and learns from feedback.
class AdaptiveController {
 public:
  struct Options {
    PlanMode mode = PlanMode::kCostBased;
    int probe_interval = 32;     ///< ticks between exploration probes
    double drift_ratio = 3.0;    ///< fan-out change triggering re-probe
    double ewma_alpha = 0.3;
  };

  AdaptiveController(const Options& options, int num_sites);

  PlanMode mode() const { return options_.mode; }

  /// Chooses the strategy for `op` this tick. `inner_stats` may be null
  /// (falls back to structural defaults).
  JoinStrategy Choose(const AccumOp& op, Tick tick,
                      const TableStats* inner_stats, size_t outer_rows);

  /// Reports measured behaviour of a site's execution.
  void Feedback(const SiteFeedback& fb);

  /// Times this controller switched a site's strategy (for E5 reporting).
  int64_t switches() const { return switches_; }
  /// Times drift detection reset a site's beliefs.
  int64_t drift_resets() const { return drift_resets_; }

  /// Strategies legal for an op (NL always; tree/grid need range dims;
  /// hash needs a hash dim; set-domain iteration forces NL).
  static std::vector<JoinStrategy> Candidates(const AccumOp& op);
  /// Allocation-free variant: fills `out[0..3]`, returns the count. The
  /// per-tick cost-based pick uses this on the hot path.
  static int CandidateList(const AccumOp& op, JoinStrategy out[4]);

 private:
  struct SiteState {
    std::vector<JoinStrategy> candidates;
    std::vector<Ewma> time_per_outer;  ///< per candidate
    Ewma fanout_fast{0.5};
    Ewma fanout_slow{0.05};
    JoinStrategy last = JoinStrategy::kNestedLoop;
    bool initialized = false;
    int probe_cursor = 0;
    Tick last_probe = -1;
  };

  JoinStrategy CostBasedPick(const AccumOp& op, const TableStats* inner_stats,
                             size_t outer_rows) const;

  Options options_;
  std::vector<SiteState> sites_;
  int64_t switches_ = 0;
  int64_t drift_resets_ = 0;
};

}  // namespace sgl

#endif  // SGL_OPT_ADAPTIVE_H_
