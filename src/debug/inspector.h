// Tick-boundary state inspection (§3.3: "developers should be able to
// inspect the value of state attributes at tick boundaries ... using a
// mapping between relation table names and SGL attributes"). The inspector
// is that mapping: it renders entities and tables in SGL-attribute terms.

#ifndef SGL_DEBUG_INSPECTOR_H_
#define SGL_DEBUG_INSPECTOR_H_

#include <string>
#include <vector>

#include "src/exec/tick_executor.h"
#include "src/storage/world.h"

namespace sgl {

/// One-line performance summary of a tick, including the allocation
/// counters: "tick 41: 1243us (query 1100 merge 3 update 97 | index 510) "
/// "allocs/tick 0 (0 B)". The developer-facing view of the steady-state
/// zero-allocation contract.
std::string DescribeTickStats(const TickStats& stats);

class Inspector {
 public:
  explicit Inspector(const World* world) : world_(world) {}

  /// "Unit@17 {x: 3, y: 4, health: 92, ...}" or an error note.
  std::string DescribeEntity(EntityId id) const;

  /// Class-level summary: row count plus per-numeric-field min/mean/max —
  /// the aggregate view of the generated relation.
  std::string DescribeClass(const std::string& cls_name) const;

  /// Entities of a class whose numeric state field lies in [lo, hi]
  /// (a debugger-side selection query).
  std::vector<EntityId> FindWhere(const std::string& cls_name,
                                  const std::string& field, double lo,
                                  double hi) const;

 private:
  const World* world_;
};

}  // namespace sgl

#endif  // SGL_DEBUG_INSPECTOR_H_
