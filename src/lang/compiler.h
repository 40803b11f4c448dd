// The SGL compiler: AstProgram -> CompiledProgram.
//
// This is the paper's central translation (§2.1): imperative object-level
// scripts become relational plans executed set-at-a-time. Passes:
//   1. Class declarations -> ClassDefs (schema generation).
//   2. Implicit-field injection: program counters for multi-tick scripts
//      (§3.2) and status fields for atomic blocks (§3.1).
//   3. Catalog registration + ref/set target resolution.
//   4. Script/handler/update-rule lowering:
//        - path-condition propagation turns nested conditionals into
//          guarded effect writes (σ -> π -> ⊕),
//        - accum-loops become joins; their predicates are decomposed into
//          rectangular range dims (index-joinable), equality dims
//          (hash-joinable), an inner-only filter and a `!=` key conjunct
//          (both pushed into the grid), and a residual filter,
//        - waitNextTick splits the body into phases dispatched on the
//          implicit PC (the "direct translation to standard single-tick
//          SGL programs" of §3.2),
//        - atomic blocks become transaction-intent emission ops.
//   5. Ownership check: no state field is written by both atomic blocks
//      and an update rule.
//
// §2.1 also lets the compiler pick each class's storage layout. This one
// does not: every class gets one interleaved numeric block, because no
// workload measured a difference between layouts (entity_table.h gives
// the numbers).
//
// All access-rule violations (reading effects, writing state, waits inside
// accum/atomic, etc.) are compile-time SemanticErrors with positions.

#ifndef SGL_LANG_COMPILER_H_
#define SGL_LANG_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lang/ast.h"
#include "src/ra/plan.h"
#include "src/schema/catalog.h"

namespace sgl {

/// The executable form of an SGL program.
struct CompiledProgram {
  std::unique_ptr<Catalog> catalog;
  std::vector<CompiledScript> scripts;    ///< program order
  std::vector<CompiledHandler> handlers;  ///< program order
  std::vector<UpdateRule> update_rules;   ///< declared + auto PC rules
  /// Per-class state fields owned by the transaction engine (targets of
  /// atomic-block writes, plus status fields).
  std::vector<std::vector<FieldIdx>> txn_owned;
  int num_sites = 0;  ///< accum/txn site count (adaptive optimizer slots)

  /// Human-readable plan dump (EXPLAIN) for every script and handler.
  std::string Explain() const;
};

/// Compiles a parsed program.
StatusOr<std::unique_ptr<CompiledProgram>> Compile(const AstProgram& ast);

/// Parses + compiles SGL source text.
StatusOr<std::unique_ptr<CompiledProgram>> CompileSource(
    const std::string& source);

}  // namespace sgl

#endif  // SGL_LANG_COMPILER_H_
