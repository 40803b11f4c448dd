// Update components (§2.2): each state attribute is owned by exactly one
// component (expression updater, physics, pathfinding, transaction engine),
// which updates it once per tick. The registry enforces the paper's "state
// variables strictly partitioned among these components" invariant at
// registration time, which is what removes ordering constraints between
// components.

#ifndef SGL_UPDATE_UPDATE_COMPONENT_H_
#define SGL_UPDATE_UPDATE_COMPONENT_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/storage/world.h"

namespace sgl {

/// A subsystem that updates the state fields it owns at the end of a tick,
/// reading the (read-only) previous state and the merged effects.
class UpdateComponent {
 public:
  virtual ~UpdateComponent() = default;

  virtual const std::string& name() const = 0;

  /// The state fields this component updates. Claimed exclusively.
  virtual std::vector<std::pair<ClassId, FieldIdx>> OwnedFields() const = 0;

  /// Runs the component's update for `tick`. May read any state and any
  /// merged effect, but may write only its owned fields.
  virtual void Update(World* world, Tick tick) = 0;

  /// Called after a checkpoint restore replaced the world behind the
  /// component's back. Components holding cross-tick caches keyed on the
  /// pre-restore run (async job results, request dedup tables) must drop
  /// them here; in-flight JobService work is cancelled by the engine
  /// before this hook runs.
  ///
  /// Components that instead implement SaveState/LoadState get their caches
  /// restored from the checkpoint and are NOT sent OnRestore for that
  /// restore — only components whose serialized state is absent from (or
  /// rejected by) the checkpoint fall back to this cache-drop path.
  virtual void OnRestore() {}

  /// Appends this component's cross-tick private state (caches, dedup
  /// tables — anything not derivable from world columns) to `out` for a
  /// checkpoint. Default: append nothing, meaning "no state worth saving";
  /// such components get OnRestore() at restore time instead.
  virtual void SaveState(std::string* out) const { (void)out; }

  /// Restores state produced by SaveState. Must fully replace any current
  /// cross-tick state (it is the restore-time counterpart of OnRestore).
  /// Returning non-OK rejects the blob; the registry then falls back to
  /// OnRestore() for this component.
  virtual Status LoadState(const char* data, size_t size) {
    (void)data;
    (void)size;
    return Status::OK();
  }
};

/// Owns the components and enforces disjoint field ownership.
class ComponentRegistry {
 public:
  /// Registers a component; fails (and rejects the component) if any of its
  /// owned fields is already claimed. Ownership is recorded in the field's
  /// FieldDef::owner for introspection.
  Status Register(Catalog* catalog, std::unique_ptr<UpdateComponent> comp);

  /// Runs every component in registration order. Disjoint ownership makes
  /// the order immaterial for state results.
  void RunAll(World* world, Tick tick);

  /// Fans OnRestore() out to every component (checkpoint restore).
  void NotifyRestore();

  /// Serializes every component's private cross-tick state (name-tagged
  /// SaveState blobs; components that save nothing are skipped). Empty
  /// output when no component has state — the legacy checkpoint shape.
  void SerializeState(std::string* out) const;

  /// Restores state captured by SerializeState: components with a matching
  /// blob get LoadState, every other component gets OnRestore() (its caches
  /// are from the wrong timeline). InvalidArgument on an unknown component
  /// name or a truncated blob — callers treat that as "checkpoint does not
  /// match this engine" and fall back to NotifyRestore() recovery.
  Status RestoreState(const std::string& data);

  int num_components() const { return static_cast<int>(components_.size()); }
  UpdateComponent* component(int i) {
    return components_[static_cast<size_t>(i)].get();
  }

 private:
  std::vector<std::unique_ptr<UpdateComponent>> components_;
  std::map<std::pair<ClassId, FieldIdx>, std::string> ownership_;
};

}  // namespace sgl

#endif  // SGL_UPDATE_UPDATE_COMPONENT_H_
