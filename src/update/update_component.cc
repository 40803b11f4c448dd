#include "src/update/update_component.h"

#include "src/common/bin_io.h"

namespace sgl {

Status ComponentRegistry::Register(Catalog* catalog,
                                   std::unique_ptr<UpdateComponent> comp) {
  for (const auto& [cls, field] : comp->OwnedFields()) {
    auto it = ownership_.find({cls, field});
    if (it != ownership_.end()) {
      const ClassDef& def = catalog->Get(cls);
      return Status::AlreadyExists(
          "state field '" + def.name() + "." + def.state_field(field).name +
          "' is already owned by component '" + it->second +
          "'; state must be strictly partitioned among update components");
    }
  }
  for (const auto& [cls, field] : comp->OwnedFields()) {
    ownership_[{cls, field}] = comp->name();
    catalog->GetMutable(cls)->mutable_state_field(field)->owner = comp->name();
  }
  components_.push_back(std::move(comp));
  return Status::OK();
}

void ComponentRegistry::RunAll(World* world, Tick tick) {
  for (auto& comp : components_) comp->Update(world, tick);
}

void ComponentRegistry::NotifyRestore() {
  for (auto& comp : components_) comp->OnRestore();
}

void ComponentRegistry::SerializeState(std::string* out) const {
  out->clear();
  std::string blob;
  for (const auto& comp : components_) {
    blob.clear();
    comp->SaveState(&blob);
    if (blob.empty()) continue;
    binio::AppendString(out, comp->name());
    binio::AppendString(out, blob);
  }
}

Status ComponentRegistry::RestoreState(const std::string& data) {
  const char* cur = data.data();
  const char* end = cur + data.size();
  // Parse the whole section before touching any component, so a corrupt
  // blob rejects cleanly with every cache still intact.
  std::vector<std::pair<std::string, std::string>> blobs;
  std::string name, blob;
  while (cur != end) {
    if (!binio::ReadString(&cur, end, &name) ||
        !binio::ReadString(&cur, end, &blob)) {
      return Status::InvalidArgument("component state: truncated section");
    }
    blobs.emplace_back(name, blob);
  }
  for (const auto& [comp_name, _] : blobs) {
    bool known = false;
    for (const auto& comp : components_) {
      if (comp->name() == comp_name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          "component state: unknown component '" + comp_name + "'");
    }
  }
  for (auto& comp : components_) {
    const std::string* saved = nullptr;
    for (const auto& [comp_name, comp_blob] : blobs) {
      if (comp->name() == comp_name) {
        saved = &comp_blob;
        break;
      }
    }
    if (saved == nullptr) {
      comp->OnRestore();  // no saved state: caches are from the wrong run
      continue;
    }
    Status status = comp->LoadState(saved->data(), saved->size());
    if (!status.ok()) comp->OnRestore();  // rejected blob: drop caches
  }
  return Status::OK();
}

}  // namespace sgl
