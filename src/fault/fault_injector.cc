#include "src/fault/fault_injector.h"

#include <cmath>
#include <cstring>

#include "src/common/rng.h"

namespace sgl {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  rules_.reserve(plan_.rules.size());
  for (const FaultRule& r : plan_.rules) {
    auto compiled = std::make_unique<CompiledRule>();
    compiled->site_id = FaultSiteHash(r.site.c_str());
    compiled->name = &r.site;
    compiled->begin = r.begin;
    compiled->end = r.end;
    if (r.rate >= 1.0) {
      compiled->threshold = std::numeric_limits<uint64_t>::max();
    } else if (r.rate <= 0.0) {
      compiled->threshold = 0;
    } else {
      compiled->threshold = static_cast<uint64_t>(
          r.rate * static_cast<double>(std::numeric_limits<uint64_t>::max()));
    }
    compiled->payload = r.payload;
    compiled->max_fires = r.max_fires;
    rules_.push_back(std::move(compiled));
  }
}

bool FaultInjector::Fires(const FaultSite& site, Tick tick, uint64_t key,
                          uint64_t* payload) {
  for (const auto& r : rules_) {
    if (r->site_id != site.id) continue;
    if (tick < r->begin || tick >= r->end) continue;
    if (r->max_fires >= 0 &&
        r->fires.load(std::memory_order_relaxed) >= r->max_fires) {
      continue;
    }
    if (r->threshold != std::numeric_limits<uint64_t>::max()) {
      // The roll is a pure function of (seed, site, tick, key): no rng
      // state, so evaluation order and thread count cannot change it.
      const uint64_t roll =
          Mix64(plan_.seed ^ Mix64(site.id ^ static_cast<uint64_t>(tick)) ^
                Mix64(key + 0x9e3779b97f4a7c15ULL));
      if (r->threshold == 0 || roll > r->threshold) continue;
    }
    if (r->max_fires >= 0 &&
        r->fires.fetch_add(1, std::memory_order_relaxed) >= r->max_fires) {
      continue;  // lost a concurrent race for the last allowed fire
    }
    if (r->max_fires < 0) r->fires.fetch_add(1, std::memory_order_relaxed);
    if (payload != nullptr) *payload = r->payload;
    total_fires_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      log_.push_back(FaultEvent{site.name, tick, key});
    }
    return true;
  }
  return false;
}

Status FaultInjector::MaybeCrash(const FaultSite& site, Tick tick,
                                 uint64_t key) {
  uint64_t payload = 0;
  if (!Fires(site, tick, key, &payload)) return Status::OK();
  return Status::Internal(std::string(kFaultCrashPrefix) + " at " +
                          site.name + " tick " + std::to_string(tick));
}

int64_t FaultInjector::fires_at(const FaultSite& site) const {
  int64_t n = 0;
  for (const auto& r : rules_) {
    if (r->site_id == site.id) {
      n += r->fires.load(std::memory_order_relaxed);
    }
  }
  return n;
}

std::vector<FaultEvent> FaultInjector::Log() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_;
}

std::string FaultInjector::Describe() const {
  std::string out = "FaultPlan seed=" + std::to_string(plan_.seed) + "\n";
  std::lock_guard<std::mutex> lock(log_mu_);
  for (const FaultEvent& e : log_) {
    out += "  fired site=" + std::string(e.site) +
           " tick=" + std::to_string(e.tick) +
           " key=" + std::to_string(e.key) + "\n";
  }
  return out;
}

bool IsInjectedCrash(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message().rfind(kFaultCrashPrefix, 0) == 0;
}

}  // namespace sgl
