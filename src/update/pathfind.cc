#include "src/update/pathfind.h"

#include <algorithm>
#include <cstddef>

#include "src/common/types.h"

namespace sgl {

void FieldScratch::Fit(size_t n, int penalty_units) {
  dist.resize(n);
  head.reserve(kStepCost + 255u * static_cast<uint32_t>(penalty_units) + 1);
  // A cell is settled once and then offers itself to each neighbour once,
  // and only a strictly shorter offer queues a cell: at most 4n entries,
  // plus the goal's.
  queue.reserve(4 * n + 1);
}

void GoalField(const GridMap& map, const uint8_t* occ, int penalty_units,
               uint32_t goal, FieldScratch* s, uint64_t* next) {
  const int w = map.width();
  const size_t n = static_cast<size_t>(w) * static_cast<size_t>(map.height());
  SGL_CHECK(s->dist.size() >= n && "scratch made for a smaller map");
  constexpr uint32_t kUnreached = UINT32_MAX;
  auto step_cost = [&](size_t c) {
    return kStepCost +
           (occ != nullptr ? static_cast<uint32_t>(penalty_units) * occ[c]
                           : 0u);
  };
  // While bucket d drains, every queued distance lies in [d, d + the
  // largest step], so that many buckets plus one, reused round-robin,
  // keep distances apart.
  const uint32_t buckets =
      kStepCost + 1 +
      (occ != nullptr ? 255u * static_cast<uint32_t>(penalty_units) : 0u);
  std::fill(s->dist.begin(), s->dist.begin() + static_cast<std::ptrdiff_t>(n),
            kUnreached);
  s->head.assign(buckets, -1);
  s->queue.clear();
  for (size_t c = 0; c < n; ++c) next[c] = c;
  auto enqueue = [&](uint32_t d, size_t c) {
    int32_t& top = s->head[d % buckets];
    s->queue.push_back(
        (static_cast<uint64_t>(static_cast<uint32_t>(top)) << 32) | c);
    top = static_cast<int32_t>(s->queue.size() - 1);
  };
  size_t queued = 0;
  if (!map.Blocked(static_cast<int>(goal % static_cast<uint32_t>(w)),
                   static_cast<int>(goal / static_cast<uint32_t>(w)))) {
    s->dist[goal] = 0;
    enqueue(0, goal);
    queued = 1;
  }
  const int dx[4] = {1, -1, 0, 0};
  const int dy[4] = {0, 0, 1, -1};
  for (uint32_t d = 0; queued > 0; ++d) {
    int32_t& top = s->head[d % buckets];
    while (top >= 0) {
      const uint64_t entry = s->queue[static_cast<size_t>(top)];
      top = static_cast<int32_t>(static_cast<uint32_t>(entry >> 32));
      --queued;
      const size_t cell = static_cast<size_t>(entry & 0xffffffffu);
      if (s->dist[cell] != d) continue;  // superseded by a shorter entry
      // A neighbour reaches the goal through `cell` by stepping into it.
      const uint32_t nd = d + step_cost(cell);
      const int cx = static_cast<int>(cell % static_cast<size_t>(w));
      const int cy = static_cast<int>(cell / static_cast<size_t>(w));
      for (int k = 0; k < 4; ++k) {
        const int nx = cx + dx[k];
        const int ny = cy + dy[k];
        if (map.Blocked(nx, ny)) continue;
        const size_t nc = static_cast<size_t>(ny) * static_cast<size_t>(w) +
                          static_cast<size_t>(nx);
        if (nd < s->dist[nc]) {
          s->dist[nc] = nd;
          next[nc] = cell;
          enqueue(nd, nc);
          ++queued;
        } else if (nd == s->dist[nc] && cell < next[nc]) {
          next[nc] = cell;  // an equal route: ties to the lower index
        }
      }
    }
  }
}

}  // namespace sgl
