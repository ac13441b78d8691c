#pragma once
// Clock-free count of the shared-pool items a call runs as pool jobs: every
// item's wait is observed in "pool.task_wait_seconds" when it is claimed,
// and a pooled call returns only after all of its items, so the count's
// rise across the call is the number of items. Inline runs are not pool
// jobs and add nothing.

#include "obs/metrics.hpp"

namespace arams::test {

/// The number of pool items fn() runs.
template <typename Fn>
long pool_items_of(const Fn& fn) {
  const obs::Histogram& items =
      obs::metrics().histogram("pool.task_wait_seconds");
  const long before = items.count();
  fn();
  return items.count() - before;
}

}  // namespace arams::test
