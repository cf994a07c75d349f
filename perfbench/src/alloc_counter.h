// Process-wide count of global operator-new calls, from the same atomic
// override the allocation guard test and micro_parallel use. Linking
// alloc_counter.cc into a binary installs the override for that binary only.
#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator-new calls since process start (all threads).
uint64_t AllocationCount();

}  // namespace perfbench
