// Counting replacement of the global operator new for the allocation test
// binary (defined in counting_new.cpp; linking that file installs it).
#pragma once

#include <cstdint>

namespace nfvsb::alloc_test {

/// operator new calls made by the calling thread so far.
[[nodiscard]] std::uint64_t thread_heap_allocs();

}  // namespace nfvsb::alloc_test
